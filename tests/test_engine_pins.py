"""Engine-level output pins: one SHA-256 per run over every byte it reports.

Each digest covers `repr` of the summary, the capture grids and their
values, and every match record, ids included, so a rewrite of the clearing
step that claims to keep the output proves that no record field moved.
The configs span every clearing route: constant-rate threshold schedules at
two rates, FIFO under every rate model, the decay law, count-only runs,
patient pools and the heterogeneous row-sum route; both stop rules; runs
longer than one arrival block; a clock-grid point that lands exactly on an
arrival; and the hand tapes of the engine tests.

Like tests/test_golden.py, the digests pin this platform's numpy and
Python builds.
"""

import hashlib

import pytest

from dynaclear.arrivals import CLIENT, PROVIDER, PoissonStream, TapeSource
from dynaclear.costs import RateModel
from dynaclear.engine import DecayModel, Horizon, MatchTarget, patient_pools, run
from dynaclear.schedules import ScheduleSpec, parse_schedule

A_GRID = (1, 2, 10, 100, 1000, 2500)
TAU_GRID = (0.5, 10.0, 100.0, 1000.0, 3000.0, 6000.0)
TABLE = tuple(1 + k // 3 for k in range(4000))
RATES = {
    "const:1": RateModel.constant(1.0),
    "const:0.37": RateModel.constant(0.37),
    "uniform": RateModel.uniform_iid(0.5, 2.0),
    "product": RateModel.product_form(0.25, 4.0),
}
TAPES = {
    "pair": [(1.0, CLIENT), (2.0, PROVIDER)],
    "two-one": [(1.0, CLIENT), (2.0, CLIENT), (3.0, PROVIDER)],
    "later-pick": [(1.0, CLIENT), (2.0, PROVIDER), (3.0, CLIENT), (4.0, CLIENT), (5.0, PROVIDER)],
    "two-two": [(1.0, CLIENT), (2.0, CLIENT), (3.0, PROVIDER), (4.0, PROVIDER)],
    "row-pick": [(1.0, PROVIDER), (2.0, PROVIDER), (3.0, CLIENT)],
}


def _spec(name):
    return ScheduleSpec("custom", table=TABLE) if name == "custom" else parse_schedule(name)


def _on_arrival(seed, i):
    """The clock time of arrival i (1-based) of seed's stream."""
    times, _ = PoissonStream(seed).take_block()
    return times[i - 1]


def _digest(*parts):
    return hashlib.sha256("\n".join(map(repr, parts)).encode()).hexdigest()


def _trace_digest(trace, *extra):
    return _digest(
        trace.summary, trace.a_grid, trace.a_grid_costs, trace.tau_grid, trace.tau_grid_waits,
        *trace.records, *extra,
    )


def _case(schedule, rate, stop, seed, **kwargs):
    spec = _spec(schedule)
    mode = RATES[rate] if rate in RATES else DecayModel(float(rate.split(":")[1]))
    tape = kwargs.pop("tape", None)
    source = TapeSource(TAPES[tape]) if tape else None
    return run(spec, mode, stop, seed, source, **kwargs)


CASES = {
    # constant-rate threshold schedules, at two rates and both stop rules
    **{
        f"{schedule}/{rate}/{kind}": (schedule, rate, stop, seed, {})
        for seed, schedule in enumerate(
            ["greedy", "power:0.5", "power:0:24", "balanced", "custom"], start=101
        )
        for rate in ("const:1", "const:0.37")
        for kind, stop in (("target", MatchTarget(2500)), ("horizon", Horizon(5200.5)))
    },
    # FIFO under every rate model
    **{
        f"fcfs/{rate}": ("fcfs", rate, MatchTarget(3000), 201, {})
        for rate in ("const:1", "uniform", "product")
    },
    "fcfs/const:0.37/horizon": ("fcfs", "const:0.37", Horizon(4500.0), 202, {}),
    # the count-decay law, FIFO-paired
    "decay:1.5/power:0.6667": ("power:0.6667", "decay:1.5", MatchTarget(3000), 301, {}),
    "decay:3/power:0.45": ("power:0.45", "decay:3", Horizon(5000.0), 302, {}),
    "decay:3/greedy": ("greedy", "decay:3", MatchTarget(800), 303, {}),
    # count-only runs
    "greedy/no-costs": ("greedy", "const:1", MatchTarget(2500), 401, {"collect_costs": False}),
    "fcfs/no-costs": ("fcfs", "const:1", Horizon(5000.0), 402, {"collect_costs": False}),
    "balanced/no-costs": ("balanced", "const:1", MatchTarget(2500), 403, {"collect_costs": False}),
    # heterogeneous row-sum route
    "power:0.5/uniform": ("power:0.5", "uniform", MatchTarget(600), 501, {}),
    "greedy/product": ("greedy", "product", Horizon(900.0), 502, {}),
    # patient: pools to the horizon, then the terminal assignment
    "patient/target": ("patient", "const:1", MatchTarget(40), 601, {}),
    "patient/horizon/no-costs": ("patient", "const:1", Horizon(3000.0), 602, {"collect_costs": False}),
    # a clock-grid point exactly on an arrival, and the 4096th arrival
    "greedy/tau-on-arrival": (
        "greedy", "const:1", Horizon(5000.0), 701,
        {"tau_grid": (_on_arrival(701, 37), _on_arrival(701, 4096), 4999.0, 5000.0)},
    ),
    "fcfs/tau-on-arrival/target": (
        "fcfs", "const:1", MatchTarget(100), 702, {"tau_grid": (_on_arrival(702, 5), 150.0)},
    ),
    # a match target whose stopping arrival is a grid point
    "balanced/target-on-grid": ("balanced", "const:1", MatchTarget(1000), 703, {}),
    # hand tapes
    **{
        f"tape/{tape}/{schedule}": (schedule, "const:1", Horizon(6.0), 801, {"tape": tape})
        for tape in TAPES
        for schedule in ("greedy", "fcfs", "patient", "power:0.5")
    },
    "tape/row-pick/uniform": ("greedy", "uniform", Horizon(4.0), 802, {"tape": "row-pick"}),
}

DIGESTS = {
    "balanced/const:0.37/horizon": "d7eadea98589c8b8a64f3c29fd5139be4d45c9e38da192a3a9642a062d9cdb4d",
    "balanced/const:0.37/target": "8785ee9f35616f44109ed3fd222444e9368e5ebf195983786693498290c1f681",
    "balanced/const:1/horizon": "4d33e134a661de3a78b5e1e39c90f5419d01473b820107c12da6c18b6bb5681d",
    "balanced/const:1/target": "658a12c0a691ff908e62037d0c20d8a8af4889f01f4707780f11d4da82e313b8",
    "balanced/no-costs": "fc48e64b4e11061e399ea48ea5594430827abb85ada010bab2151cce8e0b0125",
    "balanced/target-on-grid": "b8cd98efb8e27e58624e06345287aef7852d9ed38eac83b41b18c467530cfc8d",
    "custom/const:0.37/horizon": "53b1e168beebb056e7ee1e1e348def6c541ab24b9fd5c33bee48bc008bb2e3c8",
    "custom/const:0.37/target": "85179d3aa5daa6e79f603d9f33c04fba0d56e778998af0df97579d8d447363fb",
    "custom/const:1/horizon": "4fbf773d29e77cf56584fd15dba30fa4ca195975db4bc0844a512954ca646f37",
    "custom/const:1/target": "c1bad31e76fb33e0132b424b77532b99607534d117ab5b7d0ef2a31157c1ef6d",
    "decay:1.5/power:0.6667": "871a1c59208940ef8230f82814d80f97993eb8c6c067852aca0a33a795e76b35",
    "decay:3/greedy": "f2bf88e4b1aac97a2e61d569c8790c2b47510d3e764023fba0edcc262abeeae1",
    "decay:3/power:0.45": "3e5f9c0b17f2877f9e1875a9774da9a4aa346106e28fd73d336103f2559c581e",
    "fcfs/const:0.37/horizon": "1bfc80abb174197b4518cf4f78e5c54766e8a18bf451b51d52a9618ea14eea4d",
    "fcfs/const:1": "93b76b5e41653f3ef5931314a56515c103add25ebada8134226f732e7be9fffe",
    "fcfs/no-costs": "aafdbb255b52a05ca735dac0ae1b8b0cbc5fe3a0e8760f18f126ef56d7657967",
    "fcfs/product": "b38273b29b5550881b55ad8f31b006829ca87cfe9736a53ffbb9ec006f81761f",
    "fcfs/tau-on-arrival/target": "e2f1389331bf9f5907c68a01ee267875835aed84cc9df455f4f1731eece681ba",
    "fcfs/uniform": "8360ef11f7f258bd120112a338fad87416ffb6ae5d14b65a08e151cee1200126",
    "greedy/const:0.37/horizon": "ea81acea8aed8f9261ac04537ed29686b134ac8a81443c5c3135188ae15ab55a",
    "greedy/const:0.37/target": "ac7cf01077876e2c431ad1140c042edb36468b67cf6f0876f5f33de961d39f2d",
    "greedy/const:1/horizon": "6ff16ff01f1f8b3cb33f9ade99e17b8c80a72a9fd98172552c8b951312fb8f69",
    "greedy/const:1/target": "c0abc26d0058cbc4108cf37561d2084d0be399d8c5d5fdd8348ee49701f18280",
    "greedy/no-costs": "509b55cfa6bca9b93217b8869a8a201023a1dc5f0ef476b6df0595b6c8c8a393",
    "greedy/product": "9c3cfb9c09ed8c5b1cb98f771f77db3d6254fc9630091d1d80363a1490cd6a93",
    "greedy/tau-on-arrival": "ef2806343d86f4d0c99b74de7e21cc305a714d66744a8063464f84f1b39c1e84",
    "patient/horizon/no-costs": "2291d7645d33c4e5c762766ae384f96f6e2799cf71efb81aa1ae4c4784e088e2",
    "patient/target": "6e63e487c1b890195d881c5dd39876a938037a52c2867bd81323f74911bfca50",
    "power:0.5/const:0.37/horizon": "2c5c0fac4fa4ba4e0fbab3759258df2b4cb1a7762f2c7bde395145df4a5acb4a",
    "power:0.5/const:0.37/target": "fb8b5885b7100fc53c91bea53e4e472531dd5c08e7ccd5725e527a3a46c19f46",
    "power:0.5/const:1/horizon": "8ec766b7b1f93b253d4dae74c9348aa64bc25634eb7120faeed5d37e0ed03925",
    "power:0.5/const:1/target": "04c12e337b4945c2642a9cc1b6ab4a8ed049127837a945ea8bd04723c08bf068",
    "power:0.5/uniform": "ae4ecb8b8eedc2b3d563a329848b16771e9cadcae299a5d8d25fc02b39b6a902",
    "power:0:24/const:0.37/horizon": "7ee9f2b699ec3efa869062effe20486a672a6dd6e1c22c19822dde6ed3fd2a44",
    "power:0:24/const:0.37/target": "75fc7a1565c8156ab785a6c1f4d039db37564d57e18b631c675bce0d5fd23218",
    "power:0:24/const:1/horizon": "da1c8ce6e6c5e45b6f0deab6801f881906d03d006e602138231e54f2e2007eff",
    "power:0:24/const:1/target": "66e7934bfd77fbe8a9157a11d52d0e5d54d15a179d7594a67f8d5bef7f600974",
    "tape/later-pick/fcfs": "31aac7d7741eecd2e4f594cfb2e14d2898032f1625e48710e7d44f37810a49ec",
    "tape/later-pick/greedy": "695bc5e40cf1ef63179b3315c4dd4d5945baff1edf76393ba7702f40834342ad",
    "tape/later-pick/patient": "4816ea260204426ef7a9f534d863133c8aeea1dc7d37c09381805cfa869e4e3a",
    "tape/later-pick/power:0.5": "4cd17765b2b4e325120e3fdd796425aef34a24aba3971eb378780e93c94f6335",
    "tape/pair/fcfs": "4a4e022b90a3706e5a001af9f9345d7187668cb94425651058d2b28e30833a17",
    "tape/pair/greedy": "69f92a40e2e7f4cc248494d9142b79b2c56e49a728ed60187a4ad9bce9c1e80b",
    "tape/pair/patient": "33d6c2ff26cad7acce542bb35f731ab511149c46be050fa89213f562275467ea",
    "tape/pair/power:0.5": "bd6cb8670f002456653154db1477344bc96a7b0345a8036667f8a862a2fb911a",
    "tape/row-pick/fcfs": "9409919bc2d257d31a4298886389e4895af20c06578e2146a5db49b4a109b3bb",
    "tape/row-pick/greedy": "92a3ff25dccf29a575b893593f05024243f1b05e994a5a1bc6cfbb3ce44d3de4",
    "tape/row-pick/patient": "ef37f4b1e60f55ba91958098e0126c1f6553933f4f2ac982be0e79ebf688ebfc",
    "tape/row-pick/power:0.5": "2b1d3ef1a8a5a804f4aa13ca460763e9eee6fcd2105aa3ac5eec08fd1be88257",
    "tape/row-pick/uniform": "349c856cf56aff8fff3508e0c43ae0b8a89ecc5f714d1d882b57cbdff1d10898",
    "tape/two-one/fcfs": "7b2e31654bece3e99dc05e0d1036c81e3c36349dfc910fe6e876444887693ea9",
    "tape/two-one/greedy": "158d491a8ce92581fcc9ba0d61ce75772e52c3f7e0b6b578f84b742146d84c93",
    "tape/two-one/patient": "774c1a1101fce269c76e94e823aad86dfd91fb8ab83eb0a9de6cbb37963b4bc7",
    "tape/two-one/power:0.5": "2b28bc71d0c84cfb3e0d6e1cf8b8e78f562c531e30421e181625443c40283b12",
    "tape/two-two/fcfs": "c8a50c1f7938e30a621bcaf2c61a73d24c5a11acbc854bdbd7bac3331b891791",
    "tape/two-two/greedy": "3d13a07e5bea001447acd2de189d13e34906b8c92a6789f363b04549c9313a25",
    "tape/two-two/patient": "038ad15adafe2dcb17e1406948cac56addd8fda76fe0b408aa604a3583343524",
    "tape/two-two/power:0.5": "a8e3cd9649d08d0cb68163c6f547efd4922155b3ca81dc238e10facdaa486df5",
    "patient_pools": "5ae477e944e5780460d5178a4444057e6c786d5cabb6bfc3b9ba26a0f300df67",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_outputs_are_pinned(name):
    schedule, rate, stop, seed, kwargs = CASES[name]
    grids = {"a_grid": A_GRID, "tau_grid": TAU_GRID}
    grids.update(kwargs)
    trace = _case(schedule, rate, stop, seed, **grids)
    assert _trace_digest(trace) == DIGESTS[name]


def test_patient_pools_are_pinned():
    spec = ScheduleSpec("patient")
    trace, clients, providers = patient_pools(
        spec, RATES["const:1"], MatchTarget(300), 901, collect_records=True, tau_grid=TAU_GRID,
    )
    assert _trace_digest(trace, list(clients), list(providers)) == DIGESTS["patient_pools"]
