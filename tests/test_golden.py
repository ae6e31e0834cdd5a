"""Golden output hashes: report bundles of eight small configs, byte for byte.

Each config runs `dynaclear` in process and the SHA-256 of every
deterministic bundle file is compared with a stored digest, so a refactor
that claims to keep the output proves that no byte moved.  `summary.json`
is left out: it echoes `out`, `jobs` and the package/library versions.

The digests pin this platform's numpy and Python builds (float formatting
and libm results can differ elsewhere).  If a change moves bytes on
purpose, regenerate them and say in the change log why the law still holds.
"""

import hashlib

import pytest

from dynaclear.cli import main

FILES = ("ratios_alpha.csv", "ratios_beta.csv", "fits.json", "traces.csv")

CONFIGS = {
    # constant-rate seam route on small pools after the canonical first
    # event, analytic denominator
    "greedy-const": (
        ["simulate", "--schedule", "greedy", "--rate", "const:1", "--matches", "200",
         "--reps", "12", "--seed", "11", "--a-grid", "10,25,50,100,200",
         "--tau-grid", "20,40,80,160,320", "--jobs", "1"],
        {
            "ratios_alpha.csv": "e6a027e7cb978260044e62b15f7e4c4e921cfefe830bb36ed41e08f0b3a967c4",
            "ratios_beta.csv": "cf876ab5fc83c8cca7bb332cd8975db84fdc71edf13a7513f52bfa62dc270c7a",
            "fits.json": "7f1239aa4ed78993480f35b5a8d582cefc4cf8eef9572172ef8580cb0798e6db",
            "traces.csv": "f0d5cf0c9fb8f38d76d180c370e8b3ab55d03bc93ce773180eb858d20a694be4",
        },
    ),
    # heterogeneous row-sum route and the empirical patient denominator,
    # both fanned out over two workers
    "power-uniform": (
        ["simulate", "--schedule", "power:0.5", "--rate", "uniform:0.5:2", "--matches", "120",
         "--reps", "8", "--seed", "12", "--a-grid", "5,10,20,40",
         "--tau-grid", "20,40,80,160", "--jobs", "2"],
        {
            "ratios_alpha.csv": "72985ba6545696aa7204dd197c358d9b15f9d4412b6661d9af0453403a55cc5f",
            "ratios_beta.csv": "1f4f7a5917c42478f1eba9181b5ae2282b35c4227535f4200db03c68a8f6bd4e",
            "fits.json": "c89b8e77ae2bb96d60c50d851896e69cf91b191ab74dbf592b9d50eef4a06009",
            "traces.csv": "a7780de24a3edfe7d2ef8029afcbaa4e8d17b4a840b8935ac3cd7be5bd3a7c84",
        },
    ),
    # product-form rates on the heterogeneous row-sum route, whose pool
    # state stores one factor per agent
    "power-product": (
        ["simulate", "--schedule", "power:0.5", "--rate", "product:0.25:4", "--matches", "120",
         "--reps", "8", "--seed", "17", "--a-grid", "5,10,20,40",
         "--tau-grid", "20,40,80,160", "--jobs", "1"],
        {
            "ratios_alpha.csv": "b32a953804a2b2616e4e83b7a50ed6c4d90705d994db76bf5c1a9f6ccfb3512a",
            "ratios_beta.csv": "e79a6109406526099a8d8ab42314d5ed3964be494f8f129affcef12fcf246c22",
            "fits.json": "4fb9e0e3e8293885c0e01996275660e8d54472c30f2183f922f2a7f8cfdfd233",
            "traces.csv": "c238aee72e1605e605a7b0c2ae7abe6bca5c6cc1e98c4b963e4e21e31f18d9e6",
        },
    ),
    # count-decay cost law
    "gmode": (
        ["gmode", "--delta", "3", "--gamma", "0.45", "--matches", "200",
         "--reps", "10", "--seed", "13", "--a-grid", "10,25,50,100,200",
         "--tau-grid", "20,40,80,160,320", "--jobs", "1"],
        {
            "ratios_alpha.csv": "196cd9734979bcec500ff74f4e7f54751c923ffca512a261ff9cb57e77e1f2ca",
            "ratios_beta.csv": "6a35d6fb9035c102163ff29ebb1501f2994ad0c2a14e006d76612e976ab638af",
            "fits.json": "f13286174867a6eba3accb887d8b2162fa99bfcbb4c196c41ba87abcc838943a",
            "traces.csv": "2ec59d400d998b01977db5c89a5066a6f19300a09b0f5fae280f638e29037207",
        },
    ),
    # arrival-order pairing
    "fcfs": (
        ["simulate", "--schedule", "fcfs", "--rate", "const:1", "--matches", "200",
         "--reps", "10", "--seed", "14", "--a-grid", "10,25,50,100,200",
         "--tau-grid", "20,40,80,160,320", "--jobs", "1"],
        {
            "ratios_alpha.csv": "41a214f4d3c78073f137de8c3d2f2f1ac583eb138a41c158b348cff903c21ad3",
            "ratios_beta.csv": "eb65394d6b7689059c6fe90fafddca1ba45bac702f912aa7d64f69b9a86ab2ec",
            "fits.json": "a05ff1c7e452b76991c1ac6983a0c92f1b538f44d36cf6045d6eea3b237ad737",
            "traces.csv": "d0f3c671b373a3f6579d59e1aec2d2f3e2d6facef89c883546e1f9c4cb32f279",
        },
    ),
    # constant-rate seam route on large pools: every clearing event but the
    # first samples the minimum instead of pricing the pool matrix
    "balanced-const": (
        ["simulate", "--schedule", "balanced", "--rate", "const:1", "--matches", "2000",
         "--reps", "6", "--seed", "16", "--a-grid", "20,100,500,1000,2000",
         "--tau-grid", "200,400,800,1600,3200", "--jobs", "1"],
        {
            "ratios_alpha.csv": "a45f892a8300f6e269a8a479196b35a560c3951c3bee45b054b06173b05322fb",
            "ratios_beta.csv": "46f3cb7c52d2a44409b012d0b657f3eafb8e9d37bbbc084088fbdbb4f2d78bf7",
            "fits.json": "7a5d3143655a2df9e1b9846b329216abef9c3c08e8b73341e28a1044b4b7252f",
            "traces.csv": "f1d170faf9954ab3f2588e5ffadcc29df5b32aebb8bdfd3d5e0131e8923debb6",
        },
    ),
    # unpriced clearings stopped at a horizon: every cost cell in
    # traces.csv is 0.0, and the last clearing falls before tau_max
    "power-no-costs-horizon": (
        ["simulate", "--schedule", "power:0.5", "--rate", "const:1", "--horizon", "300",
         "--reps", "8", "--seed", "19", "--no-costs", "--tau-grid", "20,40,80,160",
         "--jobs", "1"],
        {
            "ratios_alpha.csv": "283203752709f6dff053e342a4a2899c3e5cf04c7a48da062c3c82f810167ff1",
            "ratios_beta.csv": "3d18ba7c562edb37dbf9952f2b5c239eabc0407f1c07bcd33cd1cf07b0caef46",
            "fits.json": "fb76a29e5c5fddead398a8e662d61c63b945473ae3e46166e3d2df12df885535",
            "traces.csv": "4b0b76384c51cc697234079acbe04aeeea7899ca1458e63728834b8dec22973a",
        },
    ),
    # terminal optimal assignment at the horizon
    "patient": (
        ["simulate", "--schedule", "patient", "--rate", "const:1", "--matches", "60",
         "--reps", "10", "--seed", "15", "--a-grid", "5,10,20,40,60",
         "--tau-grid", "10,20,40,80,150", "--jobs", "1"],
        {
            "ratios_alpha.csv": "6a0f73f7a784247723052f3afa01150c1a6ba88e1eb866ba7f7382ded45f337b",
            "ratios_beta.csv": "12524c34a353cacd0aec0a123b106db8411066e42f801527116f307efeb4c608",
            "fits.json": "ecd539d40ff8631c4183c60eeb54e864e52ac0768e094760f7f8146db47f45c0",
            "traces.csv": "6941cf60814273d586abedd4a37b5f797b0785ed42253a33a41b829498b58c43",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bundle_bytes_are_pinned(name, tmp_path):
    argv, expected = CONFIGS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in FILES}
    assert got == expected
