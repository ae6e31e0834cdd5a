"""Command-line surface: argument handling, artifact layout, reproducibility."""

import csv
import io
import json
import math

import pytest

from dynaclear import cli, oracles
from dynaclear.cli import main
from dynaclear.costs import RateModel
from dynaclear.engine import DecayModel, Horizon, MatchTarget, run
from dynaclear.schedules import parse_schedule


def _read(path):
    return path.read_text()


def test_oracle_buck_prints_the_assignment_value(capsys):
    assert main(["oracle", "buck", "--nc", "5", "--np", "5", "--k", "5"]) == 0
    assert capsys.readouterr().out == "1.46361\n"


def test_oracle_defaults_match_flags(capsys):
    main(["oracle", "buck"])
    assert capsys.readouterr().out == "1.46361\n"


def test_oracle_basel_and_walk_print_full_precision(capsys):
    main(["oracle", "basel", "--a", "3"])
    assert float(capsys.readouterr().out) == oracles.patient_cost_equal_sided(3)
    main(["oracle", "walk", "--k", "4"])
    assert float(capsys.readouterr().out) == 1.5
    main(["oracle", "two-each"])
    assert float(capsys.readouterr().out) == 5.5
    main(["oracle", "wait", "--tau", "4"])
    assert float(capsys.readouterr().out) == (2.0 / 3.0) * 8.0
    main(["oracle", "zeta", "--s", "2"])
    assert abs(float(capsys.readouterr().out) - math.pi**2 / 6.0) < 1e-10


def test_oracle_window_reports_the_interval(capsys):
    main(["oracle", "window", "--delta", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["empty"] is False
    assert math.isclose(payload["lo"], 1.0 / 3.0)
    assert payload["hi"] == 0.5
    main(["oracle", "window", "--delta", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"empty": True, "hi": None, "lo": None}


def _simulate_args(out, **over):
    base = {
        "schedule": "greedy",
        "matches": "200",
        "reps": "15",
        "seed": "7",
        # a MatchTarget(200) run ends near tau 400, so the clock grid stays
        # far enough below that every replication covers it
        "a-grid": "10,50,200",
        "tau-grid": "30,90,270",
    }
    base.update(over)
    argv = ["simulate", "--out", str(out)]
    for key, value in base.items():
        if value is not None:
            argv += [f"--{key}", value]
    return argv


def test_simulate_writes_the_report_bundle(tmp_path):
    out = tmp_path / "greedy"
    assert main(_simulate_args(out)) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "ratios_alpha.csv",
        "ratios_beta.csv",
        "fits.json",
        "traces.csv",
        "summary.json",
    }
    summary = json.loads(_read(out / "summary.json"))
    cfg_hash = summary["config_hash"]
    assert len(cfg_hash) == 16
    for name in ("ratios_alpha.csv", "ratios_beta.csv", "traces.csv"):
        assert _read(out / name).splitlines()[0] == f"# config {cfg_hash}"
    assert json.loads(_read(out / "fits.json"))["config"] == cfg_hash
    assert summary["results"]["mean_matches"] == 200.0
    assert summary["results"]["traced_reps"] == 5
    assert summary["denominator"] == "analytic"
    assert summary["config"]["schedule"] == "greedy"


def test_simulate_alpha_table_has_the_grid(tmp_path):
    out = tmp_path / "run"
    main(_simulate_args(out))
    lines = _read(out / "ratios_alpha.csv").splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert [float(r["x"]) for r in rows] == [10.0, 50.0, 200.0]
    for row in rows:
        assert float(row["ratio"]) > 0.0
        assert row["denominator"] == "analytic"


def test_simulate_traces_replay_consistently(tmp_path):
    out = tmp_path / "run"
    main(_simulate_args(out))
    lines = _read(out / "traces.csv").splitlines()
    rows = list(csv.DictReader(lines[1:]))
    per_rep = {}
    for row in rows:
        per_rep.setdefault(row["rep"], []).append(row)
    assert set(per_rep) == {"0", "1", "2", "3", "4"}
    for rows_of_rep in per_rep.values():
        ks = [int(r["k"]) for r in rows_of_rep]
        assert ks == list(range(1, 201))
        cum = 0.0
        for r in rows_of_rep:
            cum += float(r["cost"])
            assert math.isclose(cum, float(r["cum_cost"]), rel_tol=1e-9)


def test_simulate_is_bit_identical_across_reruns_and_jobs(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    main(_simulate_args(first))
    main(_simulate_args(second, jobs="2"))
    for name in ("ratios_alpha.csv", "ratios_beta.csv", "fits.json", "traces.csv"):
        assert _read(first / name) == _read(second / name)
    # summaries differ only in the jobs echo
    s1 = json.loads(_read(first / "summary.json"))
    s2 = json.loads(_read(second / "summary.json"))
    assert s1["config_hash"] == s2["config_hash"]
    assert s1["results"] == s2["results"]


def test_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(
        json.dumps(
            {
                "schedule": "greedy",
                "matches": 100,
                "reps": 5,
                "seed": 3,
                "a_grid": [10, 100],
                "tau_grid": [20.0, 200.0],
            }
        )
    )
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(cfg_path), "--out", str(out), "--matches", "150",
         "--a-grid", "10,150"]
    )
    assert code == 0
    summary = json.loads(_read(out / "summary.json"))
    assert summary["config"]["matches"] == 150
    assert summary["config"]["reps"] == 5
    assert summary["config"]["a_grid"] == [10, 150]


def test_no_costs_mode_skips_alpha(tmp_path):
    out = tmp_path / "wait"
    code = main(
        ["simulate", "--schedule", "patient", "--horizon", "100", "--reps", "10",
         "--seed", "11", "--no-costs", "--tau-grid", "25,50,100", "--out", str(out)]
    )
    assert code == 0
    lines = _read(out / "ratios_alpha.csv").splitlines()
    assert len(lines) == 2  # comment + header, no estimates
    beta_rows = list(csv.DictReader(_read(out / "ratios_beta.csv").splitlines()[1:]))
    assert [float(r["x"]) for r in beta_rows] == [25.0, 50.0, 100.0]
    summary = json.loads(_read(out / "summary.json"))
    assert summary["results"]["mean_total_cost"] == 0.0


def test_heterogeneous_rates_use_the_empirical_denominator(tmp_path):
    out = tmp_path / "hetero"
    code = main(
        ["simulate", "--schedule", "greedy", "--rate", "uniform:1:2", "--matches", "40",
         "--reps", "25", "--seed", "13", "--a-grid", "10,40", "--tau-grid", "10,40",
         "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(_read(out / "ratios_alpha.csv").splitlines()[1:]))
    assert all(r["denominator"] == "empirical" for r in rows)
    summary = json.loads(_read(out / "summary.json"))
    assert summary["denominator"] == "empirical"


def test_heterogeneous_rates_reject_large_grids(tmp_path, capsys):
    out = tmp_path / "hetero"
    code = main(
        ["simulate", "--schedule", "greedy", "--rate", "uniform:1:2",
         "--matches", "2500", "--reps", "5", "--seed", "13",
         "--a-grid", "250,2500", "--out", str(out)]
    )
    assert code == 2
    assert "empirical patient denominator" in capsys.readouterr().err


def test_coverage_is_checked_before_the_empirical_denominator(tmp_path, capsys, monkeypatch):
    # a default a-grid some replications fall short of must fail before the
    # denominator's patient runs and solves are spent
    def never(*args, **kwargs):
        raise AssertionError("empirical denominator built before the coverage check")

    monkeypatch.setattr(cli, "empirical_patient_denominator", never)
    code = main(
        ["simulate", "--schedule", "greedy", "--rate", "uniform:0.5:2", "--horizon", "300",
         "--reps", "100", "--seed", "1", "--out", str(tmp_path / "h")]
    )
    assert code == 2
    assert "pass --a-grid with every point at or below that count" in capsys.readouterr().err


def test_sweep_writes_per_schedule_directories(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--schedules", "greedy,power:0.75", "--matches", "120", "--reps", "8",
         "--seed", "21", "--a-grid", "10,30,60,120", "--tau-grid", "20,40,80,160",
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "greedy" / "summary.json").exists()
    assert (out / "power-0.75" / "summary.json").exists()
    combined = json.loads(_read(out / "fits.json"))["fits"]
    assert "greedy/alpha_loglog" in combined
    assert "power:0.75/beta_loglog" in combined


def test_gmode_runs_the_decay_law(tmp_path):
    out = tmp_path / "gmode"
    code = main(
        ["gmode", "--gamma", "0.6", "--delta", "3", "--matches", "150", "--reps", "6",
         "--seed", "19", "--a-grid", "10,50,150", "--tau-grid", "40,80,160",
         "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(_read(out / "summary.json"))
    assert summary["config"]["schedule"] == "power:0.6"
    assert summary["config"]["delta"] == 3.0
    assert summary["config"]["rate"] is None


def test_jobs_default_comes_from_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNACLEAR_JOBS", "2")
    out = tmp_path / "env"
    main(_simulate_args(out, reps="4", matches="30", **{"a-grid": "10,30", "tau-grid": "20,60"}))
    summary = json.loads(_read(out / "summary.json"))
    assert summary["config"]["jobs"] == 2


def test_bad_worker_counts_exit_two(tmp_path, monkeypatch, capsys):
    grids = {"a-grid": "10", "tau-grid": "5"}
    argv = _simulate_args(tmp_path / "w", reps="2", matches="10", **grids)
    for jobs in ("0", "-3"):
        assert main(argv + ["--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert main(["validate", "--only", "14", "--jobs", "0"]) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    for raw in ("two", "0"):
        monkeypatch.setenv("DYNACLEAR_JOBS", raw)
        assert main(argv) == 2
        assert "$DYNACLEAR_JOBS must be a positive integer" in capsys.readouterr().err
    # an explicit flag does not consult the variable
    assert main(argv + ["--jobs", "1"]) == 0


def test_horizon_run_coverage_error_names_the_a_grid_fix(tmp_path, capsys):
    # the default a-grid tops out at 0.45 * horizon, which a few of 100
    # greedy replications fall short of at this size
    argv = ["simulate", "--schedule", "greedy", "--horizon", "120", "--reps", "100",
            "--seed", "1", "--out", str(tmp_path / "h")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    fewest = int(err.split("the fewest matches any replication reached is ")[1].split(";")[0])
    assert f"reached is {fewest}; pass --a-grid with every point at or below that count" in err
    assert main(argv + ["--a-grid", f"1,{fewest}"]) == 0


def test_config_errors_exit_two(tmp_path, capsys):
    out = str(tmp_path / "x")
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    numbered = tmp_path / "numbered.json"
    numbered.write_text('{"schedule": 5}')
    cases = [
        ["simulate", "--config", str(listed), "--matches", "10", "--seed", "1", "--out", out],
        ["simulate", "--config", str(numbered), "--matches", "10", "--seed", "1", "--out", out],
        ["simulate", "--schedule", "greedy", "--matches", "10", "--horizon", "5",
         "--seed", "1", "--out", out],
        ["simulate", "--schedule", "greedy", "--matches", "10", "--out", out],
        ["simulate", "--schedule", "bogus", "--matches", "10", "--seed", "1", "--out", out],
        ["simulate", "--schedule", "greedy", "--rate", "weird:1", "--matches", "10",
         "--seed", "1", "--out", out],
        ["simulate", "--schedule", "greedy", "--matches", "10", "--seed", "1",
         "--a-grid", "30,10", "--out", out],
        ["simulate", "--schedule", "greedy", "--matches", "10", "--seed", "1"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:")
    # values the engine's own types reject, converted at the command line
    bad_values = [
        ["simulate", "--schedule", "greedy", "--matches", "0", "--seed", "1", "--out", out],
        ["simulate", "--schedule", "greedy", "--horizon", "-5", "--a-grid", "1",
         "--tau-grid", "1", "--seed", "1", "--out", out],
        ["simulate", "--schedule", "greedy", "--horizon", "nan", "--seed", "1", "--out", out],
        ["simulate", "--schedule", "greedy", "--horizon", "inf", "--seed", "1", "--out", out],
        ["gmode", "--schedule", "greedy", "--delta", "0.5", "--matches", "10", "--seed", "1",
         "--out", out],
        ["gmode", "--schedule", "greedy", "--delta", "3", "--scale", "-1", "--matches", "10",
         "--seed", "1", "--out", out],
        ["gmode", "--schedule", "fcfs", "--delta", "3", "--matches", "10", "--seed", "1",
         "--out", out],
        ["oracle", "buck", "--k", "0"],
    ]
    for argv in bad_values:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:")
    # each --config key's JSON type is checked: a "false" string must not read as true
    typed = [
        ("no_costs", "false"), ("a_grid", 5), ("a_grid", [10, "x"]), ("tau_grid", {"a": 1}),
        ("reps", [1]), ("reps", True), ("matches", 10.5), ("horizon", "long"), ("seed", "1"),
        ("rate", 1), ("jobs", 1.0),
    ]
    for key, value in typed:
        cfg = {"schedule": "greedy", "matches": 10, "reps": 2, "seed": 1, "a_grid": [10],
               "tau_grid": [5.0], key: value}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", out]) == 2, (key, value)
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} must be" in err, err
    # a key the config does not know must not run on the defaults: a flag's
    # hyphenated spelling is named with its underscore form
    for key, hint in (("a-grid", "'a_grid'"), ("repetitions", "")):
        cfg = {"schedule": "greedy", "matches": 40, "reps": 3, "seed": 1, key: [7],
               "tau_grid": [5.0]}
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", out]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unknown key '{key}'" in err, err
        assert hint in err and ("did you mean" in err) == bool(hint), err


def test_config_null_stands_for_an_absent_key(tmp_path, monkeypatch):
    monkeypatch.delenv("DYNACLEAR_JOBS", raising=False)
    path = tmp_path / "nulls.json"
    path.write_text(json.dumps({"delta": 3, "matches": 10, "seed": 1, "reps": None,
                                "scale": None, "jobs": None, "no_costs": None}))
    args = cli._build_parser().parse_args(
        ["gmode", "--config", str(path), "--out", str(tmp_path / "o")])
    cfg = cli._build_config(args, "gmode", "greedy")
    assert (cfg.reps, cfg.scale, cfg.jobs, cfg.no_costs) == (100, 1.0, 1, False)


def test_patient_entry_cap_names_the_no_costs_flag(tmp_path, capsys):
    argv = ["simulate", "--schedule", "patient", "--matches", "1700", "--reps", "1",
            "--seed", "1", "--out", str(tmp_path / "p")]
    assert main(argv) == 2
    assert "--no-costs" in capsys.readouterr().err


def test_internal_value_errors_are_not_exit_two(tmp_path, monkeypatch):
    # exit 2 means bad input; a fault inside the run must surface as itself
    def broken(*args, **kwargs):
        raise ValueError("fault inside the ensemble")

    monkeypatch.setattr(cli, "run_ensemble", broken)
    with pytest.raises(ValueError, match="fault inside the ensemble"):
        main(_simulate_args(tmp_path / "v", reps="2", matches="10",
                            **{"a-grid": "10", "tau-grid": "5"}))


def test_oracle_faults_are_not_exit_two(monkeypatch):
    # only an argument outside an oracle's domain is bad input
    def broken(s):
        raise ValueError("fault inside the series")

    monkeypatch.setattr(oracles, "zeta", broken)
    with pytest.raises(ValueError, match="fault inside the series"):
        main(["oracle", "zeta"])


def test_validate_only_runs_selected_criteria(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["validate", "--only", "1,13,14", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/3 criteria passed" in out
    payload = json.loads(_read(report))
    assert [c["number"] for c in payload["criteria"]] == [1, 13, 14]
    assert all(c["passed"] for c in payload["criteria"])


def test_validate_rejects_unknown_selector(capsys):
    assert main(["validate", "--only", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


def _csv_writer_traces(traced, config_hash):
    """traces.csv as a csv.writer renders each trace's MatchRecords."""
    buf = io.StringIO(newline="")
    buf.write(f"# config {config_hash}\n")
    writer = csv.writer(buf)
    writer.writerow(["rep", "k", "time", "cost", "m_c", "m_p", "cum_cost", "cum_wait"])
    for rep, trace in traced:
        for r in trace.records:
            writer.writerow([
                rep, r.k, repr(r.time), repr(r.cost), r.m_c, r.m_p,
                repr(r.cum_cost), repr(r.cum_wait),
            ])
    return buf.getvalue().encode("utf-8")


TRACE_CASES = {
    "const-threshold": ("power:0.5", RateModel.constant(1.0), MatchTarget(300), {}),
    "fifo": ("fcfs", RateModel.constant(0.37), MatchTarget(300), {}),
    "decay": ("power:0.45", DecayModel(3.0), MatchTarget(300), {}),
    "uniform": ("power:0.5", RateModel.uniform_iid(0.5, 2.0), MatchTarget(120), {}),
    "product": ("power:0.5", RateModel.product_form(0.25, 4.0), MatchTarget(120), {}),
    "patient": ("patient", RateModel.constant(1.0), MatchTarget(30), {}),
    "no-costs": ("balanced", RateModel.constant(1.0), Horizon(500.0), {"collect_costs": False}),
}


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_write_traces_matches_a_csv_writer_rendering(name, tmp_path):
    schedule, mode, stop, kwargs = TRACE_CASES[name]
    traced = [
        (rep, run(parse_schedule(schedule), mode, stop, seed, **kwargs))
        for rep, seed in enumerate((23, 24, 25))
    ]
    assert all(trace.records for _, trace in traced)
    path = tmp_path / "traces.csv"
    cli._write_traces(str(path), traced, "0123456789abcdef")
    assert path.read_bytes() == _csv_writer_traces(traced, "0123456789abcdef")


def test_write_traces_of_runs_without_clearings_is_the_header(tmp_path):
    trace = run(parse_schedule("greedy"), RateModel.constant(1.0), Horizon(0.01), 23)
    assert trace.summary.a == 0 and trace.records == []
    path = tmp_path / "traces.csv"
    cli._write_traces(str(path), [(0, trace), (1, trace)], "0123456789abcdef")
    assert path.read_bytes() == _csv_writer_traces([], "0123456789abcdef")
    assert path.read_bytes().count(b"\n") == 2
