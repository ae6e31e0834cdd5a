"""Tests of the benchmark itself, at reduced size.

    python3 -m pytest bench

Determinism: a rerun, and `--jobs 1` against `--jobs 2`, give the same bytes
for every workload.  Tracing: it leaves the bytes alone, brings worker
timings back to the parent and never counts a nested second twice.  Checks:
the oracle the waiting checks use is right, and a wrong bundle fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from dynaclear import cli  # noqa: E402

import checks  # noqa: E402
from run import bundle_manifest, spawn_round  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "greedy-const": dict(matches=300, reps=6, a_grid=(10, 100, 300),
                         tau_grid=(50.0, 200.0, 400.0)),
    "balanced-long": dict(matches=3000, reps=4, a_grid=(100, 1000, 3000),
                          tau_grid=(500.0, 2000.0, 4000.0)),
    "hetero-alpha": dict(matches=200, reps=4, a_grid=(10, 20, 40),
                         tau_grid=(50.0, 200.0)),
}


def small(name, **over):
    return dataclasses.replace(WORKLOADS[name], **{**SMALL[name], **over})


def simulate(wl, out, seed=3):
    shutil.rmtree(out, ignore_errors=True)
    assert cli.main(wl.argv(seed, str(out))) == 0
    return bundle_manifest(str(out))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rerun_gives_identical_bytes(tmp_path, name):
    wl = small(name)
    assert simulate(wl, tmp_path / "b") == simulate(wl, tmp_path / "b")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_jobs_do_not_change_bytes(tmp_path, name):
    one = simulate(small(name, jobs=1), tmp_path / "b")
    summary_one = json.loads((tmp_path / "b" / "summary.json").read_text())
    two = simulate(small(name, jobs=2), tmp_path / "b")
    summary_two = json.loads((tmp_path / "b" / "summary.json").read_text())
    # summary.json echoes --jobs; every other byte must agree.
    del one["summary.json"], two["summary.json"]
    assert one == two
    assert summary_one["config"].pop("jobs") == 1
    assert summary_two["config"].pop("jobs") == 2
    assert summary_one == summary_two


def test_traced_round_keeps_bytes_and_ships_worker_spans(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = small("balanced-long", jobs=2)
    out = str(tmp_path / "b")
    plain, _, err = spawn_round(wl.argv(5, out))
    assert plain is not None, err
    plain_bytes = bundle_manifest(out)
    shutil.rmtree(out)
    spans_path = str(tmp_path / "spans.json")
    traced, _, err = spawn_round(wl.argv(5, out), trace=spans_path)
    assert traced is not None, err
    assert bundle_manifest(out) == plain_bytes

    layers = traced["layers"]
    # the per-event layers count the ensemble, run in the workers, only
    assert layers["engine.events"] == wl.reps * wl.matches
    assert layers["cli.trace_reruns"] == min(wl.reps, 5)
    assert layers["assignment.solves"] == 0
    assert 0.0 < layers["ensemble.busy_s"] <= 2 * layers["ensemble.wall_s"]

    with open(spans_path, encoding="utf-8") as fh:
        dump = json.load(fh)
    # the serial reruns count in a phase of their own
    by_phase = dump["layers"]
    assert by_phase["ensemble"]["engine.run"]["calls"] == wl.reps
    assert by_phase["rerun"]["engine.run"]["calls"] == min(wl.reps, 5)
    assert by_phase["rerun"]["schedules.threshold"]["calls"] > 0
    spans = dump["spans"]
    for s in spans:
        assert set(s) == {"id", "parent", "name", "start", "end", "pid"}
        assert s["start"] <= s["end"]
    (ensemble,) = [s for s in spans if s["name"] == "engine.run_ensemble"]
    reps = [s for s in spans if s["name"] == "engine.replication"]
    assert len(reps) == wl.reps
    assert {s["parent"] for s in reps} == {ensemble["id"]}
    assert ensemble["pid"] not in {s["pid"] for s in reps}
    for s in reps:
        assert ensemble["start"] <= s["start"] <= s["end"] <= ensemble["end"]


def test_self_time_excludes_nested_calls():
    tracer = Tracer()

    def inner(n):
        return sum(range(n))

    inner_w = tracer.wrap("inner", inner)

    def outer(n):
        return inner_w(n) + inner_w(n) + sum(range(n))

    outer_w = tracer.wrap("outer", outer, record=True)
    outer_w(200_000)
    inner_w(1000)  # also called outside `outer`, like costs.rate_matrix
    assert tracer.calls("inner") == 3
    assert tracer.calls("outer") == 1
    nested = tracer.total_s("inner") - tracer.self_s("inner")
    assert nested == 0.0
    covered = tracer.total_s("outer") - tracer.self_s("outer")
    assert 0.0 < covered < tracer.total_s("inner")
    (span,) = tracer.spans
    assert span[2] == "outer" and span[1] is None


def test_phase_holds_every_call_inside_it():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    phased = tracer.wrap("phased", lambda: leaf(), phase="ensemble")
    phased()
    leaf()
    assert tracer.calls("leaf", "ensemble") == 1
    assert tracer.calls("leaf", "other") == 1
    assert tracer.calls("leaf") == 2
    assert tracer.phase == "other"


def test_greedy_wait_law_limits():
    # E|S(s)| ~ s near 0, and ~ sqrt(2 s / pi) for large s
    assert checks.greedy_wait_law(1e-3) == pytest.approx(0.5e-6, rel=1e-3)
    tau = 1e4
    asymptote = (2.0 / 3.0) * math.sqrt(2.0 / math.pi) * tau ** 1.5
    assert checks.greedy_wait_law(tau) == pytest.approx(asymptote, rel=1e-3)


def test_checks_pass_on_program_output_and_fail_on_wrong_output(tmp_path):
    wl = small("greedy-const", reps=20)
    simulate(wl, tmp_path / "b")
    bundle = str(tmp_path / "b")
    assert checks.run_checks(wl, bundle, {}) == []

    beta = tmp_path / "b" / "ratios_beta.csv"
    lines = beta.read_text().splitlines()
    rows = [lines[0], lines[1]]
    for line in lines[2:]:
        x, ratio, se, den = line.split(",")
        rows.append(",".join([x, repr(float(ratio) * 2.0), se, den]))
    beta.write_text("\n".join(rows) + "\n")
    assert checks.greedy_waits_match_exact_law(bundle, wl)

    (failure,) = checks.denominators_within_rate_bounds(
        {"denominators": [[10, 0.2], [20, 1.0], [40, 1.2]]}, small("hetero-alpha")
    )
    assert failure.startswith("A=10: ")
