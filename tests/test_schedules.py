"""Clearing-schedule thresholds, the firing rule, and the spec grammar."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynaclear.costs import RateModel
from dynaclear.engine import Horizon, run
from dynaclear.schedules import (
    ScheduleSpec,
    load_threshold_table,
    parse_schedule,
    threshold,
)

BUILTINS = [
    ScheduleSpec("greedy"),
    ScheduleSpec("fcfs"),
    ScheduleSpec("power", gamma=0.25),
    ScheduleSpec("power", gamma=0.5),
    ScheduleSpec("power", gamma=0.75, scale=2.0),
    ScheduleSpec("balanced"),
    ScheduleSpec("balanced", scale=0.5),
]


def test_greedy_and_fcfs_thresholds_are_one():
    for k in (1, 2, 17, 10**6):
        assert threshold(ScheduleSpec("greedy"), k) == 1
        assert threshold(ScheduleSpec("fcfs"), k) == 1


def test_power_law_threshold_values():
    power_half = ScheduleSpec("power", gamma=0.5)
    assert threshold(power_half, 9) == 3
    assert threshold(power_half, 10) == 4  # ceil(3.162...)
    assert threshold(ScheduleSpec("power", gamma=0.0), 5) == 1
    assert threshold(ScheduleSpec("power", gamma=0.5, scale=2.0), 9) == 6


def test_balanced_threshold_values():
    balanced = ScheduleSpec("balanced")
    assert threshold(balanced, 1) == 1  # log 1 = 0, floored to 1
    assert threshold(balanced, 2981) == 110
    # sqrt(100) * (log 100)^(1/3) = 10 * 1.6624... -> 17
    assert threshold(balanced, 100) == 17


def test_threshold_rejects_bad_index_and_patient():
    with pytest.raises(ValueError):
        threshold(ScheduleSpec("greedy"), 0)
    with pytest.raises(ValueError):
        threshold(ScheduleSpec("patient"), 1)


@given(spec=st.sampled_from(BUILTINS), k=st.integers(1, 10**5))
def test_threshold_is_a_positive_count(spec, k):
    f = threshold(spec, k)
    assert isinstance(f, int)
    assert f >= 1


@given(spec=st.sampled_from(BUILTINS), k=st.integers(1, 10**5))
def test_threshold_is_non_decreasing(spec, k):
    assert threshold(spec, k + 1) >= threshold(spec, k)


def test_patient_never_clears():
    # threshold infinity: a long run makes no match before its horizon, then
    # the terminal assignment matches the whole short side at once
    trace = run(ScheduleSpec("patient"), RateModel.constant(1.0), Horizon(60.0), seed=4)
    short = min(trace.summary.n_c, trace.summary.n_p)
    assert short >= 10
    assert [r.time for r in trace.records] == [60.0] * short


def test_spec_validation():
    with pytest.raises(ValueError):
        ScheduleSpec("bogus")
    with pytest.raises(ValueError):
        ScheduleSpec("power")
    with pytest.raises(ValueError):
        ScheduleSpec("power", gamma=1.5)
    with pytest.raises(ValueError):
        ScheduleSpec("power", gamma=-0.1)
    with pytest.raises(ValueError):
        ScheduleSpec("greedy", gamma=0.5)
    with pytest.raises(ValueError):
        ScheduleSpec("power", gamma=0.5, scale=0.0)
    with pytest.raises(ValueError):
        ScheduleSpec("greedy", table=(1, 2))
    with pytest.raises(ValueError):
        ScheduleSpec("custom")


def test_custom_table_validation():
    ScheduleSpec("custom", table=(1, 1, 2, 2, 3))
    with pytest.raises(ValueError):
        ScheduleSpec("custom", table=())
    with pytest.raises(ValueError):
        ScheduleSpec("custom", table=(2, 1))
    with pytest.raises(ValueError):
        ScheduleSpec("custom", table=(0, 1))
    # a table that keeps f(k) >= k starves the market
    with pytest.raises(ValueError, match="fast"):
        ScheduleSpec("custom", table=tuple(range(1, 12)))


def test_custom_threshold_lookup_and_range():
    spec = ScheduleSpec("custom", table=(1, 1, 2))
    assert [threshold(spec, k) for k in (1, 2, 3)] == [1, 1, 2]
    with pytest.raises(ValueError):
        threshold(spec, 4)


def test_parse_round_trips():
    for text in ["greedy", "fcfs", "patient", "power:0.75", "power:0.5:2", "balanced", "balanced:2"]:
        spec = parse_schedule(text)
        assert parse_schedule(spec.label()) == spec


def test_parse_values():
    spec = parse_schedule("power:0.75:1.5")
    assert (spec.kind, spec.gamma, spec.scale) == ("power", 0.75, 1.5)
    assert parse_schedule(" greedy ").kind == "greedy"


def test_parse_rejects_malformed_text():
    for text in ["power", "power:0.5:1:9", "greedy:1", "bogus", "power:2", "balanced:0"]:
        with pytest.raises(ValueError, match="bad schedule"):
            parse_schedule(text)


def test_load_threshold_table_and_custom_parse(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("k,f\n1,1\n2,1\n3,2\n")
    assert load_threshold_table(str(path)) == (1, 1, 2)
    spec = parse_schedule(f"custom:{path}")
    assert spec.table == (1, 1, 2)
    assert threshold(spec, 3) == 2


def test_load_threshold_table_rejects_gaps(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("k,f\n1,1\n3,2\n")
    with pytest.raises(ValueError, match="expected 2"):
        load_threshold_table(str(path))
    bad_header = tmp_path / "hdr.csv"
    bad_header.write_text("k,threshold\n1,1\n")
    with pytest.raises(ValueError, match="k,f"):
        load_threshold_table(str(bad_header))
