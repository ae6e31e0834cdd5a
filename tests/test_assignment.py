import math
import os
import subprocess
import sys
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynaclear
from dynaclear.arrivals import CLIENT, PROVIDER, TapeSource
from dynaclear.assignment import Assignment, brute_force_k_assignment, min_k_assignment
from dynaclear.costs import RateModel
from dynaclear.engine import Horizon, run
from dynaclear.schedules import ScheduleSpec


@st.composite
def matrices(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    vals = draw(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=n * m,
            max_size=n * m,
        )
    )
    return np.array(vals, dtype=np.float64).reshape(n, m)


def test_min_edge_picks_global_minimum():
    # the one-assignment is the cheapest single edge
    best = min_k_assignment([[3.0, 1.0], [2.0, 5.0]], 1)
    assert (best.pairs, best.total) == (((0, 1),), 1.0)


def test_min_edge_rejects_degenerate_input():
    for solver in (min_k_assignment, brute_force_k_assignment):
        with pytest.raises(ValueError):
            solver(np.empty((0, 3)), 1)
        with pytest.raises(ValueError):
            solver([[1.0, -2.0]], 1)
        with pytest.raises(ValueError):
            solver([[1.0, math.inf]], 1)


def test_min_k_assignment_examples():
    assert min_k_assignment([[7.0]], 1).total == 7.0
    best = min_k_assignment([[1.0, 2.0], [3.0, 0.0]], 2)
    assert best.total == 1.0
    assert set(best.pairs) == {(0, 0), (1, 1)}


def test_min_k_assignment_range_checks():
    with pytest.raises(ValueError):
        min_k_assignment([[1.0, 2.0]], 2)
    with pytest.raises(ValueError):
        min_k_assignment([[1.0]], 0)


def test_brute_force_examples():
    assert brute_force_k_assignment([[7.0]], 1).total == 7.0
    assert brute_force_k_assignment([[0.0, 1.0], [1.0, 0.0]], 2).total == 0.0


def test_brute_force_three_by_two():
    # six selections: 4+9, 2+1, 4+3, 2+3, 1+3, 9+3; cheapest is 1+2 = 3
    best = brute_force_k_assignment([[4.0, 2.0], [1.0, 9.0], [3.0, 3.0]], 2)
    assert best.total == 3.0
    assert set(best.pairs) == {(1, 0), (0, 1)}


def test_brute_force_refuses_large_matrices():
    with pytest.raises(ValueError):
        brute_force_k_assignment(np.ones((9, 2)), 2)
    with pytest.raises(ValueError):
        brute_force_k_assignment(np.ones((2, 9)), 2)


def test_assignment_record_rejects_reuse():
    with pytest.raises(ValueError):
        Assignment(((0, 0), (0, 1)), 2.0)
    with pytest.raises(ValueError):
        Assignment(((0, 0), (1, 0)), 2.0)
    with pytest.raises(ValueError):
        Assignment(((0, 0),), math.nan)


@given(matrices())
@settings(max_examples=300)
def test_solver_agrees_with_brute_force(mat):
    for k in range(1, min(mat.shape) + 1):
        fast = min_k_assignment(mat, k)
        slow = brute_force_k_assignment(mat, k)
        assert len(fast.pairs) == k
        assert math.isclose(fast.total, slow.total, rel_tol=1e-12, abs_tol=1e-12)


@given(matrices())
def test_solver_total_recomputes_from_pairs(mat):
    k = min(mat.shape)
    best = min_k_assignment(mat, k)
    resum = math.fsum(float(mat[i, j]) for i, j in best.pairs)
    assert math.isclose(best.total, resum, rel_tol=0.0, abs_tol=1e-12)


@given(matrices())
def test_solver_total_is_monotone_in_k(mat):
    totals = [
        min_k_assignment(mat, k).total for k in range(1, min(mat.shape) + 1)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))


@given(matrices(), st.integers(0, 10**6), st.floats(0.001, 50.0))
@settings(max_examples=150)
def test_raising_one_entry_never_helps(mat, pos, delta):
    k = min(mat.shape)
    base = min_k_assignment(mat, k).total
    bumped = mat.copy()
    i, j = pos % mat.shape[0], (pos // mat.shape[0]) % mat.shape[1]
    bumped[i, j] += delta
    assert min_k_assignment(bumped, k).total >= base - 1e-9


def _k_assignment_lp_total(mat, k):
    # min c.x over 0 <= x <= 1 with row and column sums at most 1 and k in
    # all: a flow polytope, so the LP optimum is an optimal k-assignment
    from scipy.optimize import linprog

    n, m = mat.shape
    rows = np.kron(np.eye(n), np.ones(m))
    cols = np.kron(np.ones(n), np.eye(m))
    res = linprog(
        mat.ravel(), A_ub=np.vstack([rows, cols]), b_ub=np.ones(n + m),
        A_eq=np.ones((1, n * m)), b_eq=[k], bounds=(0.0, 1.0), method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def test_padded_route_matches_the_linear_program():
    # k < min(n, m) takes the padded square; check it past brute-force sizes
    rng = np.random.default_rng(6060)
    for _ in range(20):
        n, m = int(rng.integers(9, 41)), int(rng.integers(9, 61))
        mat = rng.standard_exponential((n, m))
        for k in sorted({1, min(n, m) // 3, min(n, m) - 1, min(n, m)}):
            best = min_k_assignment(mat, k)
            assert len(best.pairs) == k
            assert math.isclose(best.total, _k_assignment_lp_total(mat, k), rel_tol=1e-9)


def test_solver_loads_the_extension_without_scipy_optimize():
    # the fallback import would pull in all of scipy.optimize and its memory
    probe = (
        "import sys, dynaclear.assignment as a\n"
        "a.min_k_assignment([[2.0, 1.0], [1.0, 3.0]], 1)\n"
        "print(a._lsap.__self__.__file__)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(dynaclear.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    suffix = "_lsap" + sysconfig.get_config_var("EXT_SUFFIX")
    assert out[0].endswith(os.path.join("scipy", "optimize", suffix))
    assert out[1] == "False"


def test_min_edge_equals_one_assignment():
    rng = np.random.default_rng(88)
    for _ in range(200):
        mat = rng.exponential(size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert min_k_assignment(mat, 1).total == mat.min()


def test_square_exponential_mean_small_case():
    # mean optimal 3-assignment of 3x3 exp(1) entries: 1 + 1/4 + 1/9
    rng = np.random.default_rng(3030)
    reps = 20_000
    totals = np.array(
        [min_k_assignment(rng.exponential(size=(3, 3)), 3).total for _ in range(reps)]
    )
    se = totals.std(ddof=1) / math.sqrt(reps)
    assert abs(totals.mean() - (1.0 + 0.25 + 1.0 / 9.0)) <= 3.0 * se


def test_fcfs_repeated_application_drains_in_arrival_order():
    # five clients wait, then five providers arrive one by one; first-come-
    # first-served pairs each provider with the longest-waiting client
    rows = [(float(t), CLIENT) for t in range(1, 6)] + [
        (float(t), PROVIDER) for t in range(6, 11)
    ]
    trace = run(
        ScheduleSpec("fcfs"), RateModel.constant(1.0), Horizon(10.0), 3, source=TapeSource(rows)
    )
    assert [(r.client_id, r.provider_id) for r in trace.records] == [
        (i, i + 5) for i in range(1, 6)
    ]
