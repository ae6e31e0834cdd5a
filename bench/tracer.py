"""In-memory tracing of dynaclear's layers, installed from outside the package.

`install` replaces the public function each layer exposes with a wrapper,
under the name its callers look it up by (a module attribute, or the copy a
caller imported with `from ... import`).  Every wrapped call pushes a frame;
when it returns, its self time is its duration minus the durations of the
wrapped calls made inside it, so nested wrappers (`costs.rate_matrix` inside
`costs.cost_matrix_at_event`, and also called straight from the engine)
never count a second twice.

Per-call layers with millions of calls are kept as aggregates (calls, total
and self seconds), apart for each *phase* of the command: `ensemble` (the
replications of `engine.run_ensemble`), `rerun` (the serial traced
replications `cli` runs after it), `denominator` (the empirical patient
denominator) and `other`.  A wrapper named with `phase=` puts every call made
inside it into that phase, so `costs.cost_matrix_at_event` counts in
`ensemble` when the engine prices an event and in `denominator` when the
patient benchmark builds its matrices.  Coarse layers, named with `record=True`, also keep one
span each: id, parent span id, name, start, end and process id.  Spans stay
in memory and `dump` writes them out at the end.

Under `--jobs N` the engine forks worker processes.  The wrappers marked
`ship=True` (one replication, one patient sample) notice that they run in a
worker, trace the task into a fresh buffer and return a `_Shipped` carrier;
unpickling the carrier in the parent hands the buffer to the parent's tracer
and yields the bare result, so the program never sees the carrier.
`time.perf_counter` reads CLOCK_MONOTONIC, so worker and parent times share
one clock.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional

_ACTIVE: Optional["Tracer"] = None


class _Frame:
    __slots__ = ("name", "start", "child", "span")

    def __init__(self, name: str, start: float, span: Optional[str]):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span


class _Shipped:
    """A worker's result with the trace it made; unpickles to the bare result."""

    def __init__(self, value, payload):
        self.value = value
        self.payload = payload

    def __reduce__(self):
        return _land, (self.value, self.payload)


def _land(value, payload):
    # Runs in the parent's pool result thread: a list append is atomic, and
    # the buffers are merged on the main thread later.
    if _ACTIVE is not None:
        _ACTIVE.inbox.append(payload)
    return value


# The phases of one `dynaclear simulate` command; see the module docstring.
ENSEMBLE, RERUN, DENOMINATOR, OTHER = "ensemble", "rerun", "denominator", "other"


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        # phase -> name -> [calls, total_s, self_s], and phase -> counter -> n
        self.stats: Dict[str, Dict[str, List[float]]] = {}
        self.counts: Dict[str, Dict[str, int]] = {}
        self.spans: List[tuple] = []
        self.inbox: List[tuple] = []
        self._stack = [_Frame("", 0.0, None)]
        self._seq = 0
        self._enter(OTHER)

    def _enter(self, phase: str) -> None:
        self.phase = phase
        self._stats = self.stats.setdefault(phase, {})
        self._counts = self.counts.setdefault(phase, {})

    def wrap(self, name: str, fn: Callable, *, record: bool = False,
             counter: Optional[Callable] = None, ship: bool = False,
             phase: Optional[str] = None) -> Callable:
        """`fn` under a wrapper that traces each call as layer `name`.

        `counter(args, kwargs, result, parent_name)` yields (counter,
        increment) pairs after each call.  With `phase`, the call and every
        traced call inside it count in that phase.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ship and os.getpid() != self.pid:
                return self._call_in_worker(name, fn, record, counter, phase, args, kwargs)
            if phase is None or phase == self.phase:
                return self._call(name, fn, record, counter, args, kwargs)
            return self._call_in_phase(phase, name, fn, record, counter, args, kwargs)

        return wrapper

    def _call_in_phase(self, phase, *call):
        outer = self.phase
        self._enter(phase)
        try:
            return self._call(*call)
        finally:
            self._enter(outer)

    def _call(self, name, fn, record, counter, args, kwargs):
        parent = self._stack[-1]
        span = parent.span
        if record:
            self._seq += 1
            span = f"{os.getpid()}.{self._seq}"
        frame = _Frame(name, time.perf_counter(), span)
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame.start
            parent.child += duration
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame.child
            if record:
                self.spans.append((span, parent.span, name, frame.start, end, os.getpid()))
        if counter is not None:
            counts = self._counts
            for key, inc in counter(args, kwargs, result, parent.name):
                counts[key] = counts.get(key, 0) + inc
        return result

    def _call_in_worker(self, name, fn, record, counter, phase, args, kwargs):
        saved = self.stats, self.counts, self.spans, self._stack, self.phase
        self.stats, self.counts, self.spans = {}, {}, []
        # The fork copied the parent's stack; link the task's span to the
        # parent span that was open when the pool forked.
        self._stack = [_Frame("", 0.0, saved[3][-1].span)]
        self._enter(phase or saved[4])
        try:
            result = self._call(name, fn, record, counter, args, kwargs)
            payload = (self.stats, self.counts, self.spans)
        finally:
            self.stats, self.counts, self.spans, self._stack, phase = saved
            self._enter(phase)
        return _Shipped(result, payload)

    def merge_inbox(self) -> None:
        """Fold the buffers shipped back from worker processes into this tracer."""
        while self.inbox:
            stats, counts, spans = self.inbox.pop()
            for phase, layers in stats.items():
                mine = self.stats.setdefault(phase, {})
                for name, (calls, total, self_s) in layers.items():
                    stat = mine.setdefault(name, [0, 0.0, 0.0])
                    stat[0] += calls
                    stat[1] += total
                    stat[2] += self_s
            for phase, keys in counts.items():
                mine = self.counts.setdefault(phase, {})
                for key, inc in keys.items():
                    mine[key] = mine.get(key, 0) + inc
            self.spans.extend(spans)

    def _stat(self, name: str, phase: Optional[str], i: int):
        phases = self.stats.values() if phase is None else [self.stats.get(phase, {})]
        return sum(p[name][i] for p in phases if name in p)

    def calls(self, name: str, phase: Optional[str] = None) -> int:
        """Calls of layer `name` in `phase`, or in every phase."""
        return self._stat(name, phase, 0)

    def total_s(self, name: str, phase: Optional[str] = None) -> float:
        return self._stat(name, phase, 1)

    def self_s(self, name: str, phase: Optional[str] = None) -> float:
        return self._stat(name, phase, 2)

    def count(self, key: str, phase: Optional[str] = None) -> int:
        phases = self.counts.values() if phase is None else [self.counts.get(phase, {})]
        return sum(p.get(key, 0) for p in phases)

    def dump(self, path: str) -> None:
        self.merge_inbox()
        keys = ("id", "parent", "name", "start", "end", "pid")
        payload = {
            "spans": [dict(zip(keys, s)) for s in sorted(self.spans, key=lambda s: s[3])],
            "layers": {
                phase: {
                    name: {"calls": c, "total_s": t, "self_s": s}
                    for name, (c, t, s) in sorted(layers.items())
                }
                for phase, layers in sorted(self.stats.items()) if layers
            },
            "counts": {
                phase: dict(sorted(keys.items()))
                for phase, keys in sorted(self.counts.items()) if keys
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)


def _matrix_counts(args, kwargs, result, parent):
    yield "costs.matrix_pairs", len(args[0]) * len(args[1])
    if parent == "engine.run":
        yield "engine.matrix_events", 1


def _run_counts(args, kwargs, trace, parent):
    yield "engine.events", trace.summary.a
    yield "engine.arrivals", trace.summary.n_c + trace.summary.n_p


def _solve_counts(args, kwargs, result, parent):
    rows, cols = args[0].shape
    yield "assignment.entries", rows * cols


def _ensemble_counts(args, kwargs, result, parent):
    yield "ensemble.jobs", kwargs.get("jobs", 1)


# Layer name -> the name under which cli calls it.
ESTIMATORS = {
    "analysis.matching_ratio": "matching_ratio",
    "analysis.waiting_ratio": "waiting_ratio",
    "analysis.fit_growth": "fit_growth",
}
WRITERS = {
    "report.write_ratio_csv": "write_ratio_csv",
    "report.write_fits_json": "write_fits_json",
    "report.write_traces": "_write_traces",
}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported dynaclear package."""
    global _ACTIVE
    from dynaclear import _rng, analysis, cli, costs, engine
    from dynaclear.arrivals import PoissonStream

    w = tracer.wrap
    _rng.keys2_outer_np = w("rng.keys2_outer_np", _rng.keys2_outer_np)
    costs.rate_matrix = w("costs.rate_matrix", costs.rate_matrix)
    costs.cost_matrix_at_event = w(
        "costs.cost_matrix_at_event", costs.cost_matrix_at_event, counter=_matrix_counts
    )
    engine.threshold = w("schedules.threshold", engine.threshold)
    PoissonStream.take_block = w("arrivals.take_block", PoissonStream.take_block)
    for module in (engine, analysis):
        module.min_k_assignment = w(
            "assignment.min_k_assignment", module.min_k_assignment, counter=_solve_counts
        )
    engine.run = w("engine.run", engine.run, record=True, counter=_run_counts)
    engine._ensemble_worker = w(
        "engine.replication", engine._ensemble_worker, record=True, ship=True,
        phase=ENSEMBLE,
    )
    analysis._patient_mean_worker = w(
        "analysis.patient_sample", analysis._patient_mean_worker, record=True, ship=True,
        phase=DENOMINATOR,
    )
    cli.run = w("cli.trace_rerun", engine.run, record=True, phase=RERUN)
    cli.run_ensemble = w(
        "engine.run_ensemble", cli.run_ensemble, record=True, counter=_ensemble_counts,
        phase=ENSEMBLE,
    )
    cli.empirical_patient_denominator = w(
        "analysis.empirical_patient_denominator", cli.empirical_patient_denominator,
        record=True, phase=DENOMINATOR,
    )
    for name, attr in {**ESTIMATORS, **WRITERS}.items():
        setattr(cli, attr, w(name, getattr(cli, attr), record=True))
    cli.main = w("cli.main", cli.main, record=True)
    _ACTIVE = tracer


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by benchmark metric name.

    The per-event layers (`rng`, `costs`, `engine`, `schedules`,
    `arrivals`) count the ensemble phase only, the part `events_per_s`
    times.  `assignment` counts every phase, as `run_s` does: on
    hetero-alpha its solves are the patient denominator's.
    """
    t = tracer
    t.merge_inbox()
    ens = ENSEMBLE
    events = t.count("engine.events", ens)
    wall = t.total_s("engine.run_ensemble", ens)
    busy = t.total_s("engine.replication", ens)
    jobs = t.count("ensemble.jobs", ens) or 1
    engine_self = t.self_s("engine.run", ens)
    return {
        "rng.outer_keys_calls": t.calls("rng.keys2_outer_np", ens),
        "rng.outer_keys_self_s": t.self_s("rng.keys2_outer_np", ens),
        "costs.matrix_calls": t.calls("costs.cost_matrix_at_event", ens),
        "costs.matrix_pairs": t.count("costs.matrix_pairs", ens),
        "costs.matrix_self_s": t.self_s("costs.cost_matrix_at_event", ens),
        "costs.rate_matrix_calls": t.calls("costs.rate_matrix", ens),
        "costs.rate_matrix_self_s": t.self_s("costs.rate_matrix", ens),
        "engine.events": events,
        "engine.arrivals": t.count("engine.arrivals", ens),
        "engine.seam_events": events - t.count("engine.matrix_events", ens),
        "engine.self_s": engine_self,
        "engine.self_us_per_event": 1e6 * engine_self / events if events else 0.0,
        "schedules.threshold_calls": t.calls("schedules.threshold", ens),
        "schedules.threshold_self_s": t.self_s("schedules.threshold", ens),
        "arrivals.blocks": t.calls("arrivals.take_block", ens),
        "arrivals.take_block_self_s": t.self_s("arrivals.take_block", ens),
        "assignment.solves": t.calls("assignment.min_k_assignment"),
        "assignment.entries": t.count("assignment.entries"),
        "assignment.self_s": t.self_s("assignment.min_k_assignment"),
        "analysis.denominator_s": t.total_s("analysis.empirical_patient_denominator"),
        "analysis.estimators_s": sum(t.total_s(n) for n in ESTIMATORS),
        "ensemble.wall_s": wall,
        "ensemble.busy_s": busy,
        "ensemble.efficiency": busy / (jobs * wall) if wall > 0 else 0.0,
        "cli.trace_reruns": t.calls("cli.trace_rerun"),
        "cli.trace_rerun_s": t.total_s("cli.trace_rerun"),
        "report.write_s": sum(t.total_s(n) for n in WRITERS),
    }
