"""One timed `dynaclear` command, run in this fresh process.

    python3 bench/round.py [--trace SPANS.json] [--setup-only] -- simulate ...

Run from the root of a checkout: the package is imported from its `src/`.
The last line of standard output is one JSON object:

- `t_call`: `time.perf_counter()` just before the call into the command.
  The parent took the same clock (CLOCK_MONOTONIC) before it spawned this
  process, so the difference is interpreter start plus `import dynaclear`.
- `run_s`: wall time of `cli.main(argv)`, from config to the last file.
- `ensemble_s` and `events`: wall time of the one call into
  `engine.run_ensemble` and the matches it simulated (reps x matches).
- `peak_rss_mb`: peak resident memory of this process or of its largest
  `--jobs` worker, taken before any check runs.
- `captures`: program outputs the bundle does not hold, for the checks: the
  empirical patient denominators, and a sample of assignment solves compared
  with `scipy.optimize.linear_sum_assignment` after the timed call.
- `layers`: with `--trace`, the per-layer metrics; the spans go to SPANS.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

# Every SAMPLE_EVERY-th solve of a full square assignment is kept for the
# scipy cross-check; the empirical denominator solves 100 per a-grid point.
SAMPLE_EVERY = 50


def _import_cli():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import dynaclear

    if os.path.dirname(os.path.dirname(os.path.abspath(dynaclear.__file__))) != src:
        raise SystemExit(f"dynaclear imported from {dynaclear.__file__}, not from {src}")
    from dynaclear import analysis, cli

    return analysis, cli


def _install_probes(analysis, cli, captures):
    """Time the ensemble call and keep what the checks need; cheap enough to
    stay on in timed runs (one call, plus 400 solves on hetero-alpha)."""
    run_ensemble = cli.run_ensemble

    def timed_ensemble(*args, **kwargs):
        start = time.perf_counter()
        traces = run_ensemble(*args, **kwargs)
        captures["ensemble_s"] = time.perf_counter() - start
        captures["events"] = sum(t.summary.a for t in traces)
        return traces

    cli.run_ensemble = timed_ensemble

    denominator = cli.empirical_patient_denominator

    def kept_denominator(*args, **kwargs):
        den = denominator(*args, **kwargs)
        captures["denominators"] = [list(m) for m in den.means]
        return den

    cli.empirical_patient_denominator = kept_denominator

    solve = analysis.min_k_assignment
    samples = captures.setdefault("solve_samples", [])
    seen = [0]

    def sampled_solve(costs, k):
        result = solve(costs, k)
        if k == min(costs.shape):
            if seen[0] % SAMPLE_EVERY == 0:
                samples.append((costs.copy(), result.total))
            seen[0] += 1
        return result

    analysis.min_k_assignment = sampled_solve


def _cross_check_solves(samples):
    """Largest relative gap between the program's totals and scipy's."""
    if not samples:
        return 0.0
    from scipy.optimize import linear_sum_assignment

    worst = 0.0
    for costs, total in samples:
        rows, cols = linear_sum_assignment(costs)
        ref = math.fsum(costs[rows, cols].tolist())
        worst = max(worst, abs(total - ref) / ref)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="SPANS", help="trace the layers; write spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop just before the call into the command")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    analysis, cli = _import_cli()
    if args.setup_only:
        print(json.dumps({"t_call": time.perf_counter()}))
        return 0
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    captures = {}
    _install_probes(analysis, cli, captures)

    t_call = time.perf_counter()
    rc = cli.main(argv)
    run_s = time.perf_counter() - t_call

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if rc != 0:
        print(f"dynaclear exited {rc}", file=sys.stderr)
        return 1
    samples = captures.pop("solve_samples")
    captures["solve_samples"] = len(samples)
    captures["solve_max_rel_err"] = _cross_check_solves(samples)
    result = {
        "t_call": t_call,
        "run_s": run_s,
        "ensemble_s": captures.pop("ensemble_s"),
        "events": captures.pop("events"),
        "peak_rss_mb": peak_kb / 1024.0,
        "captures": captures,
    }
    if tracer is not None:
        tracer.dump(args.trace)
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
