"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dynaclear checkout.  One run starts SETUP_PROBES
processes that only import the package, then repeats the workload's
`dynaclear simulate` command, each time in a fresh process (bench/round.py),
until S seconds have passed; the last round starts before S and may end
after it.  Every repetition ("round") uses the same
simulation seed, so each writes the same bundle; the run checks that the
bytes agree, then checks the last bundle against independent computations
(bench/checks.py).  The last line of standard output is one JSON object:

- `--trace 0`: the end-to-end metrics, each the median over the run.
- `--trace 1`: rounds alternate untraced and traced; the per-layer metrics
  are medians over the traced rounds, and `trace.overhead_s` is the traced
  median `run_s` minus the untraced one.

`attempted` counts rounds and `failed` the rounds whose command failed; the
checks read the bundle of the last round that succeeded.

A run ends within 180 s: S may be at most MAX_SECONDS, no round starts when
the median round would end it after RUN_LIMIT_S, and a round still running
at RUN_LIMIT_S is stopped and counts as failed.  A traced run may start
rounds after S until it has a traced and an untraced one, within that limit.
Metric names and units come from BENCHMARK.json at the checkout root; a run
whose metrics disagree with it fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from checks import run_checks
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
ROUND_TIMEOUT_S = 150.0
# Rounds end by RUN_LIMIT_S after the run starts; the checks and the clean-up
# take at most a few seconds more.  The longest round (hetero-alpha) takes
# about 25 s, so --seconds up to MAX_SECONDS is never cut short.
RUN_LIMIT_S = 165.0
MAX_SECONDS = 120.0
OUT_DIR = ".bench_runs"


def spawn_round(argv: List[str], trace: Optional[str] = None, setup_only: bool = False,
                timeout: float = ROUND_TIMEOUT_S) -> Tuple[Optional[dict], float, str]:
    """Run bench/round.py in a fresh interpreter, stopping it after `timeout` s.

    Returns (its JSON result or None on failure, the perf_counter reading
    taken just before the spawn, its standard error).
    """
    cmd = [sys.executable, os.path.join(HERE, "round.py")]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *argv]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        # The session holds the round and its --jobs workers.
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, t_spawn, err + f"\nround stopped after {timeout:.1f} s"
    if proc.returncode != 0 or not out.strip():
        return None, t_spawn, err
    return json.loads(out.strip().splitlines()[-1]), t_spawn, err


def bundle_manifest(bundle: str) -> Dict[str, str]:
    """SHA-256 of every file in a report bundle, by file name."""
    out = {}
    for name in sorted(os.listdir(bundle)):
        with open(os.path.join(bundle, name), "rb") as fh:
            out[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def bundle_bytes(bundle: str) -> int:
    return sum(os.path.getsize(os.path.join(bundle, n)) for n in os.listdir(bundle))


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="dynaclear benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:g}]")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dynaclear", "__init__.py")):
        _log("error: src/dynaclear not found; run from the root of a dynaclear checkout")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(root, OUT_DIR, f"{wl.name}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    started = time.perf_counter()
    setup_s = []
    for _ in range(SETUP_PROBES):
        res, t_spawn, err = spawn_round(wl.argv(args.seed, run_dir), setup_only=True)
        if res is None:
            _log(f"error: setup probe failed\n{err}")
            return 1
        setup_s.append(res["t_call"] - t_spawn)

    # Every round writes to the same folder: summary.json records --out.
    # A round that succeeds moves its bundle to `kept` for the checks.
    bundle = os.path.join(run_dir, "bundle")
    kept = os.path.join(run_dir, "kept")
    rounds: List[dict] = []
    durations: List[float] = []
    failed = 0
    reference = None
    mismatches = []
    while True:
        traced = bool(args.trace) and len(durations) % 2 == 1
        spans = os.path.join(run_dir, f"round{len(durations)}.spans.json") if traced else None
        shutil.rmtree(bundle, ignore_errors=True)
        t0 = time.perf_counter()
        res, t_spawn, err = spawn_round(wl.argv(args.seed, bundle), trace=spans,
                                        timeout=RUN_LIMIT_S - (t0 - started))
        durations.append(time.perf_counter() - t0)
        if res is None:
            failed += 1
            _log(f"round {len(durations) - 1} failed:\n{err}")
        else:
            res["traced"] = traced
            res["manifest"] = bundle_manifest(bundle)
            res["report_bytes"] = bundle_bytes(bundle)
            if not traced:
                setup_s.append(res["t_call"] - t_spawn)
            if reference is None:
                reference = res["manifest"]
            elif res["manifest"] != reference:
                mismatches.append(len(durations) - 1)
            rounds.append(res)
            shutil.rmtree(kept, ignore_errors=True)
            os.rename(bundle, kept)
            _log(f"round {len(durations) - 1}{' traced' if traced else ''}: "
                 f"run_s={res['run_s']:.3f} ensemble_s={res['ensemble_s']:.3f}")
        elapsed = time.perf_counter() - started
        est = statistics.median(durations)
        # A traced run needs one traced and one untraced round.
        need_both = args.trace and len({r["traced"] for r in rounds}) < 2
        if elapsed + est > RUN_LIMIT_S:
            break
        if elapsed >= args.seconds and not need_both:
            break

    if not rounds:
        _log("error: every round failed")
        return 1
    try:
        failures = run_checks(wl, kept, rounds[-1]["captures"])
    except (OSError, KeyError, ValueError) as exc:
        failures = [f"the bundle could not be read: {exc!r}"]
    if mismatches:
        failures.append(f"rounds {mismatches} wrote other bytes than the first round that succeeded "
                        f"(same command, same seed)")
    for f in failures:
        _log(f"CHECK FAILED {f}")
    shutil.rmtree(bundle, ignore_errors=True)
    shutil.rmtree(kept)
    if not os.listdir(run_dir):
        os.rmdir(run_dir)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        if not traced or not plain:
            _log("error: the traced run needs one traced and one untraced round")
            return 1
        # median_low keeps counts whole; they agree across rounds anyway.
        values = {n: statistics.median_low(r["layers"][n] for r in traced)
                  for n in traced[0]["layers"]}
        values["report.bytes"] = traced[-1]["report_bytes"]
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in plain))
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "events_per_s": statistics.median(r["events"] / r["ensemble_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    if set(values) != set(units):
        _log(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
        return 1
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(durations),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
