"""Experiment runner.

Subcommands: simulate (one schedule), sweep (several schedules, shared
settings), gmode (count-decay cost law), oracle (closed forms), validate
(acceptance suite).  Config comes from flags or a JSON file (`--config`);
flags override the file.  Outputs are plain CSV/JSON, each embedding a hash
of the effective config, and are bit-identical across reruns of the same
config and seed on one platform.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from . import __version__, _rng, analysis, oracles, validation
from .analysis import (
    AnalyticEqualSided,
    CoverageError,
    LOG_LOG,
    SEMILOG_X,
    check_coverage,
    empirical_patient_denominator,
    fit_growth,
    matching_ratio,
    waiting_ratio,
    write_fits_json,
    write_ratio_csv,
)
from .costs import CONSTANT, RateModel
from .engine import (
    DecayModel,
    Horizon,
    MatchTarget,
    PoolCapError,
    check_cost_mode,
    check_grid,
    run,
    run_ensemble,
)
from .schedules import parse_schedule

__all__ = ["ExperimentConfig", "ConfigError", "run_experiment", "main"]

_TRACE_REPS = 5
_EMPIRICAL_A_CAP = 2000


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    schedule: str
    rate: Optional[str]
    delta: Optional[float]
    scale: float
    matches: Optional[int]
    horizon: Optional[float]
    reps: int
    seed: int
    out: str
    a_grid: Tuple[int, ...]
    tau_grid: Tuple[float, ...]
    jobs: int
    no_costs: bool

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigError("reps must be at least 1")
        if (self.matches is None) == (self.horizon is None):
            raise ConfigError("exactly one of --matches / --horizon is required")
        if (self.rate is None) == (self.delta is None):
            raise ConfigError("exactly one of --rate / --delta is required")
        if not self.a_grid and not self.no_costs:
            raise ConfigError("a_grid must be non-empty")
        if not self.tau_grid:
            raise ConfigError("tau_grid must be non-empty")
        try:
            check_grid("a_grid", self.a_grid, int)
            check_grid("tau_grid", self.tau_grid, float)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _parse_rate(text: str) -> RateModel:
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind in ("const", "constant"):
            if len(parts) != 2:
                raise ValueError("expected const:<rate>")
            return RateModel.constant(float(parts[1]))
        if kind == "uniform":
            if len(parts) != 3:
                raise ValueError("expected uniform:<lo>:<hi>")
            return RateModel.uniform_iid(float(parts[1]), float(parts[2]))
        if kind == "product":
            if len(parts) != 3:
                raise ValueError("expected product:<lo>:<hi>")
            return RateModel.product_form(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad rate {text!r}: {exc}") from None
    raise ConfigError(f"unknown rate family {kind!r} (const | uniform | product)")


def _parse_int_grid(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"bad integer grid {text!r}") from None


def _parse_float_grid(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"bad float grid {text!r}") from None


def _default_a_grid(top: int) -> Tuple[int, ...]:
    pts = sorted({max(1, round(top / 10 ** (d / 2.0))) for d in range(4, -1, -1)})
    return tuple(pts)


def _default_tau_grid(top: float) -> Tuple[float, ...]:
    return tuple(top / 10 ** (d / 2.0) for d in range(4, -1, -1))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_grid(item_ok):
    return lambda v: isinstance(v, str) or isinstance(v, list) and all(map(item_ok, v))


# The JSON type each --config key takes, and how to name it; flags arrive
# typed by argparse.  null stands for an absent key.
_FILE_TYPES = {
    "schedule": (lambda v: isinstance(v, str), "a string such as greedy or power:0.5"),
    "rate": (lambda v: isinstance(v, str), "a string such as const:1"),
    "out": (lambda v: isinstance(v, str), "a path string"),
    "matches": (_is_int, "an integer"),
    "reps": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "jobs": (_is_int, "an integer"),
    "horizon": (_is_number, "a number"),
    "delta": (_is_number, "a number"),
    "scale": (_is_number, "a number"),
    "a_grid": (_is_grid(_is_int), "a list of integers or a comma-separated string"),
    "tau_grid": (_is_grid(_is_number), "a list of numbers or a comma-separated string"),
    "no_costs": (lambda v: isinstance(v, bool), "true or false"),
}


def _config_hash(cfg: ExperimentConfig) -> str:
    # out/jobs/command do not affect the numbers, so the hash names the
    # experiment itself and stays stable across folders and worker counts.
    payload = {
        k: v for k, v in cfg.__dict__.items() if k not in ("out", "jobs", "command")
    }
    text = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _build_config(
    args: argparse.Namespace, command: str, schedule: Optional[str] = None
) -> ExperimentConfig:
    """The run's config from the flags, then the --config file; `schedule` overrides both."""
    file_cfg: Dict[str, object] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
        for name, value in file_cfg.items():
            if name not in _FILE_TYPES:
                known = name.replace("-", "_")
                hint = f"; did you mean {known!r}?" if known in _FILE_TYPES else ""
                raise ConfigError(f"{args.config}: unknown key {name!r}{hint}")
            ok, kind = _FILE_TYPES[name]
            if value is not None and not ok(value):
                raise ConfigError(f"{args.config}: {name} must be {kind}, got {value!r}")

    def pick(name: str, default=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        value = file_cfg.get(name)
        return default if value is None else value

    if schedule is None:
        schedule = pick("schedule")
    if schedule is None:
        raise ConfigError("--schedule is required")
    matches = pick("matches")
    horizon = pick("horizon")
    if matches is not None:
        matches = int(matches)
    if horizon is not None:
        horizon = float(horizon)
        # checked before the default grids scale with it
        if not (horizon > 0.0 and math.isfinite(horizon)):
            raise ConfigError(f"horizon must be positive and finite, got {horizon}")

    a_grid = pick("a_grid")
    if isinstance(a_grid, str):
        a_grid = _parse_int_grid(a_grid)
    if a_grid is None:
        if matches is not None:
            a_grid = _default_a_grid(matches)
        elif horizon is not None:
            a_grid = _default_a_grid(max(1, int(0.45 * horizon)))
    tau_grid = pick("tau_grid")
    if isinstance(tau_grid, str):
        tau_grid = _parse_float_grid(tau_grid)
    if tau_grid is None:
        top = horizon if horizon is not None else 1.8 * float(matches)
        tau_grid = _default_tau_grid(top)

    seed = pick("seed")
    if seed is None:
        raise ConfigError("seed is required (no wall-clock seeding)")
    out = pick("out")
    if out is None:
        raise ConfigError("--out directory is required")
    rate = pick("rate")
    delta = pick("delta")
    if command == "gmode":
        if delta is None:
            raise ConfigError("gmode requires --delta")
        rate = None
    elif rate is None and delta is None:
        rate = "const:1"
    return ExperimentConfig(
        command=command,
        schedule=schedule,
        rate=rate,
        delta=float(delta) if delta is not None else None,
        scale=float(pick("scale", 1.0)),
        matches=matches,
        horizon=horizon,
        reps=int(pick("reps", 100)),
        seed=int(seed),
        out=str(out),
        a_grid=tuple(int(a) for a in a_grid) if a_grid else (),
        tau_grid=tuple(float(t) for t in tau_grid),
        jobs=_worker_count(pick("jobs")),
        no_costs=bool(pick("no_costs", False)),
    )


def _worker_count(jobs) -> int:
    """`--jobs` if given, else $DYNACLEAR_JOBS, else 1; either must be a positive integer."""
    if jobs is not None:
        if int(jobs) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {jobs}")
        return int(jobs)
    raw = os.environ.get("DYNACLEAR_JOBS") or "1"
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ConfigError(f"$DYNACLEAR_JOBS must be a positive integer, got {raw!r}")
    return int(raw)


def _write_traces(path: str, traced, config_hash: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config {config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["rep", "k", "time", "cost", "m_c", "m_p", "cum_cost", "cum_wait"])
        for rep, trace in traced:
            for r in trace.records:
                writer.writerow([
                    rep, r.k, repr(r.time), repr(r.cost), r.m_c, r.m_p,
                    repr(r.cum_cost), repr(r.cum_wait),
                ])


def _run_inputs(cfg: ExperimentConfig):
    """(schedule spec, cost mode, stop rule) of a config; a value they reject is a ConfigError."""
    try:
        spec = parse_schedule(cfg.schedule)
        if cfg.delta is not None:
            cost_mode = DecayModel(delta=cfg.delta, scale=cfg.scale)
        else:
            cost_mode = _parse_rate(cfg.rate)
        stop = MatchTarget(cfg.matches) if cfg.matches is not None else Horizon(cfg.horizon)
        check_cost_mode(spec, cost_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec, cost_mode, stop


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run the ensemble an ExperimentConfig describes and write the report bundle."""
    spec, cost_mode, stop = _run_inputs(cfg)
    collect_costs = not cfg.no_costs
    empirical = (
        collect_costs and isinstance(cost_mode, RateModel) and cost_mode.mode != CONSTANT
    )
    if empirical and max(cfg.a_grid) > _EMPIRICAL_A_CAP:
        raise ConfigError(
            f"heterogeneous rates need the empirical patient denominator, "
            f"supported for a_grid up to {_EMPIRICAL_A_CAP}; pass --a-grid "
            f"accordingly or use const rates"
        )
    cfg_hash = _config_hash(cfg)
    os.makedirs(cfg.out, exist_ok=True)

    try:
        traces = run_ensemble(
            spec, cost_mode, stop, cfg.seed, cfg.reps, jobs=cfg.jobs,
            collect_costs=collect_costs, collect_records=False,
            a_grid=cfg.a_grid if collect_costs else (), tau_grid=cfg.tau_grid,
        )
    except PoolCapError as exc:
        raise ConfigError(f"{exc}; on the command line that is --no-costs") from None

    alpha = []
    denominator_tag = "analytic"
    if collect_costs:
        try:
            check_coverage(traces, cfg.a_grid)
        except CoverageError as exc:
            raise CoverageError(
                f"{exc}; pass --a-grid with every point at or below that count", exc.deficient
            ) from None
        if empirical:
            den = empirical_patient_denominator(
                cfg.a_grid, cost_mode, _rng.derive_seed(cfg.seed, 1_000_003),
                max(100, min(cfg.reps, 400)), jobs=cfg.jobs,
            )
            denominator_tag = den.tag
        else:
            den = AnalyticEqualSided()
        alpha = matching_ratio(traces, cfg.a_grid, den)
    beta = waiting_ratio(traces, cfg.tau_grid)

    write_ratio_csv(os.path.join(cfg.out, "ratios_alpha.csv"), alpha, cfg_hash)
    write_ratio_csv(os.path.join(cfg.out, "ratios_beta.csv"), beta, cfg_hash)

    fits = {}
    if len(alpha) >= 4:
        pts = [(e.x, e.ratio) for e in alpha]
        fits["alpha_loglog"] = fit_growth(pts, LOG_LOG)
        fits["alpha_semilogx"] = fit_growth(pts, SEMILOG_X)
    if len(beta) >= 4:
        fits["beta_loglog"] = fit_growth([(e.x, e.ratio) for e in beta], LOG_LOG)
    write_fits_json(os.path.join(cfg.out, "fits.json"), fits, cfg_hash)

    # The ensemble has already run these seeds with the same settings, so
    # anything a rerun could raise was raised there first.
    traced = [
        (rep, run(spec, cost_mode, stop, _rng.derive_seed(cfg.seed, rep),
                  collect_costs=collect_costs))
        for rep in range(min(cfg.reps, _TRACE_REPS))
    ]
    _write_traces(os.path.join(cfg.out, "traces.csv"), traced, cfg_hash)

    summary = {
        "config": {**cfg.__dict__, "a_grid": list(cfg.a_grid), "tau_grid": list(cfg.tau_grid)},
        "config_hash": cfg_hash,
        "versions": {
            "package": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "denominator": denominator_tag,
        "results": {
            "reps": cfg.reps,
            "mean_total_cost": math.fsum(t.summary.total_cost for t in traces) / cfg.reps,
            "mean_wait_integral": math.fsum(t.summary.wait_integral for t in traces) / cfg.reps,
            "mean_matches": math.fsum(t.summary.a for t in traces) / cfg.reps,
            "mean_final_tau": math.fsum(t.summary.tau for t in traces) / cfg.reps,
            "traced_reps": len(traced),
        },
    }
    for mod_name in ("numpy", "scipy"):
        mod = sys.modules.get(mod_name)
        if mod is None:
            import importlib

            mod = importlib.import_module(mod_name)
        summary["versions"][mod_name] = mod.__version__
    path = os.path.join(cfg.out, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _sanitize(label: str) -> str:
    return label.replace(":", "-").replace("/", "-")


def _cmd_simulate(args: argparse.Namespace) -> int:
    return run_experiment(_build_config(args, "simulate"))


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.schedules:
        raise ConfigError("--schedules is required")
    labels = [s.strip() for s in args.schedules.split(",") if s.strip()]
    if not labels:
        raise ConfigError("no schedules given")
    base_out = args.out
    if base_out is None:
        raise ConfigError("--out directory is required")
    combined: Dict[str, analysis.GrowthFit] = {}
    hashes = []
    for label in labels:
        sub = argparse.Namespace(**vars(args))
        sub.out = os.path.join(base_out, _sanitize(label))
        cfg = _build_config(sub, "sweep", label)
        run_experiment(cfg)
        hashes.append(_config_hash(cfg))
        fits_path = os.path.join(sub.out, "fits.json")
        with open(fits_path, encoding="utf-8") as fh:
            for name, fit in json.load(fh)["fits"].items():
                combined[f"{label}/{name}"] = analysis.GrowthFit(**fit)
    sweep_hash = hashlib.sha256("".join(hashes).encode()).hexdigest()[:16]
    write_fits_json(os.path.join(base_out, "fits.json"), combined, sweep_hash)
    return 0


def _cmd_gmode(args: argparse.Namespace) -> int:
    schedule = args.schedule
    if schedule is None and args.gamma is not None:
        schedule = f"power:{args.gamma:g}"
    if schedule is None:
        raise ConfigError("gmode needs --schedule or --gamma")
    return run_experiment(_build_config(args, "gmode", schedule))


def _cmd_oracle(args: argparse.Namespace) -> int:
    name = args.name
    try:
        if name == "buck":
            text = f"{oracles.expected_min_k_assignment(args.nc, args.np_, args.k):.5f}"
        elif name == "basel":
            text = repr(oracles.patient_cost_equal_sided(args.a))
        elif name == "zeta":
            text = repr(oracles.zeta(args.s))
        elif name == "wait":
            text = repr(oracles.greedy_expected_wait(args.tau))
        elif name == "walk":
            text = repr(oracles.expected_abs_walk(args.k))
        elif name == "window":
            win = oracles.free_lunch_window(args.delta)
            text = json.dumps({"lo": win.lower, "hi": win.upper, "empty": win.empty},
                              sort_keys=True)
        elif name == "two-each":
            text = repr(oracles.expected_arrivals_two_each())
        else:
            raise ConfigError(f"unknown oracle {name!r}")
    except oracles.DomainError as exc:
        raise ConfigError(str(exc)) from None
    print(text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    only = None
    if args.only:
        only = [t for chunk in args.only for t in chunk.split(",") if t]
    jobs = _worker_count(args.jobs)
    try:
        results = validation.run_criteria(only=only, jobs=jobs)
    except ValueError as exc:
        # criteria report their own failures as results, so the only
        # ValueError out of run_criteria is an --only that selects nothing
        raise ConfigError(str(exc)) from None
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {r.number:2d} {r.name:<22s} {r.seconds:7.1f}s  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.report:
        payload = {
            "config": hashlib.sha256(
                json.dumps({"only": only}, sort_keys=True).encode()
            ).hexdigest()[:16],
            "criteria": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if failed else 0


def _add_experiment_flags(p: argparse.ArgumentParser, schedules: bool = False) -> None:
    if schedules:
        p.add_argument("--schedules", help="comma-separated schedule specs")
    else:
        p.add_argument("--schedule", help="schedule spec, e.g. greedy or power:0.5")
    p.add_argument("--rate", help="rate model: const:<r> | uniform:<lo>:<hi> | product:<lo>:<hi>")
    p.add_argument("--matches", type=int, help="stop at the N-th match")
    p.add_argument("--horizon", type=float, help="stop at clock time")
    p.add_argument("--reps", type=int, help="replications (default 100)")
    p.add_argument("--seed", type=int, help="base seed (required)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--a-grid", dest="a_grid", help="match-count grid, e.g. 100,1000,10000")
    p.add_argument("--tau-grid", dest="tau_grid", help="clock grid, e.g. 100,1000,10000")
    p.add_argument("--jobs", type=int, help="worker processes (default $DYNACLEAR_JOBS or 1)")
    p.add_argument("--no-costs", dest="no_costs", action="store_true", default=None,
                   help="skip cost accounting (waiting-time studies)")
    p.add_argument("--config", help="JSON config file; flags override its keys")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynaclear",
        description="Two-sided dynamic matching market simulator and oracle suite.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one schedule")
    _add_experiment_flags(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="run several schedules with shared settings")
    _add_experiment_flags(p, schedules=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("gmode", help="count-decay cost law runs")
    _add_experiment_flags(p)
    p.add_argument("--delta", type=float, help="decay exponent (> 1)")
    p.add_argument("--gamma", type=float, help="power-law schedule exponent")
    p.add_argument("--scale", type=float, help="decay scale c (default 1)")
    p.set_defaults(fn=_cmd_gmode)

    p = sub.add_parser("oracle", help="print a closed-form value")
    p.add_argument("name", choices=["buck", "basel", "zeta", "wait", "walk", "window", "two-each"])
    p.add_argument("--nc", type=int, default=5)
    p.add_argument("--np", dest="np_", type=int, default=5)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--a", type=int, default=5)
    p.add_argument("--s", type=float, default=1.5)
    p.add_argument("--tau", type=float, default=100.0)
    p.add_argument("--delta", type=float, default=3.0)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("validate", help="run the acceptance criteria suite")
    p.add_argument("--only", action="append", help="criterion numbers or name parts")
    p.add_argument("--jobs", type=int, help="worker processes")
    p.add_argument("--report", help="write a JSON pass/fail report to this path")
    p.set_defaults(fn=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CoverageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
