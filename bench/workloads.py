"""The benchmark's workloads: each is one `dynaclear simulate` command.

Every workload fixes its schedule, rate law, size, grids and `--jobs`, so
neither `$DYNACLEAR_JOBS` nor a default can change the load.  Only the
simulation seed varies, and it is derived from the benchmark's `--seed`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    schedule: str
    rate: str
    matches: int
    reps: int
    jobs: int
    a_grid: Tuple[int, ...]
    tau_grid: Tuple[float, ...]

    def sim_seed(self, seed: int) -> int:
        """Simulation seed for benchmark seed `seed`; differs per workload."""
        digest = hashlib.sha256(f"{self.name}:{seed}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def argv(self, seed: int, out: str) -> List[str]:
        """Arguments of `dynaclear` for one run of this workload."""
        return [
            "simulate",
            "--schedule", self.schedule,
            "--rate", self.rate,
            "--matches", str(self.matches),
            "--reps", str(self.reps),
            "--seed", str(self.sim_seed(seed)),
            "--jobs", str(self.jobs),
            "--a-grid", ",".join(str(a) for a in self.a_grid),
            "--tau-grid", ",".join(f"{t:g}" for t in self.tau_grid),
            "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Pricing kernels: ~93 % of greedy clearing events price a small pool
        # through costs.cost_matrix_at_event; no solver, no heterogeneous route.
        Workload(
            name="greedy-const",
            schedule="greedy",
            rate="const:1",
            matches=1000,
            reps=80,
            jobs=1,
            a_grid=(10, 100, 500, 1000),
            tau_grid=(50.0, 200.0, 800.0, 1600.0),
        ),
        # Event loop, thresholds, arrival blocks, fork fan-out, the traced
        # reruns and report writing: 99.7 % of events take the seam route.
        Workload(
            name="balanced-long",
            schedule="balanced",
            rate="const:1",
            matches=40_000,
            reps=6,
            jobs=2,
            a_grid=(100, 1000, 10_000, 40_000),
            tau_grid=(1000.0, 4000.0, 16_000.0, 64_000.0),
        ),
        # The only workload that runs the assignment solver (empirical patient
        # denominator, a-grid up to the 200 cap) and the heterogeneous
        # row-sum route of the clearing step.
        Workload(
            name="hetero-alpha",
            schedule="power:0.5",
            rate="uniform:0.5:2",
            matches=1000,
            reps=10,
            jobs=1,
            a_grid=(20, 50, 100, 200),
            tau_grid=(100.0, 200.0, 800.0, 1600.0),
        ),
    )
}
