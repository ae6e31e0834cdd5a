"""Print the SHA-256 of every report-bundle file of each benchmark workload.

    python3 bench/manifest.py

Run from the root of a checkout.  Runs each workload's command once, at the
benchmark's size and with the simulation seed the benchmark derives from
its seed SEED, and prints `<sha256>  <workload>/<file>` lines.  Nothing is
stored: the listing is made anew on every call, so two commits can be
compared by diffing their listings.  The bundles are written under a
relative path, which summary.json records, so the listing does not depend
on where the checkout lives.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import OUT_DIR, bundle_manifest, spawn_round
from workloads import WORKLOADS

SEED = 0


def main() -> int:
    for name, wl in WORKLOADS.items():
        out = os.path.join(OUT_DIR, "manifest", name)
        shutil.rmtree(out, ignore_errors=True)
        res, _, err = spawn_round(wl.argv(SEED, out))
        if res is None:
            print(f"error: {name} failed\n{err}", file=sys.stderr)
            return 1
        for fname, digest in bundle_manifest(out).items():
            print(f"{digest}  {name}/{fname}")
        shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
