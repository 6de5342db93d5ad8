"""Record the reference outputs that the benchmark's checks compare against.

Usage, from the root of a checkout:

    python3 benchmark/record_reference.py [--smoke] [WORKLOAD ...]

`default` and `fine_bidomain` store the `probes.csv` of one run.  The
`ensemble` reference is the `ensemble_stats.csv` of REFERENCE_PATHS paths
at REFERENCE_SEED, a seed apart from the small seeds the benchmark uses, so
the checked runs are independent of it.  Record again only when a change is
meant to alter the results, and say so in the change.
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench

REFERENCE_SEED = 2_000_003
REFERENCE_PATHS = 256


def record(name: str, smoke: bool) -> None:
    scratch = bench.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        wl = bench.Workload(name, REFERENCE_SEED, smoke, work_dir)
        if wl.command == "ensemble":
            wl.paths = REFERENCE_PATHS
        rec = wl.launch()
        if rec["rc"] != 0:
            sys.exit(f"{name}: reference run failed: {rec['problems']}")
        produced = "probes.csv" if wl.command == "run" else "ensemble_stats.csv"
        wl.reference.parent.mkdir(exist_ok=True)
        shutil.copyfile(rec["out"] / produced, wl.reference)
        print(f"{name}: wrote {wl.reference.relative_to(bench.ROOT)} "
              f"({rec['wall_s']:.1f} s)")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(bench.WORKLOADS))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    for name in args.workloads:
        record(name, args.smoke)


if __name__ == "__main__":
    main()
