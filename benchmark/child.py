"""One benchmark run: a single in-process call to `cardioem.io_cli.main`.

Usage: python3 benchmark/child.py RESULT_JSON TRACE CLI_ARGS...

Every run gets a process of its own, so peak memory and import state
belong to that run alone.  The thread count of the BLAS and OpenMP
runtimes is pinned to one before numpy is imported, so solver iteration
counts repeat exactly.  The result file holds the wall time of the
`main` call, its exit code, the process's peak resident memory, whether
the energies were finite, and, when TRACE is 1, the per-layer trace.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cardioem import driver, io_cli  # noqa: E402

import tracer as tracing  # noqa: E402


def _watch_ensemble_energies(seen: list) -> None:
    """Keep the energy suprema of each ensemble; the CLI writes none.

    This wraps one call per run and carries no span, so it stays in place
    with tracing off.
    """
    run_ensemble = driver.run_ensemble

    def wrapped(*args, **kwargs):
        stats, results = run_ensemble(*args, **kwargs)
        seen.extend(stats.energy_suprema)
        return stats, results

    driver.run_ensemble = wrapped


def main(argv) -> int:
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    suprema = []
    _watch_ensemble_energies(suprema)
    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)

    t0 = time.perf_counter()
    rc = io_cli.main(cli_args)
    wall_s = time.perf_counter() - t0

    out = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ensemble_energy_finite": all(
            math.isfinite(v) for sup in suprema for v in sup.values()
        ),
        "layers": tracing.layer_metrics(tracer, wall_s) if trace else None,
    }
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
