"""cardioem benchmark: one workload through the public CLI, end to end.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload default --seed 1 --seconds 45 --trace 0

Workloads (see DESIGN.md for why each was chosen):

* `default`       - the shipped experiment, `cardioem run`;
* `fine_bidomain` - a 44x44 mesh with the mechanics solved only at set-up;
* `ensemble`      - an 8-path noisy Monte Carlo ensemble, `cardioem ensemble`.

The load is a closed loop with one client: runs are sequential batch jobs,
each a single in-process call to `cardioem.io_cli.main` in a process of its
own (`child.py`), with a config generated from the workload's file in
`configs/` into a fresh output directory.

With `--trace 0` a run first sets up (runs the workload with `time.T = 0`)
SETUP_RUNS times, and more while a SETUP_SHARE of the `--seconds` budget
lasts, and then repeats the full workload while the budget allows, at
least once.  It reports the medians of `wall_s`, `setup_s` and
`peak_rss_mb`.  With `--trace 1` it runs the workload once
untraced and once traced and reports the per-layer metrics of `tracer.py`.
Every run's outputs are checked (`checks.py`); a path that fails a check,
raises, or belongs to a run with a non-zero exit code counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

# (CLI subcommand, paths per run, paths per run in the smoke variant)
WORKLOADS = {
    "default": ("run", 1, 1),
    "fine_bidomain": ("run", 1, 1),
    "ensemble": ("ensemble", 8, 2),
}
SMOKE_OVERRIDES = {"mesh.nx": "8", "mesh.ny": "8", "time.T": "0.1"}
SETUP_RUNS = 3  # at least; more while they take under SETUP_SHARE of --seconds
SETUP_SHARE = 0.15
DEADLINE_S = 170  # a benchmark run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def read_config(path: Path) -> dict:
    """`key = value` pairs of a config file, comments dropped."""
    values = {}
    for raw in path.read_text().splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            key, _, val = body.partition("=")
            values[key.strip()] = val.strip()
    return values


class Workload:
    """One workload at one seed: config generation, runs and checks."""

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: Path):
        self.command, paths, smoke_paths = WORKLOADS[name]
        self.paths = smoke_paths if smoke else paths
        self.seed = seed
        self.config = read_config(HERE / "configs" / f"{name}.cfg")
        if smoke:
            self.config.update(SMOKE_OVERRIDES)
        prefix = "smoke_" if smoke else ""
        self.reference = HERE / "reference" / f"{prefix}{name}.csv"
        self.work_dir = work_dir
        self.n_runs = 0
        self.deadline = time.perf_counter() + DEADLINE_S

    def launch(self, setup: bool = False, trace: bool = False, index: int = 0) -> dict:
        """One run in its own process; returns the child's record plus
        `failed` (paths) and `problems` from the output checks.

        Run `index` gets the program seed `100 * seed + index`, so the
        timed runs of one benchmark run draw different noise paths and the
        same benchmark seed always gives the same inputs.
        """
        self.n_runs += 1
        run_dir = self.work_dir / f"run{self.n_runs:03d}"
        out = run_dir / "out"
        out.mkdir(parents=True)
        config = dict(self.config, **{"run.seed": str(100 * self.seed + index)})
        if setup:
            config["time.T"] = "0"
        cfg_path = run_dir / "bench.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        cli = [self.command, "--config", str(cfg_path), "--out", str(out)]
        if self.command == "ensemble":
            cli += ["--paths", str(self.paths)]
        result_path = run_dir / "result.json"
        start = time.perf_counter()
        with open(run_dir / "child.log", "w") as log:
            try:
                subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(result_path),
                     "1" if trace else "0", *cli],
                    cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - start), check=False,
                )
            except subprocess.TimeoutExpired:
                pass
        try:
            record = json.loads(result_path.read_text())
        except (OSError, ValueError):
            record = {"rc": None}
        record["launch_s"] = time.perf_counter() - start
        record["out"] = out
        if record["rc"] != 0:
            tail = (run_dir / "child.log").read_text()[-400:]
            record.update(failed=self.paths, problems=[f"run failed: {tail}"])
            return record

        if self.command == "run":
            problems = checks.check_run_outputs(out, self.reference, setup)
            failed = 1 if problems else 0
        else:
            failed, problems = checks.check_ensemble_outputs(
                out, self.reference, setup, self.paths
            )
            if not record["ensemble_energy_finite"]:
                failed, problems = self.paths, problems + ["energies not finite"]
        record["failed"], record["problems"] = failed, problems
        record["bytes_written"] = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()
        )
        return record


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def measure(wl: Workload, seconds: float):
    """Set-up runs, then timed full runs while the budget allows."""
    seconds = min(seconds, DEADLINE_S)
    start = time.perf_counter()
    setups = []
    while (len(setups) < SETUP_RUNS
           or time.perf_counter() - start < SETUP_SHARE * seconds):
        setups.append(wl.launch(setup=True))
    runs = [wl.launch()]
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["launch_s"] for r in runs)
        if elapsed + typical > seconds:
            break
        runs.append(wl.launch(index=len(runs)))
    ok = [r for r in runs if r["failed"] == 0]
    ok_setups = [r for r in setups if r["failed"] == 0]
    metrics = {}
    if ok and ok_setups:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "setup_s": statistics.median(r["wall_s"] for r in ok_setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        }
    notes = {
        "wall_s": f"median of {len(ok)} runs",
        "setup_s": f"median of {len(ok_setups)} runs with time.T = 0",
        "peak_rss_mb": f"median of {len(ok)} runs",
    }
    return setups + runs, metrics, notes


def measure_traced(wl: Workload):
    """One untraced and one traced run; per-layer metrics of the latter."""
    plain, traced = wl.launch(), wl.launch(trace=True)
    metrics = {}
    if plain["failed"] == 0 and traced["failed"] == 0:
        metrics = dict(traced["layers"])
        metrics["io_cli.bytes_written"] = traced["bytes_written"]
        metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
    notes = {name: "traced run" for name in LAYER_METRICS}
    notes["trace.overhead"] = (
        f"traced {traced.get('wall_s', float('nan')):.3f} s vs "
        f"untraced {plain.get('wall_s', float('nan')):.3f} s"
    )
    return [plain, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny variant (8x8 mesh, T=0.1, 2 paths) for the benchmark's own test",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cardioem" / "io_cli.py").is_file():
        print(f"error: no cardioem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = LAYER_METRICS if args.trace else END_TO_END
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = Workload(args.workload, args.seed, args.smoke, work_dir)
        if args.trace:
            records, values, notes = measure_traced(wl)
        else:
            records, values, notes = measure(wl, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = wl.paths * len(records)
    failed = sum(r["failed"] for r in records)
    problems = sorted({p for r in records for p in r["problems"]})
    correct = failed == 0 and set(values) == set(units)
    values = {name: values[name] for name in units if name in values}
    print(f"workload {args.workload}, seed {args.seed}, {len(records)} runs")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]} ({notes[name]})")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} paths)")
    for problem in problems:
        print(f"  check failed: {problem}")
    print("provenance " + json.dumps(provenance(args.seed)))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
