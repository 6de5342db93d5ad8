"""Output checks of one benchmark run against references from this repo.

Deterministic workloads (`default`, `fine_bidomain`) compare `probes.csv`
pointwise with a recorded trace.  The tolerance rests on the measured noise
floor.  Tightening both solver tolerances 100-fold moved the probes by at
most 8.5e-10 (`default`) and 7.3e-10 (`fine_bidomain`); loosening both
100-fold moved them by 5.8e-8 and 4.5e-8.  PROBE_ATOL sits about 35 times
above the floor, so a different solver that meets the shipped tolerances
passes, and below the deviation of a 100-fold looser solve, which fails.

The `ensemble` workload compares the means in `ensemble_stats.csv` with a
reference ensemble of many paths.  A mean may differ from the reference
mean by ENSEMBLE_Z standard errors of that difference (plus PROBE_ATOL
where the variance vanishes), so a new random stream with the same
distribution passes.  The standard error uses the larger of the run's and
the reference's variance: now and then a path repolarises early, far from
the others, and one such path in eight widens the spread of the mean well
beyond what the reference variance predicts.  Drawing 20,000 eight-path
ensembles from 128 recorded paths and checking them against the other 128,
this check failed 5e-5 of them at ENSEMBLE_Z = 8 (1.5e-4 at 6).

Every workload also needs finite energies and finite probe values.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

PROBE_ATOL = 3e-8
ENSEMBLE_Z = 8.0


def read_csv(path):
    """(comment header fields, float array) of a cardioem CSV file."""
    with open(path) as fh:
        comment = fh.readline()
        fh.readline()  # column names
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    header = dict(
        item.split("=", 1) for item in comment.lstrip("#").split() if "=" in item
    )
    return header, data


def compare_probes(run: np.ndarray, ref: np.ndarray):
    """Problems found comparing a probe trace with the reference trace."""
    if run.shape[1] != ref.shape[1] or run.shape[0] > ref.shape[0]:
        return [f"probe table shape {run.shape} does not fit reference {ref.shape}"]
    if not np.all(np.isfinite(run)):
        return ["probe values are not finite"]
    dev = np.abs(run - ref[: run.shape[0]])
    if dev.max() > PROBE_ATOL:
        row, col = np.unravel_index(np.argmax(dev), dev.shape)
        return [
            f"probe deviation {dev.max():.3e} > {PROBE_ATOL:.1e} "
            f"at row {row}, column {col}"
        ]
    return []


def compare_ensemble(run: np.ndarray, n_run: int, ref: np.ndarray, n_ref: int):
    """Problems found comparing ensemble statistics with the reference.

    Both tables have columns t, mean_0, var_0, mean_1, var_1, ...
    """
    if run.shape[1] != ref.shape[1] or run.shape[0] > ref.shape[0]:
        return [f"stats table shape {run.shape} does not fit reference {ref.shape}"]
    if not np.all(np.isfinite(run)):
        return ["ensemble statistics are not finite"]
    ref = ref[: run.shape[0]]
    if np.abs(run[:, 0] - ref[:, 0]).max() > 1e-12:
        return ["ensemble time column differs from the reference"]
    mean, ref_mean, ref_var = run[:, 1::2], ref[:, 1::2], ref[:, 2::2]
    var = np.maximum(run[:, 2::2], ref_var)
    stderr = np.sqrt(var / n_run + ref_var / n_ref)
    excess = np.abs(mean - ref_mean) - (ENSEMBLE_Z * stderr + PROBE_ATOL)
    if excess.max() > 0:
        row, col = np.unravel_index(np.argmax(excess), excess.shape)
        z = abs(mean[row, col] - ref_mean[row, col]) / max(stderr[row, col], 1e-300)
        return [f"ensemble mean {z:.1f} standard errors off at row {row}, probe {col}"]
    return []


def check_run_outputs(out: Path, ref_probes: Path, setup: bool):
    """Problems in the outputs of a `run`: probes, energies.

    A set-up run (zero steps) has only the first row of the reference.
    """
    problems = []
    try:
        _, probes = read_csv(out / "probes.csv")
        _, ref = read_csv(ref_probes)
        _, energy = read_csv(out / "energy.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    rows = 1 if setup else ref.shape[0]
    if probes.shape[0] != rows:
        problems.append(f"probes.csv has {probes.shape[0]} rows, expected {rows}")
    problems += compare_probes(probes[:, 1:], ref[:, 1:])
    if energy.shape[0] != rows or not np.all(np.isfinite(energy)):
        problems.append("energy.csv is incomplete or not finite")
    return problems


def check_ensemble_outputs(out: Path, ref_stats: Path, setup: bool, paths: int):
    """(paths that failed, problems) of an `ensemble` run.

    Paths the program dropped count as failed; a statistics mismatch or a
    non-finite path trace fails every path.
    """
    try:
        header, stats = read_csv(out / "ensemble_stats.csv")
        ref_header, ref = read_csv(ref_stats)
        survivors = int(header["paths"])
        traces = [read_csv(p)[1] for p in sorted(out.glob("probes_path*.csv"))]
    except (OSError, ValueError, KeyError) as exc:
        return paths, [f"unreadable output: {exc}"]
    problems = []
    rows = 1 if setup else ref.shape[0]
    if stats.shape[0] != rows:
        problems.append(f"ensemble_stats.csv has {stats.shape[0]} rows, expected {rows}")
    if len(traces) != survivors or not all(np.all(np.isfinite(t)) for t in traces):
        problems.append("path probe traces are missing or not finite")
    problems += compare_ensemble(stats, survivors, ref, int(ref_header["paths"]))
    failed = paths if problems else paths - survivors
    if survivors != paths:
        problems.append(f"{paths - survivors} of {paths} paths failed")
    return failed, problems
