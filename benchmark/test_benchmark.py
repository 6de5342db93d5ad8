"""The benchmark's own smoke test.

Run from the root of a checkout:

    python3 -m pytest -q benchmark/test_benchmark.py

It runs the tiny variant of every workload (8x8 mesh, T = 0.1, 2 ensemble
paths) untraced and traced through `run.py`, and checks that the output
checks reject a probe trace perturbed beyond their tolerance.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = _smoke(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_counts_are_positive_and_repeat(workload):
    first, second = (_smoke(workload, 1)["metrics"] for _ in range(2))
    assert {k: v["unit"] for k, v in first.items()} == _units("per_layer")
    counts = [k for k, unit in _units("per_layer").items() if unit == "count"]
    assert counts
    for name in counts:
        assert first[name]["value"] > 0, name
        assert first[name]["value"] == second[name]["value"], name
    assert first["trace.coverage"]["value"] >= 0.95


def test_probe_check_rejects_perturbation_beyond_tolerance():
    _, ref = checks.read_csv(HERE / "reference" / "smoke_default.csv")
    probes = ref[:, 1:]
    assert checks.compare_probes(probes.copy(), probes) == []
    nudged = probes.copy()
    nudged[-1, 1] += 0.1 * checks.PROBE_ATOL
    assert checks.compare_probes(nudged, probes) == []
    perturbed = probes.copy()
    perturbed[-1, 1] += 10 * checks.PROBE_ATOL
    assert checks.compare_probes(perturbed, probes)


def test_ensemble_check_rejects_shifted_mean():
    header, ref = checks.read_csv(HERE / "reference" / "smoke_ensemble.csv")
    n_ref = int(header["paths"])
    assert checks.compare_ensemble(ref.copy(), 2, ref, n_ref) == []
    shifted = ref.copy()
    row = np.argmax(ref[:, 2])  # the largest variance of probe 0
    se = np.sqrt(ref[row, 2] * (1 / 2 + 1 / n_ref))
    shifted[row, 1] += 10 * checks.ENSEMBLE_Z * se
    assert checks.compare_ensemble(shifted, 2, ref, n_ref)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "default", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
