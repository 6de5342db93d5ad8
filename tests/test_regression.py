"""Golden probe traces of two short coupled runs.

The quiet trace under tests/data/ was recorded with the
Jacobi-preconditioned electric CG, before the bordered-LU preconditioner;
a solver change must reproduce it to within solver tolerance.  The noisy
trace was re-recorded when each noise stream became the draws of one
generator seeded by (seed, channel, mode), which changed every seeded
increment.  Regenerate them only for an intended change of results:

    PYTHONPATH=src python tests/test_regression.py

The script rewrites both files; keep only the one whose results were meant
to change, since the quiet trace differs from the current solver in the
last digits.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from cardioem.driver import MeshParams, RunParams, SimConfig, TimeParams, run_simulation
from cardioem.io_cli import config_hash, write_probes
from cardioem.noise import NoiseParams

DATA = os.path.join(os.path.dirname(__file__), "data")

QUIET = SimConfig(
    mesh=MeshParams(8, 8), time=TimeParams(T=0.25), run=RunParams(mech_refresh=5)
)
CASES = {
    "quiet": QUIET,
    "noisy": replace(
        QUIET.with_seed(7),
        noise=NoiseParams(
            kind_v="linear-clipped", beta0_v=0.1, beta0_w=0.05, modes=2
        ),
    ),
}


def _path(name):
    return os.path.join(DATA, f"regression_{name}.csv")


@pytest.mark.parametrize("name", sorted(CASES))
def test_probes_match_golden_trace(name):
    config = CASES[name]
    with open(_path(name)) as fh:
        header = fh.readline()
    assert f"config={config_hash(config)}" in header
    golden = np.loadtxt(_path(name), delimiter=",", skiprows=2)
    result = run_simulation(config)
    assert golden.shape == (result.n_steps + 1, 1 + len(config.run.probes))
    np.testing.assert_array_equal(golden[:, 0], result.times)
    np.testing.assert_allclose(result.probes, golden[:, 1:], rtol=0, atol=1e-8)


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for name, config in CASES.items():
        write_probes(_path(name), run_simulation(config))
