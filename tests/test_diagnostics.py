"""The pseudo-compressible pressure study, replayed over an activated run."""

from dataclasses import replace

import pytest

from cardioem import diagnostics, mechanics
from cardioem.driver import Discretization, SimConfig, run_simulation


def per_step_run(config, snapshot_iters):
    config = replace(
        config, T=max(snapshot_iters) * config.dt, snapshot_iters=snapshot_iters
    )
    disc = Discretization.build(config)
    return disc, run_simulation(config, disc=disc)


def test_eps_pressure_gap_shrinks_with_eps(monkeypatch):
    # 6x6 to t = 1.6 + 20 dt: the contraction is under way from t = 1.6, so
    # the replayed pressures lie far above the mechanics solver tolerance
    start = int(round(1.6 / SimConfig().dt))
    disc, result = per_step_run(
        SimConfig(mesh_nx=6, mesh_ny=6, mech_refresh=1),
        tuple(range(start, start + 21)),
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("the study builds on the run's Discretization")

    monkeypatch.setattr(diagnostics, "FeSpace", forbidden)
    monkeypatch.setattr(mechanics, "mech_statics", forbidden)
    rows = diagnostics.eps_pressure_study(disc, result, [1e-1, 1e-2, 1e-3])
    assert [eps for eps, _ in rows] == [1e-1, 1e-2, 1e-3]
    gaps = [gap for _, gap in rows]
    assert gaps[2] < gaps[0] / 10


@pytest.mark.parametrize(
    "refresh, iters", [(1, (1, 3)), (1, (2,)), (2, (2, 3))],
    ids=["gap", "one-snapshot", "refresh-2"],
)
def test_eps_pressure_study_needs_consecutive_per_step_snapshots(refresh, iters):
    disc, result = per_step_run(
        SimConfig(mesh_nx=4, mesh_ny=4, mech_refresh=refresh), iters
    )
    with pytest.raises(ValueError, match="consecutive"):
        diagnostics.eps_pressure_study(disc, result, [1e-1])
