"""The pseudo-compressible pressure study, replayed over an activated run,
and the dense structural probes on a run's Discretization."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from cardioem import diagnostics, mechanics, physics
from cardioem.driver import (
    Discretization,
    MeshParams,
    RunParams,
    SimConfig,
    run_simulation,
)
from cardioem.fem import (
    FeSpace,
    assemble_boundary_mass,
    assemble_divergence,
    assemble_mass,
    assemble_stiffness,
)
from cardioem.mesh import FiberField


def per_step_run(config, snapshot_iters):
    T = max(snapshot_iters) * config.time.dt
    config = replace(
        config, time=replace(config.time, T=T), snapshot_iters=snapshot_iters
    )
    disc = Discretization.build(config)
    return disc, run_simulation(config, disc=disc)


def test_eps_pressure_gap_shrinks_with_eps(monkeypatch):
    # 6x6 to t = 1.6 + 20 dt: the contraction is under way from t = 1.6, so
    # the replayed pressures lie far above the mechanics solver tolerance
    start = int(round(1.6 / SimConfig().time.dt))
    disc, result = per_step_run(
        SimConfig(mesh=MeshParams(6, 6), run=RunParams(mech_refresh=1)),
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
        SimConfig(mesh=MeshParams(4, 4), run=RunParams(mech_refresh=refresh)),
        iters,
    )
    with pytest.raises(ValueError, match="consecutive"):
        diagnostics.eps_pressure_study(disc, result, [1e-1])


def test_dense_probes_match_the_full_vector_operators(monkeypatch):
    # reference: the full vector elastic form and H1 Gram, blockdiag of
    # scalar blocks assembled on fresh spaces, and the divergence, at an
    # activation that is positive in places
    config = SimConfig(mesh=MeshParams(4, 4))
    disc = Discretization.build(config)
    gamma = np.linspace(-0.1, 0.3, disc.mesh.num_vertices)
    u_space = FeSpace(disc.mesh, degree=2)
    p_space = FeSpace(disc.mesh, degree=1)
    fibers = FiberField.axis_aligned(disc.mesh)
    sigma = physics.sigma_and_active(
        gamma[disc.mesh.triangles] @ u_space.quad.points.T,
        fibers.d_l[:, None], fibers.d_t[:, None], config.activation,
    )[0]
    K = assemble_stiffness(u_space, sigma) + assemble_boundary_mass(
        u_space, config.mech.alpha
    )
    G = assemble_mass(u_space) + assemble_stiffness(u_space)
    A = sp.block_diag((K, K))
    H = sp.block_diag((G, G)).toarray()
    coer_ref = scipy.linalg.eigh(
        A.toarray(), H, eigvals_only=True, subset_by_index=[0, 0]
    )[0]
    Lh = scipy.linalg.cholesky(H, lower=True)
    Lp = scipy.linalg.cholesky(assemble_mass(p_space).toarray(), lower=True)
    S = scipy.linalg.solve_triangular(
        Lp, assemble_divergence(u_space, p_space).toarray(), lower=True
    )
    S = scipy.linalg.solve_triangular(Lh, S.T, lower=True).T
    infsup_ref = np.linalg.svd(S, compute_uv=False)[-1]

    def forbidden(*args, **kwargs):
        raise AssertionError("the probes build on the run's Discretization")

    # the statics are built on first use; build them before the patches,
    # so that the probes are seen to build nothing of their own
    disc.statics
    monkeypatch.setattr(diagnostics, "FeSpace", forbidden)
    monkeypatch.setattr(mechanics, "mech_statics", forbidden)
    assert diagnostics.coercivity_estimate(disc, gamma) == pytest.approx(
        coer_ref, rel=1e-12
    )
    assert diagnostics.infsup_estimate(disc) == pytest.approx(infsup_ref, rel=1e-12)
    # the guards count the dofs of the vector field, not of one component
    monkeypatch.setattr(diagnostics, "_DENSE_LIMIT", 2 * u_space.n_scalar - 1)
    with pytest.raises(ValueError, match="too large"):
        diagnostics.coercivity_estimate(disc, gamma)
    with pytest.raises(ValueError, match="too large"):
        diagnostics.infsup_estimate(disc)
