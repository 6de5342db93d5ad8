from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg, splu

from cardioem import electrics, physics
from cardioem.fem import (
    FeSpace,
    assemble_divergence,
    assemble_mass,
    assemble_stiffness,
    component_dot,
    factor_spd,
)
from cardioem.mechanics import (
    MechParams,
    MechState,
    assemble_mechanics,
    is_passive,
    mech_statics,
    solve_mechanics,
    step_mechanics_regularized,
)
from cardioem.mesh import FiberField, TriMesh, structured_unit_square

ACT = physics.ActivationParams(mu=4.0)


def setup(n=4, alpha=1.0, gamma_fn=None):
    mesh = structured_unit_square(n, n)
    u_space = FeSpace(mesh, 2)
    p_space = FeSpace(mesh, 1)
    fibers = FiberField.axis_aligned(mesh)
    if gamma_fn is None:
        gamma = np.zeros(mesh.num_vertices)
    else:
        gamma = np.array([gamma_fn(x, y) for x, y in mesh.vertices])
    params = MechParams(alpha=alpha)
    system = assemble_mechanics(u_space, p_space, gamma, fibers, params, ACT)
    return mesh, u_space, p_space, system


def bump(x, y):
    return 0.8 * np.exp(-20 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))


def displacement_block(system):
    """A = blockdiag(K, K), the displacement block of the whole system."""
    return sp.block_diag((system.K, system.K), format="csr")


# ---------------------------------------------------------------------------
# assembly


def test_constant_sigma_gives_zero_rhs():
    *_, system = setup(4, gamma_fn=None)
    assert np.abs(system.f).max() < 1e-13


def test_rhs_nonzero_for_bump_activation():
    *_, system = setup(4, gamma_fn=bump)
    assert np.abs(system.f).max() > 1e-6


def test_passive_activations_assemble_the_same_system():
    # sigma sees only max(gamma, 0) at convex combinations of vertex
    # values, so every nowhere-positive gamma gives the gamma = 0 system
    mesh, u_space, p_space, zero = setup(6)
    rng = np.random.default_rng(3)
    gamma = -rng.uniform(0.0, 0.5, mesh.num_vertices)
    gamma[::5] = 0.0
    gamma[1::7] = -0.0
    assert is_passive(gamma)
    system = assemble_mechanics(
        u_space, p_space, gamma, FiberField.axis_aligned(mesh), MechParams(), ACT
    )
    np.testing.assert_array_equal(system.K.data, zero.K.data)
    np.testing.assert_array_equal(system.K.indices, zero.K.indices)
    np.testing.assert_array_equal(system.f, zero.f)


def outer_product_sigma(gamma, d_l, d_t, p):
    """sigma and its active part by broadcast outer products, the reference.

    mu (c_l d_l(x)d_l + c_t d_t(x)d_t), each term formed as (c d_i) d_j
    over (..., 2, 2) temporaries.
    """
    dl = np.asarray(d_l, dtype=float)
    dt = np.asarray(d_t, dtype=float)

    def in_fiber_frame(cl, ct):
        out = cl[..., None, None] * dl[..., :, None] * dl[..., None, :]
        out += ct[..., None, None] * dt[..., :, None] * dt[..., None, :]
        return p.mu * out

    cl, ct = physics._fiber_stretches(gamma, p)
    return in_fiber_frame(cl, ct), in_fiber_frame(cl - 1.0, ct - 1.0)


@pytest.mark.parametrize(
    "make_fibers",
    [FiberField.axis_aligned, lambda mesh: FiberField.rotated(mesh, 0.25)],
    ids=["axis-aligned", "rotated"],
)
def test_one_stretch_evaluation_assembles_the_two_pass_system(
    monkeypatch, make_fibers
):
    # reference: sigma for K and its active part for the load, each from
    # its own evaluation of the fiber stretches, the active part formed in
    # the fiber frame
    mesh = structured_unit_square(8, 8)
    u_space, p_space = FeSpace(mesh, 2), FeSpace(mesh, 1)
    fibers = make_fibers(mesh)
    gamma = bump(*mesh.vertices.T) - 0.1
    assert np.any(gamma > 0.0) and np.any(gamma < 0.0)
    got = assemble_mechanics(u_space, p_space, gamma, fibers, MechParams(), ACT)

    def two_pass(gamma, d_l, d_t, p):
        sigma = outer_product_sigma(gamma, d_l, d_t, p)[0]
        return sigma, outer_product_sigma(gamma, d_l, d_t, p)[1]

    monkeypatch.setattr(physics, "sigma_and_active", two_pass)
    ref = assemble_mechanics(u_space, p_space, gamma, fibers, MechParams(), ACT)
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(got.K, name), getattr(ref.K, name))
    np.testing.assert_array_equal(got.f, ref.f)
    assert np.abs(ref.f).max() > 1e-6


@pytest.mark.parametrize(
    "make_fibers",
    [FiberField.axis_aligned, lambda mesh: FiberField.rotated(mesh, 0.4)],
    ids=["axis-aligned", "rotated"],
)
def test_sigma_entries_equal_the_outer_product_formula(monkeypatch, make_fibers):
    # every call that the assembly makes: the interior one, over (ne, nq)
    # quadrature points, and the boundary one, over the (ne_b, 3) edge
    # quadrature points of `_active_on_boundary`
    mesh = structured_unit_square(8, 8)
    u_space, p_space = FeSpace(mesh, 2), FeSpace(mesh, 1)
    gamma = bump(*mesh.vertices.T) - 0.1
    calls = []
    one_pass = physics.sigma_and_active

    def recording(*args):
        calls.append(args)
        return one_pass(*args)

    monkeypatch.setattr(physics, "sigma_and_active", recording)
    assemble_mechanics(
        u_space, p_space, gamma, make_fibers(mesh), MechParams(), ACT
    )
    n_edges = len(mesh.boundary_edges)
    assert [np.shape(args[0]) for args in calls] == [
        (mesh.num_triangles, len(u_space.quad.weights)), (n_edges, 3),
    ]
    for args in calls:
        got = one_pass(*args)
        ref = outer_product_sigma(*args)
        assert got[0].shape == ref[0].shape == np.shape(args[0]) + (2, 2)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


def test_is_passive_rejects_positive_and_nan():
    assert is_passive(np.array([-1.0, 0.0, -0.0]))
    assert not is_passive(np.array([-1.0, 1e-300]))
    assert not is_passive(np.array([-1.0, np.nan]))


def test_a_block_spd_dense_oracle():
    *_, system = setup(3)
    evals = np.linalg.eigvalsh(displacement_block(system).toarray())
    assert evals[0] > 0


def test_alpha_scaling_boundary_only():
    mesh = structured_unit_square(3, 3)
    u_space = FeSpace(mesh, 2)
    p_space = FeSpace(mesh, 1)
    fibers = FiberField.axis_aligned(mesh)
    gamma = np.zeros(mesh.num_vertices)
    s1 = assemble_mechanics(u_space, p_space, gamma, fibers, MechParams(alpha=1.0), ACT)
    s2 = assemble_mechanics(u_space, p_space, gamma, fibers, MechParams(alpha=2.0), ACT)
    from cardioem.fem import assemble_boundary_mass

    b = assemble_boundary_mass(u_space, 1.0)
    bm = sp.block_diag((b, b))
    assert abs((displacement_block(s2) - displacement_block(s1)) - bm).max() < 1e-12


def test_k_keeps_the_space_pattern_from_passive_to_active():
    # the isotropic passive sigma gives stiffness entries that cancel to
    # exactly zero; they stay in K's pattern, so its ordering holds for
    # every activation
    mesh, u_space, p_space, passive = setup(6)
    _, _, _, active = setup(6, gamma_fn=bump)
    indptr, indices, _ = u_space.pattern
    for system in (passive, active):
        np.testing.assert_array_equal(system.K.indptr, indptr)
        np.testing.assert_array_equal(system.K.indices, indices)
    assert np.count_nonzero(passive.K.data == 0.0) > 0
    # K is the stiffness plus the boundary mass, bitwise the sum that a
    # CSR addition forms
    stiff = assemble_stiffness(u_space, ACT.mu * np.eye(2))
    np.testing.assert_array_equal(
        passive.K.toarray(), (stiff + passive.statics.boundary).toarray()
    )


def test_k_through_the_stored_ordering_solves_as_a_fresh_mmd_lu():
    mesh = structured_unit_square(8, 8)
    u_space, p_space = FeSpace(mesh, 2), FeSpace(mesh, 1)
    statics = mech_statics(u_space, p_space, 1.0, assemble_mass(p_space))
    fibers = FiberField.rotated(mesh, 0.4)
    x, y = mesh.vertices.T
    rhs = np.random.default_rng(5).standard_normal((u_space.n_scalar, 2))
    orderings = []
    for gamma in (bump(x, y), 0.5 * np.sin(3 * x) * np.cos(2 * y)):
        K = assemble_mechanics(
            u_space, p_space, gamma, fibers, MechParams(), ACT, statics=statics
        ).K
        q = statics.ordering.q
        got = np.empty_like(rhs)
        got[q] = factor_spd(statics.ordering.permute(K), ordered=True).solve(rhs[q])
        fresh = splu(
            sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        ref = fresh.solve(rhs)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(K.dot(got) - rhs).max() <= 1e-12 * np.abs(rhs).max()
        orderings.append(statics.ordering)
    # both activations factor through the one ordering of the statics
    assert orderings[0] is orderings[1]


def test_params_validation():
    with pytest.raises(ValueError):
        MechParams(alpha=0.0)


# ---------------------------------------------------------------------------
# saddle solve


def test_zero_activation_zero_solution():
    *_, system = setup(4)
    state, res = solve_mechanics(system, tol=1e-10)
    assert res.converged
    assert np.linalg.norm(state.u) < 1e-8
    assert np.linalg.norm(state.p) < 1e-8


def test_constant_activation_zero_solution():
    # gamma constant and positive: sigma is constant but not mu*I
    *_, system = setup(4, gamma_fn=lambda x, y: 0.4)
    state, res = solve_mechanics(system, tol=1e-10)
    assert res.converged
    assert np.linalg.norm(state.u) < 1e-8
    assert np.linalg.norm(state.p) < 1e-8


def test_bump_matches_dense_lu_oracle():
    _, u_space, p_space, system = setup(3, gamma_fn=bump)
    state, res = solve_mechanics(system, tol=1e-12)
    assert res.converged
    n, k = 2 * u_space.n_scalar, p_space.n_scalar
    block = np.zeros((n + k, n + k))
    block[:n, :n] = displacement_block(system).toarray()
    block[:n, n:] = system.B.T.toarray()
    block[n:, :n] = system.B.toarray()
    sol = np.linalg.solve(block, np.concatenate([system.f, np.zeros(k)]))
    scale = max(1.0, np.linalg.norm(sol))
    assert np.linalg.norm(np.concatenate([state.u, state.p]) - sol) < 1e-8 * scale


def test_incompressibility_residual():
    *_, system = setup(5, gamma_fn=bump)
    state, res = solve_mechanics(system, tol=1e-10)
    assert res.converged
    bu = np.linalg.norm(system.B.dot(state.u))
    assert bu <= 1e-8 * max(1.0, np.linalg.norm(state.u))


@pytest.mark.parametrize("angle", [0.0, 0.25])
def test_load_is_exactly_zero_at_the_drivers_initial_activation(angle):
    # gamma0 = -0.3 v0 / (2 - v0) <= 0 leaves only the passive part mu I of
    # sigma, which the load omits, in any fiber frame (at 0.25 rad,
    # cos^2 + sin^2 rounds away from 1, so sigma - mu I would not be zero)
    mesh = structured_unit_square(8, 8)
    u_space = FeSpace(mesh, 2)
    p_space = FeSpace(mesh, 1)
    v0 = p_space.interpolate(electrics.initial_stimulus)
    gamma = -0.3 * v0 / (2.0 - v0)
    system = assemble_mechanics(
        u_space, p_space, gamma, FiberField.rotated(mesh, angle), MechParams(),
        physics.ActivationParams(),
    )
    assert not np.any(system.f)
    state, res = solve_mechanics(system, tol=1e-9)
    assert res.converged and res.iterations == 0
    assert not np.any(state.u) and not np.any(state.p)


def test_round_off_sized_load_converges():
    # the Schur CG is scale invariant: a bump load at round-off size
    # converges from zero like the unit one, to the scaled solution
    *_, system = setup(8, gamma_fn=bump)
    unit, unit_res = solve_mechanics(system, tol=1e-9)
    state, res = solve_mechanics(replace(system, f=1e-15 * system.f), tol=1e-9)
    assert res.converged
    assert res.iterations <= unit_res.iterations + 2
    assert np.abs(1e15 * state.u - unit.u).max() <= 1e-8 * np.abs(unit.u).max()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_bump_iterations_do_not_grow_with_mesh(n):
    # the pressure mass is spectrally equivalent to the Schur complement
    *_, system = setup(n, gamma_fn=bump)
    _, res = solve_mechanics(system, tol=1e-10)
    assert res.converged
    assert res.iterations <= 20


def test_robin_uniqueness_dense_nullspace_probe():
    *_, system = setup(2)
    k, n = system.B.shape
    block = np.zeros((n + k, n + k))
    block[:n, :n] = displacement_block(system).toarray()
    block[:n, n:] = system.B.T.toarray()
    block[n:, :n] = system.B.toarray()
    smin = np.linalg.svd(block, compute_uv=False)[-1]
    assert smin > 1e-10


def test_frame_invariance():
    # rotating mesh and fibers together leaves solution norms unchanged
    theta = 0.31
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])

    mesh = structured_unit_square(4, 4)
    gamma = np.array([bump(x, y) for x, y in mesh.vertices])

    u_space = FeSpace(mesh, 2)
    p_space = FeSpace(mesh, 1)
    sys0 = assemble_mechanics(
        u_space, p_space, gamma, FiberField.axis_aligned(mesh),
        MechParams(alpha=1.0), ACT,
    )
    st0, _ = solve_mechanics(sys0, tol=1e-11)

    mesh_r = TriMesh(mesh.vertices @ R.T, mesh.triangles)
    ur_space = FeSpace(mesh_r, 2)
    pr_space = FeSpace(mesh_r, 1)
    nt = mesh.num_triangles
    fib_r = FiberField(np.tile(R[:, 0], (nt, 1)), np.tile(R[:, 1], (nt, 1)))
    sys1 = assemble_mechanics(
        ur_space, pr_space, gamma, fib_r, MechParams(alpha=1.0), ACT
    )
    st1, _ = solve_mechanics(sys1, tol=1e-11)

    Mu0 = sp.block_diag((assemble_mass(u_space),) * 2, format="csr")
    Mu1 = sp.block_diag((assemble_mass(ur_space),) * 2, format="csr")
    Mp0, Mp1 = sys0.statics.mass_p, sys1.statics.mass_p
    nu0 = np.sqrt(st0.u @ Mu0.dot(st0.u))
    nu1 = np.sqrt(st1.u @ Mu1.dot(st1.u))
    np0 = np.sqrt(st0.p @ Mp0.dot(st0.p))
    np1 = np.sqrt(st1.p @ Mp1.dot(st1.p))
    assert nu0 == pytest.approx(nu1, abs=1e-8, rel=1e-6)
    assert np0 == pytest.approx(np1, abs=1e-8, rel=1e-6)


def unpermuted_schur_cg(system, tol):
    """The Schur CG in the dofs' own order, the reference for `solve_mechanics`.

    scipy's `cg` on B A^-1 B^T through two `LinearOperator`s, with K
    factored through the statics' ordering, and every K and Mp solve
    gathering its right side into the factor's order and scattering the
    result back: the solve as it ran before it moved into K's order.  One
    pass, without the residual check.  Returns (u, p, iterations).
    """
    st = system.statics
    q = st.ordering.q
    lu = factor_spd(st.ordering.permute(system.K), ordered=True)

    def solve_a(v):
        cols = v.reshape(2, -1)
        x = np.empty_like(cols)
        x[:, q] = lu.solve(cols[:, q].T).T
        return x.ravel()

    B = system.B
    BT = B.T.tocsr()
    n_p = B.shape[0]
    S = LinearOperator(
        (n_p, n_p), matvec=lambda p: B.dot(solve_a(BT.dot(p))) + 0.0, dtype=float
    )
    M = LinearOperator((n_p, n_p), matvec=st.mass_p_lu.solve, dtype=float)
    steps = []
    p, _ = cg(
        S, B.dot(solve_a(system.f)), rtol=0.1 * tol, M=M,
        callback=lambda _x: steps.append(1),
    )
    return solve_a(system.f - BT.dot(p)), p, len(steps)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize(
    "make_fibers",
    [FiberField.axis_aligned, lambda mesh: FiberField.rotated(mesh, 0.4)],
    ids=["axis-aligned", "rotated"],
)
def test_k_order_solve_matches_the_bordered_solve_and_the_unpermuted_cg(
    n, make_fibers
):
    # an active gamma and a body force; the solve runs in K's order, with
    # B held there, and its u and p come back in the dofs' own order
    mesh = structured_unit_square(n, n)
    u_space, p_space = FeSpace(mesh, 2), FeSpace(mesh, 1)
    system = assemble_mechanics(
        u_space, p_space, bump(*mesh.vertices.T), make_fibers(mesh),
        MechParams(gx=0.3, gy=-1.0), ACT,
    )
    assert not np.array_equal(system.statics.ordering.q, np.arange(u_space.n_scalar))
    state, res = solve_mechanics(system, tol=1e-12)
    assert res.converged
    nu, k = 2 * u_space.n_scalar, p_space.n_scalar
    block = np.zeros((nu + k, nu + k))
    block[:nu, :nu] = displacement_block(system).toarray()
    block[:nu, nu:] = system.B.T.toarray()
    block[nu:, :nu] = system.B.toarray()
    sol = np.linalg.solve(block, np.concatenate([system.f, np.zeros(k)]))
    for got, ref in ((state.u, sol[:nu]), (state.p, sol[nu:])):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # the same iterations as the CG in the dofs' own order, to the bit
    u, p, iterations = unpermuted_schur_cg(system, 1e-12)
    assert res.iterations == iterations
    np.testing.assert_array_equal(state.p, p)
    np.testing.assert_array_equal(state.u, u)


def test_statics_hold_b_in_k_order_and_rebuild_it_unpermuted():
    mesh = structured_unit_square(5, 5)
    u_space, p_space = FeSpace(mesh, 2), FeSpace(mesh, 1)
    statics = mech_statics(u_space, p_space, 1.0, assemble_mass(p_space))
    div = -assemble_divergence(u_space, p_space).toarray()
    np.testing.assert_array_equal(statics.unpermuted_B().toarray(), div)
    u_order, p_order = statics.u_order, statics.p_order
    np.testing.assert_array_equal(statics.B.toarray(), div[p_order][:, u_order])
    np.testing.assert_array_equal(statics.BT.toarray(), statics.B.T.toarray())
    np.testing.assert_array_equal(p_order, statics.mass_p_lu.q)


# ---------------------------------------------------------------------------
# pseudo-compressible mode


def test_regularized_stationary_at_saddle():
    *_, system = setup(3, gamma_fn=bump)
    state, res = solve_mechanics(system, tol=1e-12)
    new, res2 = step_mechanics_regularized(state, system, dt=0.01, epsilon=0.1, tol=1e-12)
    assert res2.converged
    assert np.linalg.norm(new.u - state.u) < 1e-7
    assert np.linalg.norm(new.p - state.p) < 1e-7


def test_regularized_stiff_limit_stays_near_start():
    _, u_space, p_space, system = setup(3, gamma_fn=bump)
    saddle, _ = solve_mechanics(system, tol=1e-12)
    zero = MechState(np.zeros(2 * u_space.n_scalar), np.zeros(p_space.n_scalar))
    dt = 0.01
    s4, r4 = step_mechanics_regularized(zero, system, dt=dt, epsilon=1e4, tol=1e-13)
    s5, r5 = step_mechanics_regularized(zero, system, dt=dt, epsilon=1e5, tol=1e-13)
    assert r4.converged and r5.converged
    # one implicit step moves O(dt/eps): tiny against the saddle solution
    # and shrinking proportionally with 1/eps
    assert np.linalg.norm(s4.u) <= 1e-3 * np.linalg.norm(saddle.u)
    ratio = np.linalg.norm(s4.u) / np.linalg.norm(s5.u)
    assert ratio == pytest.approx(10.0, rel=0.2)


def test_regularized_pseudo_time_converges_to_saddle():
    _, u_space, p_space, system = setup(3, gamma_fn=bump)
    saddle, _ = solve_mechanics(system, tol=1e-12)
    state = MechState(np.zeros(2 * u_space.n_scalar), np.zeros(p_space.n_scalar))
    for _ in range(200):
        state, res = step_mechanics_regularized(
            state, system, dt=0.05, epsilon=0.01, tol=1e-12
        )
        assert res.converged
    assert np.linalg.norm(state.u - saddle.u) < 1e-6
    assert np.linalg.norm(state.p - saddle.p) < 1e-6


@pytest.mark.parametrize("ratio", [1e-2, 1e4])
def test_regularized_scaled_schur_block_keeps_iterations(ratio):
    # C = (eps/dt) Mp: the Schur block (1 + eps/dt) Mp reuses the Mp factor
    _, u_space, p_space, system = setup(8, gamma_fn=bump)
    _, plain = solve_mechanics(system, tol=1e-10)
    zero = MechState(np.zeros(2 * u_space.n_scalar), np.zeros(p_space.n_scalar))
    dt = 0.01
    _, res = step_mechanics_regularized(
        zero, system, dt=dt, epsilon=ratio * dt, tol=1e-10
    )
    assert res.converged
    assert res.iterations <= plain.iterations + 5


def test_regularized_rejects_bad_args():
    *_, system = setup(2)
    state = MechState(np.zeros(system.B.shape[1]), np.zeros(system.B.shape[0]))
    with pytest.raises(ValueError):
        step_mechanics_regularized(state, system, dt=0.1, epsilon=0.0)


# ---------------------------------------------------------------------------
# pressure functional


def pressure_offset(state, system) -> float:
    """Integral of the pressure recovered from the momentum identity.

    Tests the solved momentum equation with the divergence-one field
    (x, 0); by the discrete weak form the value equals the mass-weighted
    integral of p whenever (u, p) solve the system.
    """
    vtest = system.u_space.interpolate(lambda x, y: (x, 0.0))
    return float(vtest @ component_dot(system.K, state.u) - vtest @ system.f)


def pressure_integral(state, system) -> float:
    m = np.asarray(system.statics.mass_p.sum(axis=1)).ravel()
    return float(m @ state.p)


def test_pressure_offset_zero_state():
    *_, system = setup(3)
    state = MechState(np.zeros(system.B.shape[1]), np.zeros(system.B.shape[0]))
    assert abs(pressure_offset(state, system)) < 1e-12


def test_pressure_offset_constant_activation():
    *_, system = setup(3, gamma_fn=lambda x, y: 0.25)
    state, res = solve_mechanics(system, tol=1e-11)
    assert abs(pressure_offset(state, system)) < 1e-8
    assert abs(pressure_integral(state, system)) < 1e-8


def test_pressure_offset_matches_integral_for_bump():
    *_, system = setup(4, gamma_fn=bump)
    state, res = solve_mechanics(system, tol=1e-11)
    assert res.converged
    off = pressure_offset(state, system)
    integral = pressure_integral(state, system)
    assert off == pytest.approx(integral, abs=1e-6)
