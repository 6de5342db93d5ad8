import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cardioem import electrics, fem, physics
from cardioem.electrics import (
    BidomainSystem,
    ElectricState,
    assemble_bidomain,
    conductivities_from_gradient,
    enforce_zero_mean,
    initial_split,
    initial_stimulus,
    step_bidomain,
)
from cardioem.fem import (
    FeSpace,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    solve_cg,
)
from cardioem.driver import (
    Discretization,
    MeshParams,
    RunParams,
    SimConfig,
    SimulationError,
    SolverParams,
    TimeParams,
    run_simulation,
)
from cardioem.mechanics import MechParams
from cardioem.mesh import structured_unit_square
from cardioem.noise import NoiseParams

PAPER_IONIC = physics.IonicParams(k=-80.0, a=0.25, d1=0.17, d2=1.0)
COND = physics.ConductivityParams()


def row_sums(mass):
    return np.asarray(mass.sum(axis=1)).ravel()


def make_system(n=4, dt=0.0125, grad_u=None, cond=COND):
    mesh = structured_unit_square(n, n)
    space = FeSpace(mesh, 1)
    mass = assemble_mass(space)
    Mi, Me = conductivities_from_gradient(space, grad_u, cond)
    return space, mass, assemble_bidomain(
        space, Mi, Me, dt, mass, row_sums(mass), ratio=cond.ratio
    )


def random_grad_u(n):
    # (ne, nq, 2, 2) on the n x n mesh: 2 n^2 triangles, 6 quadrature points
    return 0.2 * np.random.default_rng(5).standard_normal((2 * n * n, 6, 2, 2))


def uniform_state(space, v, w):
    n = space.n_scalar
    v_i = np.full(n, v)
    v_e = np.zeros(n)
    return ElectricState(v_i, v_e, np.full(n, v), np.full(n, w))


def step_one(sys_, state, ionic, i_app, dW_v, dW_w, noise, **kwargs):
    """`step_bidomain` on a batch of one path: its new state and the StepInfo."""
    rows = ElectricState(*(a[None] for a in (state.v_i, state.v_e, state.v, state.w)))
    new, info = step_bidomain(
        [sys_], rows, ionic, i_app, dW_v[None], dW_w[None], noise, **kwargs
    )
    return ElectricState(new.v_i[0], new.v_e[0], new.v[0], new.w[0]), info


# ---------------------------------------------------------------------------
# stimulus


def test_stimulus_half_value_on_radius():
    assert initial_stimulus(0.18, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_stimulus_center_value():
    # logistic oracle: 1 - 1/(1 + e^9)
    expect = 1.0 - 1.0 / (1.0 + math.exp(9.0))
    assert initial_stimulus(0.0, 0.5) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.9998766054240137, abs=1e-15)


def test_stimulus_far_corner_negligible():
    assert initial_stimulus(1.0, 0.5) < 1e-17


def test_stimulus_bounded_in_unit_interval():
    # mathematically in (0,1); the lower end underflows to 0 in double
    # precision far from the stimulus
    xs = np.linspace(0, 1, 33)
    vals = initial_stimulus(xs[None, :], xs[:, None])
    assert np.all(vals >= 0) and np.all(vals < 1)
    near = initial_stimulus(np.array([0.0, 0.1, 0.3]), np.array([0.5, 0.5, 0.5]))
    assert np.all(near > 0)


# ---------------------------------------------------------------------------
# assembled block


def test_undeformed_conductivities_match_plain_stiffness():
    dt = 0.0125
    space, mass, sys_ = make_system(4, dt=dt)
    K_i_plain = assemble_stiffness(space, COND.K_i)
    K_e_plain = assemble_stiffness(space, COND.K_e)
    Mdt = mass / dt
    plain = sp.bmat([[Mdt + K_i_plain, -Mdt], [-Mdt, Mdt + K_e_plain]], format="csr")
    assert abs(sys_.block - plain).max() == 0.0


def tensor_fields(name, K):
    """The three `ConductivityParams` fields of `name` ("ki" or "ke") set to K."""
    return {f"{name}_xx": K[0, 0], f"{name}_xy": K[0, 1], f"{name}_yy": K[1, 1]}


def rotated_anisotropic(angle=0.4):
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return physics.ConductivityParams(
        **tensor_fields("ki", R @ np.diag([0.03, 0.004]) @ R.T),
        **tensor_fields("ke", R @ np.diag([0.02, 0.008]) @ R.T),
    )


@pytest.mark.parametrize(
    "cond", [COND, rotated_anisotropic()], ids=["default", "rotated"]
)
def test_undeformed_block_equals_the_zero_gradient_block(cond):
    # no gradient gives the constant tensors; they and the block built from
    # them are bitwise those of an explicit zero gradient at every point
    n = 5
    zero = np.zeros((2 * n * n, 6, 2, 2))
    space = FeSpace(structured_unit_square(n, n), 1)
    Mi, Me = conductivities_from_gradient(space, None, cond)
    assert Mi.shape == Me.shape == (2, 2)
    np.testing.assert_array_equal(Mi, cond.K_i)
    np.testing.assert_array_equal(Me, cond.K_e)
    _, _, constant = make_system(n, cond=cond)
    _, _, pointwise = make_system(n, grad_u=zero, cond=cond)
    assert np.array_equal(constant.block.indptr, pointwise.block.indptr)
    assert np.array_equal(constant.block.indices, pointwise.block.indices)
    assert np.array_equal(constant.block.data, pointwise.block.data)


def test_shared_pull_back_matches_one_tensor_at_a_time():
    # gradients this large and these bounds make both clamps act
    cond = physics.ConductivityParams(clamp_delta=0.9, clamp_tau=0.5)
    space = FeSpace(structured_unit_square(4, 4), 1)
    grad_u = 5.0 * random_grad_u(4)
    Mi, Me = conductivities_from_gradient(space, grad_u, cond)
    Finv = reference_inverse(grad_u, cond)
    for M, K in ((Mi, cond.K_i), (Me, cond.K_e)):
        np.testing.assert_array_equal(M, reference_pull_back(Finv, K))


# the chain that the entry-wise pull-back and the P1 kernel replaced, kept
# as the reference: (..., 2, 2) arrays throughout, the P1 entries
# integrated point by point over (ne, 2, 2) tensors


def reference_clamp(grad_u, p):
    G = np.array(grad_u, dtype=float, copy=True)
    fro = np.sqrt(np.sum(G * G, axis=(-2, -1), keepdims=True))
    scale = np.where(fro > p.clamp_delta, p.clamp_delta / np.maximum(fro, 1e-300), 1.0)
    G *= scale

    def detF(s):
        trG = G[..., 0, 0] + G[..., 1, 1]
        dG = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
        return 1.0 + s * trG + s * s * dG

    bad = detF(1.0) < p.clamp_tau
    if np.any(bad):
        lo = np.zeros(bad.shape)
        hi = np.ones(bad.shape)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ok = detF(mid) >= p.clamp_tau
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        s = np.where(bad, lo, 1.0)
        G *= s[..., None, None]
    return G


def reference_inverse(grad_u, p):
    F = reference_clamp(grad_u, p)
    F[..., 0, 0] += 1.0
    F[..., 1, 1] += 1.0
    det = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
    Finv = np.empty_like(F)
    Finv[..., 0, 0] = F[..., 1, 1]
    Finv[..., 0, 1] = -F[..., 0, 1]
    Finv[..., 1, 0] = -F[..., 1, 0]
    Finv[..., 1, 1] = F[..., 0, 0]
    Finv /= det[..., None, None]
    return Finv


def reference_pull_back(Finv, K):
    (a, b), (c, d) = np.moveaxis(Finv, (-2, -1), (0, 1))
    k00, k01, k11 = K[0, 0], K[0, 1], K[1, 1]
    ta0, ta1 = a * k00 + b * k01, a * k01 + b * k11
    tc0, tc1 = c * k00 + d * k01, c * k01 + d * k11
    M = np.empty(Finv.shape)
    M[..., 0, 0] = ta0 * a + ta1 * b
    M[..., 1, 1] = tc0 * c + tc1 * d
    M[..., 0, 1] = M[..., 1, 0] = ta0 * c + ta1 * d
    return M


def reference_p1_stiffness(space, c):
    wdet = space.quad.weights[None, :] * space.detJ[:, None]
    G0 = space.grads.transpose(0, 1, 3, 2)[:, 0]
    cbar = np.zeros((len(space.conn), 2, 2))
    for q in range(len(space.quad.weights)):
        cbar += wdet[:, q, None, None] * c[:, q]
    local = np.matmul(G0.transpose(0, 2, 1), np.matmul(cbar, G0))
    return fem._scatter(space, local)


CLAMP_CASES = {
    # (conductivities, scale of the gradients, points that each clamp scales)
    "no-clamp": (COND, 0.05, "none", "none"),
    "frobenius": (physics.ConductivityParams(clamp_delta=0.3), 0.2, "some", "none"),
    "both": (
        physics.ConductivityParams(clamp_delta=0.9, clamp_tau=0.5), 5.0, "all", "some"
    ),
    "off-diagonal": (
        physics.ConductivityParams(ki_xy=0.002, ke_xy=0.004, clamp_delta=0.3),
        0.2, "some", "none",
    ),
    "unequal-ratios": (
        physics.ConductivityParams(ke_yy=0.03, clamp_delta=0.9, clamp_tau=0.5),
        5.0, "all", "some",
    ),
}


@pytest.mark.parametrize("case", list(CLAMP_CASES))
def test_pull_back_and_p1_stiffness_match_the_reference_chain(case):
    cond, size, frobenius, determinant = CLAMP_CASES[case]
    n = 6
    space = FeSpace(structured_unit_square(n, n), 1)
    grad_u = (size / 0.2) * random_grad_u(n)
    # the clamps act where the case says: the Frobenius one where |G| >
    # clamp_delta, the determinant floor where det(I + G) < clamp_tau after it
    fro = np.linalg.norm(grad_u, axis=(-2, -1))
    G = grad_u * (np.minimum(fro, cond.clamp_delta) / fro)[..., None, None]
    det = np.linalg.det(np.eye(2) + G)
    for mask, how in (
        (fro > cond.clamp_delta, frobenius), (det < cond.clamp_tau, determinant)
    ):
        assert how == ("none" if not mask.any() else "all" if mask.all() else "some")
    assert (cond.ratio is None) == (case == "unequal-ratios")

    Mi, Me = conductivities_from_gradient(space, grad_u, cond)
    Finv = reference_inverse(grad_u, cond)
    refs = [reference_pull_back(Finv, cond.K_i)]
    refs.append(
        cond.ratio * refs[0] if cond.ratio else reference_pull_back(Finv, cond.K_e)
    )
    for M, ref in zip((Mi, Me), refs):
        np.testing.assert_array_equal(M, ref)
        np.testing.assert_array_equal(
            assemble_stiffness(space, M).data, reference_p1_stiffness(space, ref).data
        )


def test_step_matrix_is_the_csr_sum_on_the_shared_pattern():
    _, mass, system = make_system(5, grad_u=random_grad_u(5))
    lam = COND.ratio
    ref = mass / system.dt + (lam / (1.0 + lam)) * system.stiff_i
    A = system.v_matrix
    np.testing.assert_array_equal(A.indptr, mass.indptr)
    np.testing.assert_array_equal(A.indices, mass.indices)
    np.testing.assert_array_equal(A.toarray(), ref.toarray())


def test_block_symmetry():
    _, _, sys_ = make_system(5)
    d = abs(sys_.block - sys_.block.T).max()
    assert d <= 1e-12


def test_block_kernel_constant_pair():
    space, _, sys_ = make_system(4)
    ones = np.ones(2 * space.n_scalar)
    assert np.abs(sys_.block.dot(ones)).max() <= 1e-12 * abs(sys_.block).max()


def test_block_positive_semidefinite_dense():
    space, _, sys_ = make_system(3)
    evals = np.linalg.eigvalsh(sys_.block.toarray())
    assert evals[0] > -1e-12
    assert evals[1] > 1e-10  # one-dimensional kernel only


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize(
    "cond", [COND, rotated_anisotropic()], ids=["default", "rotated"]
)
def test_block_product_matches_the_assembled_block(cond, deformed):
    # the steps apply the block through M, A_i and A_e (lambda A_i when the
    # tensors are proportional); the assembled block is the reference
    n = 6
    space, _, sys_ = make_system(
        n, grad_u=random_grad_u(n) if deformed else None, cond=cond
    )
    assert (sys_.ratio is None) == (cond is not COND)
    block = sys_.block
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal(2 * space.n_scalar)
        ref = block.dot(x)
        assert np.linalg.norm(sys_.block_dot(x) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_proportional_sourced_step_assembles_no_block(monkeypatch):
    # applied current runs the CG on the 2n block, as a product, with the
    # two scalar factors as its preconditioner: no sp.bmat, nothing kept
    space, mass, sys_ = make_system(6, grad_u=random_grad_u(6))
    bmats = recorded_bmat_calls(monkeypatch)
    v0 = space.interpolate(initial_stimulus)
    v_i, v_e = initial_split(v0, row_sums(mass))
    state = ElectricState(v_i, v_e, v0, np.zeros_like(v0))
    i_app = assemble_load(space, initial_stimulus)
    for _ in range(2):
        state, info = step_one(
            sys_, state, PAPER_IONIC, i_app, np.zeros(1), np.zeros(1), ZERO,
        )
        assert info.converged and info.iterations == 1
    assert bmats == []
    assert "block" not in vars(sys_)
    assert {"_lu_v", "_lu_e"} <= vars(sys_).keys()


def test_assemble_rejects_bad_dt():
    space, mass, _ = make_system(2)
    Mi, Me = conductivities_from_gradient(space, None, COND)
    with pytest.raises(ValueError):
        assemble_bidomain(space, Mi, Me, 0.0, mass, row_sums(mass))


# ---------------------------------------------------------------------------
# zero-mean projector


def test_enforce_zero_mean_constant_vector():
    space, _, sys_ = make_system(3)
    out = enforce_zero_mean(np.full(space.n_scalar, 3.7), sys_.lumped)
    assert np.abs(out).max() < 1e-14


def test_enforce_zero_mean_is_constant_shift_and_idempotent():
    space, mass, sys_ = make_system(4)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(space.n_scalar)
    out = enforce_zero_mean(v, sys_.lumped)
    shift = v - out
    assert np.ptp(shift) < 1e-13  # constant difference
    again = enforce_zero_mean(out, sys_.lumped)
    assert np.abs(again - out).max() < 1e-14
    m = np.asarray(mass.sum(axis=1)).ravel()
    assert abs(m @ out) < 1e-12


def test_initial_split_properties():
    space, mass, _ = make_system(5)
    v0 = space.interpolate(initial_stimulus)
    v_i, v_e = initial_split(v0, row_sums(mass))
    assert np.abs(v_i - v_e - v0).max() < 1e-14
    m = np.asarray(mass.sum(axis=1)).ravel()
    assert abs(m @ v_e) < 1e-12


# ---------------------------------------------------------------------------
# stepping


ZERO = NoiseParams()


def reference_rhs(sys_, state, ionic, i_app, dW_v, noise):
    """The step's right-hand side, rebuilt from the scheme: with
    b = M (v/dt - I_ion(v, w) + noise_v/dt), the rows are (b + i_app, -b + i_app),
    and noise_v sums beta(v) dW_k / (k+1) over the modes k."""
    v, dt = state.v, sys_.dt
    noise_v = sum(noise.amplitude("v", v) * dw / (k + 1) for k, dw in enumerate(dW_v))
    base = sys_.mass.dot(v / dt - physics.i_ion(v, state.w, ionic) + noise_v / dt)
    return np.concatenate([base + i_app, -base + i_app])


def step_no_noise(sys_, state, ionic, i_app=None, tol=1e-12):
    n = sys_.space.n_scalar
    if i_app is None:
        i_app = np.zeros(n)
    return step_one(
        sys_, state, ionic, i_app, np.zeros(1), np.zeros(1), ZERO, tol=tol
    )


def test_zero_state_is_fixed_point():
    space, _, sys_ = make_system(4)
    state = uniform_state(space, 0.0, 0.0)
    new, info = step_no_noise(sys_, state, PAPER_IONIC)
    assert info.converged
    assert np.abs(new.v).max() == 0.0
    assert np.abs(new.w).max() == 0.0


def test_uniform_state_reduces_to_explicit_ode():
    # 0-D oracle: v+ = v - dt k(w + v(v-a)(v-1)); with the literal reference
    # parameters (k=-80) and (v,w)=(0.5,0): v+ = 0.5 - 0.0125*5 = 0.4375
    space, _, sys_ = make_system(4, dt=0.0125)
    state = uniform_state(space, 0.5, 0.0)
    new, info = step_no_noise(sys_, state, PAPER_IONIC, tol=1e-14)
    assert info.converged
    assert np.abs(new.v - 0.4375).max() < 1e-12
    assert np.abs(new.w - 0.0125 * 0.17 * 0.5).max() < 1e-14


def test_uniform_state_stays_uniform_many_steps():
    ionic = physics.IonicParams(k=80.0)
    space, _, sys_ = make_system(3, dt=0.0125)
    state = uniform_state(space, 0.5, 0.0)
    v, w = 0.5, 0.0
    for _ in range(50):
        state, info = step_no_noise(sys_, state, ionic, tol=1e-14)
        assert info.converged
        v, w = v - 0.0125 * physics.i_ion(v, w, ionic), w + 0.0125 * physics.h_kin(v, w, ionic)
        assert np.abs(state.v - v).max() < 1e-11
        assert np.abs(state.w - w).max() < 1e-12


def test_state_identity_v_equals_vi_minus_ve():
    space, mass, sys_ = make_system(5)
    v0 = space.interpolate(initial_stimulus)
    v_i, v_e = initial_split(v0, row_sums(mass))
    state = ElectricState(v_i, v_e, v0, np.zeros_like(v0))
    i_app = assemble_load(space, initial_stimulus)
    new, info = step_one(
        sys_, state, physics.IonicParams(k=80.0), i_app,
        np.zeros(1), np.zeros(1), ZERO,
    )
    assert info.converged
    assert np.array_equal(new.v, new.v_i - new.v_e)
    m = np.asarray(mass.sum(axis=1)).ravel()
    assert abs(m @ new.v_e) <= 1e-10 * (1 + np.linalg.norm(new.v_e))


def test_noise_free_path_matches_deterministic_bitwise():
    # with zero amplitude the increments multiply to zero: the path has no
    # influence, so two different draws give bit-identical states
    space, mass, sys_ = make_system(4)
    v0 = space.interpolate(initial_stimulus)
    v_i, v_e = initial_split(v0, row_sums(mass))
    ionic = physics.IonicParams(k=80.0)
    rng = np.random.default_rng(8)
    s1 = ElectricState(v_i.copy(), v_e.copy(), v0.copy(), np.zeros_like(v0))
    s2 = ElectricState(v_i.copy(), v_e.copy(), v0.copy(), np.zeros_like(v0))
    for _ in range(5):
        dwa, dwb = rng.standard_normal(2), rng.standard_normal(2)
        s1, _ = step_one(
            sys_, s1, ionic, np.zeros(space.n_scalar), dwa[:1], dwa[1:], ZERO
        )
        s2, _ = step_one(
            sys_, s2, ionic, np.zeros(space.n_scalar), dwb[:1], dwb[1:], ZERO
        )
    assert np.array_equal(s1.v, s2.v)
    assert np.array_equal(s1.w, s2.w)


def test_noise_enters_both_rows_identically():
    # constant additive noise shifts v but leaves v_e untouched (the shift
    # lies in the constant direction, absorbed by the i-potential)
    space, mass, sys_ = make_system(4)
    state = uniform_state(space, 0.2, 0.0)
    noise = NoiseParams(beta0_v=0.5)
    dw = np.array([0.3])
    new, info = step_one(
        sys_, state, physics.IonicParams(k=0.001), np.zeros(space.n_scalar),
        dw, np.zeros(1), noise, tol=1e-13,
    )
    assert info.converged
    assert np.abs(new.v_e).max() < 1e-10
    expect = 0.2 - 0.0125 * physics.i_ion(0.2, 0.0, physics.IonicParams(k=0.001)) + 0.5 * 0.3
    assert np.abs(new.v - expect).max() < 1e-10


def test_linear_step_unconditionally_stable():
    # no reaction (k ~ 0), no noise: |v+|_M <= |v|_M for random data
    space, mass, sys_ = make_system(5)
    ionic = physics.IonicParams(k=1e-300)
    rng = np.random.default_rng(4)
    v0 = rng.standard_normal(space.n_scalar)
    v_i, v_e = initial_split(v0, row_sums(mass))
    state = ElectricState(v_i, v_e, v0, np.zeros_like(v0))
    for _ in range(3):
        new, info = step_no_noise(sys_, state, ionic, tol=1e-13)
        assert info.converged
        before = state.v @ mass.dot(state.v)
        after = new.v @ mass.dot(new.v)
        assert after <= before + 1e-10 * max(before, 1.0)
        state = new


@pytest.mark.parametrize("tol", [1e-10, 1e-16, 1e-18])
@pytest.mark.parametrize(
    "cond", [COND, rotated_anisotropic()], ids=["default", "rotated"]
)
def test_sourced_step_converges_only_on_its_true_residual(cond, tol):
    # the block CG's preconditioner is an exact solve, so its first
    # iteration is the direct solve, with the true residual (~1e-15 here).
    # A second iteration only pushed the recursive residual below
    # round-off: at 1e-16 it reported convergence on that alone, and at
    # 1e-18 it ran 500 iterations before it stalled
    space, mass, sys_ = make_system(4, cond=cond)
    v0 = space.interpolate(initial_stimulus)
    i_app = assemble_load(space, initial_stimulus)
    b = mass.dot(v0 / sys_.dt - physics.i_ion(v0, np.zeros_like(v0), PAPER_IONIC))
    rhs, proj = np.concatenate([b + i_app, -b + i_app]), sys_.projector()
    v_i, v_e, res = sys_.solve(b, i_app, True, tol)
    true = np.linalg.norm(proj(rhs - sys_.block.dot(res.x)))
    if res.converged:
        assert true <= tol * np.linalg.norm(proj(rhs))
    assert res.converged == (tol == 1e-10)
    assert res.iterations == 1


def test_nonconvergence_leaves_state_unchanged():
    space, _, sys_ = make_system(6)
    state = uniform_state(space, 0.5, 0.1)
    i_app = np.zeros(space.n_scalar)
    out, info = step_one(
        sys_, state, PAPER_IONIC, i_app, np.zeros(1), np.zeros(1), ZERO,
        tol=1e-30,
    )
    assert not info.converged
    for name in ("v_i", "v_e", "v", "w"):
        np.testing.assert_array_equal(getattr(out, name), getattr(state, name))


def test_elliptic_compatibility_residual():
    # residual of (i-row) + (symmetrized e-row) against constants equals
    # -2 * integral of the stimulus, independent of the iterate
    space, mass, sys_ = make_system(4)
    v0 = space.interpolate(initial_stimulus)
    v_i, v_e = initial_split(v0, row_sums(mass))
    state = ElectricState(v_i, v_e, v0, np.zeros_like(v0))
    i_app = assemble_load(space, initial_stimulus)
    ionic = physics.IonicParams(k=80.0)
    new, info = step_one(
        sys_, state, ionic, i_app, np.zeros(1), np.zeros(1), ZERO,
    )
    x = np.concatenate([new.v_i, new.v_e])
    r = sys_.block.dot(x) - reference_rhs(sys_, state, ionic, i_app, np.zeros(1), ZERO)
    total = float(np.sum(r))
    assert abs(total + 2.0 * i_app.sum()) < 1e-10 * max(1.0, abs(2 * i_app.sum()))


# ---------------------------------------------------------------------------
# the preconditioner: two scalar factors for proportional tensors, else the
# grounded-block factor

# the default pair (lambda = 2) keeps the bare ids; 3 K_i has a lambda that
# is not a power of two; the rotated pair is not proportional
TENSOR_PAIRS = [
    ("", COND, 2.0),
    ("-ke3", physics.ConductivityParams(**tensor_fields("ke", 3.0 * COND.K_i)), 3.0),
    ("-rotated", rotated_anisotropic(), None),
]
SOLVE_CASES = [
    pytest.param(n, deformed, cond, id=f"{n}-{deformed}{suffix}")
    for suffix, cond, _ in TENSOR_PAIRS
    for n in (8, 16)
    for deformed in (False, True)
]


def recorded_bmat_calls(monkeypatch):
    """A list that gains one entry per `sp.bmat` call from now on: each
    assembly of the 2n block is one."""
    calls = []
    bmat = sp.bmat

    def recording(*args, **kwargs):
        calls.append(None)
        return bmat(*args, **kwargs)

    monkeypatch.setattr(sp, "bmat", recording)
    return calls


def recorded_factor_sizes(monkeypatch):
    """The orders of the matrices that P1 spaces factor from now on; the
    P2 space's factors of the mechanics block K are left out."""
    sizes = []
    factor = fem.FeSpace.factor_banded

    def recording(space, A):
        if space.degree == 1:
            sizes.append(A.shape[0])
        return factor(space, A)

    monkeypatch.setattr(fem.FeSpace, "factor_banded", recording)
    return sizes


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize(
    "cond, lam", [(cond, lam) for _, cond, lam in TENSOR_PAIRS],
    ids=["default", "ke3", "rotated"],
)
def test_proportional_system_factors_no_2n_matrix(monkeypatch, cond, lam, deformed):
    # two scalar factors, of orders n and n - 1, for proportional tensors; the
    # grounded block, of order 2n - 1, otherwise; both on first use, once
    assert cond.ratio == lam
    sizes = recorded_factor_sizes(monkeypatch)
    grad_u = random_grad_u(8) if deformed else None
    space, _, sys_ = make_system(8, grad_u=grad_u, cond=cond)
    n = space.n_scalar
    assert sys_.ratio == lam and (sys_.stiff_e is None) == (lam is not None)
    assert sizes == []
    r = sys_.projector()(np.random.default_rng(1).standard_normal(2 * n))
    sys_.precondition(r)
    sys_.precondition(r)
    assert sizes == ([2 * n - 1] if lam is None else [n, n - 1])
    # a system whose first steps are sourceless factors only the matrix for v,
    # and builds no 2n block; the row-sum factor comes with its first sourced
    # solve.  The general path assembles the block once, for its factor, and
    # keeps only the factor
    sizes.clear()
    bmats = recorded_bmat_calls(monkeypatch)
    _, _, fresh = make_system(8, grad_u=grad_u, cond=cond)
    b = np.random.default_rng(2).standard_normal(n)
    fresh.solve(b, np.zeros(n), False, 1e-10)
    fresh.solve(b, np.zeros(n), False, 1e-10)
    assert sizes == ([2 * n - 1] if lam is None else [n])
    assert len(bmats) == (lam is None)
    assert "block" not in vars(fresh)
    fresh.precondition(r)
    assert sizes == ([2 * n - 1] if lam is None else [n, n - 1])


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)], ids=["xx", "xy", "yy"])
def test_one_ulp_from_proportional_takes_the_general_path(monkeypatch, entry):
    K_e = 2.0 * COND.K_i
    i, j = entry
    K_e[i, j] = K_e[j, i] = np.nextafter(K_e[i, j], 1.0)
    cond = physics.ConductivityParams(**tensor_fields("ke", K_e))
    assert cond.ratio is None
    sizes = recorded_factor_sizes(monkeypatch)
    disc = Discretization.build(SimConfig(mesh=MeshParams(4, 4), conductivity=cond))
    sys_ = disc.passive.system
    assert sys_.ratio is None and sys_.stiff_e is not None
    n = disc.space.n_scalar
    sys_.precondition(sys_.projector()(np.ones(2 * n)))
    assert sizes == [2 * n - 1]


def split_and_block_runs(monkeypatch, config):
    """`config` run with the split solve and with the grounded 2n block
    (`ratio` patched to None), with the orders each run factors."""
    sizes = recorded_factor_sizes(monkeypatch)
    split = run_simulation(config)
    split_sizes = list(sizes)
    sizes.clear()
    monkeypatch.setattr(
        physics.ConductivityParams, "ratio", property(lambda self: None)
    )
    block = run_simulation(config)
    assert np.any(block.final.mech.u)
    np.testing.assert_allclose(split.probes, block.probes, rtol=0, atol=1e-12)
    for name, arr in split.energy.arrays().items():
        np.testing.assert_allclose(
            arr, block.energy.arrays()[name], rtol=1e-12, atol=0, err_msg=name
        )
    return split_sizes, sizes


# loaded (gy = -1) and noisy; the activation turns positive near
# t = 0.7, so the refreshes at steps 60, 65, 70 and 75 build new systems
LOADED_NOISY = SimConfig(
    mesh=MeshParams(8, 8), time=TimeParams(T=1.0),
    run=RunParams(seed=7, mech_refresh=5),
    noise=NoiseParams(
        kind_v="linear-clipped", beta0_v=0.1, beta0_w=0.05, modes=2
    ),
    mech=MechParams(gy=-1.0),
)


def test_split_solve_run_agrees_with_the_grounded_block_run(monkeypatch):
    # K_e = 2 K_i: the run that solves each step as two scalar systems and
    # the run that solves the grounded 2n block agree to round-off, through
    # noise and refreshes of loaded mechanics.  Only step 0 has applied
    # current, so only the initial system factors its row-sum matrix.  Each
    # run first factors the pressure mass, of order n, for the set-up's
    # loaded mechanics solve
    split, block = split_and_block_runs(monkeypatch, LOADED_NOISY)
    n = 81
    assert split == [n] + [n, n - 1] + [n] * 4
    assert block == [n] + [2 * n - 1] * 5


def test_split_run_stimulated_at_a_refresh_agrees_with_the_block_run(monkeypatch):
    # the stimulus is on while t < 0.77: through steps 60 and 61 of the
    # first new system, so that deformed system takes sourced steps, then
    # sourceless ones, and factors its row-sum matrix on its first step
    config = replace(
        LOADED_NOISY, run=replace(LOADED_NOISY.run, stim_duration=0.77)
    )
    split, block = split_and_block_runs(monkeypatch, config)
    n = 81
    assert split == [n] + [n, n - 1] * 2 + [n] * 3
    assert block == [n] + [2 * n - 1] * 5


@pytest.mark.parametrize("n, deformed, cond", SOLVE_CASES)
def test_precondition_inverts_projected_block(n, deformed, cond):
    space, _, sys_ = make_system(
        n, grad_u=random_grad_u(n) if deformed else None, cond=cond
    )
    proj = sys_.projector()
    r = proj(np.random.default_rng(n).standard_normal(2 * space.n_scalar))
    z = sys_.precondition(r)
    z_e = z[space.n_scalar:]
    assert np.linalg.norm(proj(sys_.block.dot(z)) - r) <= 1e-12 * np.linalg.norm(r)
    assert abs(sys_.lumped @ z_e) <= 1e-12 * np.linalg.norm(sys_.lumped) * np.linalg.norm(z_e)


PROPORTIONAL_CASES = [case for case in SOLVE_CASES if case.values[2].ratio is not None]


@pytest.mark.parametrize("n, deformed, cond", PROPORTIONAL_CASES)
def test_sourceless_precondition_inverts_projected_block(n, deformed, cond):
    # r = P(b, -b), the projected right-hand side of a step without applied
    # current: the scalar solve for v alone gives the z of the
    # preconditioner's contract, and the same z as its two solves
    space, _, sys_ = make_system(
        n, grad_u=random_grad_u(n) if deformed else None, cond=cond
    )
    proj = sys_.projector()
    b = np.random.default_rng(n).standard_normal(space.n_scalar)
    r = proj(np.concatenate([b, -b]))
    v_i, v_e, res = sys_.solve(b, np.zeros_like(b), False, 1e-12)
    assert res.converged and res.iterations == 1
    z = np.concatenate([v_i, v_e])
    z_e = z[space.n_scalar:]
    assert np.linalg.norm(proj(sys_.block.dot(z)) - r) <= 1e-12 * np.linalg.norm(r)
    assert abs(sys_.lumped @ z_e) <= 1e-12 * np.linalg.norm(sys_.lumped) * np.linalg.norm(z_e)
    assert np.linalg.norm(z - sys_.precondition(r)) <= 1e-12 * np.linalg.norm(z)


def bordered_solve(sys_, rhs):
    """Dense reference step: (v_i, v_e) from the bordered system

        [[block, c], [c^T, 0]] (x, lam) = (rhs, 0),    c = (0, lumped),

    whose solution has zero-mean v_e and solves the block up to the part
    of rhs along c, which the block cannot reach."""
    n = sys_.space.n_scalar
    c = np.concatenate([np.zeros(n), sys_.lumped])
    A = np.block([[sys_.block.toarray(), c[:, None]], [c[None, :], np.zeros((1, 1))]])
    x = np.linalg.solve(A, np.append(rhs, 0.0))
    return x[:n], x[n:2 * n]


@pytest.mark.parametrize("n, deformed, cond", SOLVE_CASES)
def test_preconditioned_step_matches_jacobi_reference(n, deformed, cond):
    space, mass, sys_ = make_system(
        n, grad_u=random_grad_u(n) if deformed else None, cond=cond
    )
    v0 = space.interpolate(initial_stimulus)
    v_i, v_e = initial_split(v0, row_sums(mass))
    state = ElectricState(v_i, v_e, v0, np.zeros_like(v0))
    i_app = assemble_load(space, initial_stimulus)
    ionic = physics.IonicParams(k=80.0)
    dW_v, noise = np.array([0.1]), NoiseParams(beta0_v=0.3)
    new, info = step_one(
        sys_, state, ionic, i_app, dW_v, np.array([0.05]), noise, tol=1e-10,
    )
    assert info.converged
    assert info.iterations == 1

    rhs = reference_rhs(sys_, state, ionic, i_app, dW_v, noise)
    ref_i, ref_e = bordered_solve(sys_, rhs)
    assert np.abs(new.v_i - ref_i).max() < 1e-9
    assert np.abs(new.v_e - ref_e).max() < 1e-9
    # and the CG with the projected Jacobi scaling in place of the grounded factor
    proj, diag = sys_.projector(), sys_.block.diagonal()
    ref = solve_cg(sys_.block, rhs, proj, lambda r: proj(r / diag), tol=1e-12)
    assert ref.converged
    n_s = space.n_scalar
    assert np.abs(new.v_i - ref.x[:n_s]).max() < 1e-9
    assert np.abs(new.v_e - enforce_zero_mean(ref.x[n_s:], sys_.lumped)).max() < 1e-9


@pytest.mark.parametrize("n, deformed, cond", PROPORTIONAL_CASES)
def test_sourceless_noisy_step_matches_the_bordered_solve(
    monkeypatch, n, deformed, cond
):
    # no applied current: the step solves for v alone, and the new state
    # has v_i + lambda v_e constant, the monodomain reduction
    bmats = recorded_bmat_calls(monkeypatch)
    space, mass, sys_ = make_system(
        n, grad_u=random_grad_u(n) if deformed else None, cond=cond
    )
    v0 = space.interpolate(initial_stimulus)
    v_i, v_e = initial_split(v0, row_sums(mass))
    state = ElectricState(v_i, v_e, v0, np.full_like(v0, 0.1))
    ionic, i_app = physics.IonicParams(k=80.0), np.zeros_like(v0)
    dW_v = np.array([0.1, -0.2])
    noise = NoiseParams(kind_v="linear-clipped", beta0_v=0.3, beta0_w=0.2)
    new, info = step_one(
        sys_, state, ionic, i_app, dW_v, np.array([0.05, 0.1]), noise, tol=1e-10,
    )
    assert info.converged and info.iterations == 1

    # a scalar solve, which builds no 2n block
    assert bmats == []

    rhs = reference_rhs(sys_, state, ionic, i_app, dW_v, noise)
    ref_i, ref_e = bordered_solve(sys_, rhs)
    assert np.abs(new.v_i - ref_i).max() <= 1e-13
    assert np.abs(new.v_e - ref_e).max() <= 1e-13
    assert np.ptp(new.v_i + cond.ratio * new.v_e) <= 1e-13


@pytest.mark.parametrize("n, deformed, cond", PROPORTIONAL_CASES)
def test_scalar_step_matches_the_bordered_solve_and_the_block_cg(n, deformed, cond):
    # the source-free step solves (D + lam/(1+lam) A_i) v = b; the step
    # through the projected 2n block, with the preconditioner's two scalar
    # solves, gives the same (v_i, v_e)
    space, mass, sys_ = make_system(
        n, grad_u=random_grad_u(n) if deformed else None, cond=cond
    )
    v0 = space.interpolate(initial_stimulus)
    v_i, v_e = initial_split(v0, row_sums(mass))
    state = ElectricState(v_i, v_e, v0, np.full_like(v0, 0.1))
    ionic, i_app = physics.IonicParams(k=80.0), np.zeros_like(v0)
    dW_v = np.array([0.3])
    noise = NoiseParams(kind_v="linear-clipped", beta0_v=0.5)
    new, info = step_one(
        sys_, state, ionic, i_app, dW_v, np.array([0.1]), noise, tol=1e-10,
    )
    assert info.converged and info.iterations == 1
    assert info.relres[0] <= 1e-10

    rhs = reference_rhs(sys_, state, ionic, i_app, dW_v, noise)
    ref_i, ref_e = bordered_solve(sys_, rhs)
    assert np.abs(new.v_i - ref_i).max() <= 1e-12
    assert np.abs(new.v_e - ref_e).max() <= 1e-12
    block = solve_cg(sys_.block, rhs, sys_.projector(), sys_.precondition, tol=1e-10)
    assert block.converged and block.iterations == 1
    n_s = space.n_scalar
    assert np.abs(new.v_i - block.x[:n_s]).max() <= 1e-12
    block_e = enforce_zero_mean(block.x[n_s:], sys_.lumped)
    assert np.abs(new.v_e - block_e).max() <= 1e-12


def test_scalar_step_that_cannot_meet_its_tolerance_raises_with_checkpoint(
    monkeypatch,
):
    # no stimulus at all, so step 0 is already a scalar source-free step;
    # at solver.tol = 1e-30 its residual check fails
    config = SimConfig(
        mesh=MeshParams(4, 4), time=TimeParams(T=0.025),
        run=RunParams(stim_duration=0.0), solver=SolverParams(tol=1e-30),
    )
    disc = Discretization.build(config)
    bmats = recorded_bmat_calls(monkeypatch)
    with pytest.raises(SimulationError, match="electric solve stalled") as info:
        run_simulation(config, disc=disc)
    assert bmats == []
    assert info.value.step == 0
    checkpoint = info.value.checkpoint
    assert (checkpoint.n, checkpoint.t) == (0, 0.0)
    np.testing.assert_array_equal(checkpoint.electric.v, disc.v0)
    np.testing.assert_array_equal(checkpoint.gamma, disc.gamma0)


@pytest.mark.parametrize("system", ["fresh", "after-loaded-refresh"])
def test_step_from_zero_matches_the_warm_started_step(system):
    cfg = SimConfig(mesh=MeshParams(8, 8))
    disc = Discretization.build(cfg)
    if system == "fresh":
        sys_ = disc.passive.system
    else:
        # positive where stimulated, so the mechanics loads and u != 0
        mech, mres = disc.solve_mechanics(0.3 * disc.v0)
        assert mres.converged and np.any(mech.u)
        sys_ = disc.bidomain_system(mech.u)
    state = disc.initial_state()
    dW_v, dW_w = np.array([0.1]), np.array([0.05])
    noise = NoiseParams(beta0_v=0.3)
    new, info = step_one(
        sys_, state, cfg.ionic, disc.i_app, dW_v, dW_w, noise, tol=cfg.solver.tol,
    )
    assert info.converged and info.iterations == 1

    rhs = reference_rhs(sys_, state, cfg.ionic, disc.i_app, dW_v, noise)
    ref_i, ref_e = bordered_solve(sys_, rhs)
    assert np.abs(new.v_i - ref_i).max() <= 1e-13
    assert np.abs(new.v_e - ref_e).max() <= 1e-13
    # warm-started from the previous (v_i, v_e): the same CG, solving for
    # the correction to it
    x0 = np.concatenate([state.v_i, state.v_e])
    ref = solve_cg(
        sys_.block, rhs - sys_.block.dot(x0), sys_.projector(), sys_.precondition,
        tol=cfg.solver.tol,
    )
    assert ref.converged and ref.iterations == 1
    warm, n = x0 + ref.x, disc.space.n_scalar
    assert np.abs(new.v_i - warm[:n]).max() <= 1e-13
    assert np.abs(new.v_e - enforce_zero_mean(warm[n:], sys_.lumped)).max() <= 1e-13
