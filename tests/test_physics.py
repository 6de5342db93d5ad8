import numpy as np
import pytest

from cardioem.physics import (
    ActivationParams,
    ConductivityParams,
    IonicParams,
    clamp_gradient,
    gamma_kappa,
    g_act,
    h_kin,
    i_ion,
    inverse_deformation,
    pull_back,
    sigma_and_active,
)

PAPER_IONIC = IonicParams(k=-80.0, a=0.25, d1=0.17, d2=1.0)


# ---------------------------------------------------------------------------
# kinetics


def test_i_ion_zero_at_origin():
    assert i_ion(0.0, 0.0, PAPER_IONIC) == 0.0


def test_i_ion_root_at_a():
    assert i_ion(0.25, 0.0, PAPER_IONIC) == 0.0


def test_i_ion_midpoint_value():
    # direct substitution: k (0 + 0.5 * 0.25 * (-0.5)) = -80 * -0.0625
    assert i_ion(0.5, 0.0, PAPER_IONIC) == pytest.approx(5.0, abs=1e-14)


def test_i_ion_roots_at_zero_gating():
    for root in (0.0, 0.25, 1.0):
        assert i_ion(root, 0.0, PAPER_IONIC) == pytest.approx(0.0, abs=1e-14)


def test_h_kin_values():
    assert h_kin(0.0, 0.0, PAPER_IONIC) == 0.0
    assert h_kin(1.0, 0.0, PAPER_IONIC) == pytest.approx(0.17)
    assert h_kin(0.0, 1.0, PAPER_IONIC) == pytest.approx(-1.0)


def test_ionic_params_validation():
    with pytest.raises(ValueError):
        IonicParams(a=1.5)
    with pytest.raises(ValueError):
        IonicParams(d2=0.0)


def test_g_act_values():
    p = ActivationParams(eta1=1.0, eta2=1.0, beta_act=2.0)
    assert g_act(0.0, 0.0, p) == 0.0
    assert g_act(1.0, 1.0, p) == pytest.approx(1.0)


def test_g_act_equilibrium():
    p = ActivationParams(eta1=3.0, eta2=0.5, beta_act=1.25)
    w = 0.8
    gstar = p.beta_act * w / p.eta2
    assert g_act(gstar, w, p) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# contraction map


def test_gamma_kappa_negative_input_is_zero():
    assert gamma_kappa(-5.0, 0.3, 0.3) == 0.0


def test_gamma_kappa_reference_value():
    # arctan(1) = pi/4 -> -Gamma/2
    assert gamma_kappa(0.3, 0.4, 0.3) == pytest.approx(-0.2)


def test_gamma_kappa_limit():
    assert gamma_kappa(1e12, 0.3, 0.3) == pytest.approx(-0.3, abs=1e-9)


def test_gamma_kappa_monotone_bounded_lipschitz():
    G, gR = 0.3, 0.3
    g = np.linspace(-2, 6, 4001)
    vals = gamma_kappa(g, G, gR)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals <= 0) and np.all(vals >= -G)
    slopes = np.abs(np.diff(vals) / np.diff(g))
    assert slopes.max() <= G * 2 / (np.pi * gR) + 1e-9


# ---------------------------------------------------------------------------
# active tensor


def sigma_tensor(gamma, d_l, d_t, p):
    return sigma_and_active(gamma, d_l, d_t, p)[0]


def active_tensor_inv(gamma, d_l, d_t, p):
    """det(Fa) Fa^-1 Fa^-T, which is sigma / mu."""
    return sigma_tensor(gamma, d_l, d_t, p) / p.mu


def test_active_tensor_identity_for_nonpositive_gamma():
    p = ActivationParams()
    dl, dt = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.allclose(active_tensor_inv(-0.7, dl, dt, p), np.eye(2), atol=1e-15)
    assert np.allclose(active_tensor_inv(0.0, dl, dt, p), np.eye(2), atol=1e-15)


def test_active_tensor_axis_aligned_value():
    # choose the contraction so gamma_l = -0.1, gamma_t = 0:
    # Gamma_l = 0.2 and gamma = gamma_R give arctan(1) -> -0.2/2 = -0.1
    p = ActivationParams(Gamma_l=0.2, Gamma_t=0.0, gamma_R=0.3)
    dl, dt = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    C = active_tensor_inv(0.3, dl, dt, p)
    assert np.allclose(C, np.diag([0.9 / 0.81, 0.9]), atol=1e-14)


def test_active_tensor_frame_rotation():
    p = ActivationParams(Gamma_l=0.25, Gamma_t=0.1, gamma_R=0.3)
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    dl0, dt0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    C0 = active_tensor_inv(0.45, dl0, dt0, p)
    C1 = active_tensor_inv(0.45, R @ dl0, R @ dt0, p)
    assert np.allclose(C1, R @ C0 @ R.T, atol=1e-14)


def test_sigma_identity_and_paper_modulus():
    p = ActivationParams(mu=4.0)
    dl, dt = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.allclose(sigma_tensor(0.0, dl, dt, p), 4.0 * np.eye(2))


def test_sigma_linear_in_mu():
    dl, dt = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    s1 = sigma_tensor(0.8, dl, dt, ActivationParams(mu=2.0))
    s2 = sigma_tensor(0.8, dl, dt, ActivationParams(mu=4.0))
    assert np.allclose(s2, 2 * s1)


def test_sigma_eigenvalue_bounds_randomized():
    p = ActivationParams(mu=4.0, Gamma_l=0.3, Gamma_t=0.2)
    G = max(p.Gamma_l, p.Gamma_t)
    lo, hi = p.mu * (1.0 - G), p.mu / (1.0 - G)
    rng = np.random.default_rng(11)
    for _ in range(300):
        theta = rng.uniform(0, 2 * np.pi)
        dl = np.array([np.cos(theta), np.sin(theta)])
        dt = np.array([-np.sin(theta), np.cos(theta)])
        s = sigma_tensor(rng.uniform(-1, 5), dl, dt, p)
        assert np.allclose(s, s.T, atol=1e-14)
        ev = np.linalg.eigvalsh(s)
        assert ev[0] >= lo - 1e-12 and ev[-1] <= hi + 1e-12


def test_sigma_active_is_sigma_less_mu_and_exactly_zero_when_passive():
    p = ActivationParams(mu=4.0, Gamma_l=0.3, Gamma_t=0.2)
    theta = np.random.default_rng(5).uniform(0, 2 * np.pi, 50)
    dl = np.column_stack([np.cos(theta), np.sin(theta)])
    dt = np.column_stack([-np.sin(theta), np.cos(theta)])
    gamma = np.linspace(-1.0, 2.0, 50)
    gamma[::4] = -0.0
    full, active = sigma_and_active(gamma, dl, dt, p)
    assert np.abs(active + 4.0 * np.eye(2) - full).max() <= 1e-14
    # in a rotated frame mu (d_l d_l + d_t d_t) is mu I only to round-off,
    # so the zeros must come from the frame coefficients
    assert not np.any(active[gamma <= 0.0])
    assert np.all(np.abs(active[gamma > 0.0]).max(axis=(1, 2)) > 0.0)


def test_activation_params_validation():
    with pytest.raises(ValueError):
        ActivationParams(Gamma_l=1.0)
    with pytest.raises(ValueError):
        ActivationParams(gamma_R=0.0)
    with pytest.raises(ValueError):
        ActivationParams(mu=-1.0)
    with pytest.raises(ValueError):
        ActivationParams(eta1=-0.1)


# ---------------------------------------------------------------------------
# conductivity pullback


def conductivity(grad_u, K, p):
    """F^-1 K F^-T with F = I + the clamped gradient."""
    return pull_back(inverse_deformation(grad_u, p), K)


def test_conductivity_identity_gradient():
    p = ConductivityParams()
    K = np.array([[0.02, 0.0], [0.0, 0.01]])
    assert np.array_equal(conductivity(np.zeros((2, 2)), K, p), K)


def test_conductivity_diagonal_stretch():
    p = ConductivityParams()
    K = np.diag([0.02, 0.01])
    M = conductivity(np.diag([0.1, 0.0]), K, p)
    assert np.allclose(M, np.diag([0.02 / 1.21, 0.01]), atol=1e-15)


def test_conductivity_symmetric_for_random_gradients():
    p = ConductivityParams()
    K = np.array([[0.04, 0.005], [0.005, 0.02]])
    rng = np.random.default_rng(5)
    grads = rng.uniform(-1.5, 1.5, size=(1000, 2, 2))
    M = conductivity(grads, K, p)
    assert np.abs(M - np.swapaxes(M, -2, -1)).max() < 1e-14


def test_conductivity_eigenvalues_within_declared_bounds():
    p = ConductivityParams()
    K = np.diag([0.02, 0.01])
    # |F| <= 1 + delta and det F >= tau, so the singular values of F lie in
    # [tau / (1 + delta), 1 + delta]
    evals = np.linalg.eigvalsh(K)
    lo = evals[0] / (1.0 + p.clamp_delta) ** 2
    hi = evals[-1] * ((1.0 + p.clamp_delta) / p.clamp_tau) ** 2
    rng = np.random.default_rng(17)
    grads = rng.uniform(-3, 3, size=(5000, 2, 2))
    ev = np.linalg.eigvalsh(conductivity(grads, K, p))
    assert ev.min() >= lo - 1e-13
    assert ev.max() <= hi + 1e-13


def test_conductivity_clamp_keeps_determinant_floor():
    p = ConductivityParams(clamp_delta=0.9, clamp_tau=0.5)
    # strongly compressive gradient disallowed by the determinant floor
    G = np.array([[-0.6, 0.0], [0.0, -0.6]])
    from cardioem.physics import clamp_gradient

    Gc = clamp_gradient(G, p)
    F = np.eye(2) + Gc
    assert np.linalg.det(F) >= p.clamp_tau - 1e-9


def test_pull_back_matches_the_matmul_form_with_both_clamps_active():
    p = ConductivityParams(clamp_delta=0.9, clamp_tau=0.5)
    grads = 5.0 * np.random.default_rng(11).standard_normal((2000, 2, 2))
    # the Frobenius clamp acts on every sample, the determinant floor on some
    detF = np.linalg.det(np.eye(2) + clamp_gradient(grads, p))
    assert np.all(np.linalg.norm(grads, axis=(-2, -1)) > p.clamp_delta)
    assert np.any(detF < p.clamp_tau + 1e-9)
    Finv = inverse_deformation(grads, p)
    K = np.array([[0.04, 0.005], [0.005, 0.02]])
    ref = Finv @ K @ np.swapaxes(Finv, -2, -1)
    ref = 0.5 * (ref + np.swapaxes(ref, -2, -1))
    M = pull_back(Finv, K)
    assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()
    np.testing.assert_array_equal(M[:, 0, 1], M[:, 1, 0])


def test_conductivity_params_validation():
    with pytest.raises(ValueError, match="positive definite"):
        ConductivityParams(ki_xx=0.1, ki_xy=0.2, ki_yy=0.1)
    with pytest.raises(ValueError):
        ConductivityParams(clamp_delta=1.5)
    with pytest.raises(ValueError):
        ConductivityParams(clamp_tau=0.0)
