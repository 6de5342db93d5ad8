"""Pointwise constitutive laws and parameter validators.

Covers the cubic ionic current and linear gating kinetics, the activation
ODE right-hand side, the arctan contraction map, the active-strain elastic
coefficient sigma with its active part (`sigma_and_active`), and the
deformation-dependent conductivity pullback F^-1 K F^-T
(`pull_back(inverse_deformation(grad_u, p), K)`) with its safety clamps.
Everything here is a pure function of its arguments and vectorizes over
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def require_finite(params, *names):
    """Raise a ValueError naming the first field in `names` of `params`
    that is nan or infinite."""
    for name in names:
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class IonicParams:
    """Cubic/linear reaction constants (dimensionless).

    i_ion(v, w) = k (w + v (v - a)(v - 1)); h_kin(v, w) = d1 v - d2 w.
    """

    k: float = 80.0
    a: float = 0.25
    d1: float = 0.17
    d2: float = 1.0

    def __post_init__(self):
        require_finite(self, "k", "a", "d1", "d2")
        if not 0.0 < self.a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        if not self.d2 > 0.0:
            raise ValueError("d2 must be positive for bounded gating")


@dataclass(frozen=True)
class ActivationParams:
    """Activation ODE constants, contraction magnitudes, elastic modulus.

    Gamma_t defaults to zero: in two dimensions an isotropic contraction
    (Gamma_l = Gamma_t) drops out of det(Fa) Fa^-1 Fa^-T exactly, leaving
    the mechanics inert, so only the along-fiber magnitude is active.
    """

    eta1: float = 1.0
    eta2: float = 1.0
    beta_act: float = 1.0
    Gamma_l: float = 0.3
    Gamma_t: float = 0.0
    gamma_R: float = 0.3
    mu: float = 4.0

    def __post_init__(self):
        require_finite(self, "eta1", "eta2", "beta_act", "gamma_R", "mu")
        if not all(x >= 0.0 for x in (self.eta1, self.eta2, self.beta_act)):
            raise ValueError("eta1, eta2, beta_act must be nonnegative")
        for g in (self.Gamma_l, self.Gamma_t):
            if not 0.0 <= g < 1.0:
                raise ValueError("contraction magnitudes must lie in [0, 1)")
        if not self.gamma_R > 0.0:
            raise ValueError("gamma_R must be positive")
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")


@dataclass(frozen=True)
class ConductivityParams:
    """Base conductivity tensors and the pullback clamps.

    K_i and K_e are symmetric, so each is set by its three free entries
    (`ki_xx`, `ki_xy`, `ki_yy` and the same for `ke`) and built from them
    on read.  clamp_delta bounds the Frobenius norm of the displacement
    gradient that enters F = I + grad(u); clamp_tau floors det(F).
    Together they bound the eigenvalues of every pulled-back tensor
    F^-1 K F^-T to [lambda_min(K) / (1 + clamp_delta)^2,
    lambda_max(K) ((1 + clamp_delta) / clamp_tau)^2].

    When K_e = lambda K_i exactly (`ratio`, an equal anisotropy ratio in
    both media; the defaults have lambda = 2), every pulled-back pair
    goes through the same F, so M_e = lambda M_i and A_e = lambda A_i:
    the electric step then splits into two scalar solves, or one on a
    step without applied current (`electrics.BidomainSystem.solve`).
    """

    ki_xx: float = 0.02
    ki_xy: float = 0.0
    ki_yy: float = 0.01
    ke_xx: float = 0.04
    ke_xy: float = 0.0
    ke_yy: float = 0.02
    clamp_delta: float = 0.5
    clamp_tau: float = 0.25

    def __post_init__(self):
        for name, K in (("K_i", self.K_i), ("K_e", self.K_e)):
            # finite first: np.linalg.det warns on a NaN entry
            if not (
                np.isfinite(K).all() and np.trace(K) > 0 and np.linalg.det(K) > 0
            ):
                raise ValueError(f"{name} must be positive definite")
        if not 0.0 < self.clamp_delta < 1.0:
            raise ValueError("clamp_delta must lie in (0, 1)")
        if not 0.0 < self.clamp_tau < 1.0:
            raise ValueError("clamp_tau must lie in (0, 1)")

    @property
    def K_i(self) -> np.ndarray:
        return np.array([[self.ki_xx, self.ki_xy], [self.ki_xy, self.ki_yy]], float)

    @property
    def K_e(self) -> np.ndarray:
        return np.array([[self.ke_xx, self.ke_xy], [self.ke_xy, self.ke_yy]], float)

    @property
    def ratio(self) -> float | None:
        """lambda = K_e[0,0] / K_i[0,0] if lambda K_i == K_e exactly, else None."""
        lam = float(self.ke_xx / self.ki_xx)
        return lam if np.array_equal(lam * self.K_i, self.K_e) else None


# ---------------------------------------------------------------------------
# kinetics


def i_ion(v, w, p: IonicParams):
    """Ionic current k (w + v (v - a)(v - 1))."""
    v = np.asarray(v, dtype=float)
    return p.k * (w + v * (v - p.a) * (v - 1.0))


def h_kin(v, w, p: IonicParams):
    """Gating rate d1 v - d2 w."""
    return p.d1 * np.asarray(v, dtype=float) - p.d2 * w


def g_act(gamma, w, p: ActivationParams):
    """Activation rate eta1 (beta w - eta2 gamma)."""
    return p.eta1 * (p.beta_act * w - p.eta2 * np.asarray(gamma, dtype=float))


def gamma_kappa(gamma, Gamma_k: float, gamma_R: float):
    """Contraction scalar -Gamma_k (2/pi) arctan(max(gamma,0)/gamma_R).

    Monotone non-increasing in gamma with range [-Gamma_k, 0].
    """
    gplus = np.maximum(np.asarray(gamma, dtype=float), 0.0)
    return -Gamma_k * (2.0 / np.pi) * np.arctan(gplus / gamma_R)


# ---------------------------------------------------------------------------
# active strain tensors


def _fiber_stretches(gamma, p: ActivationParams):
    """(c_l, c_t) = ((1+g_t)/(1+g_l), (1+g_l)/(1+g_t)).

    Both are exactly 1.0 where gamma <= 0: gamma_kappa is then -0.0.
    """
    gl = 1.0 + gamma_kappa(gamma, p.Gamma_l, p.gamma_R)
    gt = 1.0 + gamma_kappa(gamma, p.Gamma_t, p.gamma_R)
    return gt / gl, gl / gt


def sigma_and_active(gamma, d_l, d_t, p: ActivationParams):
    """The elastic coefficient sigma and its active part sigma - mu I.

    sigma = mu det(Fa) Fa^-1 Fa^-T for Fa = I + g_l d_l(x)d_l + g_t d_t(x)d_t,
    which in the fiber frame is mu diag(c_l, c_t) with the stretches of
    `_fiber_stretches`; it is SPD with eigenvalues in [mu (1 - G),
    mu / (1 - G)] for G = max(Gamma_l, Gamma_t).  The active part is formed
    in the fiber frame as mu ((c_l - 1) d_l(x)d_l + (c_t - 1) d_t(x)d_t),
    not by subtracting mu I, so it is exactly 0.0 wherever gamma <= 0, for
    any orthonormal frame.  Both come from one evaluation of the stretches
    and broadcast over leading axes: gamma (...,), d_l/d_t (..., 2).  Each
    entry (i, j) of c_l d_l(x)d_l + c_t d_t(x)d_t is filled on its own, as
    (c_l d_l_i) d_l_j + (c_t d_t_i) d_t_j and then times mu, with no
    outer-product temporaries over the leading axes.
    """
    cl, ct = _fiber_stretches(gamma, p)
    dl = np.asarray(d_l, dtype=float)
    dt = np.asarray(d_t, dtype=float)
    shape = np.broadcast_shapes(cl.shape, dl.shape[:-1], dt.shape[:-1])
    out = []
    for c_l, c_t in ((cl, ct), (cl - 1.0, ct - 1.0)):
        tensor = np.empty(shape + (2, 2))
        for i in range(2):
            cdl, cdt = c_l * dl[..., i], c_t * dt[..., i]
            for j in range(2):
                tensor[..., i, j] = cdl * dl[..., j] + cdt * dt[..., j]
        tensor *= p.mu
        out.append(tensor)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# deformation-dependent conductivities


def clamp_gradient(grad_u: np.ndarray, p: ConductivityParams) -> np.ndarray:
    """Scale the displacement gradient into the admissible set.

    First rescales so the Frobenius norm is at most clamp_delta, then (if the
    determinant of I + G still falls below clamp_tau) shrinks further by
    bisection until det(I + s G) >= clamp_tau.  Total: every input maps to an
    admissible gradient; the zero gradient is a fixed point.
    """
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


def inverse_deformation(grad_u: np.ndarray, p: ConductivityParams) -> np.ndarray:
    """F^-1 for F = I + `clamp_gradient(grad_u, p)`, over leading axes."""
    G = clamp_gradient(grad_u, p)
    F = G.copy()
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


def pull_back(Finv: np.ndarray, K: np.ndarray) -> np.ndarray:
    """F^-1 K F^-T for a symmetric 2x2 K, entry by entry and exactly symmetric."""
    K = np.asarray(K, dtype=float)
    (a, b), (c, d) = np.moveaxis(Finv, (-2, -1), (0, 1))
    k00, k01, k11 = K[..., 0, 0], K[..., 0, 1], K[..., 1, 1]
    ta0, ta1 = a * k00 + b * k01, a * k01 + b * k11
    tc0, tc1 = c * k00 + d * k01, c * k01 + d * k11
    M = np.empty(np.broadcast_shapes(Finv.shape, K.shape))
    M[..., 0, 0] = ta0 * a + ta1 * b
    M[..., 1, 1] = tc0 * c + tc1 * d
    M[..., 0, 1] = M[..., 1, 0] = ta0 * c + ta1 * d
    return M
