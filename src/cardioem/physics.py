"""Pointwise constitutive laws and parameter validators.

Covers the cubic ionic current and linear gating kinetics, the activation
ODE right-hand side, the arctan contraction map, the active-strain elastic
coefficient sigma with its active part (`sigma_and_active`), and the
deformation-dependent conductivity pullback F^-1 K F^-T with its safety
clamps, on the entry arrays of the displacement gradient
(`pull_back_entries(inverse_entries(entries(grad_u), p), K)`).
Everything here is a pure function of its arguments and vectorizes over
numpy arrays.  2x2 tensors are computed entry by entry on contiguous
arrays, and a (..., 2, 2) result is a view of its entry planes
(`entry_tensor`).
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
    (c_l d_l_i) d_l_j + (c_t d_t_i) d_t_j and then times mu, into a
    contiguous plane, and each result is a view of its four entry planes,
    as `entry_tensor` makes them.
    """
    cl, ct = _fiber_stretches(gamma, p)
    shape = np.broadcast_shapes(cl.shape, np.shape(d_l)[:-1], np.shape(d_t)[:-1])
    # each frame component as a contiguous array over all the points
    dl, dt = (
        [np.array(np.broadcast_to(d[..., i], shape)) for i in range(2)]
        for d in (np.asarray(d_l, dtype=float), np.asarray(d_t, dtype=float))
    )
    out = []
    for c_l, c_t in ((cl, ct), (cl - 1.0, ct - 1.0)):
        planes = np.empty((2, 2) + shape)
        for i in range(2):
            cdl, cdt = c_l * dl[i], c_t * dt[i]
            for j in range(2):
                plane = planes[i, j, ...]
                np.multiply(cdl, dl[j], out=plane)
                plane += cdt * dt[j]
        planes *= p.mu
        out.append(np.moveaxis(planes, (0, 1), (-2, -1)))
    return out[0], out[1]


def entries(A) -> tuple:
    """The entries (a00, a01, a10, a11) of a (..., 2, 2) array, contiguous."""
    A = np.asarray(A, dtype=float)
    planes = (A[..., i, j] for i in (0, 1) for j in (0, 1))
    return tuple(a if a.flags.c_contiguous else a.copy() for a in planes)


def entry_tensor(a00, a01, a10, a11) -> np.ndarray:
    """The (..., 2, 2) tensor of four entry arrays, as a view of a (2, 2, ...)
    array, so that each entry stays one contiguous plane."""
    planes = (a00, a01, a10, a11)
    out = np.empty((2, 2) + np.broadcast_shapes(*map(np.shape, planes)))
    out[0, 0], out[0, 1], out[1, 0], out[1, 1] = planes
    return np.moveaxis(out, (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# deformation-dependent conductivities


def clamp_entries(g: tuple, p: ConductivityParams) -> tuple:
    """The displacement gradient of entries (g00, g01, g10, g11), scaled
    into the admissible set.

    First rescales so the Frobenius norm is at most clamp_delta, then (if
    the determinant of I + G still falls below clamp_tau) shrinks further
    by bisection until det(I + s G) >= clamp_tau.  Total: every input maps
    to an admissible gradient; the zero gradient is a fixed point.  The
    scaling and the bisection act only on the points that need them
    (elsewhere they would multiply by 1.0); unclamped inputs are returned.
    """
    g00, g01, g10, g11 = g
    fro = np.sqrt(g00 * g00 + g01 * g01 + g10 * g10 + g11 * g11)
    over = fro > p.clamp_delta
    if np.any(over):
        scale = np.where(over, p.clamp_delta / np.maximum(fro, 1e-300), 1.0)
        g00, g01, g10, g11 = (a * scale for a in (g00, g01, g10, g11))
    trG = g00 + g11
    dG = g00 * g11 - g01 * g10
    bad = 1.0 + trG + dG < p.clamp_tau
    if np.any(bad):
        tb, db = trG[bad], dG[bad]
        lo = np.zeros(tb.shape)
        hi = np.ones(tb.shape)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ok = 1.0 + mid * tb + mid * mid * db >= p.clamp_tau
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        g00, g01, g10, g11 = (np.array(a) for a in (g00, g01, g10, g11))
        for a in (g00, g01, g10, g11):
            a[bad] *= lo
    return g00, g01, g10, g11


def inverse_entries(g: tuple, p: ConductivityParams) -> tuple:
    """The entries of F^-1 for F = I + the clamped gradient of entries `g`."""
    g00, g01, g10, g11 = clamp_entries(g, p)
    f00 = g00 + 1.0
    f11 = g11 + 1.0
    det = f00 * f11 - g01 * g10
    return f11 / det, -g01 / det, -g10 / det, f00 / det


def pull_back_entries(finv: tuple, K: np.ndarray) -> tuple:
    """The entries (m00, m01, m11) of F^-1 K F^-T, from those of F^-1."""
    a, b, c, d = finv
    K = np.asarray(K, dtype=float)
    k00, k01, k11 = K[..., 0, 0], K[..., 0, 1], K[..., 1, 1]
    ta0, ta1 = a * k00 + b * k01, a * k01 + b * k11
    tc0, tc1 = c * k00 + d * k01, c * k01 + d * k11
    return ta0 * a + ta1 * b, ta0 * c + ta1 * d, tc0 * c + tc1 * d
