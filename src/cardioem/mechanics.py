"""Active-strain Stokes-like mechanics with Robin boundary conditions.

The displacement block is the elastic form int grad(u) sigma : grad(v) plus
alpha int_{dO} u.v dS, which is coercive on the full H1 vector space; no
pressure gauge is imposed because constants are not in the adjoint kernel of
the divergence under Robin data.  The body force f = div(sigma) + g is never
differentiated: it is assembled by parts as
-int sigma : grad(v) + int_{dO} (sigma n).v + int g.v, valid for coefficient
fields that are only piecewise smooth.

Two solution modes: a saddle solve of the incompressible block, and a
pseudo-compressible evolution (eps d/dt u, eps d/dt p added) stepped by
implicit Euler whose fixed point is the saddle solution.  Both go through
`fem.solve_saddle`, one preconditioned MINRES run per system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import physics
from .fem import (
    FeSpace,
    SaddleResult,
    assemble_boundary_load,
    assemble_boundary_mass,
    assemble_divergence,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    edge_quad_geometry,
    edge_rule,
    scatter_load,
    solve_saddle,
)
from .mesh import FiberField


@dataclass(frozen=True)
class MechParams:
    """Robin coefficient, body force, regularization parameter."""

    alpha: float = 1.0
    g: tuple = (0.0, 0.0)
    epsilon: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass
class MechState:
    """P2 vector displacement and P1 pressure coefficients."""

    u: np.ndarray
    p: np.ndarray

    def copy(self) -> "MechState":
        return MechState(self.u.copy(), self.p.copy())


@dataclass
class MechStatics:
    """Activation-independent operators, reusable across refreshes."""

    boundary: sp.csr_matrix
    divergence: sp.csr_matrix
    mass_u: sp.csr_matrix
    mass_p: sp.csr_matrix


def mech_statics(u_space: FeSpace, p_space: FeSpace, alpha: float) -> MechStatics:
    return MechStatics(
        boundary=assemble_boundary_mass(u_space, alpha).tocsr(),
        divergence=assemble_divergence(u_space, p_space).tocsr(),
        mass_u=assemble_mass(u_space),
        mass_p=assemble_mass(p_space),
    )


@dataclass
class MechSystem:
    """Assembled mechanics block: A u + B^T p = f, B u = 0 (B = -div)."""

    u_space: FeSpace
    p_space: FeSpace
    A: sp.csr_matrix
    B: sp.csr_matrix
    f: np.ndarray
    mass_u: sp.csr_matrix = None
    mass_p: sp.csr_matrix = None

    def masses(self):
        if self.mass_u is None:
            self.mass_u = assemble_mass(self.u_space)
        if self.mass_p is None:
            self.mass_p = assemble_mass(self.p_space)
        return self.mass_u, self.mass_p

    def schur_diag(self) -> np.ndarray:
        _, Mp = self.masses()
        return np.asarray(Mp.diagonal(), dtype=float)


def sigma_at_quad(
    u_space: FeSpace,
    gamma: np.ndarray,
    fibers: FiberField,
    act: physics.ActivationParams,
) -> np.ndarray:
    """Elastic coefficient tensor at the velocity quadrature points.

    gamma holds P1 vertex values; it is interpolated barycentrically at the
    quadrature points of the (possibly higher-order) velocity space.
    """
    lam = u_space.quad.points
    gq = np.einsum("qv,ev->eq", lam, gamma[u_space.mesh.triangles])
    dl = fibers.d_l[:, None, :]
    dt_ = fibers.d_t[:, None, :]
    return physics.sigma_tensor(gq, dl, dt_, act)


def is_passive(gamma: np.ndarray) -> bool:
    """True when the activation leaves the mechanics system passive.

    The activation enters sigma only through its positive part (max(gamma,
    0) in `physics.gamma_kappa`), and every value sigma is evaluated at, at
    a velocity or a boundary-edge quadrature point, is a convex combination
    of vertex values of gamma.  So when every vertex value is <= 0, every
    quadrature value has positive part 0.0, and sigma, A and f are bitwise
    those of any other such gamma: one solve serves them all.  A NaN fails
    the test, so a NaN activation is never taken for a passive one.
    """
    return bool(np.all(gamma <= 0.0))


def _sigma_on_boundary(
    mesh, gamma: np.ndarray, fibers: FiberField, act: physics.ActivationParams
):
    """sigma evaluated at edge quadrature points of the boundary edges."""
    er = edge_rule()
    s = er.points[:, 0]
    be = mesh.boundary_edges
    gi = gamma[be[:, 0]]
    gj = gamma[be[:, 1]]
    gq = gi[:, None] * (1 - s)[None, :] + gj[:, None] * s[None, :]
    dl = fibers.d_l[be[:, 2]][:, None, :]
    dt_ = fibers.d_t[be[:, 2]][:, None, :]
    return physics.sigma_tensor(gq, dl, dt_, act)


def assemble_mechanics(
    u_space: FeSpace,
    p_space: FeSpace,
    gamma: np.ndarray,
    fibers: FiberField,
    params: MechParams,
    act: physics.ActivationParams,
    statics: MechStatics | None = None,
) -> MechSystem:
    """Assemble the elastic block, divergence constraint, and weak load.

    Pass a precomputed `statics` when re-assembling for a new activation
    field; only the activation-dependent parts are rebuilt then.
    """
    if statics is None:
        statics = mech_statics(u_space, p_space, params.alpha)
    sigma = sigma_at_quad(u_space, gamma, fibers, act)
    A = assemble_stiffness(u_space, sigma) + statics.boundary
    B = -statics.divergence

    # interior part of the weak body force: -int sigma : grad(v)
    w = u_space.quad.weights
    ne = len(u_space.conn)
    integ = np.stack(
        [np.einsum("q,eqj,eqlj->el", w, sigma[:, :, c, :], u_space.grads)
         for c in range(2)],
        axis=-1,
    )
    integ *= u_space.detJ[:, None, None]
    f = -scatter_load(u_space, integ)

    # boundary part: + int_{dO} (sigma n) . v
    sig_b = _sigma_on_boundary(u_space.mesh, gamma, fibers, act)
    _, normals, _ = edge_quad_geometry(u_space.mesh)
    traction = np.einsum("ekij,ej->eki", sig_b, normals)
    f += assemble_boundary_load(u_space, traction)

    g = np.asarray(params.g, dtype=float)
    if np.any(g != 0.0):
        nq = len(w)
        gfield = np.broadcast_to(g, (ne, nq, 2)).copy()
        f += assemble_load(u_space, gfield)

    return MechSystem(
        u_space, p_space, A.tocsr(), B.tocsr(), f,
        mass_u=statics.mass_u, mass_p=statics.mass_p,
    )


def solve_mechanics(
    system: MechSystem, tol: float = 1e-10
) -> tuple[MechState, SaddleResult]:
    """Solve the assembled block by preconditioned MINRES from zero."""
    res = solve_saddle(
        system.A, system.B, system.f, tol=tol, prec_diag=system.schur_diag()
    )
    return MechState(res.u, res.p), res


def step_mechanics_regularized(
    state: MechState,
    system: MechSystem,
    dt: float,
    epsilon: float,
    tol: float = 1e-10,
) -> tuple[MechState, SaddleResult]:
    """One implicit Euler step of the pseudo-compressible evolution.

    Solves [[A + (eps/dt) Mu, B^T], [B, -(eps/dt) Mp]] acting on the new
    state, with right side (f + (eps/dt) Mu u_old, -(eps/dt) Mp p_old).
    The stationary point of repeated stepping with frozen data is the
    saddle solution.
    """
    if epsilon <= 0 or dt <= 0:
        raise ValueError("epsilon and dt must be positive")
    Mu, Mp = system.masses()
    r = epsilon / dt
    res = solve_saddle(
        (system.A + r * Mu).tocsr(),
        system.B,
        system.f + r * Mu.dot(state.u),
        g=-r * Mp.dot(state.p),
        C=(r * Mp).tocsr(),
        tol=tol,
        prec_diag=system.schur_diag(),
    )
    return MechState(res.u, res.p), res


def pressure_offset(state: MechState, system: MechSystem) -> float:
    """Integral of the pressure recovered from the momentum identity.

    Tests the solved momentum equation with the divergence-one field
    (x, 0); by the discrete weak form the value equals the mass-weighted
    integral of p whenever (u, p) solve the system.
    """
    vtest = system.u_space.interpolate(lambda x, y: (x, 0.0))
    return float(vtest @ system.A.dot(state.u) - vtest @ system.f)


def pressure_integral(state: MechState, system: MechSystem) -> float:
    _, Mp = system.masses()
    m = np.asarray(Mp.sum(axis=1)).ravel()
    return float(m @ state.p)
