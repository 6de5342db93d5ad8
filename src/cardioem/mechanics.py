"""Active-strain Stokes-like mechanics with Robin boundary conditions.

The displacement block is the elastic form int grad(u) sigma : grad(v) plus
alpha int_{dO} u.v dS, which is coercive on the full H1 vector space; no
pressure gauge is imposed because constants are not in the adjoint kernel of
the divergence under Robin data.  The body force f = div(sigma) + g is never
differentiated: it is assembled by parts as
-int sigma_a : grad(v) + int_{dO} (sigma_a n).v + int g.v, valid for
coefficient fields that are only piecewise smooth.  Only the active part
sigma_a = sigma - mu I enters (`physics.sigma_and_active`), because the
constant mu I has no divergence; so a passive activation (gamma <= 0
everywhere) gives a load of exact zeros and the zero solution, not a
round-off load and a round-off solution.

Two solution modes: a saddle solve of the divergence-free block, and a
pseudo-compressible evolution (eps d/dt u, eps d/dt p added) stepped by
implicit Euler whose fixed point is the saddle solution.  Both go through
`fem.solve_saddle`, which recovers the pressure from its Schur complement
B A^-1 B^T (+ C) by CG, with one sparse LU of the scalar block K serving
both displacement components, and the pressure mass Mp as the
preconditioner.  The constraint B = -div and its transpose are held once,
in `MechStatics`.  Mp is factored on first use (`MechStatics.mass_p_lu`),
not in `mech_statics`, so statics that no solve uses cost no LU.  The
displacement is a component-major 2-vector field over the scalar P2
space, and each of its operators is assembled as the scalar block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU

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
    component_dot,
    edge_quad_geometry,
    edge_rule,
    factor_spd,
    scatter_load,
    solve_saddle,
)
from .mesh import FiberField


@dataclass(frozen=True)
class MechParams:
    """Robin coefficient alpha > 0 and the constant body force (gx, gy).

    The pseudo-compressible stepper takes its regularization parameter as
    an argument (`step_mechanics_regularized`), not from here.
    """

    alpha: float = 1.0
    gx: float = 0.0
    gy: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass
class MechState:
    """Component-major P2 displacement and P1 pressure coefficients."""

    u: np.ndarray
    p: np.ndarray


@dataclass
class MechStatics:
    """Activation-independent operators; `boundary`, `mass_u` are scalar P2 blocks.

    `B` is the constraint -div of every system, `BT` its transpose as CSR.
    """

    boundary: sp.csr_matrix
    B: sp.csr_matrix
    BT: sp.csr_matrix
    mass_u: sp.csr_matrix
    mass_p: sp.csr_matrix

    @cached_property
    def mass_p_lu(self) -> SuperLU:
        """The factored pressure mass, the Schur preconditioner; built on first use."""
        return factor_spd(self.mass_p)


def mech_statics(
    u_space: FeSpace, p_space: FeSpace, alpha: float, mass_p: sp.csr_matrix
) -> MechStatics:
    """The operators of `MechStatics`, given the P1 mass of `p_space`."""
    B = (-assemble_divergence(u_space, p_space)).tocsr()
    return MechStatics(
        boundary=assemble_boundary_mass(u_space, alpha),
        B=B,
        BT=B.T.tocsr(),
        mass_u=assemble_mass(u_space),
        mass_p=mass_p,
    )


@dataclass
class MechSystem:
    """Assembled block: A u + B^T p = f, B u = 0, A = blockdiag(K, K), B = -div."""

    u_space: FeSpace
    K: sp.csr_matrix
    B: sp.csr_matrix
    f: np.ndarray
    statics: MechStatics


def _at_quad(u_space: FeSpace, gamma: np.ndarray, fibers: FiberField):
    """gamma and the fiber frame at the velocity quadrature points.

    gamma holds P1 vertex values; it is interpolated barycentrically at the
    quadrature points of the (possibly higher-order) velocity space.
    """
    gq = gamma[u_space.mesh.triangles] @ np.ascontiguousarray(u_space.quad.points.T)
    return gq, fibers.d_l[:, None, :], fibers.d_t[:, None, :]


def is_passive(gamma: np.ndarray) -> bool:
    """True when the activation leaves the mechanics system passive.

    The activation enters sigma only through its positive part (max(gamma,
    0) in `physics.gamma_kappa`), and every value sigma is evaluated at, at
    a velocity or a boundary-edge quadrature point, is a convex combination
    of vertex values of gamma.  So when every vertex value is <= 0, every
    quadrature value has positive part 0.0: sigma and A are bitwise those
    of any other such gamma, and the load, built from the active part of
    sigma, is exactly zero, so the solution is zero.  A NaN fails the test,
    so a NaN activation is never taken for a passive one.
    """
    return bool(np.all(gamma <= 0.0))


def _active_on_boundary(
    mesh, gamma: np.ndarray, fibers: FiberField, act: physics.ActivationParams
):
    """Active part of sigma at the edge quadrature points of boundary edges.

    Element [1] of `physics.sigma_and_active`, bitwise the active part that
    the interior load takes.
    """
    er = edge_rule()
    s = er.points[:, 0]
    be = mesh.boundary_edges
    gi = gamma[be[:, 0]]
    gj = gamma[be[:, 1]]
    gq = gi[:, None] * (1 - s)[None, :] + gj[:, None] * s[None, :]
    dl = fibers.d_l[be[:, 2]][:, None, :]
    dt_ = fibers.d_t[be[:, 2]][:, None, :]
    return physics.sigma_and_active(gq, dl, dt_, act)[1]


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
        statics = mech_statics(
            u_space, p_space, params.alpha, assemble_mass(p_space)
        )
    sigma, sig_a = physics.sigma_and_active(*_at_quad(u_space, gamma, fibers), act)
    K = assemble_stiffness(u_space, sigma) + statics.boundary

    # the constant part mu I of sigma loads nothing (its divergence is
    # zero), so the weak body force is built from the active part alone:
    # interior -int sigma_a : grad(v), boundary + int_{dO} (sigma_a n) . v
    w = u_space.quad.weights
    ne = len(u_space.conn)
    integ = np.einsum("q,eqcj,eqlj->elc", w, sig_a, u_space.grads, optimize=True)
    integ *= u_space.detJ[:, None, None]
    f = -scatter_load(u_space, integ)

    sig_b = _active_on_boundary(u_space.mesh, gamma, fibers, act)
    _, normals, _ = edge_quad_geometry(u_space.mesh)
    traction = np.einsum("ekij,ej->eki", sig_b, normals)
    f += assemble_boundary_load(u_space, traction)

    if params.gx or params.gy:
        gfield = np.full((ne, len(w), 2), (params.gx, params.gy), dtype=float)
        f += assemble_load(u_space, gfield)

    return MechSystem(u_space, K, statics.B, f, statics)


def solve_mechanics(
    system: MechSystem, tol: float = 1e-10
) -> tuple[MechState, SaddleResult]:
    """Solve the assembled block by CG on its pressure Schur complement."""
    res = solve_saddle(
        system.K, system.B, system.f, system.statics.mass_p_lu.solve, tol=tol,
        BT=system.statics.BT,
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
    saddle solution.  With C = (eps/dt) Mp the Schur block is
    (1 + eps/dt) Mp, applied through the same factor of Mp.
    """
    if epsilon <= 0 or dt <= 0:
        raise ValueError("epsilon and dt must be positive")
    st = system.statics
    r = epsilon / dt
    res = solve_saddle(
        system.K + r * st.mass_u,
        system.B,
        system.f + r * component_dot(st.mass_u, state.u),
        lambda q: st.mass_p_lu.solve(q) / (1.0 + r),
        g=-r * st.mass_p.dot(state.p),
        C=r * st.mass_p,
        tol=tol,
        BT=st.BT,
    )
    return MechState(res.u, res.p), res


def pressure_offset(state: MechState, system: MechSystem) -> float:
    """Integral of the pressure recovered from the momentum identity.

    Tests the solved momentum equation with the divergence-one field
    (x, 0); by the discrete weak form the value equals the mass-weighted
    integral of p whenever (u, p) solve the system.
    """
    vtest = system.u_space.interpolate(lambda x, y: (x, 0.0))
    return float(vtest @ component_dot(system.K, state.u) - vtest @ system.f)


def pressure_integral(state: MechState, system: MechSystem) -> float:
    m = np.asarray(system.statics.mass_p.sum(axis=1)).ravel()
    return float(m @ state.p)
