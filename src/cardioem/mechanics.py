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
round-off load and a round-off solution.  The interior part of that load
is one batched matrix product of the weighted sigma_a with the stored
basis gradients.

Two solution modes: a saddle solve of the divergence-free block, and a
pseudo-compressible evolution (eps d/dt u, eps d/dt p added) stepped by
implicit Euler whose fixed point is the saddle solution.  Both go through
`fem.solve_saddle`, which recovers the pressure from its Schur complement
B A^-1 B^T (+ C) by CG (`fem.solve_cg`), with one sparse LU of the scalar
block K serving both displacement components, and the pressure mass Mp as
the preconditioner.  Mp is a P1 matrix, factored by a banded Cholesky in
the pressure space's vertex order (`fem.FeSpace.factor_banded`) on first
use (`MechStatics.mass_p_lu`), not in `mech_statics`, so statics that no
solve uses cost no factor.  The displacement is a component-major
2-vector field over the scalar P2 space, and each of its operators is
assembled as the scalar block.

K keeps one sparsity pattern, the P2 space's: the stiffness is summed into
it, and the Robin boundary mass is added at slots found once, in
`MechStatics`, so no entry that cancels to zero is pruned.  So K's
fill-reducing ordering, which depends on that pattern alone, is computed
once, with the statics, and every solve runs in that order
(`MechStatics.solve_in_k_order`), with B = -div and B^T held only in it:
the Schur CG uses the raw LU of K and the raw banded solve of Mp and
permutes nothing per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from . import physics
from .fem import (
    BandedCholesky,
    FeSpace,
    SaddleResult,
    SpdOrdering,
    assemble_boundary_mass,
    assemble_divergence,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    component_dot,
    edge_basis,
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
        physics.require_finite(self, "alpha", "gx", "gy")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass
class MechState:
    """Component-major P2 displacement and P1 pressure coefficients."""

    u: np.ndarray
    p: np.ndarray


@dataclass
class MechStatics:
    """Activation-independent operators; `boundary`, `mass_u` are scalar P2 blocks.

    `ordering` is K's fill-reducing ordering (`fem.SpdOrdering`).  The
    saddle solve runs with the u dofs in `u_order` (both components in
    K's order) and the p dofs in `p_order` (Mp's band order), and `B`, the
    constraint -div, and `BT`, its transpose, are held in those orders
    only: B[i, j] is the entry (p_order[i], u_order[j]), each row keeping
    the entry order of the unpermuted -div.
    `boundary_slots` holds the position of each entry of `boundary` in the
    CSR data of the P2 space's pattern, which K is assembled on.
    `edge_s`, `normals` and `edge_basis` (the edge length times the edge
    rule's weight times each P2 trace, (n_boundary_edges, nq_edge, 3))
    serve the load's boundary part.
    """

    boundary: sp.csr_matrix
    boundary_slots: np.ndarray
    B: sp.csr_matrix
    BT: sp.csr_matrix
    mass_u: sp.csr_matrix
    mass_p: sp.csr_matrix
    p_space: FeSpace = field(repr=False)
    ordering: SpdOrdering = field(repr=False)
    u_order: np.ndarray = field(repr=False)
    p_order: np.ndarray = field(repr=False)
    edge_s: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    edge_basis: np.ndarray = field(repr=False)

    @cached_property
    def mass_p_lu(self) -> BandedCholesky:
        """The factored pressure mass, the Schur preconditioner; built on first use."""
        return self.p_space.factor_banded(self.mass_p)

    def unpermuted_B(self) -> sp.csr_matrix:
        """B with rows and columns in the dofs' own order, built on each call."""
        rows = self.B[np.argsort(self.p_order)]
        return sp.csr_matrix(
            (rows.data, self.u_order[rows.indices], rows.indptr), shape=rows.shape
        )

    def solve_in_k_order(self, K, f, schur, tol, g=None, C=None) -> SaddleResult:
        """`fem.solve_saddle` of K (on the P2 pattern), f and g in K's order.

        f, g, u and p are in the dofs' own order, permuted once each way;
        C and `schur` act in `p_order`.
        """
        u_order, p_order = self.u_order, self.p_order
        res = solve_saddle(
            self.ordering.permute(K), self.B, f[u_order], schur,
            g=None if g is None else g[p_order], tol=tol, C=C, BT=self.BT,
            factor=partial(factor_spd, ordered=True),
        )
        u, p = np.empty_like(res.u), np.empty_like(res.p)
        u[u_order], p[p_order] = res.u, res.p
        return res._replace(u=u, p=p)


def mech_statics(
    u_space: FeSpace, p_space: FeSpace, alpha: float, mass_p: sp.csr_matrix
) -> MechStatics:
    """The operators of `MechStatics`, given the P1 mass of `p_space`.

    MMD reads the pattern alone, so K's ordering is that of a diagonally
    dominant matrix on the P2 pattern, and B is built once in its order.
    """
    indptr, indices, _ = u_space.pattern
    n = u_space.n_scalar
    degree = np.diff(indptr)
    rows = np.repeat(np.arange(n), degree)
    ordering = SpdOrdering(sp.csr_matrix(
        (np.where(rows == indices, degree[rows], -1.0), indices, indptr),
        shape=(n, n),
    ))
    u_order = np.concatenate([ordering.q, n + ordering.q])
    p_order = p_space.vertex_order
    # rows gathered into p_order keep their entry order; the columns are
    # renamed to their positions in u_order
    div = (-assemble_divergence(u_space, p_space)).tocsr()[p_order]
    pos = np.empty(2 * n, dtype=np.int32)
    pos[u_order] = np.arange(2 * n)
    B = sp.csr_matrix((div.data, pos[div.indices], div.indptr), shape=div.shape)

    boundary = assemble_boundary_mass(u_space, alpha)
    # the boundary's entries, keyed row * n + col, among the pattern's
    keys = rows * n + indices
    own = np.repeat(np.arange(n), np.diff(boundary.indptr)) * n + boundary.indices
    er = edge_rule()
    _, normals, lengths = edge_quad_geometry(u_space.mesh)
    return MechStatics(
        boundary=boundary,
        boundary_slots=np.searchsorted(keys, own).astype(np.int32),
        B=B,
        BT=B.T.tocsr(),
        mass_u=assemble_mass(u_space),
        mass_p=mass_p,
        p_space=p_space,
        ordering=ordering,
        u_order=u_order,
        p_order=p_order,
        edge_s=er.points[:, 0],
        normals=normals,
        edge_basis=lengths[:, None, None]
        * (er.weights[:, None] * edge_basis(u_space, er.points[:, 0]))[None],
    )


@dataclass
class MechSystem:
    """Assembled block: A u + B^T p = f, B u = 0, A = blockdiag(K, K), B = -div.

    B is rebuilt on each read (`MechStatics.unpermuted_B`).
    """

    u_space: FeSpace
    K: sp.csr_matrix
    f: np.ndarray
    statics: MechStatics

    @property
    def B(self) -> sp.csr_matrix:
        return self.statics.unpermuted_B()


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
    mesh, gamma: np.ndarray, fibers: FiberField, act: physics.ActivationParams,
    s: np.ndarray,
):
    """Active part of sigma at the edge points `s` of the boundary edges.

    Element [1] of `physics.sigma_and_active`, bitwise the active part that
    the interior load takes.
    """
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
    # K on the space's fixed pattern: the boundary mass is added at its
    # slots, so no entry that cancels to zero drops out of the pattern
    K = assemble_stiffness(u_space, sigma)
    K.data[statics.boundary_slots] += statics.boundary.data

    # the constant part mu I of sigma loads nothing (its divergence is
    # zero), so the weak body force is built from the active part alone:
    # interior -int sigma_a : grad(v), boundary + int_{dO} (sigma_a n) . v;
    # the interior integral of component c and basis function l is
    # sum_(q, j) w_q sigma_a[q, c, j] dphi_l/dx_j (q), one batched product
    # over the stored (ne, nq, 2, nloc) gradients, its left factor
    # S[e, c, (q, j)] filled from the entry planes of sigma_a
    w = u_space.quad.weights
    ne, nq, nloc = len(u_space.conn), len(w), u_space.nloc
    planes = np.moveaxis(sig_a, (-2, -1), (0, 1))
    S = np.empty((ne, 2, nq, 2))
    for c in range(2):
        for j in range(2):
            np.multiply(planes[c, j], w, out=S[:, c, :, j])
    G = u_space.grads.transpose(0, 1, 3, 2).reshape(ne, 2 * nq, nloc)
    integ = np.matmul(S.reshape(ne, 2, 2 * nq), G)
    integ *= u_space.detJ[:, None, None]
    f = -scatter_load(u_space, integ.transpose(0, 2, 1))

    sig_b = _active_on_boundary(u_space.mesh, gamma, fibers, act, statics.edge_s)
    traction = np.einsum("ekij,ej->eki", sig_b, statics.normals)
    local = np.einsum("ekl,eki->eli", statics.edge_basis, traction)
    f += scatter_load(u_space, local, u_space.boundary_dofs)

    if params.gx or params.gy:
        gfield = np.full((ne, nq, 2), (params.gx, params.gy), dtype=float)
        f += assemble_load(u_space, gfield)

    return MechSystem(u_space, K, f, statics)


def solve_mechanics(
    system: MechSystem, tol: float = 1e-10
) -> tuple[MechState, SaddleResult]:
    """Solve the assembled block by CG on its pressure Schur complement.

    It runs in K's order (`MechStatics.solve_in_k_order`).
    """
    st = system.statics
    res = st.solve_in_k_order(system.K, system.f, st.mass_p_lu.solve_ordered, tol)
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
    (1 + eps/dt) Mp, applied through the same factor of Mp.  K + (eps/dt)
    Mu is summed on the P2 pattern's data and solved in K's order.
    """
    if epsilon <= 0 or dt <= 0:
        raise ValueError("epsilon and dt must be positive")
    st = system.statics
    r = epsilon / dt
    K = system.K.copy()
    K.data += r * st.mass_u.data
    p_order = st.p_order
    res = st.solve_in_k_order(
        K,
        system.f + r * component_dot(st.mass_u, state.u),
        lambda q: st.mass_p_lu.solve_ordered(q) / (1.0 + r),
        tol,
        g=-r * st.mass_p.dot(state.p),
        C=r * st.mass_p[p_order][:, p_order],
    )
    return MechState(res.u, res.p), res
