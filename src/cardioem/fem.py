"""Reference elements, quadrature, operator assembly, and Krylov solvers.

Scalar Lagrange spaces of degree 1 and 2 over a TriMesh.  P1 numbers its
dofs as the mesh numbers its vertices; P2 numbers its vertex and
edge-midpoint dofs in their sweep order (`sweep`), the band order of its
matrices.  A 2-vector field is a component-major array of length
2 * n_scalar over a scalar space, dof(c, s) = c * n_scalar + s; the field
routines read the component count from the shape of the array or of the
function's value.
All bilinear forms are assembled with the same degree-4 symmetric triangle
rule (exact for every product appearing in the P2/P1 pair with affine
coefficients); boundary terms use a 3-point Gauss rule on edges.

Matrices are scipy CSR with sorted, duplicate-free structure.  Each space
builds its sparsity pattern once, on first use: the CSR `indptr` and
`indices` of its dof graph and a slot map from every local element entry
(e, l, m) to its position in the CSR data.  A square form is then one dense
element kernel (batched matrix products over the quadrature points) and one
`np.bincount` of the element matrices into that fixed pattern.  Load
vectors are summed by `np.bincount` over the element or boundary-edge dofs,
which each space also precomputes, one component at a time.  The divergence
(rectangular) and the boundary mass (nonzero on boundary dofs only), each
assembled once per run, are summed through COO instead.

There are two solvers.  `solve_cg` is a conjugate gradient on a
subspace, started from zero, with a caller-supplied projector and
preconditioner (the electric step passes the zero-mean projector and an
exact solve of its bidomain block by factors of P1 matrices, or, for its
scalar source-free form, no projection and the factor of that scalar
system).  `solve_saddle` solves the block [[A, B^T], [B, -C]] through its
pressure Schur complement S = B A^-1 B^T + C: `solve_cg` on S, with no
projection, preconditioned by a caller-supplied approximation of S^-1 (in
practice a factored pressure mass), with A = blockdiag(K, K) inverted by
one factor of K applied to both components of u at once.  It works in the
order its operators are given in, the spaces' own.

Every SPD matrix (the bidomain systems, the pressure mass, the P2 block K)
is factored by `FeSpace.factor_banded`: a banded Cholesky factor (LAPACK
dpbtrf, solved by dpbtrs) in the space's `dof_order`, a sweep of the dof
coordinates (the vertices, and for P2 also the edge midpoints) along the
longer side of the mesh, which keeps the band about one cross-section of
dofs wide.  A matrix over several fields keeps each dof's fields side by
side, so the band of the bidomain 2n block is about twice the scalar one.
The map from a CSR pattern into the band storage is kept per matrix order
(`BandLayout`).  A factor whose order is the identity (every P2 matrix,
and every P1 matrix of one field on `structured_unit_square`) solves with
no gather or scatter.  Band work grows as n kd^2 (George & Liu, Computer
Solution of Large Sparse Positive Definite Systems, 1981): on the unit
square the P2 sweep gives K the band 4 nx + 4, and the work of
a refresh, one factor of K and 16 two-column solves, took less than a
sparse LU in minimum-degree order at 12^2 and 22^2 (0.87 against 1.63
ms, 6.05 against 7.54 ms, one BLAS thread) but 1.2 and 1.5 times as
long at 32^2 and 44^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .mesh import TriMesh


class NonSpdCoefficientError(ValueError):
    """Coefficient tensor not symmetric positive definite on some element."""


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Points (barycentric) and weights on the reference triangle or edge."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def triangle_rule() -> QuadratureRule:
    """Symmetric 6-point rule, exact for polynomials up to degree 4.

    Weights sum to 1/2, the reference-triangle measure.
    """
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = np.array(
        [
            [1 - 2 * a1, a1, a1],
            [a1, 1 - 2 * a1, a1],
            [a1, a1, 1 - 2 * a1],
            [1 - 2 * a2, a2, a2],
            [a2, 1 - 2 * a2, a2],
            [a2, a2, 1 - 2 * a2],
        ]
    )
    wts = 0.5 * np.array([w1, w1, w1, w2, w2, w2])
    return QuadratureRule(pts, wts, 4)


def edge_rule() -> QuadratureRule:
    """3-point Gauss rule on the unit interval (exact to degree 5)."""
    s = np.sqrt(0.6)
    pts = 0.5 * (1.0 + np.array([-s, 0.0, s]))
    wts = np.array([5.0, 8.0, 5.0]) / 18.0
    return QuadratureRule(pts.reshape(-1, 1), wts, 5)


# ---------------------------------------------------------------------------
# functions of (x, y)


def evaluate_at(fn: Callable, pts: np.ndarray) -> np.ndarray:
    """Values of fn(x, y) at an (..., 2) array of points, (ncomp, ...).

    fn is called once, on the arrays of all x and all y, and must act
    elementwise.  A vector-valued fn returns a tuple or list of
    components, or an array with one row per component; a constant
    component is broadcast over the points.  A scalar fn gives ncomp = 1.
    """
    x, y = pts[..., 0], pts[..., 1]
    vals = fn(x, y)
    if not (isinstance(vals, (tuple, list)) or np.ndim(vals) == x.ndim + 1):
        vals = [vals]
    return np.stack(
        [np.broadcast_to(np.asarray(c, dtype=float), x.shape) for c in vals]
    )


# ---------------------------------------------------------------------------
# reference bases


def _p1_values(lam: np.ndarray) -> np.ndarray:
    return lam.copy()


_P1_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _p2_values(lam: np.ndarray) -> np.ndarray:
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.column_stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l2 * l0,
        ]
    )


def _p2_ref_grads(lam: np.ndarray) -> np.ndarray:
    # gradients w.r.t. (xi, eta) with lam = (1 - xi - eta, xi, eta)
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    g = np.zeros((len(lam), 6, 2))
    d0 = np.array([-1.0, -1.0])
    d1 = np.array([1.0, 0.0])
    d2 = np.array([0.0, 1.0])
    g[:, 0] = (4 * l0 - 1)[:, None] * d0
    g[:, 1] = (4 * l1 - 1)[:, None] * d1
    g[:, 2] = (4 * l2 - 1)[:, None] * d2
    g[:, 3] = 4 * (l1[:, None] * d0 + l0[:, None] * d1)
    g[:, 4] = 4 * (l2[:, None] * d1 + l1[:, None] * d2)
    g[:, 5] = 4 * (l0[:, None] * d2 + l2[:, None] * d0)
    return g


# local edge order inside a triangle: (0,1), (1,2), (2,0)
_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


# ---------------------------------------------------------------------------
# finite element spaces


def sweep(points: np.ndarray) -> np.ndarray:
    """The (n, 2) points swept along the longer side of their bounding box.

    Sorted by the coordinate along the longer side (y on a square), ties
    by the other one, so the order depends on the coordinates alone, not
    on how the points are numbered.  On a mesh of straight rows across the
    sweep, an edge joins vertices at most one row apart, so a matrix over
    the points in this order has a band about one row wide.  This is the
    one place a dof order is decided: P1 factors its matrices in it
    (`FeSpace.dof_order`), and P2 numbers its dofs by it.
    """
    x, y = points.T
    along, across = (x, y) if np.ptp(x) > np.ptp(y) else (y, x)
    return np.lexsort((across, along))


class FeSpace:
    """Scalar Lagrange space of degree 1 or 2.

    P1 dofs are the vertices, in the mesh's numbering.  P2 has a node at
    each vertex and at each undirected edge's midpoint, and numbers its
    dofs in the sweep of those points (`sweep`), so every P2 matrix is
    assembled in its band order; `node_dofs` maps the nodes, the vertices
    and then the edges in `edge_keys` order, to their dofs.  A 2-vector
    field over the space is a component-major array of length 2 * n_scalar.
    Element geometry (Jacobians, physical quadrature points, physical basis
    gradients) is precomputed once; the sparsity pattern and the
    boundary-edge dofs are built on first use.  `grads` has the shape
    (ne, nq, nloc, 2) on both degrees, but P1 gradients are constant on
    each triangle, so a P1 space holds them once per element and `grads` is
    a read-only view that broadcasts them over the quadrature points
    (stride 0 on that axis).
    """

    def __init__(self, mesh: TriMesh, degree: int = 1):
        if degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        self.mesh = mesh
        self.degree = degree
        self.quad = triangle_rule()

        tris = mesh.triangles
        nv = mesh.num_vertices
        if degree == 1:
            self.n_scalar = nv
            self.conn = tris.copy()
            self._points = mesh.vertices
        else:
            # the key i * nv + j of each local edge's sorted vertex pair;
            # the edges are numbered in ascending key order, which is the
            # lexicographic order of mesh.edges(), so np.searchsorted on
            # the sorted `edge_keys` finds an edge's number
            pairs = tris[:, _LOCAL_EDGES]
            keys = (pairs.min(axis=2) * nv + pairs.max(axis=2)).ravel()
            self.edge_keys, edge_of = np.unique(keys, return_inverse=True)
            # the nodes, the vertices and then the edges, take their dof
            # numbers in the sweep of their points
            i, j = np.divmod(self.edge_keys, nv)
            v = mesh.vertices
            nodes = np.vstack([v, 0.5 * (v[i] + v[j])])
            order = sweep(nodes)
            self.n_scalar = len(nodes)
            self.node_dofs = np.empty_like(order)
            self.node_dofs[order] = np.arange(self.n_scalar)
            self._points = nodes[order]
            nodes_of = np.hstack([tris, nv + edge_of.reshape(-1, 3)])
            self.conn = self.node_dofs[nodes_of]
        self.nloc = self.conn.shape[1]

        lam = self.quad.points
        if degree == 1:
            self.basis_vals = _p1_values(lam)
            ref_grads = _P1_REF_GRADS[None]
        else:
            self.basis_vals = _p2_values(lam)
            ref_grads = _p2_ref_grads(lam)

        p = mesh.vertices[tris]
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        self.detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJ = np.empty_like(J)
        invJ[:, 0, 0] = J[:, 1, 1]
        invJ[:, 0, 1] = -J[:, 0, 1]
        invJ[:, 1, 0] = -J[:, 1, 0]
        invJ[:, 1, 1] = J[:, 0, 0]
        invJ /= self.detJ[:, None, None]
        self.invJT = np.transpose(invJ, (0, 2, 1))
        # physical gradients: (ne, nq, nloc, 2), stored as (ne, nq, 2, nloc)
        # so that the stiffness kernel can contract over (q, component);
        # P1 gradients are constant on each element, so P1 stores
        # (ne, 1, 2, nloc) and broadcasts it over the quadrature points
        iJ = self.invJT[:, None, :, None, :]
        rg = ref_grads[None, :, None, :, :]
        self.grads = np.broadcast_to(
            (iJ[..., 0] * rg[..., 0] + iJ[..., 1] * rg[..., 1]).transpose(0, 1, 3, 2),
            (len(tris), len(lam), self.nloc, 2),
        )
        # physical quadrature points: (ne, nq, 2)
        self.qpoints = np.einsum("qv,evx->eqx", lam, p)
        # `factor_banded`'s band maps, by matrix order
        self.band_layouts: dict[int, BandLayout] = {}

    # --- field evaluation helpers -------------------------------------

    def scalar_at_qp(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of a scalar field at the quadrature points, (ne, nq).

        One gather of the element coefficients and one BLAS product with
        the basis values, a new array that the caller may overwrite.  The
        (nloc, nq) basis is copied C-contiguous: numpy's product over the
        transposed view takes about twice as long.
        """
        return coeffs[self.conn] @ np.ascontiguousarray(self.basis_vals.T)

    def vector_grad_at_qp(self, coeffs: np.ndarray) -> np.ndarray:
        """Gradient du_a/dx_b of a 2-vector field at quad points, (ne, nq, 2, 2).

        One batched product of the stored (ne, nq, 2, nloc) gradients with
        the (ne, nloc, 2) element coefficients of both components; the
        result is a view of its (ne, nq, b, a) product.
        """
        ne, nq = len(self.conn), len(self.quad.weights)
        U = coeffs.reshape(2, self.n_scalar).T[self.conn]
        G = self.grads.transpose(0, 1, 3, 2).reshape(ne, 2 * nq, self.nloc)
        return np.matmul(G, U).reshape(ne, nq, 2, 2).transpose(0, 1, 3, 2)

    @property
    def dof_points(self) -> np.ndarray:
        """The (n_scalar, 2) dof coordinates, in dof order: the vertices for
        P1; for P2 the vertices and edge midpoints in their sweep order.
        The array is the space's own; do not write to it."""
        return self._points

    def interpolate(self, fn: Callable) -> np.ndarray:
        """Nodal interpolant of fn(x, y), component-major if fn is vector-valued.

        fn is called once, on the arrays of all node coordinates, as
        `evaluate_at` describes.
        """
        return evaluate_at(fn, self.dof_points).ravel()

    # --- assembly structure, built on first use ------------------------

    @cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR (indptr, indices) and the int32 slot of each (e, l, m).

        slot[e * nloc**2 + l * nloc + m] is the position in the CSR data of
        the entry (conn[e, l], conn[e, m]).
        """
        n = self.n_scalar
        # int32 keys, while n^2 fits, sort in half the memory of int64 ones
        conn = self.conn.astype(np.int32) if n * n < 2**31 else self.conn
        rows = np.repeat(conn, self.nloc, axis=1).ravel()
        cols = np.tile(conn, (1, self.nloc)).ravel()
        keys, slot = np.unique(rows * n + cols, return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        indices = (keys % n).astype(np.int32)
        return indptr, indices, slot.astype(np.int32).ravel()

    @cached_property
    def dof_order(self) -> np.ndarray:
        """The band order of the dofs, `sweep` of `dof_points`.

        P2 dofs are numbered in it, so for P2 it is the identity.  On
        `structured_unit_square` the P1 order is the identity too, the
        mesh's row-by-row numbering, whose bandwidth is nx + 2.  P2 adds a
        row of edge midpoints between two vertex rows, and a triangle's
        dofs span three such rows, so its band on that square is 4 nx + 4.
        Rows that are not straight mix in the sweep, which can double it.
        """
        return sweep(self.dof_points)

    def factor_banded(self, A: sp.csr_matrix) -> "BandedCholesky":
        """Banded Cholesky factor of an SPD matrix over this space's dofs.

        A is of order k n over k component-major copies of the n scalar
        dofs, dof (c, s) = c n + s, or of order k n - 1 when the last dof
        is grounded (dropped).  It is factored in `dof_order` with the k
        fields of a dof side by side, so a block of k fields has about k
        times the scalar bandwidth, not n.  The band map of each order is
        kept (`BandLayout`) and reused while the CSR pattern is the same.
        A matrix that is not positive definite raises `LinAlgError`.
        """
        size, n = A.shape[0], self.n_scalar
        layout = self.band_layouts.get(size)
        if layout is None or not layout.matches(A):
            k = -(-size // n)  # the fields, for size k n or k n - 1
            q = (self.dof_order[:, None] + n * np.arange(k)).ravel()
            layout = self.band_layouts[size] = BandLayout(A, q[q < size])
        return layout.factor(A)

    @cached_property
    def boundary_dofs(self) -> np.ndarray:
        """Dofs (i, j[, midside]) of each edge of mesh.boundary_edges."""
        ij = self.mesh.boundary_edges[:, :2]
        if self.degree == 1:
            return ij
        nv = self.mesh.num_vertices
        keys = ij.min(axis=1) * nv + ij.max(axis=1)
        mids = nv + np.searchsorted(self.edge_keys, keys)
        return self.node_dofs[np.column_stack([ij, mids])]


# ---------------------------------------------------------------------------
# assembly


def _accumulate(space_rows, space_cols, rows, cols, data) -> sp.csr_matrix:
    mat = sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())),
        shape=(space_rows, space_cols),
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _scatter(space: FeSpace, local: np.ndarray) -> sp.csr_matrix:
    """Sum element matrices (ne, nloc, nloc) into the space's pattern."""
    indptr, indices, slot = space.pattern
    data = np.bincount(slot, weights=local.ravel(), minlength=len(indices))
    n = space.n_scalar
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def scatter_load(space: FeSpace, local: np.ndarray, dofs=None) -> np.ndarray:
    """Sum per-cell vectors into a dof vector over the space.

    `local` is (ncell, nd) for a scalar field or (ncell, nd, 2) for a
    2-vector one, indexed by the dofs `dofs` (ncell, nd), which default to
    the element connectivity.  A vector result is component-major.
    """
    dofs = space.conn if dofs is None else dofs
    idx = dofs.ravel()
    comps = [local] if local.ndim == dofs.ndim else np.moveaxis(local, -1, 0)
    return np.concatenate(
        [np.bincount(idx, weights=c.ravel(), minlength=space.n_scalar) for c in comps]
    )


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """L2 mass matrix; symmetric positive definite, entries sum to |O|."""
    w = space.quad.weights
    vals = space.basis_vals
    base = np.einsum("q,ql,qm->lm", w, vals, vals)
    local = space.detJ[:, None, None] * base[None]
    return _scatter(space, local)


def _coeff_array(space: FeSpace, coeff) -> np.ndarray:
    """The coefficient at every quadrature point, checked SPD."""
    ne, nq = len(space.conn), len(space.quad.weights)
    c = np.eye(2) if coeff is None else np.asarray(coeff, dtype=float)
    if c.shape not in ((2, 2), (ne, nq, 2, 2)):
        raise ValueError(f"bad coefficient shape {c.shape}")
    # a constant tensor is checked once and stays one 2x2, viewed at every
    # quadrature point
    _check_spd(c)
    return np.broadcast_to(c, (ne, nq, 2, 2))


def _check_spd(c: np.ndarray):
    """Raise unless c, one 2x2 or (ne, nq, 2, 2), is SPD at every point.

    The message names the first bad element; a constant tensor names
    element 0.
    """
    asym = np.abs(c[..., 0, 1] - c[..., 1, 0])
    scale = np.abs(c).max() + 1e-300
    tr = c[..., 0, 0] + c[..., 1, 1]
    det = c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]
    bad = np.atleast_2d((asym > 1e-10 * scale) | (tr <= 0) | (det <= 0))
    if np.any(bad):
        e = int(np.argwhere(bad.any(axis=1))[0][0])
        raise NonSpdCoefficientError(
            f"coefficient tensor not SPD on element {e}"
        )


def _stiffness_kernel(space: FeSpace, c: np.ndarray) -> np.ndarray:
    """Element matrices (ne, nloc, nloc) of grad(u) . C grad(v)."""
    wdet = space.quad.weights[None, :] * space.detJ[:, None]
    # G[e, q] is the (2, nloc) gradient matrix of the element basis at q
    G = space.grads.transpose(0, 1, 3, 2)
    ne, nq, _, nloc = G.shape
    if space.degree == 1:
        # gradients are constant on each element: integrate C first, all
        # four entries as (ne, nq) planes, one point at a time, so that a
        # constant C broadcast over the points sums as a per-point array
        # does; then G0^T Cbar G0
        wc = np.moveaxis(c, (-2, -1), (0, 1)) * wdet
        cbar = wc[..., 0]
        for q in range(1, nq):
            cbar = cbar + wc[..., q]
        G0 = G[:, 0]
        cbar = np.ascontiguousarray(np.moveaxis(cbar, -1, 0))
        return np.matmul(G0.transpose(0, 2, 1), np.matmul(cbar, G0))
    # sum_q G_q^T (w_q detJ C_q) G_q, as one product over the pairs (q, i)
    CG = np.matmul(c * wdet[:, :, None, None], G).reshape(ne, 2 * nq, nloc)
    return np.matmul(G.reshape(ne, 2 * nq, nloc).transpose(0, 2, 1), CG)


def assemble_stiffness(space: FeSpace, coeff=None) -> sp.csr_matrix:
    """Weighted stiffness matrix K for the form grad(u) . C grad(v).

    `coeff` may be None (identity), a single 2x2 tensor, or a per-quad-point
    (ne, nq, 2, 2) array; it must be symmetric positive definite at every
    quadrature point.  The form (grad u) C : (grad v) of a 2-vector field
    decouples per component into blockdiag(K, K).
    """
    c = _coeff_array(space, coeff)
    local = _stiffness_kernel(space, c)
    return _scatter(space, local)


def edge_basis(space: FeSpace, s: np.ndarray):
    """Trace of the element basis on an edge param by s in [0, 1].

    Returns values (nq, n_edge_dofs) in the order of `space.boundary_dofs`:
    the two endpoints, and for P2 also the midside node.
    """
    if space.degree == 1:
        return np.column_stack([1 - s, s])
    return np.column_stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)])


def assemble_boundary_mass(space: FeSpace, alpha: float = 1.0) -> sp.csr_matrix:
    """Robin boundary form alpha * int_{dO} u v dS."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    er = edge_rule()
    vals = edge_basis(space, er.points[:, 0])
    base = np.einsum("q,ql,qm->lm", er.weights, vals, vals)
    dofs = space.boundary_dofs
    nd = dofs.shape[1]
    local = (alpha * space.mesh.boundary_lengths())[:, None, None] * base[None]
    rows = np.repeat(dofs, nd, axis=1)
    cols = np.tile(dofs, (1, nd))
    return _accumulate(space.n_scalar, space.n_scalar, rows, cols, local)


def assemble_divergence(vel_space: FeSpace, p_space: FeSpace) -> sp.csr_matrix:
    """Matrix D with (D u)_r = int psi_r (div u) dx for a 2-vector u.

    Rows are pressure dofs, columns the component-major dofs of u over
    `vel_space`.
    """
    if vel_space.mesh is not p_space.mesh:
        raise ValueError("spaces must share a mesh")
    w = vel_space.quad.weights
    pvals = p_space.basis_vals
    # (e, r, l, c) = detJ * sum_q w_q psi_r(q) dphi_l/dx_c (q)
    local = np.einsum("q,qr,eqlc->erlc", w, pvals, vel_space.grads)
    local *= vel_space.detJ[:, None, None, None]

    ne, n = len(vel_space.conn), vel_space.n_scalar
    nr, nl = p_space.nloc, vel_space.nloc
    rows = np.broadcast_to(
        p_space.conn[:, :, None, None], (ne, nr, nl, 2)
    )
    cols = np.empty((ne, nr, nl, 2), dtype=np.int64)
    for c in range(2):
        cols[:, :, :, c] = c * n + vel_space.conn[:, None, :]
    return _accumulate(p_space.n_scalar, 2 * n, rows, cols, local)


def assemble_load(space: FeSpace, integrand) -> np.ndarray:
    """Load vector F_i = int f phi_i dx.

    `integrand` is a callable f(x, y), called once on the arrays of all
    quadrature points (`evaluate_at`), or a per-quad-point array, (ne, nq)
    for a scalar f or (ne, nq, 2) for a 2-vector one, whose load is
    component-major.
    """
    if callable(integrand):
        vals = evaluate_at(integrand, space.qpoints)
        f = vals[0] if len(vals) == 1 else np.stack(vals, axis=-1)
    else:
        f = np.asarray(integrand, dtype=float)

    w = space.quad.weights
    local = np.einsum("q,eq...,ql->el...", w, f, space.basis_vals)
    local *= space.detJ.reshape((-1,) + (1,) * (local.ndim - 1))
    return scatter_load(space, local)


def assemble_boundary_load(space: FeSpace, values) -> np.ndarray:
    """Boundary load int_{dO} g . v dS for per-edge-quad-point values.

    `values` is (n_boundary_edges, nq_edge) for a scalar g or
    (n_boundary_edges, nq_edge, 2) for a 2-vector one, ordered like
    mesh.boundary_edges and the edge rule.
    """
    er = edge_rule()
    vals = edge_basis(space, er.points[:, 0])
    g = np.asarray(values, dtype=float)
    local = np.einsum("q,kq...,ql->kl...", er.weights, g, vals)
    lengths = space.mesh.boundary_lengths()
    local *= lengths.reshape((-1,) + (1,) * (local.ndim - 1))
    return scatter_load(space, local, space.boundary_dofs)


def edge_quad_geometry(mesh: TriMesh):
    """Physical quad points, outward normals, lengths per boundary edge."""
    er = edge_rule()
    s = er.points[:, 0]
    be = mesh.boundary_edges
    pi = mesh.vertices[be[:, 0]]
    pj = mesh.vertices[be[:, 1]]
    tangent = pj - pi
    lengths = np.linalg.norm(tangent, axis=1)
    normals = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / lengths[:, None]
    pts = pi[:, None, :] + s[None, :, None] * tangent[:, None, :]
    return pts, normals, lengths


# ---------------------------------------------------------------------------
# error norms


def l2_error(space: FeSpace, coeffs: np.ndarray, exact: Callable) -> float:
    """Quadrature L2 distance between a discrete field and exact(x, y).

    `exact` is called once on the arrays of all quadrature points
    (`evaluate_at`); a vector-valued one is compared with the
    component-major `coeffs`.
    """
    w = space.quad.weights
    ex = evaluate_at(exact, space.qpoints)
    err2 = 0.0
    for comp, ex_c in zip(coeffs.reshape(len(ex), -1), ex):
        d = space.scalar_at_qp(comp)
        d -= ex_c
        d *= d
        err2 += (d @ w) @ space.detJ
    return np.sqrt(err2)


def l4_norm(space: FeSpace, coeffs: np.ndarray) -> float:
    """Quadrature L4 norm of a discrete scalar field."""
    u4 = space.scalar_at_qp(coeffs)
    u4 *= u4  # squared twice in place, not **4: pow is slow on negative bases
    u4 *= u4
    return float((u4 @ space.quad.weights) @ space.detJ) ** 0.25


# ---------------------------------------------------------------------------
# solvers


class CgResult(NamedTuple):
    x: np.ndarray
    converged: bool
    iterations: int
    relres: float


def solve_cg(
    A,
    b: np.ndarray,
    constraint: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    maxit: int | None = None,
) -> CgResult:
    """Projected, preconditioned conjugate gradients, started from zero.

    `constraint` is an orthogonal projector P onto a subspace that returns
    a new array; the method solves P A P x = P b with every iterate kept
    inside the subspace, which removes a known semidefinite kernel of A.
    From zero the first residual is P b, taken without a product with A.
    `precondition` must be symmetric positive definite on the subspace and
    map into it, i.e. P(precondition(r)) == precondition(r) for every
    residual r = P r, since its output becomes a search direction.
    Non-convergence (after `maxit` iterations, default 10 n, or on a search
    direction with d.Ad <= 0) returns the iterate with the lowest recursive
    residual seen, with converged=False.
    """
    n = len(b)
    if maxit is None:
        maxit = 10 * n
    matvec = A.dot if hasattr(A, "dot") else A

    x, r = np.zeros(n), constraint(np.asarray(b, dtype=float))
    bnorm = math.sqrt(float(r @ r))
    if bnorm == 0.0:
        return CgResult(x, True, 0, 0.0)
    best_x, best_relres = x.copy(), 1.0
    d = z = precondition(r)
    rz = float(r @ z)
    for it in range(1, maxit + 1):
        q = constraint(matvec(d))
        dq = float(d @ q)
        if dq <= 0.0:
            # indefinite or fully converged direction; stop with best iterate
            return CgResult(best_x, False, it - 1, best_relres)
        a = rz / dq
        x += a * d
        r -= a * q
        relres = math.sqrt(float(r @ r)) / bnorm
        if relres <= tol:
            return CgResult(x, True, it, relres)
        if relres < best_relres:
            best_x, best_relres = x.copy(), relres
        z = precondition(r)
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return CgResult(best_x, False, maxit, best_relres)


class SaddleResult(NamedTuple):
    u: np.ndarray
    p: np.ndarray
    converged: bool
    iterations: int
    res_primal: float
    res_constraint: float


class BandedCholesky(NamedTuple):
    """U^T U = A[q][:, q], U in LAPACK upper band storage (`ab`, Fortran
    order); q is None when the order is the identity.  `solve` takes and
    returns A's own order."""

    ab: np.ndarray
    q: np.ndarray | None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for b of shape (n,) or (n, k); a new array.

        In the identity order b goes to `dpbtrs` as it is, with no gather
        or scatter, and `dpbtrs` solves a copy of it.
        """
        b = np.asarray(b)
        if self.q is None:
            return dpbtrs(self.ab, b.reshape(len(b), -1))[0].reshape(b.shape)
        y, _ = dpbtrs(self.ab, b[self.q].reshape(len(self.q), -1), overwrite_b=1)
        x = np.empty_like(y)
        x[self.q] = y
        return x.reshape(b.shape)


class BandLayout:
    """Where a symmetric CSR pattern's upper band lies in LAPACK band storage.

    For the order q (A[q][:, q] is factored), `take` lists the CSR slots
    of the entries on or above the diagonal of the permuted matrix and
    `slot` their flat positions in the (kd + 1, n) Fortran-order band
    array, whose row kd + i - j holds entry (i, j), i <= j.  So `factor`
    fills the band by one gather and one scatter of A's data, with no
    index work per matrix.  The pattern is kept, for `matches`.
    """

    def __init__(self, A: sp.csr_matrix, q: np.ndarray):
        n = len(q)
        pos = np.empty(n, dtype=np.int64)
        pos[q] = np.arange(n)
        r = pos[np.repeat(np.arange(n), np.diff(A.indptr))]
        c = pos[A.indices]
        upper = np.flatnonzero(r <= c)
        r, c = r[upper], c[upper]
        self.kd = int((c - r).max())
        self.take = upper.astype(np.int32)
        self.slot = self.kd * (c + 1) + r  # (kd + r - c) + (kd + 1) c
        self.q = q
        self.identity = bool(np.all(pos == np.arange(n)))
        self.indptr, self.indices = A.indptr.copy(), A.indices.copy()

    def matches(self, A: sp.csr_matrix) -> bool:
        """True when A has the CSR pattern this layout was built from."""
        return np.array_equal(A.indptr, self.indptr) and np.array_equal(
            A.indices, self.indices
        )

    def factor(self, A: sp.csr_matrix) -> BandedCholesky:
        """`dpbtrf` of A[q][:, q]; a matrix that is not positive definite raises.

        A NaN entry can pass the factorization, so its solves return NaN:
        callers check their residuals.
        """
        n, kd = len(self.q), self.kd
        band = np.zeros(n * (kd + 1))
        band[self.slot] = A.data[self.take]
        ab, info = dpbtrf(band.reshape(n, kd + 1).T, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"the matrix of order {n} is not positive definite "
                f"(dpbtrf info {info})"
            )
        return BandedCholesky(ab, None if self.identity else self.q)


def component_dot(K, u: np.ndarray) -> np.ndarray:
    """blockdiag(K, K) u for a component-major vector u."""
    return np.concatenate([K.dot(c) for c in u.reshape(2, -1)])


def solve_saddle(
    K,
    B,
    f: np.ndarray,
    schur: Callable[[np.ndarray], np.ndarray],
    factor: Callable[[], Callable[[np.ndarray], np.ndarray]],
    g: np.ndarray | None = None,
    tol: float = 1e-10,
    C=None,
    BT=None,
) -> SaddleResult:
    """Solve the block system [[A, B^T], [B, -C]] (u, p) = (f, g).

    A = blockdiag(K, K) acts on the two components of u, K is symmetric
    positive definite and C (optional) symmetric positive semidefinite.
    Eliminating u leaves the pressure Schur complement system

        S p = B A^-1 f - g,    S = B A^-1 B^T + C,

    which is symmetric positive definite for an inf-sup stable pair; it is
    solved by preconditioned CG from zero, and then u = A^-1 (f - B^T p).
    A^-1 is one factor of K, applied to both components at once.
    `schur` applies the preconditioner, an approximation of S^-1: the
    pressure mass Mp is spectrally equivalent to B A^-1 B^T, so a factored
    Mp, scaled when C is a multiple of it, keeps the iteration count flat
    under refinement.  The CG (`solve_cg`, no projection) stops at a
    relative recursive residual 0.1 * tol; if the true residuals then
    miss, one more pass solves for the correction.
    `BT` is B^T as CSR, for a caller that holds it; else it is formed here.
    `factor()` factors K and returns its solve, which maps an (n, 2) array
    of two columns to K^-1 of them, in practice
    `FeSpace.factor_banded(K).solve`.  Every operator, f, g and the
    returned u and p are in the spaces' own dof orders; the P2 space
    numbers its dofs in K's band order, so K's solve permutes nothing.
    When f and g are exactly zero the solution is zero, returned
    without calling `factor`.  A K that the factor refuses (`LinAlgError`,
    not positive definite) gives a result with converged=False, NaN u and
    p and infinite residuals.

    `converged` is decided on the true residuals of both block rows,
    relative to |f| and to max(|g|, |u|), each within 10 * tol;
    `iterations` counts the CG iterations of every pass.
    """
    np_, nu = B.shape
    if g is None:
        g = np.zeros(np_)
    if not (np.any(f) or np.any(g)):
        return SaddleResult(np.zeros(nu), np.zeros(np_), True, 0, 0.0, 0.0)
    try:
        solve_k = factor()
    except np.linalg.LinAlgError:
        return SaddleResult(
            np.full(nu, np.nan), np.full(np_, np.nan), False, 0, math.inf, math.inf
        )
    if BT is None:
        BT = B.T.tocsr()

    Cdot = (lambda q: C.dot(q)) if C is not None else (lambda q: 0.0)

    def solve_a(v):
        return solve_k(v.reshape(2, -1).T).T.ravel()

    def schur_dot(q):
        return B.dot(solve_a(BT.dot(q))) + Cdot(q)

    iterations = 0
    fscale = max(np.linalg.norm(f), 1e-300)
    u, p = np.zeros(nu), np.zeros(np_)
    r_u, r_p = f, g
    for _ in range(2):
        rhs = B.dot(solve_a(r_u)) - r_p
        dp = solve_cg(schur_dot, rhs, np.copy, schur, tol=0.1 * tol)
        iterations += dp.iterations
        u += solve_a(r_u - BT.dot(dp.x))
        p += dp.x
        r_u = f - component_dot(K, u) - BT.dot(p)
        r_p = g - B.dot(u) + Cdot(p)
        res_primal = np.linalg.norm(r_u) / fscale
        cscale = max(np.linalg.norm(g), np.linalg.norm(u), 1e-300)
        res_constraint = np.linalg.norm(r_p) / cscale
        converged = res_primal <= 10 * tol and res_constraint <= 10 * tol
        if converged:
            break
    return SaddleResult(u, p, converged, iterations, res_primal, res_constraint)
