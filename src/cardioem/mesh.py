"""Triangular meshes of 2D domains with boundary topology and fiber frames.

A mesh is a flat container of vertex coordinates and counterclockwise
triangles.  Boundary edges are extracted once at construction, oriented as
they appear in their owning triangle, so outward normals can be recovered
without sign guessing.  Every vertex belongs to a triangle and the
triangles' edges connect all of them, so that the kernel of a P1 stiffness
matrix is the constants, the one kernel the grounded bidomain solves
remove.  Meshes are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed; carries the line number."""


class MeshTopologyError(ValueError):
    """Raised when a mesh violates a topological invariant."""


@dataclass(frozen=True)
class TriMesh:
    """2D triangulation.

    Attributes:
        vertices: (nv, 2) float array of coordinates.
        triangles: (nt, 3) int array, counterclockwise vertex indices.
        boundary_edges: (nb, 3) int array of rows (i, j, owner_triangle);
            (i, j) is oriented as traversed in the owner, so the domain lies
            to the left and the outward normal is (dy, -dx)/|e|.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray = field(init=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        tris = np.asarray(self.triangles, dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshTopologyError("vertices must be an (nv, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshTopologyError("triangles must be an (nt, 3) array")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise MeshTopologyError("triangle vertex index out of range")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)

        areas = signed_areas(verts, tris)
        bad = np.where(areas <= 1e-14)[0]
        if bad.size:
            raise MeshTopologyError(
                f"triangle {bad[0]} has non-positive area {areas[bad[0]]:.3e}"
            )

        # the grounded solves of the bidomain step remove one constant:
        # the stiffness matrix must have no kernel beyond the constants
        unused = np.flatnonzero(np.bincount(tris.ravel(), minlength=len(verts)) == 0)
        if unused.size:
            raise MeshTopologyError(f"vertex {unused[0]} belongs to no triangle")
        ncomp = _count_components(tris, len(verts))
        if ncomp > 1:
            raise MeshTopologyError(
                f"mesh has {ncomp} connected components; it must be connected"
            )

        object.__setattr__(self, "boundary_edges", _extract_boundary(tris))
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self.boundary_edges.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, counted without building them.

        Each interior edge lies in two triangles and each boundary edge in
        one (`_extract_boundary` checks it), so 3 nt = 2 E - nb.
        """
        return (3 * self.num_triangles + len(self.boundary_edges)) // 2

    def areas(self) -> np.ndarray:
        return signed_areas(self.vertices, self.triangles)

    def edges(self) -> np.ndarray:
        """All undirected edges as sorted (i, j) pairs, shape (ne, 2)."""
        t = self.triangles
        nv = self.num_vertices
        i = t.ravel()
        j = t[:, [1, 2, 0]].ravel()
        # ascending keys min * nv + max are the lexicographic order of pairs
        keys = np.unique(np.minimum(i, j) * nv + np.maximum(i, j))
        return np.column_stack(np.divmod(keys, nv))

    def boundary_lengths(self) -> np.ndarray:
        i, j = self.boundary_edges[:, 0], self.boundary_edges[:, 1]
        return np.linalg.norm(self.vertices[j] - self.vertices[i], axis=1)


def signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _count_components(tris: np.ndarray, nv: int) -> int:
    """Connected components of the graph of the triangles' edges.

    Labels start as the vertex numbers.  Each round hooks the root label
    at one end of an edge to the smaller root at the other, then jumps
    every label to its root, until each edge joins equal labels.  Every
    round that does not stop merges at least two roots, and a root only
    ever points to a smaller one, so the loop ends; on triangulations it
    takes a few rounds.
    """
    i = tris.ravel()
    j = tris[:, [1, 2, 0]].ravel()
    label = np.arange(nv)
    while True:
        li, lj = label[i], label[j]
        if np.array_equal(li, lj):
            return len(np.unique(label))
        np.minimum.at(label, li, lj)
        np.minimum.at(label, lj, li)
        while not np.array_equal(label[label], label):
            label = label[label]


def _extract_boundary(tris: np.ndarray) -> np.ndarray:
    """Directed edges whose reverse never occurs, tagged with the owner.

    Also verifies that every undirected edge is shared by at most two
    triangles and that interior edges are consistently oriented: a directed
    edge that occurs twice raises, naming the first repeat in triangle
    order.  Rows are sorted by (i, j).
    """
    n = int(tris.max()) + 1 if tris.size else 1
    # the directed edges (a, b), (b, c), (c, a) of each triangle, in order
    i = tris.ravel()
    j = tris[:, [1, 2, 0]].ravel()
    keys = i * n + j
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeat = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    if repeat.size:
        # the stable sort keeps each key's occurrences in triangle order
        s = repeat[np.argmin(order[repeat + 1])]
        first, second = order[s], order[s + 1]
        raise MeshTopologyError(
            f"edge ({i[second]},{j[second]}) traversed twice in the same "
            f"direction (triangles {first // 3} and {second // 3})"
        )
    reverse = j[order] * n + i[order]
    pos = np.minimum(np.searchsorted(sorted_keys, reverse), len(keys) - 1)
    b = order[sorted_keys[pos] != reverse]
    return np.column_stack([i[b], j[b], b // 3])


def boundary_edges(mesh: TriMesh) -> np.ndarray:
    """Oriented boundary edges (i, j, owner) forming closed loop(s)."""
    be = mesh.boundary_edges
    starts = np.sort(be[:, 0])
    ends = np.sort(be[:, 1])
    if not np.array_equal(starts, ends):
        raise MeshTopologyError("boundary edges do not form closed loops")
    return be


@dataclass(frozen=True)
class FiberField:
    """Per-element orthonormal fiber frame (d_l along fibers, d_t across).

    Attributes:
        d_l: (nt, 2) unit vectors.
        d_t: (nt, 2) unit vectors, orthogonal to d_l.
    """

    d_l: np.ndarray
    d_t: np.ndarray

    def __post_init__(self):
        dl = np.asarray(self.d_l, dtype=float)
        dt = np.asarray(self.d_t, dtype=float)
        if dl.shape != dt.shape or dl.ndim != 2 or dl.shape[1] != 2:
            raise ValueError("fiber arrays must both have shape (nt, 2)")
        if np.max(np.abs(np.linalg.norm(dl, axis=1) - 1.0)) > 1e-12:
            raise ValueError("d_l vectors are not unit length")
        if np.max(np.abs(np.linalg.norm(dt, axis=1) - 1.0)) > 1e-12:
            raise ValueError("d_t vectors are not unit length")
        if np.max(np.abs(np.einsum("ei,ei->e", dl, dt))) > 1e-12:
            raise ValueError("fiber frame is not orthogonal")
        object.__setattr__(self, "d_l", dl)
        object.__setattr__(self, "d_t", dt)
        self.d_l.setflags(write=False)
        self.d_t.setflags(write=False)

    @classmethod
    def axis_aligned(cls, mesh: TriMesh) -> "FiberField":
        nt = mesh.num_triangles
        return cls(np.tile([1.0, 0.0], (nt, 1)), np.tile([0.0, 1.0], (nt, 1)))

    @classmethod
    def rotated(cls, mesh: TriMesh, angle: float) -> "FiberField":
        c, s = np.cos(angle), np.sin(angle)
        nt = mesh.num_triangles
        return cls(np.tile([c, s], (nt, 1)), np.tile([-s, c], (nt, 1)))


def structured_unit_square(nx: int, ny: int) -> TriMesh:
    """Uniform triangulation of (0,1)^2 with (nx+1)(ny+1) vertices.

    Each cell is split along its (lower-left -> upper-right) diagonal,
    giving 2*nx*ny counterclockwise triangles.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    # the lower-left vertex of each cell, row by row
    j, i = np.divmod(np.arange(nx * ny, dtype=np.int64), nx)
    v00 = j * (nx + 1) + i
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    tris = np.stack(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])],
        axis=1,
    ).reshape(-1, 3)
    return TriMesh(verts, tris)


def load_mesh(text: str) -> TriMesh:
    """Parse the plain-text mesh format; `#` starts a comment.

    The format is a header `NV NT`, then NV `x y` vertex lines and NT
    `i j k` triangle lines.  Raises MeshFormatError with a 1-based line
    number on malformed input and MeshTopologyError if the parsed mesh
    violates mesh invariants.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows:
        raise MeshFormatError("line 1: empty mesh description")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise MeshFormatError(f"line {lineno}: header must be 'NV NT'")
    try:
        nv, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError(f"line {lineno}: header must hold two integers")
    if nv < 3 or nt < 1:
        raise MeshFormatError(f"line {lineno}: need NV >= 3 and NT >= 1")
    if len(rows) != 1 + nv + nt:
        raise MeshFormatError(
            f"line {rows[-1][0]}: expected {1 + nv + nt} data lines, "
            f"found {len(rows)}"
        )

    verts = np.empty((nv, 2))
    for r, (lineno, body) in enumerate(rows[1 : 1 + nv]):
        parts = body.split()
        if len(parts) != 2:
            raise MeshFormatError(f"line {lineno}: vertex line must be 'x y'")
        try:
            verts[r] = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise MeshFormatError(f"line {lineno}: bad vertex coordinate")

    tris = np.empty((nt, 3), dtype=np.int64)
    for r, (lineno, body) in enumerate(rows[1 + nv :]):
        parts = body.split()
        if len(parts) != 3:
            raise MeshFormatError(f"line {lineno}: triangle line must be 'i j k'")
        try:
            tris[r] = (int(parts[0]), int(parts[1]), int(parts[2]))
        except ValueError:
            raise MeshFormatError(f"line {lineno}: bad vertex index")
        if np.any(tris[r] < 0) or np.any(tris[r] >= nv):
            raise MeshTopologyError(
                f"triangle {r} references vertex outside [0, {nv})"
            )

    return TriMesh(verts, tris)
