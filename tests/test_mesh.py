import numpy as np
import pytest

from cardioem.mesh import (
    FiberField,
    MeshFormatError,
    MeshTopologyError,
    TriMesh,
    boundary_edges,
    load_mesh,
    structured_unit_square,
)


def serialize_mesh(mesh: TriMesh) -> str:
    """The text that `load_mesh` reads: header `NV NT`, NV `x y` lines,
    NT `i j k` lines."""
    lines = [f"{mesh.num_vertices} {mesh.num_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    return "\n".join(lines) + "\n"


def test_smallest_split():
    m = structured_unit_square(1, 1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2


def test_counting_2x2():
    m = structured_unit_square(2, 2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8


def test_unit_area_8x8():
    m = structured_unit_square(8, 8)
    assert abs(m.areas().sum() - 1.0) < 1e-12


def test_generator_rejects_bad_counts():
    with pytest.raises(ValueError):
        structured_unit_square(0, 3)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (5, 5)])
def test_euler_relation(nx, ny):
    m = structured_unit_square(nx, ny)
    V, E, F = m.num_vertices, len(m.edges()), m.num_triangles
    assert V - E + F == 1


def loop_unit_square_triangles(nx, ny):
    """Reference: the cells row by row, each split along its diagonal."""
    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = j * (nx + 1) + i, j * (nx + 1) + i + 1
            v01, v11 = v00 + nx + 1, v10 + nx + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (22, 22)])
def test_structured_triangles_match_the_cell_loop(nx, ny):
    m = structured_unit_square(nx, ny)
    ref = loop_unit_square_triangles(nx, ny)
    np.testing.assert_array_equal(m.triangles, ref)
    assert m.triangles.dtype == ref.dtype


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (7, 4)])
def test_edges_are_the_unique_sorted_pairs(nx, ny):
    for m in (structured_unit_square(nx, ny), perturbed_shuffled_square(nx)):
        t = m.triangles
        pairs = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        ref = np.unique(np.sort(pairs, axis=1), axis=0)
        np.testing.assert_array_equal(m.edges(), ref)
        assert m.edges().dtype == ref.dtype


def test_all_triangles_positive_area():
    m = structured_unit_square(4, 3)
    assert np.all(m.areas() > 0)


def test_boundary_edge_counts():
    assert len(boundary_edges(structured_unit_square(1, 1))) == 4
    assert len(boundary_edges(structured_unit_square(4, 4))) == 16


def test_boundary_length_unit_square():
    m = structured_unit_square(5, 7)
    assert abs(m.boundary_lengths().sum() - 4.0) < 1e-12


def test_boundary_edges_on_exactly_one_triangle():
    m = structured_unit_square(3, 3)
    directed = set()
    for a, b, c in m.triangles:
        directed |= {(a, b), (b, c), (c, a)}
    for i, j, owner in m.boundary_edges:
        assert (j, i) not in directed
        tri = m.triangles[owner]
        assert {i, j} <= set(tri)


def test_interior_edges_shared_by_two():
    m = structured_unit_square(3, 3)
    from collections import Counter

    count = Counter()
    for a, b, c in m.triangles:
        for e in ((a, b), (b, c), (c, a)):
            count[tuple(sorted(e))] += 1
    boundary = {tuple(sorted(e[:2])) for e in m.boundary_edges}
    for edge, n in count.items():
        assert n == (1 if edge in boundary else 2)


def test_serialize_roundtrip():
    m = structured_unit_square(2, 2)
    m2 = load_mesh(serialize_mesh(m))
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.array_equal(m.boundary_edges, m2.boundary_edges)


def test_load_rejects_zero_area_triangle():
    text = "3 1\n0 0\n1 0\n2 0\n0 1 2\n"
    with pytest.raises(MeshTopologyError):
        load_mesh(text)


def test_load_reports_line_numbers():
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh("not a header\n")
    with pytest.raises(MeshFormatError, match="line 3"):
        load_mesh("3 1\n0 0\nbad line\n0 1\n0 1 2\n")


def test_load_rejects_out_of_range_index():
    text = "3 1\n0 0\n1 0\n0 1\n0 1 7\n"
    with pytest.raises(MeshTopologyError):
        load_mesh(text)


def mesh_text(vertices, triangles):
    """The plain-text mesh format, written without building a TriMesh."""
    lines = [f"{len(vertices)} {len(triangles)}"]
    lines += [f"{x!r} {y!r}" for x, y in np.asarray(vertices).tolist()]
    lines += [f"{i} {j} {k}" for i, j, k in np.asarray(triangles).tolist()]
    return "\n".join(lines) + "\n"


def square_with_unused_vertex():
    """The 4x4 square with its middle 2x2 cells cut out, keeping vertex 12."""
    m = structured_unit_square(4, 4)
    centroids = m.vertices[m.triangles].mean(axis=1)
    keep = ~((np.abs(centroids - 0.5) < 0.25).all(axis=1))
    return m.vertices, m.triangles[keep]


def two_squares():
    """The 4x4 square and a copy of it shifted by x + 2."""
    m = structured_unit_square(4, 4)
    vertices = np.vstack([m.vertices, m.vertices + [2.0, 0.0]])
    return vertices, np.vstack([m.triangles, m.triangles + m.num_vertices])


@pytest.mark.parametrize(
    "make, message",
    [
        (square_with_unused_vertex, "vertex 12 belongs to no triangle"),
        (two_squares, "mesh has 2 connected components"),
    ],
    ids=["unused-vertex", "two-components"],
)
def test_rejects_a_mesh_whose_stiffness_has_more_than_the_constants(make, message):
    # either way the P1 stiffness matrix has a kernel beyond the constants,
    # which the grounded bidomain solve cannot remove
    vertices, triangles = make()
    with pytest.raises(MeshTopologyError, match=message):
        TriMesh(vertices, triangles)
    with pytest.raises(MeshTopologyError, match=message):
        load_mesh(mesh_text(vertices, triangles))


def test_triangles_sharing_only_a_vertex_are_connected():
    # a bow tie: P1 functions with zero gradient on both triangles agree at
    # the shared vertex, so the stiffness kernel is still the constants
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    mesh = TriMesh(vertices, [[0, 1, 2], [0, 3, 4]])
    assert mesh.num_triangles == 2 and mesh.num_vertices == 5


def test_comments_allowed():
    text = "# a mesh\n3 1\n0 0\n1 0 # corner\n0 1\n0 1 2\n"
    m = load_mesh(text)
    assert m.num_triangles == 1


def test_paper_scale_mesh_counts():
    # Delaunay triangulation of 80 hull + 437 interior points has
    # 2*517 - 2 - 80 = 952 triangles; mirrors the reference experiment size.
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(7)
    angles = np.linspace(0, 2 * np.pi, 80, endpoint=False)
    hull = 0.5 + 0.48 * np.column_stack([np.cos(angles), np.sin(angles)])
    interior = 0.5 + 0.4 * (rng.random((437, 2)) - 0.5) * 2 * 0.9
    pts = np.vstack([hull, interior])
    tri = Delaunay(pts)
    simplices = tri.simplices.copy()
    # enforce counterclockwise orientation
    p = pts[simplices]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    flip = cross < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    mesh = TriMesh(pts, simplices)
    text = serialize_mesh(mesh)
    loaded = load_mesh(text)
    assert loaded.num_vertices == 517
    assert loaded.num_triangles == 952


def test_default_fibers_orthonormal():
    m = structured_unit_square(3, 3)
    f = FiberField.axis_aligned(m)
    assert np.max(np.abs(np.linalg.norm(f.d_l, axis=1) - 1)) == 0.0
    assert np.max(np.abs(np.einsum("ei,ei->e", f.d_l, f.d_t))) == 0.0


def test_fiber_validation():
    m = structured_unit_square(1, 1)
    nt = m.num_triangles
    with pytest.raises(ValueError):
        FiberField(np.tile([2.0, 0.0], (nt, 1)), np.tile([0.0, 1.0], (nt, 1)))
    with pytest.raises(ValueError):
        FiberField(np.tile([1.0, 0.0], (nt, 1)), np.tile([1.0, 0.0], (nt, 1)))


def test_area_matches_bounding_polygon():
    m = structured_unit_square(6, 4)
    assert abs(m.areas().sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# boundary extraction against the per-triangle dict walk


def dict_boundary(tris):
    """Reference: walk the directed edges of each triangle through a dict."""
    directed = {}
    for k, (a, b, c) in enumerate(tris):
        for i, j in ((a, b), (b, c), (c, a)):
            if (i, j) in directed:
                raise MeshTopologyError(
                    f"edge ({i},{j}) traversed twice in the same direction "
                    f"(triangles {directed[(i, j)]} and {k})"
                )
            directed[(i, j)] = k
    rows = [(i, j, k) for (i, j), k in directed.items() if (j, i) not in directed]
    return np.array(sorted(rows), dtype=np.int64).reshape(-1, 3)


def perturbed_shuffled_square(n=7, seed=4):
    """Jittered interior vertices; triangles and their corners reordered."""
    rng = np.random.default_rng(seed)
    m = structured_unit_square(n, n)
    v = m.vertices.copy()
    inner = ((v > 1e-9) & (v < 1 - 1e-9)).all(axis=1)
    v[inner] += 0.3 / n * rng.uniform(-1, 1, (inner.sum(), 2))
    tris = m.triangles[rng.permutation(m.num_triangles)]
    shift = rng.integers(0, 3, len(tris))
    tris = np.array([np.roll(t, s) for t, s in zip(tris, shift)])
    return TriMesh(v, tris)


def holed_square_from_text():
    """A 4x4 square with its middle 2x2 cells cut out, read from text."""
    m = structured_unit_square(4, 4)
    centroids = m.vertices[m.triangles].mean(axis=1)
    tris = m.triangles[~((np.abs(centroids - 0.5) < 0.25).all(axis=1))]
    # the middle vertex belongs to no kept triangle: number the rest anew
    used = np.unique(tris)
    text = serialize_mesh(TriMesh(m.vertices[used], np.searchsorted(used, tris)))
    return load_mesh(text)


@pytest.mark.parametrize(
    "make,n_boundary",
    [(perturbed_shuffled_square, 28), (holed_square_from_text, 16 + 8)],
    ids=["perturbed", "file"],
)
def test_boundary_extraction_matches_dict_walk(make, n_boundary):
    mesh = make()
    ref = dict_boundary(mesh.triangles)
    assert len(ref) == n_boundary
    np.testing.assert_array_equal(mesh.boundary_edges, ref)
    assert mesh.boundary_edges.dtype == ref.dtype


@pytest.mark.parametrize(
    "make",
    [
        lambda: structured_unit_square(1, 1),
        lambda: structured_unit_square(3, 2),
        perturbed_shuffled_square,
        holed_square_from_text,
    ],
    ids=["1x1", "3x2", "perturbed", "file"],
)
def test_edge_count_matches_the_built_edges(make):
    mesh = make()
    assert mesh.num_edges == len(mesh.edges())


def test_repeated_directed_edge_names_the_first_repeat():
    mesh = perturbed_shuffled_square()
    rng = np.random.default_rng(9)
    # re-append rotated copies of a few triangles: each repeats three edges
    picked = mesh.triangles[rng.choice(mesh.num_triangles, 3, replace=False)]
    tris = np.vstack([mesh.triangles, np.roll(picked, 1, axis=1)])
    with pytest.raises(MeshTopologyError) as ref:
        dict_boundary(tris)
    with pytest.raises(MeshTopologyError) as got:
        TriMesh(mesh.vertices, tris)
    assert str(got.value) == str(ref.value)
