import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from cardioem import fem
from cardioem.fem import (
    FeSpace,
    NonSpdCoefficientError,
    assemble_boundary_load,
    assemble_boundary_mass,
    assemble_divergence,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    component_dot,
    edge_rule,
    factor_spd,
    l2_error,
    l4_norm,
    solve_cg,
    solve_saddle,
    triangle_rule,
)
from cardioem.electrics import (
    assemble_bidomain,
    conductivities_from_gradient,
    initial_stimulus,
)
from cardioem.mesh import FiberField, TriMesh, structured_unit_square
from cardioem.physics import (
    ActivationParams,
    ConductivityParams,
    IonicParams,
    i_ion,
    sigma_and_active,
)


def reference_triangle():
    return TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])


# ---------------------------------------------------------------------------
# quadrature


def test_triangle_rule_weights_sum_to_reference_measure():
    r = triangle_rule()
    assert abs(r.weights.sum() - 0.5) < 1e-15


def test_edge_rule_weights_sum_to_one():
    r = edge_rule()
    assert abs(r.weights.sum() - 1.0) < 1e-15


@pytest.mark.parametrize("i,j", [(i, j) for i in range(5) for j in range(5 - i)])
def test_triangle_rule_exact_for_monomials(i, j):
    # oracle: int_T x^i y^j dA = i! j! / (i + j + 2)! on the reference triangle
    r = triangle_rule()
    x, y = r.points[:, 1], r.points[:, 2]
    got = float(np.sum(r.weights * x**i * y**j))
    exact = math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
    assert abs(got - exact) < 1e-15


@pytest.mark.parametrize("k", range(6))
def test_edge_rule_exact_for_monomials(k):
    r = edge_rule()
    got = float(np.sum(r.weights * r.points[:, 0] ** k))
    assert abs(got - 1.0 / (k + 1)) < 1e-15


# ---------------------------------------------------------------------------
# spaces


def test_dof_counts():
    m = structured_unit_square(3, 3)
    ne = len(m.edges())
    assert FeSpace(m, 1).n_scalar == m.num_vertices
    assert FeSpace(m, 2).n_scalar == m.num_vertices + ne
    vector = FeSpace(m, 2).interpolate(lambda x, y: (x, y))
    assert vector.shape == (2 * (m.num_vertices + ne),)


def test_p2_interpolates_quadratics_exactly():
    m = structured_unit_square(2, 3)
    s = FeSpace(m, 2)
    f = lambda x, y: 1.0 + 2 * x - y + x * y + 3 * x**2 - 0.5 * y**2
    coeffs = s.interpolate(f)
    assert l2_error(s, coeffs, f) < 1e-13


def loop_interpolate(space, fn):
    """Reference: fn at each node, the vertices then the edge midpoints."""
    pts = space.mesh.vertices
    if space.degree == 2:
        edges = space.mesh.edges()
        pts = np.vstack([pts, 0.5 * (pts[edges[:, 0]] + pts[edges[:, 1]])])
    return np.array([fn(x, y) for x, y in pts], dtype=float).T.ravel()


# ufuncs give one result per element, on arrays and on the np.float64 nodes
# that the loop passes; the fns multiply instead of using `**`, because
# np.float64 ** 2 calls libm pow, which can round differently from x * x
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "fn",
    [
        initial_stimulus,
        lambda x, y: np.sin(3 * x) * np.exp(-y),
        lambda x, y: (x * y - 0.5, np.cos(x + 2 * y)),
        lambda x, y: np.array([x * x, -y]),
        lambda x, y: (x, 0.0),
        lambda x, y: 2.5,
    ],
    ids=["stimulus", "scalar", "vector", "array", "constant-component", "constant"],
)
def test_interpolate_matches_the_node_loop(degree, fn):
    s = FeSpace(perturbed_square(5), degree)
    got = s.interpolate(fn)
    ref = loop_interpolate(s, fn)
    np.testing.assert_array_equal(got, ref)
    assert got.dtype == ref.dtype


def einsum_at_qp(space, coeffs):
    """Reference: the quadrature values as one einsum over the element dofs."""
    return np.einsum("ql,el->eq", space.basis_vals, coeffs[space.conn])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
def test_scalar_at_qp_matches_the_einsum(degree, mesh):
    m = structured_unit_square(5, 4) if mesh == "structured" else perturbed_square(5)
    s = FeSpace(m, degree)
    coeffs = s.interpolate(lambda x, y: np.cos(5 * x) * np.sin(4 * y) - 0.3)
    got, ref = s.scalar_at_qp(coeffs), einsum_at_qp(s, coeffs)
    assert got.shape == ref.shape == (m.num_triangles, 6)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("degree", [1, 2])
def test_vector_grad_of_interpolated_linear_field(degree):
    s = FeSpace(perturbed_square(4), degree)
    a, b, c, d = 0.7, -1.3, 2.1, 0.4
    u = s.interpolate(lambda x, y: (a * x + b * y, c * x + d * y))
    grad = s.vector_grad_at_qp(u)
    assert grad.shape == (len(s.conn), len(s.quad.weights), 2, 2)
    expect = np.broadcast_to([[a, b], [c, d]], grad.shape)
    np.testing.assert_allclose(grad, expect, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2])
def test_vector_grad_matches_the_per_component_einsum(degree):
    s = FeSpace(perturbed_square(5), degree)
    u = s.interpolate(lambda x, y: (np.sin(3 * x) * y, np.cos(2 * y) - x * x))
    comps = u.reshape(2, s.n_scalar)

    def per_component(grads, coeffs):
        return np.stack(
            [np.einsum("eqli,el->eqi", grads, c[s.conn]) for c in coeffs], axis=2
        )

    ref = per_component(s.grads, comps)
    got = s.vector_grad_at_qp(u)
    assert got.shape == ref.shape
    # within round-off of each sum of nloc products
    bound = 2 * s.nloc * np.finfo(float).eps * per_component(abs(s.grads), abs(comps))
    assert np.all(np.abs(got - ref) <= bound)


# ---------------------------------------------------------------------------
# mass


def test_p1_local_mass_reference_triangle():
    s = FeSpace(reference_triangle(), 1)
    M = assemble_mass(s).toarray()
    expect = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.allclose(M, expect, atol=1e-15)


def test_mass_entry_sum_is_domain_area():
    s = FeSpace(structured_unit_square(5, 4), 1)
    assert abs(assemble_mass(s).sum() - 1.0) < 1e-12


def test_mass_pairing_with_ones():
    s = FeSpace(structured_unit_square(4, 4), 2)
    M = assemble_mass(s)
    one = np.ones(s.n_scalar)
    assert abs(one @ M.dot(one) - 1.0) < 1e-12


def test_mass_spd():
    s = FeSpace(structured_unit_square(3, 3), 1)
    M = assemble_mass(s).toarray()
    assert np.allclose(M, M.T)
    assert np.linalg.eigvalsh(M).min() > 0


# ---------------------------------------------------------------------------
# stiffness


def test_p1_local_stiffness_reference_triangle():
    s = FeSpace(reference_triangle(), 1)
    K = assemble_stiffness(s).toarray()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expect, atol=1e-15)


def test_constants_in_kernel():
    s = FeSpace(structured_unit_square(6, 5), 2)
    rng = np.random.default_rng(0)
    t = rng.uniform(-0.3, 0.3)
    coeff = np.array([[1.0 + t, t], [t, 1.2]])
    A = assemble_stiffness(s, coeff)
    one = np.ones(s.n_scalar)
    Amax = abs(A).max()
    assert np.abs(A.dot(one)).max() <= 1e-12 * Amax


def test_stiffness_linear_in_coefficient():
    s = FeSpace(structured_unit_square(3, 3), 1)
    A1 = assemble_stiffness(s, np.eye(2)).toarray()
    A2 = assemble_stiffness(s, 2 * np.eye(2)).toarray()
    assert np.allclose(A2, 2 * A1, atol=1e-14)


def test_stiffness_rejects_non_spd_with_element_id():
    s = FeSpace(structured_unit_square(2, 2), 1)
    ne, nq = len(s.conn), len(s.quad.weights)
    coeff = np.broadcast_to(np.eye(2), (ne, nq, 2, 2)).copy()
    coeff[3] = -np.eye(2)
    with pytest.raises(NonSpdCoefficientError, match="element 3"):
        assemble_stiffness(s, coeff)


@pytest.mark.parametrize(
    "coeff",
    [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.0, -0.5]], -np.eye(2)],
    ids=["non-symmetric", "indefinite", "negative-trace"],
)
def test_stiffness_rejects_a_constant_non_spd_tensor_on_element_0(coeff):
    s = FeSpace(structured_unit_square(2, 2), 1)
    with pytest.raises(NonSpdCoefficientError, match="element 0"):
        assemble_stiffness(s, coeff)


def test_assembled_forms_symmetric():
    s = FeSpace(structured_unit_square(4, 4), 2)
    for A in (assemble_mass(s), assemble_stiffness(s), assemble_boundary_mass(s, 1.0)):
        d = abs(A - A.T).max()
        assert d <= 1e-14 * max(abs(A).max(), 1.0)


def test_stiffness_kernel_dimension_dense_oracle():
    s = FeSpace(structured_unit_square(2, 2), 1)
    K = assemble_stiffness(s).toarray()
    evals = np.linalg.eigvalsh(K)
    assert evals[0] < 1e-12
    assert evals[1] > 1e-8


def test_csr_invariants():
    s = FeSpace(structured_unit_square(3, 3), 2)
    A = assemble_stiffness(s)
    assert isinstance(A, sp.csr_matrix)
    assert A.has_sorted_indices
    # no duplicate (row, col) pairs
    for r in range(A.shape[0]):
        cols = A.indices[A.indptr[r] : A.indptr[r + 1]]
        assert len(np.unique(cols)) == len(cols)


def perturbed_square(n, seed=0):
    # structured mesh with interior vertices moved by up to 0.25 h per axis
    m = structured_unit_square(n, n)
    v = np.array(m.vertices)
    inner = np.all((v > 1e-12) & (v < 1 - 1e-12), axis=1)
    rng = np.random.default_rng(seed)
    v[inner] += (0.25 / n) * rng.uniform(-1.0, 1.0, (int(inner.sum()), 2))
    return TriMesh(v, np.array(m.triangles))


def loop_stiffness(space, c, field_rank):
    # oracle: element by element, quadrature point by quadrature point, the
    # form (grad u) C : (grad v) on the basis functions phi_l e_a of a field
    # with 1 (field_rank 0) or 2 (field_rank 1) components, whose gradient
    # matrices are e_a (x) grad(phi_l), in the component-major dof layout
    ncomp = 2 if field_rank else 1
    n = space.n_scalar
    K = np.zeros((ncomp * n, ncomp * n))
    w = space.quad.weights
    eye = np.eye(ncomp)
    for e, dofs in enumerate(space.conn):
        idx = (n * np.arange(ncomp)[:, None] + dofs).ravel()
        for q in range(len(w)):
            g = space.grads[e, q]
            G = np.einsum("ab,li->albi", eye, g).reshape(len(idx), ncomp, 2)
            local = np.einsum("xbi,ij,ybj->xy", G, c[e, q], G)
            K[np.ix_(idx, idx)] += w[q] * space.detJ[e] * local
    return K


def anisotropic_coefficient(space, seed=1):
    ne, nq = len(space.conn), len(space.quad.weights)
    a = np.random.default_rng(seed).standard_normal((ne, nq, 2, 2))
    return a @ a.transpose(0, 1, 3, 2) + 0.1 * np.eye(2)


def gamma_sigma(space):
    x, y = space.mesh.vertices.T
    gamma = 0.6 * np.sin(3 * x) * np.cos(2 * y) - 0.1
    fibers = FiberField.rotated(space.mesh, 0.4)
    # gamma interpolated barycentrically at the quadrature points
    gq = gamma[space.mesh.triangles] @ space.quad.points.T
    return sigma_and_active(
        gq, fibers.d_l[:, None], fibers.d_t[:, None], ActivationParams()
    )[0]


@pytest.mark.parametrize("coefficient", [anisotropic_coefficient, gamma_sigma])
@pytest.mark.parametrize("degree,field_rank", [(1, 0), (2, 0), (2, 1)])
def test_stiffness_kernel_matches_element_loop(degree, field_rank, coefficient):
    # field_rank 1: the vector form is blockdiag(K, K) of the scalar K
    s = FeSpace(perturbed_square(5), degree)
    c = coefficient(s)
    K = assemble_stiffness(s, c)
    ref = loop_stiffness(s, c, field_rank)
    assert isinstance(K, sp.csr_matrix)
    assert K.has_canonical_format
    A = sp.block_diag((K, K)) if field_rank else K
    assert np.abs(A.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("degree,load_rank", [(1, 0), (2, 0), (2, 1)])
def test_boundary_load_matches_edge_loop(degree, load_rank):
    # load_rank 1: a 2-vector load, summed component-major
    m = perturbed_square(5)
    s = FeSpace(m, degree)
    ncomp = 2 if load_rank else 1
    er = edge_rule()
    t = er.points[:, 0]
    if degree == 1:
        vals = np.column_stack([1 - t, t])
    else:
        vals = np.column_stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])
    shape = (len(m.boundary_edges), len(t)) + ((2,) if load_rank else ())
    g = np.random.default_rng(3).standard_normal(shape)
    ref = np.zeros(ncomp * s.n_scalar)
    # P2 numbers the midside dofs in the lexicographic order of mesh.edges()
    edge_number = {(int(i), int(j)): k for k, (i, j) in enumerate(m.edges())}
    for k, (i, j, _owner) in enumerate(m.boundary_edges):
        dofs = [i, j]
        if degree == 2:
            dofs.append(m.num_vertices + edge_number[(min(i, j), max(i, j))])
        length = np.linalg.norm(m.vertices[j] - m.vertices[i])
        for c in range(ncomp):
            gk = g[k, :, c] if load_rank else g[k]
            ref[c * s.n_scalar + np.array(dofs)] += length * (er.weights * gk) @ vals
    F = assemble_boundary_load(s, g)
    assert np.abs(F - ref).max() <= 1e-14 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# boundary mass


def test_boundary_mass_zero_alpha():
    s = FeSpace(structured_unit_square(3, 3), 1)
    assert abs(assemble_boundary_mass(s, 0.0)).max() == 0.0


def test_boundary_mass_perimeter():
    s = FeSpace(structured_unit_square(4, 4), 1)
    B = assemble_boundary_mass(s, 1.0)
    one = np.ones(s.n_scalar)
    assert abs(one @ B.dot(one) - 4.0) < 1e-12


def test_boundary_mass_scales_with_alpha():
    s = FeSpace(structured_unit_square(3, 3), 2)
    B1 = assemble_boundary_mass(s, 1.0)
    B3 = assemble_boundary_mass(s, 3.0)
    assert abs(B3 - 3 * B1).max() < 1e-14


def test_boundary_mass_rows_only_on_boundary():
    m = structured_unit_square(4, 4)
    s = FeSpace(m, 1)
    B = assemble_boundary_mass(s, 1.0)
    bverts = set(m.boundary_edges[:, 0]) | set(m.boundary_edges[:, 1])
    nonzero_rows = set(np.flatnonzero(np.asarray(abs(B).sum(axis=1)).ravel()))
    assert nonzero_rows <= bverts


# ---------------------------------------------------------------------------
# divergence


def build_th(n):
    m = structured_unit_square(n, n)
    return FeSpace(m, 2), FeSpace(m, 1)


def test_divergence_constant_field():
    u_space, p_space = build_th(3)
    D = assemble_divergence(u_space, p_space)
    u = u_space.interpolate(lambda x, y: (1.0, 0.0))
    assert np.abs(D.dot(u)).max() < 1e-13


def test_divergence_free_linear_field():
    u_space, p_space = build_th(3)
    D = assemble_divergence(u_space, p_space)
    u = u_space.interpolate(lambda x, y: (x, -y))
    assert np.abs(D.dot(u)).max() < 1e-12


def test_divergence_partition_of_unity():
    u_space, p_space = build_th(4)
    D = assemble_divergence(u_space, p_space)
    u = u_space.interpolate(lambda x, y: (x, 0.0))
    total = np.ones(p_space.n_scalar) @ D.dot(u)
    assert abs(total - 1.0) < 1e-12


def test_divergence_applied_to_interpolated_divfree_polynomial():
    u_space, p_space = build_th(4)
    D = assemble_divergence(u_space, p_space)
    u = u_space.interpolate(lambda x, y: (x * y, -0.5 * y**2))
    assert np.linalg.norm(D.dot(u)) < 1e-10


# ---------------------------------------------------------------------------
# P1 gradients held once per element


def per_point_p1_grads(space):
    """Reference: the physical P1 gradients computed at every quadrature
    point, (ne, nq, 3, 2), from the reference gradients repeated per point."""
    nq = len(space.quad.weights)
    ref = np.broadcast_to([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], (nq, 3, 2))
    iJ = space.invJT[:, None, :, None, :]
    rg = ref[None, :, None, :, :]
    return (iJ[..., 0] * rg[..., 0] + iJ[..., 1] * rg[..., 1]).transpose(0, 1, 3, 2)


@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
def test_p1_grads_are_held_once_per_element(mesh):
    m = structured_unit_square(4, 3) if mesh == "structured" else perturbed_square(5)
    s = FeSpace(m, 1)
    ref = per_point_p1_grads(s)
    assert s.grads.shape == ref.shape == (m.num_triangles, 6, 3, 2)
    np.testing.assert_array_equal(s.grads, ref)
    assert s.grads.strides[1] == 0
    assert not s.grads.flags.writeable


# ---------------------------------------------------------------------------
# load


def test_load_constant_sums_to_area():
    s = FeSpace(structured_unit_square(4, 4), 1)
    F = assemble_load(s, lambda x, y: 1.0)
    assert abs(F.sum() - 1.0) < 1e-12


def test_load_zero():
    s = FeSpace(structured_unit_square(2, 2), 1)
    assert np.all(assemble_load(s, lambda x, y: 0.0) == 0.0)


def test_load_linear_integrand():
    s = FeSpace(structured_unit_square(5, 5), 1)
    F = assemble_load(s, lambda x, y: x)
    assert abs(F.sum() - 0.5) < 1e-12


def test_load_pairing_equals_integral():
    s = FeSpace(structured_unit_square(4, 4), 2)
    F = assemble_load(s, lambda x, y: np.exp(x) * y)
    one = np.ones(s.n_scalar)
    exact = (np.e - 1.0) * 0.5
    assert abs(one @ F - exact) < 1e-5  # quadrature-limited


def loop_load(space, fn):
    """Reference: fn at each quadrature point, then the per-point load."""
    pts = space.qpoints.reshape(-1, 2)
    f = np.array([fn(x, y) for x, y in pts], dtype=float)
    return assemble_load(space, f.reshape(space.qpoints.shape[:2] + f.shape[1:]))


def loop_l2_error(space, coeffs, exact):
    """Reference: exact at each quadrature point, then the L2 distance."""
    w = space.quad.weights
    ex = np.array(
        [exact(x, y) for x, y in space.qpoints.reshape(-1, 2)], dtype=float
    ).reshape(len(space.conn), len(w), -1)
    err2 = 0.0
    for c, comp in enumerate(coeffs.reshape(ex.shape[2], -1)):
        uh = einsum_at_qp(space, comp)
        err2 += np.einsum("q,eq->", w, (uh - ex[:, :, c]) ** 2 * space.detJ[:, None])
    return np.sqrt(err2)


# the mms fns, with `**`, and fns with constant components
FIELD_FNS = {
    "scalar": lambda x, y: 2.0 * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y),
    "scalar-pow": lambda x, y: np.exp(x) * y**2 - x**3,
    "constant": lambda x, y: 1.5,
    "vector": lambda x, y: (
        np.sin(np.pi * x) * np.cos(np.pi * y), -np.cos(np.pi * x) * np.sin(np.pi * y)
    ),
    "array": lambda x, y: np.array([x * y**2, np.exp(-x) - y]),
    "constant-component": lambda x, y: (0.25, x**2 - y),
}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", list(FIELD_FNS))
def test_load_and_l2_error_match_the_point_loop(degree, name):
    fn = FIELD_FNS[name]
    s = FeSpace(perturbed_square(5), degree)
    got, ref = assemble_load(s, fn), loop_load(s, fn)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    # a discrete field near fn, so the error is small against the values
    coeffs = s.interpolate(fn)
    coeffs = coeffs + 1e-3 * np.random.default_rng(3).standard_normal(coeffs.shape)
    err, ref_err = l2_error(s, coeffs, fn), loop_l2_error(s, coeffs, fn)
    assert ref_err > 0.0
    # the two kernels' quadrature values differ by at most 1e-15 of the
    # largest (test_scalar_at_qp_matches_the_einsum), which bounds the
    # change of the distance on the unit square however small it is
    umax = max(np.abs(einsum_at_qp(s, c)).max() for c in coeffs.reshape(-1, s.n_scalar))
    assert abs(err - ref_err) <= 1e-14 * ref_err + 1e-15 * umax


def test_l4_norm_matches_power_on_sign_changing_field():
    s = FeSpace(perturbed_square(6), 1)
    x, y = s.mesh.vertices.T
    v = np.cos(5 * x) * np.sin(4 * y) - 0.3
    uh = einsum_at_qp(s, v)
    assert uh.min() < 0 < uh.max()
    ref = np.einsum("q,eq->", s.quad.weights, uh**4 * s.detJ[:, None]) ** 0.25
    assert abs(l4_norm(s, v) - ref) <= 1e-14 * ref


# ---------------------------------------------------------------------------
# conjugate gradients


def no_constraint(v):
    """The identity as `solve_cg`'s projector, which returns a new array."""
    return v.copy()


def test_cg_identity_one_iteration():
    A = sp.eye(5, format="csr")
    b = np.arange(1.0, 6.0)
    res = solve_cg(A, b, no_constraint, no_constraint)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.x, b)


def test_cg_diagonal():
    # unpreconditioned: the caller passes the identity
    A = sp.diags([2.0, 1.0]).tocsr()
    b = np.array([2.0, 1.0])
    res = solve_cg(A, b, no_constraint, no_constraint)
    np.testing.assert_allclose(res.x, np.linalg.solve(A.toarray(), b), atol=1e-12)


def test_cg_from_zero_takes_the_first_residual_without_a_product():
    products = []

    def A(v):
        products.append(1)
        return 2.0 * v

    b = np.arange(1.0, 6.0)
    res = solve_cg(A, b, no_constraint, no_constraint, tol=1e-12)
    assert res.converged and res.iterations == 1
    assert len(products) == 1
    np.testing.assert_allclose(res.x, 0.5 * b, rtol=1e-15)


def test_cg_nonconvergence_flag():
    s = FeSpace(structured_unit_square(8, 8), 1)
    K = assemble_stiffness(s) + 1e-8 * assemble_mass(s)
    b = np.random.default_rng(1).standard_normal(s.n_scalar)
    res = solve_cg(K, b, no_constraint, no_constraint, tol=1e-14, maxit=2)
    assert not res.converged
    assert res.iterations == 2
    assert np.all(np.isfinite(res.x))


def test_cg_exact_preconditioner_takes_one_iteration():
    s = FeSpace(structured_unit_square(8, 8), 1)
    K = (assemble_stiffness(s) + assemble_mass(s)).tocsc()
    b = np.random.default_rng(2).standard_normal(s.n_scalar)
    lu = splu(K)
    res = solve_cg(K, b, no_constraint, lu.solve, tol=1e-12)
    assert res.converged
    assert res.iterations == 1
    assert np.linalg.norm(K.dot(res.x) - b) <= 1e-12 * np.linalg.norm(b)


def test_cg_stall_returns_best_iterate():
    # with the exact grounded preconditioner the first iterate is exact to
    # round-off; a tolerance below round-off forces the iteration on until
    # it breaks down, and the best iterate must be the one returned
    s = FeSpace(structured_unit_square(4, 4), 1)
    M = assemble_mass(s)
    dt = 0.0125
    Mi, Me = conductivities_from_gradient(s, None, ConductivityParams())
    lumped = np.asarray(M.sum(axis=1)).ravel()
    system = assemble_bidomain(s, Mi, Me, dt, M, lumped)
    v0 = s.interpolate(initial_stimulus)
    base = M.dot(v0 / dt - i_ion(v0, np.zeros_like(v0), IonicParams()))
    i_app = assemble_load(s, initial_stimulus)
    b = np.concatenate([base + i_app, -base + i_app])
    proj = system.projector()
    pb = proj(b)
    bnorm = math.sqrt(float(pb @ pb))

    seen = []  # relres of every residual the preconditioner is applied to

    def precondition(r):
        seen.append(math.sqrt(float(r @ r)) / bnorm)
        return system.precondition(r)

    res = solve_cg(system.block, b, proj, precondition, tol=1e-30)
    assert not res.converged
    assert res.iterations >= 2
    assert res.relres == min(seen)
    assert res.relres < 1e-14
    true = np.linalg.norm(proj(b - system.block.dot(res.x))) / bnorm
    assert true < 1e-14


def test_cg_indefinite_direction_stops_with_best_iterate():
    # A = diag(1, 4, -1) is indefinite: the first iterate lowers the
    # residual, the second raises it, and the third search direction has
    # d.Ad < 0, so the solve stops there, long before maxit, and returns the
    # first iterate (returning the last one instead fails this test)
    A = np.diag([1.0, 4.0, -1.0])
    b = np.array([1.0, 1.0, 0.5])
    products = []

    def matvec(d):
        products.append(d.copy())
        return A @ d

    seen = []  # relres of every residual the preconditioner is applied to

    def precondition(r):
        seen.append(math.sqrt(float(r @ r)) / np.linalg.norm(b))
        return r.copy()

    res = solve_cg(matvec, b, np.copy, precondition, tol=1e-12)
    assert not res.converged
    assert res.iterations == 2 and len(products) == 3
    assert products[-1] @ A @ products[-1] <= 0.0
    # seen[0] is the initial residual, seen[1] and seen[2] those of the
    # iterates: the first is the best
    assert seen[1] < 1.0 < seen[2]
    assert res.relres == seen[1]
    first = float(b @ b) / float(b @ A @ b) * b
    np.testing.assert_allclose(res.x, first, rtol=1e-14)
    assert np.linalg.norm(b - A @ res.x) / np.linalg.norm(b) == pytest.approx(
        seen[1], rel=1e-12
    )


def test_cg_poisson_mms_second_order():
    # oracle: u = cos(pi x) cos(pi y), f = 2 pi^2 u, pure Neumann; the
    # caller preconditions by the projected Jacobi scaling
    errs = []
    for n in (8, 16, 32):
        m = structured_unit_square(n, n)
        s = FeSpace(m, 1)
        K = assemble_stiffness(s)
        M = assemble_mass(s)
        b = assemble_load(s, lambda x, y: 2 * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y))
        ones = np.ones(s.n_scalar)
        proj = lambda v: v - ones * (float(ones @ v) / len(ones))
        diag = K.diagonal()
        r = solve_cg(K, b, proj, lambda v: proj(v / diag), tol=1e-12)
        assert r.converged
        mvec = np.asarray(M.sum(axis=1)).ravel()
        u = r.x - float(mvec @ r.x) / float(mvec.sum())
        errs.append(l2_error(s, u, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    assert all(r > 3.5 for r in ratios)  # ~4x per halving


def test_cg_projected_iterates_stay_mean_zero():
    # every iterate is a sum of search directions, so it is mean-zero when
    # every direction the operator is applied to is
    s = FeSpace(structured_unit_square(6, 6), 1)
    K = assemble_stiffness(s)
    M = assemble_mass(s)
    m = np.asarray(M.sum(axis=1)).ravel()
    proj = lambda v: v - m * (float(m @ v) / float(m @ m))
    b = assemble_load(s, lambda x, y: np.cos(np.pi * x))
    means = []

    def A(d):
        means.append(abs(float(m @ d)))
        return K.dot(d)

    res = solve_cg(A, b, proj, proj, tol=1e-12)
    assert res.converged and len(means) > 1
    assert max(means) < 1e-12
    assert abs(float(m @ res.x)) < 1e-12


# ---------------------------------------------------------------------------
# banded Cholesky


def banded_forms(mesh):
    """The P1 space of `mesh` and the SPD matrices that are factored banded
    on it: the scalar step matrix, the grounded stiffness, the grounded 2n
    block of tensors that are not proportional, and the mass."""
    space = FeSpace(mesh, 1)
    M = assemble_mass(space)
    K_i = np.array([[0.03, 0.01], [0.01, 0.004]])
    K_e = np.array([[0.02, -0.003], [-0.003, 0.008]])
    system = assemble_bidomain(
        space, K_i, K_e, 0.0125, M, np.asarray(M.sum(axis=1)).ravel()
    )
    A_i = system.stiff_i
    return space, {
        "scalar": (M / 0.0125 + A_i).tocsr(),
        "grounded": (3.0 * A_i)[:-1, :-1],
        "block": system.block[:-1, :-1],
        "mass": M,
    }


@pytest.mark.parametrize("form", ["scalar", "grounded", "block", "mass"])
@pytest.mark.parametrize("mesh", ["structured", "perturbed"])
@pytest.mark.parametrize("cols", [None, 3])
def test_banded_factor_matches_a_dense_solve(form, mesh, cols):
    m = structured_unit_square(6, 5) if mesh == "structured" else perturbed_square(6)
    space, forms = banded_forms(m)
    A = forms[form]
    size = A.shape[0]
    shape = size if cols is None else (size, cols)
    b = np.random.default_rng(3).standard_normal(shape)
    ref = np.linalg.solve(A.toarray(), b)
    for _ in range(2):  # the second factor reuses the band map
        x = space.factor_banded(A).solve(b)
        assert x.shape == b.shape
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_banded_factor_of_the_natural_square_order_has_band_nx_plus_2():
    # `structured_unit_square` numbers its vertices row by row, which is
    # the sweep order on a square; its diagonals join vertices nx + 2 apart
    nx = 7
    space, forms = banded_forms(structured_unit_square(nx, nx))
    np.testing.assert_array_equal(space.vertex_order, np.arange(space.n_scalar))
    for form in ("scalar", "mass", "grounded", "block"):
        space.factor_banded(forms[form])
    kd = {size: lay.kd for size, lay in space.band_layouts.items()}
    n = space.n_scalar
    assert kd == {n: nx + 2, n - 1: nx + 2, 2 * n - 1: 2 * (nx + 2) + 1}


def test_band_layout_follows_a_new_pattern():
    # a matrix of a kept order on another CSR pattern gets its own map
    space, forms = banded_forms(structured_unit_square(4, 4))
    A = forms["scalar"]
    space.factor_banded(A)
    D = sp.diags(A.diagonal(), format="csr")
    b = np.arange(1.0, A.shape[0] + 1)
    np.testing.assert_allclose(
        space.factor_banded(D).solve(b), b / A.diagonal(), rtol=1e-15
    )
    assert space.band_layouts[A.shape[0]].kd == 0


def test_banded_factor_refuses_a_matrix_that_is_not_positive_definite():
    # the mass with one diagonal entry negated, on the same pattern, is
    # indefinite; the error names the order of the matrix
    space, forms = banded_forms(structured_unit_square(4, 4))
    M = forms["mass"]
    indefinite = M.copy()
    indefinite.data[M.indptr[7] + np.flatnonzero(M[7].indices == 7)] *= -1.0
    assert np.linalg.eigvalsh(indefinite.toarray()).min() < 0.0
    n = space.n_scalar
    with pytest.raises(np.linalg.LinAlgError, match=f"order {n} is not positive"):
        space.factor_banded(indefinite)
    with pytest.raises(np.linalg.LinAlgError, match=f"order {n - 1} is not"):
        space.factor_banded(-assemble_stiffness(space)[:-1, :-1])


def test_banded_factor_needs_the_p1_space():
    space = FeSpace(structured_unit_square(2, 2), 2)
    with pytest.raises(ValueError, match="P1"):
        space.factor_banded(assemble_mass(space))


# ---------------------------------------------------------------------------
# saddle solver


def th_blocks(n, alpha=1.0):
    """Scalar displacement block K, B = -div and the pressure mass Mp."""
    u_space, p_space = build_th(n)
    K = assemble_stiffness(u_space)
    K = K + assemble_boundary_mass(u_space, alpha)
    B = (-assemble_divergence(u_space, p_space)).tocsr()
    return u_space, p_space, K, B, assemble_mass(p_space)


def test_saddle_zero_data():
    u_space, _, K, B, Mp = th_blocks(2)
    res = solve_saddle(K, B, np.zeros(2 * u_space.n_scalar), factor_spd(Mp).solve)
    assert res.converged
    assert np.linalg.norm(res.u) == 0.0
    assert np.linalg.norm(res.p) == 0.0


def test_saddle_zero_load_returns_zeros_without_factoring(monkeypatch):
    # -0.0 entries count as zero: the passive mechanics load is built so
    u_space, p_space, K, B, Mp = th_blocks(2)
    schur = factor_spd(Mp).solve

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a zero load must not factor K")

    monkeypatch.setattr(fem, "factor_spd", forbidden)
    f = np.full(2 * u_space.n_scalar, -0.0)
    res = solve_saddle(K, B, f, schur, g=np.zeros(p_space.n_scalar))
    assert res.converged and res.iterations == 0
    assert not np.any(res.u) and not np.any(res.p)
    assert res.u.shape == f.shape and res.p.shape == (p_space.n_scalar,)
    assert res.res_primal == 0.0 and res.res_constraint == 0.0


def test_saddle_decoupled_block():
    K = sp.diags([1.0, 2.0], format="csr")
    B = sp.csr_matrix((2, 4))
    f = np.array([1.0, -2.0, 3.0, 0.5])
    res = solve_saddle(K, B, f, lambda q: q)
    assert np.allclose(res.u, f / np.array([1.0, 2.0, 1.0, 2.0]), atol=1e-12)
    assert np.allclose(res.p, 0.0)


def test_component_dot_is_the_blockdiag_product():
    u_space, _, K, _, _ = th_blocks(3)
    u = np.random.default_rng(2).standard_normal(2 * u_space.n_scalar)
    np.testing.assert_array_equal(
        component_dot(K, u), sp.block_diag((K, K), format="csr").dot(u)
    )


@pytest.mark.parametrize("c_scale", [None, 1.0, 1e6], ids=["None", "Mp", "1e6Mp"])
def test_saddle_matches_dense_lu_oracle(c_scale):
    u_space, p_space, K, B, Mp = th_blocks(3)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(2 * u_space.n_scalar)
    C = None if c_scale is None else c_scale * Mp
    lu = factor_spd(Mp)
    schur = lambda q: lu.solve(q) / (1.0 + (c_scale or 0.0))
    res = solve_saddle(K, B, f, schur, tol=1e-12, C=C)
    assert res.converged

    n, k = 2 * u_space.n_scalar, p_space.n_scalar
    block = np.zeros((n + k, n + k))
    block[:n, :n] = sp.block_diag((K, K)).toarray()
    block[:n, n:] = B.T.toarray()
    block[n:, :n] = B.toarray()
    if C is not None:
        block[n:, n:] = -C.toarray()
    sol = np.linalg.solve(block, np.concatenate([f, np.zeros(k)]))
    assert np.linalg.norm(res.u - sol[:n]) < 1e-8 * max(1, np.linalg.norm(sol[:n]))
    assert np.linalg.norm(res.p - sol[n:]) < 1e-8 * max(1, np.linalg.norm(sol[n:]))


def test_saddle_residual_contracts():
    u_space, _, K, B, Mp = th_blocks(3, alpha=2.0)
    f = assemble_load(u_space, lambda x, y: (np.sin(np.pi * x), np.cos(np.pi * y)))
    res = solve_saddle(K, B, f, factor_spd(Mp).solve, tol=1e-10)
    assert res.converged
    assert res.res_primal <= 1e-9
    assert res.res_constraint <= 1e-9
