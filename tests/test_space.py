import dataclasses

import numpy as np
import pytest
from conftest import interpolate, scrambled_mesh_input, space_with_quadrature

from viscodg.mesh import TriMesh, build_structured_mesh
from viscodg.space import (
    DGSpace,
    _lattice_nodes,
    edge_quadrature,
    quadrature_rules,
    reference_basis,
    triangle_quadrature,
)


def test_rejects_degree_zero():
    with pytest.raises(ValueError):
        reference_basis(0, [[0.3, 0.3]])
    with pytest.raises(ValueError):
        quadrature_rules(0)


def test_degrees_up_to_10_build_and_12_is_refused():
    # the lattice Vandermonde inverts to about 1e-9 at k=10 and 1e-7 at k=12,
    # where the basis would miss partition of unity and run with degraded errors
    for k in range(1, 11):
        vals, _ = reference_basis(k, _lattice_nodes(k))
        assert np.abs(vals - np.eye(len(vals))).max() <= 1e-8
    message = r"^degree k=12 is too high for the monomial basis: max\|V C - I\| = \S+ > 1e-8$"
    with pytest.raises(ValueError, match=message):
        reference_basis(12, [[0.3, 0.3]])


def test_p1_nodal_values():
    # P1 basis at the vertices of the reference triangle is the identity
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    vals, grads = reference_basis(1, nodes)
    assert np.allclose(vals, np.eye(3), atol=1e-14)
    # P1 gradients are constant
    assert np.allclose(grads[0], grads[1])
    assert np.allclose(grads[0], [[-1, -1], [1, 0], [0, 1]])


def test_p1_interior_point():
    vals, _ = reference_basis(1, [[0.25, 0.5]])
    assert np.allclose(vals, [[0.25, 0.25, 0.5]], atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_partition_of_unity(k, rng):
    pts = rng.random((40, 2))
    pts[:, 1] *= 1.0 - pts[:, 0]  # keep inside the reference triangle
    vals, grads = reference_basis(k, pts)
    assert vals.shape == (40, (k + 1) * (k + 2) // 2)
    assert np.allclose(vals.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(grads.sum(axis=-2), 0.0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_basis_gradients_finite_difference(k, rng):
    p = np.array([[0.31, 0.27]])
    eps = 1e-6
    _, grads = reference_basis(k, p)
    for d in range(2):
        dp = np.zeros(2)
        dp[d] = eps
        vp, _ = reference_basis(k, p + dp)
        vm, _ = reference_basis(k, p - dp)
        fd = (vp - vm) / (2 * eps)
        assert np.allclose(grads[..., d], fd, atol=1e-8)


@pytest.mark.parametrize("order", [1, 2, 4, 6, 8, 11])
def test_triangle_quadrature_properties(order):
    pts, w = triangle_quadrature(order)
    assert np.all(w > 0)
    assert abs(w.sum() - 0.5) < 1e-14
    assert np.all(pts >= -1e-14)
    assert np.all(pts.sum(axis=1) <= 1 + 1e-14)


def test_triangle_quadrature_monomial():
    # int over reference triangle of xi^2 eta^2 = 1/180
    pts, w = triangle_quadrature(6)
    val = np.sum(w * pts[:, 0] ** 2 * pts[:, 1] ** 2)
    assert abs(val - 1.0 / 180.0) < 1e-15


def test_triangle_quadrature_exactness():
    # exact for all monomials up to the requested order
    for order in (2, 3, 5, 7):
        pts, w = triangle_quadrature(order)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                # int xi^a eta^b = a! b! / (a+b+2)!
                exact = 1.0
                for i in range(1, a + 1):
                    exact *= i
                for i in range(1, b + 1):
                    exact *= i
                for i in range(1, a + b + 3):
                    exact /= i
                val = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b)
                assert abs(val - exact) < 1e-14, (order, a, b)


def test_edge_quadrature():
    s, w = edge_quadrature(5)
    assert abs(w.sum() - 1.0) < 1e-14
    assert abs(np.sum(w * s**5) - 1.0 / 6.0) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dof_layout(k):
    mesh = build_structured_mesh(2)
    space = DGSpace.build(mesh, k)
    nb = (k + 1) * (k + 2) // 2
    assert space.dofs_per_component == nb
    assert space.dofs_per_element == 2 * nb
    assert space.total_dofs == 8 * 2 * nb
    # element t owns DOFs [t * nd, (t + 1) * nd), its x-component coefficients first
    coeffs = interpolate(space, lambda x, y: (np.ones_like(x), 2.0 * np.ones_like(x)))
    blocks = coeffs.reshape(mesh.n_triangles, 2, nb)
    assert np.array_equal(blocks[:, 0], np.ones((mesh.n_triangles, nb)))
    assert np.array_equal(blocks[:, 1], np.full((mesh.n_triangles, nb), 2.0))
    assert np.allclose(space.evaluate(coeffs), [1.0, 2.0], atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_reproduces_polynomials(k):
    mesh = build_structured_mesh(3)
    space = DGSpace.build(mesh, k)

    def field(x, y):
        return x**k + (y ** (k - 1)) * x, 2.0 * y**k - x

    coeffs = interpolate(space, field)
    vals = space.evaluate(coeffs)
    xq = space.physical_quad_points()
    fx, fy = field(xq[..., 0], xq[..., 1])
    assert np.max(np.abs(vals[..., 0] - fx)) < 1e-12
    assert np.max(np.abs(vals[..., 1] - fy)) < 1e-12


def test_gradient_evaluation():
    mesh = build_structured_mesh(2)
    space = DGSpace.build(mesh, 2)
    coeffs = interpolate(space, lambda x, y: (x * y, x**2 - y**2))
    g = space.evaluate_gradients(coeffs)
    xq = space.physical_quad_points()
    x, y = xq[..., 0], xq[..., 1]
    assert np.max(np.abs(g[..., 0, 0] - y)) < 1e-12
    assert np.max(np.abs(g[..., 0, 1] - x)) < 1e-12
    assert np.max(np.abs(g[..., 1, 0] - 2 * x)) < 1e-12
    assert np.max(np.abs(g[..., 1, 1] + 2 * y)) < 1e-12


def _assert_traces_match_pullback(space):
    """Every edge trace against the basis evaluated at the edge points pulled
    back through the inverse element map."""
    edges = space.mesh.edges
    for side in (0, 1):
        ids = np.flatnonzero(edges.elems[:, side] >= 0)
        x, vals, grads = space.edge_traces(ids, side)
        elems = edges.elems[ids, side]
        jinv = space.jac_inv[elems][:, None]
        xi = (jinv @ (x - space.v0[elems][:, None])[..., None])[..., 0]
        ref_vals, ref_grads = reference_basis(space.degree, xi.reshape(-1, 2))
        assert x.shape == (len(ids), len(space.edge_points), 2)
        assert np.abs(vals - ref_vals.reshape(vals.shape)).max() < 1e-13
        # physical gradients grow like k / h: compare them relative to their size
        ref_grads = ref_grads.reshape(grads.shape) @ jinv
        assert np.abs(grads - ref_grads).max() < 1e-13 * np.abs(ref_grads).max()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("scrambled", [False, True])
def test_edge_traces_match_the_pullback(k, scrambled, rng):
    if scrambled:
        mesh = TriMesh(*scrambled_mesh_input(4, rng))
    else:
        mesh = build_structured_mesh(3)
    space = DGSpace.build(mesh, k)
    _assert_traces_match_pullback(space)
    finer = space_with_quadrature(mesh, k, edge_order=13)
    assert len(finer.edge_points) > len(space.edge_points)
    _assert_traces_match_pullback(finer)
    # a copy of a space whose traces are cached tabulates its own edge rule
    _assert_traces_match_pullback(
        dataclasses.replace(space, edge_points=finer.edge_points, edge_weights=finer.edge_weights)
    )


def test_edge_traces_reject_a_missing_side():
    space = DGSpace.build(build_structured_mesh(2), 1)
    elems = space.mesh.edges.elems
    interior = np.flatnonzero(elems[:, 1] >= 0)
    boundary = np.flatnonzero(elems[:, 1] < 0)
    space.edge_traces(interior, 1)
    space.edge_traces(boundary, 0)
    ids = np.concatenate([interior[:2], boundary[1:3]])
    with pytest.raises(ValueError, match=f"edge {boundary[1]} has no element on side 1"):
        space.edge_traces(ids, 1)


def test_quadrature_order_override():
    mesh = build_structured_mesh(2)
    space = space_with_quadrature(mesh, 1, elem_order=12, edge_order=13)
    assert len(space.elem_weights) > len(DGSpace.build(mesh, 1).elem_weights)
    assert abs(space.elem_weights.sum() - 0.5) < 1e-14
    assert abs(space.edge_weights.sum() - 1.0) < 1e-14
