import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scrambled_mesh_input

from viscodg.assembly import assemble_system
from viscodg.cli import manufactured_reports
from viscodg.mesh import EdgeTag, TriMesh, build_structured_mesh
from viscodg.space import DGSpace
from viscodg.stepper import Scheme


def _areas(m):
    p = m.vertices[m.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _centroids(m):
    return m.vertices[m.triangles].mean(axis=1)


def _reference_edges(vertices, triangles):
    """Per-edge loop over a dict of triangle sides: the oracle for the array builder."""
    incidence = {}
    for t, tri in enumerate(triangles):
        for a in range(3):
            key = tuple(sorted((int(tri[a]), int(tri[(a + 1) % 3]))))
            incidence.setdefault(key, []).append(t)
    rows = []
    for (v0, v1), tris in sorted(incidence.items()):
        p0, p1 = vertices[v0], vertices[v1]
        tangent = p1 - p0
        length = float(np.linalg.norm(tangent))
        normal = np.array([tangent[1], -tangent[0]]) / length
        c0 = vertices[triangles[tris[0]]].mean(axis=0)
        if len(tris) == 2:
            away = vertices[triangles[tris[1]]].mean(axis=0) - c0
            tag = EdgeTag.INTERIOR
        else:
            mid = 0.5 * (p0 + p1)
            away = mid - c0
            tag = EdgeTag.DIRICHLET if min(mid) < 1e-12 else EdgeTag.NEUMANN
        if np.dot(normal, away) < 0:
            normal = -normal
        rows.append(((v0, v1), (tris + [-1])[:2], normal, length, tag))
    return rows


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


def test_unit_mesh_counts():
    m = build_structured_mesh(1)
    assert m.n_triangles == 2
    assert len(m.vertices) == 4
    assert len(m.edges) == 5
    assert np.sum(m.edges.elems[:, 1] < 0) == 4


def test_n2_counts_and_area():
    m = build_structured_mesh(2)
    assert m.n_triangles == 8
    assert len(m.vertices) == 9
    assert len(m.edges) == 16
    assert abs(_areas(m).sum() - 1.0) < 1e-13


def test_boundary_classification_n4():
    m = build_structured_mesh(4)
    dirichlet = m.edges.tag == EdgeTag.DIRICHLET
    neumann = m.edges.tag == EdgeTag.NEUMANN
    assert dirichlet.sum() == 8
    assert neumann.sum() == 8
    assert np.abs(m.edges.length[dirichlet | neumann] - 0.25).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16])
def test_mesh_invariants(n):
    m = build_structured_mesh(n)
    e = m.edges
    assert abs(_areas(m).sum() - 1.0) < 1e-13
    # Euler-style edge count: #edges = (3 #tri + #boundary) / 2
    boundary = e.elems[:, 1] < 0
    assert len(e) == (3 * m.n_triangles + boundary.sum()) / 2
    # h is the hypotenuse of one cell
    assert abs(m.h - np.sqrt(2.0) / n) < 1e-14
    assert np.abs(np.linalg.norm(e.normal, axis=-1) - 1.0).max() < 1e-14
    p0, p1 = m.vertices[e.vertices[:, 0]], m.vertices[e.vertices[:, 1]]
    assert np.abs(e.length - np.linalg.norm(p1 - p0, axis=-1)).max() < 1e-14
    assert np.array_equal(e.tag == EdgeTag.INTERIOR, ~boundary)
    inner = e.elems[~boundary]
    assert np.all(inner[:, 0] < inner[:, 1])
    c = _centroids(m)
    assert np.all(np.sum(e.normal[~boundary] * (c[inner[:, 1]] - c[inner[:, 0]]), axis=-1) > 0)


def test_element_geometry_examples():
    m1 = build_structured_mesh(1)
    assert np.allclose(_areas(m1), 0.5, atol=1e-14)
    m2 = build_structured_mesh(2)
    assert np.allclose(_areas(m2), 0.125, atol=1e-14)
    # every edge normal is perpendicular to its edge
    e = m1.edges
    tangent = m1.vertices[e.vertices[:, 1]] - m1.vertices[e.vertices[:, 0]]
    assert np.abs(np.sum(e.normal * tangent, axis=-1)).max() < 1e-14
    # the diagonal of the unit cell, shared by its two triangles, points from
    # triangle 0 into triangle 1; the element order decides which of the
    # lower-right and upper-left triangles is 0, so they are told apart by
    # their centroids
    [diagonal] = np.flatnonzero(e.tag == EdgeTag.INTERIOR)
    assert e.vertices[diagonal].tolist() == [0, 3]
    assert e.elems[diagonal].tolist() == [0, 1]
    c = _centroids(m1)
    [lower_right] = np.flatnonzero(np.abs(c - [2 / 3, 1 / 3]).max(axis=-1) < 1e-14)
    [upper_left] = np.flatnonzero(np.abs(c - [1 / 3, 2 / 3]).max(axis=-1) < 1e-14)
    assert {int(lower_right), int(upper_left)} == {0, 1}
    from_0_into_1 = np.array([-1.0, 1.0] if lower_right == 0 else [1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(e.normal[diagonal], from_0_into_1)


def test_rejects_non_finite_vertex():
    m = build_structured_mesh(2)
    vertices = m.vertices.copy()
    vertices[4, 0] = np.nan
    with pytest.raises(ValueError, match=r"vertex 4 has a non-finite coordinate \(nan, 0.5\)"):
        TriMesh(vertices, m.triangles)


@pytest.mark.parametrize("bad", [-1, -5, 9, 14])
def test_rejects_a_vertex_index_out_of_range(bad):
    # -1 would wrap around to the last vertex, (1, 1), which triangle 5 holds
    m = build_structured_mesh(2)
    triangles = m.triangles.copy()
    triangles[5, triangles[5] == 8] = bad
    message = rf"triangle 5 \(vertices \[.*{bad}.*\]\) has an index outside \[0, 9\)"
    with pytest.raises(ValueError, match=message):
        TriMesh(m.vertices, triangles)


@pytest.mark.parametrize(
    "triangles, message",
    [
        (np.array([[0, 1, 4], [0, 4, 3]], dtype=float), r"integer \(nt, 3\) array, got float64"),
        (np.array([[0, 1], [0, 4]]), r"integer \(nt, 3\) array, got int64 of shape \(2, 2\)"),
        (np.array([0, 1, 4]), r"integer \(nt, 3\) array, got int64 of shape \(3,\)"),
    ],
    ids=["float", "pairs", "flat"],
)
def test_rejects_triangles_that_are_not_integer_triples(triangles, message):
    m = build_structured_mesh(2)
    with pytest.raises(ValueError, match=message):
        TriMesh(m.vertices, triangles)


def test_rejects_vertices_that_are_not_pairs():
    m = build_structured_mesh(2)
    with pytest.raises(ValueError, match=r"an \(nv, 2\) array, got shape \(9, 3\)"):
        TriMesh(np.zeros((9, 3)), m.triangles)


def test_rejects_a_mesh_without_triangles_or_vertices():
    m = build_structured_mesh(2)
    no_triangles = np.zeros((0, 3), dtype=np.int64)
    for vertices in (m.vertices, np.zeros((0, 2))):
        with pytest.raises(ValueError, match="mesh has no triangles"):
            TriMesh(vertices, no_triangles)
    with pytest.raises(ValueError, match=r"triangle 0 \(vertices .*\) has an index outside \[0, 0\)"):
        TriMesh(np.zeros((0, 2)), m.triangles)


def test_rejects_zero_area_triangle():
    # triangle 1 has three collinear vertices on the diagonal
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    triangles = np.array([[0, 1, 2], [0, 4, 2], [0, 2, 3]])
    with pytest.raises(ValueError, match="triangle 1"):
        TriMesh(vertices, triangles)


def test_rejects_clockwise_triangle():
    m = build_structured_mesh(2)
    triangles = m.triangles.copy()
    triangles[3] = triangles[3, [0, 2, 1]]
    with pytest.raises(ValueError, match=r"triangle 3 \(vertices .*\) has zero or negative area"):
        TriMesh(m.vertices, triangles)


def test_rejects_mesh_without_dirichlet_edge():
    m = build_structured_mesh(2)
    with pytest.raises(ValueError, match="Dirichlet"):
        TriMesh(m.vertices + 1.0, m.triangles)


def test_rejects_boundary_off_the_unit_square():
    # shifted to [-1,0]x[0,1], x=-1 and x=0 would both pass for Dirichlet sides
    m = build_structured_mesh(2)
    with pytest.raises(ValueError, match="unit square"):
        TriMesh(m.vertices - [1.0, 0.0], m.triangles)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_edge_builder_on_perturbed_relabelled_meshes(n, seed):
    m = TriMesh(*scrambled_mesh_input(n, np.random.default_rng(seed)))
    e = m.edges
    assert np.all(_areas(m) > 0)
    boundary = e.elems[:, 1] < 0
    assert len(e) == (3 * m.n_triangles + boundary.sum()) / 2
    assert len(m.vertices) - len(e) + m.n_triangles == 1

    # each triangle side is exactly one edge, and that edge lists the triangle
    index = {tuple(pair): i for i, pair in enumerate(e.vertices.tolist())}
    assert len(index) == len(e)
    hits = np.zeros(len(e), dtype=int)
    for t, tri in enumerate(m.triangles.tolist()):
        for a in range(3):
            i = index[tuple(sorted((tri[a], tri[(a + 1) % 3])))]
            assert t in e.elems[i]
            hits[i] += 1
    assert np.array_equal(hits, np.where(boundary, 1, 2))

    assert np.abs(np.linalg.norm(e.normal, axis=-1) - 1.0).max() < 1e-14
    c = _centroids(m)
    inner_e = e.elems[~boundary]
    assert np.all(inner_e[:, 0] < inner_e[:, 1])
    assert np.all(np.sum(e.normal[~boundary] * (c[inner_e[:, 1]] - c[inner_e[:, 0]]), axis=-1) > 0)
    mid = 0.5 * (m.vertices[e.vertices[boundary, 0]] + m.vertices[e.vertices[boundary, 1]])
    outward = np.where(mid < 1e-12, -1.0, 0.0) + np.where(mid > 1 - 1e-12, 1.0, 0.0)
    assert np.allclose(e.normal[boundary], outward, atol=1e-14)

    p = m.vertices[m.triangles]
    sides = np.linalg.norm(p - np.roll(p, -1, axis=1), axis=-1)
    assert m.h == pytest.approx(sides.max(), rel=1e-15)

    reference = _reference_edges(m.vertices, m.triangles)
    assert e.vertices.tolist() == [list(r[0]) for r in reference]
    assert e.elems.tolist() == [r[1] for r in reference]
    assert e.tag.tolist() == [r[4] for r in reference]
    # same arithmetic as the reference; the bound only allows for a BLAS dot
    # that rounds differently when called per vector
    assert np.abs(e.normal - np.array([r[2] for r in reference])).max() <= 1e-15
    assert np.abs(e.length - np.array([r[3] for r in reference])).max() <= 1e-15


def _short_run_norms(mesh, case):
    """The six error norms after two steps of each form, k=1."""
    system = assemble_system(DGSpace.build(mesh, 1), case.material, alpha0=10.0)
    reports = manufactured_reports(system, list(Scheme), [0.25], 0.5)
    return np.array([reports[scheme, 0.25].as_row() for scheme in Scheme])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_element_numbering_does_not_change_the_solution(case, seed):
    # the elements come back in elimination order whatever order they were
    # given in; the discrete solution is the same up to rounding
    base = build_structured_mesh(4)
    vertices, given_triangles = scrambled_mesh_input(4, np.random.default_rng(seed), amplitude=0.0)
    m = TriMesh(vertices, given_triangles)
    # each given triangle appears exactly once
    assert sorted(map(sorted, m.triangles.tolist())) == sorted(map(sorted, given_triangles.tolist()))
    assert np.all(_areas(m) > 0)

    reference = _short_run_norms(base, case)
    assert np.all(reference > 0)
    assert np.all(np.abs(_short_run_norms(m, case) - reference) <= 1e-10 * reference)


def test_renumbering_leaves_the_callers_triangles_alone():
    base = build_structured_mesh(3)
    given = base.triangles[::-1].copy()
    m = TriMesh(base.vertices, given)
    assert np.array_equal(given, base.triangles[::-1])
    assert m.triangles is not given
