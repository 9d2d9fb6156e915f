import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscodg.mesh import EdgeTag, build_structured_mesh, read_mesh


def _areas(m):
    p = m.vertices[m.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _centroids(m):
    return m.vertices[m.triangles].mean(axis=1)


def _mesh_text(vertices, triangles):
    lines = [f"{len(vertices)} {len(triangles)}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in vertices]
    lines += [f"{a} {b} {c}" for a, b, c in triangles]
    return "\n".join(lines)


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
    assert m.n_vertices == 4
    assert len(m.edges) == 5
    assert np.sum(m.edges.elems[:, 1] < 0) == 4


def test_n2_counts_and_area():
    m = build_structured_mesh(2)
    assert m.n_triangles == 8
    assert m.n_vertices == 9
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
    # the lower-right triangle 0 into the upper-left triangle 1
    [diagonal] = np.flatnonzero(e.tag == EdgeTag.INTERIOR)
    assert e.vertices[diagonal].tolist() == [0, 3]
    assert e.elems[diagonal].tolist() == [0, 1]
    assert np.allclose(e.normal[diagonal], np.array([-1.0, 1.0]) / np.sqrt(2.0))


def test_ascii_roundtrip():
    m = build_structured_mesh(2)
    m2 = read_mesh(_mesh_text(m.vertices, m.triangles))
    assert m2.n_triangles == m.n_triangles
    assert len(m2.edges) == len(m.edges)
    assert np.array_equal(m2.edges.tag, m.edges.tag)
    assert np.allclose(m2.edges.normal, m.edges.normal)


def test_ascii_rejects_truncated():
    with pytest.raises(ValueError):
        read_mesh("4 2\n0 0\n1 0")


def test_rejects_zero_area_triangle():
    # triangle 1 has three collinear vertices on the diagonal
    text = "5 3\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n0 1 2\n0 4 2\n0 2 3"
    with pytest.raises(ValueError, match="triangle 1"):
        read_mesh(text)


def test_rejects_mesh_without_dirichlet_edge():
    m = build_structured_mesh(2)
    with pytest.raises(ValueError, match="Dirichlet"):
        read_mesh(_mesh_text(m.vertices + 1.0, m.triangles))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_edge_builder_on_perturbed_relabelled_meshes(n, seed):
    rng = np.random.default_rng(seed)
    base = build_structured_mesh(n)
    v = base.vertices.copy()
    inner = np.all((v > 0) & (v < 1), axis=-1)
    # well below half the smallest altitude, so no triangle inverts
    v[inner] += rng.uniform(-0.2, 0.2, size=(inner.sum(), 2)) / n
    relabel = rng.permutation(len(v))
    vertices = np.empty_like(v)
    vertices[relabel] = v
    triangles = relabel[base.triangles][rng.permutation(base.n_triangles)]
    flip = rng.random(len(triangles)) < 0.5
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    m = read_mesh(_mesh_text(vertices, triangles))
    e = m.edges
    assert np.all(_areas(m) > 0)
    boundary = e.elems[:, 1] < 0
    assert len(e) == (3 * m.n_triangles + boundary.sum()) / 2
    assert m.n_vertices - len(e) + m.n_triangles == 1

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
