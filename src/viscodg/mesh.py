"""Triangular meshes of the unit square with DG edge topology.

The solver needs, beyond vertices and triangles, a full description of every
edge: which element(s) it belongs to, a consistently oriented unit normal,
its length, and a boundary tag.  Edges are stored as one struct of arrays,
sorted by their (ascending) vertex pair.  The convention used throughout is
that the normal of an interior edge shared by triangles ``i < j`` points from
``i`` to ``j``, and boundary normals point out of the domain.
"""

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .linalg import minimum_degree_order

# geometric tolerance for boundary classification
_BOUNDARY_TOL = 1e-12
# twice the area of a triangle, relative to its squared sides, below which it is degenerate
_DEGENERATE_TOL = 1e-12


class EdgeTag(IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    NEUMANN = 2


@dataclass(frozen=True)
class Edges:
    """Edge topology as arrays, one row per edge."""

    vertices: np.ndarray  # (ne, 2) endpoint vertex ids, ascending
    elems: np.ndarray  # (ne, 2) incident triangles, ascending; -1 in column 1 on the boundary
    normal: np.ndarray  # (ne, 2) unit normals
    length: np.ndarray  # (ne,)
    tag: np.ndarray  # (ne,) EdgeTag values

    def __len__(self) -> int:
        return len(self.length)


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation with precomputed edge topology.

    Triangles come back in elimination order: ``triangles`` holds the given
    triangles renumbered by minimum degree on the element adjacency graph,
    so the element-contiguous DOF numbering of a DG space is a fill-reducing
    order for its matrices.  The caller's array is not modified.

    Immutable after construction; safe to share between threads.  Raises
    ValueError for vertices not (nv, 2) or with a non-finite coordinate,
    triangles not an integer (nt, 3) array or with no rows, a triangle with
    an index outside [0, nv) or that is degenerate or clockwise (named by its
    given index), a boundary edge off the sides of the unit square, or a mesh
    without Dirichlet edges.
    """

    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3) vertex indices, counterclockwise
    edges: Edges = field(init=False)
    h: float = field(init=False)

    def __post_init__(self):
        vertices, triangles = np.asarray(self.vertices), np.asarray(self.triangles)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError(f"vertices must be an (nv, 2) array, got shape {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3 or triangles.dtype.kind not in "iu":
            shape = f"{triangles.dtype} of shape {triangles.shape}"
            raise ValueError(f"triangles must be an integer (nt, 3) array, got {shape}")
        if not len(triangles):
            raise ValueError("mesh has no triangles")
        nv = len(vertices)
        bad = np.flatnonzero(((triangles < 0) | (triangles >= nv)).any(axis=-1))
        if bad.size:
            t, tri = bad[0], triangles[bad[0]].tolist()
            raise ValueError(f"triangle {t} (vertices {tri}) has an index outside [0, {nv})")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=-1))
        if bad.size:
            v = bad[0]
            coords = tuple(vertices[v].tolist())
            raise ValueError(f"vertex {v} has a non-finite coordinate {coords}")
        p = vertices[triangles]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        bad = np.flatnonzero(area2 <= _DEGENERATE_TOL * np.sum(e1 * e1 + e2 * e2, axis=-1))
        if bad.size:
            t = bad[0]
            raise ValueError(
                f"triangle {t} (vertices {triangles[t].tolist()}) has zero or negative area"
            )
        triangles, edges = _build_edges(vertices, triangles)
        if not np.any(edges.tag == EdgeTag.DIRICHLET):
            raise ValueError("mesh has no Dirichlet edge on x=0 or y=0; the SIPG form is singular")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "h", float(edges.length.max()))

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def _build_edges(vertices: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, Edges]:
    """The triangles renumbered in elimination order, and the edges in that numbering."""
    # side a of every triangle joins local vertices a and a+1 (mod 3)
    sides = np.sort(np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=-1), axis=-1)
    # one key a nv + b per sorted vertex pair (a, b) sorts as the pairs do
    nv = len(vertices)
    ends = sides.reshape(-1, 2).astype(np.int64)
    keys, edge_of_side, counts = np.unique(
        ends[:, 0] * nv + ends[:, 1], return_inverse=True, return_counts=True
    )
    pairs = np.stack(np.divmod(keys, nv), axis=-1).astype(triangles.dtype)
    if counts.max() > 2:
        e = int(np.argmax(counts))
        raise ValueError(f"edge {tuple(pairs[e].tolist())} shared by {counts[e]} triangles")

    owner = np.argsort(edge_of_side) // 3
    first = np.cumsum(counts) - counts
    interior = counts == 2
    neighbours = np.stack([owner[first[interior]], owner[first[interior] + 1]], axis=-1)

    order = minimum_degree_order(len(triangles), neighbours)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    triangles = triangles[order]
    elems = np.full((len(pairs), 2), -1, dtype=np.int64)
    elems[:, 0] = rank[owner[first]]
    elems[interior, 0] = rank[neighbours].min(axis=-1)
    elems[interior, 1] = rank[neighbours].max(axis=-1)

    p0, p1 = vertices[pairs[:, 0]], vertices[pairs[:, 1]]
    tangent = p1 - p0
    # a dot product per row rounds like np.linalg.norm of each tangent, so
    # lengths (and the assembled matrices) do not depend on the batching
    length = np.sqrt((tangent[:, None, :] @ tangent[:, :, None]).ravel())
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1) / length[:, None]
    # orient from the lower-index triangle to the higher one, or out of the domain
    centroid = vertices[triangles].mean(axis=1)
    mid = 0.5 * (p0 + p1)
    away = np.where(interior[:, None], centroid[elems[:, 1]], mid) - centroid[elems[:, 0]]
    normal[np.sum(normal * away, axis=-1) < 0] *= -1.0

    on_side = (np.abs(mid) < _BOUNDARY_TOL) | (np.abs(mid - 1.0) < _BOUNDARY_TOL)
    off = np.flatnonzero(~interior & ~on_side.any(axis=-1))
    if off.size:
        e = off[0]
        raise ValueError(
            f"boundary edge {tuple(pairs[e].tolist())} (midpoint {tuple(mid[e].tolist())}) is"
            " not on a side of the unit square, the only domain whose Dirichlet (x=0, y=0)"
            " and Neumann (x=1, y=1) sides are known"
        )
    dirichlet = (mid[:, 0] < _BOUNDARY_TOL) | (mid[:, 1] < _BOUNDARY_TOL)
    tag = np.where(
        interior, EdgeTag.INTERIOR, np.where(dirichlet, EdgeTag.DIRICHLET, EdgeTag.NEUMANN)
    )
    return triangles, Edges(pairs, elems, normal, length, tag)


def build_structured_mesh(n: int) -> TriMesh:
    """Uniform n-by-n triangulation of the unit square.

    Each grid cell is split along its lower-left to upper-right diagonal,
    giving 2n^2 congruent right triangles with h = sqrt(2)/n.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")

    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    # cells row by row; a, b, c, d are the lower-left, lower-right,
    # upper-right and upper-left corners
    iy, ix = np.divmod(np.arange(n * n), n)
    a = iy * (n + 1) + ix
    b, c, d = a + 1, a + n + 2, a + n + 1
    lower_right = np.stack([a, b, c], axis=-1)
    upper_left = np.stack([a, c, d], axis=-1)
    triangles = np.stack([lower_right, upper_left], axis=1).reshape(-1, 3).astype(np.int64)
    return TriMesh(vertices, triangles)
