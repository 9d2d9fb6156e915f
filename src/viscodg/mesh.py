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

# geometric tolerance for boundary classification of imported meshes
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
    ValueError for a degenerate triangle (named by its given index), a
    boundary edge off the sides of the unit square, or a mesh without
    Dirichlet edges.
    """

    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3) vertex indices, counterclockwise
    edges: Edges = field(init=False)
    h: float = field(init=False)

    def __post_init__(self):
        p = self.vertices[self.triangles]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        bad = np.flatnonzero(area2 <= _DEGENERATE_TOL * np.sum(e1 * e1 + e2 * e2, axis=-1))
        if bad.size:
            t = bad[0]
            raise ValueError(
                f"triangle {t} (vertices {self.triangles[t].tolist()}) has zero or negative area"
            )
        triangles, edges = _build_edges(self.vertices, self.triangles)
        if not np.any(edges.tag == EdgeTag.DIRICHLET):
            raise ValueError("mesh has no Dirichlet edge on x=0 or y=0; the SIPG form is singular")
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
    pairs, edge_of_side, counts = np.unique(
        sides.reshape(-1, 2), axis=0, return_inverse=True, return_counts=True
    )
    if counts.max() > 2:
        e = int(np.argmax(counts))
        raise ValueError(f"edge {tuple(pairs[e].tolist())} shared by {counts[e]} triangles")

    owner = np.argsort(edge_of_side.ravel()) // 3
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


def read_mesh(text: str) -> TriMesh:
    """Parse the ASCII mesh format: ``nv nt`` header, vertex lines, triangle lines.

    The mesh must cover the unit square: boundary edges are classified
    geometrically (Dirichlet on x=0 or y=0, Neumann on x=1 or y=1), and a
    boundary edge on none of these sides raises ValueError.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("mesh file too short")
    nv, nt = int(tokens[0]), int(tokens[1])
    need = 2 + 2 * nv + 3 * nt
    if len(tokens) < need:
        raise ValueError(f"mesh file truncated: expected {need} tokens, got {len(tokens)}")
    vals = np.array(tokens[2 : 2 + 2 * nv], dtype=float)
    vertices = vals.reshape(nv, 2)
    tris = np.array(tokens[2 + 2 * nv : need], dtype=np.int64).reshape(nt, 3)
    if tris.min() < 0 or tris.max() >= nv:
        raise ValueError("triangle vertex index out of range")
    # enforce CCW orientation
    p = vertices[tris]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    clockwise = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
    return TriMesh(vertices, tris)
