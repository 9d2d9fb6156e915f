"""Vector-valued discontinuous P_k spaces on triangles.

A Lagrange nodal basis is built on the uniform lattice of the reference
triangle {(xi, eta): xi, eta >= 0, xi + eta <= 1}.  Both displacement
components share this scalar basis; within an element block the DOFs are
component-major (all x-component coefficients, then all y-component ones).

Quadrature on the reference triangle is a collapsed (Duffy) tensor-product
Gauss rule, which has positive weights at any order.  Edge quadrature is
Gauss-Legendre on [0, 1].  Edge traces are rows of one table of the basis on
the reference sides (the face masks of Hesthaven & Warburton, 2008).
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .mesh import TriMesh


def _lattice_nodes(k: int) -> np.ndarray:
    nodes = [(i / k, j / k) for j in range(k + 1) for i in range(k + 1 - j)]
    return np.array(nodes)


def _monomial_exponents(k: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(k + 1) for i in range(k + 1 - j)]


@lru_cache(maxsize=None)
def _basis_coefficients(k: int) -> np.ndarray:
    """Columns are monomial coefficients of each Lagrange basis function.

    The monomial Vandermonde V of the lattice nodes grows about 12 times worse
    conditioned per degree: a degree whose inverse C misses V C = I by more
    than the solver's residual tolerance, 1e-8, raises ValueError.  k <= 10 passes.
    """
    nodes = _lattice_nodes(k)
    exps = _monomial_exponents(k)
    vander = np.array([[x**a * y**b for (a, b) in exps] for x, y in nodes])
    coeffs = np.linalg.inv(vander)
    residual = np.abs(vander @ coeffs - np.eye(len(nodes))).max()
    if not residual <= 1e-8:
        message = f"max|V C - I| = {residual:.1e} > 1e-8"
        raise ValueError(f"degree k={k} is too high for the monomial basis: {message}")
    return coeffs


def reference_basis(k: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of the scalar P_k Lagrange basis at points ``p``.

    ``p`` is an array (m, 2) of reference points.  Returns arrays of shape
    (m, nb) and (m, nb, 2) with nb = (k+1)(k+2)/2.
    """
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k}")
    pts = np.asarray(p, dtype=float)
    exps = _monomial_exponents(k)
    coeffs = _basis_coefficients(k)  # (n_mono, nb) after inversion
    x, y = pts[:, 0], pts[:, 1]
    mono = np.stack([x**a * y**b for (a, b) in exps], axis=-1)
    dmono_x = np.stack([a * x ** max(a - 1, 0) * y**b for (a, b) in exps], axis=-1)
    dmono_y = np.stack([b * x**a * y ** max(b - 1, 0) for (a, b) in exps], axis=-1)
    values = mono @ coeffs
    grads = np.stack([dmono_x @ coeffs, dmono_y @ coeffs], axis=-1)
    return values, grads


def _gauss_01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_quadrature(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Duffy-collapsed Gauss rule on the reference triangle.

    Exact for polynomials of total degree <= ``order``; weights are positive
    and sum to the triangle area 1/2.
    """
    # the (1 - xi) Jacobian raises the xi-degree by one
    m = (order + 2) // 2 + 1
    s, ws = _gauss_01(m)
    t, wt = _gauss_01(m)
    xi = np.repeat(s, m)
    eta = np.tile(t, m) * (1.0 - xi)
    w = np.repeat(ws, m) * np.tile(wt, m) * (1.0 - xi)
    return np.column_stack([xi, eta]), w


def edge_quadrature(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1], exact for degree <= ``order``."""
    m = order // 2 + 1
    return _gauss_01(m)


def quadrature_rules(k: int):
    """Element and edge rules sized for the degree-k forms and data terms.

    The orders exceed the 2k needed by the bilinear form so that load
    vectors and error norms of smooth non-polynomial data are integrated
    well below the discretization error.
    """
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k}")
    elem = triangle_quadrature(max(2 * k + 2, 6))
    edge = edge_quadrature(max(2 * k + 3, 7))
    return elem, edge


@dataclass(frozen=True)
class DGSpace:
    """Discontinuous vector P_k space with cached per-element geometry.

    Element t owns the contiguous DOF block
    [t * dofs_per_element, (t+1) * dofs_per_element).
    """

    mesh: TriMesh
    degree: int
    elem_points: np.ndarray  # (nq, 2) reference coordinates
    elem_weights: np.ndarray  # (nq,)
    edge_points: np.ndarray  # (nqe,) on [0, 1]
    edge_weights: np.ndarray  # (nqe,)
    ref_values: np.ndarray  # (nq, nb)
    ref_grads: np.ndarray  # (nq, nb, 2)
    v0: np.ndarray  # (nt, 2) first vertex of each element
    jac: np.ndarray  # (nt, 2, 2) affine map columns
    jac_inv: np.ndarray  # (nt, 2, 2)
    det_jac: np.ndarray  # (nt,)

    @classmethod
    def build(cls, mesh: TriMesh, degree: int) -> "DGSpace":
        (qp, qw), (ep, ew) = quadrature_rules(degree)
        vals, grads = reference_basis(degree, qp)
        p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
        v0 = p[:, 0]
        jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1] / det
        inv[:, 0, 1] = -jac[:, 0, 1] / det
        inv[:, 1, 0] = -jac[:, 1, 0] / det
        inv[:, 1, 1] = jac[:, 0, 0] / det
        return cls(mesh, degree, qp, qw, ep, ew, vals, grads, v0, jac, inv, det)

    @property
    def dofs_per_component(self) -> int:
        return (self.degree + 1) * (self.degree + 2) // 2

    @property
    def dofs_per_element(self) -> int:
        return 2 * self.dofs_per_component

    @property
    def total_dofs(self) -> int:
        return self.mesh.n_triangles * self.dofs_per_element

    def physical_quad_points(self) -> np.ndarray:
        """Element quadrature points in physical coordinates, (nt, nq, 2)."""
        return self.v0[:, None, :] + self.elem_points @ np.swapaxes(self.jac, 1, 2)

    # cached on first use, not in build: a copy with another edge rule
    # (dataclasses.replace) starts with an empty cache
    @cached_property
    def _side_traces(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis values (6, nqe, nb) and reference gradients (6, nqe, nb, 2) at
        the edge points on the reference sides; row 2i + j - (j > i) runs from
        vertex i to vertex j."""
        # _lattice_nodes(1) are the reference vertices
        ends = _lattice_nodes(1)[[(i, j) for i in range(3) for j in range(3) if i != j]]
        xi = ends[:, None, 0] + self.edge_points[:, None] * (ends[:, None, 1] - ends[:, None, 0])
        vals, grads = reference_basis(self.degree, xi.reshape(-1, 2))
        shape = (6, len(self.edge_points), self.dofs_per_component)
        return vals.reshape(shape), grads.reshape(shape + (2,))

    @cached_property
    def _edge_trace_row(self) -> np.ndarray:
        """Side-trace row of every edge on each side (n_edges, 2); junk where elems is -1."""
        edges = self.mesh.edges
        corners = self.mesh.triangles[edges.elems]  # (ne, 2, 3)
        # local vertex of each edge endpoint, [edge, side, endpoint]
        local = np.argmax(corners[:, :, None, :] == edges.vertices[:, None, :, None], axis=-1)
        i, j = local[..., 0], local[..., 1]
        return 2 * i + j - (j > i)

    def edge_traces(self, edge_ids: np.ndarray, side: int):
        """Traces on one incident element (``side`` 0 or 1) of the given edges.

        Returns the physical quadrature points (ne, nqe, 2), the scalar basis
        values (ne, nqe, nb) and their physical gradients (ne, nqe, nb, 2).
        Raises ValueError if an edge has no element on that side.
        """
        edges = self.mesh.edges
        elems = edges.elems[edge_ids, side]
        if np.any(elems < 0):
            first = np.asarray(edge_ids)[elems < 0][0]
            raise ValueError(f"edge {first} has no element on side {side}")
        p = self.mesh.vertices[edges.vertices[edge_ids]]  # (ne, 2, 2)
        p0, p1 = p[:, 0], p[:, 1]
        x = p0[:, None, :] + self.edge_points[None, :, None] * (p1 - p0)[:, None, :]
        rows = self._edge_trace_row[edge_ids, side]
        vals, grads = self._side_traces
        return x, vals[rows], grads[rows] @ self.jac_inv[elems][:, None]

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate the DG field at all element quadrature points, (nt, nq, 2)."""
        c = coeffs.reshape(-1, self.dofs_per_component)
        return np.swapaxes((c @ self.ref_values.T).reshape(self.mesh.n_triangles, 2, -1), 1, 2)

    def evaluate_gradients(self, coeffs: np.ndarray) -> np.ndarray:
        """Gradients of the DG field at element quadrature points, (nt, nq, 2, 2).

        Index order is [element, point, component, derivative].
        """
        nt, nb = self.mesh.n_triangles, self.dofs_per_component
        nq = len(self.ref_grads)
        # reference gradients of the field, then g_phys = g_ref @ jac_inv
        g = coeffs.reshape(nt * 2, nb) @ np.swapaxes(self.ref_grads, 0, 1).reshape(nb, nq * 2)
        return np.swapaxes(g.reshape(nt, 2, nq, 2), 1, 2) @ self.jac_inv[:, None]
