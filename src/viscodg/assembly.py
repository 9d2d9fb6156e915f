"""Assembly of the SIPG bilinear form, mass matrices and load vectors.

The material enters through its elastic tensor in index form, D[z, a, c, b]
= ``material.elasticity``: the stress of a displacement gradient g (index
order [component, derivative]) is sigma_za = sum_cb D[z, a, c, b] g_cb.
Dirichlet conditions are imposed weakly through the boundary edge terms
(Nitsche style); Neumann edges contribute only to the load vector.

DOFs are element-contiguous, so every matrix is made of nd x nd element
blocks: one per triangle, on the diagonal, and two per interior edge, coupling
its two triangles.  Local matrices are summed straight into one
(n_blocks, nd, nd) array, which becomes a BSR matrix and then CSR with its
explicit zeros dropped.  On an affine triangle the element stiffness is
quadratic in the inverse Jacobian, K_t = det_t sum Jinv_ab Jinv_cd R[ab, cd],
with R a (16, nd^2) reference tensor tabulated once from the reference
gradients, D and the weights; all elements then take one matrix product.
Edge and load sums are batched matrix products with the weights folded into
one operand.  Every quadrature sum is a BLAS product: a multi-operand einsum
without ``optimize`` runs as nested C loops, and with ``optimize=True`` its
intermediates raise the peak memory of assembly.

Blocks are summed in a fixed order (volume, the consistency terms of the
interior and then the Dirichlet edges, then the penalty matrix J), so
assembling twice with the same BLAS gives identical matrices.  Against a triplet sum the values
differ in the last bits, and entries that cancel may keep a round-off
residue (about 1e-16 max|A|) instead of an exact zero.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .material import PronyMaterial
from .mesh import EdgeTag
from .space import DGSpace

def stress(D: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Stresses (..., 2, 2) of displacement gradients (..., 2, 2)."""
    return (g.reshape(g.shape[:-2] + (4,)) @ D.reshape(4, 4).T).reshape(g.shape)


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of element blocks ``data`` in BSR layout, explicit zeros dropped."""
    n = (len(indptr) - 1) * data.shape[1]
    mat = sp.bsr_matrix((data, indices, indptr), shape=(n, n)).tocsr()
    mat.eliminate_zeros()
    return mat


def _sum_rows(P: sp.csr_matrix, blocks: np.ndarray) -> np.ndarray:
    """Blocks (n, nd, nd) summed by a sparse (n, len(blocks)) incidence matrix."""
    return (P @ blocks.reshape(len(blocks), -1)).reshape((P.shape[0],) + blocks.shape[1:])


def _componentwise(block: np.ndarray) -> np.ndarray:
    """Vector blocks diag(block, block) (..., nd, nd) of scalar blocks (..., nb, nb)."""
    nb = block.shape[-1]
    out = np.zeros(block.shape[:-2] + (2 * nb, 2 * nb))
    out[..., :nb, :nb] = out[..., nb:, nb:] = block
    return out


def _block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    nt = len(blocks)
    return _csr(blocks, np.arange(nt), np.arange(nt + 1))


def assemble_mass(space: DGSpace, weight: float = 1.0) -> sp.csr_matrix:
    """Block-diagonal (weight * v, w) mass matrix."""
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError(f"mass weight {weight} must be positive and finite")
    mref = (space.ref_values.T * space.elem_weights) @ space.ref_values
    return _block_diagonal(_componentwise(weight * space.det_jac[:, None, None] * mref))


def _volume_blocks(space: DGSpace, D: np.ndarray) -> np.ndarray:
    """Element strain-energy blocks (nt, nd, nd) from one reference tensor.

    With physical gradients g = G Jinv, block [(z, i), (c, j)] is
    det sum Jinv_pa Jinv_rb sum_q w_q G_qip G_qjr D[z, a, c, b].
    """
    G = space.ref_grads  # (nq, nb, 2)
    nt, nd = space.mesh.n_triangles, space.dofs_per_element
    Gw = (G * space.elem_weights[:, None, None]).reshape(len(G), -1)
    S = (Gw.T @ G.reshape(len(G), -1)).reshape(nd // 2, 2, nd // 2, 2)  # [i, p, j, r]
    R = np.multiply.outer(S, D)  # [i, p, j, r, z, a, c, b]
    R = R.transpose(1, 5, 3, 7, 4, 0, 6, 2).reshape(16, nd * nd)  # [(p, a, r, b), (z, i, c, j)]
    jinv = space.jac_inv.reshape(nt, 4)
    coef = (space.det_jac[:, None] * jinv)[:, :, None] * jinv[:, None, :]
    return (coef.reshape(nt, 16) @ R).reshape(nt, nd, nd)


def assemble_volume_stiffness(space: DGSpace, material: PronyMaterial) -> sp.csr_matrix:
    """Element-wise strain energy form sum_E int D eps(v) : eps(w)."""
    return _block_diagonal(_volume_blocks(space, material.elasticity))


def _edge_blocks(space: DGSpace, D: np.ndarray, ids: np.ndarray, arity: int, alpha0, beta0):
    """Consistency and penalty blocks of the edges ``ids``, all of one arity.

    Yields (test side r, trial side s >= r, consistency, penalty), the blocks
    (ne, nd, nd) of -int {D eps(w)} : [v (x) n] - int {D eps(v)} : [w (x) n]
    and of alpha0 / |e|^beta0 int [v] . [w]; those of (s, r) are their
    transposes.
    """
    edges = space.mesh.edges
    nb, nd = space.dofs_per_component, space.dofs_per_element
    ne = len(ids)
    length = edges.length[ids]
    wl = space.edge_weights[None, :] * length[:, None]  # (ne, nqe)
    pen = alpha0 / length**beta0
    # normal-contracted tensor: traction_z of the gradient e_c (x) e_b, as [e, b, (z, c)]
    Dn = (edges.normal[ids] @ D.transpose(1, 3, 0, 2).reshape(2, 8)).reshape(ne, 2, 4)
    signs = (1.0, -1.0)[:arity]
    cavg = 0.5 if arity == 2 else 1.0

    vals, wvals, tractions = [], [], []
    for side in range(arity):
        _, v, g = space.edge_traces(ids, side)  # (ne, nqe, nb), (ne, nqe, nb, 2)
        nq = v.shape[1]
        t = (g.reshape(ne, nq * nb, 2) @ Dn).reshape(ne, nq, nb, 2, 2)
        vals.append(v)
        wvals.append(np.swapaxes(v * wl[:, :, None], 1, 2))  # (ne, nb, nqe)
        tractions.append(t.transpose(0, 1, 3, 4, 2).reshape(ne, nq, 2 * nd))  # [q, (z, c, j)]

    def t1(r, s):
        """[(z, i), (c, j)]: int v_i traction_z(e_c phi_j), test side r, trial side s."""
        t = (wvals[r] @ tractions[s]).reshape(ne, nb, 2, nd).transpose(0, 2, 1, 3)
        return t.reshape(ne, nd, nd)

    for r in range(arity):
        for s in range(r, arity):
            consist = (-cavg * signs[r]) * t1(r, s)
            consist -= (cavg * signs[s]) * np.swapaxes(t1(s, r), 1, 2)
            p = (signs[r] * signs[s] * pen)[:, None, None] * (wvals[r] @ vals[s])
            yield r, s, consist, _componentwise(p)


def assemble_sipg(space: DGSpace, material: PronyMaterial, alpha0: float, beta0: float):
    """Full SIPG matrix A and its jump-penalty part J.

    A = volume strain energy - symmetrized consistency edge terms + J, with
    edge terms over interior and Dirichlet edges only.
    """
    if not (math.isfinite(alpha0) and alpha0 > 0):
        raise ValueError(f"penalty parameter alpha0={alpha0} must be positive and finite")
    if not (math.isfinite(beta0) and beta0 >= 1):
        raise ValueError(f"penalty exponent beta0={beta0} must be finite and >= 1 in 2D")
    D = material.elasticity
    nt, nd = space.mesh.n_triangles, space.dofs_per_element
    edges = space.mesh.edges
    interior = np.flatnonzero(edges.tag == EdgeTag.INTERIOR)
    dirichlet = np.flatnonzero(edges.tag == EdgeTag.DIRICHLET)

    # block (row, col) list: the diagonal, then (i, j) and (j, i) per interior edge;
    # slot[b] is where block b sits in the row-sorted BSR data
    pairs = edges.elems[interior]
    rows = np.concatenate([np.arange(nt), pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([np.arange(nt), pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nt))])
    indices = cols[order]
    diag, upper, lower = np.split(slot, [nt, nt + len(interior)])

    a_data = np.zeros((len(slot), nd, nd))
    j_data = np.zeros_like(a_data)
    a_data[diag] = _volume_blocks(space, D)
    for ids, arity in ((interior, 2), (dirichlet, 1)):
        for r, s, consist, penalty in _edge_blocks(space, D, ids, arity, alpha0, beta0):
            if r == s:
                # a triangle is side r of several edges: sum by an incidence product
                elems = edges.elems[ids, r]
                ones = np.ones(len(ids))
                P = sp.csr_matrix((ones, (elems, np.arange(len(ids)))), shape=(nt, len(ids)))
                a_data[diag] += _sum_rows(P, consist)
                j_data[diag] += _sum_rows(P, penalty)
            else:
                a_data[upper] = consist
                a_data[lower] = np.swapaxes(consist, 1, 2)
                j_data[upper] = penalty
                j_data[lower] = np.swapaxes(penalty, 1, 2)
            del consist, penalty  # freed before the generator builds the next pair
    a_data += j_data
    J = _csr(j_data, indices, indptr)
    del j_data  # the two block arrays are the largest temporaries of assembly
    return _csr(a_data, indices, indptr), J


def _element_dofs(space: DGSpace, elems: np.ndarray) -> np.ndarray:
    """DOF blocks (len(elems), nd) of the given elements."""
    nd = space.dofs_per_element
    return elems[:, None] * nd + np.arange(nd)


def _scatter(n: int, dofs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Length-n vector of ``values`` summed into positions ``dofs`` (same shape)."""
    return np.bincount(dofs.ravel(), weights=values.ravel(), minlength=n)


def _coordinates(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous x and y arrays of points (..., 2)."""
    return np.ascontiguousarray(points[..., 0]), np.ascontiguousarray(points[..., 1])


@dataclass(frozen=True)
class SeparableField:
    """Field sum_j coefficients[:, j] F_j at one time level, coefficients (2, m).

    ``fields(*points)`` returns the m scalar fields F_j and depends on the
    points alone.  The field unpacks as (fx, fy), like a plain pair.
    """

    coefficients: np.ndarray
    fields: Callable
    points: tuple

    def __array__(self, dtype=None, copy=None):
        values = np.broadcast_arrays(*self.fields(*self.points))
        return np.asarray(np.tensordot(self.coefficients, values, axes=1), dtype)

    def __iter__(self):
        return iter(self.__array__())


class LoadAssembler:
    """Load vectors at fixed quadrature points, one assembler per run.

    A pair (fx, fy) is contracted with the basis on every call.  The fields of
    a ``SeparableField`` are contracted once, and kept while its ``fields``
    callable stays the same; a call then only combines them.
    """

    def __init__(self, space: DGSpace):
        self.space = space
        self.xq = _coordinates(space.physical_quad_points())  # 2 x (nt, nq)
        self.wdet = space.elem_weights[None, :] * space.det_jac[:, None]
        edges = space.mesh.edges
        self.neumann = np.flatnonzero(edges.tag == EdgeTag.NEUMANN)
        n_x, vals, _ = space.edge_traces(self.neumann, 0)
        # x, y (ne, nqe) and the outward normals (ne, 1, 2)
        self.n_points = (*_coordinates(n_x), edges.normal[self.neumann][:, None, :])
        n_w = space.edge_weights[None, :] * edges.length[self.neumann][:, None]
        self.n_wvals = np.swapaxes(vals * n_w[:, :, None], 1, 2)  # (ne, nb, nqe)
        self.n_dofs = _element_dofs(space, edges.elems[self.neumann, 0])
        self._contracted = {}  # contraction name -> (fields callable, its vectors)

    def _domain_vectors(self, fields) -> np.ndarray:
        """(F_j, v) over the domain, (m, nt, nb)."""
        # one (nt, nq) @ (nq, nb) product per field: stacking the fields for
        # a single product copies more than it saves
        shape, ref = self.wdet.shape, self.space.ref_values
        return np.stack([(np.broadcast_to(f, shape) * self.wdet) @ ref for f in fields])

    def _neumann_vectors(self, fields) -> np.ndarray:
        """(F_j, v) on the Neumann edges, (m, ne, nb)."""
        shape = self.n_points[0].shape
        values = np.stack([np.broadcast_to(f, shape) for f in fields], axis=-1)  # (ne, nqe, m)
        return np.moveaxis(self.n_wvals @ values, -1, 0)

    def _blocks(self, value, contract) -> np.ndarray:
        """Element load blocks (n, 2, nb) of one forcing value."""
        if not isinstance(value, SeparableField):
            return np.swapaxes(contract(value), 0, 1)
        fields, vectors = self._contracted.get(contract.__name__, (None, None))
        if fields != value.fields:
            fields, vectors = value.fields, contract(value.fields(*value.points))
            self._contracted[contract.__name__] = fields, vectors
        return np.swapaxes(np.tensordot(value.coefficients, vectors, axes=1), 0, 1)

    def assemble(self, f=None, g_N=None) -> np.ndarray:
        """Load vector of (f, v) + (g_N, v)_{Gamma_N} for fields bound to one time.

        ``f(x, y) -> (fx, fy)`` over the domain, ``g_N(x, y, n) -> (gx, gy)``
        on the Neumann boundary; either may be None, and either may return a
        ``SeparableField``.
        """
        space = self.space
        nt, nb = space.mesh.n_triangles, space.dofs_per_component
        out = np.zeros(space.total_dofs)
        if f is not None:
            out.reshape(nt, 2, nb)[...] = self._blocks(f(*self.xq), self._domain_vectors)
        if g_N is not None and len(self.neumann):
            blocks = self._blocks(g_N(*self.n_points), self._neumann_vectors)
            out += _scatter(len(out), self.n_dofs, blocks)
        return out


def assemble_elliptic_rhs(
    space: DGSpace, material: PronyMaterial, u0, grad_u0, alpha0: float, beta0: float
) -> np.ndarray:
    """Right-hand side of a(U0, v) = a(u0, v) for a continuous field u0.

    ``u0(x, y) -> (ux, uy)`` and ``grad_u0(x, y) -> (2, 2) arrays`` with
    index order [component, derivative].  Interior jumps of u0 vanish, so
    only the average-stress edge term survives there; Dirichlet edges also
    carry the symmetrizing and penalty terms in u0's trace.
    """
    D = material.elasticity
    nt, nb = space.mesh.n_triangles, space.dofs_per_component
    n = space.total_dofs

    # volume term: int D eps(u0) : eps(phi) = det sum_q w_q sigma_ca G_qip Jinv_pa
    G = space.ref_grads
    nq = len(G)
    sig = stress(D, grad_array(grad_u0, space.physical_quad_points()))  # (nt, nq, 2, 2)
    h = sig @ np.swapaxes(space.jac_inv, 1, 2)[:, None]  # [t, q, c, p]
    wG = (G * space.elem_weights[:, None, None]).transpose(0, 2, 1).reshape(nq * 2, nb)
    loc = (np.swapaxes(h, 1, 2).reshape(nt * 2, nq * 2) @ wG).reshape(nt, 2, nb)
    out = (space.det_jac[:, None, None] * loc).ravel()

    edges = space.mesh.edges
    interior = np.flatnonzero(edges.tag == EdgeTag.INTERIOR)
    dirichlet = np.flatnonzero(edges.tag == EdgeTag.DIRICHLET)
    for ids, signs in ((interior, (1.0, -1.0)), (dirichlet, (1.0,))):
        normal, length = edges.normal[ids], edges.length[ids]
        wl = (space.edge_weights[None, :] * length[:, None])[:, :, None]
        for side, sign in enumerate(signs):
            x, vals, grads = space.edge_traces(ids, side)
            loc = np.zeros((len(ids), 2, nb))
            if side == 0:
                # - int {D eps(u0)} : [phi (x) n]
                integrand = -(stress(D, grad_array(grad_u0, x)) @ normal[:, None, :, None])[..., 0]
            if ids is dirichlet:
                # terms in the trace of u0 itself:
                # alpha0/|e|^beta0 int u0 . phi - int D eps(phi) : (u0 (x) n)
                u = np.stack(np.broadcast_arrays(*u0(x[..., 0], x[..., 1])), axis=-1)
                integrand += (alpha0 / length**beta0)[:, None, None] * u
                un = stress(D, u[..., :, None] * normal[:, None, None, :]) * wl[..., None]
                un = np.swapaxes(un, 1, 2).reshape(len(ids), 2, -1)  # [e, c, (q, b)]
                loc -= un @ np.swapaxes(grads, 2, 3).reshape(len(ids), -1, nb)  # [(q, b), j]
            loc += sign * (np.swapaxes(integrand * wl, 1, 2) @ vals)
            out += _scatter(n, _element_dofs(space, edges.elems[ids, side]), loc)
    return out


def grad_array(grad_u0, x: np.ndarray) -> np.ndarray:
    """Evaluate a gradient callable on point arrays, returning (..., 2, 2)."""
    g = grad_u0(x[..., 0], x[..., 1])
    g = np.asarray(g, dtype=float)
    if g.shape[:2] == (2, 2):
        g = np.moveaxis(g, (0, 1), (-2, -1))
    return np.broadcast_to(g, x.shape[:-1] + (2, 2))


@dataclass
class AssembledSystem:
    """The three matrices of the schemes, plus the penalty parameters that built them."""

    M: sp.csr_matrix  # rho-weighted mass
    A: sp.csr_matrix  # full SIPG form
    J: sp.csr_matrix  # jump penalty part
    alpha0: float
    beta0: float


def assemble_system(
    space: DGSpace, material: PronyMaterial, alpha0: float = 10.0, beta0: float = 1.0
) -> AssembledSystem:
    A, J = assemble_sipg(space, material, alpha0, beta0)
    return AssembledSystem(assemble_mass(space, material.rho), A, J, alpha0, beta0)
