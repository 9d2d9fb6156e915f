"""Assembly of the SIPG bilinear form, mass matrices and load vectors.

The material enters through its elastic tensor in index form, D[z, a, c, b]
= ``material.elasticity``: the stress of a displacement gradient g (index
order [component, derivative]) is sigma_za = sum_cb D[z, a, c, b] g_cb.
Dirichlet conditions are imposed weakly through the boundary edge terms
(Nitsche style); Neumann edges contribute only to the load vector.

``assemble_system`` builds the three matrices of the schemes, the
rho-weighted mass M, the SIPG form A and its penalty part J, in one pass over
one block layout.  DOFs are element-contiguous, so every matrix is made of
nd x nd element blocks: one per triangle, on the diagonal, and two per interior
edge, coupling its two triangles.  The local matrices of A and J are summed
straight into one (n_blocks, nd, nd) array each (J's, which act on each
displacement component alone, as scalar blocks expanded once), which becomes a
BSR matrix and then CSR.  M's blocks are rho det_t times the reference mass
block, so its CSR arrays are written from that block's nonzeros (i, j), which
also place M's entries in A: A keeps a zero where J or M has an entry.  A step
matrix c_M M + c_A A + c_J J (``AssembledSystem.combine``) is then one new
data vector that shares A's index arrays.

Volume and edge blocks are geometry times reference tables.  On an affine
triangle the element stiffness is quadratic in the inverse Jacobian,
K_t = det_t sum Jinv_ab Jinv_cd R[ab, cd],
with R a (16, nd^2) reference tensor tabulated once from the reference
gradients, D and the weights; all elements then take one matrix product.  An
edge meets each triangle on one of the 6 directed sides of the reference
triangle (its side row), so the traction term of a test row r and a trial row
s is |e| Jinv_pb n_a (8 numbers) times a table C[r, s] (8, nd^2), and the
penalty is alpha0 times the reference edge mass P[r, s] (nb, nb), with no
per-edge quadrature.  A triangle meets each side row at most once: the
diagonal edge blocks of all triangles are one (nt, 48) @ (48, nd^2) product
plus its transpose, and the couplings of the interior edges one product per
pair of side rows.
Load sums are batched matrix products with the weights folded into one
operand.  Every quadrature sum is a BLAS product: a multi-operand einsum
without ``optimize`` runs as nested C loops, and with ``optimize=True`` its
intermediates raise the peak memory of assembly.

Blocks are summed in a fixed order (edge consistency terms, then volume, then
the penalty matrix J), so assembling twice with the same BLAS gives identical
matrices.  Against a per-edge quadrature and triplet sum the values differ in
the last bits, and entries that cancel may keep a round-off residue (about
1e-16 max|A|) instead of an exact zero.

A ``LoadAssembler`` holds the quadrature points of one space.  A forcing
given there as a ``SeparableField``, coefficients times spatial fields, has
its fields evaluated at those points and contracted with the basis once;
each later time level only combines the contractions.
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


def _componentwise(block: np.ndarray) -> np.ndarray:
    """Vector blocks diag(block, block) (..., nd, nd) of scalar blocks (..., nb, nb)."""
    nb = block.shape[-1]
    out = np.zeros(block.shape[:-2] + (2 * nb, 2 * nb))
    out[..., :nb, :nb] = out[..., nb:, nb:] = block
    return out


def volume_blocks(space: DGSpace, D: np.ndarray) -> np.ndarray:
    """Element strain-energy blocks (nt, nd, nd), A's volume part, from one reference tensor.

    Block t is int_t D eps(v) : eps(w) on triangle t's DOFs.  With physical
    gradients g = G Jinv, its entry [(z, i), (c, j)] is
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


def _edge_blocks(
    space: DGSpace, D: np.ndarray, alpha0: float, interior: np.ndarray, dirichlet: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Consistency blocks (nt + ni, nd, nd) and scalar penalty blocks (nt + ni, nb, nb).

    First the diagonal block of each triangle, summed over its interior and
    Dirichlet sides, then the (side 0, side 1) coupling block of each interior
    edge; those of (side 1, side 0) are their transposes.  The consistency
    terms are -int {D eps(w)} : [v (x) n] - int {D eps(v)} : [w (x) n] and the
    penalty, which acts on each displacement component alone, is
    alpha0 / |e| int [v] . [w].  With v on side row r and w on side row s,
    int v_i traction_z(e_c phi_j) over an edge is |e| Jinv_pb n_a times the
    reference table C[r, s][(p, a, b), (z, i, c, j)] =
    sum_q w_q v_i G_jp D[z, a, c, b], and alpha0 / |e| int v_i w_j is alpha0
    times the reference edge mass P[r, s][i, j] = sum_q w_q v_i w_j.
    """
    edges = space.mesh.edges
    nt, nb, nd = space.mesh.n_triangles, space.dofs_per_component, space.dofs_per_element
    vals, grads = space._side_traces  # (6, nqe, nb), (6, nqe, nb, 2)
    nq = len(space.edge_weights)
    wv = (vals * space.edge_weights[:, None]).transpose(0, 2, 1).reshape(6 * nb, nq)
    P = (wv @ vals.transpose(1, 0, 2).reshape(nq, 6 * nb)).reshape(6, nb, 6, nb)
    aP = alpha0 * P.transpose(0, 2, 1, 3)  # alpha0 P[r, s][i, j]
    S = (wv @ grads.transpose(1, 0, 2, 3).reshape(nq, -1)).reshape(6, nb, 6, nb, 2)
    C = np.multiply.outer(S, D)  # [r, i, s, j, p, z, a, c, b]
    C = C.transpose(0, 2, 4, 6, 8, 5, 1, 7, 3).reshape(6, 6, 8, nd, nd)
    swap = np.swapaxes(C, 3, 4).reshape(6, 6, 8, nd * nd)  # the transposed blocks
    C = C.reshape(6, 6, 8, nd * nd)

    def geometry(ids, side):
        """|e| Jinv_pb n_a (ne, 8) of the edges ``ids`` on one side, as (p, a, b)."""
        jinv = space.jac_inv[edges.elems[ids, side]]
        g = edges.length[ids, None, None, None] * jinv[:, :, None, :]
        return (g * edges.normal[ids][:, None, :, None]).reshape(len(ids), 8)

    consist = np.empty((nt + len(interior), nd, nd))
    penalty = np.empty((nt + len(interior), nb, nb))
    # a triangle meets each side row at most once, so its diagonal terms are
    # one row of 6 x 8 coefficients, weighted -1/2, +1/2 and -1 by the average
    # and the jump sign of each side
    coef = np.zeros((nt, 6, 8))
    on = np.zeros((nt, 6))
    inner = [geometry(interior, 0), geometry(interior, 1)]
    for ids, side, weight, g in (
        (interior, 0, -0.5, inner[0]),
        (interior, 1, 0.5, inner[1]),
        (dirichlet, 0, -1.0, geometry(dirichlet, 0)),
    ):
        elems, rows = edges.elems[ids, side], space._edge_trace_row[ids, side]
        coef[elems, rows] = weight * g
        on[elems, rows] = 1.0
    r = np.arange(6)
    diag = (coef.reshape(nt, 48) @ C[r, r].reshape(48, nd * nd)).reshape(nt, nd, nd)
    consist[:nt] = diag + np.swapaxes(diag, 1, 2)  # exactly symmetric
    penalty[:nt] = (on @ aP[r, r].reshape(6, nb * nb)).reshape(nt, nb, nb)

    # interior couplings, one product per pair of side rows:
    # -1/2 t(side 0, side 1) + 1/2 t(side 1, side 0)^T
    rows = space._edge_trace_row[interior]
    penalty[nt:] = -aP[rows[:, 0], rows[:, 1]]
    coupling = np.concatenate(inner[::-1], axis=1)  # (ni, 16)
    key = 6 * rows[:, 0] + rows[:, 1]
    order = np.argsort(key, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        r0, r1 = rows[group[0]]
        table = np.concatenate([-0.5 * C[r0, r1], 0.5 * swap[r1, r0]])
        consist[nt + group] = (coupling[group] @ table).reshape(-1, nd, nd)
    return consist, penalty


def assemble_system(
    space: DGSpace, material: PronyMaterial, alpha0: float = 10.0
) -> "AssembledSystem":
    """The rho-weighted mass M, the SIPG matrix A and its jump-penalty part J.

    A = volume strain energy - symmetrized consistency edge terms + J, with
    edge terms over interior and Dirichlet edges only, and J the jump penalty
    of weight alpha0 / |e|.  A is stored on the union of its own pattern, J's
    and M's, so it keeps an explicit zero where it cancels and J or M does not.
    The system records ``space``, ``material`` and ``alpha0``; everything
    downstream reads them from it.
    """
    D = material.elasticity
    nt, nd = space.mesh.n_triangles, space.dofs_per_element
    edges = space.mesh.edges
    interior = np.flatnonzero(edges.tag == EdgeTag.INTERIOR)
    dirichlet = np.flatnonzero(edges.tag == EdgeTag.DIRICHLET)
    if not 0 < float(alpha0) / float(edges.length[edges.tag != EdgeTag.NEUMANN].min()) < math.inf:
        raise ValueError(f"alpha0={alpha0} must be positive with a finite penalty weight alpha0/|e|")

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
    diag, lower = slot[:nt], slot[nt + len(interior) :]

    a_data = np.empty((len(slot), nd, nd))
    penalties = np.empty((len(slot), nd // 2, nd // 2))  # J's blocks, per component
    consist, penalty = _edge_blocks(space, D, alpha0, interior, dirichlet)
    for data, blocks in ((a_data, consist), (penalties, penalty)):
        data[slot[: len(blocks)]] = blocks  # the diagonal, then (i, j)
        data[lower] = np.swapaxes(blocks[nt:], 1, 2)
    del consist, penalty  # freed before the BSR conversions
    a_data[diag] += volume_blocks(space, D)
    j_data = _componentwise(penalties)
    del penalties
    a_data += j_data
    # every entry of every block, in CSR order; entries of none of M, A and J are dropped
    n = nt * nd
    J = sp.bsr_matrix((j_data, indices, indptr), shape=(n, n)).tocsr()
    del j_data  # the two block arrays are the largest temporaries of assembly
    A = sp.bsr_matrix((a_data, indices, indptr), shape=(n, n)).tocsr()
    del a_data
    in_J = J.data != 0
    J.eliminate_zeros()
    # M's pattern, read by M and M_slots alike: the nonzeros (i, j) of the
    # reference mass block, entry (t nd + i, t nd + j) of M for each triangle t.
    # Triangle t's diagonal block is the p-th block of its block row, so that
    # entry is entry p nd + j of A's full-block CSR row t nd + i
    m_ref = _componentwise((space.ref_values.T * space.elem_weights) @ space.ref_values)
    i, j = np.nonzero(m_ref)
    start = A.indptr[:-1].reshape(nt, nd) + nd * (diag - indptr[:-1])[:, None]
    in_M = np.zeros_like(in_J)
    in_M[start[:, i] + j] = True
    kept = A.data != 0
    kept |= in_J
    kept |= in_M
    M_slots, J_slots = (np.flatnonzero(part[kept]).astype(A.indices.dtype) for part in (in_M, in_J))
    counts = np.add.reduceat(kept, A.indptr[:-1], dtype=A.indptr.dtype)
    A = sp.csr_matrix(
        (A.data[kept], A.indices[kept], np.concatenate([[0], np.cumsum(counts)])), shape=(n, n)
    )
    A.indices.flags.writeable = A.indptr.flags.writeable = False  # every step matrix shares them
    row_counts = np.tile(np.bincount(i, minlength=nd), nt)
    M = sp.csr_matrix(
        (
            ((material.rho * space.det_jac)[:, None] * m_ref[i, j]).ravel(),
            (nd * np.arange(nt)[:, None] + j).ravel(),
            np.concatenate([[0], np.cumsum(row_counts)]),
        ),
        shape=(n, n),
    )
    return AssembledSystem(M, A, J, M_slots, J_slots, material, alpha0, space)


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
    points alone; a ``LoadAssembler`` evaluates it at its own points.
    """

    coefficients: np.ndarray
    fields: Callable


class LoadAssembler:
    """Load vectors at fixed quadrature points, one assembler per run.

    A pair (fx, fy) is contracted with the basis on every call.  The fields of
    a ``SeparableField`` are evaluated at the assembler's points and
    contracted once, and kept while its ``fields`` callable stays the same; a
    call then only combines them.
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

    def _blocks(self, forcing, contract, points) -> np.ndarray:
        """Element load blocks (n, 2, nb) of ``forcing(*points)``."""
        value = forcing(*points)
        if not isinstance(value, SeparableField):
            return np.swapaxes(contract(value), 0, 1)
        fields, vectors = self._contracted.get(contract.__name__, (None, None))
        if fields != value.fields:
            fields, vectors = value.fields, contract(value.fields(*points))
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
            out.reshape(nt, 2, nb)[...] = self._blocks(f, self._domain_vectors, self.xq)
        if g_N is not None and len(self.neumann):
            blocks = self._blocks(g_N, self._neumann_vectors, self.n_points)
            out += _scatter(len(out), self.n_dofs, blocks)
        return out


def assemble_elliptic_rhs(system: "AssembledSystem", u0, grad_u0) -> np.ndarray:
    """Right-hand side of a(U0, v) = a(u0, v) for a continuous field u0.

    ``u0(x, y) -> (ux, uy)`` and ``grad_u0(x, y)`` nested as
    [component][derivative], as ``grad_array`` reads it.  Interior jumps of
    u0 vanish, so only the average-stress edge term survives there; Dirichlet
    edges also carry the symmetrizing and penalty terms in u0's trace.  The
    space, D and alpha0 are those the system was assembled with.
    """
    space, D, alpha0 = system.space, system.material.elasticity, system.alpha0
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
                # alpha0/|e| int u0 . phi - int D eps(phi) : (u0 (x) n)
                u = np.stack(np.broadcast_arrays(*u0(x[..., 0], x[..., 1])), axis=-1)
                integrand += (alpha0 / length)[:, None, None] * u
                un = stress(D, u[..., :, None] * normal[:, None, None, :]) * wl[..., None]
                un = np.swapaxes(un, 1, 2).reshape(len(ids), 2, -1)  # [e, c, (q, b)]
                loc -= un @ np.swapaxes(grads, 2, 3).reshape(len(ids), -1, nb)  # [(q, b), j]
            loc += sign * (np.swapaxes(integrand * wl, 1, 2) @ vals)
            out += _scatter(n, _element_dofs(space, edges.elems[ids, side]), loc)
    return out


def grad_array(grad_u0, x: np.ndarray) -> np.ndarray:
    """Evaluate a gradient callable on point arrays, returning (..., 2, 2).

    ``grad_u0(x, y)`` returns the gradient nested as [component][derivative],
    four entries of one shape that broadcasts to the points' shape.
    """
    g = np.asarray(grad_u0(x[..., 0], x[..., 1]), dtype=float)
    if g.shape[:2] != (2, 2):
        raise ValueError(f"a gradient nests as [component][derivative] (2, 2, ...), got {g.shape}")
    return np.broadcast_to(np.moveaxis(g, (0, 1), (-2, -1)), x.shape[:-1] + (2, 2))


@dataclass
class AssembledSystem:
    """The three matrices of the schemes, and the material, penalty and space that built them.

    A's pattern holds M's and J's: entry i of ``M.data`` sits at
    ``A.data[M_slots[i]]``, and likewise for J, so a combination of the three
    is a new data vector on A's index arrays, which ``assemble_system`` makes read-only.
    """

    M: sp.csr_matrix  # rho-weighted mass
    A: sp.csr_matrix  # full SIPG form
    J: sp.csr_matrix  # jump penalty part
    M_slots: np.ndarray
    J_slots: np.ndarray
    material: PronyMaterial
    alpha0: float  # the jump penalty weighs alpha0 / |e|
    space: DGSpace | None  # None only for a system built by hand, with no mesh

    def combine(self, c_M: float, c_A: float, c_J: float) -> sp.csr_matrix:
        """c_M M + c_A A + c_J J as a CSR matrix that shares A's index arrays.

        Each entry is summed as (c_M M + c_A A) + c_J J, as the sparse sums
        do, so the values are theirs bit for bit; only the data vector is
        new.  The index arrays are A's, which ``assemble_system`` makes read-only.
        """
        A = self.A
        if not A.has_canonical_format:
            raise ValueError("A must be canonical CSR: step matrices share its index arrays")
        data = c_A * A.data
        np.add.at(data, self.M_slots, c_M * self.M.data)
        np.add.at(data, self.J_slots, c_J * self.J.data)
        K = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
        K.indices = A.indices  # the constructor keeps a view of A's array, not the array
        return K
