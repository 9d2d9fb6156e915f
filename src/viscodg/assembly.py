"""Assembly of the SIPG bilinear form, mass matrices and load vectors.

Strains are handled in the orthonormal Voigt basis (e11, e22, sqrt2*e12) so
that tensor contractions become dot products.  Dirichlet conditions are
imposed weakly through the boundary edge terms (Nitsche style); Neumann
edges contribute only to the load vector.

Traversal order is fixed (elements ascending, then edges ascending) so the
assembled matrices are reproducible bit for bit.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import from_triplets
from .material import PronyMaterial
from .mesh import EdgeTag
from .space import DGSpace

_SQRT2 = np.sqrt(2.0)
_EDGE_CHUNK = 4096


def _strain_voigt_basis(grads: np.ndarray) -> np.ndarray:
    """Voigt strains of all vector DOFs from scalar basis gradients.

    ``grads``: (..., nb, 2) physical gradients.  Returns (..., 2*nb, 3)
    with the component-major DOF ordering.
    """
    nb = grads.shape[-2]
    out = np.zeros(grads.shape[:-2] + (2 * nb, 3))
    out[..., :nb, 0] = grads[..., 0]
    out[..., :nb, 2] = grads[..., 1] / _SQRT2
    out[..., nb:, 1] = grads[..., 1]
    out[..., nb:, 2] = grads[..., 0] / _SQRT2
    return out


def _voigt_traction(stress: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Traction S.n from Voigt stresses (..., 3) and normals broadcastable (..., 2)."""
    s12 = stress[..., 2] / _SQRT2
    t1 = stress[..., 0] * normal[..., 0] + s12 * normal[..., 1]
    t2 = s12 * normal[..., 0] + stress[..., 1] * normal[..., 1]
    return np.stack([t1, t2], axis=-1)


def _trace_values(values: np.ndarray) -> np.ndarray:
    """Vector DOF traces from scalar basis values (..., nb) -> (..., 2*nb, 2)."""
    nb = values.shape[-1]
    out = np.zeros(values.shape[:-1] + (2 * nb, 2))
    out[..., :nb, 0] = values
    out[..., nb:, 1] = values
    return out


def average_jump(space: DGSpace, coeffs: np.ndarray, edge: int):
    """Average of D eps(v), jump [v] and jump [v (x) n] at the quadrature points of one edge.

    For an interior edge the jump is trace(E_i) - trace(E_j) with i < j; on a
    boundary edge the average is the single trace and the vector jump is the
    trace itself.  Returns (avg_stress (nqe, 2, 2), jump (nqe, 2),
    jump_outer (nqe, 2, 2)).  The stress here is with identity D; callers
    needing a material apply its tensor to the strain first.
    """
    edges = space.mesh.edges
    nb = space.dofs_per_component
    incident = edges.elems[edge][edges.elems[edge] >= 0]
    traces = []
    stresses = []
    for side, elem in enumerate(incident):
        _, vals, grads = space.edge_traces(np.array([edge]), side)
        c = coeffs.reshape(space.mesh.n_triangles, 2, nb)[elem]
        v = np.einsum("qi,ci->qc", vals[0], c)
        g = np.einsum("qib,ci->qcb", grads[0], c)
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        traces.append(v)
        stresses.append(eps)
    if len(incident) == 2:
        avg = 0.5 * (stresses[0] + stresses[1])
        jump = traces[0] - traces[1]
    else:
        avg = stresses[0]
        jump = traces[0]
    jump_outer = jump[..., :, None] * edges.normal[edge][None, None, :]
    return avg, jump, jump_outer


def assemble_mass(space: DGSpace, weight: float = 1.0) -> sp.csr_matrix:
    """Block-diagonal (weight * v, w) mass matrix."""
    if weight <= 0:
        raise ValueError("mass weight must be positive")
    nb = space.dofs_per_component
    nd = space.dofs_per_element
    mref = np.einsum("q,qi,qj->ij", space.elem_weights, space.ref_values, space.ref_values)
    block = np.zeros((nd, nd))
    block[:nb, :nb] = mref
    block[nb:, nb:] = mref
    nt = space.mesh.n_triangles
    vals = weight * space.det_jac[:, None, None] * block[None, :, :]
    base = np.arange(nt)[:, None, None] * nd
    rows = np.broadcast_to(base + np.arange(nd)[None, :, None], vals.shape)
    cols = np.broadcast_to(base + np.arange(nd)[None, None, :], vals.shape)
    return from_triplets(space.total_dofs, rows.ravel(), cols.ravel(), vals.ravel())


def assemble_volume_stiffness(space: DGSpace, material: PronyMaterial) -> sp.csr_matrix:
    """Element-wise strain energy form sum_E int D eps(v) : eps(w)."""
    C = material.elastic_voigt
    nd = space.dofs_per_element
    nt = space.mesh.n_triangles
    rows_all, cols_all, vals_all = [], [], []
    for start in range(0, nt, _EDGE_CHUNK):
        sl = slice(start, min(start + _EDGE_CHUNK, nt))
        gp = np.einsum("qia,tab->tqib", space.ref_grads, space.jac_inv[sl])
        eps = _strain_voigt_basis(gp)  # (nc, nq, nd, 3)
        sig = eps @ C.T
        k = np.einsum("tqas,tqbs,q,t->tab", sig, eps, space.elem_weights, space.det_jac[sl])
        base = np.arange(sl.start, sl.stop)[:, None, None] * nd
        rows = np.broadcast_to(base + np.arange(nd)[None, :, None], k.shape)
        cols = np.broadcast_to(base + np.arange(nd)[None, None, :], k.shape)
        rows_all.append(rows.ravel())
        cols_all.append(cols.ravel())
        vals_all.append(k.ravel())
    return from_triplets(
        space.total_dofs,
        np.concatenate(rows_all),
        np.concatenate(cols_all),
        np.concatenate(vals_all),
    )


def _edge_matrices(space, material, ids, arity, alpha0, beta0):
    """Consistency and penalty triplets for the edges ``ids``, all of one arity.

    Returns (rows, cols, consistency values, penalty values).
    """
    C = material.elastic_voigt
    nd = space.dofs_per_element
    wq = space.edge_weights
    edges = space.mesh.edges
    normal, length = edges.normal[ids], edges.length[ids]
    if arity == 2:
        signs = (1.0, -1.0)
        cavg = 0.5
    else:
        signs = (1.0,)
        cavg = 1.0

    traces, tractions, dofs = [], [], []
    for side in range(arity):
        _, vals, grads = space.edge_traces(ids, side)
        tr = _trace_values(vals)  # (ne, nq, nd, 2)
        eps = _strain_voigt_basis(grads)
        sig = eps @ C.T
        tn = _voigt_traction(sig, normal[:, None, None, :])  # (ne, nq, nd, 2)
        traces.append(tr)
        tractions.append(tn)
        dofs.append(edges.elems[ids, side][:, None] * nd + np.arange(nd)[None, :])

    pen = alpha0 / length**beta0
    rows, cols, consist, penalty = [], [], [], []
    for r in range(arity):  # test side
        for s in range(arity):  # trial side
            # -int {D eps(v)} : [w (x) n]  - int {D eps(w)} : [v (x) n]
            t1 = np.einsum("eqaz,eqbz,q,e->eab", traces[r], tractions[s], wq, length)
            t2 = np.einsum("eqaz,eqbz,q,e->eab", tractions[r], traces[s], wq, length)
            kc = -cavg * (signs[r] * t1 + signs[s] * t2)
            kp = np.einsum(
                "eqaz,eqbz,q,e->eab", traces[r], traces[s], wq, length * pen
            ) * (signs[r] * signs[s])
            rows.append(np.broadcast_to(dofs[r][:, :, None], kc.shape).ravel())
            cols.append(np.broadcast_to(dofs[s][:, None, :], kc.shape).ravel())
            consist.append(kc.ravel())
            penalty.append(kp.ravel())
    return (
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(consist),
        np.concatenate(penalty),
    )


def assemble_sipg(space: DGSpace, material: PronyMaterial, alpha0: float, beta0: float):
    """Full SIPG matrix A, jump-penalty matrix J and volume strain energy A_vol.

    A = A_vol - symmetrized consistency edge terms + J, with edge terms over
    interior and Dirichlet edges only.
    """
    if alpha0 <= 0:
        raise ValueError("penalty parameter alpha0 must be positive")
    if beta0 < 1:
        raise ValueError("penalty exponent beta0 must be >= 1 in 2D")
    avol = assemble_volume_stiffness(space, material)

    n = space.total_dofs
    consist = sp.csr_matrix((n, n))
    jump = sp.csr_matrix((n, n))
    for tag, arity in ((EdgeTag.INTERIOR, 2), (EdgeTag.DIRICHLET, 1)):
        ids = np.flatnonzero(space.mesh.edges.tag == tag)
        for start in range(0, len(ids), _EDGE_CHUNK):
            chunk = ids[start : start + _EDGE_CHUNK]
            rows, cols, kc, kp = _edge_matrices(space, material, chunk, arity, alpha0, beta0)
            consist = consist + from_triplets(n, rows, cols, kc)
            jump = jump + from_triplets(n, rows, cols, kp)
    A = avol + consist + jump
    return A.tocsr(), jump.tocsr(), avol


class LoadAssembler:
    """Caches quadrature geometry so per-step load assembly is cheap."""

    def __init__(self, space: DGSpace):
        self.space = space
        self.xq = space.physical_quad_points()  # (nt, nq, 2)
        self.wdet = space.elem_weights[None, :] * space.det_jac[:, None]
        edges = space.mesh.edges
        self.neumann = np.flatnonzero(edges.tag == EdgeTag.NEUMANN)
        self.n_x, vals, _ = space.edge_traces(self.neumann, 0)
        self.n_traces = _trace_values(vals)  # (ne, nq, nd, 2)
        self.n_w = space.edge_weights[None, :] * edges.length[self.neumann][:, None]
        self.n_normal = edges.normal[self.neumann]
        nd = space.dofs_per_element
        self.n_dofs = edges.elems[self.neumann, 0][:, None] * nd + np.arange(nd)

    def assemble(self, f=None, g_N=None) -> np.ndarray:
        """Load vector of (f, v) + (g_N, v)_{Gamma_N} for fields bound to one time.

        ``f(x, y) -> (fx, fy)`` over the domain, ``g_N(x, y, n) -> (gx, gy)``
        on the Neumann boundary; either may be None.
        """
        space = self.space
        nb = space.dofs_per_component
        out = np.zeros(space.total_dofs)
        if f is not None:
            fx, fy = f(self.xq[..., 0], self.xq[..., 1])
            shape = self.xq.shape[:-1]
            fvals = np.stack(
                [np.broadcast_to(fx, shape), np.broadcast_to(fy, shape)], axis=-1
            )
            loc = np.einsum("tqc,tq,qi->tci", fvals, self.wdet, space.ref_values)
            out += loc.reshape(space.mesh.n_triangles, 2 * nb).ravel()
        if g_N is not None and len(self.neumann):
            gx, gy = g_N(self.n_x[..., 0], self.n_x[..., 1], self.n_normal[:, None, :])
            gvals = np.stack(np.broadcast_arrays(gx, gy), axis=-1)
            loc = np.einsum("eqz,eqaz,eq->ea", gvals, self.n_traces, self.n_w)
            np.add.at(out, self.n_dofs.ravel(), loc.ravel())
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
    C = material.elastic_voigt
    nb = space.dofs_per_component
    out = np.zeros(space.total_dofs)

    # volume term: int D eps(u0) : eps(phi)
    xq = space.physical_quad_points()
    g = grad_array(grad_u0, xq)  # (nt, nq, 2, 2)
    eps0 = voigt_strain(g)
    sig0 = eps0 @ C.T
    gp = np.einsum("qia,tab->tqib", space.ref_grads, space.jac_inv)
    epsb = _strain_voigt_basis(gp)
    loc = np.einsum(
        "tqs,tqas,q,t->ta", sig0, epsb, space.elem_weights, space.det_jac
    )
    out += loc.ravel()

    edges = space.mesh.edges
    wq = space.edge_weights
    interior = np.flatnonzero(edges.tag == EdgeTag.INTERIOR)
    dirichlet = np.flatnonzero(edges.tag == EdgeTag.DIRICHLET)

    # - int {D eps(u0)} : [phi (x) n] over interior and Dirichlet edges
    for ids, signs in ((interior, (1.0, -1.0)), (dirichlet, (1.0,))):
        length = edges.length[ids]
        for side, sign in enumerate(signs):
            x, vals, _ = space.edge_traces(ids, side)
            if side == 0:
                sig_e = voigt_strain(grad_array(grad_u0, x)) @ C.T
                tn0 = _voigt_traction(sig_e, edges.normal[ids][:, None, :])  # (ne, nq, 2)
            tr = _trace_values(vals)
            loc = -sign * np.einsum("eqz,eqaz,q,e->ea", tn0, tr, wq, length)
            dofs = edges.elems[ids, side][:, None] * 2 * nb + np.arange(2 * nb)[None, :]
            np.add.at(out, dofs.ravel(), loc.ravel())

    # Dirichlet-only terms in the trace of u0 itself
    normal, length = edges.normal[dirichlet], edges.length[dirichlet]
    x, vals, grads = space.edge_traces(dirichlet, 0)
    ux, uy = u0(x[..., 0], x[..., 1])
    uvals = np.stack(np.broadcast_arrays(ux, uy), axis=-1)  # (ne, nq, 2)
    tr = _trace_values(vals)
    eps_b = _strain_voigt_basis(grads)
    tn_b = _voigt_traction(eps_b @ C.T, normal[:, None, None, :])
    pen = alpha0 / length**beta0
    loc = -np.einsum("eqaz,eqz,q,e->ea", tn_b, uvals, wq, length)
    loc += np.einsum("eqz,eqaz,q,e->ea", uvals, tr, wq, length * pen)
    dofs = edges.elems[dirichlet, 0][:, None] * 2 * nb + np.arange(2 * nb)[None, :]
    np.add.at(out, dofs.ravel(), loc.ravel())
    return out


def grad_array(grad_u0, x: np.ndarray) -> np.ndarray:
    """Evaluate a gradient callable on point arrays, returning (..., 2, 2)."""
    g = grad_u0(x[..., 0], x[..., 1])
    g = np.asarray(g, dtype=float)
    if g.shape[:2] == (2, 2):
        g = np.moveaxis(g, (0, 1), (-2, -1))
    return np.broadcast_to(g, x.shape[:-1] + (2, 2))


def voigt_strain(g: np.ndarray) -> np.ndarray:
    """Voigt strain from gradient arrays (..., 2, 2) with [component, derivative]."""
    e11 = g[..., 0, 0]
    e22 = g[..., 1, 1]
    e12 = 0.5 * (g[..., 0, 1] + g[..., 1, 0])
    return np.stack([e11, e22, _SQRT2 * e12], axis=-1)


@dataclass
class AssembledSystem:
    """All matrices a run needs, plus the penalty parameters that built them."""

    M: sp.csr_matrix  # rho-weighted mass
    M0: sp.csr_matrix  # plain mass
    A: sp.csr_matrix  # full SIPG form
    J: sp.csr_matrix  # jump penalty part
    A_vol: sp.csr_matrix  # element strain-energy part (for energy norms)
    alpha0: float
    beta0: float


def assemble_system(
    space: DGSpace, material: PronyMaterial, alpha0: float = 10.0, beta0: float = 1.0
) -> AssembledSystem:
    A, J, A_vol = assemble_sipg(space, material, alpha0, beta0)
    return AssembledSystem(
        M=assemble_mass(space, material.rho),
        M0=assemble_mass(space, 1.0),
        A=A,
        J=J,
        A_vol=A_vol,
        alpha0=alpha0,
        beta0=beta0,
    )
