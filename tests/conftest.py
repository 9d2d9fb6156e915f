import dataclasses
import resource

import numpy as np
import pytest
import scipy.sparse as sp

from viscodg.assembly import assemble_system, grad_array, volume_blocks
from viscodg.manufactured import ManufacturedCase
from viscodg.material import PronyMaterial
from viscodg.mesh import EdgeTag, TriMesh, build_structured_mesh
from viscodg.space import (
    DGSpace,
    _lattice_nodes,
    edge_quadrature,
    reference_basis,
    triangle_quadrature,
)
from viscodg.stepper import Scheme


# pass/fail lines collected by the acceptance suite, one per criterion
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    terminalreporter.write_line(f"peak RSS of the test session: {peak_mb:,.0f} MB (ru_maxrss)")


def apply_elastic(m: PronyMaterial, eps: np.ndarray) -> np.ndarray:
    """Apply the elastic tensor to a symmetric 2x2 strain."""
    eps = np.asarray(eps, dtype=float)
    if m.elastic is None:
        return eps.copy()
    lam, mu = m.elastic
    return 2 * mu * eps + lam * np.trace(eps) * np.eye(2)


def internal_kernel_constant_history(m: PronyMaterial, q: int, c: float, t: float) -> float:
    """Displacement-form internal variable for the constant history u(s) = c.

    Closed form of the convolution (phi_q/tau_q) int_0^t exp(-(t-s)/tau_q) c ds.
    Used as an oracle for the time-stepper recurrences.
    """
    if not 0 <= q < m.n_internal:
        raise IndexError(f"internal variable index {q} out of range")
    return m.phis[q] * c * (1.0 - np.exp(-t / m.taus[q]))


def space_with_quadrature(mesh, degree, elem_order=None, edge_order=None) -> DGSpace:
    """``DGSpace.build(mesh, degree)`` with its element or edge rule replaced
    by one exact to the given order, for quadrature-convergence checks."""
    space = DGSpace.build(mesh, degree)
    changes = {}
    if elem_order is not None:
        qp, qw = triangle_quadrature(elem_order)
        vals, grads = reference_basis(degree, qp)
        changes.update(elem_points=qp, elem_weights=qw, ref_values=vals, ref_grads=grads)
    if edge_order is not None:
        ep, ew = edge_quadrature(edge_order)
        changes.update(edge_points=ep, edge_weights=ew)
    return dataclasses.replace(space, **changes)


def relaxation(m: PronyMaterial, t) -> np.ndarray | float:
    """Stress relaxation function phi(t) for t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("relaxation time must be nonnegative")
    out = m.phi0 + sum(p * np.exp(-t / tau) for p, tau in zip(m.phis, m.taus))
    return float(out) if out.ndim == 0 else out


def interpolate(space: DGSpace, field) -> np.ndarray:
    """Nodal interpolant on ``space`` of a callable ``field(x, y) -> (2,)-like``.

    Returns the global DOF vector.
    """
    nb = space.dofs_per_component
    nodes = _lattice_nodes(space.degree)
    phys = space.v0[:, None, :] + nodes @ np.swapaxes(space.jac, 1, 2)
    fx, fy = field(phys[..., 0], phys[..., 1])
    out = np.empty((space.mesh.n_triangles, 2 * nb))
    out[:, :nb] = fx
    out[:, nb:] = fy
    return out.ravel()


def forcing_values(forcing, *points):
    """(fx, fy) at the points of a forcing closure that returns a ``SeparableField``."""
    field = forcing(*points)
    values = np.broadcast_arrays(*field.fields(*points))
    return tuple(np.tensordot(field.coefficients, values, axes=1))


# closed forms of the manufactured case that no run reads, checked below
# against the quadrature oracles


def _kernel_sin(t, tau):
    """int_0^t exp(-(t-s)/tau) sin(s) ds, closed form."""
    a = 1.0 / tau
    return (a * np.sin(t) - np.cos(t) + np.exp(-t / tau)) / (a * a + 1.0)


def acceleration(case: ManufacturedCase, x, y, t):
    return x * y * np.exp(1.0 - t), -np.cos(t) * np.sin(x * y)


def internal_displacement(case: ManufacturedCase, q, x, y, t):
    """psi_q, the displacement-form internal variable."""
    m = case.material
    p, tau = m.phis[q], m.taus[q]
    return p * x * y * case._kernel_exp(t, tau), p * np.sin(x * y) * case._kernel_cos(t, tau)


def internal_velocity(case: ManufacturedCase, q, x, y, t):
    """zeta_q, the velocity-form internal variable."""
    m = case.material
    p, tau = m.phis[q], m.taus[q]
    z1 = -p * tau * case._kernel_exp(t, tau) * x * y
    z2 = -p * _kernel_sin(t, tau) * np.sin(x * y)
    return z1, z2


def stress(case: ManufacturedCase, x, y, t):
    """Viscoelastic stress from the displacement-form constitutive law.

    Returns Voigt-free components (s11, s22, s12).
    """
    return case._stress(x, y, *case._time_factors(t))


# numerical convolution oracles of the manufactured case's closed forms


def adaptive_convolution(f, t: float, tol: float = 1e-12, max_halvings: int = 24) -> float:
    """int_0^t f(s) ds by composite Gauss-Legendre, panels halved to tolerance."""
    if t == 0.0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(8)
    prev = None
    panels = 1
    for _ in range(max_halvings):
        edges = np.linspace(0.0, t, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        s = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        total = float(np.dot(w, f(s)))
        if prev is not None and abs(total - prev) < tol:
            return total
        prev = total
        panels *= 2
    return prev


def internal_displacement_oracle(case: ManufacturedCase, q, x, y, t):
    """psi_q by direct quadrature of its defining convolution."""
    m = case.material
    p, tau = m.phis[q], m.taus[q]

    def comp(i):
        def f(s):
            u = case.displacement(x, y, s)
            return (p / tau) * np.exp(-(t - s) / tau) * u[i]

        return adaptive_convolution(f, t)

    return comp(0), comp(1)


def internal_velocity_oracle(case: ManufacturedCase, q, x, y, t):
    """zeta_q by direct quadrature of its defining convolution."""
    m = case.material
    p, tau = m.phis[q], m.taus[q]

    def comp(i):
        def f(s):
            w = case.velocity(x, y, s)
            return p * np.exp(-(t - s) / tau) * w[i]

        return adaptive_convolution(f, t)

    return comp(0), comp(1)


def stress_oracle(case: ManufacturedCase, x, y, t):
    """Stress by quadrature of the hereditary law with the Prony kernel.

    sigma(t) = phi(t) eps(u(0)) + int_0^t phi(t-s) eps(u_dot(s)) ds for the
    identity elastic tensor.  Returns (s11, s22, s12).
    """
    m = case.material

    def eps_of_grad(g):
        (g11, g12), (g21, g22) = g
        return g11, g22, 0.5 * (g12 + g21)

    eps0 = eps_of_grad(case.grad_displacement(x, y, 0.0))

    def comp(i):
        def f(s):
            deps = eps_of_grad(case.grad_velocity(x, y, s))
            return relaxation(m, t - s) * deps[i]

        return adaptive_convolution(f, t)

    phi_t = relaxation(m, t)
    return tuple(phi_t * eps0[i] + comp(i) for i in range(3))


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
        g = c @ grads[0]  # (nqe, 2, 2)
        traces.append(vals[0] @ c.T)
        stresses.append(0.5 * (g + np.swapaxes(g, -1, -2)))
    if len(incident) == 2:
        avg = 0.5 * (stresses[0] + stresses[1])
        jump = traces[0] - traces[1]
    else:
        avg = stresses[0]
        jump = traces[0]
    jump_outer = jump[..., :, None] * edges.normal[edge][None, None, :]
    return avg, jump, jump_outer


def body_force_oracle(case, x, y, t):
    """The manufactured body force evaluated directly from its closed form,
    not through its separable form: f = rho*u_tt - div eps(u - sum_q psi_q)."""
    rho = case.material.rho
    g1, g2 = case._time_factors(t)
    s = np.sin(x * y)
    c = np.cos(x * y)
    f1 = rho * x * y * np.exp(1.0 - t) - 0.5 * (c - x * y * s) * g2
    f2 = -rho * np.cos(t) * s - 0.5 * g1 + (x * x + 0.5 * y * y) * s * g2
    return f1, f2


def traction_oracle(case, x, y, t, n):
    """sigma(u(t)) . n from the closed-form stress, with no boundary check."""
    s11, s22, s12 = stress(case, x, y, t)
    n = np.asarray(n, dtype=float)
    return s11 * n[..., 0] + s12 * n[..., 1], s12 * n[..., 0] + s22 * n[..., 1]


def block_step_oracle(system, material, dt, state, f_avg):
    """Dense solve of the unreduced one-step system (momentum + midpoint +
    internal-variable recurrences) as an oracle for the eliminated scheme."""
    M = system.M.toarray()
    A = system.A.toarray()
    J = system.J.toarray()
    N = M.shape[0]
    Q = material.n_internal
    taus = np.array(material.taus)
    phis = np.array(material.phis)
    # a_q and c_q of the velocity form's trapezoidal internal recurrence (below)
    a = (2 * taus - dt) / (2 * taus + dt)
    c = 2 * taus * phis / (2 * taus + dt)
    nun = (2 + Q) * N  # unknowns: U1, W1, internal variables
    K = np.zeros((nun, nun))
    b = np.zeros(nun)

    def blk(i):
        return slice(i * N, (i + 1) * N)

    if state.scheme == Scheme.DISPLACEMENT:
        # momentum: (1/dt) M W1 + (1/2) A U1 - sum (1/2) A Psi1_q + (1/2) J W1 = ...
        K[blk(0), blk(0)] = 0.5 * A
        K[blk(0), blk(1)] = (1.0 / dt) * M + 0.5 * J
        for q in range(Q):
            K[blk(0), blk(2 + q)] = -0.5 * A
        b[blk(0)] = (
            f_avg
            + (1.0 / dt) * (M @ state.W)
            - 0.5 * (A @ state.U)
            - 0.5 * (J @ state.W)
            + sum(0.5 * (A @ state.internal[q]) for q in range(Q))
        )
        # internal recurrence: (tau/dt + 1/2) Psi1 - (phi/2) U1 = (tau/dt - 1/2) Psi0 + (phi/2) U0
        for q in range(Q):
            K[blk(2 + q), blk(2 + q)] = (taus[q] / dt + 0.5) * np.eye(N)
            K[blk(2 + q), blk(0)] = -(phis[q] / 2.0) * np.eye(N)
            b[blk(2 + q)] = (taus[q] / dt - 0.5) * state.internal[q] + (
                phis[q] / 2.0
            ) * state.U
    else:
        # momentum: (1/dt) M W1 + (phi0/2) A U1 + sum (1/2) A S1_q + (1/2) J W1 = ...
        K[blk(0), blk(0)] = (material.phi0 / 2.0) * A
        K[blk(0), blk(1)] = (1.0 / dt) * M + 0.5 * J
        for q in range(Q):
            K[blk(0), blk(2 + q)] = 0.5 * A
        b[blk(0)] = (
            f_avg
            + (1.0 / dt) * (M @ state.W)
            - (material.phi0 / 2.0) * (A @ state.U)
            - 0.5 * (J @ state.W)
            - sum(0.5 * (A @ state.internal[q]) for q in range(Q))
        )
        # internal recurrence: S1 = a_q S0 + c_q (U1 - U0)
        for q in range(Q):
            K[blk(2 + q), blk(2 + q)] = np.eye(N)
            K[blk(2 + q), blk(0)] = -c[q] * np.eye(N)
            b[blk(2 + q)] = a[q] * state.internal[q] - c[q] * state.U
    # midpoint relation: (1/dt) U1 - (1/2) W1 = (1/dt) U0 + (1/2) W0
    K[blk(1), blk(0)] = (1.0 / dt) * np.eye(N)
    K[blk(1), blk(1)] = -0.5 * np.eye(N)
    b[blk(1)] = (1.0 / dt) * state.U + 0.5 * state.W

    sol = np.linalg.solve(K, b)
    U1, W1 = sol[blk(0)], sol[blk(1)]
    internal = [sol[blk(2 + q)] for q in range(Q)]
    return U1, W1, internal


def scrambled_mesh_input(n: int, rng, amplitude: float = 0.2):
    """Vertices and triangles of the structured n-mesh, numbered out of order.

    Inner vertices move by up to ``amplitude / n`` in each coordinate (0.2 is
    well below half the smallest altitude, so no triangle inverts), vertices
    are relabelled and triangles permuted, all still counterclockwise, so
    ``TriMesh`` has to renumber them into its own edge and element order.
    """
    base = build_structured_mesh(n)
    v = base.vertices.copy()
    inner = np.all((v > 0) & (v < 1), axis=-1)
    v[inner] += amplitude * rng.uniform(-1.0, 1.0, size=(inner.sum(), 2)) / n
    relabel = rng.permutation(len(v))
    vertices = np.empty_like(v)
    vertices[relabel] = v
    triangles = relabel[base.triangles][rng.permutation(base.n_triangles)]
    return vertices, triangles


# the element-by-element einsum and triplet assembly that the block assembly
# of viscodg.assembly replaced, kept as its oracle

_SQRT2 = np.sqrt(2.0)


def block_diagonal_mass(space: DGSpace, rho: float) -> sp.csr_matrix:
    """The rho-weighted mass by the path its direct CSR build replaced: the
    BSR matrix of the blocks rho det_t M_ref, converted to CSR with its
    explicit zeros dropped."""
    nt, nb, nd = space.mesh.n_triangles, space.dofs_per_component, space.dofs_per_element
    ref = np.zeros((nd, nd))
    ref[:nb, :nb] = ref[nb:, nb:] = (space.ref_values.T * space.elem_weights) @ space.ref_values
    blocks = rho * space.det_jac[:, None, None] * ref
    mat = sp.bsr_matrix((blocks, np.arange(nt), np.arange(nt + 1)), shape=(nt * nd, nt * nd))
    mat = mat.tocsr()
    mat.eliminate_zeros()
    return mat


def assemble_volume_stiffness(space: DGSpace, material: PronyMaterial) -> sp.csr_matrix:
    """The element-wise strain energy form sum_E int D eps(v) : eps(w) as a
    sparse matrix: the BSR matrix of the ``volume_blocks``, converted to CSR
    with its explicit zeros dropped."""
    nt, nd = space.mesh.n_triangles, space.dofs_per_element
    blocks = volume_blocks(space, material.elasticity)
    mat = sp.bsr_matrix((blocks, np.arange(nt), np.arange(nt + 1)), shape=(nt * nd, nt * nd))
    mat = mat.tocsr()
    mat.eliminate_zeros()
    return mat


def _voigt_elasticity(m: PronyMaterial) -> np.ndarray:
    """Elastic tensor in the orthonormal Voigt basis (e11, e22, sqrt2*e12)."""
    if m.elastic is None:
        return np.eye(3)
    lam, mu = m.elastic
    return np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, 2 * mu]])


def _strain_voigt_basis(grads):
    """Voigt strains (..., 2*nb, 3) of all vector DOFs from scalar gradients (..., nb, 2)."""
    nb = grads.shape[-2]
    out = np.zeros(grads.shape[:-2] + (2 * nb, 3))
    out[..., :nb, 0] = grads[..., 0]
    out[..., :nb, 2] = grads[..., 1] / _SQRT2
    out[..., nb:, 1] = grads[..., 1]
    out[..., nb:, 2] = grads[..., 0] / _SQRT2
    return out


def _voigt_traction(stress, normal):
    """Traction S.n from Voigt stresses (..., 3) and normals broadcastable (..., 2)."""
    s12 = stress[..., 2] / _SQRT2
    t1 = stress[..., 0] * normal[..., 0] + s12 * normal[..., 1]
    t2 = s12 * normal[..., 0] + stress[..., 1] * normal[..., 1]
    return np.stack([t1, t2], axis=-1)


def _trace_values(values):
    """Vector DOF traces (..., 2*nb, 2) from scalar basis values (..., nb)."""
    nb = values.shape[-1]
    out = np.zeros(values.shape[:-1] + (2 * nb, 2))
    out[..., :nb, 0] = values
    out[..., nb:, 1] = values
    return out


def _voigt_strain(g):
    """Voigt strain from gradient arrays (..., 2, 2) with [component, derivative]."""
    e12 = 0.5 * (g[..., 0, 1] + g[..., 1, 0])
    return np.stack([g[..., 0, 0], g[..., 1, 1], _SQRT2 * e12], axis=-1)


def _triplets(n, rows, cols, values):
    """CSR matrix of the concatenated triplet lists, duplicates summed."""
    ij = (np.concatenate(rows), np.concatenate(cols))
    return sp.coo_matrix((np.concatenate(values), ij), shape=(n, n)).tocsr()


def _reference_edge_triplets(space, C, ids, arity, alpha0):
    """Consistency and penalty triplets (rows, cols, kc, kp) of edges of one arity."""
    nd = space.dofs_per_element
    wq = space.edge_weights
    edges = space.mesh.edges
    normal, length = edges.normal[ids], edges.length[ids]
    signs, cavg = ((1.0, -1.0), 0.5) if arity == 2 else ((1.0,), 1.0)
    traces, tractions, dofs = [], [], []
    for side in range(arity):
        _, vals, grads = space.edge_traces(ids, side)
        traces.append(_trace_values(vals))
        tractions.append(_voigt_traction(_strain_voigt_basis(grads) @ C.T, normal[:, None, None, :]))
        dofs.append(edges.elems[ids, side][:, None] * nd + np.arange(nd)[None, :])
    pen = alpha0 / length
    rows, cols, consist, penalty = [], [], [], []
    for r in range(arity):
        for s in range(arity):
            t1 = np.einsum("eqaz,eqbz,q,e->eab", traces[r], tractions[s], wq, length)
            t2 = np.einsum("eqaz,eqbz,q,e->eab", tractions[r], traces[s], wq, length)
            kc = -cavg * (signs[r] * t1 + signs[s] * t2)
            kp = np.einsum("eqaz,eqbz,q,e->eab", traces[r], traces[s], wq, length * pen)
            rows.append(np.broadcast_to(dofs[r][:, :, None], kc.shape).ravel())
            cols.append(np.broadcast_to(dofs[s][:, None, :], kc.shape).ravel())
            consist.append(kc.ravel())
            penalty.append((kp * (signs[r] * signs[s])).ravel())
    return rows, cols, consist, penalty


def reference_assembly(space, material, alpha0, f, g_N, u0, grad_u0):
    """Oracle for the block assembly: dict of the SIPG matrices "A", "J",
    "A_vol", the rho-weighted mass "M", the load vector "load" of (f, g_N)
    and the elliptic right-hand side "rhs" of (u0, grad_u0), all assembled
    from per-element and per-edge einsums and summed triplets."""
    C = _voigt_elasticity(material)
    nd = space.dofs_per_element
    nt, n = space.mesh.n_triangles, space.total_dofs
    wq = space.edge_weights
    edges = space.mesh.edges
    interior = np.flatnonzero(edges.tag == EdgeTag.INTERIOR)
    dirichlet = np.flatnonzero(edges.tag == EdgeTag.DIRICHLET)
    neumann = np.flatnonzero(edges.tag == EdgeTag.NEUMANN)
    base = np.arange(nt)[:, None, None] * nd
    block_rows = np.broadcast_to(base + np.arange(nd)[None, :, None], (nt, nd, nd)).ravel()
    block_cols = np.broadcast_to(base + np.arange(nd)[None, None, :], (nt, nd, nd)).ravel()
    out = {}

    mref = np.einsum("q,qi,qj->ij", space.elem_weights, space.ref_values, space.ref_values)
    block = np.kron(np.eye(2), mref)
    mass = material.rho * space.det_jac[:, None, None] * block[None, :, :]
    out["M"] = _triplets(n, [block_rows], [block_cols], [mass.ravel()])

    gp = np.einsum("qia,tab->tqib", space.ref_grads, space.jac_inv)
    eps = _strain_voigt_basis(gp)  # (nt, nq, nd, 3)
    k = np.einsum("tqas,tqbs,q,t->tab", eps @ C.T, eps, space.elem_weights, space.det_jac)
    out["A_vol"] = _triplets(n, [block_rows], [block_cols], [k.ravel()])

    rows, cols, consist, penalty = [], [], [], []
    for ids, arity in ((interior, 2), (dirichlet, 1)):
        r, c, kc, kp = _reference_edge_triplets(space, C, ids, arity, alpha0)
        rows += r
        cols += c
        consist += kc
        penalty += kp
    out["J"] = _triplets(n, rows, cols, penalty)
    out["A"] = out["A_vol"] + _triplets(n, rows, cols, consist) + out["J"]

    # load vector (f, v) + (g_N, v) on the Neumann edges
    xq = space.physical_quad_points()
    wdet = space.elem_weights[None, :] * space.det_jac[:, None]
    fx, fy = f(xq[..., 0], xq[..., 1])
    fvals = np.stack([np.broadcast_to(fx, wdet.shape), np.broadcast_to(fy, wdet.shape)], axis=-1)
    load = np.einsum("tqc,tq,qi->tci", fvals, wdet, space.ref_values).ravel()
    x, vals, _ = space.edge_traces(neumann, 0)
    gx, gy = g_N(x[..., 0], x[..., 1], edges.normal[neumann][:, None, :])
    gvals = np.stack(np.broadcast_arrays(gx, gy), axis=-1)
    loc = np.einsum("eqz,eqaz,q,e->ea", gvals, _trace_values(vals), wq, edges.length[neumann])
    np.add.at(load, (edges.elems[neumann, 0][:, None] * nd + np.arange(nd)).ravel(), loc.ravel())
    out["load"] = load

    # elliptic right-hand side a(u0, v)
    sig0 = _voigt_strain(grad_array(grad_u0, xq)) @ C.T
    rhs = np.einsum("tqs,tqas,q,t->ta", sig0, eps, space.elem_weights, space.det_jac).ravel()
    for ids, signs in ((interior, (1.0, -1.0)), (dirichlet, (1.0,))):
        length = edges.length[ids]
        for side, sign in enumerate(signs):
            x, vals, _ = space.edge_traces(ids, side)
            if side == 0:
                sig_e = _voigt_strain(grad_array(grad_u0, x)) @ C.T
                tn0 = _voigt_traction(sig_e, edges.normal[ids][:, None, :])
            loc = -sign * np.einsum("eqz,eqaz,q,e->ea", tn0, _trace_values(vals), wq, length)
            dofs = edges.elems[ids, side][:, None] * nd + np.arange(nd)[None, :]
            np.add.at(rhs, dofs.ravel(), loc.ravel())
    normal, length = edges.normal[dirichlet], edges.length[dirichlet]
    x, vals, grads = space.edge_traces(dirichlet, 0)
    ux, uy = u0(x[..., 0], x[..., 1])
    uvals = np.stack(np.broadcast_arrays(ux, uy), axis=-1)
    tn_b = _voigt_traction(_strain_voigt_basis(grads) @ C.T, normal[:, None, None, :])
    loc = -np.einsum("eqaz,eqz,q,e->ea", tn_b, uvals, wq, length)
    loc += np.einsum("eqz,eqaz,q,e->ea", uvals, _trace_values(vals), wq, length * alpha0 / length)
    dofs = edges.elems[dirichlet, 0][:, None] * nd + np.arange(nd)[None, :]
    np.add.at(rhs, dofs.ravel(), loc.ravel())
    out["rhs"] = rhs
    return out


@pytest.fixture(scope="session")
def case():
    return ManufacturedCase()


@pytest.fixture(scope="session")
def small_setup(case):
    """n=2, k=1 mesh/space/system shared by cheap tests."""
    mesh = build_structured_mesh(2)
    space = DGSpace.build(mesh, 1)
    system = assemble_system(space, case.material, alpha0=10.0)
    return mesh, space, system


@pytest.fixture(scope="session")
def quadratic_setup(case):
    """n=4, k=2 mesh/space/system for higher-order checks."""
    mesh = build_structured_mesh(4)
    space = DGSpace.build(mesh, 2)
    system = assemble_system(space, case.material, alpha0=10.0)
    return mesh, space, system


@pytest.fixture(scope="session")
def coarse_setup(case):
    """n=4, k=1 mesh/space/system: 32 triangles."""
    mesh = build_structured_mesh(4)
    space = DGSpace.build(mesh, 1)
    system = assemble_system(space, case.material, alpha0=10.0)
    return mesh, space, system


@pytest.fixture(params=["scrambled", "rebuilt"])
def foreign_space(request, coarse_setup):
    """A P1 space on 32 triangles that is not ``coarse_setup``'s own.

    Either a perturbed and renumbered n=4 mesh, on which a run with the
    structured system's matrices would end with a u_L2 tens of times too
    large, or the structured mesh itself built into a second ``DGSpace``.
    """
    mesh, space, _ = coarse_setup
    if request.param == "scrambled":
        mesh = TriMesh(*scrambled_mesh_input(4, np.random.default_rng(4), amplitude=0.3))
    return DGSpace.build(mesh, space.degree)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
