"""Discrete-vs-exact error norms and observed convergence rates.

The broken H1 norm is the full norm (L2 of the value plus L2 of the broken
gradient).  The energy norm combines the element strain-energy term with
the jump penalty over interior and Dirichlet edges; the exact field is
continuous so interior jumps come from the discrete field alone.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import AssembledSystem, grad_array, stress
from .mesh import EdgeTag
from .space import DGSpace
from .stepper import State


# the six error norms, in the order of ``ErrorReport.as_row`` and of the study output
NORM_NAMES = ("u_L2", "u_H1", "u_energy", "w_L2", "w_H1", "w_energy")


@dataclass(frozen=True)
class ErrorReport:
    err_u_L2: float
    err_u_H1: float
    err_u_energy: float
    err_w_L2: float
    err_w_H1: float
    err_w_energy: float
    t: float
    h: float
    dt: float
    degree: int
    scheme: str

    def as_row(self):
        return tuple(getattr(self, f"err_{name}") for name in NORM_NAMES)


def error_norms(
    state: State,
    case,
    space: DGSpace,
    system: AssembledSystem,
    dt: float = 0.0,
) -> ErrorReport:
    """All six error norms of a state against the exact fields of ``case``, from
    one evaluation of the quadrature points, weights and edge traces.

    ``space`` must be ``system.space``, ``case.material`` the material
    ``system`` was assembled with and the state one of the system's size, or
    ``ValueError`` is raised.
    """
    if space is not system.space:
        raise ValueError("space is not the system's: pass system.space, the one it was assembled on")
    if case.material != system.material:
        raise ValueError(f"case material {case.material} is not the system's {system.material}")
    if state.U.size != space.total_dofs:
        raise ValueError(f"the state has {state.U.size} DOFs, the system {space.total_dofs}")
    t = state.t
    xq = space.physical_quad_points()
    wdet = space.elem_weights[None, :] * space.det_jac[:, None]
    D = system.material.elasticity
    edges = space.mesh.edges
    interior = np.flatnonzero(edges.tag == EdgeTag.INTERIOR)
    dirichlet = np.flatnonzero(edges.tag == EdgeTag.DIRICHLET)
    _, vals0, _ = space.edge_traces(interior, 0)
    _, vals1, _ = space.edge_traces(interior, 1)
    x_d, vals_d, _ = space.edge_traces(dirichlet, 0)
    elems0, elems1 = edges.elems[interior].T
    elems_d = edges.elems[dirichlet, 0]
    # |e| times the penalty weight alpha0 / |e|, per edge
    length = edges.length
    pen, pen_d = (length[i] * (system.alpha0 / length[i]) for i in (interior, dirichlet))

    norms = []
    for coeffs, exact, grad_exact in (
        (state.U, case.displacement, case.grad_displacement),
        (state.W, case.velocity, case.grad_velocity),
    ):
        ex, ey = exact(xq[..., 0], xq[..., 1], t)
        uh = space.evaluate(coeffs)
        dx = np.broadcast_to(ex, uh.shape[:-1]) - uh[..., 0]
        dy = np.broadcast_to(ey, uh.shape[:-1]) - uh[..., 1]
        l2_sq = float(np.sum(wdet * (dx * dx + dy * dy)))
        dg = grad_array(partial(grad_exact, t=t), xq) - space.evaluate_gradients(coeffs)
        h1_sq = l2_sq + float(np.sum(wdet[..., None, None] * dg * dg))
        energy_sq = float(np.sum(wdet[..., None, None] * stress(D, dg) * dg))

        c = coeffs.reshape(space.mesh.n_triangles, 2, space.dofs_per_component)
        jump = -(vals0 @ np.swapaxes(c[elems0], 1, 2)) + vals1 @ np.swapaxes(c[elems1], 1, 2)
        exact_d = np.stack(np.broadcast_arrays(*exact(x_d[..., 0], x_d[..., 1], t)), axis=-1)
        jump_d = -(vals_d @ np.swapaxes(c[elems_d], 1, 2)) + exact_d
        for j, p in ((jump, pen), (jump_d, pen_d)):
            energy_sq += float(np.sum(j * j, axis=-1) @ space.edge_weights @ p)
        norms += [np.sqrt(l2_sq), np.sqrt(h1_sq), np.sqrt(energy_sq)]
    return ErrorReport(*norms, t, space.mesh.h, dt, space.degree, state.scheme.value)


def convergence_rate(errors, scales):
    """Observed order between successive refinements: one rate per adjacent pair."""
    errors = np.asarray(errors, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if not np.all(np.isfinite(errors) & (errors > 0)):
        raise ValueError("error values must be positive")
    if not (np.all(np.isfinite(scales)) and np.all(np.diff(scales) < 0)):
        raise ValueError("scales must be strictly decreasing")
    if not np.all(scales > 0):
        raise ValueError("scales must be positive")
    return list(np.diff(np.log(errors)) / np.diff(np.log(scales)))
