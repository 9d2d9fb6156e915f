"""Discrete-vs-exact error norms and observed convergence rates.

The broken H1 norm is the full norm (L2 of the value plus L2 of the broken
gradient).  The energy norm combines the element strain-energy term with
the jump penalty over interior and Dirichlet edges; the exact field is
continuous so interior jumps come from the discrete field alone.
"""

from dataclasses import dataclass

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


def _field_error_norms(system: AssembledSystem, coeffs: np.ndarray, exact, grad_exact):
    """L2, full broken H1 and energy norms of (exact - discrete) on the system's space."""
    space = system.space
    xq = space.physical_quad_points()
    wdet = space.elem_weights[None, :] * space.det_jac[:, None]

    ex, ey = exact(xq[..., 0], xq[..., 1])
    uh = space.evaluate(coeffs)
    dx = np.broadcast_to(ex, uh.shape[:-1]) - uh[..., 0]
    dy = np.broadcast_to(ey, uh.shape[:-1]) - uh[..., 1]
    l2_sq = float(np.sum(wdet * (dx * dx + dy * dy)))

    gh = space.evaluate_gradients(coeffs)
    dg = grad_array(grad_exact, xq) - gh
    h1_sq = l2_sq + float(np.sum(wdet[..., None, None] * dg * dg))

    sig = stress(system.material.elasticity, dg)
    energy_sq = float(np.sum(wdet[..., None, None] * sig * dg))

    # jump penalty of the error over interior and Dirichlet edges
    edges = space.mesh.edges
    cshape = coeffs.reshape(space.mesh.n_triangles, 2, space.dofs_per_component)
    for tag in (EdgeTag.INTERIOR, EdgeTag.DIRICHLET):
        ids = np.flatnonzero(edges.tag == tag)
        x, vals, _ = space.edge_traces(ids, 0)
        jump = -(vals @ np.swapaxes(cshape[edges.elems[ids, 0]], 1, 2))
        if tag == EdgeTag.INTERIOR:
            # exact field is continuous: only the discrete jump contributes
            _, vals, _ = space.edge_traces(ids, 1)
            jump += vals @ np.swapaxes(cshape[edges.elems[ids, 1]], 1, 2)
        else:
            ex_b, ey_b = exact(x[..., 0], x[..., 1])
            jump += np.stack(np.broadcast_arrays(ex_b, ey_b), axis=-1)
        length = edges.length[ids]
        pen = system.alpha0 / length
        energy_sq += float(np.sum(jump * jump, axis=-1) @ space.edge_weights @ (length * pen))

    return np.sqrt(l2_sq), np.sqrt(h1_sq), np.sqrt(energy_sq)


def error_norms(
    state: State,
    case,
    space: DGSpace,
    system: AssembledSystem,
    dt: float = 0.0,
) -> ErrorReport:
    """All six error norms of a state against the exact fields of ``case``.

    ``space`` must be ``system.space`` and ``case.material`` the material
    ``system`` was assembled with, or ``ValueError`` is raised.
    """
    if space is not system.space:
        raise ValueError("space is not the system's: pass system.space, the one it was assembled on")
    if case.material != system.material:
        raise ValueError(f"case material {case.material} is not the system's {system.material}")
    t = state.t
    u_l2, u_h1, u_en = _field_error_norms(
        system,
        state.U,
        lambda x, y: case.displacement(x, y, t),
        lambda x, y: case.grad_displacement(x, y, t),
    )
    w_l2, w_h1, w_en = _field_error_norms(
        system,
        state.W,
        lambda x, y: case.velocity(x, y, t),
        lambda x, y: case.grad_velocity(x, y, t),
    )
    return ErrorReport(
        u_l2, u_h1, u_en, w_l2, w_h1, w_en, t, space.mesh.h, dt, space.degree, state.scheme.value
    )


def convergence_rate(errors, scales):
    """Observed order between successive refinements: one rate per adjacent pair."""
    errors = np.asarray(errors, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if np.any(errors <= 0):
        raise ValueError("error values must be positive")
    if np.any(np.diff(scales) >= 0):
        raise ValueError("scales must be strictly decreasing")
    return list(np.diff(np.log(errors)) / np.diff(np.log(scales)))
