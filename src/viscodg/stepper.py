"""Crank-Nicolson time integration of the two fully discrete schemes.

The internal-variable updates are linear one-step recurrences, so they are
eliminated algebraically from the momentum equation.  Each time step then
costs a single SPD solve with a time-independent matrix

    K = (2/dt^2) M + (gamma/2) A + (1/dt) J,

which is factored once per run.  gamma is 1 - sum_q b_q for the
displacement scheme and phi0 + sum_q c_q for the velocity scheme, with

    a_q = (2 tau_q - dt) / (2 tau_q + dt),
    b_q = phi_q dt / (2 tau_q + dt),
    c_q = 2 tau_q phi_q / (2 tau_q + dt).

The velocity scheme's exp-decaying load term in u0 is applied as A @ U0,
which is exact because U0 is the elliptic projection of u0.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assembly import AssembledSystem, LoadAssembler, assemble_elliptic_rhs
from .linalg import Factorization, factor
from .material import PronyMaterial
from .space import DGSpace


class Scheme(Enum):
    DISPLACEMENT = "displacement"
    VELOCITY = "velocity"


@dataclass
class State:
    """Solution vectors at one time level."""

    n: int
    t: float
    U: np.ndarray
    W: np.ndarray
    internal: list[np.ndarray]  # Psi_q or S_q depending on scheme
    scheme: Scheme


@dataclass(frozen=True)
class SchemeCoefficients:
    dt: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    gamma_d: float
    gamma_v: float

    @classmethod
    def build(cls, material: PronyMaterial, dt: float) -> "SchemeCoefficients":
        if dt <= 0:
            raise ValueError("time step must be positive")
        taus = np.array(material.taus)
        phis = np.array(material.phis)
        a = (2 * taus - dt) / (2 * taus + dt)
        b = phis * dt / (2 * taus + dt)
        c = 2 * taus * phis / (2 * taus + dt)
        return cls(dt, a, b, c, 1.0 - b.sum(), material.phi0 + c.sum())


def initialize(
    system: AssembledSystem,
    space: DGSpace,
    material: PronyMaterial,
    u0,
    grad_u0,
    w0,
    scheme: Scheme,
) -> State:
    """Discrete initial data: elliptic projection of u0, L2 projection of w0."""
    n_internal = material.n_internal
    if u0 is None:
        U = np.zeros(space.total_dofs)
    else:
        rhs = assemble_elliptic_rhs(space, material, u0, grad_u0, system.alpha0, system.beta0)
        U = factor(system.A).solve(rhs)
    if w0 is None:
        W = np.zeros(space.total_dofs)
    else:
        rhs = LoadAssembler(space).assemble(f=w0)
        W = factor(system.M0).solve(rhs)
    internal = [np.zeros(space.total_dofs) for _ in range(n_internal)]
    return State(0, 0.0, U, W, internal, scheme)


def step_matrix(system: AssembledSystem, coeffs: SchemeCoefficients, scheme: Scheme):
    gamma = coeffs.gamma_d if scheme == Scheme.DISPLACEMENT else coeffs.gamma_v
    dt = coeffs.dt
    return (2.0 / dt**2) * system.M + (gamma / 2.0) * system.A + (1.0 / dt) * system.J


def step_displacement(
    state: State,
    system: AssembledSystem,
    coeffs: SchemeCoefficients,
    f_avg: np.ndarray,
    K: Factorization,
) -> State:
    """One Crank-Nicolson step of the displacement-form scheme.

    ``f_avg`` is the averaged load (F^{n+1} + F^n)/2 and ``K`` the
    factorization of ``step_matrix(system, coeffs, Scheme.DISPLACEMENT)``.
    """
    if state.scheme != Scheme.DISPLACEMENT:
        raise ValueError("state does not belong to the displacement scheme")
    dt = coeffs.dt
    rhs = (
        f_avg
        + (2.0 / dt**2) * (system.M @ state.U)
        + (2.0 / dt) * (system.M @ state.W)
        - (coeffs.gamma_d / 2.0) * (system.A @ state.U)
        + (1.0 / dt) * (system.J @ state.U)
    )
    for q, psi in enumerate(state.internal):
        rhs += 0.5 * (1.0 + coeffs.a[q]) * (system.A @ psi)
    U1 = K.solve(rhs)
    W1 = (2.0 / dt) * (U1 - state.U) - state.W
    internal = [
        coeffs.a[q] * psi + coeffs.b[q] * (U1 + state.U)
        for q, psi in enumerate(state.internal)
    ]
    return State(state.n + 1, (state.n + 1) * dt, U1, W1, internal, state.scheme)


def step_velocity(
    state: State,
    system: AssembledSystem,
    coeffs: SchemeCoefficients,
    f_avg: np.ndarray,
    K: Factorization,
) -> State:
    """One Crank-Nicolson step of the velocity-form scheme.

    ``f_avg`` must already include the exp-decaying a(u0, v) load term, and
    ``K`` is the factorization of ``step_matrix(system, coeffs, Scheme.VELOCITY)``.
    """
    if state.scheme != Scheme.VELOCITY:
        raise ValueError("state does not belong to the velocity scheme")
    dt = coeffs.dt
    rhs = (
        f_avg
        + (2.0 / dt**2) * (system.M @ state.U)
        + (2.0 / dt) * (system.M @ state.W)
        - ((coeffs.gamma_v - 2.0 * coeffs.c.sum()) / 2.0) * (system.A @ state.U)
        + (1.0 / dt) * (system.J @ state.U)
    )
    for q, s_q in enumerate(state.internal):
        rhs -= 0.5 * (1.0 + coeffs.a[q]) * (system.A @ s_q)
    U1 = K.solve(rhs)
    W1 = (2.0 / dt) * (U1 - state.U) - state.W
    internal = [
        coeffs.a[q] * s_q + coeffs.c[q] * (U1 - state.U)
        for q, s_q in enumerate(state.internal)
    ]
    return State(state.n + 1, (state.n + 1) * dt, U1, W1, internal, state.scheme)


def run(
    scheme: Scheme,
    space: DGSpace,
    system: AssembledSystem,
    material: PronyMaterial,
    T: float,
    dt: float,
    u0=None,
    grad_u0=None,
    w0=None,
    body_force=None,
    traction=None,
    diagnostics=None,
) -> State:
    """Integrate from t=0 to t=T with N = T/dt Crank-Nicolson steps.

    ``body_force(t)`` and ``traction(t)`` return fields bound to one time
    level (or None for homogeneous loads).  ``diagnostics(state)`` is called
    at every time level when given.  The step matrix is factored once, after
    the first ``diagnostics`` call, and reused for every step.
    """
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-12 * max(T, 1.0):
        raise ValueError(f"T={T} is not an integral multiple of dt={dt}")

    coeffs = SchemeCoefficients.build(material, dt)
    state = initialize(system, space, material, u0, grad_u0, w0, scheme)

    loads = LoadAssembler(space)

    def load_at(t):
        f = body_force(t) if body_force is not None else None
        g = traction(t) if traction is not None else None
        if f is None and g is None:
            vec = np.zeros(space.total_dofs)
        else:
            vec = loads.assemble(f, g)
        if scheme == Scheme.VELOCITY:
            decay = sum(
                p * np.exp(-t / tau) for p, tau in zip(material.phis, material.taus)
            )
            vec = vec - decay * a_u0
        return vec

    if scheme == Scheme.VELOCITY:
        a_u0 = system.A @ state.U
    f_prev = load_at(0.0)
    step = step_displacement if scheme == Scheme.DISPLACEMENT else step_velocity

    if diagnostics is not None:
        diagnostics(state)
    K = factor(step_matrix(system, coeffs, scheme))
    for n in range(n_steps):
        f_next = load_at((n + 1) * dt)
        state = step(state, system, coeffs, 0.5 * (f_prev + f_next), K)
        f_prev = f_next
        if diagnostics is not None:
            diagnostics(state)
    return state
