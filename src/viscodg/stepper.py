"""Crank-Nicolson time integration of the two fully discrete schemes.

The internal-variable updates are linear one-step recurrences, so they are
eliminated algebraically from the momentum equation.  A step of either form
then costs a single SPD solve with the time-independent matrix

    K = (2/dt^2) M + (gamma/2) A + (1/dt) J,

which is factored once per run, and the right-hand side

    f_avg + M ((2/dt^2) U0 + (2/dt) W0) + A (sum_q s (1 + a_q)/2 z_q - u_w U0) + (1/dt) J U0,

followed by the recurrence z_q <- a_q z_q + r_q (U1 + s U0), with

    a_q = (2 tau_q - dt) / (2 tau_q + dt),
    b_q = phi_q dt / (2 tau_q + dt),
    c_q = 2 tau_q phi_q / (2 tau_q + dt).

The two forms differ only in their coefficients:

    form          z_q    gamma             u_w                   s    r_q
    displacement  psi_q  1 - sum_q b_q     gamma/2               +1   b_q
    velocity      S_q    phi0 + sum_q c_q  gamma/2 - sum_q c_q   -1   c_q

The velocity scheme's exp-decaying load term in u0 is applied as A @ U0,
which is exact because U0 is the elliptic projection of u0.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"time step dt={dt} must be positive and finite")
        taus = np.array(material.taus)
        phis = np.array(material.phis)
        a = (2 * taus - dt) / (2 * taus + dt)
        b = phis * dt / (2 * taus + dt)
        c = 2 * taus * phis / (2 * taus + dt)
        return cls(dt, a, b, c, 1.0 - b.sum(), material.phi0 + c.sum())


class _Form(NamedTuple):
    """One form's row of the coefficient table in the module docstring."""

    gamma: float
    u_weight: float
    sign: float
    rate: np.ndarray

    @classmethod
    def of(cls, coeffs: SchemeCoefficients, scheme: Scheme) -> "_Form":
        if scheme == Scheme.DISPLACEMENT:
            return cls(coeffs.gamma_d, coeffs.gamma_d / 2.0, 1.0, coeffs.b)
        return cls(coeffs.gamma_v, coeffs.gamma_v / 2.0 - coeffs.c.sum(), -1.0, coeffs.c)


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
    if (u0 is None) != (grad_u0 is None):
        missing = "grad_u0" if grad_u0 is None else "u0"
        raise ValueError(f"{missing} is missing: the elliptic projection needs u0 and grad_u0")
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
        # M is rho-weighted, so scaling the load by rho gives the plain L2 projection
        W = factor(system.M).solve(material.rho * rhs)
    internal = [np.zeros(space.total_dofs) for _ in range(n_internal)]
    return State(0, 0.0, U, W, internal, scheme)


def step_matrix(system: AssembledSystem, coeffs: SchemeCoefficients, scheme: Scheme):
    gamma = _Form.of(coeffs, scheme).gamma
    dt = coeffs.dt
    return (2.0 / dt**2) * system.M + (gamma / 2.0) * system.A + (1.0 / dt) * system.J


def _step(
    state: State,
    system: AssembledSystem,
    coeffs: SchemeCoefficients,
    f_avg: np.ndarray,
    K: Factorization,
) -> State:
    """One Crank-Nicolson step of either form: one product each with M, A and J."""
    form = _Form.of(coeffs, state.scheme)
    dt = coeffs.dt
    stiff = -form.u_weight * state.U
    for a_q, z in zip(coeffs.a, state.internal):
        stiff += (form.sign * 0.5 * (1.0 + a_q)) * z
    rhs = (
        f_avg
        + system.M @ ((2.0 / dt**2) * state.U + (2.0 / dt) * state.W)
        + system.A @ stiff
        + (1.0 / dt) * (system.J @ state.U)
    )
    U1 = K.solve(rhs)
    W1 = (2.0 / dt) * (U1 - state.U) - state.W
    increment = U1 + form.sign * state.U
    internal = [
        a_q * z + r_q * increment for a_q, r_q, z in zip(coeffs.a, form.rate, state.internal)
    ]
    return State(state.n + 1, (state.n + 1) * dt, U1, W1, internal, state.scheme)


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
    return _step(state, system, coeffs, f_avg, K)


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
    return _step(state, system, coeffs, f_avg, K)


def step_count(T: float, dt: float) -> int:
    """The number of steps T/dt, for a finite T >= 0 that is an integral multiple of dt > 0."""
    if not math.isfinite(T):
        raise ValueError(f"final time T={T} must be finite")
    if T < 0:
        raise ValueError(f"final time T={T} is negative")
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-12 * max(T, 1.0):
        raise ValueError(f"T={T} is not an integral multiple of dt={dt}")
    return n_steps


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
    level (or None for homogeneous loads).  Each field is called once per
    time level, always at the same points (the element quadrature points,
    and those of the Neumann edges).  A field may return a
    ``SeparableField`` instead of a pair: its spatial factors are contracted
    with the basis once per run, and each time level only combines them with
    its coefficients, as for ``ManufacturedCase``.  ``diagnostics(state)``
    is called at every time level when given.  The step matrix is factored
    once, after the first ``diagnostics`` call, and reused for every step.
    """
    coeffs = SchemeCoefficients.build(material, dt)
    n_steps = step_count(T, dt)

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
