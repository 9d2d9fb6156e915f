"""Crank-Nicolson time integration of the two fully discrete schemes.

The internal-variable updates are linear one-step recurrences, so they are
eliminated algebraically from the momentum equation.  A step of either form
then costs a single SPD solve for the increment dU = U1 - U0, with the
time-independent matrix

    K = (2/dt^2) M + (gamma/2) A + (1/dt) J

and the right-hand side, from which K U0 has been subtracted,

    f_avg + (2/dt) M W0 + A (sum_q s (1 + a_q)/2 z_q - u_w U0).

Then W1 = (2/dt) dU - W0, free of the cancellation in U1 - U0, and
z_q <- a_q z_q + r_q (U1 + s U0), with

    a_q = (2 tau_q - dt) / (2 tau_q + dt),
    b_q = phi_q dt / (2 tau_q + dt),
    c_q = 2 tau_q phi_q / (2 tau_q + dt).

The two forms differ only in their rows below.  They share gamma and so K,
as b_q + c_q = phi_q and phi0 + sum_q phi_q = 1 make 1 - sum_q b_q = gamma.
A ``StepOperator`` holds K for one system and dt, and serves both forms:

    both forms    gamma = phi0 + sum_q c_q, one K
    form          z_q    u_w     s    r_q
    displacement  psi_q  gamma   +1   b_q
    velocity      S_q    phi0    -1   c_q

The velocity scheme's exp-decaying load term in u0 is applied as A @ U0,
which is exact because U0 is the elliptic projection of u0.
"""

import math
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
class StepOperator:
    """The Crank-Nicolson step matrix K of one system at one dt, valid for both forms.

    Holds gamma, each form's row of the coefficient table in the module
    docstring and the factorization of K, so they cannot disagree.  K is built
    by ``AssembledSystem.combine``: a new data vector on the index arrays of
    the system's A, which ``assemble_system`` makes read-only.
    """

    system: AssembledSystem
    dt: float
    a: np.ndarray  # a_q
    gamma: float
    rows: dict[Scheme, tuple[np.ndarray, float, float]]  # (r_q, u_w, s) per form
    K: Factorization

    @classmethod
    def build(cls, system: AssembledSystem, dt: float) -> "StepOperator":
        _check_time_step(dt)
        material = system.material
        taus = np.array(material.taus)
        phis = np.array(material.phis)
        a = (2 * taus - dt) / (2 * taus + dt)
        b = phis * dt / (2 * taus + dt)
        c = 2 * taus * phis / (2 * taus + dt)
        gamma = material.phi0 + c.sum()
        rows = {
            Scheme.DISPLACEMENT: (b, gamma, 1.0),
            Scheme.VELOCITY: (c, material.phi0, -1.0),
        }
        K = factor(system.combine(2.0 / dt**2, gamma / 2.0, 1.0 / dt))
        return cls(system, dt, a, gamma, rows, K)


def initialize(system: AssembledSystem, u0, grad_u0, w0, scheme: Scheme) -> State:
    """Elliptic projection of u0 and L2 projection of w0 on the system's space."""
    space = system.space
    if (u0 is None) != (grad_u0 is None):
        missing = "grad_u0" if grad_u0 is None else "u0"
        raise ValueError(f"{missing} is missing: the elliptic projection needs u0 and grad_u0")
    if u0 is None:
        U = np.zeros(space.total_dofs)
    else:
        rhs = assemble_elliptic_rhs(system, u0, grad_u0)
        U = factor(system.A).solve(rhs)
    if w0 is None:
        W = np.zeros(space.total_dofs)
    else:
        rhs = LoadAssembler(space).assemble(f=w0)
        # M is rho-weighted, so scaling the load by rho gives the plain L2 projection
        W = factor(system.M).solve(system.material.rho * rhs)
    internal = [np.zeros(space.total_dofs) for _ in range(system.material.n_internal)]
    return State(0, 0.0, U, W, internal, scheme)


def _step(state: State, op: StepOperator, f_avg: np.ndarray, scheme: Scheme) -> State:
    """One Crank-Nicolson step of either form: two products, M and A, and one solve for dU."""
    if state.scheme != scheme:
        raise ValueError(f"a {scheme.value} step got a {state.scheme.value} state")
    if len(state.internal) != len(op.a):
        raise ValueError(
            f"the state has {len(state.internal)} internal variables, the operator {len(op.a)}"
        )
    system, dt = op.system, op.dt
    rate, u_weight, sign = op.rows[state.scheme]
    stiff = -u_weight * state.U
    for a_q, z in zip(op.a, state.internal):
        stiff += (sign * 0.5 * (1.0 + a_q)) * z
    dU = op.K.solve(f_avg + system.M @ ((2.0 / dt) * state.W) + system.A @ stiff)
    U1 = state.U + dU
    W1 = (2.0 / dt) * dU - state.W
    increment = U1 + sign * state.U
    internal = [a_q * z + r_q * increment for a_q, r_q, z in zip(op.a, rate, state.internal)]
    return State(state.n + 1, (state.n + 1) * dt, U1, W1, internal, state.scheme)


def step_displacement(state: State, op: StepOperator, f_avg: np.ndarray) -> State:
    """One Crank-Nicolson step of the displacement-form scheme.

    ``f_avg`` is the averaged load (F^{n+1} + F^n)/2; the state must belong
    to the displacement form.
    """
    return _step(state, op, f_avg, Scheme.DISPLACEMENT)


def step_velocity(state: State, op: StepOperator, f_avg: np.ndarray) -> State:
    """One Crank-Nicolson step of the velocity-form scheme.

    ``f_avg`` must already include the exp-decaying a(u0, v) load term; the
    state must belong to the velocity form.
    """
    return _step(state, op, f_avg, Scheme.VELOCITY)


def _check_scheme(scheme) -> None:
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be Scheme.DISPLACEMENT or Scheme.VELOCITY, got {scheme!r}")


def _check_time_step(dt: float) -> None:
    # K weighs M by 2/dt^2 and J by 1/dt: dt^2 must neither overflow nor underflow to 0
    square = float(dt) * float(dt)
    if not (dt > 0 and 0 < square < math.inf and 2.0 / square < math.inf):
        raise ValueError(f"time step dt={dt} must be positive with 2/dt^2 finite and nonzero")


def step_count(T: float, dt: float) -> int:
    """The number of steps T/dt, for a finite T >= 0 that is an integral multiple of dt > 0."""
    _check_time_step(dt)
    if not math.isfinite(float(T) / float(dt)):
        raise ValueError(f"final time T={T} over dt={dt} must be finite")
    if T < 0:
        raise ValueError(f"final time T={T} is negative")
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-12 * T:
        raise ValueError(f"T={T} is not an integral multiple of dt={dt}")
    return n_steps


def advance(
    state: State, op: StepOperator, T: float, body_force=None, traction=None, diagnostics=None
) -> State:
    """Integrate an initial state (n = 0) to t=T with N = T/dt steps of ``op``.

    The system and dt are ``op``'s and the form is the state's, so one
    ``initialize`` and one ``StepOperator`` per dt serve both forms, through
    ``dataclasses.replace(initial, scheme=...)``.  ``body_force(t)`` and
    ``traction(t)`` return fields bound to one time level (or None for
    homogeneous loads), each called once per time level at the same points;
    a ``SeparableField`` is contracted with the basis there once per call.
    ``diagnostics(state)`` is called at every time level when given.  A
    state whose scheme is not a ``Scheme`` raises ``TypeError`` first, and one
    of another size than the system, or past n = 0 (the velocity form's
    history load reads the initial U), ``ValueError``.
    """
    _check_scheme(state.scheme)
    system, dt = op.system, op.dt
    ndofs = system.A.shape[0]
    if state.U.size != ndofs:
        raise ValueError(f"the state has {state.U.size} DOFs, the operator's system {ndofs}")
    if state.n != 0:
        raise ValueError(f"advance starts from an initial state (n = 0), got n = {state.n}")
    n_steps = step_count(T, dt)
    scheme, material = state.scheme, system.material

    loads = LoadAssembler(system.space)

    def load_at(t):
        f = body_force(t) if body_force is not None else None
        g = traction(t) if traction is not None else None
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
    for n in range(n_steps):
        f_next = load_at((n + 1) * dt)
        state = step(state, op, 0.5 * (f_prev + f_next))
        f_prev = f_next
        if diagnostics is not None:
            diagnostics(state)
    return state


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
    """``advance`` from ``initialize`` and a ``StepOperator`` at dt, both built for this call.

    A ``scheme`` that is not a ``Scheme`` raises ``TypeError``; a ``space`` or
    ``material`` not the system's, or a bad T or dt, ``ValueError``, before any projection.
    """
    _check_scheme(scheme)
    if space is not system.space:
        raise ValueError("space is not the system's: pass system.space, the one it was assembled on")
    if material != system.material:
        raise ValueError(f"material {material} is not the system's {system.material}")
    step_count(T, dt)
    state = initialize(system, u0, grad_u0, w0, scheme)
    op = StepOperator.build(system, dt)
    return advance(state, op, T, body_force, traction, diagnostics)
