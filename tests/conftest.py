import numpy as np
import pytest

from viscodg.assembly import assemble_system
from viscodg.manufactured import ManufacturedCase
from viscodg.material import PronyMaterial
from viscodg.mesh import build_structured_mesh
from viscodg.space import DGSpace
from viscodg.stepper import Scheme


# pass/fail lines collected by the acceptance suite, one per criterion
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


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


def block_step_oracle(system, material, co, state, f_avg):
    """Dense solve of the unreduced one-step system (momentum + midpoint +
    internal-variable recurrences) as an oracle for the eliminated scheme."""
    M = system.M.toarray()
    A = system.A.toarray()
    J = system.J.toarray()
    N = M.shape[0]
    Q = material.n_internal
    dt = co.dt
    taus = np.array(material.taus)
    phis = np.array(material.phis)
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
            K[blk(2 + q), blk(0)] = -co.c[q] * np.eye(N)
            b[blk(2 + q)] = co.a[q] * state.internal[q] - co.c[q] * state.U
    # midpoint relation: (1/dt) U1 - (1/2) W1 = (1/dt) U0 + (1/2) W0
    K[blk(1), blk(0)] = (1.0 / dt) * np.eye(N)
    K[blk(1), blk(1)] = -0.5 * np.eye(N)
    b[blk(1)] = (1.0 / dt) * state.U + 0.5 * state.W

    sol = np.linalg.solve(K, b)
    U1, W1 = sol[blk(0)], sol[blk(1)]
    internal = [sol[blk(2 + q)] for q in range(Q)]
    return U1, W1, internal


@pytest.fixture(scope="session")
def case():
    return ManufacturedCase()


@pytest.fixture(scope="session")
def small_setup(case):
    """n=2, k=1 mesh/space/system shared by cheap tests."""
    mesh = build_structured_mesh(2)
    space = DGSpace.build(mesh, 1)
    system = assemble_system(space, case.material, alpha0=10.0, beta0=1.0)
    return mesh, space, system


@pytest.fixture(scope="session")
def quadratic_setup(case):
    """n=4, k=2 mesh/space/system for higher-order checks."""
    mesh = build_structured_mesh(4)
    space = DGSpace.build(mesh, 2)
    system = assemble_system(space, case.material, alpha0=10.0, beta0=1.0)
    return mesh, space, system


@pytest.fixture
def rng():
    return np.random.default_rng(42)
