import numpy as np
import pytest
import scipy.sparse as sp

from viscodg.assembly import AssembledSystem
from viscodg.linalg import factor
from viscodg.material import PronyMaterial, internal_kernel_constant_history
from viscodg.stepper import (
    Scheme,
    SchemeCoefficients,
    State,
    initialize,
    run,
    step_displacement,
    step_matrix,
    step_velocity,
)


def test_scheme_coefficients(case):
    dt = 0.25
    co = SchemeCoefficients.build(case.material, dt)
    taus = np.array([0.5, 1.5])
    phis = np.array([0.1, 0.4])
    assert np.allclose(co.a, (2 * taus - dt) / (2 * taus + dt))
    assert np.allclose(co.b, phis * dt / (2 * taus + dt))
    assert np.allclose(co.c, 2 * taus * phis / (2 * taus + dt))
    assert abs(co.gamma_d - (1.0 - co.b.sum())) < 1e-15
    assert abs(co.gamma_v - (0.5 + co.c.sum())) < 1e-15
    # both effective stiffnesses stay positive for any dt
    for dt in (1e-3, 1.0, 100.0):
        co = SchemeCoefficients.build(case.material, dt)
        assert co.gamma_d > 0
        assert co.gamma_v > 0
    with pytest.raises(ValueError):
        SchemeCoefficients.build(case.material, 0.0)


def _scalar_system():
    """1-DOF oscillator u'' + u = f as a degenerate assembled system."""
    one = sp.csr_matrix(np.array([[1.0]]))
    zero = sp.csr_matrix(np.array([[0.0]]))
    return AssembledSystem(M=one, M0=one, A=one, J=zero, A_vol=one, alpha0=10.0, beta0=1.0)


def test_crank_nicolson_exact_for_quadratic():
    # u'' + u = 2 + t^2 with zero initial data has the solution u = t^2,
    # for which the trapezoidal rule is exact
    material = PronyMaterial(rho=1.0, phi0=1.0, phis=(), taus=())
    system = _scalar_system()
    dt = 0.125
    co = SchemeCoefficients.build(material, dt)
    for scheme, step in (
        (Scheme.DISPLACEMENT, step_displacement),
        (Scheme.VELOCITY, step_velocity),
    ):
        K = factor(step_matrix(system, co, scheme))
        state = State(0, 0.0, np.zeros(1), np.zeros(1), [], scheme)
        for n in range(16):

            def f(t):
                return 2.0 + t * t

            f_avg = np.array([0.5 * (f(n * dt) + f((n + 1) * dt))])
            state = step(state, system, co, f_avg, K)
        assert abs(state.t - 2.0) < 1e-14
        assert abs(state.U[0] - 4.0) < 1e-12
        assert abs(state.W[0] - 4.0) < 1e-12


def test_step_matrix_composition(case, small_setup):
    _, space, system = small_setup
    dt = 0.1
    co = SchemeCoefficients.build(case.material, dt)
    for scheme, gamma in ((Scheme.DISPLACEMENT, co.gamma_d), (Scheme.VELOCITY, co.gamma_v)):
        K = step_matrix(system, co, scheme)
        ref = (2.0 / dt**2) * system.M + (gamma / 2.0) * system.A + (1.0 / dt) * system.J
        assert abs((K - ref).toarray()).max() < 1e-14


def test_step_scheme_mismatch_rejected(case):
    system = _scalar_system()
    co = SchemeCoefficients.build(PronyMaterial(1.0, 1.0, (), ()), 0.1)
    state = State(0, 0.0, np.zeros(1), np.zeros(1), [], Scheme.VELOCITY)
    K = factor(step_matrix(system, co, Scheme.DISPLACEMENT))
    with pytest.raises(ValueError):
        step_displacement(state, system, co, np.zeros(1), K)
    state = State(0, 0.0, np.zeros(1), np.zeros(1), [], Scheme.DISPLACEMENT)
    K = factor(step_matrix(system, co, Scheme.VELOCITY))
    with pytest.raises(ValueError):
        step_velocity(state, system, co, np.zeros(1), K)


def test_internal_recurrence_accuracy(case):
    # scalar recurrence for constant history u = c converges at O(dt^2)
    # to the closed-form hereditary integral
    m = case.material
    c, t_end = 2.0, 1.0
    errs = []
    for dt in (0.1, 0.05):
        co = SchemeCoefficients.build(m, dt)
        psi = np.zeros(m.n_internal)
        for _ in range(round(t_end / dt)):
            psi = co.a * psi + co.b * (c + c)
        ref = np.array(
            [internal_kernel_constant_history(m, q, c, t_end) for q in range(m.n_internal)]
        )
        errs.append(np.abs(psi - ref).max())
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 3.5  # second order


def test_initialize_projections(case, small_setup):
    _, space, system = small_setup
    st = initialize(
        system,
        space,
        case.material,
        u0=lambda x, y: (x + 2 * y, 3 * x - y),
        grad_u0=lambda x, y: (
            (np.ones_like(x), 2 * np.ones_like(x)),
            (3 * np.ones_like(x), -np.ones_like(x)),
        ),
        w0=lambda x, y: (x - y, 2 * x),
        scheme=Scheme.DISPLACEMENT,
    )
    assert st.n == 0 and st.t == 0.0
    # both projections reproduce fields already in the discrete space
    assert np.abs(st.U - space.interpolate(lambda x, y: (x + 2 * y, 3 * x - y))).max() < 1e-9
    assert np.abs(st.W - space.interpolate(lambda x, y: (x - y, 2 * x))).max() < 1e-10
    assert len(st.internal) == 2
    for psi in st.internal:
        assert np.allclose(psi, 0.0)


def test_initialize_none_is_zero(case, small_setup):
    _, space, system = small_setup
    st = initialize(system, space, case.material, None, None, None, Scheme.VELOCITY)
    assert np.allclose(st.U, 0.0)
    assert np.allclose(st.W, 0.0)


def test_run_rejects_nonintegral_horizon(case, small_setup):
    _, space, system = small_setup
    with pytest.raises(ValueError):
        run(Scheme.DISPLACEMENT, space, system, case.material, T=1.0, dt=0.3)


def test_run_zero_steps(case, small_setup):
    _, space, system = small_setup
    st = run(
        Scheme.DISPLACEMENT,
        space,
        system,
        case.material,
        T=0.0,
        dt=0.25,
        u0=case.displacement_at(0.0),
        grad_u0=case.grad_displacement_at(0.0),
        w0=case.velocity_at(0.0),
    )
    assert st.n == 0
    assert st.t == 0.0


def test_run_midpoint_relation_and_diagnostics(case, small_setup):
    # W^{n+1} + W^n = (2/dt)(U^{n+1} - U^n) at every step, both schemes
    _, space, system = small_setup
    dt = 0.25
    for scheme in Scheme:
        states = []
        run(
            scheme,
            space,
            system,
            case.material,
            T=1.0,
            dt=dt,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
            body_force=case.body_force_at,
            traction=case.traction_at,
            diagnostics=lambda s: states.append((s.U.copy(), s.W.copy())),
        )
        assert len(states) == 5
        for (u0, w0), (u1, w1) in zip(states, states[1:]):
            lhs = w1 + w0
            rhs = (2.0 / dt) * (u1 - u0)
            assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_scheme_equivalence_coarse(case, small_setup):
    # both forms discretize the same problem; solutions agree up to O(dt^2)
    _, space, system = small_setup
    finals = {}
    for scheme in Scheme:
        st = run(
            scheme,
            space,
            system,
            case.material,
            T=1.0,
            dt=1.0 / 64,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
            body_force=case.body_force_at,
            traction=case.traction_at,
        )
        finals[scheme] = st.U
    d = finals[Scheme.DISPLACEMENT]
    v = finals[Scheme.VELOCITY]
    assert np.linalg.norm(d - v) / np.linalg.norm(d) < 2e-2


def test_homogeneous_energy_never_grows(case, small_setup):
    # with zero loads the discrete energy is nonincreasing step to step
    _, space, system = small_setup
    energy_matrix = system.A_vol + system.J
    for scheme in Scheme:
        energies = []
        run(
            scheme,
            space,
            system,
            case.material,
            T=2.0,
            dt=0.1,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
            diagnostics=lambda s: energies.append(
                float(s.W @ (system.M @ s.W) + s.U @ (energy_matrix @ s.U))
            ),
        )
        energies = np.array(energies)
        assert np.all(np.diff(energies) < 1e-10 * energies[0])
