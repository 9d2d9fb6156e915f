import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import block_step_oracle, internal_kernel_constant_history
from hypothesis import given, settings
from hypothesis import strategies as st

from viscodg.assembly import (
    AssembledSystem,
    LoadAssembler,
    assemble_mass,
    assemble_system,
    assemble_volume_stiffness,
)
from viscodg.linalg import Factorization, factor
from viscodg.material import PronyMaterial
from viscodg.mesh import build_structured_mesh
from viscodg.space import DGSpace
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
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"dt={bad}"):
            SchemeCoefficients.build(case.material, bad)


def _scalar_system():
    """1-DOF oscillator u'' + u = f as a degenerate assembled system."""
    one = sp.csr_matrix(np.array([[1.0]]))
    zero = sp.csr_matrix(np.array([[0.0]]))
    return AssembledSystem(M=one, A=one, J=zero, alpha0=10.0, beta0=1.0)


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


@settings(max_examples=10, deadline=None)
@given(rho=st.floats(0.5, 2.0), k=st.sampled_from([1, 2]))
def test_velocity_projection_is_the_plain_l2_projection(case, rho, k):
    # W0 solves the rho-weighted mass against rho * rhs: the same L2
    # projection as the plain mass against rhs
    space = DGSpace.build(build_structured_mesh(2), k)
    material = PronyMaterial(rho=rho, phi0=0.5, phis=(0.1, 0.4), taus=(0.5, 1.5))
    system = assemble_system(space, material)
    w0 = case.velocity_at(0.0)
    W = initialize(system, space, material, None, None, w0, Scheme.VELOCITY).W
    ref = factor(assemble_mass(space, 1.0)).solve(LoadAssembler(space).assemble(f=w0))
    assert np.abs(W - ref).max() <= 1e-13 * np.abs(ref).max()


def test_initialize_none_is_zero(case, small_setup):
    _, space, system = small_setup
    st = initialize(system, space, case.material, None, None, None, Scheme.VELOCITY)
    assert np.allclose(st.U, 0.0)
    assert np.allclose(st.W, 0.0)


def test_run_rejects_nonintegral_horizon(case, small_setup):
    _, space, system = small_setup
    with pytest.raises(ValueError):
        run(Scheme.DISPLACEMENT, space, system, case.material, T=1.0, dt=0.3)


def test_run_rejects_negative_final_time(case, small_setup):
    _, space, system = small_setup
    with pytest.raises(ValueError, match="negative"):
        run(Scheme.DISPLACEMENT, space, system, case.material, T=-1.0, dt=0.25)


@pytest.mark.parametrize(
    "T, dt, name",
    [
        (1.0, 0.0, "dt=0.0"),
        (1.0, -0.25, "dt=-0.25"),
        (1.0, float("nan"), "dt=nan"),
        (1.0, float("inf"), "dt=inf"),
        (float("nan"), 0.25, "T=nan"),
        (float("inf"), 0.25, "T=inf"),
    ],
)
def test_run_rejects_bad_time_inputs_up_front(case, small_setup, monkeypatch, T, dt, name):
    # a bad dt or T fails with its value before any projection or factorization
    _, space, system = small_setup

    def no_factor(matrix):
        raise AssertionError("factored before the time inputs were checked")

    monkeypatch.setattr("viscodg.stepper.factor", no_factor)
    with pytest.raises(ValueError, match=name):
        run(
            Scheme.DISPLACEMENT,
            space,
            system,
            case.material,
            T=T,
            dt=dt,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
        )


@pytest.mark.parametrize("missing", ["u0", "grad_u0"])
def test_initial_displacement_needs_u0_and_grad_u0(case, small_setup, monkeypatch, missing):
    # either one alone fails, naming the missing one, before any factorization
    _, space, system = small_setup

    def no_factor(matrix):
        raise AssertionError("factored before the initial data were checked")

    monkeypatch.setattr("viscodg.stepper.factor", no_factor)
    data = {"u0": case.displacement_at(0.0), "grad_u0": case.grad_displacement_at(0.0)}
    data[missing] = None
    with pytest.raises(ValueError, match=f"^{missing} is missing"):
        run(Scheme.DISPLACEMENT, space, system, case.material, T=1.0, dt=0.25, **data)
    with pytest.raises(ValueError, match=f"^{missing} is missing"):
        initialize(system, space, case.material, data["u0"], data["grad_u0"], None, Scheme.VELOCITY)


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
    energy_matrix = assemble_volume_stiffness(space, case.material) + system.J
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


_STEPS = ((Scheme.DISPLACEMENT, step_displacement), (Scheme.VELOCITY, step_velocity))


def _random_prony(rng, n_internal):
    phis = rng.uniform(0.05, 1.0, n_internal) / (n_internal + 1)
    taus = rng.uniform(0.05, 5.0, n_internal)
    return PronyMaterial(rho=1.0, phi0=1.0 - phis.sum(), phis=tuple(phis), taus=tuple(taus))


def _random_state(rng, scheme, N, n_internal):
    internal = [rng.standard_normal(N) for _ in range(n_internal)]
    return State(3, 0.5, rng.standard_normal(N), rng.standard_normal(N), internal, scheme)


@settings(max_examples=30, deadline=None)
@given(
    n_internal=st.sampled_from([0, 1, 3]),
    dt=st.floats(1.0 / 256, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_step_matches_block_oracle(small_setup, n_internal, dt, seed):
    # the eliminated step of both forms solves the unreduced block system
    _, space, system = small_setup
    rng = np.random.default_rng(seed)
    material = _random_prony(rng, n_internal)
    co = SchemeCoefficients.build(material, dt)
    for scheme, step in _STEPS:
        state = _random_state(rng, scheme, space.total_dofs, n_internal)
        f_avg = rng.standard_normal(space.total_dofs)
        new = step(state, system, co, f_avg, factor(step_matrix(system, co, scheme)))
        U1, W1, internal = block_step_oracle(system, material, co, state, f_avg)
        scale = max(1.0, np.abs(U1).max())
        assert np.abs(new.U - U1).max() < 1e-10 * scale
        assert np.abs(new.W - W1).max() < 1e-10 * scale
        assert len(new.internal) == n_internal
        for z, ref in zip(new.internal, internal):
            assert np.abs(z - ref).max() < 1e-10 * scale


class _Counted:
    """A matrix that counts its products with vectors under ``name``."""

    def __init__(self, matrix, name, calls):
        self.matrix, self.name, self.calls = matrix, name, calls

    def __matmul__(self, x):
        self.calls[self.name] += 1
        return self.matrix @ x


@pytest.mark.parametrize("n_internal", [0, 1, 3])
def test_one_step_is_three_products_and_the_guard(small_setup, rng, n_internal):
    _, space, system = small_setup
    co = SchemeCoefficients.build(_random_prony(rng, n_internal), 0.1)
    for scheme, step in _STEPS:
        calls = Counter()
        counted = dataclasses.replace(
            system, **{name: _Counted(getattr(system, name), name, calls) for name in "MAJ"}
        )
        K = factor(step_matrix(system, co, scheme))
        K = Factorization(_Counted(K.matrix, "K", calls), K._lu)
        state = _random_state(rng, scheme, space.total_dofs, n_internal)
        step(state, counted, co, rng.standard_normal(space.total_dofs), K)
        assert calls == {"M": 1, "A": 1, "J": 1, "K": 1}
