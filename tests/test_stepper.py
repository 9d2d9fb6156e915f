import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    assemble_volume_stiffness,
    block_diagonal_mass,
    block_step_oracle,
    internal_kernel_constant_history,
    interpolate,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscodg.assembly import AssembledSystem, LoadAssembler, assemble_system
from viscodg.linalg import Factorization, factor
from viscodg.manufactured import ManufacturedCase, benchmark_material
from viscodg.material import PronyMaterial
from viscodg.mesh import build_structured_mesh
from viscodg.space import DGSpace
from viscodg.stepper import (
    Scheme,
    State,
    StepOperator,
    advance,
    initialize,
    run,
    step_displacement,
    step_velocity,
)


_STEPS = ((Scheme.DISPLACEMENT, step_displacement), (Scheme.VELOCITY, step_velocity))


def _scalar_system(material):
    """1-DOF oscillator u'' + u = f as a degenerate assembled system of ``material``."""
    one = sp.csr_matrix(np.array([[1.0]]))
    zero = sp.csr_matrix(np.array([[0.0]]))  # stores no entry
    return AssembledSystem(
        M=one,
        A=one,
        J=zero,
        M_slots=np.array([0]),
        J_slots=np.array([], dtype=int),
        material=material,
        alpha0=10.0,
        space=None,
    )


@st.composite
def _prony_materials(draw):
    """Valid Prony materials with 0 to 3 internal variables."""
    phis = draw(st.lists(st.floats(0.01, 0.3), min_size=0, max_size=3))
    taus = draw(st.lists(st.floats(0.01, 100.0), min_size=len(phis), max_size=len(phis)))
    return PronyMaterial(rho=1.0, phi0=1.0 - sum(phis), phis=tuple(phis), taus=tuple(taus))


@settings(max_examples=50, deadline=None)
@given(material=_prony_materials(), any_dt=st.floats(1e-4, 10.0))
def test_scheme_coefficients(case, material, any_dt):
    dt = 0.25
    system = _scalar_system(case.material)
    taus = np.array([0.5, 1.5])
    phis = np.array([0.1, 0.4])
    a = (2 * taus - dt) / (2 * taus + dt)
    b = phis * dt / (2 * taus + dt)
    c = 2 * taus * phis / (2 * taus + dt)
    op = StepOperator.build(system, dt)
    assert op.dt == dt and op.system is system
    assert np.allclose(op.a, a)
    # the one gamma is both forms' gamma: 1 - sum_q b_q and phi0 + sum_q c_q
    assert abs(op.gamma - (1.0 - b.sum())) < 1e-15
    assert abs(op.gamma - (0.5 + c.sum())) < 1e-15
    # the rows of the coefficient table in the module docstring
    rate, u_weight, sign = op.rows[Scheme.DISPLACEMENT]
    assert np.allclose(rate, b) and abs(u_weight - op.gamma / 2.0) < 1e-15 and sign == 1.0
    rate, u_weight, sign = op.rows[Scheme.VELOCITY]
    assert np.allclose(rate, c) and abs(u_weight - (op.gamma / 2.0 - c.sum())) < 1e-15
    assert sign == -1.0
    # the effective stiffness, every rate and every decay factor stay in
    # range for any valid material and dt
    op = StepOperator.build(_scalar_system(material), any_dt)
    assert op.gamma > 0 and np.all(np.abs(op.a) < 1)
    for rate, _, _ in op.rows.values():
        assert np.all(rate > 0)
    for bad in (0.0, -0.25, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"dt={bad}"):
            StepOperator.build(system, bad)


@st.composite
def _materials_and_steps(draw):
    """A dt and a material with 0 to 3 internal variables, tau_q from 1e-3 dt
    to 1e3 dt, whose coefficients sum to 1 only within what ``PronyMaterial``
    allows (1e-12)."""
    dt = draw(st.floats(1.0 / 1024, 1.0))
    phis = draw(st.lists(st.floats(0.01, 0.3), min_size=0, max_size=3))
    ratios = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(phis), max_size=len(phis)))
    off = draw(st.floats(-0.9e-12, 0.9e-12))
    phi0 = 1.0 - sum(phis) + off
    return PronyMaterial(1.0, phi0, tuple(phis), tuple(r * dt for r in ratios)), dt


@settings(max_examples=30, deadline=None)
@given(setting=_materials_and_steps())
@example(setting=(benchmark_material(), 0.25))
def test_both_forms_factor_one_step_matrix(setting):
    # a displacement run and a velocity run at one dt factor K bit for bit alike
    material, dt = setting
    space = DGSpace.build(build_structured_mesh(1), 1)
    system = assemble_system(space, material)
    factored = []

    def recording(matrix):
        factored.append(matrix.data.copy())
        return factor(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("viscodg.stepper.factor", recording)
        for scheme in Scheme:
            run(scheme, space, system, material, T=dt, dt=dt)
    displacement, velocity = factored
    assert displacement.tobytes() == velocity.tobytes()


def test_crank_nicolson_exact_for_quadratic():
    # u'' + u = 2 + t^2 with zero initial data has the solution u = t^2,
    # for which the trapezoidal rule is exact
    system = _scalar_system(PronyMaterial(rho=1.0, phi0=1.0, phis=(), taus=()))
    dt = 0.125
    op = StepOperator.build(system, dt)
    for scheme, step in _STEPS:
        state = State(0, 0.0, np.zeros(1), np.zeros(1), [], scheme)
        for n in range(16):

            def f(t):
                return 2.0 + t * t

            f_avg = np.array([0.5 * (f(n * dt) + f((n + 1) * dt))])
            state = step(state, op, f_avg)
        assert abs(state.t - 2.0) < 1e-14
        assert abs(state.U[0] - 4.0) < 1e-12
        assert abs(state.W[0] - 4.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(dt=st.floats(1e-4, 10.0))
def test_step_matrix_composition(small_setup, quadratic_setup, dt):
    # K is a new data vector on A's index arrays, with the pattern of the sparse
    # sum it replaces and its values bit for bit; at k=2 (quadratic_setup) A
    # stores zeros where only J has an entry
    for _, _, system in (small_setup, quadratic_setup):
        op = StepOperator.build(system, dt)
        gamma, K = op.gamma, op.K.matrix
        ref = (2.0 / dt**2) * system.M + (gamma / 2.0) * system.A + (1.0 / dt) * system.J
        assert np.array_equal(K.indptr, ref.indptr) and np.array_equal(K.indices, ref.indices)
        assert np.array_equal(K.data, ref.data)
        assert K.indices is system.A.indices and K.indptr is system.A.indptr
        assert not np.shares_memory(K.data, system.A.data)


def test_factor_and_run_leave_the_shared_pattern_alone(case, quadratic_setup):
    _, space, system = quadratic_setup
    A = system.A
    before = [a.copy() for a in (A.data, A.indices, A.indptr)]
    factor(system.combine(2.0 * 16**2, 0.45, 16.0)).solve(np.ones(space.total_dofs))
    for scheme in Scheme:
        run(
            scheme,
            space,
            system,
            case.material,
            0.25,
            0.125,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
            body_force=case.body_force_at,
            traction=case.traction_at,
        )
    for array, old in zip((A.data, A.indices, A.indptr), before):
        assert np.array_equal(array, old)


def test_an_edit_of_the_shared_pattern_raises_before_it_touches_a(case):
    # dropping A's explicit zeros in place would rewrite the pattern of every
    # live step matrix; A's index arrays are read-only, so scipy refuses first
    space = DGSpace.build(build_structured_mesh(4), 2)
    system = assemble_system(space, case.material)
    A = system.A
    assert np.count_nonzero(A.data == 0) > 0
    op = StepOperator.build(system, 0.25)
    before = [a.copy() for a in (A.data, A.indices, A.indptr)]
    with pytest.raises(ValueError, match="read-only"):
        A.eliminate_zeros()
    with pytest.raises(ValueError, match="read-only"):
        A.indices[0] = A.indices[1]
    for array, old in zip((A.data, A.indices, A.indptr), before):
        assert np.array_equal(array, old)
    b = np.ones(space.total_dofs)
    assert np.isfinite(op.K.solve(b)).all()  # the solve checks its residual
    # the canonical-format methods write nothing, and still run
    A.sort_indices()
    A.sum_duplicates()
    A.prune()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_rejects_a_non_finite_load(case, small_setup, bad):
    # a NaN right-hand side used to pass the residual guard (nan > tol is
    # False) and finish with NaN norms; inf failed as "matrix may not be SPD"
    _, space, system = small_setup

    def body_force(t):
        return lambda x, y: (np.full_like(x, bad), np.zeros_like(x))

    with pytest.raises(ValueError, match=f"right-hand side entry 0 is {bad}, not finite"):
        run(Scheme.DISPLACEMENT, space, system, case.material, 0.25, 0.125, body_force=body_force)


def test_step_scheme_mismatch_rejected():
    # a step runs only when the state and the routine name one form; the
    # operator serves both
    system = _scalar_system(PronyMaterial(1.0, 1.0, (), ()))
    op = StepOperator.build(system, 0.1)
    for scheme, step in _STEPS:
        other = Scheme.VELOCITY if scheme == Scheme.DISPLACEMENT else Scheme.DISPLACEMENT
        state = State(0, 0.0, np.zeros(1), np.zeros(1), [], other)
        with pytest.raises(ValueError, match=f"a {scheme.value} step got a {other.value} state"):
            step(state, op, np.zeros(1))
        state = State(0, 0.0, np.zeros(1), np.zeros(1), [], scheme)
        assert step(state, op, np.zeros(1)).scheme == scheme
        # and a state whose internal variables do not match the material of the operator
        state = State(0, 0.0, np.zeros(1), np.zeros(1), [np.zeros(1)], scheme)
        with pytest.raises(ValueError, match="1 internal variables, the operator 0"):
            step(state, op, np.zeros(1))


def test_internal_recurrence_accuracy(case):
    # scalar recurrence for constant history u = c converges at O(dt^2)
    # to the closed-form hereditary integral
    m = case.material
    c, t_end = 2.0, 1.0
    errs = []
    for dt in (0.1, 0.05):
        op = StepOperator.build(_scalar_system(m), dt)
        psi = np.zeros(m.n_internal)
        for _ in range(round(t_end / dt)):
            psi = op.a * psi + op.rows[Scheme.DISPLACEMENT][0] * (c + c)
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
    assert np.abs(st.U - interpolate(space, lambda x, y: (x + 2 * y, 3 * x - y))).max() < 1e-9
    assert np.abs(st.W - interpolate(space, lambda x, y: (x - y, 2 * x))).max() < 1e-10
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
    W = initialize(system, None, None, w0, Scheme.VELOCITY).W
    ref = factor(block_diagonal_mass(space, 1.0)).solve(LoadAssembler(space).assemble(f=w0))
    assert np.abs(W - ref).max() <= 1e-13 * np.abs(ref).max()


def test_initialize_none_is_zero(case, small_setup):
    _, _, system = small_setup
    st = initialize(system, None, None, None, Scheme.VELOCITY)
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
        # the step coefficient 2/dt^2 overflows, or dt^2 underflows to 0
        (1e200, 1e200, r"dt=1e\+200 .* 2/dt\^2 finite"),
        (1e-300, 1e-300, r"dt=1e-300 .* 2/dt\^2 finite"),
        (1e-160, 1e-160, r"dt=1e-160 .* 2/dt\^2 finite"),
        # so many steps that T/dt overflows
        (1e300, 1e-150, r"T=1e\+300 over dt=1e-150 must be finite"),
        # no number of steps reaches T: 0 steps fall 1e-300 short, 2 steps 5e-14
        (1e-300, 0.25, "T=1e-300 is not an integral multiple of dt=0.25"),
        (2.5e-13, 1e-13, "T=2.5e-13 is not an integral multiple of dt=1e-13"),
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


def test_run_rejects_another_material_up_front(small_setup, monkeypatch):
    # a rho=3 material on a system assembled for rho=1 fails, naming both,
    # before any projection or factorization
    _, space, system = small_setup
    other = ManufacturedCase(PronyMaterial(3.0, 0.9, (0.1,), (0.5,)))

    def no_factor(matrix):
        raise AssertionError("factored before the material was checked")

    monkeypatch.setattr("viscodg.stepper.factor", no_factor)
    message = f"material {other.material} is not the system's {system.material}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run(
            Scheme.DISPLACEMENT,
            space,
            system,
            other.material,
            T=1.0,
            dt=0.25,
            u0=other.displacement_at(0.0),
            grad_u0=other.grad_displacement_at(0.0),
            w0=other.velocity_at(0.0),
            body_force=other.body_force_at,
            traction=other.traction_at,
        )


@pytest.mark.parametrize("scheme", ["velocity", "displacement", None])
def test_run_rejects_a_scheme_that_is_not_a_scheme_up_front(case, small_setup, monkeypatch, scheme):
    # a name compares unequal to both members, so it would take the
    # displacement routine and die after the projections and factorizations
    _, space, system = small_setup

    def no_factor(matrix):
        raise AssertionError("factored before the scheme was checked")

    monkeypatch.setattr("viscodg.stepper.factor", no_factor)
    message = "scheme must be Scheme.DISPLACEMENT or Scheme.VELOCITY, got "
    with pytest.raises(TypeError, match=re.escape(message + repr(scheme))):
        run(
            scheme,
            space,
            system,
            case.material,
            0.5,
            0.25,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
        )


def test_run_rejects_another_space_up_front(case, coarse_setup, foreign_space, monkeypatch):
    # a space of the same size that is not the system's own fails before any
    # projection or factorization, also when it holds the system's own mesh
    _, _, system = coarse_setup
    assert foreign_space.total_dofs == system.space.total_dofs

    def not_yet(*args):
        raise AssertionError("projected or factored before the space was checked")

    monkeypatch.setattr("viscodg.stepper.factor", not_yet)
    monkeypatch.setattr("viscodg.stepper.assemble_elliptic_rhs", not_yet)
    with pytest.raises(ValueError, match="^space is not the system's: pass system.space"):
        run(
            Scheme.DISPLACEMENT,
            foreign_space,
            system,
            case.material,
            T=1.0,
            dt=0.25,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
            body_force=case.body_force_at,
            traction=case.traction_at,
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
        initialize(system, data["u0"], data["grad_u0"], None, Scheme.VELOCITY)


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


@pytest.mark.parametrize("forced", [True, False])
def test_advance_from_one_projection_and_one_operator_is_run(case, small_setup, forced):
    # both forms from one initialize and one StepOperator end bit for bit where run ends
    _, space, system = small_setup
    data = case.displacement_at(0.0), case.grad_displacement_at(0.0), case.velocity_at(0.0)
    loads = (case.body_force_at, case.traction_at) if forced else (None, None)
    initial = initialize(system, *data, Scheme.DISPLACEMENT)
    op = StepOperator.build(system, 0.125)
    for scheme in Scheme:
        ref = run(scheme, space, system, case.material, 0.5, 0.125, *data, *loads)
        st = advance(dataclasses.replace(initial, scheme=scheme), op, 0.5, *loads)
        assert (st.n, st.t, st.scheme) == (ref.n, ref.t, ref.scheme) == (4, 0.5, scheme)
        for x, y in zip([st.U, st.W, *st.internal], [ref.U, ref.W, *ref.internal], strict=True):
            assert x.tobytes() == y.tobytes()


def _no_loads(space):
    raise AssertionError("the loads were assembled before the state was checked")


def test_advance_rejects_a_state_of_another_system(case, small_setup, coarse_setup, monkeypatch):
    # a k=1, n=2 state on a k=1, n=4 system's operator fails with both sizes
    data = case.displacement_at(0.0), case.grad_displacement_at(0.0), case.velocity_at(0.0)
    state = initialize(small_setup[2], *data, Scheme.DISPLACEMENT)
    op = StepOperator.build(coarse_setup[2], 0.25)
    monkeypatch.setattr("viscodg.stepper.LoadAssembler", _no_loads)
    with pytest.raises(ValueError, match="^the state has 48 DOFs, the operator's system 192$"):
        advance(state, op, 1.0)


def test_advance_rejects_a_state_past_its_initial_level(case, small_setup, monkeypatch):
    # the velocity form's history load reads the initial U, so a run restarted
    # from a later state would carry the wrong history
    _, _, system = small_setup
    data = case.displacement_at(0.0), case.grad_displacement_at(0.0), case.velocity_at(0.0)
    op = StepOperator.build(system, 0.25)
    state = advance(initialize(system, *data, Scheme.VELOCITY), op, 0.25)
    assert state.n == 1
    monkeypatch.setattr("viscodg.stepper.LoadAssembler", _no_loads)
    with pytest.raises(ValueError, match=r"initial state \(n = 0\), got n = 1$"):
        advance(state, op, 0.5)


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
    _, space, _ = small_setup
    rng = np.random.default_rng(seed)
    material = _random_prony(rng, n_internal)
    system = assemble_system(space, material)
    op = StepOperator.build(system, dt)
    for scheme, step in _STEPS:
        state = _random_state(rng, scheme, space.total_dofs, n_internal)
        f_avg = rng.standard_normal(space.total_dofs)
        new = step(state, op, f_avg)
        U1, W1, internal = block_step_oracle(system, material, dt, state, f_avg)
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
    _, space, _ = small_setup
    system = assemble_system(space, _random_prony(rng, n_internal))
    op = StepOperator.build(system, 0.1)
    for scheme, step in _STEPS:
        calls = Counter()
        counted = dataclasses.replace(
            system, **{name: _Counted(getattr(system, name), name, calls) for name in "MAJ"}
        )
        K = Factorization(_Counted(op.K.matrix, "K", calls), op.K._lu)
        counted_op = dataclasses.replace(op, system=counted, K=K)
        state = _random_state(rng, scheme, space.total_dofs, n_internal)
        step(state, counted_op, rng.standard_normal(space.total_dofs))
        assert calls == {"M": 1, "A": 1, "J": 1, "K": 1}
