import math
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import (
    acceleration,
    adaptive_convolution,
    body_force_oracle,
    forcing_values,
    internal_displacement,
    internal_displacement_oracle,
    internal_velocity,
    internal_velocity_oracle,
    stress,
    stress_oracle,
    traction_oracle,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscodg.manufactured import ManufacturedCase, benchmark_material
from viscodg.material import PronyMaterial
from viscodg.stepper import Scheme, run

SAMPLE_POINTS = [(0.3, 0.7), (1.0, 0.25), (0.8, 1.0)]
SAMPLE_TIMES = [0.15, 0.5, 1.0]


def test_benchmark_material_values():
    m = benchmark_material()
    assert m.rho == 1.0
    assert m.phi0 == 0.5
    assert m.phis == (0.1, 0.4)
    assert m.taus == (0.5, 1.5)
    assert m.elastic is None


def test_rejects_non_identity_tensor():
    m = PronyMaterial(1.0, 0.5, (0.5,), (1.0,), elastic=(1.0, 1.0))
    with pytest.raises(ValueError):
        ManufacturedCase(m)


@pytest.mark.parametrize("tau", [1.0, 1.0 + 1e-12, 1.0 - 1e-9, 0.85, 1.15])
def test_internal_displacement_near_tau_one(tau):
    # the closed form of the exp kernel divides by 1 - tau: at tau = 1 it
    # takes its limit, and near 1 it must not lose digits to cancellation
    case = ManufacturedCase(PronyMaterial(1.0, 0.5, (0.1, 0.4), (0.5, tau)))
    for x, y in SAMPLE_POINTS:
        for t in SAMPLE_TIMES:
            got = internal_displacement(case, 1, x, y, t)
            ref = internal_displacement_oracle(case, 1, x, y, t)
            assert np.allclose(got, ref, rtol=0, atol=1e-12), (x, y, t)


@settings(max_examples=200, deadline=None)
@given(tau=st.floats(5e-324, 8e307), t=st.floats(0.0, 10.0))
# 1/tau^2 overflows, and 1/tau itself
@example(tau=1e-200, t=0.25)
@example(tau=5e-324, t=0.25)
def test_time_factors_are_finite_for_any_tau(tau, t):
    # the material takes any tau_q whose 2 tau_q is finite, down to the least subnormal
    case = ManufacturedCase(PronyMaterial(1.0, 0.5, (0.5,), (tau,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g1, g2 = case._time_factors(t)
    assert math.isfinite(g1) and math.isfinite(g2)


def test_kernel_cos_agrees_across_the_overflow_of_a_squared():
    # a = 1/tau: a^2 is finite at the first tau and overflows at the second;
    # both are so small that the kernel is cos t to rounding
    above, below = 7.5e-155, 7.4e-155
    assert math.isfinite((1.0 / above) * (1.0 / above))
    assert not math.isfinite((1.0 / below) * (1.0 / below))
    for tau in (above, below):
        assert ManufacturedCase._kernel_cos(0.5, tau) == pytest.approx(np.cos(0.5), rel=1e-15)


def test_exact_field_values(case):
    u1, u2 = case.displacement(1.0, 1.0, 0.0)
    assert abs(u1 - np.e) < 1e-14
    assert abs(u2 - np.sin(1.0)) < 1e-14
    w1, w2 = case.velocity(0.5, 0.5, 0.0)
    assert abs(w1 + 0.25 * np.e) < 1e-14
    assert abs(w2) < 1e-14  # sin(0) factor


def test_dirichlet_boundary_is_homogeneous(case):
    s = np.linspace(0.0, 1.0, 11)
    for t in SAMPLE_TIMES:
        for u in (case.displacement(np.zeros_like(s), s, t), case.displacement(s, np.zeros_like(s), t)):
            assert np.abs(u[0]).max() < 1e-15
            assert np.abs(u[1]).max() < 1e-15


def test_velocity_is_time_derivative(case):
    eps = 1e-6
    for x, y in SAMPLE_POINTS:
        for t in SAMPLE_TIMES:
            up = np.array(case.displacement(x, y, t + eps))
            um = np.array(case.displacement(x, y, t - eps))
            fd = (up - um) / (2 * eps)
            assert np.allclose(fd, case.velocity(x, y, t), atol=1e-8)
            wp = np.array(case.velocity(x, y, t + eps))
            wm = np.array(case.velocity(x, y, t - eps))
            assert np.allclose((wp - wm) / (2 * eps), acceleration(case, x, y, t), atol=1e-8)


def test_gradients_by_finite_difference(case):
    eps = 1e-6
    for x, y in [(0.3, 0.7), (0.8, 0.45)]:
        t = 0.6
        g = np.asarray(case.grad_displacement(x, y, t))
        fx = (np.array(case.displacement(x + eps, y, t)) - np.array(case.displacement(x - eps, y, t))) / (2 * eps)
        fy = (np.array(case.displacement(x, y + eps, t)) - np.array(case.displacement(x, y - eps, t))) / (2 * eps)
        assert np.allclose(g[:, 0], fx, atol=1e-8)
        assert np.allclose(g[:, 1], fy, atol=1e-8)
        gw = np.asarray(case.grad_velocity(x, y, t))
        fxw = (np.array(case.velocity(x + eps, y, t)) - np.array(case.velocity(x - eps, y, t))) / (2 * eps)
        assert np.allclose(gw[:, 0], fxw, atol=1e-8)


def test_adaptive_convolution_known_integrals():
    assert adaptive_convolution(np.sin, np.pi) == pytest.approx(2.0, abs=1e-12)
    assert adaptive_convolution(lambda s: np.exp(-s), 50.0) == pytest.approx(1.0, abs=1e-12)
    assert adaptive_convolution(np.cos, 0.0) == 0.0


def test_internal_displacement_closed_forms(case):
    for q in range(2):
        for x, y in SAMPLE_POINTS:
            for t in SAMPLE_TIMES:
                got = internal_displacement(case, q, x, y, t)
                ref = internal_displacement_oracle(case, q, x, y, t)
                assert np.allclose(got, ref, atol=1e-12), (q, x, y, t)


def test_internal_velocity_closed_forms(case):
    for q in range(2):
        for x, y in SAMPLE_POINTS:
            for t in SAMPLE_TIMES:
                got = internal_velocity(case, q, x, y, t)
                ref = internal_velocity_oracle(case, q, x, y, t)
                assert np.allclose(got, ref, atol=1e-12), (q, x, y, t)


def test_internal_variable_identity(case):
    # zeta_q + phi_q exp(-t/tau_q) u(0) = phi_q u(t) - psi_q(t)
    m = case.material
    for q in range(2):
        p, tau = m.phis[q], m.taus[q]
        for x, y in SAMPLE_POINTS:
            for t in SAMPLE_TIMES:
                zeta = np.array(internal_velocity(case, q, x, y, t))
                psi = np.array(internal_displacement(case, q, x, y, t))
                u0 = np.array(case.displacement(x, y, 0.0))
                u = np.array(case.displacement(x, y, t))
                lhs = zeta + p * np.exp(-t / tau) * u0
                rhs = p * u - psi
                assert np.allclose(lhs, rhs, atol=1e-13)


def test_internal_variable_odes(case):
    # tau psi_dot + psi = phi_q u  and  tau zeta_dot + zeta = tau phi_q u_dot
    m = case.material
    eps = 1e-6
    for q in range(2):
        p, tau = m.phis[q], m.taus[q]
        for x, y in [(0.4, 0.9)]:
            for t in (0.3, 0.8):
                dpsi = (
                    np.array(internal_displacement(case, q, x, y, t + eps))
                    - np.array(internal_displacement(case, q, x, y, t - eps))
                ) / (2 * eps)
                psi = np.array(internal_displacement(case, q, x, y, t))
                u = np.array(case.displacement(x, y, t))
                assert np.allclose(tau * dpsi + psi, p * u, atol=1e-8)
                dzeta = (
                    np.array(internal_velocity(case, q, x, y, t + eps))
                    - np.array(internal_velocity(case, q, x, y, t - eps))
                ) / (2 * eps)
                zeta = np.array(internal_velocity(case, q, x, y, t))
                w = np.array(case.velocity(x, y, t))
                assert np.allclose(tau * dzeta + zeta, tau * p * w, atol=1e-8)


def test_stress_closed_forms(case):
    for x, y in SAMPLE_POINTS:
        for t in SAMPLE_TIMES:
            got = stress(case, x, y, t)
            ref = stress_oracle(case, x, y, t)
            assert np.allclose(got, ref, atol=1e-11), (x, y, t)


def test_stress_at_t0_is_elastic(case):
    x, y = 0.6, 0.3
    s11, s22, s12 = stress(case, x, y, 0.0)
    g = np.asarray(case.grad_displacement(x, y, 0.0))
    eps = 0.5 * (g + g.T)
    assert abs(s11 - eps[0, 0]) < 1e-13
    assert abs(s22 - eps[1, 1]) < 1e-13
    assert abs(s12 - eps[0, 1]) < 1e-13


def test_body_force_momentum_balance(case):
    # f = rho u_tt - div sigma, with div sigma by central differences of the stress
    eps = 1e-5
    for x, y in [(0.35, 0.6), (0.7, 0.8)]:
        for t in (0.25, 0.9):
            sxp = np.array(stress(case, x + eps, y, t))
            sxm = np.array(stress(case, x - eps, y, t))
            syp = np.array(stress(case, x, y + eps, t))
            sym = np.array(stress(case, x, y - eps, t))
            ds_dx = (sxp - sxm) / (2 * eps)
            ds_dy = (syp - sym) / (2 * eps)
            div = np.array(
                [ds_dx[0] + ds_dy[2], ds_dx[2] + ds_dy[1]]
            )  # (s11, s22, s12) layout
            acc = np.array(acceleration(case, x, y, t))
            f_ref = case.material.rho * acc - div
            f = np.array(forcing_values(case.body_force_at(t), x, y))
            assert np.allclose(f, f_ref, atol=1e-9), (x, y, t)


def test_traction_matches_stress(case):
    n_right = np.array([1.0, 0.0])
    g1, g2 = forcing_values(case.traction_at(0.5), 1.0, 0.4, n_right)
    s11, s22, s12 = stress(case, 1.0, 0.4, 0.5)
    assert abs(g1 - s11) < 1e-14
    assert abs(g2 - s12) < 1e-14
    n_top = np.array([0.0, 1.0])
    g1, g2 = forcing_values(case.traction_at(0.5), 0.3, 1.0, n_top)
    s11, s22, s12 = stress(case, 0.3, 1.0, 0.5)
    assert abs(g1 - s12) < 1e-14
    assert abs(g2 - s22) < 1e-14
    with pytest.raises(ValueError):
        forcing_values(case.traction_at(0.5), 0.5, 0.5, n_right)


def test_time_bound_closures(case):
    t = 0.4
    f = case.body_force_at(t)
    assert np.allclose(forcing_values(f, 0.3, 0.7), body_force_oracle(case, 0.3, 0.7, t))
    u = case.displacement_at(t)
    assert np.allclose(u(0.3, 0.7), case.displacement(0.3, 0.7, t))
    w = case.velocity_at(t)
    assert np.allclose(w(0.3, 0.7), case.velocity(0.3, 0.7, t))


def _close(got, ref):
    scale = max(np.abs(r).max() for r in ref)
    return max(np.abs(np.asarray(g) - r).max() for g, r in zip(got, ref)) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rho=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
def test_forcing_matches_closed_forms(data, rho, seed):
    # interleaved point sets, scalars, in-place changes to the arrays between
    # calls and a traction request off the boundary after valid ones (it must
    # still raise): the separable forms hold no state across calls
    case = ManufacturedCase(PronyMaterial(rho, 0.5, (0.1, 0.4), (0.5, 1.5)))
    rng = np.random.default_rng(seed)
    shapes = st.sampled_from([(), (7,), (3, 5)])

    def points(shape):
        return float(rng.uniform()) if shape == () else rng.uniform(0.0, 1.0, shape)

    body_sets, boundary_sets = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        shape = data.draw(shapes)
        body_sets.append([points(shape), points(shape)])
        # x = 1 with outward normal (1, 0), or y = 1 with normal (0, 1)
        side = data.draw(st.integers(0, 1))
        free = points(shape)
        xy = [free, free]
        xy[side] = np.ones(shape) if shape else 1.0
        boundary_sets.append((xy, np.eye(2)[side], 1 - side))

    ops = st.sampled_from(["body", "traction", "move_body", "move_boundary", "off_boundary"])
    traction_cached = False
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(ops)
        t = data.draw(st.floats(0.0, 2.0))
        if op in ("body", "move_body"):
            x, y = body_sets[data.draw(st.integers(0, len(body_sets) - 1))]
            if op == "move_body" and np.ndim(x):
                x += rng.uniform(-0.1, 0.1, x.shape)
                y *= 0.5
            got = forcing_values(case.body_force_at(t), x, y)
            assert _close(got, body_force_oracle(case, x, y, t))
        elif op in ("traction", "move_boundary"):
            xy, n, free = boundary_sets[data.draw(st.integers(0, len(boundary_sets) - 1))]
            if op == "move_boundary" and np.ndim(xy[free]):
                xy[free] *= 0.5
            got = forcing_values(case.traction_at(t), *xy, n)
            assert _close(got, traction_oracle(case, *xy, t, n))
            traction_cached = True
        elif traction_cached:
            x, y = body_sets[0]
            with pytest.raises(ValueError):
                inside = np.minimum(x, 0.9), np.minimum(y, 0.9)
                forcing_values(case.traction_at(t), *inside, np.array([1.0, 0.0]))
            xy, n, _ = boundary_sets[0]
            got = forcing_values(case.traction_at(t), *xy, n)
            assert _close(got, traction_oracle(case, *xy, t, n))


def test_spatial_fields_are_built_once_per_run(monkeypatch, small_setup):
    # each run's load assembler contracts each kind of spatial field once,
    # while the forcing closures are still called on every time level
    calls = Counter()
    for name in ("_body_fields", "_traction_fields"):
        build = getattr(ManufacturedCase, name)

        def counted(*points, build=build, name=name):
            calls[name] += 1
            return build(*points)

        monkeypatch.setattr(ManufacturedCase, name, staticmethod(counted))
    case = ManufacturedCase()

    def counted_at(at, name):
        def bound(t):
            field = at(t)

            def evaluate(*args):
                calls[name] += 1
                return field(*args)

            return evaluate

        return bound

    _, space, system = small_setup
    n_steps, dt = 8, 1.0 / 16
    for scheme in Scheme:
        run(
            scheme,
            space,
            system,
            case.material,
            n_steps * dt,
            dt,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
            body_force=counted_at(case.body_force_at, "body_force"),
            traction=counted_at(case.traction_at, "traction"),
        )
    evaluations = 2 * (n_steps + 1)
    assert calls == {
        "body_force": evaluations,
        "traction": evaluations,
        "_body_fields": 2,
        "_traction_fields": 2,
    }
