import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from conftest import interpolate, space_with_quadrature

from viscodg.errors import NORM_NAMES, convergence_rate, error_norms
from viscodg.manufactured import ManufacturedCase
from viscodg.material import PronyMaterial
from viscodg.space import DGSpace
from viscodg.stepper import Scheme, State


class _PolynomialCase:
    """Stand-in exact solution that lives in the discrete space."""

    material = PronyMaterial(rho=1.0, phi0=0.5, phis=(0.1, 0.4), taus=(0.5, 1.5))

    def displacement(self, x, y, t):
        return x + 2 * y, 3 * x - y

    def grad_displacement(self, x, y, t):
        o = np.ones_like(np.asarray(x, dtype=float))
        return ((o, 2 * o), (3 * o, -o))

    def velocity(self, x, y, t):
        return x - y, 2 * x

    def grad_velocity(self, x, y, t):
        o = np.ones_like(np.asarray(x, dtype=float))
        return ((o, -o), (2 * o, 0 * o))


class _UniaxialCase(_PolynomialCase):
    def displacement(self, x, y, t):
        return x, np.zeros_like(np.asarray(x, dtype=float))

    def grad_displacement(self, x, y, t):
        o = np.ones_like(np.asarray(x, dtype=float))
        return ((o, 0 * o), (0 * o, 0 * o))

    velocity = displacement
    grad_velocity = grad_displacement


def _state(space, U, W):
    return State(4, 1.0, U, W, [], Scheme.DISPLACEMENT)


def test_interpolant_has_zero_error(small_setup):
    _, space, system = small_setup
    case = _PolynomialCase()
    U = interpolate(space, lambda x, y: case.displacement(x, y, 0.0))
    W = interpolate(space, lambda x, y: case.velocity(x, y, 0.0))
    rep = error_norms(_state(space, U, W), case, space, system, dt=0.25)
    for v in rep.as_row():
        assert v < 1e-12
    assert rep.t == 1.0
    assert rep.dt == 0.25
    assert rep.degree == 1
    assert rep.scheme == "displacement"
    # the row is the six norm fields, in the order of the fields and of NORM_NAMES
    fields = [f.name for f in dataclasses.fields(rep)][:6]
    assert fields == [f"err_{name}" for name in NORM_NAMES]
    assert rep.as_row() == tuple(getattr(rep, name) for name in fields)
    assert abs(rep.h - np.sqrt(2.0) / 2) < 1e-14


def test_zero_state_norms_of_uniaxial_field(small_setup):
    # U = 0 so the "error" equals the exact field u = (x, 0):
    # L2^2 = 1/3, H1^2 = 1/3 + 1, energy^2 = 1 + alpha0 * n / 3 penalty
    _, space, system = small_setup
    case = _UniaxialCase()
    Z = np.zeros(space.total_dofs)
    rep = error_norms(_state(space, Z, Z), case, space, system)
    n = round(np.sqrt(2.0) / space.mesh.h)  # the structured mesh's subdivisions
    assert abs(rep.err_u_L2**2 - 1.0 / 3.0) < 1e-12
    assert abs(rep.err_u_H1**2 - (1.0 / 3.0 + 1.0)) < 1e-12
    expected_energy_sq = 1.0 + system.alpha0 * n / 3.0
    assert abs(rep.err_u_energy**2 - expected_energy_sq) < 1e-10
    assert abs(rep.err_w_L2 - rep.err_u_L2) < 1e-14


def test_error_norms_evaluate_points_and_traces_once(monkeypatch, small_setup):
    # both fields share the element points and the three trace sets: both
    # sides of the interior edges and the inner side of the Dirichlet edges
    _, space, system = small_setup
    calls = Counter()
    for name in ("physical_quad_points", "edge_traces"):

        def counted(self, *args, _name=name, _method=getattr(DGSpace, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(DGSpace, name, counted)
    Z = np.zeros(space.total_dofs)
    error_norms(_state(space, Z, Z), _PolynomialCase(), space, system)
    assert calls == {"physical_quad_points": 1, "edge_traces": 3}


def test_error_norms_reject_another_material(small_setup):
    # exact fields of a rho=3 material against a system assembled for rho=1
    _, space, system = small_setup
    other = ManufacturedCase(PronyMaterial(3.0, 0.9, (0.1,), (0.5,)))
    Z = np.zeros(space.total_dofs)
    message = f"case material {other.material} is not the system's {system.material}"
    with pytest.raises(ValueError, match=re.escape(message)):
        error_norms(_state(space, Z, Z), other, space, system)


def test_error_norms_reject_a_state_of_another_system(case, small_setup, coarse_setup):
    # a k=1, n=2 state normed on a k=1, n=4 system fails with both sizes
    _, _, small = small_setup
    _, space, system = coarse_setup
    Z = np.zeros(small.space.total_dofs)
    with pytest.raises(ValueError, match="^the state has 48 DOFs, the system 192$"):
        error_norms(_state(small.space, Z, Z), case, space, system)


def test_error_norms_reject_another_space(case, coarse_setup, foreign_space):
    # a state from the system's own space, normed on another space of the same size
    from viscodg.stepper import initialize

    _, space, system = coarse_setup
    st = initialize(
        system,
        case.displacement_at(0.0),
        case.grad_displacement_at(0.0),
        case.velocity_at(0.0),
        Scheme.DISPLACEMENT,
    )
    assert error_norms(st, case, space, system).err_u_L2 > 0
    with pytest.raises(ValueError, match="^space is not the system's: pass system.space"):
        error_norms(st, case, foreign_space, system)


def test_error_norms_on_manufactured_case(case, small_setup):
    # elliptic projection of u(0) has small but nonzero error on a coarse mesh
    from viscodg.stepper import initialize

    _, space, system = small_setup
    st = initialize(
        system,
        case.displacement_at(0.0),
        case.grad_displacement_at(0.0),
        case.velocity_at(0.0),
        Scheme.DISPLACEMENT,
    )
    rep = error_norms(st, case, space, system)
    assert 0 < rep.err_u_L2 < 0.1
    assert rep.err_u_L2 < rep.err_u_H1
    assert rep.err_u_L2 < rep.err_u_energy


def test_convergence_rate_examples():
    assert convergence_rate([0.1, 0.025], [0.25, 0.125]) == pytest.approx([2.0])
    assert convergence_rate([1.0, 1.0], [0.5, 0.25]) == pytest.approx([0.0])
    (rate,) = convergence_rate([3.168e-3, 8.030e-4], [0.25, 0.125])
    assert rate == pytest.approx(1.98, abs=0.01)
    rates = convergence_rate([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25])
    assert rates == pytest.approx([2.0, 2.0])


def test_convergence_rate_validation():
    with pytest.raises(ValueError):
        convergence_rate([1.0, 0.0], [0.5, 0.25])
    with pytest.raises(ValueError):
        convergence_rate([1.0, 0.5], [0.25, 0.25])
    with pytest.raises(ValueError):
        convergence_rate([1.0, 0.5], [0.25, 0.5])
    # NaN compares false with everything: each check must ask for the valid case
    with pytest.raises(ValueError, match="^error values must be positive$"):
        convergence_rate([math.nan, 1.0], [0.5, 0.25])
    with pytest.raises(ValueError, match="^scales must be strictly decreasing$"):
        convergence_rate([2.0, 1.0], [0.5, math.nan])
    with pytest.raises(ValueError, match="^error values must be positive$"):
        convergence_rate([math.inf, 1.0], [0.5, 0.25])
    with pytest.raises(ValueError, match="^scales must be strictly decreasing$"):
        convergence_rate([2.0, 1.0], [math.inf, 0.25])
    # the log of a scale that is not positive is NaN or infinite
    with pytest.raises(ValueError, match="^scales must be positive$"):
        convergence_rate([2.0, 1.0], [0.5, 0.0])


def test_quadrature_refinement_is_converged(case):
    # error norms barely move when the quadrature order is doubled
    from viscodg.assembly import assemble_system
    from viscodg.mesh import build_structured_mesh
    from viscodg.stepper import initialize

    mesh = build_structured_mesh(2)
    reports = []
    for orders in ((None, None), (12, 13)):
        space = space_with_quadrature(mesh, 1, *orders)
        system = assemble_system(space, case.material, 10.0)
        st = initialize(
            system,
            case.displacement_at(0.0),
            case.grad_displacement_at(0.0),
            case.velocity_at(0.0),
            Scheme.DISPLACEMENT,
        )
        reports.append(error_norms(st, case, space, system))
    base, fine = reports
    for a, b in zip(base.as_row(), fine.as_row()):
        assert abs(a - b) <= 1e-3 * abs(b)
