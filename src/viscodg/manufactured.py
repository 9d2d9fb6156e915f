"""Closed-form verification case on the unit square.

Exact displacement u(x, y, t) = (x*y*exp(1-t), cos(t)*sin(x*y)) with
identity elastic tensor, rho = 1, two Prony terms (phi0 = 0.5, phi1 = 0.1,
phi2 = 0.4, tau1 = 0.5, tau2 = 1.5) and T = 1.  The Dirichlet boundary is
{x=0} union {y=0}, where u vanishes identically.

Both components are separable, u_i = X_i(x, y) * T_i(t), so every
hereditary integral reduces to a scalar convolution in time with a closed
form.  This module keeps what a run and its error norms read: u, w and
their gradients, and the forcing.  The other closed forms of the case
(internal variables, stress, u_tt) live in ``tests/conftest.py``,
beside the adaptive-quadrature convolution oracles that check them.

The forcing data are sums of fixed spatial fields times scalar functions of
t.  ``body_force_at(t)`` and ``traction_at(t)`` hand them over in that form,
as a ``SeparableField`` whatever points they are called at; a load
assembler evaluates and contracts each spatial field at its own points once
per run and scales the results at every time level.
"""

import numpy as np

from .assembly import SeparableField
from .material import PronyMaterial


def benchmark_material() -> PronyMaterial:
    return PronyMaterial(rho=1.0, phi0=0.5, phis=(0.1, 0.4), taus=(0.5, 1.5))


class ManufacturedCase:
    """Exact fields and forcing data for the verification benchmark."""

    def __init__(self, material: PronyMaterial | None = None):
        self.material = material or benchmark_material()
        if self.material.elastic is not None:
            raise ValueError("the manufactured case assumes the identity elastic tensor")

    # scalar time convolutions -------------------------------------------------

    @staticmethod
    def _kernel_exp(t, tau):
        """(1/tau) int_0^t exp(-(t-s)/tau) exp(1-s) ds, closed form."""
        if abs(1.0 - tau) >= 0.2:
            return np.e / (1.0 - tau) * (np.exp(-t) - np.exp(-t / tau))
        # the difference cancels (error ~ e eps / |1 - tau|): factor out exp(-t); t at tau = 1
        x = (1.0 - tau) / tau
        return np.e / tau * np.exp(-t) * (-np.expm1(-x * t) / x if x else t)

    @staticmethod
    def _kernel_cos(t, tau):
        """(1/tau) int_0^t exp(-(t-s)/tau) cos(s) ds, closed form."""
        a = 1.0 / tau
        if np.isfinite(a * a):
            return a * (a * np.cos(t) + np.sin(t) - a * np.exp(-t / tau)) / (a * a + 1.0)
        # the same over a^2, for a tau_q so small that a^2 overflows
        return (np.cos(t) + tau * np.sin(t) - np.exp(-t / tau)) / (1.0 + tau * tau)

    def _time_factors(self, t):
        """Time factors of the displacement-form effective field u - sum psi_q."""
        m = self.material
        g1 = np.exp(1.0 - t) - sum(
            p * self._kernel_exp(t, tau) for p, tau in zip(m.phis, m.taus)
        )
        g2 = np.cos(t) - sum(p * self._kernel_cos(t, tau) for p, tau in zip(m.phis, m.taus))
        return g1, g2

    # exact fields -------------------------------------------------------------

    def displacement(self, x, y, t):
        return x * y * np.exp(1.0 - t), np.cos(t) * np.sin(x * y)

    def grad_displacement(self, x, y, t):
        """Gradient with index order [component, derivative]."""
        e = np.exp(1.0 - t)
        c = np.cos(t) * np.cos(x * y)
        return ((y * e, x * e), (y * c, x * c))

    def velocity(self, x, y, t):
        return -x * y * np.exp(1.0 - t), -np.sin(t) * np.sin(x * y)

    def grad_velocity(self, x, y, t):
        e = np.exp(1.0 - t)
        c = np.sin(t) * np.cos(x * y)
        return ((-y * e, -x * e), (-y * c, -x * c))

    # forcing data -------------------------------------------------------------

    @staticmethod
    def _body_fields(x, y):
        """Spatial fields of the body force.

        xy, sin xy, cos xy - xy sin xy, (x^2 + y^2/2) sin xy and 1.
        """
        xy = x * y
        s = np.sin(xy)
        return xy, s, np.cos(xy) - xy * s, (x * x + 0.5 * y * y) * s, 1.0

    @staticmethod
    def _stress(x, y, g1, g2):
        """(s11, s22, s12) of the stress with time factors (g1, g2) at the points."""
        c = np.cos(x * y)
        return y * g1, x * c * g2, 0.5 * (x * g1 + y * c * g2)

    @staticmethod
    def _traction_fields(x, y, n):
        """Fields of sigma . n on the Neumann boundary, per unit stress time factor.

        The traction of the time factors (g1, g2) is g1 (F_0, F_1) + g2 (F_2, F_3).
        """
        on_neumann = np.isclose(x, 1.0) | np.isclose(y, 1.0)
        if not np.all(on_neumann):
            raise ValueError("traction requested off the Neumann boundary")
        n = np.asarray(n, dtype=float)
        out = []
        for unit in ((1.0, 0.0), (0.0, 1.0)):
            s11, s22, s12 = ManufacturedCase._stress(x, y, *unit)
            out += [s11 * n[..., 0] + s12 * n[..., 1], s12 * n[..., 0] + s22 * n[..., 1]]
        return tuple(out)

    # time-bound closures for the assembly layer ------------------------------

    def body_force_at(self, t):
        """f = rho*u_tt - div eps(u - sum_q psi_q) at time t for the identity tensor.

        The closure returns a ``SeparableField`` over ``_body_fields``.
        """
        rho = self.material.rho
        g1, g2 = self._time_factors(t)
        e, c = rho * np.exp(1.0 - t), rho * np.cos(t)
        coefficients = np.array([[e, 0.0, -0.5 * g2, 0.0, 0.0], [0.0, -c, 0.0, g2, -0.5 * g1]])
        return lambda x, y: SeparableField(coefficients, self._body_fields)

    def traction_at(self, t):
        """g_N = sigma(u(t)) . n on the Neumann boundary, a ``SeparableField`` over
        ``_traction_fields``; evaluating it off that boundary raises ValueError."""
        g1, g2 = self._time_factors(t)
        coefficients = np.array([[g1, 0.0, g2, 0.0], [0.0, g1, 0.0, g2]])
        return lambda x, y, n: SeparableField(coefficients, self._traction_fields)

    def displacement_at(self, t):
        return lambda x, y: self.displacement(x, y, t)

    def grad_displacement_at(self, t):
        return lambda x, y: self.grad_displacement(x, y, t)

    def velocity_at(self, t):
        return lambda x, y: self.velocity(x, y, t)
