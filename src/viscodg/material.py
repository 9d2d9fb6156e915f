"""Generalised Maxwell (Prony series) material description.

The relaxation function is phi(t) = phi0 + sum_q phi_q exp(-t/tau_q),
normalised so that phi(0) = 1, with phi0 > 0 (a solid with long-term
stiffness).  The elastic tensor is either the identity on symmetric
tensors (used by the verification benchmark) or isotropic with Lame
parameters.
"""

import math
from dataclasses import dataclass

import numpy as np

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class PronyMaterial:
    """Density, Prony coefficients and the elastic tensor specification.

    ``elastic`` is ``None`` for the identity tensor or a ``(lam, mu)`` pair
    for the isotropic tensor 2*mu*eps + lam*tr(eps)*I, with mu > 0 and
    lam + mu > 0 so that it is positive definite on symmetric strains.
    """

    rho: float
    phi0: float
    phis: tuple[float, ...]
    taus: tuple[float, ...]
    elastic: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        values = (self.rho, self.phi0) + self.phis + self.taus
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"rho, phi0, phi_q and tau_q must be finite, got {values}")
        if self.rho <= 0:
            raise ValueError("density must be positive")
        if self.phi0 <= 0:
            raise ValueError("phi0 must be positive (solid material)")
        if len(self.phis) != len(self.taus):
            raise ValueError("phis and taus must have equal length")
        if any(p <= 0 for p in self.phis) or any(t <= 0 for t in self.taus):
            raise ValueError("all phi_q and tau_q must be positive")
        # the step coefficients take 2 tau_q
        big = [t for t in self.taus if not math.isfinite(2.0 * t)]
        if big:
            raise ValueError(f"tau_q = {big[0]!r} is too large: 2 tau_q overflows")
        total = self.phi0 + sum(self.phis)
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"coefficients must sum to 1, got {total}")
        if self.elastic is not None:
            lam, mu = self.elastic
            if not (math.isfinite(lam) and math.isfinite(mu) and mu > 0 and lam + mu > 0):
                raise ValueError(
                    f"elastic (lam, mu) = {self.elastic} must be finite with mu > 0"
                    " and lam + mu > 0 (a positive definite tensor)"
                )

    @property
    def n_internal(self) -> int:
        return len(self.phis)

    @property
    def elasticity(self) -> np.ndarray:
        """Elastic tensor in index form, D[z, a, c, b] = lam d_za d_cb + mu (d_zc d_ab
        + d_zb d_ac), the identity being lam = 0, mu = 1/2: the stress of a
        displacement gradient g ([component, derivative]) is sum_cb D[z, a, c, b] g_cb."""
        lam, mu = (0.0, 0.5) if self.elastic is None else self.elastic
        d = np.eye(2)
        return lam * np.einsum("za,cb->zacb", d, d) + mu * (
            np.einsum("zc,ab->zacb", d, d) + np.einsum("zb,ac->zacb", d, d)
        )
