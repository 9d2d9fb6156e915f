"""Generalised Maxwell (Prony series) material description.

The relaxation function is phi(t) = phi0 + sum_q phi_q exp(-t/tau_q),
normalised so that phi(0) = 1, with phi0 > 0 (a solid with long-term
stiffness).  The elastic tensor is either the identity (used by the
verification benchmark) or isotropic with Lame parameters.
"""

import math
from dataclasses import dataclass

import numpy as np

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class PronyMaterial:
    """Density, Prony coefficients and the elastic tensor specification.

    ``elastic`` is ``None`` for the identity tensor or a ``(lam, mu)`` pair
    for the isotropic tensor 2*mu*eps + lam*tr(eps)*I.
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
        total = self.phi0 + sum(self.phis)
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"coefficients must sum to 1, got {total}")

    @property
    def n_internal(self) -> int:
        return len(self.phis)

    @property
    def elastic_voigt(self) -> np.ndarray:
        """Elastic tensor in the orthonormal Voigt basis (e11, e22, sqrt2*e12)."""
        if self.elastic is None:
            return np.eye(3)
        lam, mu = self.elastic
        return np.array(
            [
                [lam + 2 * mu, lam, 0.0],
                [lam, lam + 2 * mu, 0.0],
                [0.0, 0.0, 2 * mu],
            ]
        )
