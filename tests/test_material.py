import numpy as np
import pytest
from conftest import apply_elastic, internal_kernel_constant_history, relaxation

from viscodg.assembly import stress
from viscodg.material import PronyMaterial


def benchmark():
    return PronyMaterial(rho=1.0, phi0=0.5, phis=(0.1, 0.4), taus=(0.5, 1.5))


def test_validation():
    with pytest.raises(ValueError):
        PronyMaterial(rho=0.0, phi0=0.5, phis=(0.5,), taus=(1.0,))
    with pytest.raises(ValueError):
        PronyMaterial(rho=1.0, phi0=0.0, phis=(1.0,), taus=(1.0,))
    with pytest.raises(ValueError):
        PronyMaterial(rho=1.0, phi0=0.5, phis=(0.5,), taus=(1.0, 2.0))
    with pytest.raises(ValueError):
        PronyMaterial(rho=1.0, phi0=0.5, phis=(-0.5,), taus=(1.0,))
    with pytest.raises(ValueError):
        PronyMaterial(rho=1.0, phi0=0.5, phis=(0.5,), taus=(-1.0,))
    with pytest.raises(ValueError):
        PronyMaterial(rho=1.0, phi0=0.6, phis=(0.5,), taus=(1.0,))
    # non-finite values, which the range checks alone let through (NaN fails every comparison)
    nan, inf = float("nan"), float("inf")
    for rho, phi0, phi, tau in (
        (nan, 0.5, 0.5, 1.0),
        (inf, 0.5, 0.5, 1.0),
        (1.0, nan, 0.5, 1.0),
        (1.0, 0.5, nan, 1.0),
        (1.0, 0.5, 0.5, nan),
        (1.0, 0.5, 0.5, inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            PronyMaterial(rho=rho, phi0=phi0, phis=(phi,), taus=(tau,))
    # a tau_q whose 2 tau_q, taken by the step coefficients, overflows
    with pytest.raises(ValueError, match=r"tau_q = 9\.99e\+307 is too large: 2 tau_q overflows"):
        PronyMaterial(rho=1.0, phi0=0.5, phis=(0.1, 0.4), taus=(9.99e307, 1.5))
    PronyMaterial(rho=1.0, phi0=0.5, phis=(0.1, 0.4), taus=(8e307, 1.5))
    # an isotropic tensor that is not positive definite on symmetric strains
    for elastic in ((1.0, -0.5), (-3.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (nan, 1.0), (1.0, inf)):
        with pytest.raises(ValueError, match="elastic"):
            PronyMaterial(rho=1.0, phi0=0.5, phis=(0.5,), taus=(1.0,), elastic=elastic)
    # lam may be negative while lam + mu > 0
    PronyMaterial(rho=1.0, phi0=0.5, phis=(0.5,), taus=(1.0,), elastic=(-0.99, 1.0))


def test_relaxation_values():
    m = benchmark()
    assert abs(relaxation(m, 0.0) - 1.0) < 1e-14
    expected = 0.5 + 0.1 * np.exp(-2.0) + 0.4 * np.exp(-2.0 / 3.0)
    assert abs(relaxation(m, 1.0) - expected) < 1e-14
    # long-time limit is phi0
    assert abs(relaxation(m, 1e6) - 0.5) < 1e-12


def test_relaxation_vectorized_and_monotone():
    m = benchmark()
    t = np.linspace(0.0, 5.0, 50)
    phi = relaxation(m, t)
    assert phi.shape == t.shape
    assert np.all(np.diff(phi) < 0)
    with pytest.raises(ValueError):
        relaxation(m, -0.1)


def test_identity_elastic():
    m = benchmark()
    eps = np.array([[1.0, 0.3], [0.3, -2.0]])
    assert np.allclose(apply_elastic(m, eps), eps)
    assert np.array_equal(stress(m.elasticity, eps), eps)
    # the identity on strains: a skew gradient carries no stress
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(stress(m.elasticity, skew), np.zeros((2, 2)))


def test_isotropic_elastic(rng):
    lam, mu = 2.0, 0.7
    m = PronyMaterial(rho=1.0, phi0=0.5, phis=(0.5,), taus=(1.0,), elastic=(lam, mu))
    eps = np.array([[1.0, 0.3], [0.3, -2.0]])
    sig = apply_elastic(m, eps)
    assert np.allclose(sig, 2 * mu * eps + lam * np.trace(eps) * np.eye(2))
    # the index-form tensor applied to any gradient stresses its symmetric part
    for _ in range(5):
        g = rng.standard_normal((2, 2))
        assert np.abs(stress(m.elasticity, g) - apply_elastic(m, 0.5 * (g + g.T))).max() < 1e-14


def test_voigt_energy_consistency(rng):
    # D[z, a, c, b] = D[a, z, c, b] = D[c, b, z, a], and eps : D eps is the
    # strain energy that the Voigt form gave as v . C v
    for elastic in (None, (1.3, 0.4), (0.0, 2.0)):
        m = PronyMaterial(rho=1.0, phi0=0.5, phis=(0.5,), taus=(1.0,), elastic=elastic)
        D = m.elasticity
        assert D.shape == (2, 2, 2, 2)
        assert np.array_equal(D, D.transpose(1, 0, 2, 3))
        assert np.array_equal(D, D.transpose(2, 3, 0, 1))
        for _ in range(5):
            g = rng.standard_normal((2, 2))
            eps = 0.5 * (g + g.T)
            energy = float(np.sum(apply_elastic(m, eps) * eps))
            assert abs(np.sum(stress(D, eps) * eps) - energy) < 1e-12


def test_internal_kernel_constant_history():
    m = benchmark()
    # at t=0 the hereditary integral is empty
    assert internal_kernel_constant_history(m, 0, 3.0, 0.0) == 0.0
    # saturates at phi_q * c
    assert abs(internal_kernel_constant_history(m, 1, 3.0, 1e6) - 0.4 * 3.0) < 1e-12
    # closed form equals direct quadrature
    c, t = 2.0, 0.8
    for q in range(m.n_internal):
        p, tau = m.phis[q], m.taus[q]
        s = np.linspace(0.0, t, 20001)
        integrand = (p / tau) * np.exp(-(t - s) / tau) * c
        ref = np.trapezoid(integrand, s)
        assert abs(internal_kernel_constant_history(m, q, c, t) - ref) < 1e-8
    with pytest.raises(IndexError):
        internal_kernel_constant_history(m, 2, 1.0, 1.0)
