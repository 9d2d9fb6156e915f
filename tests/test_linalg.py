import numpy as np
import pytest
import scipy.sparse as sp

from viscodg.linalg import SolverError, factor, from_triplets


def test_from_triplets_sums_duplicates():
    m = from_triplets(3, [0, 0, 1, 2], [0, 0, 1, 0], [1.0, 2.0, 5.0, -1.0])
    dense = m.toarray()
    assert dense[0, 0] == 3.0
    assert dense[1, 1] == 5.0
    assert dense[2, 0] == -1.0
    assert m.nnz == 3


def test_from_triplets_rejects_out_of_range():
    with pytest.raises(IndexError):
        from_triplets(2, [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(IndexError):
        from_triplets(2, [0], [-1], [1.0])


def test_from_triplets_empty():
    m = from_triplets(4, [], [], [])
    assert m.shape == (4, 4)
    assert m.nnz == 0


def _random_spd(n, rng):
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B @ B.T + n * np.eye(n))


def test_factor_solve_roundtrip(rng):
    K = _random_spd(30, rng)
    b = rng.standard_normal(30)
    F = factor(K)
    x = F.solve(b)
    assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-10
    # reuse for several right-hand sides
    for _ in range(3):
        b = rng.standard_normal(30)
        x = F.solve(b)
        assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-10


def test_zero_rhs(rng):
    K = _random_spd(8, rng)
    x = factor(K).solve(np.zeros(8))
    assert np.allclose(x, 0.0)


def test_singular_matrix_raises():
    K = sp.csr_matrix(np.zeros((4, 4)))
    with pytest.raises(SolverError):
        factor(K).solve(np.ones(4))


def test_residual_guard_catches_breakdown(rng):
    # if the factorization no longer matches the matrix, the residual check fires
    F = factor(_random_spd(6, rng))
    F.matrix = _random_spd(6, rng)
    with pytest.raises(SolverError):
        F.solve(np.ones(6))
