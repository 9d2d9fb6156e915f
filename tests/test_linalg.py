import numpy as np
import pytest
import scipy.sparse as sp

from viscodg.assembly import assemble_system
from viscodg.linalg import SolverError, factor, minimum_degree_order
from viscodg.mesh import build_structured_mesh
from viscodg.space import DGSpace
from viscodg.stepper import StepOperator


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


def test_solve_is_exact_for_a_non_symmetric_matrix(rng):
    # factor hands SuperLU the transpose and solves transposed; on a
    # non-symmetric matrix a plain solve would leave a large residual
    n = 40
    B = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    K = sp.csr_matrix(B + np.diag(np.abs(B).sum(axis=1) + 1.0))
    assert abs(K - K.T).max() > 0.5
    F = factor(K)
    for _ in range(4):
        b = rng.standard_normal(n)
        x = F.solve(b)
        assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-10


def test_zero_rhs(rng):
    K = _random_spd(8, rng)
    x = factor(K).solve(np.zeros(8))
    assert np.allclose(x, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_is_rejected(rng, bad):
    # NaN used to skip the residual guard (nan > tol is False) and come back
    # as a NaN solution; inf failed the guard as "matrix may not be SPD"
    F = factor(_random_spd(8, rng))
    b = rng.standard_normal(8)
    b[[3, 6]] = bad
    with pytest.raises(ValueError, match=f"right-hand side entry 3 is {bad}, not finite"):
        F.solve(b)


def test_overflowing_rhs_norm_is_a_solver_error():
    # every entry is finite, but the sum of their squares overflows: the
    # residual guard would divide inf by inf and blame the matrix
    F = factor(sp.identity(4, format="csr"))
    with pytest.raises(SolverError, match="right-hand side norm overflows"):
        F.solve(np.full(4, 1e200))


def test_overflowing_residual_norm_is_a_solver_error():
    # a factorization of I checked against 1e300 I: the residual K x - b is
    # finite, but the sum of its squares overflows
    F = factor(sp.identity(4, format="csr"))
    F.matrix = 1e300 * F.matrix
    with pytest.raises(SolverError, match="residual norm overflows"):
        F.solve(np.ones(4))


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


def _lu_fill(F):
    return F._lu.L.nnz + F._lu.U.nnz


def test_element_order_cuts_fill(case):
    # the DOF numbering is the elimination order: minimum degree on the
    # element graph, with diagonal pivots, fills less than SuperLU's own
    # ordering of the DOF graph, which fills 1.29e6 for K and 6.96e6 for A here
    space = DGSpace.build(build_structured_mesh(16), 2)
    system = assemble_system(space, case.material, alpha0=10.0)
    op = StepOperator.build(system, 1.0 / 8)
    assert _lu_fill(op.K) <= 1.05e6

    space = DGSpace.build(build_structured_mesh(16), 3)
    system = assemble_system(space, case.material, alpha0=10.0)
    F = factor(system.A)
    assert _lu_fill(F) <= 3.0e6
    b = np.random.default_rng(0).standard_normal(space.total_dofs)
    assert np.linalg.norm(system.A @ F.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


def test_minimum_degree_order_is_a_permutation():
    # a path graph given in scrambled order
    rng = np.random.default_rng(0)
    label = rng.permutation(20)
    order = minimum_degree_order(20, np.stack([label[:-1], label[1:]], axis=-1))
    assert sorted(order.tolist()) == list(range(20))
    # an isolated node and an empty graph are allowed
    assert sorted(minimum_degree_order(3, [[0, 1]]).tolist()) == [0, 1, 2]
    assert minimum_degree_order(1, np.empty((0, 2), dtype=int)).tolist() == [0]
