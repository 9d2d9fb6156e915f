"""Sparse symmetric linear algebra: fill-reducing order and SPD solves.

Thin layer over scipy.sparse.  The step matrix of the time integrator is
constant in time, so the intended usage is factor once per run and reuse.
The factorization is SuperLU, and every solve is checked by its residual.

``factor`` eliminates in the matrix's own numbering: it computes no
fill-reducing ordering of its own.  The DG matrices are numbered element by
element, and ``TriMesh`` numbers the elements in the minimum-degree order of
their adjacency graph (``minimum_degree_order``), so the DOF numbering is
already the elimination order.  SuperLU's multiple-minimum-degree ordering of
the scalar DOF graph does not see the element blocks and fills more.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    """Factorization breakdown or a solve whose residual is too large."""


@dataclass
class Factorization:
    """Reusable factorization of an SPD matrix."""

    matrix: sp.csr_matrix
    _lu: spla.SuperLU

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve K x = b.

        A non-finite b raises ValueError; a finite b whose norm overflows, or a
        residual whose norm overflows or exceeds 1e-8 of b's, raises SolverError.
        """
        with np.errstate(over="ignore"):
            nb = np.linalg.norm(b)
        if not np.isfinite(nb):
            bad = np.flatnonzero(~np.isfinite(b))
            if len(bad):
                raise ValueError(f"right-hand side entry {bad[0]} is {b.flat[bad[0]]}, not finite")
            big = np.abs(b).max()
            raise SolverError(f"right-hand side norm overflows (max |b| = {big:.3e})")
        # _lu factors the transpose of the matrix (see ``factor``)
        x = self._lu.solve(b, trans="T")
        if nb > 0:
            with np.errstate(over="ignore"):
                r = self.matrix @ x - b
                res = np.linalg.norm(r) / nb
            if np.isinf(res) and np.isfinite(r).all():
                raise SolverError(f"residual norm overflows (max |Kx - b| = {np.abs(r).max():.3e})")
            if not np.isfinite(res) or res > 1e-8:
                raise SolverError(
                    f"solve residual {res:.3e} exceeds 1e-8: the matrix is not SPD"
                    " or is too badly scaled"
                )
        return x


def minimum_degree_order(n: int, pairs: np.ndarray) -> np.ndarray:
    """Multiple-minimum-degree elimination order of an undirected graph.

    ``pairs`` lists the graph's edges as (m, 2) node indices in [0, n).
    Returns the n nodes in elimination order, read from SuperLU's ordering
    of a strictly diagonally dominant matrix with the graph's pattern.  The
    order depends on the pattern alone, so an incomplete factorization that
    drops almost every entry reads it for about a third of the cost of a full one.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
    degree = np.bincount(pairs.ravel(), minlength=n)
    values = np.concatenate([-np.ones(2 * len(pairs)), degree + 1.0])
    E = sp.csc_matrix((values, (rows, cols)), shape=(n, n))
    lu = spla.spilu(
        E, permc_spec="MMD_AT_PLUS_A", drop_tol=0.5, fill_factor=1, options={"SymmetricMode": True}
    )
    # perm_c[i] is the position at which node i is eliminated
    return np.argsort(lu.perm_c)


def factor(K: sp.csr_matrix) -> Factorization:
    """Factor an SPD matrix for repeated solves, eliminating in its own numbering.

    A pivot threshold of 0.01 keeps SuperLU on the diagonal, as it advises
    for SymmetricMode; off-diagonal pivots of an SPD matrix only add fill.
    SuperLU takes CSC; the CSR arrays of K are the CSC arrays of K^T, so K^T is
    factored without a copy and ``solve`` applies it transposed.  That keeps
    every solve exact for K, which is symmetric only to rounding.  A step
    matrix (``AssembledSystem.combine``) shares its index arrays with the
    system's A: the factorization keeps K and reads them, and
    ``assemble_system`` makes them read-only.
    """
    K = K.tocsr()
    # splu sums duplicates in place in the arrays it is given, which are K's;
    # do it on K itself (a no-op for a canonical matrix) so K stays consistent
    K.sum_duplicates()
    try:
        lu = spla.splu(
            sp.csc_matrix((K.data, K.indices, K.indptr), shape=K.shape[::-1]),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.01,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    return Factorization(K, lu)
