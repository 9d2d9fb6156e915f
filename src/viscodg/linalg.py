"""Sparse symmetric linear algebra: triplet assembly and SPD solves.

Thin layer over scipy.sparse.  The step matrix of the time integrator is
constant in time, so the intended usage is factor once per run and reuse.
The factorization is SuperLU, and every solve is checked by its residual.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    """Factorization breakdown or a solve whose residual is too large."""


def from_triplets(n: int, rows, cols, values) -> sp.csr_matrix:
    """Build an n-by-n CSR matrix; duplicate entries are summed."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if len(rows) and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise IndexError("triplet index out of range")
    mat = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


@dataclass
class Factorization:
    """Reusable factorization of an SPD matrix."""

    matrix: sp.csr_matrix
    _lu: spla.SuperLU

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._lu.solve(b)
        nb = np.linalg.norm(b)
        if nb > 0:
            res = np.linalg.norm(self.matrix @ x - b) / nb
            if not np.isfinite(res) or res > 1e-8:
                raise SolverError(f"solve residual {res:.3e} exceeds tolerance; matrix may not be SPD")
        return x


def factor(K: sp.csr_matrix) -> Factorization:
    """Factor an SPD matrix for repeated solves."""
    K = K.tocsc()
    try:
        lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    return Factorization(K.tocsr(), lu)
