"""QUBO construction from similarity agreement.

For every item pair the collaborative and content similarities either agree
(both present: the shared features should be kept) or the content model claims
a similarity the collaborative one does not support (the responsible features
should be dropped). Those two cases become a -1 "keep" matrix and a +1
"eliminate" matrix over item pairs; their weighted sum is projected into
feature space through the item-feature matrix, and a squared-count penalty
steers the optimizer toward a target number of selected features.

Energy convention: Q is stored symmetric and the energy of a binary vector x
is literally x^T Q x + offset, so each off-diagonal pair is counted twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .fileio import read_json, write_json
from .sparse import SparseMatrix


@dataclass(frozen=True)
class PenalizationMatrices:
    """Disjoint symmetric item-pair matrices: keep holds -1, eliminate +1."""

    keep: SparseMatrix
    eliminate: SparseMatrix

    def __post_init__(self):
        if self.keep.shape != self.eliminate.shape:
            raise DimensionMismatch("keep/eliminate shape mismatch")
        if not np.all(self.keep.entries()[2] == -1.0):
            raise ValueError("keep matrix values must all be -1")
        if not np.all(self.eliminate.entries()[2] == 1.0):
            raise ValueError("eliminate matrix values must all be +1")


@dataclass(frozen=True)
class QuboProblem:
    """Symmetric coefficient matrix plus a constant offset."""

    q: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("q must be square")
        if not np.array_equal(q, q.T):
            raise ValueError("q must be exactly symmetric")
        if not np.all(np.isfinite(q)) or not np.isfinite(self.offset):
            raise NonFinite("q and offset must be finite")
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]


def _positive_support(m: SparseMatrix) -> SparseMatrix:
    """Symmetrized pattern of strictly positive similarities."""
    pattern = m.binarize()
    both = pattern + pattern.transpose()
    return both.binarize().zero_diagonal()


def build_penalization(s_cf: SparseMatrix, s_cbf: SparseMatrix) -> PenalizationMatrices:
    """Classify item pairs by similarity agreement.

    Pairs positive in both similarities get -1 (keep); pairs positive only in
    the content similarity get +1 (eliminate); pairs positive only in the
    collaborative similarity carry no signal because there is no content
    similarity to change; fully absent pairs are already consistent.
    """
    cf = _positive_support(s_cf)
    cbf = _positive_support(s_cbf)
    code = cf + cbf.scale(2.0)  # 3: in both supports, 2: in the content one only
    values, ones = code.entries()[2], np.ones(code.nnz)
    return PenalizationMatrices(keep=code.with_entries(values == 3.0, -ones),
                                eliminate=code.with_entries(values == 2.0, ones))


def build_ipm(pm: PenalizationMatrices, alpha: float, beta: float) -> SparseMatrix:
    """Weighted sum of the keep and eliminate matrices (disjoint supports)."""
    return pm.keep.scale(alpha) + pm.eliminate.scale(beta)


def build_fpm(icm: SparseMatrix, ipm: SparseMatrix) -> SparseMatrix:
    """Project the item-pair penalization into feature space."""
    if ipm.n_rows != ipm.n_cols:
        raise DimensionMismatch("item penalization matrix must be square")
    if icm.n_rows != ipm.n_rows:
        raise DimensionMismatch(
            f"feature matrix has {icm.n_rows} items, penalization {ipm.n_rows}"
        )
    return icm.transpose() @ ipm @ icm


def combination_penalty(n: int, k_target: float, s: float) -> QuboProblem:
    """Quadratic penalty s * (sum(x) - k_target)^2 in QUBO form.

    Using x_f^2 = x_f the expansion puts s*(1 - 2*k_target) on the diagonal,
    s on every off-diagonal entry, and s*k_target^2 into the offset.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    q = np.full((n, n), float(s))
    np.fill_diagonal(q, s * (1.0 - 2.0 * k_target))
    return QuboProblem(q=q, offset=s * k_target**2)


def assemble_qubo(fpm: SparseMatrix, p: float, s: float) -> QuboProblem:
    """Symmetrized feature penalization plus the count penalty of strength s
    toward selecting the fraction p of the features."""
    if fpm.n_rows != fpm.n_cols:
        raise DimensionMismatch("feature penalization matrix must be square")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    n = fpm.n_rows
    dense = fpm.to_dense()
    sym = (dense + dense.T) / 2.0
    penalty = combination_penalty(n, p * n, s)
    return QuboProblem(q=sym + penalty.q, offset=penalty.offset)


def save_qubo(problem: QuboProblem, coo_path, sidecar_path) -> None:
    SparseMatrix.from_dense(problem.q).save_coo(coo_path)
    write_json(sidecar_path, {"n": problem.n, "offset": problem.offset, "convention": "symmetric"})


def load_qubo(coo_path, sidecar_path) -> QuboProblem:
    sidecar = read_json(sidecar_path)
    q = SparseMatrix.load_coo(coo_path).to_dense()
    if q.shape[0] != sidecar["n"]:
        raise DimensionMismatch("sidecar n disagrees with matrix size")
    return QuboProblem(q=q, offset=float(sidecar["offset"]))
