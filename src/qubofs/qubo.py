"""QUBO construction from similarity agreement.

For every item pair the collaborative and content similarities either agree
(both present: the shared features should be kept) or the content model claims
a similarity the collaborative one does not support (the responsible features
should be dropped). One symmetric item-pair matrix holds that classification:
-1 on kept pairs and +1 on eliminated ones. Weighting them by alpha and beta
gives the item penalization, which is projected into feature space through the
item-feature matrix, and a squared-count penalty s * (sum(x) - k)^2 steers the
optimizer toward k = p * n of the n features. ``assemble_qubo`` writes that
penalty into Q's one buffer expanded with x_f^2 = x_f: s on every off-diagonal
entry, s * (1 - 2k) on the diagonal and s * k^2 in the offset.

Energy convention: Q is stored symmetric and the energy of a binary vector x
is literally x^T Q x + offset, so each off-diagonal pair is counted twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, ParseError
from .fileio import is_finite_number, read_json, write_json
from .sparse import ZERO_EPSILON, SparseMatrix


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


def build_penalization(s_cf: SparseMatrix, s_cbf: SparseMatrix) -> SparseMatrix:
    """Classify item pairs by similarity agreement, in one symmetric matrix.

    Pairs positive in both similarities get -1 (keep); pairs positive only in
    the content similarity get +1 (eliminate); pairs positive only in the
    collaborative similarity carry no signal because there is no content
    similarity to change; fully absent pairs are already consistent.

    A pair is positive in a similarity when either of its directions is, so
    only the symmetrised content support is built. Its pairs are looked up,
    as (i, j) and as (j, i), among ``s_cf``'s positive entries written as
    keys ``row * n + col``, which CSR order already sorts; no copy of the
    collaborative support is made.
    """
    if s_cf.shape != s_cbf.shape:
        raise DimensionMismatch(f"similarities of shape {s_cf.shape} and {s_cbf.shape}")
    cbf = _positive_support(s_cbf)
    n = cbf.n_cols
    cf_keys = np.repeat(np.arange(n, dtype=np.int64) * n, s_cf.row_nnz())
    cf_keys += s_cf.indices
    cf_keys = cf_keys[s_cf.data > ZERO_EPSILON]
    rows, cols, _ = cbf.entries()
    cols = cols.astype(np.int64)
    agree = _found(cf_keys, rows * n + cols) | _found(cf_keys, cols * n + rows)
    return cbf.with_entries(values=np.where(agree, -1.0, 1.0))


def _found(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each of ``queries`` is among the ascending ``keys``."""
    if not keys.size:
        return np.zeros(queries.size, dtype=bool)
    at = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    return keys[at] == queries


def build_ipm(pairs: SparseMatrix, alpha: float, beta: float) -> SparseMatrix:
    """The item penalization: -alpha on the kept pairs of ``build_penalization``'s
    matrix and beta on its eliminated ones; a weight below ``ZERO_EPSILON``
    drops its pairs."""
    return pairs.with_entries(values=np.where(pairs.data < 0.0, -alpha, beta))


def build_fpm(icm: SparseMatrix, ipm: SparseMatrix) -> SparseMatrix:
    """Project the item-pair penalization into feature space; shapes that do
    not chain are the product's ``DimensionMismatch``."""
    return icm.transpose() @ ipm @ icm


def assemble_qubo(fpm: SparseMatrix, p: float, s: float) -> QuboProblem:
    """Symmetrized feature penalization plus the count penalty of strength s
    toward selecting the fraction p of the features."""
    if fpm.n_rows != fpm.n_cols:
        raise DimensionMismatch("feature penalization matrix must be square")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    if s < 0:
        raise ValueError("s must be >= 0")
    k = p * fpm.n_rows
    dense = fpm.to_dense()
    q = (dense + dense.T) / 2.0
    diagonal = q.diagonal() + s * (1.0 - 2.0 * k)
    q += float(s)
    np.fill_diagonal(q, diagonal)
    return QuboProblem(q=q, offset=float(s * k**2))


def save_qubo(fpm: SparseMatrix, p: float, s: float, coo_path, sidecar_path) -> None:
    """Store what builds a grid point's QUBO: the feature penalization of its
    (alpha, beta) pair and its ``p`` and ``s``."""
    fpm.save_coo(coo_path)
    write_json(sidecar_path, {"p": p, "s": s})


def load_qubo(coo_path, sidecar_path, n: int | None = None) -> QuboProblem:
    """``assemble_qubo`` of what ``save_qubo`` stored. A sidecar whose ``p``
    or ``s`` is missing, as in an older run's, or not a finite number in
    ``assemble_qubo``'s range is a ``ParseError`` naming it; a penalization
    that is not n x n (square, when ``n`` is None) is one naming the matrix."""
    sidecar = read_json(sidecar_path)
    p, s = sidecar.get("p"), sidecar.get("s")
    if not (is_finite_number(p) and is_finite_number(s) and 0 < p <= 1 and s >= 0):
        raise ParseError(f"{sidecar_path}: p {p!r} and s {s!r} are not finite numbers with 0 < p <= 1 "
                         "and s >= 0; an older run stored neither, so delete qubo/grid_* to rebuild")
    fpm = SparseMatrix.load_coo(coo_path)
    if fpm.n_cols != fpm.n_rows or n not in (None, fpm.n_rows):
        raise ParseError(f"{coo_path}: a {fpm.n_rows}x{fpm.n_cols} feature penalization, not "
                         + ("square" if n is None else f"{n}x{n}"))
    return assemble_qubo(fpm, p, s)


def load_pairs(path, n: int) -> SparseMatrix:
    """The pair matrix ``build_penalization`` stored; one that is not a
    symmetric n x n matrix of -1 and +1 is a ``ParseError`` naming the file."""
    pairs = SparseMatrix.load_coo(path)
    if pairs.shape != (n, n) or pairs != pairs.transpose() or not np.all(np.abs(pairs.data) == 1.0):
        raise ParseError(f"{path}: not a symmetric {n}x{n} matrix of -1 and +1")
    return pairs
