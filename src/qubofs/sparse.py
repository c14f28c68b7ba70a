"""Deterministic sparse-matrix kernel.

A thin immutable wrapper around a canonical scipy CSR array. Canonical means:
duplicate coordinates summed, column indices sorted within each row, and no
stored values with magnitude below ``ZERO_EPSILON``. Every operation returns a
new canonical matrix, so the nonzero pattern always reflects "really nonzero"
values, which downstream code relies on when testing similarities for
positivity.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, IndexOutOfRange, NegativeBase, ParseError
from .fileio import atomic_open

# Stored values with |v| < ZERO_EPSILON are treated as exact zeros and dropped.
ZERO_EPSILON = 1e-12


def _canonical(mat: sp.spmatrix | sp.sparray) -> sp.csr_array:
    m = sp.csr_array(mat, dtype=np.float64)
    m.sum_duplicates()
    m.sort_indices()
    if m.nnz and not np.all(np.isfinite(m.data)):
        raise ValueError("non-finite value in sparse matrix")
    if m.nnz and np.any(np.abs(m.data) < ZERO_EPSILON):
        m.data[np.abs(m.data) < ZERO_EPSILON] = 0.0
        m.eliminate_zeros()
    return m


class SparseMatrix:
    """Immutable row-compressed sparse real matrix."""

    __slots__ = ("_m",)

    def __init__(self, mat: sp.spmatrix | sp.sparray):
        self._m = _canonical(mat)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_triplets(
        cls,
        n_rows: int,
        n_cols: int,
        triplets: Iterable[tuple[int, int, float]],
    ) -> "SparseMatrix":
        """Build from (row, col, value) triplets; duplicates are summed."""
        triplets = list(triplets)
        if triplets:
            rows = np.asarray([t[0] for t in triplets], dtype=np.int64)
            cols = np.asarray([t[1] for t in triplets], dtype=np.int64)
            vals = np.asarray([t[2] for t in triplets], dtype=np.float64)
            if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
                raise IndexOutOfRange(f"row index out of range for {n_rows} rows")
            if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
                raise IndexOutOfRange(f"col index out of range for {n_cols} cols")
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
            vals = np.empty(0, dtype=np.float64)
        return cls(sp.coo_array((vals, (rows, cols)), shape=(n_rows, n_cols)))

    @classmethod
    def from_dense(cls, array: np.ndarray | Sequence[Sequence[float]]) -> "SparseMatrix":
        return cls(sp.csr_array(np.asarray(array, dtype=np.float64)))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._m.shape[0]

    @property
    def n_cols(self) -> int:
        return self._m.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._m.shape

    @property
    def nnz(self) -> int:
        return self._m.nnz

    def to_scipy(self) -> sp.csr_array:
        return self._m.copy()

    def to_dense(self) -> np.ndarray:
        return self._m.toarray()

    def triplets(self) -> Iterator[tuple[int, int, float]]:
        """Yield (row, col, value) in row-major, column-ascending order."""
        indptr, indices, data = self._m.indptr, self._m.indices, self._m.data
        for r in range(self.n_rows):
            for k in range(indptr[r], indptr[r + 1]):
                yield r, int(indices[k]), float(data[k])

    def row_nnz(self) -> np.ndarray:
        return np.diff(self._m.indptr)

    def col_nnz(self) -> np.ndarray:
        counts = np.zeros(self.n_cols, dtype=np.int64)
        np.add.at(counts, self._m.indices, 1)
        return counts

    def row_entries(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._m.indptr[r], self._m.indptr[r + 1]
        return self._m.indices[lo:hi], self._m.data[lo:hi]

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self._m.T)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.n_cols != other.n_rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return SparseMatrix(self._m @ other._m)

    def scale(self, factor: float) -> "SparseMatrix":
        m = self._m.copy()
        m.data = m.data * float(factor)
        return SparseMatrix(m)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return SparseMatrix(self._m + other._m)

    def row_normalize(self, norm: str = "l1") -> "SparseMatrix":
        """Divide each nonzero row by its L1 or L2 norm; zero rows unchanged."""
        if norm not in ("l1", "l2"):
            raise ValueError(f"unknown norm {norm!r}")
        m = self._m.copy()
        if m.nnz == 0:
            return SparseMatrix(m)
        row_lengths = np.diff(m.indptr)
        row_of_entry = np.repeat(np.arange(self.n_rows), row_lengths)
        norms = np.zeros(self.n_rows)
        if norm == "l1":
            np.add.at(norms, row_of_entry, np.abs(m.data))
        else:
            np.add.at(norms, row_of_entry, m.data**2)
            norms = np.sqrt(norms)
        scale = np.ones(self.n_rows)
        nz = norms > 0.0
        scale[nz] = 1.0 / norms[nz]
        m.data = m.data * scale[row_of_entry]
        return SparseMatrix(m)

    def power(self, exponent: float) -> "SparseMatrix":
        """Raise every stored value to ``exponent``; exponent 0 maps them to 1."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        m = self._m.copy()
        if m.nnz:
            if exponent != int(exponent) and np.any(m.data < 0):
                raise NegativeBase(
                    f"non-integer exponent {exponent} on negative value"
                )
            m.data = np.power(m.data, exponent)
        return SparseMatrix(m)

    def top_k_per_row(self, k: int) -> "SparseMatrix":
        """Keep the k largest values per row; ties go to the smaller column."""
        if k < 1:
            raise ValueError("k must be >= 1")
        indptr, indices, data = self._m.indptr, self._m.indices, self._m.data
        keep = np.ones(self.nnz, dtype=bool)
        for r in range(self.n_rows):
            lo, hi = indptr[r], indptr[r + 1]
            if hi - lo <= k:
                continue
            cols = indices[lo:hi]
            vals = data[lo:hi]
            order = np.lexsort((cols, -vals))
            keep[lo:hi] = False
            keep[lo + order[:k]] = True
        coo = self._m.tocoo()  # canonical csr, so coo entry order matches
        return SparseMatrix(
            sp.coo_array(
                (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=self.shape
            )
        )

    def zero_diagonal(self) -> "SparseMatrix":
        coo = self._m.tocoo()
        off = coo.row != coo.col
        return SparseMatrix(
            sp.coo_array((coo.data[off], (coo.row[off], coo.col[off])), shape=self.shape)
        )

    def submatrix(self, rows: np.ndarray | None = None, cols: np.ndarray | None = None) -> "SparseMatrix":
        m = self._m
        if rows is not None:
            m = m[np.asarray(rows, dtype=np.int64), :]
        if cols is not None:
            m = m[:, np.asarray(cols, dtype=np.int64)]
        return SparseMatrix(m)

    def mask_cols(self, keep: np.ndarray) -> "SparseMatrix":
        """Drop entries outside the kept columns; shape is preserved."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n_cols,):
            raise DimensionMismatch("column mask length mismatch")
        coo = self._m.tocoo()
        sel = keep[coo.col]
        return SparseMatrix(
            sp.coo_array((coo.data[sel], (coo.row[sel], coo.col[sel])), shape=self.shape)
        )

    def binarize(self, threshold: float = ZERO_EPSILON) -> "SparseMatrix":
        """Pattern matrix: 1.0 where value > threshold, else dropped."""
        coo = self._m.tocoo()
        sel = coo.data > threshold
        return SparseMatrix(
            sp.coo_array(
                (np.ones(sel.sum()), (coo.row[sel], coo.col[sel])), shape=self.shape
            )
        )

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self._m.indptr, other._m.indptr)
            and np.array_equal(self._m.indices, other._m.indices)
            and np.array_equal(self._m.data, other._m.data)
        )

    def __hash__(self):  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    # persistence: COO text format
    # ------------------------------------------------------------------

    def save_coo(self, path) -> None:
        """Write as text: header `n_rows<TAB>n_cols<TAB>nnz`, then one
        `row<TAB>col<TAB>value` line per entry in row-major order."""
        lines = [f"{self.n_rows}\t{self.n_cols}\t{self.nnz}\n"]
        for r, c, v in self.triplets():
            lines.append(f"{r}\t{c}\t{v:.17g}\n")
        with atomic_open(path) as fh:
            fh.writelines(lines)

    @classmethod
    def load_coo(cls, path) -> "SparseMatrix":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            parts = header.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ParseError("expected `n_rows<TAB>n_cols<TAB>nnz` header", 1)
            try:
                n_rows, n_cols, nnz = (int(p) for p in parts)
            except ValueError as exc:
                raise ParseError(str(exc), 1) from exc
            triplets = []
            for line_no, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 3:
                    raise ParseError("expected `row<TAB>col<TAB>value`", line_no)
                try:
                    triplets.append((int(fields[0]), int(fields[1]), float(fields[2])))
                except ValueError as exc:
                    raise ParseError(str(exc), line_no) from exc
        if len(triplets) != nnz:
            raise ParseError(f"header declared {nnz} entries, found {len(triplets)}")
        return cls.from_triplets(n_rows, n_cols, triplets)
