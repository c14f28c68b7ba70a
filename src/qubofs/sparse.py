"""Deterministic sparse-matrix kernel.

A thin immutable wrapper around a canonical scipy CSR array. Canonical means:
duplicate coordinates summed, column indices sorted within each row, and no
stored values with magnitude below ``ZERO_EPSILON``. Every operation returns a
new canonical matrix, so the nonzero pattern always reflects "really nonzero"
values, which downstream code relies on when testing similarities for
positivity.

Construction copies a CSR input and never modifies its input. The canonical
matrix is then shared read-only: ``csr`` hands out the matrix itself, whose
arrays are not writeable, and ``entries`` its (row, col, value) arrays.
Element-wise operations are ``with_entries`` calls, which keep a subset of the
entries or give them new values.
"""

from __future__ import annotations

import zipfile
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, IndexOutOfRange, NegativeBase, ParseError
from .fileio import atomic_open

# Stored values with |v| < ZERO_EPSILON are treated as exact zeros and dropped.
ZERO_EPSILON = 1e-12


def _canonical(m: sp.csr_array) -> sp.csr_array:
    """Make ``m``, a float64 CSR array whose arrays nothing else holds,
    canonical in place, then make its arrays read-only."""
    m.sum_duplicates()
    m.sort_indices()
    if m.nnz and not np.all(np.isfinite(m.data)):
        raise ValueError("non-finite value in sparse matrix")
    if m.nnz and np.any(np.abs(m.data) < ZERO_EPSILON):
        m.data[np.abs(m.data) < ZERO_EPSILON] = 0.0
        m.eliminate_zeros()
    for array in (m.data, m.indices, m.indptr):
        array.flags.writeable = False
    return m


class SparseMatrix:
    """Immutable row-compressed sparse real matrix."""

    __slots__ = ("_m",)

    def __init__(self, mat: sp.spmatrix | sp.sparray):
        """Canonical copy of ``mat``, which is neither shared nor modified."""
        self._m = _canonical(sp.csr_array(mat, dtype=np.float64, copy=True))

    @classmethod
    def _own(cls, mat: sp.csr_array) -> "SparseMatrix":
        """Wrap a fresh float64 CSR result without copying it again."""
        obj = cls.__new__(cls)
        obj._m = _canonical(mat)
        return obj

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
        return cls._own(sp.csr_array(np.asarray(array, dtype=np.float64)))

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

    @property
    def csr(self) -> sp.csr_array:
        """The canonical matrix itself, not a copy; its arrays are read-only."""
        return self._m

    def to_dense(self) -> np.ndarray:
        return self._m.toarray()

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the stored entries in canonical order:
        row-major, columns ascending. ``cols`` and ``values`` are read-only."""
        rows = np.repeat(np.arange(self.n_rows), np.diff(self._m.indptr))
        return rows, self._m.indices, self._m.data

    def triplets(self) -> Iterator[tuple[int, int, float]]:
        """(row, col, value) in row-major, column-ascending order."""
        rows, cols, values = self.entries()
        return zip(rows.tolist(), cols.tolist(), values.tolist())

    def row_nnz(self) -> np.ndarray:
        return np.diff(self._m.indptr)

    def col_nnz(self) -> np.ndarray:
        return np.bincount(self._m.indices, minlength=self.n_cols)

    def row_entries(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._m.indptr[r], self._m.indptr[r + 1]
        return self._m.indices[lo:hi], self._m.data[lo:hi]

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def with_entries(
        self, keep: np.ndarray | None = None, values: np.ndarray | None = None
    ) -> "SparseMatrix":
        """Same shape, holding the stored entries that the boolean mask ``keep``
        selects (all by default) with their own values or, if given,
        ``values``. Both are aligned with ``entries()``. The result is
        canonical again: values below ``ZERO_EPSILON`` drop out and a
        non-finite value raises ``ValueError``."""
        m = self._m
        keep = np.ones(self.nnz, dtype=bool) if keep is None else np.asarray(keep, dtype=bool)
        data = m.data if values is None else np.asarray(values, dtype=np.float64)
        if keep.shape != (self.nnz,) or data.shape != (self.nnz,):
            raise DimensionMismatch(f"entry arrays must have length nnz={self.nnz}")
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        return SparseMatrix._own(
            sp.csr_array((data[keep], m.indices[keep], kept_before[m.indptr]), shape=self.shape)
        )

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._own(self._m.T.tocsr())

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.n_cols != other.n_rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return SparseMatrix._own(self._m @ other._m)

    def scale(self, factor: float) -> "SparseMatrix":
        return self.with_entries(values=self._m.data * float(factor))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return SparseMatrix._own(self._m + other._m)

    def row_normalize(self, norm: str = "l1") -> "SparseMatrix":
        """Divide each nonzero row by its L1 or L2 norm; zero rows unchanged."""
        if norm not in ("l1", "l2"):
            raise ValueError(f"unknown norm {norm!r}")
        rows, _, values = self.entries()
        norms = np.zeros(self.n_rows)
        if norm == "l1":
            np.add.at(norms, rows, np.abs(values))
        else:
            np.add.at(norms, rows, values**2)
            norms = np.sqrt(norms)
        scale = np.ones(self.n_rows)
        nz = norms > 0.0
        scale[nz] = 1.0 / norms[nz]
        return self.with_entries(values=values * scale[rows])

    def power(self, exponent: float) -> "SparseMatrix":
        """Raise every stored value to ``exponent``; exponent 0 maps them to 1."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        data = self._m.data
        if self.nnz and exponent != int(exponent) and np.any(data < 0):
            raise NegativeBase(f"non-integer exponent {exponent} on negative value")
        return self.with_entries(values=np.power(data, exponent))

    def top_k_per_row(self, k: int) -> "SparseMatrix":
        """Keep the k largest values per row; ties go to the smaller column."""
        if k < 1:
            raise ValueError("k must be >= 1")
        indptr, indices, data = self._m.indptr, self._m.indices, self._m.data
        keep = np.ones(self.nnz, dtype=bool)
        for r in np.flatnonzero(np.diff(indptr) > k):
            lo, hi = indptr[r], indptr[r + 1]
            order = np.lexsort((indices[lo:hi], -data[lo:hi]))
            keep[lo:hi] = False
            keep[lo + order[:k]] = True
        return self.with_entries(keep=keep)

    def zero_diagonal(self) -> "SparseMatrix":
        rows, cols, _ = self.entries()
        return self.with_entries(keep=rows != cols)

    def submatrix(self, rows: np.ndarray | None = None, cols: np.ndarray | None = None) -> "SparseMatrix":
        m = self._m
        if rows is not None:
            m = m[np.asarray(rows, dtype=np.int64), :]
        if cols is not None:
            m = m[:, np.asarray(cols, dtype=np.int64)]
        return self if m is self._m else SparseMatrix._own(m)

    def mask_cols(self, keep: np.ndarray) -> "SparseMatrix":
        """Drop entries outside the kept columns; shape is preserved."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n_cols,):
            raise DimensionMismatch("column mask length mismatch")
        return self.with_entries(keep=keep[self._m.indices])

    def binarize(self, threshold: float = ZERO_EPSILON) -> "SparseMatrix":
        """Pattern matrix: 1.0 where value > threshold, else dropped."""
        return self.with_entries(keep=self._m.data > threshold, values=np.ones(self.nnz))

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

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    # persistence: uncompressed scipy .npz
    # ------------------------------------------------------------------

    def save_coo(self, path) -> None:
        """Write as an uncompressed scipy ``.npz`` archive of the COO form.
        The method and the ``.coo`` file names keep their old names because
        the benchmark reads and wraps them by name."""
        with atomic_open(path, "wb") as fh:
            sp.save_npz(fh, self._m.tocoo(), compressed=False)

    @classmethod
    def load_coo(cls, path) -> "SparseMatrix":
        """Read a file written by ``save_coo``; anything else raises
        ``ParseError`` naming the path (``load_npz`` never unpickles)."""
        try:
            with open(path, "rb") as fh:
                return cls(sp.load_npz(fh))
        except (ValueError, TypeError, EOFError, KeyError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{path}: not a sparse matrix archive ({exc})") from exc
