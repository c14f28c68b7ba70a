"""Deterministic sparse-matrix kernel.

An immutable row-compressed (CSR) matrix that holds its own canonical arrays:
``shape``, 32-bit ``indptr`` and ``indices``, and float64 ``data``. Canonical
means: duplicate coordinates summed, column indices sorted within each row,
and no stored values with magnitude below ``ZERO_EPSILON``. A matrix whose
entry count or a dimension exceeds ``np.iinfo(np.int32).max`` raises
``TooLarge``. Every operation returns a new canonical matrix, so the nonzero
pattern always reflects "really nonzero" values, which downstream code relies
on when testing similarities for positivity.

This is the only module that uses scipy, and scipy only multiplies,
transposes and sums rows: it is imported inside sparse and dense products,
``transpose`` and ``row_sums``, which wrap the arrays in a ``csr_array``
without copying them. Everything else is numpy, the canonicalisation of
entries out of order or repeated included, so a process that only loads,
saves, sums, restricts and reweights matrices, such as a resumed run, never
imports scipy.

Construction copies its input and never modifies it. Other modules read the
canonical arrays through the read-only ``indptr``, ``indices`` and ``data``,
or ``entries`` (row, col, value). Element-wise operations are
``with_entries`` calls, which keep a subset of the entries or give them new
values.
"""

from __future__ import annotations

import zipfile
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NegativeBase,
    NonFinite,
    ParseError,
    TooLarge,
)
from .fileio import atomic_open

# Stored values with |v| < ZERO_EPSILON are treated as exact zeros and dropped.
ZERO_EPSILON = 1e-12
_INDEX_MAX = np.iinfo(np.int32).max


def _scipy():
    """``scipy.sparse``, imported on first use: it costs a process about
    0.2 s, which a run that needs no sparse arithmetic does not pay."""
    import scipy.sparse

    return scipy.sparse


def _check_size(shape: tuple[int, int], nnz: int) -> None:
    if max(nnz, *shape) > _INDEX_MAX:
        raise TooLarge(f"{shape} matrix with {nnz} entries needs indices beyond 32 bits")


def _sorted_by_scipy(m) -> tuple:
    """The CSR arrays of ``m``, a float64 scipy CSR array whose arrays nothing
    else holds, with repeated coordinates summed and columns sorted in place;
    the indices become 32-bit first."""
    _check_size(m.shape, m.nnz)
    m.indptr = m.indptr.astype(np.int32, copy=False)
    m.indices = m.indices.astype(np.int32, copy=False)
    m.sum_duplicates()
    m.sort_indices()
    return m.shape, m.indptr, m.indices, m.data


def _keep(indptr: np.ndarray, keep: np.ndarray, *arrays: np.ndarray) -> tuple:
    """Row pointers and entry arrays of the CSR entries that the boolean mask
    ``keep`` selects."""
    kept = np.flatnonzero(keep)
    return (np.searchsorted(kept, indptr), *(array.take(kept) for array in arrays))


class SparseMatrix:
    """Immutable row-compressed sparse real matrix."""

    __slots__ = ("_shape", "_indptr", "_indices", "_data")

    @classmethod
    def _of(cls, shape, indptr, indices, data) -> "SparseMatrix":
        """Wrap CSR arrays whose columns ascend within each row, without
        repeats, and that nothing else holds; see ``_set``."""
        obj = cls.__new__(cls)
        obj._set(shape, indptr, indices, data)
        return obj

    def _set(self, shape, indptr, indices, data) -> None:
        """Store the arrays in canonical form: a non-finite value raises
        ``NonFinite``, values below ``ZERO_EPSILON`` drop out, the indices
        become 32-bit, and the arrays become read-only."""
        shape = (int(shape[0]), int(shape[1]))
        _check_size(shape, len(data))
        if data.size and not np.all(np.isfinite(data)):
            raise NonFinite("non-finite value in sparse matrix")
        small = np.abs(data) < ZERO_EPSILON
        if small.any():
            indptr, indices, data = _keep(indptr, ~small, indices, data)
        self._shape = shape
        self._indptr = indptr.astype(np.int32, copy=False)
        self._indices = indices.astype(np.int32, copy=False)
        self._data = data
        for array in (self._indptr, self._indices, self._data):
            array.flags.writeable = False

    def _csr(self):
        """A scipy CSR array over this matrix's arrays, not a copy of them."""
        return _scipy().csr_array(
            (self._data, self._indices, self._indptr), shape=self._shape, copy=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def _canonical(cls, shape, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> "SparseMatrix":
        """The matrix of the entries (``rows[k]``, ``cols[k]``, ``values[k]``),
        given in any order in integer and real arrays that nothing else holds.
        An entry outside ``shape`` raises ``IndexOutOfRange``. Entries out of
        canonical order are sorted stably, and the values of a repeated
        coordinate are summed one at a time in the order given. Entries
        already in canonical order (row-major, columns strictly ascending
        within a row) are taken as they are."""
        n_rows, n_cols = shape = (int(shape[0]), int(shape[1]))
        _check_size(shape, values.size)
        if values.size and (min(rows.min(), cols.min()) < 0
                            or rows.max() >= n_rows or cols.max() >= n_cols):
            raise IndexOutOfRange(f"entry outside the {n_rows}x{n_cols} matrix")
        values = values.astype(np.float64, copy=False)
        rows = rows.astype(np.int64, copy=False)
        keys = rows * n_cols + cols.astype(np.int64, copy=False)
        if np.all(keys[1:] > keys[:-1]):
            counts = np.bincount(rows, minlength=n_rows)
            return cls._of(shape, np.concatenate(([0], np.cumsum(counts))), cols, values)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.diff(keys, prepend=-1) != 0
        # bincount adds the weights of a bin one by one, in array order
        sums = np.bincount(np.cumsum(first) - 1, weights=values[order])
        keys = keys[first]
        indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
        return cls._of(shape, indptr, keys % n_cols, sums)

    @classmethod
    def from_triplets(
        cls,
        n_rows: int,
        n_cols: int,
        triplets: Iterable[tuple[int, int, float]],
    ) -> "SparseMatrix":
        """Build from (row, col, value) triplets in any order; the values of
        a repeated coordinate are summed in the order given."""
        triplets = list(triplets)
        rows = np.asarray([t[0] for t in triplets], dtype=np.int64)
        cols = np.asarray([t[1] for t in triplets], dtype=np.int64)
        vals = np.asarray([t[2] for t in triplets], dtype=np.float64)
        return cls._canonical((n_rows, n_cols), rows, cols, vals)

    @classmethod
    def from_dense(cls, array: np.ndarray | Sequence[Sequence[float]]) -> "SparseMatrix":
        dense = np.asarray(array, dtype=np.float64)
        if dense.ndim != 2:
            raise DimensionMismatch(f"from_dense needs a 2-D array, not {dense.ndim}-D")
        rows, cols = np.nonzero(dense)
        return cls._canonical(dense.shape, rows, cols, dense[rows, cols])

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._shape[0]

    @property
    def n_cols(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._data.size

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def data(self) -> np.ndarray:
        return self._data

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self._shape)
        rows, cols, values = self.entries()
        dense[rows, cols] = values
        return dense

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the stored entries in canonical order:
        row-major, columns ascending. ``cols`` and ``values`` are read-only."""
        rows = np.repeat(np.arange(self.n_rows), np.diff(self._indptr))
        return rows, self._indices, self._data

    def triplets(self) -> Iterator[tuple[int, int, float]]:
        """(row, col, value) in row-major, column-ascending order."""
        rows, cols, values = self.entries()
        return zip(rows.tolist(), cols.tolist(), values.tolist())

    def row_sums(self) -> np.ndarray:
        """Sum of each row's stored values, in scipy's summation order."""
        return self._csr().sum(axis=1)

    def row_nnz(self) -> np.ndarray:
        return np.diff(self._indptr)

    def col_nnz(self) -> np.ndarray:
        return np.bincount(self._indices, minlength=self.n_cols)

    def row_entries(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._indptr[r], self._indptr[r + 1]
        return self._indices[lo:hi], self._data[lo:hi]

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
        non-finite value raises ``NonFinite``."""
        keep = np.ones(self.nnz, dtype=bool) if keep is None else np.asarray(keep, dtype=bool)
        data = self._data if values is None else np.asarray(values, dtype=np.float64)
        if keep.shape != (self.nnz,) or data.shape != (self.nnz,):
            raise DimensionMismatch(f"entry arrays must have length nnz={self.nnz}")
        return SparseMatrix._of(self.shape, *_keep(self._indptr, keep, self._indices, data))

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._of(*_sorted_by_scipy(self._csr().T.tocsr()))

    def __matmul__(self, other: "SparseMatrix | np.ndarray") -> "SparseMatrix | np.ndarray":
        """A canonical product, or a dense ndarray for a dense ``other``."""
        if self.n_cols != other.shape[0]:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if isinstance(other, SparseMatrix):
            return SparseMatrix._of(*_sorted_by_scipy(self._csr() @ other._csr()))
        return self._csr() @ other

    def scale(self, factor: float) -> "SparseMatrix":
        return self.with_entries(values=self._data * float(factor))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        """The merged entries; a coordinate stored in both sums once, so
        ``a + b`` equals ``b + a`` exactly."""
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return SparseMatrix._canonical(
            self.shape, *(np.concatenate(pair) for pair in zip(self.entries(), other.entries())))

    def row_normalize(self) -> "SparseMatrix":
        """Divide each nonzero row by its L1 norm; zero rows unchanged."""
        rows, _, values = self.entries()
        norms = np.zeros(self.n_rows)
        np.add.at(norms, rows, np.abs(values))
        scale = np.ones(self.n_rows)
        nz = norms > 0.0
        scale[nz] = 1.0 / norms[nz]
        return self.with_entries(values=values * scale[rows])

    def power(self, exponent: float) -> "SparseMatrix":
        """Raise every stored value to ``exponent``; exponent 0 maps them to 1."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        data = self._data
        if self.nnz and exponent != int(exponent) and np.any(data < 0):
            raise NegativeBase(f"non-integer exponent {exponent} on negative value")
        return self.with_entries(values=np.power(data, exponent))

    def top_k_per_row(self, k: int) -> "SparseMatrix":
        """Keep the k largest values per row; ties go to the smaller column."""
        if k < 1:
            raise ValueError("k must be >= 1")
        indptr, indices, data = self._indptr, self._indices, self._data
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
        """The given rows, in the given order, then the given columns, which
        must be strictly ascending and inside the matrix (``ValueError``)."""
        m = self
        if rows is not None:
            # numpy's indexing rules: negative rows count from the end
            rows = np.arange(self.n_rows)[np.asarray(rows, dtype=np.int64)]
            starts = self._indptr[rows].astype(np.int64)
            lengths = self._indptr[rows + 1] - starts
            indptr = np.concatenate(([0], np.cumsum(lengths)))
            take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
            m = SparseMatrix._of((rows.size, self.n_cols), indptr,
                                 self._indices.take(take), self._data.take(take))
        if cols is not None:
            cols = np.asarray(cols, dtype=np.int64)
            if cols.size and (cols[0] < 0 or cols[-1] >= m.n_cols or np.any(cols[1:] <= cols[:-1])):
                raise ValueError(f"columns must ascend strictly inside [0, {m.n_cols})")
            selected = np.zeros(m.n_cols, dtype=bool)
            selected[cols] = True
            indptr, indices, data = _keep(m._indptr, selected.take(m._indices), m._indices, m._data)
            # a selected column's number among the selected ones
            position = np.cumsum(selected) - 1
            m = SparseMatrix._of((m.n_rows, cols.size), indptr, position.take(indices), data)
        return m

    def mask_cols(self, keep: np.ndarray) -> "SparseMatrix":
        """Drop entries outside the kept columns; shape is preserved."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n_cols,):
            raise DimensionMismatch("column mask length mismatch")
        return self.with_entries(keep=keep[self._indices])

    def binarize(self) -> "SparseMatrix":
        """Pattern matrix: 1.0 where value > ``ZERO_EPSILON``, else dropped."""
        return self.with_entries(keep=self._data > ZERO_EPSILON, values=np.ones(self.nnz))

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._data, other._data)
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    # persistence: uncompressed scipy .npz
    # ------------------------------------------------------------------

    def save_coo(self, path) -> None:
        """Write an uncompressed ``.npz`` archive of the COO form with
        ``np.savez``: the arrays, their order and their dtypes are those of
        scipy's ``save_npz(..., compressed=False)`` for a ``coo_array``, so
        the bytes are the same and scipy reads the file. The method and the
        ``.coo`` file names keep their old names because the benchmark reads
        and wraps them by name."""
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int32), np.diff(self._indptr))
        with atomic_open(path, "wb") as fh:
            np.savez(fh, row=rows, col=self._indices, format=b"coo", shape=self._shape,
                     data=self._data, _is_array=True)

    @classmethod
    def load_coo(cls, path) -> "SparseMatrix":
        """Read a COO archive such as ``save_coo`` or scipy's ``save_npz``
        writes, with ``np.load(allow_pickle=False)``; entries out of canonical
        order or repeated are canonicalised as ``from_triplets`` does. A file
        that is not such an archive raises ``ParseError`` naming the path,
        and a matrix beyond 32-bit indices ``TooLarge``."""
        try:
            with open(path, "rb") as fh:
                archive = np.load(fh, allow_pickle=False)
                if not isinstance(archive, np.lib.npyio.NpzFile):
                    raise TypeError("a single array, not an .npz archive")
                with archive:
                    return cls._from_archive(archive)
        except TooLarge:
            raise
        except (ValueError, TypeError, EOFError, KeyError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{path}: not a sparse matrix archive ({exc})") from exc

    @classmethod
    def _from_archive(cls, archive) -> "SparseMatrix":
        fmt = archive["format"].item()
        if isinstance(fmt, bytes):
            fmt = fmt.decode("ascii")
        if fmt != "coo":
            raise ValueError(f"format {fmt!r}, not 'coo'")
        rows, cols, data, shape = (archive[key] for key in ("row", "col", "data", "shape"))
        if shape.shape != (2,) or shape.dtype.kind not in "iu" or shape.min() < 0:
            raise ValueError(f"shape {shape.tolist()} is not two non-negative integers")
        for name, array, kinds in (("row", rows, "iu"), ("col", cols, "iu"), ("data", data, "biuf")):
            if array.ndim != 1 or array.dtype.kind not in kinds:
                raise ValueError(f"{name} is a {array.ndim}-D {array.dtype} array")
        if not rows.size == cols.size == data.size:
            raise ValueError(f"{rows.size} rows, {cols.size} cols and {data.size} values")
        return cls._canonical(shape.tolist(), rows, cols, data)
