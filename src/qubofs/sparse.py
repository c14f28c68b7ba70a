"""Deterministic sparse-matrix kernel.

An immutable row-compressed (CSR) matrix that holds its own canonical arrays:
``shape``, 32-bit ``indptr`` and ``indices``, and float64 ``data``. Canonical
means: duplicate coordinates summed, column indices sorted within each row,
and no stored values with magnitude below ``ZERO_EPSILON``. A matrix whose
entry count or a dimension exceeds ``np.iinfo(np.int32).max`` raises
``TooLarge``. Every operation returns a new canonical matrix, so the nonzero
pattern always reflects "really nonzero" values, which downstream code relies
on when testing similarities for positivity.

Everything is numpy except the sparse product, which runs in a compiled row
kernel (``_similarity.c``, built on first use by ``_native``) when this
machine can build it and it passes its self-check, and otherwise in numpy
over dense blocks of rows. Both sum each entry's terms in one fixed order,
that of scipy's ``csr_matmat``, and the row sums, the transpose and the
product with a dense array are summed or ordered as scipy's are: the tests
hold every operation to scipy byte for byte, and the package does not import
it. The kernel also fuses ``models.cosine_knn``'s normalisation, diagonal
drop and per-row top k into the product (``_load_kernel``), and its library
holds ``models.score_and_rank``'s ranking, which sums each user's scores
with the product's own row routine.

Construction copies its input and never modifies it. Other modules read the
canonical arrays through the read-only ``indptr``, ``indices`` and ``data``,
or ``entries`` (row, col, value). Element-wise operations are
``with_entries`` calls, which keep a subset of the entries or give them new
values.
"""

from __future__ import annotations

import functools
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
# dense sums plus terms that one block of the numpy product holds, and terms
# per chunk of a product with a dense array: a term costs about 50 bytes of
# index and value arrays while its block is summed, so 2**17 cost about 7 MB
PRODUCT_BLOCK_ENTRIES = 1 << 17
# entries that the compiled product's output buffer holds beyond the largest
# row's bound: 2**16 entries are 768 KB of 32-bit indices and float64s
PRODUCT_BUFFER_ENTRIES = 1 << 16


def _check_size(shape: tuple[int, int], nnz: int) -> None:
    if max(nnz, *shape) > _INDEX_MAX:
        raise TooLarge(f"{shape} matrix with {nnz} entries needs indices beyond 32 bits")


def _keep(indptr: np.ndarray, keep: np.ndarray, *arrays: np.ndarray) -> tuple:
    """Row pointers and entry arrays of the CSR entries that the boolean mask
    ``keep`` selects."""
    kept = np.flatnonzero(keep)
    return (np.searchsorted(kept, indptr), *(array.take(kept) for array in arrays))


class SparseMatrix:
    """Immutable row-compressed sparse real matrix."""

    __slots__ = ("_shape", "_indptr", "_indices", "_data", "_transpose")

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
        self._transpose = None
        for array in (self._indptr, self._indices, self._data):
            array.flags.writeable = False

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
        """Sum of each row's stored values, as scipy's ``sum(axis=1)`` sums
        them: one ``np.add.reduceat`` over the non-empty rows."""
        sums = np.zeros(self.n_rows)
        nonempty = np.flatnonzero(np.diff(self._indptr))
        if nonempty.size:
            sums[nonempty] = np.add.reduceat(self._data, self._indptr[nonempty])
        return sums

    def row_nnz(self) -> np.ndarray:
        return np.diff(self._indptr)

    def col_nnz(self) -> np.ndarray:
        return np.bincount(self._indices, minlength=self.n_cols)

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
        """A stable sort of the entries by column, as scipy's ``csr_tocsc``
        makes it: each new row holds its entries in ascending old row. The
        result is kept, so a matrix is transposed once; the transpose holds
        no reference back, so no reference cycle forms."""
        if self._transpose is None:
            rows, cols, values = self.entries()
            order = np.argsort(cols, kind="stable")
            counts = np.bincount(cols, minlength=self.n_cols)
            self._transpose = SparseMatrix._of(
                (self.n_cols, self.n_rows), np.concatenate(([0], np.cumsum(counts))),
                rows.take(order), values.take(order))
        return self._transpose

    def __matmul__(self, other: "SparseMatrix | np.ndarray") -> "SparseMatrix | np.ndarray":
        """A canonical product, or a dense ndarray for a dense ``other``.
        Each entry is the sum of its terms in ``csr_matmat``'s order (see
        ``_similarity.c``), in the compiled kernel or in ``_product_numpy``;
        a dense ``other`` is multiplied by ``_dense_product``."""
        if self.n_cols != other.shape[0]:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if not isinstance(other, SparseMatrix):
            return _dense_product(self, np.asarray(other))
        product = _load_kernel()
        return product(self, other) if product else _product_numpy(self, other)

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
        that cannot be read, such as a directory, or is not such an archive
        raises ``ParseError`` naming the path, and a matrix beyond 32-bit
        indices ``TooLarge``."""
        try:
            with open(path, "rb") as fh:
                archive = np.load(fh, allow_pickle=False)
                if not isinstance(archive, np.lib.npyio.NpzFile):
                    raise TypeError("a single array, not an .npz archive")
                with archive:
                    return cls._from_archive(archive)
        except TooLarge:
            raise
        except (OSError, ValueError, TypeError, EOFError, KeyError, zipfile.BadZipFile) as exc:
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


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------


def _row_terms(a: SparseMatrix, b: SparseMatrix) -> np.ndarray:
    """The number of terms (multiply-adds) in each row of ``a @ b``."""
    per_entry = np.diff(b.indptr).astype(np.int64).take(a.indices)
    ends = np.concatenate(([0], np.cumsum(per_entry)))
    return ends[a.indptr[1:]] - ends[a.indptr[:-1]]


def _product_numpy(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """``a @ b`` without the kernel, over blocks of rows that hold at most
    ``PRODUCT_BLOCK_ENTRIES`` dense sums and terms (one row if it alone holds
    more). A block's terms are listed in ``csr_matmat``'s order and added into
    its dense sums by ``np.add.at``, which adds them one at a time in that
    order; the sums that are not exactly zero are the block's entries."""
    n_rows, n_cols = a.n_rows, b.n_cols
    terms = _row_terms(a, b)
    cost = np.cumsum(terms + n_cols)
    pieces = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    lo = 0
    while lo < n_rows:
        spent = cost[lo] - terms[lo] - n_cols
        hi = max(lo + 1, int(np.searchsorted(cost, spent + PRODUCT_BLOCK_ENTRIES, side="right")))
        first, last = a.indptr[lo], a.indptr[hi]
        starts = b.indptr.take(a.indices[first:last]).astype(np.int64)
        lengths = b.indptr.take(a.indices[first:last] + 1) - starts
        # term t of a's entry e reads b's entry starts[e] + t
        within = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        read = np.repeat(starts, lengths) + within
        rows = np.repeat(np.repeat(np.arange(hi - lo), np.diff(a.indptr[lo:hi + 1])), lengths)
        sums = np.zeros((hi - lo) * n_cols)
        # a sum that overflows is not finite, which ``_set`` raises as NonFinite
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.repeat(a.data[first:last], lengths) * b.data.take(read)
            np.add.at(sums, rows * n_cols + b.indices.take(read), values)
        r, c = np.nonzero(sums.reshape(hi - lo, n_cols))
        pieces.append((np.bincount(r, minlength=hi - lo), c, sums[r * n_cols + c]))
        lo = hi
    counts, cols, data = (np.concatenate(arrays) for arrays in zip(*pieces))
    return SparseMatrix._of((n_rows, n_cols), np.concatenate(([0], np.cumsum(counts))), cols, data)


def _dense_product(a: SparseMatrix, dense: np.ndarray) -> np.ndarray:
    """``a @ dense`` as scipy's ``csr_matvecs`` sums it: each row of the
    result adds its entries' terms in CSR order, starting from 0. ``np.add.at``
    adds them one at a time in that order, over chunks of entries that hold at
    most ``PRODUCT_BLOCK_ENTRIES`` terms."""
    out = np.zeros((a.n_rows, *dense.shape[1:]), dtype=np.result_type(np.float64, dense.dtype))
    rows, cols, values = a.entries()
    width = int(np.prod(dense.shape[1:], dtype=np.int64))
    step = max(1, PRODUCT_BLOCK_ENTRIES // max(1, width))
    for lo in range(0, a.nnz, step):
        chunk = slice(lo, lo + step)
        factors = values[chunk].reshape((-1,) + (1,) * (dense.ndim - 1))
        np.add.at(out, rows[chunk], factors * dense[cols[chunk]])
    return out


@functools.cache
def _load_kernel():
    """The compiled product, or None when ``_similarity.c`` cannot be built or
    loaded here, or when it computes ``_check_case()`` otherwise than
    ``_CHECK_PRODUCTS``. The product is called as ``product(a, b)``, or
    ``product(a, b, top_k, norms, shrink)`` for ``_similarity.c``'s cosine
    mode, with ``norms`` None for raw dot products."""
    import ctypes

    from . import _native

    lib = _native.load_library("_similarity")
    if lib is None:
        return None
    kernel = lib.product_rows
    int32s, int64s, doubles = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                               for t in (np.int32, np.int64, np.float64))
    kernel.argtypes = [ctypes.c_int64] * 4 + [ctypes.c_double] * 2 + [ctypes.c_int64] * 2 + [
        int32s, int32s, doubles] * 2 + [
        doubles, doubles, int32s, doubles, doubles, int64s, int32s, doubles]
    kernel.restype = ctypes.c_int64

    def product(a: SparseMatrix, b: SparseMatrix, top_k: int = 0,
                norms: np.ndarray | None = None, shrink: float = 0.0) -> SparseMatrix:
        """The kernel's blocks of rows, each written into one buffer that
        holds the largest row's bound plus ``PRODUCT_BUFFER_ENTRIES`` (or all
        of the bounds, if fewer) and copied out at its exact size."""
        n_rows, n_cols = a.n_rows, b.n_cols
        if top_k and (n_rows != n_cols or (norms is not None and np.shape(norms) != (n_rows,))):
            raise DimensionMismatch("cosine mode needs a square product and one norm per row")
        top_k = min(top_k, max(n_cols, 1))  # keeps as many; a larger int would wrap in int64
        bound = np.minimum(_row_terms(a, b), top_k or n_cols)
        capacity = int(min(bound.sum(), bound.max(initial=0) + PRODUCT_BUFFER_ENTRIES))
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        arrays = (a.indptr, a.indices, a.data, b.indptr, b.indices, b.data,
                  np.zeros(0) if norms is None else np.ascontiguousarray(norms, dtype=np.float64),
                  np.zeros(n_cols), np.empty(n_cols, dtype=np.int32), np.empty(n_cols), np.empty(n_cols),
                  indptr)
        buffer = (np.empty(capacity, dtype=np.int32), np.empty(capacity))
        blocks = []
        row = 0
        while row < n_rows or not blocks:
            stop = kernel(n_rows, n_cols, top_k, norms is not None, shrink, ZERO_EPSILON,
                          row, capacity, *arrays, *buffer)
            if stop < 0:
                raise NonFinite("non-finite value in sparse matrix")
            written = int(indptr[stop] - indptr[row])
            blocks.append(tuple(array[:written].copy() for array in buffer))
            row = stop
        del buffer  # freed before the result is put together and checked
        if len(blocks) > 1:
            blocks = [tuple(np.concatenate(parts) for parts in zip(*blocks))]
        return SparseMatrix._of((n_rows, n_cols), indptr, *blocks[0])

    checks = [product(a, b, *mode) for a, b, *mode in _check_case()]
    if [(m.indptr.tolist(), m.indices.tolist(), m.data.tolist()) for m in checks] != _CHECK_PRODUCTS:
        return None
    return product


def _check_case() -> list[tuple]:
    """Products for the kernel's self-check, as argument lists of the kernel's
    ``product``: a plain product whose row 0 sums 2**14 + 2**-39 + 2**-39,
    which only the left-to-right order rounds to 2**14, and cancels to 2**-42
    (below ``ZERO_EPSILON``), and which has an empty row; the same product
    into 512 columns, where each row's scan finds its few nonzero sums
    among many columns, up to the last; then cosine top 2 of five
    vectors with tied, cancelling and negative dot products, normalised with
    shrink 4 (where 2**-38 falls below ``ZERO_EPSILON``) and raw."""
    a = SparseMatrix.from_dense([[1, 1, 1], [0, 2, 0], [0, 0, 0], [-1, 0, 1]])
    b = np.zeros((3, 512))
    b[:, [0, 1, 2, 511]] = [[2.0**14, 1, -1, 0], [2.0**-39, -(1 - 2.0**-42), 1, 0], [2.0**-39, 0, 3, 5]]
    vectors = SparseMatrix.from_dense([[1, 1, 1, 1], [1, 1, -1, -1], [2, 0, 0, 0],
                                       [0, -1, 0, 2.0**-19], [2.0**10, 0, 0, 2.0**-19]])
    norms = np.sqrt(vectors.power(2.0).row_sums())
    return [(a, SparseMatrix.from_dense(b[:, :3])), (a, SparseMatrix.from_dense(b)),
            (vectors, vectors.transpose(), 2, norms, 4.0), (vectors, vectors.transpose(), 2)]


# the products of ``_check_case()`` as (indptr, indices, data), pinned so that
# the self-check depends on no other code path; a test holds the pin to
# ``_product_numpy`` and ``models.cosine_knn``'s composition
_CHECK_PRODUCTS = [
    ([0, 2, 5, 5, 8], [0, 2, 0, 1, 2, 0, 1, 2],
     [16384.0, 3.0, 3.637978807091713e-12, -1.9999999999995453, 2.0, -16383.999999999998, -1.0, 4.0]),
    ([0, 3, 6, 6, 10], [0, 2, 511, 0, 1, 2, 0, 1, 2, 511],
     [16384.0, 3.0, 5.0, 3.637978807091713e-12, -1.9999999999995453, 2.0, -16383.999999999998, -1.0,
      4.0, 5.0]),
    ([0, 2, 4, 6, 8, 10], [2, 4, 2, 4, 0, 4, 0, 1, 0, 2],
     [0.25, 0.4990253420601114, 0.25, 0.4990253402010972, 0.25, 0.9980506822612085,
      -0.16666634877512682, -0.1666669845580044, 0.4990253420601114, 0.9980506822612085]),
    ([0, 2, 4, 6, 8, 10], [2, 4, 2, 4, 0, 4, 0, 4, 0, 2],
     [2.0, 1024.0000019073486, 2.0, 1023.9999980926514, 2.0, 2048.0, -0.9999980926513672,
      3.637978807091713e-12, 1024.0000019073486, 2048.0]),
]
