import ast
import io
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofs import sparse
from qubofs.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NegativeBase,
    NonFinite,
    ParseError,
    TooLarge,
)
from qubofs.sparse import SparseMatrix, ZERO_EPSILON


def scipy_imports(tree: ast.AST) -> list[bool]:
    """For each import of scipy in ``tree``, whether it runs only inside a
    function (a lazy import) rather than when the module is imported."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(in_function)
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


def test_only_sparse_py_imports_scipy():
    """The sparse storage format is decided in one module: no other module of
    the package imports scipy, at the top or inside a function. No module
    imports it at the top, so importing the package does not load it."""
    importers = set()
    for path in Path(sparse.__file__).parent.glob("*.py"):
        lazy = scipy_imports(ast.parse(path.read_text(), str(path)))
        if lazy:
            importers.add(path.name)
        assert all(lazy), f"{path.name} imports scipy at module level"
    assert importers == {"sparse.py"}


def dense(m: SparseMatrix) -> np.ndarray:
    return m.to_dense()


def random_sparse(rng, n_rows, n_cols, density=0.2, lo=-3, hi=3, integer=True):
    mask = rng.random((n_rows, n_cols)) < density
    if integer:
        vals = rng.integers(lo, hi + 1, size=(n_rows, n_cols)).astype(float)
    else:
        vals = rng.uniform(lo, hi, size=(n_rows, n_cols))
    return SparseMatrix.from_dense(np.where(mask, vals, 0.0))


class TestFromTriplets:
    def test_duplicates_summed(self):
        m = SparseMatrix.from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
        assert list(m.triplets()) == [(0, 0, 3.0)]

    def test_empty(self):
        m = SparseMatrix.from_triplets(2, 2, [])
        assert m.nnz == 0
        assert m.shape == (2, 2)

    def test_below_epsilon_dropped(self):
        m = SparseMatrix.from_triplets(2, 2, [(0, 1, 1e-15)])
        assert m.nnz == 0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            SparseMatrix.from_triplets(2, 2, [(2, 0, 1.0)])
        with pytest.raises(IndexOutOfRange):
            SparseMatrix.from_triplets(2, 2, [(0, -1, 1.0)])

    def test_duplicates_cancelling_to_zero_dropped(self):
        m = SparseMatrix.from_triplets(2, 2, [(1, 1, 5.0), (1, 1, -5.0)])
        assert m.nnz == 0

    def test_repeats_sum_in_the_order_given(self):
        # 17 entries in one row: an unstable sort reorders column 3's values
        # and sums them to 8.799999999999997
        m = SparseMatrix.from_triplets(1, 6, [
            (0, 5, .7), (0, 3, .7), (0, 3, 2.3), (0, 1, .2), (0, 1, 1.1), (0, 0, 1.1),
            (0, 0, .1), (0, 0, .3), (0, 1, 2.3), (0, 4, .7), (0, 3, .1), (0, 5, 1.1),
            (0, 3, 1.1), (0, 3, 2.3), (0, 5, .2), (0, 4, .1), (0, 3, 2.3)])
        assert m.to_dense()[0, 3] == 0.7 + 2.3 + 0.1 + 1.1 + 2.3 + 2.3 == 8.8


class TestTranspose:
    def test_small(self):
        m = SparseMatrix.from_dense([[0, 1], [0, 0]])
        assert np.array_equal(dense(m.transpose()), [[0, 0], [1, 0]])

    def test_identity(self):
        eye = SparseMatrix.from_dense(np.eye(3))
        assert eye.transpose() == eye

    def test_involution_random(self):
        rng = np.random.default_rng(0)
        m = random_sparse(rng, 5, 7, density=0.2)
        assert m.transpose().transpose() == m


class TestMatmul:
    def test_hand_example(self):
        a = SparseMatrix.from_dense([[1, 1], [0, 1]])
        b = SparseMatrix.from_dense([[0, -1], [-1, 0]])
        assert np.array_equal(dense(a @ b), [[-1, -1], [-1, 0]])

    def test_identity_neutral(self):
        rng = np.random.default_rng(1)
        m = random_sparse(rng, 6, 6)
        assert m @ SparseMatrix.from_dense(np.eye(6)) == m

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_sparse(rng, 10, 10)
            b = random_sparse(rng, 10, 10)
            expected = dense(a) @ dense(b)
            assert np.array_equal(dense(a @ b), expected)
            assert np.array_equal(a @ dense(b), expected)

    def test_dimension_mismatch(self):
        a = SparseMatrix.from_triplets(2, 3, [])
        b = SparseMatrix.from_triplets(2, 3, [])
        with pytest.raises(DimensionMismatch):
            a @ b
        with pytest.raises(DimensionMismatch):
            a @ np.ones((2, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(2, 30), st.integers(2, 30))
    def test_dense_oracle_property(self, seed, n, m, p):
        rng = np.random.default_rng(seed)
        a = random_sparse(rng, n, m)
        b = random_sparse(rng, m, p)
        assert np.array_equal(dense(a @ b), dense(a) @ dense(b))


class TestRowNormalize:
    def test_l1(self):
        m = SparseMatrix.from_dense([[2, 2]])
        assert np.allclose(dense(m.row_normalize()), [[0.5, 0.5]])

    def test_zero_row_unchanged(self):
        m = SparseMatrix.from_dense([[0, 0]])
        assert m.row_normalize() == m

    def test_l1_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        m = random_sparse(rng, 12, 9, density=0.3, lo=0.1, hi=4, integer=False)
        normalized = m.row_normalize()
        sums = dense(normalized).sum(axis=1)
        for r in range(m.n_rows):
            if m.row_nnz()[r] > 0:
                assert abs(sums[r] - 1.0) <= 1e-12


class TestPower:
    def test_sqrt(self):
        m = SparseMatrix.from_dense([[4, 9]])
        assert np.allclose(dense(m.power(0.5)), [[2, 3]], atol=1e-12)

    def test_identity_exponent(self):
        rng = np.random.default_rng(4)
        m = random_sparse(rng, 5, 5)
        assert m.power(1.0) == m

    def test_zero_exponent_maps_to_one(self):
        m = SparseMatrix.from_dense([[2]])
        assert np.array_equal(dense(m.power(0.0)), [[1]])

    def test_negative_base(self):
        m = SparseMatrix.from_dense([[-2.0]])
        with pytest.raises(NegativeBase):
            m.power(0.5)
        # integer exponents on negative values are fine
        assert np.array_equal(dense(m.power(2)), [[4]])


class TestTopK:
    def test_ordering_forced(self):
        m = SparseMatrix.from_dense([[3, 1, 2]])
        assert np.array_equal(dense(m.top_k_per_row(2)), [[3, 0, 2]])

    def test_tie_smallest_column(self):
        m = SparseMatrix.from_dense([[1, 1, 1]])
        assert np.array_equal(dense(m.top_k_per_row(1)), [[1, 0, 0]])

    def test_sort_oracle(self):
        rng = np.random.default_rng(5)
        m = random_sparse(rng, 20, 20, density=0.5, lo=-5, hi=5, integer=False)
        pruned = m.top_k_per_row(5)
        assert np.all(pruned.row_nnz() <= 5)
        d0, d1 = dense(m), dense(pruned)
        for r in range(20):
            kept = d1[r][d1[r] != 0]
            dropped = d0[r][(d0[r] != 0) & (d1[r] == 0)]
            if kept.size and dropped.size:
                assert kept.min() >= dropped.max()

    def test_idempotent_and_never_grows(self):
        rng = np.random.default_rng(6)
        m = random_sparse(rng, 15, 15, density=0.6)
        once = m.top_k_per_row(4)
        assert np.all(once.row_nnz() <= m.row_nnz())
        assert once.top_k_per_row(4) == once


class TestNoStoredZeros:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_ops_leave_no_zeros(self, seed):
        rng = np.random.default_rng(seed)
        a = random_sparse(rng, 8, 8)
        b = random_sparse(rng, 8, 8)
        for result in (a @ b, a.transpose(), a.row_normalize(), a + b):
            if result.nnz:
                assert np.all(np.abs(result.data) >= ZERO_EPSILON)


class TestImmutability:
    def test_input_mutation_does_not_reach_the_matrix(self):
        x = np.array([[1.0, 0.0], [2.0, 3.0]])
        triplets = np.array([[0, 0, 1.0], [1, 0, 2.0], [1, 1, 3.0]])
        built = [SparseMatrix.from_dense(x), SparseMatrix.from_triplets(2, 2, triplets)]
        x[:] = 9.0
        triplets[:, 2] = 9.0
        for m in built:
            assert np.array_equal(m.to_dense(), [[1, 0], [2, 3]])

    def test_sub_epsilon_input_left_untouched(self):
        x = np.array([[1.0, 1e-15], [0.0, 2.0]])
        triplets = np.array([[0, 0, 1.0], [0, 1, 1e-15], [1, 1, 2.0]])
        before = x.copy(), triplets.copy()
        assert SparseMatrix.from_dense(x).nnz == SparseMatrix.from_triplets(2, 2, triplets).nnz == 2
        assert np.array_equal(x, before[0]) and np.array_equal(triplets, before[1])

    def test_shared_arrays_are_read_only(self):
        m = SparseMatrix.from_dense([[1.0, 2.0]])
        for array in (m.data, m.indices, m.indptr, m.entries()[2]):
            with pytest.raises(ValueError):
                array[0] = 5

    def test_unhashable(self):
        # __eq__ compares values, so identity hashing would break set semantics
        with pytest.raises(TypeError):
            hash(SparseMatrix.from_dense([[1.0]]))


def _saved_with_wide_indices(tmp_path) -> SparseMatrix:
    """``load_coo`` of an archive whose index arrays are int64, as earlier
    versions wrote them."""
    coo = sp.coo_array(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    coo.coords = tuple(c.astype(np.int64) for c in coo.coords)
    with open(tmp_path / "wide.coo", "wb") as fh:
        sp.save_npz(fh, coo, compressed=False)
    with np.load(tmp_path / "wide.coo") as z:
        assert z["row"].dtype == z["col"].dtype == np.int64
    return SparseMatrix.load_coo(tmp_path / "wide.coo")


_M = SparseMatrix.from_triplets(2, 3, [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (1, 2, -1.0)])

BUILDS = {
    "from_triplets": lambda tmp_path: _M,
    "from_dense": lambda tmp_path: SparseMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]]),
    "load_coo of int64 archive": _saved_with_wide_indices,
    "matmul": lambda tmp_path: _M @ _M.transpose(),
    "add": lambda tmp_path: _M + _M,
    "transpose": lambda tmp_path: _M.transpose(),
    "submatrix": lambda tmp_path: _M.submatrix(rows=np.array([1, 0]), cols=[0, 2]),
    "with_entries": lambda tmp_path: _M.with_entries(keep=np.array([True, False, True, True])),
    "mask_cols": lambda tmp_path: _M.mask_cols(np.array([True, False, True])),
    "top_k_per_row": lambda tmp_path: _M.top_k_per_row(1),
}


class TestIndexWidth:
    @pytest.mark.parametrize("build", BUILDS.values(), ids=list(BUILDS))
    def test_indices_are_32_bit(self, tmp_path, build):
        m = build(tmp_path)
        assert m.nnz
        assert m.indptr.dtype == m.indices.dtype == np.int32

    def test_saves_32_bit_archives(self, tmp_path):
        _saved_with_wide_indices(tmp_path).save_coo(tmp_path / "narrow.coo")
        with np.load(tmp_path / "narrow.coo") as z:
            assert z["row"].dtype == z["col"].dtype == np.int32

    def test_beyond_32_bits_is_too_large(self, tmp_path):
        # indptr has two entries: nothing large is allocated
        with pytest.raises(TooLarge):
            SparseMatrix.from_triplets(1, 2**31, [])
        (tmp_path / "wide.coo").write_bytes(_archive(
            row=np.empty(0, np.int64), col=np.empty(0, np.int64), data=np.empty(0),
            shape=np.array([1, 2**31])))
        with pytest.raises(TooLarge):
            SparseMatrix.load_coo(tmp_path / "wide.coo")


class TestEntries:
    def test_canonical_order(self):
        m = SparseMatrix.from_triplets(3, 3, [(2, 0, 4.0), (0, 2, 2.0), (0, 1, 1.0)])
        rows, cols, values = m.entries()
        assert rows.tolist() == [0, 0, 2] and cols.tolist() == [1, 2, 0]
        assert values.tolist() == [1.0, 2.0, 4.0]
        assert list(m.triplets()) == [(0, 1, 1.0), (0, 2, 2.0), (2, 0, 4.0)]

    def test_with_entries_keeps_and_revalues(self):
        m = SparseMatrix.from_dense([[1, 2, 0], [0, 3, 4]])
        kept = m.with_entries(keep=np.array([True, False, False, True]))
        assert np.array_equal(dense(kept), [[1, 0, 0], [0, 0, 4]])
        values = np.array([5.0, 6.0, 7.0, 8.0])
        revalued = m.with_entries(values=values)
        values[:] = 0.0
        assert np.array_equal(dense(revalued), [[5, 6, 0], [0, 7, 8]])
        both = m.with_entries(keep=np.array([False, True, True, False]), values=-np.arange(4.0))
        assert np.array_equal(dense(both), [[0, -1, 0], [0, -2, 0]])
        assert m.with_entries() == m

    def test_with_entries_is_canonical_again(self):
        m = SparseMatrix.from_dense([[1, 2], [3, 0]])
        assert m.with_entries(values=np.array([1e-15, 2.0, -1e-13])).entries()[2].tolist() == [2.0]
        with pytest.raises(NonFinite, match="non-finite"):
            m.with_entries(values=np.array([np.inf, 1.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            m.with_entries(keep=np.array([True, False]))
        with pytest.raises(DimensionMismatch):
            m.with_entries(values=np.ones(4))


class TestHelpers:
    def test_zero_diagonal(self):
        m = SparseMatrix.from_dense([[1, 2], [3, 4]])
        assert np.array_equal(dense(m.zero_diagonal()), [[0, 2], [3, 0]])

    def test_mask_cols(self):
        m = SparseMatrix.from_dense([[1, 2, 3]])
        masked = m.mask_cols(np.array([True, False, True]))
        assert np.array_equal(dense(masked), [[1, 0, 3]])
        assert masked.shape == (1, 3)

    def test_row_sums(self):
        m = SparseMatrix.from_dense([[1, 2], [0, 0], [-3, 0]])
        assert m.row_sums().tolist() == [3, 0, -3]

    def test_submatrix(self):
        m = SparseMatrix.from_dense([[1, 2], [3, 4]])
        sub = m.submatrix(rows=np.array([1]), cols=np.array([0]))
        assert np.array_equal(dense(sub), [[3]])

    @pytest.mark.parametrize("cols", [[1, 0], [0, 0], [-1, 1], [0, 2]],
                             ids=["descending", "repeated", "negative", "outside"])
    def test_submatrix_columns_ascend_inside_the_matrix(self, cols):
        with pytest.raises(ValueError, match="ascend"):
            SparseMatrix.from_dense([[1, 2], [3, 4]]).submatrix(cols=cols)

    def test_binarize(self):
        m = SparseMatrix.from_dense([[0.5, -0.5, 0.0]])
        assert np.array_equal(dense(m.binarize()), [[1, 0, 0]])


def _archive(**changes) -> bytes:
    """An uncompressed .npz of a saved 3x2 matrix, with the given arrays
    replaced."""
    buf = io.BytesIO()
    sp.save_npz(buf, sp.coo_array(np.array([[1.0, 0], [0, 2.0], [3.0, 0]])), compressed=False)
    with np.load(io.BytesIO(buf.getvalue())) as z:
        arrays = {k: z[k] for k in z.files}
    buf = io.BytesIO()
    np.savez(buf, **{**arrays, **changes})
    return buf.getvalue()


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


MALFORMED_FILES = {
    "old text coo": lambda: b"2\t3\t1\n1\t2\t0.25\n",
    "truncated archive": lambda: _archive()[:300],
    "empty file": lambda: b"",
    "pickled object array": lambda: _archive(data=np.array([1.0, {}, 3.0], dtype=object)),
    "index out of range": lambda: _archive(shape=np.array([2, 2])),
    "nan value": lambda: _archive(data=np.array([1.0, np.nan, 3.0])),
    "bare npy": lambda: _npy(np.zeros(3)),
    "col out of range": lambda: _archive(col=np.array([0, 1, 2], np.int32)),
    "negative row": lambda: _archive(row=np.array([0, -1, 2], np.int32)),
    "negative shape": lambda: _archive(shape=np.array([3, -2])),
    "3-element shape": lambda: _archive(shape=np.array([3, 2, 1])),
    "lengths disagree": lambda: _archive(data=np.array([1.0, 2.0])),
    "2-D data": lambda: _archive(data=np.array([[1.0], [2.0], [3.0]])),
    # scipy truncated these to integers
    "float indices": lambda: _archive(row=np.array([0.0, 1.0, 2.0])),
}

_SAVED = [[1.0, 0], [0, 2.0], [3.0, 0]]

# archives that load: (content, the matrix they hold)
LOADABLE_FILES = {
    "int16 indices": (lambda: _archive(row=np.array([0, 1, 2], np.int16),
                                       col=np.array([0, 1, 0], np.int16)), _SAVED),
    "uint64 indices": (lambda: _archive(row=np.array([0, 1, 2], np.uint64),
                                        col=np.array([0, 1, 0], np.uint64)), _SAVED),
    "int data": (lambda: _archive(data=np.array([1, 2, 3])), _SAVED),
    "float32 data": (lambda: _archive(data=np.array([1.0, 2.0, 3.0], np.float32)), _SAVED),
    "bool data": (lambda: _archive(data=np.array([True, False, True])), [[1.0, 0], [0, 0], [1.0, 0]]),
    "unsorted with repeats": (lambda: _archive(row=np.array([2, 0, 1, 0], np.int32),
                                               col=np.array([0, 0, 1, 0], np.int32),
                                               data=np.array([3.0, 0.25, 2.0, 0.75])), _SAVED),
}


class TestCooPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        for m in (random_sparse(rng, 9, 4, density=0.4, lo=-1, hi=1, integer=False),
                  SparseMatrix.from_triplets(5, 5, []),
                  SparseMatrix.from_triplets(3, 0, [])):
            m.save_coo(tmp_path / "a.coo")
            m.save_coo(tmp_path / "b.coo")
            loaded = SparseMatrix.load_coo(tmp_path / "a.coo")
            assert loaded == m and loaded.shape == m.shape
            # resumes compare run trees byte for byte
            assert (tmp_path / "a.coo").read_bytes() == (tmp_path / "b.coo").read_bytes()

    @pytest.mark.parametrize("content, matrix", LOADABLE_FILES.values(), ids=list(LOADABLE_FILES))
    def test_archive_dtypes_and_order(self, tmp_path, content, matrix):
        path = tmp_path / "m.coo"
        path.write_bytes(content())
        assert SparseMatrix.load_coo(path) == SparseMatrix.from_dense(matrix)

    @pytest.mark.parametrize("content", MALFORMED_FILES.values(), ids=list(MALFORMED_FILES))
    def test_malformed_file_raises_parse_error(self, tmp_path, content):
        path = tmp_path / "bad.coo"
        path.write_bytes(content())
        with pytest.raises(ParseError, match=re.escape(str(path))):
            SparseMatrix.load_coo(path)


# ----------------------------------------------------------------------
# equivalence with scipy: the numpy operations give scipy's arrays
# ----------------------------------------------------------------------


def scipy_canonical(mat) -> sp.csr_array:
    """The canonical form of ``mat`` as scipy alone makes it: 32-bit indices,
    duplicates summed, columns sorted, values below ``ZERO_EPSILON`` dropped."""
    m = sp.csr_array(mat, dtype=np.float64, copy=True)
    m.indptr, m.indices = m.indptr.astype(np.int32), m.indices.astype(np.int32)
    m.sum_duplicates()
    m.sort_indices()
    m.data[np.abs(m.data) < ZERO_EPSILON] = 0.0
    m.eliminate_zeros()
    return m


def as_csr(m: SparseMatrix) -> sp.csr_array:
    return sp.csr_array((m.data, m.indices, m.indptr), shape=m.shape)


def assert_same_arrays(m: SparseMatrix, want: sp.csr_array) -> None:
    assert m.shape == want.shape
    for got, expected in ((m.indptr, want.indptr), (m.indices, want.indices), (m.data, want.data)):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, ZERO_EPSILON, -(2.0**-42)]),
)


@st.composite
def triplet_lists(draw, duplicates=False, shape=None, sizes=(0, 30)):
    """(n_rows, n_cols, triplets) in any order; repeated coordinates only if
    ``duplicates``."""
    n_rows, n_cols = shape or (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    coords = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    cells = draw(st.lists(coords, min_size=sizes[0], max_size=sizes[1], unique=not duplicates))
    values = draw(st.lists(VALUES, min_size=len(cells), max_size=len(cells)))
    return n_rows, n_cols, [(r, c, v) for (r, c), v in zip(cells, values)]


def summed_in_order(n_rows, n_cols, triplets) -> tuple:
    """The triplets with each repeated coordinate's values summed left to
    right in the order given, one triplet per coordinate."""
    sums = {}
    for r, c, v in triplets:
        sums[r, c] = sums[r, c] + v if (r, c) in sums else v
    return n_rows, n_cols, [(r, c, v) for (r, c), v in sums.items()]


def coo_of(n_rows, n_cols, triplets) -> sp.coo_array:
    rows, cols, values = (np.array([t[i] for t in triplets], dtype=dtype)
                          for i, dtype in enumerate((np.int64, np.int64, np.float64)))
    return sp.coo_array((values, (rows, cols)), shape=(n_rows, n_cols))


class TestScipyEquivalence:
    """Every operation that runs without scipy gives, byte for byte, the
    arrays that scipy's own operation and canonicalisation give."""

    @settings(max_examples=100, deadline=None)
    @given(st.booleans().flatmap(lambda dups: triplet_lists(duplicates=dups)))
    def test_from_triplets(self, case):
        """scipy's arrays for triplets without repeats; repeats are summed
        in the order given first."""
        want = scipy_canonical(coo_of(*summed_in_order(*case)))
        assert_same_arrays(SparseMatrix.from_triplets(*case), want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n_cols: triplet_lists(duplicates=True, shape=(2, n_cols), sizes=(17, 80))))
    def test_repeats_sum_left_to_right(self, case):
        """Rows of up to about 40 entries, more than scipy's sort keeps in
        the order given."""
        want = scipy_canonical(coo_of(*summed_in_order(*case)))
        assert_same_arrays(SparseMatrix.from_triplets(*case), want)

    @settings(max_examples=100, deadline=None)
    @given(triplet_lists(), st.data())
    def test_add(self, case, data):
        n_rows, n_cols, _ = case
        # the negation cancels every entry
        other = data.draw(triplet_lists(shape=(n_rows, n_cols)) | st.just(
            (n_rows, n_cols, [(r, c, -v) for r, c, v in case[2]])))
        a, b = SparseMatrix.from_triplets(*case), SparseMatrix.from_triplets(*other)
        assert_same_arrays(a + b, scipy_canonical(as_csr(a) + as_csr(b)))
        assert a + b == b + a

    @settings(max_examples=100, deadline=None)
    @given(triplet_lists(), st.data())
    def test_submatrix(self, case, data):
        n_rows, n_cols, _ = case
        m = SparseMatrix.from_triplets(*case)
        rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), max_size=10)), dtype=np.int64)
        cols = np.array(sorted(data.draw(st.sets(st.integers(0, n_cols - 1)))), dtype=np.int64)
        assert_same_arrays(m.submatrix(rows=rows), scipy_canonical(as_csr(m)[rows, :]))
        assert_same_arrays(m.submatrix(cols=cols), scipy_canonical(as_csr(m)[:, cols]))
        assert_same_arrays(m.submatrix(rows=rows, cols=cols), scipy_canonical(as_csr(m)[rows, :][:, cols]))

    @settings(max_examples=100, deadline=None)
    @given(triplet_lists())
    def test_dense_round_trip(self, case):
        dense = coo_of(*case).toarray()
        m = SparseMatrix.from_dense(dense)
        assert_same_arrays(m, scipy_canonical(sp.csr_array(dense)))
        assert m.to_dense().tobytes() == as_csr(m).toarray().tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(lambda dups: triplet_lists(duplicates=dups)),
           st.sampled_from([np.int32, np.int64]), st.booleans())
    def test_load_coo_of_scipy_archives(self, tmp_path_factory, case, index_dtype, canonical_order):
        """Archives that scipy wrote with 32- or 64-bit indices, in canonical
        order or as drawn (unsorted, repeated coordinates). Repeats are summed
        in file order, and the rest is scipy's canonical form."""
        coo = coo_of(*case)
        if canonical_order:
            coo = scipy_canonical(coo).tocoo()
        coo.coords = tuple(c.astype(index_dtype) for c in coo.coords)
        path = tmp_path_factory.mktemp("archives") / "m.coo"
        with open(path, "wb") as fh:
            sp.save_npz(fh, coo, compressed=False)
        in_file = list(zip(*(c.tolist() for c in coo.coords), coo.data.tolist()))
        want = scipy_canonical(coo_of(*summed_in_order(*coo.shape, in_file)))
        assert_same_arrays(SparseMatrix.load_coo(path), want)

    @settings(max_examples=60, deadline=None)
    @given(triplet_lists())
    def test_save_coo_writes_scipy_bytes(self, tmp_path_factory, case):
        m = SparseMatrix.from_triplets(*case)
        path = tmp_path_factory.mktemp("archives") / "m.coo"
        m.save_coo(path)
        want = io.BytesIO()
        sp.save_npz(want, as_csr(m).tocoo(), compressed=False)
        assert path.read_bytes() == want.getvalue()

    def test_archive_of_another_format_is_a_parse_error(self, tmp_path):
        path = tmp_path / "m.coo"
        with open(path, "wb") as fh:
            sp.save_npz(fh, sp.csr_array(np.eye(2)), compressed=False)
        with pytest.raises(ParseError, match="'csr'"):
            SparseMatrix.load_coo(path)
