import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofs.errors import DimensionMismatch, IndexOutOfRange, NegativeBase, ParseError
from qubofs.sparse import SparseMatrix, ZERO_EPSILON


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

    def test_dimension_mismatch(self):
        a = SparseMatrix.from_triplets(2, 3, [])
        b = SparseMatrix.from_triplets(2, 3, [])
        with pytest.raises(DimensionMismatch):
            a @ b

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
        assert np.allclose(dense(m.row_normalize("l1")), [[0.5, 0.5]])

    def test_zero_row_unchanged(self):
        m = SparseMatrix.from_dense([[0, 0]])
        assert m.row_normalize("l1") == m

    def test_l2(self):
        m = SparseMatrix.from_dense([[3, 4]])
        assert np.allclose(dense(m.row_normalize("l2")), [[0.6, 0.8]], atol=1e-12)

    def test_l1_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        m = random_sparse(rng, 12, 9, density=0.3, lo=0.1, hi=4, integer=False)
        normalized = m.row_normalize("l1")
        sums = dense(normalized).sum(axis=1)
        for r in range(m.n_rows):
            if m.row_nnz()[r] > 0:
                assert abs(sums[r] - 1.0) <= 1e-12

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_dense(np.eye(2)).row_normalize("linf")


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
        for result in (a @ b, a.transpose(), a.row_normalize("l2"), a + b):
            if result.nnz:
                assert np.all(np.abs(result.to_scipy().data) >= ZERO_EPSILON)


class TestHelpers:
    def test_zero_diagonal(self):
        m = SparseMatrix.from_dense([[1, 2], [3, 4]])
        assert np.array_equal(dense(m.zero_diagonal()), [[0, 2], [3, 0]])

    def test_mask_cols(self):
        m = SparseMatrix.from_dense([[1, 2, 3]])
        masked = m.mask_cols(np.array([True, False, True]))
        assert np.array_equal(dense(masked), [[1, 0, 3]])
        assert masked.shape == (1, 3)

    def test_submatrix(self):
        m = SparseMatrix.from_dense([[1, 2], [3, 4]])
        sub = m.submatrix(rows=np.array([1]), cols=np.array([0]))
        assert np.array_equal(dense(sub), [[3]])

    def test_binarize(self):
        m = SparseMatrix.from_dense([[0.5, -0.5, 0.0]])
        assert np.array_equal(dense(m.binarize()), [[1, 0, 0]])


class TestCooPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        m = random_sparse(rng, 9, 4, density=0.4, lo=-1, hi=1, integer=False)
        path = tmp_path / "m.coo"
        m.save_coo(path)
        assert SparseMatrix.load_coo(path) == m

    def test_header_format(self, tmp_path):
        m = SparseMatrix.from_triplets(2, 3, [(1, 2, 0.25)])
        path = tmp_path / "m.coo"
        m.save_coo(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2\t3\t1"
        assert lines[1] == "1\t2\t0.25"

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("2\t2\t1\n0\tx\t1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            SparseMatrix.load_coo(path)
