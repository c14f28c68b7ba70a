import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofs import models, sparse
from qubofs.errors import DimensionMismatch, NonFinite, RankTooLarge
from qubofs.models import (
    SimilarityModel,
    apply_feature_weighting,
    bipartite_walk_similarity,
    cosine_knn,
    pure_svd,
    randomized_svd,
    rp3beta,
    score_and_rank,
    tfidf_feature_scores,
)
from qubofs.sparse import ZERO_EPSILON, SparseMatrix


def reference_score_and_rank(model, user_profiles, cutoff, candidate_items=None):
    """The per-user ranking loop that the compiled kernel and the chunked
    numpy path replaced: the oracle for both paths' lists, ties and zero
    rule. It scores through the canonical sparse product, densifies all users
    at once and lexsorts each user's candidates."""
    if user_profiles.n_cols != model.s.n_rows:
        raise DimensionMismatch("profiles and similarity differ in items")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    scores = (user_profiles @ model.s).to_dense()
    seen = user_profiles.to_dense() > 0
    if candidate_items is None:
        candidates = np.arange(model.s.n_cols)
    else:
        candidates = np.asarray(sorted(int(i) for i in candidate_items), dtype=np.int64)
    ranked = []
    for u in range(user_profiles.n_rows):
        cand = candidates[~seen[u, candidates]]
        s_u = scores[u, cand]
        order = np.lexsort((cand, -s_u))
        ranked.append(cand[order[:cutoff]])
    return ranked


def tie_heavy_case(seed: int, kind: str):
    """A small model and profiles whose scores tie often: integer similarities
    (negative ones too) and profiles with empty rows; the same scaled so that
    some scores fall below ``ZERO_EPSILON`` and count as zero; or a PureSVD
    model, whose dense similarity has negative and near-zero entries."""
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(0, 13)), int(rng.integers(2, 16))
    profiles = rng.integers(0, 3, size=(n_users, n_items)) * (rng.random((n_users, n_items)) < 0.3)
    profiles[rng.random(n_users) < 0.2] = 0
    if kind == "tiny":
        profiles = profiles * 0.25
    if kind == "pure_svd":
        urm = SparseMatrix.from_dense(rng.integers(0, 2, size=(max(n_users, 2), n_items)))
        if urm.nnz == 0:
            urm = SparseMatrix.from_dense(np.eye(max(n_users, 2), n_items))
        factors = int(rng.integers(1, min(urm.shape) + 1))
        model = pure_svd(urm, factors, seed=seed)
    else:
        s = rng.integers(-1, 3, size=(n_items, n_items)) * (rng.random((n_items, n_items)) < 0.5)
        np.fill_diagonal(s, 0)
        if kind == "tiny":
            s = s * 1e-12
        model = SimilarityModel(SparseMatrix.from_dense(s), {})
    return model, SparseMatrix.from_dense(profiles.astype(float)), rng


def dense_cosine(vectors: np.ndarray, shrink: float, normalize: bool) -> np.ndarray:
    """From-scratch oracle for the similarity of matrix rows."""
    n = vectors.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dot = float(vectors[i] @ vectors[j])
            if normalize:
                denom = np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[j]) + shrink
                out[i, j] = dot / denom if denom > 0 else 0.0
            else:
                out[i, j] = dot
    return out


class TestCosineKnn:
    def test_hand_value(self):
        vectors = SparseMatrix.from_dense([[1, 0, 1], [1, 1, 0]])
        model = cosine_knn(vectors, top_k=5, shrink=0.0, normalize=True)
        assert math.isclose(model.s.to_dense()[0, 1], 0.5, abs_tol=1e-12)

    def test_shrink(self):
        vectors = SparseMatrix.from_dense([[1, 0, 1], [1, 1, 0]])
        model = cosine_knn(vectors, top_k=5, shrink=1.0, normalize=True)
        assert math.isclose(model.s.to_dense()[0, 1], 1.0 / 3.0, abs_tol=1e-12)

    def test_identical_vectors(self):
        vectors = SparseMatrix.from_dense([[2, 1], [2, 1]])
        model = cosine_knn(vectors, top_k=5, shrink=0.0, normalize=True)
        d = model.s.to_dense()
        assert math.isclose(d[0, 1], 1.0, abs_tol=1e-12)
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0

    def test_normalize_false_ignores_shrink(self):
        vectors = SparseMatrix.from_dense([[1, 0, 1], [1, 1, 0]])
        a = cosine_knn(vectors, top_k=5, shrink=0.0, normalize=False)
        b = cosine_knn(vectors, top_k=5, shrink=99.0, normalize=False)
        assert a.s == b.s
        assert a.s.to_dense()[0, 1] == 1.0

    @pytest.mark.parametrize("top_k", [3, 2**63, 10**19, 2**64 + 3, 10**30])
    def test_top_k_beyond_int64(self, top_k):
        """A topK beyond the kernel's 64-bit argument keeps every neighbour,
        as a topK of the number of vectors does, with the kernel and without
        it; the hyperparameters keep the value given."""
        vectors = SparseMatrix.from_dense([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
        for product in (sparse._load_kernel(), None):
            with mock.patch.object(sparse, "_load_kernel", lambda: product):
                model = cosine_knn(vectors, top_k=top_k)
                assert model.s == cosine_knn(vectors, top_k=3).s and model.s.nnz == 6
                assert model.hyperparams["topK"] == top_k

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((12, 8)) < 0.4) * rng.random((12, 8))
        vectors = SparseMatrix.from_dense(dense)
        model = cosine_knn(vectors, top_k=12, shrink=0.5, normalize=True)
        oracle = dense_cosine(dense, 0.5, True)
        assert np.allclose(model.s.to_dense(), oracle, atol=1e-9)

    def test_values_in_unit_interval_and_shrink_decreases(self):
        rng = np.random.default_rng(1)
        dense = (rng.random((10, 7)) < 0.5) * rng.random((10, 7))
        vectors = SparseMatrix.from_dense(dense)
        plain = cosine_knn(vectors, top_k=10, shrink=0.0, normalize=True)
        shrunk = cosine_knn(vectors, top_k=10, shrink=2.0, normalize=True)
        d0, d1 = plain.s.to_dense(), shrunk.s.to_dense()
        assert d0.min() >= 0.0 and d0.max() <= 1.0
        nz = d0 > 0
        assert np.all(d1[nz] < d0[nz])

    def test_bm25_norms_sum_in_scipy_order(self):
        """BM25 weights are not integers, so the order in which a row's squares
        are summed shows in the last bit of its norm: the similarity equals,
        byte for byte, the one whose norms come from scipy's ``sum(axis=1)``,
        which a sequential sum would not."""
        rng = np.random.default_rng(0)
        icm = apply_feature_weighting(SparseMatrix.from_dense(rng.random((60, 40)) < 0.3), "bm25")
        sq = icm.power(2.0)
        norms = np.sqrt(sp.csr_array((sq.data, sq.indices, sq.indptr), shape=sq.shape).sum(axis=1))
        rows, _, values = sq.entries()
        assert not np.array_equal(norms, np.sqrt(np.bincount(rows, weights=values)))
        gram = icm @ icm.transpose()
        rows, cols, values = gram.entries()
        want = gram.with_entries(values=values / (norms[rows] * norms[cols] + 2.0))
        assert cosine_knn(icm, 7, shrink=2.0).s == want.zero_diagonal().top_k_per_row(7)

    def test_topk_bound(self):
        rng = np.random.default_rng(2)
        vectors = SparseMatrix.from_dense(rng.random((9, 5)))
        model = cosine_knn(vectors, top_k=3)
        assert np.all(model.s.row_nnz() <= 3)

    def test_the_dot_products_never_exist_at_once(self):
        """The compiled product keeps each row's top k as it goes: 2000 items
        that nearly all share a feature peak at about 1 MB of allocations,
        where the matrix of their dot products (about 3.7M entries, 44 MB in
        CSR) would not fit the bound."""
        import tracemalloc

        from qubofs import sparse

        if sparse._load_kernel() is None:
            pytest.skip("no product kernel on this machine")
        rng = np.random.default_rng(0)
        vectors = SparseMatrix.from_dense((rng.random((2000, 40)) < 0.25).astype(float))
        tracemalloc.start()
        try:
            model = cosine_knn(vectors, top_k=10, shrink=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.s.nnz == 2000 * 10
        assert peak < 4 * 2**20

    def test_output_buffer_follows_what_is_written(self):
        """With top k above the item count each row may keep min(terms,
        items) entries, 800 here, but groups of 40 items that share 20
        features keep 39: the product's buffer and blocks peak at a small
        multiple of the 78000 entries written (12 bytes each), not of the
        1.6M that the rows' bounds add up to."""
        import tracemalloc

        from qubofs import sparse

        if sparse._load_kernel() is None:
            pytest.skip("no product kernel on this machine")
        n_items, group, per_item = 2000, 40, 20
        features = (np.arange(n_items) // group * per_item)[:, None] + np.arange(per_item)
        vectors = SparseMatrix._canonical((n_items, n_items // group * per_item),
                                          np.repeat(np.arange(n_items), per_item),
                                          features.ravel(), np.ones(n_items * per_item))
        tracemalloc.start()
        try:
            model = cosine_knn(vectors, top_k=n_items, shrink=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.s.nnz == n_items * (group - 1)
        assert peak < 4 * 12 * model.s.nnz


class TestFeatureWeighting:
    def test_ubiquitous_feature_drops_out(self):
        icm = SparseMatrix.from_dense(np.ones((4, 1)))
        weighted = apply_feature_weighting(icm, "tfidf")
        assert weighted.nnz == 0  # ln(1) = 0 everywhere

    def test_rare_feature_weight(self):
        icm = SparseMatrix.from_dense([[1], [0], [0], [0]])
        weighted = apply_feature_weighting(icm, "tfidf")
        assert math.isclose(weighted.to_dense()[0, 0], math.log(4), abs_tol=1e-12)

    def test_none_unchanged(self):
        icm = SparseMatrix.from_dense([[1, 0], [0, 1]])
        assert apply_feature_weighting(icm, "none") is icm

    def test_bm25_formula(self):
        icm = SparseMatrix.from_dense([[1, 1], [1, 0]])
        weighted = apply_feature_weighting(icm, "bm25")
        n_items, k1, b = 2, 1.2, 0.75
        df0 = 2
        idf0 = math.log((n_items - df0 + 0.5) / (df0 + 0.5) + 1)
        avg_len = 3 / 2
        len0 = 2
        expected = idf0 * (k1 + 1) / (1 + k1 * (1 - b + b * len0 / avg_len))
        assert math.isclose(weighted.to_dense()[0, 0], expected, abs_tol=1e-12)


class TestTfidfScores:
    def test_everywhere_scores_zero(self):
        icm = SparseMatrix.from_dense(np.ones((5, 1)))
        assert tfidf_feature_scores(icm)[0] == 0.0

    def test_rare_beats_ubiquitous(self):
        icm = SparseMatrix.from_dense([[1, 1], [0, 1], [0, 1], [0, 1]])
        scores = tfidf_feature_scores(icm)
        assert scores[0] > scores[1]

    def test_monotone_in_df(self):
        rng = np.random.default_rng(3)
        icm = SparseMatrix.from_dense((rng.random((20, 10)) < 0.4).astype(float))
        scores = tfidf_feature_scores(icm)
        df = icm.col_nnz()
        order = np.argsort(df)
        assert np.all(np.diff(scores[order]) <= 1e-12)


class TestPureSvd:
    def test_rank_one_analytic(self):
        u = np.array([1.0, 2.0, 0.5])
        v = np.array([3.0, 0.0, 1.0, 2.0])
        urm = SparseMatrix.from_dense(np.outer(u, v))
        model = pure_svd(urm, num_factors=1, seed=0)
        v_hat = v / np.linalg.norm(v)
        expected = np.outer(v_hat, v_hat)
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(model.s.to_dense(), expected, atol=1e-9)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(4)
        dense = rng.random((8, 6))
        m = SparseMatrix.from_dense(dense)
        u, s, vt = randomized_svd(m, rank=6, seed=1)
        assert np.linalg.norm(dense - (u * s) @ vt) <= 1e-8
        # oracle check against the dense SVD's singular values
        ref = np.linalg.svd(dense, compute_uv=False)
        assert np.allclose(s, ref[:6], atol=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        urm = SparseMatrix.from_dense((rng.random((15, 10)) < 0.4).astype(float))
        model = pure_svd(urm, num_factors=4, seed=2)
        d = model.s.to_dense()
        assert np.allclose(d, d.T, atol=1e-10)

    def test_psd_on_support(self):
        rng = np.random.default_rng(6)
        urm = SparseMatrix.from_dense((rng.random((12, 9)) < 0.5).astype(float))
        num_factors = 3
        _, _, vt = randomized_svd(urm, num_factors, seed=3)
        model = pure_svd(urm, num_factors, seed=3)
        full = model.s.to_dense() + np.diag((vt.T @ vt).diagonal())
        for _ in range(20):
            x = rng.standard_normal(9)
            assert x @ full @ x >= -1e-9

    def test_rank_too_large(self):
        urm = SparseMatrix.from_dense(np.ones((3, 5)))
        with pytest.raises(RankTooLarge):
            pure_svd(urm, num_factors=4, seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        urm = SparseMatrix.from_dense((rng.random((10, 8)) < 0.4).astype(float))
        assert pure_svd(urm, 3, seed=9).s == pure_svd(urm, 3, seed=9).s


class TestRp3Beta:
    def test_walk_rows_are_stochastic(self):
        rng = np.random.default_rng(8)
        urm = SparseMatrix.from_dense((rng.random((9, 6)) < 0.5).astype(float))
        walk = bipartite_walk_similarity(urm, alpha=1.0)
        sums = walk.to_dense().sum(axis=1)
        for j in range(6):
            if urm.col_nnz()[j] > 0:
                assert abs(sums[j] - 1.0) <= 1e-9

    def test_matches_dense_walk_oracle(self):
        rng = np.random.default_rng(9)
        dense = (rng.random((5, 4)) < 0.6).astype(float)
        urm = SparseMatrix.from_dense(dense)
        row_sums = dense.sum(axis=1, keepdims=True)
        p_ui = np.divide(dense, row_sums, out=np.zeros_like(dense), where=row_sums > 0)
        col_sums = dense.sum(axis=0, keepdims=True)
        p_iu = np.divide(dense.T, col_sums.T, out=np.zeros_like(dense.T), where=col_sums.T > 0)
        oracle = p_iu @ p_ui
        np.fill_diagonal(oracle, 0.0)
        model = rp3beta(urm, alpha=1.0, beta=0.0, top_k=4, normalize=False)
        assert np.allclose(model.s.to_dense(), oracle, atol=1e-9)

    def test_all_zero_urm(self):
        urm = SparseMatrix.from_triplets(4, 3, [])
        model = rp3beta(urm, alpha=1.0, beta=0.5, top_k=2)
        assert model.s.nnz == 0

    def test_beta_damps_popular_columns(self):
        dense = np.array([[1, 1], [1, 0], [1, 0]], dtype=float)
        plain = rp3beta(SparseMatrix.from_dense(dense), 1.0, 0.0, 2, normalize=False)
        damped = rp3beta(SparseMatrix.from_dense(dense), 1.0, 1.0, 2, normalize=False)
        d0, d1 = plain.s.to_dense(), damped.s.to_dense()
        # popular item 0 is damped by pop^1 = 3
        assert math.isclose(d1[1, 0], d0[1, 0] / 3.0, abs_tol=1e-12)

    def test_normalize_rows(self):
        rng = np.random.default_rng(10)
        urm = SparseMatrix.from_dense((rng.random((8, 5)) < 0.5).astype(float))
        model = rp3beta(urm, alpha=0.7, beta=0.3, top_k=3, normalize=True)
        sums = model.s.to_dense().sum(axis=1)
        for r in range(5):
            if model.s.row_nnz()[r]:
                assert abs(sums[r] - 1.0) <= 1e-9


def random_matrix(seed: int, n_rows: int, n_cols: int, density: float, signed: bool) -> SparseMatrix:
    """Small integer entries, some rows repeating the first so that
    similarities tie, negated at random when ``signed``."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < density) * rng.integers(1, 4, size=(n_rows, n_cols))
    dense[rng.random(n_rows) < 0.3] = dense[0]
    if signed:
        dense = dense * rng.choice([-1, 1], size=dense.shape)
    return SparseMatrix.from_dense(dense.astype(float))


def assert_fit_invariants(model: SimilarityModel) -> None:
    """What every fit guarantees and nothing checks at run time: a square
    similarity with no diagonal entry and, where the hyperparameters name a
    ``topK``, at most that many entries in each row."""
    rows, cols, _ = model.s.entries()
    assert model.s.n_rows == model.s.n_cols
    assert not np.any(rows == cols)
    if "topK" in model.hyperparams:
        assert model.s.row_nnz().max(initial=0) <= model.hyperparams["topK"]


matrices = st.builds(random_matrix, seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 12),
                     n_cols=st.integers(1, 10), density=st.floats(0.0, 1.0), signed=st.booleans())
interactions = st.builds(random_matrix, seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 12),
                         n_cols=st.integers(1, 10), density=st.floats(0.0, 1.0),
                         signed=st.just(False))


class TestFitInvariants:
    @settings(max_examples=100, deadline=None)
    @given(vectors=matrices, top_k=st.integers(1, 14), shrink=st.sampled_from([0.0, 0.5, 3.0]),
           normalize=st.booleans())
    def test_cosine_knn(self, vectors, top_k, shrink, normalize):
        """On the product kernel's path (the numpy one where none loads) and
        on the numpy path."""
        from qubofs import sparse

        assert_fit_invariants(cosine_knn(vectors, top_k, shrink, normalize))
        with mock.patch.object(sparse, "_load_kernel", lambda: None):
            assert_fit_invariants(cosine_knn(vectors, top_k, shrink, normalize))

    @settings(max_examples=100, deadline=None)
    @given(urm=interactions, alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           beta=st.sampled_from([0.0, 0.3, 1.0]), top_k=st.integers(1, 12), normalize=st.booleans())
    def test_rp3beta(self, urm, alpha, beta, top_k, normalize):
        assert_fit_invariants(rp3beta(urm, alpha, beta, top_k, normalize))

    @settings(max_examples=100, deadline=None)
    @given(urm=interactions, data=st.data())
    def test_pure_svd(self, urm, data):
        factors = data.draw(st.integers(1, min(urm.shape)))
        assert_fit_invariants(pure_svd(urm, factors, seed=data.draw(st.integers(0, 2**32 - 1))))


def matches_reference_test():
    """A fresh test function each time: Hypothesis runs a test function for
    one class only, and TestScoreAndRank has a subclass."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["integer", "tiny", "pure_svd"]),
        subset=st.booleans(),
        extra_cutoff=st.integers(0, 4),
        budget=st.integers(1, 30),
    )
    def test_matches_reference(self, seed, kind, subset, extra_cutoff, budget):
        """Same lists as the per-user loop, element for element, whatever the
        chunking; the cutoff may exceed the unseen candidates."""
        model, profiles, rng = tie_heavy_case(seed, kind)
        n_items = model.s.n_cols
        candidates = None
        if subset:
            candidates = rng.choice(n_items, size=int(rng.integers(0, n_items + 1)), replace=False)
        cutoff = int(rng.integers(1, n_items + 1)) + extra_cutoff
        expected = reference_score_and_rank(model, profiles, cutoff, candidates)
        with mock.patch.object(models, "RANK_CHUNK_ENTRIES", budget):
            ranked = score_and_rank(model, profiles, cutoff, candidates)
        assert len(ranked) == len(expected) == profiles.n_rows
        for got, want in zip(ranked, expected):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist() + [-1] * (got.size - want.size)

    return test_matches_reference


class TestScoreAndRank:
    def test_neighbor_ranked_first(self):
        from qubofs.models import SimilarityModel

        s = SparseMatrix.from_dense([[0, 1], [1, 0]])
        model = SimilarityModel(s, {})
        profiles = SparseMatrix.from_dense([[1, 0]])
        ranked = score_and_rank(model, profiles, cutoff=1)
        assert list(ranked[0]) == [1]

    def test_seen_items_exhaust_catalog(self):
        from qubofs.models import SimilarityModel

        s = SparseMatrix.from_dense([[0, 1], [1, 0]])
        model = SimilarityModel(s, {})
        profiles = SparseMatrix.from_dense([[1, 1]])
        ranked = score_and_rank(model, profiles, cutoff=1)
        assert (ranked[0] < 0).all()

    def test_matches_dense_oracle(self):
        from qubofs.models import SimilarityModel

        rng = np.random.default_rng(11)
        s_dense = rng.random((10, 10))
        np.fill_diagonal(s_dense, 0.0)
        model = SimilarityModel(SparseMatrix.from_dense(s_dense), {})
        profiles_dense = (rng.random((6, 10)) < 0.3).astype(float)
        profiles = SparseMatrix.from_dense(profiles_dense)
        ranked = score_and_rank(model, profiles, cutoff=4)
        scores = profiles_dense @ s_dense
        for u in range(6):
            cand = np.flatnonzero(profiles_dense[u] == 0)
            order = np.lexsort((cand, -scores[u, cand]))
            assert list(ranked[u]) == list(cand[order[:4]])

    def test_scale_invariance(self):
        from qubofs.models import SimilarityModel

        rng = np.random.default_rng(12)
        s_dense = rng.random((8, 8))
        np.fill_diagonal(s_dense, 0.0)
        profiles = SparseMatrix.from_dense((rng.random((5, 8)) < 0.4).astype(float))
        m1 = SimilarityModel(SparseMatrix.from_dense(s_dense), {})
        m2 = SimilarityModel(SparseMatrix.from_dense(3.7 * s_dense), {})
        r1 = score_and_rank(m1, profiles, cutoff=3)
        r2 = score_and_rank(m2, profiles, cutoff=3)
        for a, b in zip(r1, r2):
            assert list(a) == list(b)

    def test_candidate_restriction_and_zero_fallback(self):
        from qubofs.models import SimilarityModel

        s = SparseMatrix.from_triplets(4, 4, [])
        model = SimilarityModel(s, {})
        profiles = SparseMatrix.from_dense([[0, 0, 0, 0]])
        ranked = score_and_rank(
            model, profiles, cutoff=2, candidate_items=np.array([3, 1, 2])
        )
        assert list(ranked[0]) == [1, 2]

    def test_dimension_mismatch(self):
        from qubofs.errors import DimensionMismatch
        from qubofs.models import SimilarityModel

        model = SimilarityModel(SparseMatrix.from_triplets(3, 3, []), {})
        with pytest.raises(DimensionMismatch):
            score_and_rank(model, SparseMatrix.from_triplets(2, 4, []), cutoff=1)

    test_matches_reference = matches_reference_test()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("subset", [None, "some", "none"])
    def test_one_padded_block(self, seed, subset):
        """One int64 users x min(cutoff, candidates) array, each row's items
        up to its user's count of unseen candidates and -1 from there on."""
        model, profiles, rng = tie_heavy_case(seed, "integer")
        n_items = model.s.n_cols
        candidates = {None: np.arange(n_items), "none": np.arange(0),
                      "some": rng.choice(n_items, size=n_items // 2, replace=False)}[subset]
        cutoff = int(rng.integers(1, n_items + 3))
        ranked = score_and_rank(model, profiles, cutoff,
                                candidate_items=None if subset is None else candidates)
        unseen = (profiles.to_dense()[:, candidates] <= 0).sum(axis=1)
        assert ranked.dtype == np.int64
        assert ranked.shape == (profiles.n_rows, min(cutoff, candidates.size))
        assert np.array_equal(ranked >= 0, np.arange(ranked.shape[1]) < unseen[:, None])
        assert np.all(ranked < n_items)

    def test_chunks_stay_within_budget(self, monkeypatch):
        """On the numpy path, no chunk holds more dense scores than the
        budget, and many small chunks give the lists of one large chunk."""
        monkeypatch.setattr(models, "_load_kernel", lambda: None)
        model, profiles, _ = tie_heavy_case(5, "integer")
        rng = np.random.default_rng(3)
        profiles = SparseMatrix.from_dense((rng.random((40, model.s.n_cols)) < 0.3).astype(float))
        budget = 2 * model.s.n_cols + 1
        sizes = []
        top_k = models._top_k

        def spy(scores, k):
            sizes.append(scores.size)
            return top_k(scores, k)

        whole = score_and_rank(model, profiles, cutoff=4)
        with mock.patch.multiple(models, RANK_CHUNK_ENTRIES=budget, _top_k=spy):
            chunked = score_and_rank(model, profiles, cutoff=4)
        assert len(sizes) == 20 and max(sizes) <= budget
        assert [r.tolist() for r in chunked] == [r.tolist() for r in whole]

    def test_duplicate_candidates_count_once(self):
        s = SparseMatrix.from_dense([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        model = SimilarityModel(s, {})
        profiles = SparseMatrix.from_dense([[1, 0, 0], [0, 0, 0]])
        ranked = score_and_rank(model, profiles, cutoff=3, candidate_items=np.array([2, 1, 2, 1, 1]))
        assert [r.tolist() for r in ranked] == [[2, 1], [1, 2]]

    def test_candidate_out_of_range(self):
        from qubofs.errors import IndexOutOfRange

        model = SimilarityModel(SparseMatrix.from_triplets(3, 3, []), {})
        with pytest.raises(IndexOutOfRange):
            score_and_rank(model, SparseMatrix.from_triplets(1, 3, []), cutoff=1,
                           candidate_items=np.array([0, 3]))

    def test_ranking_reads_the_similarity_in_place(self):
        """Ranking holds no second copy of a dense similarity: 50 users on a
        1500-item pure_svd model (2.1M stored entries, about 26 MB) peak at a
        few MB of allocations."""
        import tracemalloc

        rng = np.random.default_rng(0)
        urm = SparseMatrix.from_dense((rng.random((200, 1500)) < 0.02).astype(float))
        model = pure_svd(urm, num_factors=8, seed=0)
        profiles = SparseMatrix.from_dense((rng.random((50, 1500)) < 0.02).astype(float))
        tracemalloc.start()
        try:
            score_and_rank(model, profiles, cutoff=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_index_widths_rank_alike(self, tmp_path):
        """Matrices loaded from archives with 64-bit indices are stored with
        32-bit indices, like all others, and give the same lists in every
        combination."""
        model, profiles, rng = tie_heavy_case(9, "integer")
        candidates = rng.choice(model.s.n_cols, size=5, replace=False)

        def widths(m):
            rows, cols, values = m.entries()
            path = tmp_path / "wide.coo"
            with open(path, "wb") as fh:
                np.savez(fh, row=rows.astype(np.int64), col=cols.astype(np.int64), format=b"coo",
                         shape=np.array(m.shape), data=values)
            return [m, SparseMatrix.load_coo(path)]

        for m in widths(model.s) + widths(profiles):
            assert m.indptr.dtype == m.indices.dtype == np.int32
        lists = [[r.tolist() for r in score_and_rank(
                      SimilarityModel(s, {}), p, 3, candidates)]
                 for s in widths(model.s) for p in widths(profiles)]
        assert lists[0] and all(other == lists[0] for other in lists[1:])

    def test_non_finite_score_raises(self):
        # finite entries whose product overflows
        s = SparseMatrix.from_dense([[0, 1e300, 0], [1e300, 0, 1], [0, 1, 0]])
        model = SimilarityModel(s, {})
        profiles = SparseMatrix.from_dense([[0, 0, 0], [1e10, 0, 0]])
        with pytest.raises(NonFinite, match="non-finite"):
            score_and_rank(model, profiles, cutoff=2)


@pytest.fixture(scope="class")
def numpy_ranking():
    """The numpy ranking, as on a machine that cannot build the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_load_kernel", lambda: None)
        yield


@pytest.mark.usefixtures("numpy_ranking")
class TestScoreAndRankNumpy(TestScoreAndRank):
    """TestScoreAndRank on the numpy fallback, its chunks included."""

    test_matches_reference = matches_reference_test()
