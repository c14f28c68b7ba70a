"""Similarity-based recommenders and ranking.

All models produce an item-item similarity matrix with zero diagonal.
Recommendation scores are user profiles times the similarity matrix; the
highest-scoring items win, ties broken by the smaller item index so that runs
are reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NonFinite, RankTooLarge
from .sparse import ZERO_EPSILON, SparseMatrix

BM25_K1 = 1.2
BM25_B = 0.75
# dense score entries one chunk of the numpy ranking holds: 2**18 float64s
# are 2 MB (the compiled ranking holds one row of scores)
RANK_CHUNK_ENTRIES = 1 << 18
# randomized SVD: extra sampled directions beyond the rank, and power iterations
SVD_OVERSAMPLE = 10
SVD_POWER_ITERATIONS = 7


class ModelKind(str, Enum):
    ITEM_KNN_CF = "item_knn_cf"
    ITEM_KNN_CBF = "item_knn_cbf"
    PURE_SVD = "pure_svd"
    RP3_BETA = "rp3beta"


@dataclass(frozen=True)
class SimilarityModel:
    """Top-k-sparsified item-item similarity plus the producing hyperparameters."""

    s: SparseMatrix
    kind: ModelKind
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        rows, cols, _ = self.s.entries()
        if self.s.n_rows == self.s.n_cols and np.any(rows == cols):
            raise ValueError("similarity matrix must have zero diagonal")
        top_k = self.hyperparams.get("topK")
        if top_k is not None and np.any(self.s.row_nnz() > top_k):
            raise ValueError("a row exceeds the topK bound")


def cosine_knn(
    vectors: SparseMatrix,
    top_k: int,
    shrink: float = 0.0,
    normalize: bool = True,
    kind: ModelKind = ModelKind.ITEM_KNN_CF,
) -> SimilarityModel:
    """Pairwise similarity of `vectors` rows: dot products, optionally divided
    by (norm_i * norm_j + shrink). Diagonal removed, then per-row top-k."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if shrink < 0:
        raise ValueError("shrink must be >= 0")
    gram = vectors @ vectors.transpose()
    if normalize:
        sq = vectors.power(2.0)
        norms = np.sqrt(sq.row_sums())
        rows, cols, values = gram.entries()
        # a stored dot product implies both rows are nonzero, so denom > 0
        gram = gram.with_entries(values=values / (norms[rows] * norms[cols] + shrink))
    s = gram.zero_diagonal().top_k_per_row(top_k)
    return SimilarityModel(
        s, kind, {"topK": top_k, "shrink": shrink, "normalize": normalize}
    )


def apply_feature_weighting(icm: SparseMatrix, scheme: str = "none") -> SparseMatrix:
    """Reweight a binary item-feature matrix with TF-IDF or BM25."""
    if scheme == "none":
        return icm
    if scheme not in ("tfidf", "bm25"):
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    rows, cols, _ = icm.entries()
    if scheme == "tfidf":
        return icm.with_entries(values=tfidf_feature_scores(icm)[cols])
    n_items = icm.n_rows
    df = icm.col_nnz().astype(np.float64)
    idf = np.log((n_items - df + 0.5) / (df + 0.5) + 1.0)
    lengths = icm.row_nnz().astype(np.float64)
    avg_len = icm.nnz / n_items if n_items else 0.0
    denom = 1.0 + BM25_K1 * (1.0 - BM25_B + BM25_B * lengths / avg_len)
    return icm.with_entries(values=idf[cols] * (BM25_K1 + 1.0) / denom[rows])


def tfidf_feature_scores(icm: SparseMatrix) -> np.ndarray:
    """Per-feature score ln(n_items / document frequency); df 0 scores 0."""
    df = icm.col_nnz().astype(np.float64)
    scores = np.zeros_like(df)
    nz = df > 0
    scores[nz] = np.log(icm.n_rows / df[nz])
    return np.maximum(scores, 0.0)


def randomized_svd(
    matrix: SparseMatrix, rank: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded randomized subspace iteration for a truncated SVD."""
    n_rows, n_cols = matrix.shape
    if not 1 <= rank <= min(n_rows, n_cols):
        raise RankTooLarge(f"rank {rank} outside [1, {min(n_rows, n_cols)}]")
    rng = np.random.default_rng(seed)
    transposed = matrix.transpose()
    l = min(rank + SVD_OVERSAMPLE, min(n_rows, n_cols))
    omega = rng.standard_normal((n_cols, l))
    q, _ = np.linalg.qr(matrix @ omega)
    for _ in range(SVD_POWER_ITERATIONS):
        z, _ = np.linalg.qr(transposed @ q)
        q, _ = np.linalg.qr(matrix @ z)
    b = (transposed @ q).T
    u_small, sigma, vt = np.linalg.svd(b, full_matrices=False)
    u = q @ u_small
    return u[:, :rank], sigma[:rank], vt[:rank, :]


def pure_svd(urm: SparseMatrix, num_factors: int, seed: int = 0) -> SimilarityModel:
    """Folding-in similarity: item latent factors times their transpose.

    Memory: the similarity is dense, n_items**2 stored entries (about 12
    bytes each in CSR, plus an 8-byte dense product while it is built), so
    10k items take about 2 GB; it is neither sparsified nor chunked, and the
    catalogs it suits are bounded by that."""
    _, _, vt = randomized_svd(urm, num_factors, seed)
    s_dense = vt.T @ vt
    np.fill_diagonal(s_dense, 0.0)
    return SimilarityModel(
        SparseMatrix.from_dense(s_dense),
        ModelKind.PURE_SVD,
        {"num_factors": num_factors, "seed": seed},
    )


def bipartite_walk_similarity(urm: SparseMatrix, alpha: float) -> SparseMatrix:
    """Item-to-item transition probabilities through users, each leg L1-row-
    normalized and raised elementwise to alpha before the product."""
    p_ui = urm.row_normalize().power(alpha)
    p_iu = urm.transpose().row_normalize().power(alpha)
    return p_iu @ p_ui


def rp3beta(
    urm: SparseMatrix,
    alpha: float = 1.0,
    beta: float = 0.0,
    top_k: int = 100,
    normalize: bool = True,
) -> SimilarityModel:
    """Random-walk similarity with popularity damping.

    Column j is divided by pop(j)**beta (pop = interaction count); zero-
    popularity columns are left untouched. Diagonal removed, per-row top-k,
    then optional L1 row normalization.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    s = bipartite_walk_similarity(urm, alpha)
    if beta > 0:
        pop = urm.col_nnz().astype(np.float64)
        damp = np.ones_like(pop)
        nz = pop > 0
        damp[nz] = pop[nz] ** (-beta)
        _, cols, values = s.entries()
        s = s.with_entries(values=values * damp[cols])
    s = s.zero_diagonal().top_k_per_row(top_k)
    if normalize:
        s = s.row_normalize()
    return SimilarityModel(
        s,
        ModelKind.RP3_BETA,
        {"alpha": alpha, "beta": beta, "topK": top_k, "normalize": normalize},
    )


def score_and_rank(
    model: SimilarityModel,
    user_profiles: SparseMatrix,
    cutoff: int,
    candidate_items: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Ranked item lists per user from profile-times-similarity scores,
    without the items each user has already seen.

    Ties break toward the smaller item index, which also serves as the
    deterministic fallback for users whose scores are all zero. Repeated
    candidates count once. Scores are summed in the order of the canonical
    sparse product, and those below ``ZERO_EPSILON`` in magnitude count as
    zero.

    The ranking runs in the compiled kernel (``_rank.c``) when this machine
    can build it and it passes its self-check: one user at a time, over one
    dense row of candidate scores, reading the sparse arrays in place. Otherwise
    numpy scores users in chunks of at most ``RANK_CHUNK_ENTRIES`` dense
    scores (one user per chunk if a single row exceeds it). Either way the
    scores held do not grow with the number of users, and both paths return
    identical lists.
    """
    if user_profiles.n_cols != model.s.n_rows:
        raise DimensionMismatch(
            f"profiles have {user_profiles.n_cols} items, similarity {model.s.n_rows}"
        )
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    n_items = model.s.n_cols
    sim = model.s
    if candidate_items is None:
        candidates = np.arange(n_items, dtype=np.int64)
    else:
        candidates = np.unique(np.asarray(candidate_items, dtype=np.int64))
        if candidates.size and (candidates[0] < 0 or candidates[-1] >= n_items):
            raise IndexOutOfRange(f"candidate item outside [0, {n_items})")
        sim = model.s.submatrix(cols=candidates)
    n_cand = candidates.size
    if n_cand == 0:
        return [candidates[:0] for _ in range(user_profiles.n_rows)]
    # column of each item among the candidates, -1 for the others; it covers
    # the profiles' columns too, which index the similarity's rows
    position = np.full(max(model.s.shape), -1, dtype=np.int64)
    position[candidates] = np.arange(n_cand)
    rank = _load_kernel() or _rank_numpy
    return rank(user_profiles, sim, position, candidates, min(cutoff, n_cand))


def _rank_numpy(profiles: SparseMatrix, sim: SparseMatrix, position: np.ndarray,
                candidates: np.ndarray, k: int) -> list[np.ndarray]:
    """``score_and_rank`` over chunks of users: the canonical product (with its
    zero rule) as dense scores, and ``_top_k``. ``sim`` holds the candidates."""
    n_users, n_cand = profiles.n_rows, candidates.size
    step = max(1, RANK_CHUNK_ENTRIES // n_cand)
    ranked: list[np.ndarray] = []
    for lo in range(0, n_users, step):
        chunk = profiles.submatrix(rows=np.arange(lo, min(lo + step, n_users)))
        scores = (chunk @ sim).to_dense()
        rows, items, values = chunk.entries()
        cols = position[items]
        seen = (values > 0) & (cols >= 0)
        scores[rows[seen], cols[seen]] = -np.inf
        unseen = n_cand - np.bincount(rows[seen], minlength=chunk.n_rows)
        lengths = np.minimum(k, unseen)
        items = candidates[_top_k(scores, k)]
        ranked.extend(row[:length] for row, length in zip(items, lengths.tolist()))
    return ranked


@functools.cache
def _load_kernel():
    """The compiled ranking as a drop-in for ``_rank_numpy``, or None when
    ``_rank.c`` cannot be built or loaded here, or when it disagrees with
    numpy on ``_check_case()``: the kernel relies on scipy summing the sparse
    product in CSR order, which scipy does not promise."""
    import ctypes

    from . import _native

    lib = _native.load_library("_rank")
    if lib is None:
        return None
    kernel = lib.rank_users
    int32s, int64s, doubles = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                               for t in (np.int32, np.int64, np.float64))
    kernel.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_double] + [
        int32s, int32s, doubles] * 2 + [
        int64s, int64s, doubles, int64s, doubles, int64s, int64s, int64s]
    kernel.restype = ctypes.c_int64

    def rank(profiles, sim, position, candidates, k):
        n_users, n_cand = profiles.n_rows, candidates.size
        out = np.empty((n_users, k), dtype=np.int64)
        lengths = np.empty(n_users, dtype=np.int64)
        status = kernel(n_users, n_cand, k, ZERO_EPSILON,
                        profiles.indptr, profiles.indices, profiles.data,
                        sim.indptr, sim.indices, sim.data,
                        position, candidates,
                        np.zeros(n_cand), np.full(n_cand, -1, dtype=np.int64),
                        np.empty(k), np.empty(k, dtype=np.int64), out, lengths)
        if status:
            raise NonFinite("non-finite value in sparse matrix")
        ranked = list(out)
        for u in np.flatnonzero(lengths < k).tolist():
            ranked[u] = ranked[u][:lengths[u]]
        return ranked

    check = _check_case()
    got, want = rank(*check), _rank_numpy(*check)
    if [r.tolist() for r in got] != [r.tolist() for r in want]:
        return None
    return rank


def _check_case():
    """``_rank_numpy`` arguments for the kernel's self-check: integer scores
    that tie often, negative and empty profiles, a candidate subset, a cutoff
    above some users' unseen candidates, and scores of +-2**-42 (below
    ``ZERO_EPSILON``) that users 2 to 5 get by cancellation in items 2 to 5."""
    rng = np.random.default_rng(0)
    s = rng.integers(-1, 3, size=(12, 12)) * (rng.random((12, 12)) < 0.5) * 1.0
    s[:, 2:6] = 0.0
    s[:2, 2:4] = [[1.0], [-(1.0 - 2.0**-42)]]
    s[:2, 4:6] = [[-1.0], [1.0 - 2.0**-42]]
    profiles = rng.integers(-1, 3, size=(8, 12)) * (rng.random((8, 12)) < 0.4) * 1.0
    profiles[:2] = 0.0
    profiles[2:6, :2] = 1.0
    candidates = np.arange(1, 12, dtype=np.int64)
    return (SparseMatrix.from_dense(profiles), SparseMatrix.from_dense(s[:, candidates]),
            np.arange(-1, 11, dtype=np.int64), candidates, 9)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k highest scores, highest first and ties
    by the smaller column: the k-th value comes from a partition, the values
    above it are all kept, and the tied boundary values lowest column first;
    only that k-wide slice is stably sorted. ``scores`` is overwritten."""
    neg = np.negative(scores, out=scores)
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    take = neg < kth
    tied = neg == kth
    missing = k - take.sum(axis=1, keepdims=True)
    take |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= missing)
    cols = np.nonzero(take)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(neg, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)
