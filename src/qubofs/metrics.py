"""Ranking and beyond-accuracy evaluation at a fixed cutoff.

A ranking is an int64 users x k array, as ``models.score_and_rank`` returns
it: row u holds user u's list, best first, padded with -1 after its end. The
relevant items are a users x items ``SparseMatrix`` of held-out interactions;
each stored entry of row u is relevant to user u, and an item outside its
columns is never a hit.

Accuracy metrics are macro-averaged over users with at least one relevant
item; binary relevance throughout. Diversity is measured as one minus the
Gini coefficient of recommendation exposure over the whole catalog (never-
recommended items count as zeros), so uniform exposure scores 1. Inter-list
diversity averages pairwise list dissimilarity, sampling user pairs without
replacement once the pair count exceeds ``max_pairs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCatalog
from .sparse import SparseMatrix

# user pairs whose list overlaps ``mean_inter_list`` counts at once
MIL_CHUNK_PAIRS = 512


@dataclass(frozen=True)
class EvalReport:
    """One model's metrics; its fields, in order, are the columns of a
    report.tsv row and the keys of its report.json entry."""

    cutoff: int
    precision: float
    recall: float
    ndcg: float
    map: float
    item_coverage: float
    gini_diversity: float
    mil: float
    n_users_evaluated: int

    def __post_init__(self):
        for name in ("precision", "recall", "ndcg", "map", "item_coverage",
                     "gini_diversity", "mil"):
            v = getattr(self, name)
            if not (math.isfinite(v) and -1e-12 <= v <= 1.0 + 1e-12):
                raise ValueError(f"{name}={v} outside [0, 1]")


def accuracy_metrics(
    ranked: np.ndarray, holdings: SparseMatrix, cutoff: int
) -> tuple[float, float, float, float]:
    """(precision, recall, ndcg, map): macro averages over users with a
    non-empty row of ``holdings``. Rankings wider than the cutoff are cut.

    Computed from a users x width hit matrix, where the width is the cut
    ranking's, never the cutoff's; DCG and the AP sum are sequential
    cumulative sums, so every value equals the one a per-user loop adding hit
    by hit up to the cutoff gives (the ranks past the width add exact zeros).
    The ideal DCG is summed once per ideal length that occurs."""
    if len(ranked) != holdings.n_rows:
        raise ValueError("ranked and holdings must align per user")
    n_rel = holdings.row_nnz()
    kept = n_rel > 0
    if not kept.any():
        return 0.0, 0.0, 0.0, 0.0
    # one column at least, so that every row has a last cumulative sum
    width = max(1, min(cutoff, ranked.shape[1]))
    hit, n_rel = _hit_matrix(ranked[:, :width], holdings, width)[kept], n_rel[kept]
    ideal = np.minimum(n_rel, min(cutoff, holdings.n_cols))
    discounts = 1.0 / np.log2(np.arange(2, max(width, ideal.max()) + 2))
    hits_so_far = np.cumsum(hit, axis=1)
    hits = hits_so_far[:, -1]
    dcg = np.cumsum(np.where(hit, discounts[:width], 0.0), axis=1)[:, -1]
    precision_at = hits_so_far / np.arange(1, width + 1)
    ap_sum = np.cumsum(np.where(hit, precision_at, 0.0), axis=1)[:, -1]
    lengths, at = np.unique(ideal, return_inverse=True)
    idcg = np.array([discounts[:k].sum() for k in lengths.tolist()])[at]
    return (
        float(np.mean(hits / cutoff)),
        float(np.mean(hits / n_rel)),
        float(np.mean(dcg / idcg)),
        float(np.mean(ap_sum / ideal)),
    )


def _hit_matrix(ranked: np.ndarray, holdings: SparseMatrix, width: int) -> np.ndarray:
    """Bool users x width: whether the item at each rank is in the user's
    row of ``holdings``; ranks past the ranking's own width are misses."""
    n_items = holdings.n_cols
    hit = np.zeros((len(ranked), width), dtype=bool)
    users, ranks = np.nonzero((ranked >= 0) & (ranked < n_items))
    if users.size and holdings.nnz:
        # one integer key per (user, item) pair, which CSR order sorts; a hit
        # is a ranked key found among the held ones
        rows, items, _ = holdings.entries()
        held = rows * n_items + items
        keys = users * n_items + ranked[users, ranks]
        is_hit = held[np.minimum(np.searchsorted(held, keys), held.size - 1)] == keys
        hit[users[is_hit], ranks[is_hit]] = True
    return hit


def item_coverage(ranked: np.ndarray, n_items: int) -> float:
    """Share of the catalog recommended to at least one user."""
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    return np.count_nonzero(np.bincount(ranked[ranked >= 0], minlength=n_items)) / n_items


def gini_diversity(ranked: np.ndarray, n_items: int) -> float:
    """1 - Gini coefficient of exposure counts over the full catalog."""
    if n_items < 2:
        raise DegenerateCatalog("need at least 2 items for a concentration index")
    counts = np.bincount(ranked[ranked >= 0], minlength=n_items)
    total = counts.sum()
    if total == 0:
        raise ValueError("no recommendations to measure")
    freq = np.sort(counts / total)
    index = np.arange(1, n_items + 1)
    gini = float(((2 * index - n_items - 1) * freq).sum() / (n_items - 1))
    return 1.0 - gini


def mean_inter_list(
    ranked: np.ndarray,
    cutoff: int,
    max_pairs: int = 10_000,
    seed: int = 0,
) -> float:
    """Mean over user pairs of 1 - |overlap| / cutoff; exact when the pair
    count fits in max_pairs, otherwise a seeded uniform pair sample.

    Each list's distinct items are held as a sorted row, its repeats and pads
    set to -1, and the overlaps are counted for ``MIL_CHUNK_PAIRS`` pairs at
    a time; the terms are added one at a time, in pair order."""
    n_users = len(ranked)
    if n_users < 2:
        raise ValueError("need at least 2 users")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    lists = np.sort(ranked, axis=1)
    lists[:, 1:][lists[:, 1:] == lists[:, :-1]] = -1  # a repeated item counts once
    total_pairs = n_users * (n_users - 1) // 2
    if total_pairs <= max_pairs:
        chosen = np.arange(total_pairs)
    else:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(total_pairs, size=max_pairs, replace=False)
    # decode triangular pair index: offsets[u] is the first index of row u
    row_sizes = np.arange(n_users - 1, 0, -1)
    offsets = np.concatenate([[0], np.cumsum(row_sizes)])
    acc = 0.0
    for lo in range(0, chosen.size, MIL_CHUNK_PAIRS):
        pairs = chosen[lo:lo + MIL_CHUNK_PAIRS]
        us = np.searchsorted(offsets, pairs, side="right") - 1
        a, b = lists[us], lists[pairs - offsets[us] + us + 1]
        overlaps = ((a[:, :, None] == b[:, None, :]) & (a >= 0)[:, :, None]).sum(axis=(1, 2))
        for o in overlaps.tolist():
            acc += 1.0 - o / cutoff
    return acc / chosen.size


def evaluate_recommendations(
    ranked: np.ndarray,
    holdings: SparseMatrix,
    cutoff: int,
    n_items: int,
    max_pairs: int = 10_000,
    seed: int = 0,
) -> EvalReport:
    """Full report over users with a non-empty row of ``holdings``."""
    precision, recall, ndcg, map_score = accuracy_metrics(ranked, holdings, cutoff)
    lists = ranked[holdings.row_nnz() > 0]
    if (lists >= 0).any():
        coverage = item_coverage(lists, n_items)
        gini = gini_diversity(lists, n_items)
    else:
        coverage = 0.0
        gini = 0.0
    mil = mean_inter_list(lists, cutoff, max_pairs, seed) if len(lists) >= 2 else 0.0
    return EvalReport(
        cutoff=cutoff,
        precision=precision,
        recall=recall,
        ndcg=ndcg,
        map=map_score,
        item_coverage=coverage,
        gini_diversity=gini,
        mil=mil,
        n_users_evaluated=len(lists),
    )
