"""Ranking and beyond-accuracy evaluation at a fixed cutoff.

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
from itertools import chain
from typing import Collection, Sequence

import numpy as np

from .errors import DegenerateCatalog

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
    recommended: Sequence[Sequence[int]],
    relevant: Sequence[Collection[int]],
    cutoff: int,
) -> tuple[float, float, float, float]:
    """(precision, recall, ndcg, map): macro averages over users with a
    non-empty relevant set. Lists are assumed already truncated to cutoff
    (longer ones are cut).

    Computed from a users x cutoff hit matrix; DCG and the AP sum are
    sequential cumulative sums, so every value equals the one a per-user loop
    adding hit by hit gives."""
    if len(recommended) != len(relevant):
        raise ValueError("recommended and relevant must align per user")
    discounts = 1.0 / np.log2(np.arange(2, cutoff + 2))
    n_rel = np.fromiter(map(len, relevant), dtype=np.int64, count=len(relevant))
    hit = _hit_matrix(recommended, relevant, n_rel, cutoff)
    kept = n_rel > 0
    if not kept.any():
        return 0.0, 0.0, 0.0, 0.0
    hit, n_rel = hit[kept], n_rel[kept]
    hits_so_far = np.cumsum(hit, axis=1)
    hits = hits_so_far[:, -1]
    dcg = np.cumsum(np.where(hit, discounts, 0.0), axis=1)[:, -1]
    precision_at = hits_so_far / np.arange(1, cutoff + 1)
    ap_sum = np.cumsum(np.where(hit, precision_at, 0.0), axis=1)[:, -1]
    ideal = np.minimum(cutoff, n_rel)
    idcg = np.array([discounts[:k].sum() for k in range(cutoff + 1)])[ideal]
    return (
        float(np.mean(hits / cutoff)),
        float(np.mean(hits / n_rel)),
        float(np.mean(dcg / idcg)),
        float(np.mean(ap_sum / ideal)),
    )


def _hit_matrix(
    recommended: Sequence[Sequence[int]], relevant: Sequence[Collection[int]],
    rel_len: np.ndarray, cutoff: int,
) -> np.ndarray:
    """Bool users x cutoff: whether the item at each rank is relevant;
    ``rel_len`` holds the sizes of the relevant sets."""
    n_users = len(recommended)
    rec_len = np.fromiter(map(len, recommended), dtype=np.int64, count=n_users)
    # as int(item) would: lists of any integer type, and empty lists, join
    rec = (np.concatenate(recommended, dtype=np.int64, casting="unsafe")
           if n_users else np.empty(0, dtype=np.int64))
    rel = np.fromiter(chain.from_iterable(relevant), dtype=np.int64, count=rel_len.sum())
    rec_user = np.repeat(np.arange(n_users), rec_len)
    rank = np.arange(rec.size) - np.repeat(np.cumsum(rec_len) - rec_len, rec_len)
    hit = np.zeros((n_users, cutoff), dtype=bool)
    if rec.size and rel.size:
        # one integer key per (user, item) pair; a hit is a recommended key
        # found among the sorted relevant keys
        lo = min(rec.min(), rel.min())
        span = max(rec.max(), rel.max()) - lo + 1
        rec_keys = rec_user * span + (rec - lo)
        rel_keys = np.sort(np.repeat(np.arange(n_users), rel_len) * span + (rel - lo))
        at = np.minimum(np.searchsorted(rel_keys, rec_keys), rel_keys.size - 1)
        is_hit = (rel_keys[at] == rec_keys) & (rank < cutoff)
        hit[rec_user[is_hit], rank[is_hit]] = True
    return hit


def item_coverage(recommended: Sequence[Sequence[int]], n_items: int) -> float:
    """Share of the catalog recommended to at least one user."""
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    items = np.fromiter(chain.from_iterable(recommended), dtype=np.int64)
    return np.count_nonzero(np.bincount(items, minlength=n_items)) / n_items


def gini_diversity(recommended: Sequence[Sequence[int]], n_items: int) -> float:
    """1 - Gini coefficient of exposure counts over the full catalog."""
    if n_items < 2:
        raise DegenerateCatalog("need at least 2 items for a concentration index")
    items = np.fromiter(chain.from_iterable(recommended), dtype=np.int64)
    counts = np.bincount(items, minlength=n_items)
    total = counts.sum()
    if total == 0:
        raise ValueError("no recommendations to measure")
    freq = np.sort(counts / total)
    index = np.arange(1, n_items + 1)
    gini = float(((2 * index - n_items - 1) * freq).sum() / (n_items - 1))
    return 1.0 - gini


def mean_inter_list(
    recommended: Sequence[Sequence[int]],
    cutoff: int,
    max_pairs: int = 10_000,
    seed: int = 0,
) -> float:
    """Mean over user pairs of 1 - |overlap| / cutoff; exact when the pair
    count fits in max_pairs, otherwise a seeded uniform pair sample.

    The lists' distinct items are held as one padded users x longest-list
    array, and the overlaps are counted for ``MIL_CHUNK_PAIRS`` pairs at a
    time; the terms are added one at a time, in pair order."""
    n_users = len(recommended)
    if n_users < 2:
        raise ValueError("need at least 2 users")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    lists, pad = _padded_sets(recommended)
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
        overlaps = ((a[:, :, None] == b[:, None, :]) & (a != pad)[:, :, None]).sum(axis=(1, 2))
        for o in overlaps.tolist():
            acc += 1.0 - o / cutoff
    return acc / chosen.size


def _padded_sets(recommended: Sequence[Sequence[int]]) -> tuple[np.ndarray, int]:
    """Each list's distinct items as a row of an int64 array, the rest of the
    row filled with a pad below every item, and the pad."""
    n_users = len(recommended)
    lengths = np.fromiter(map(len, recommended), dtype=np.int64, count=n_users)
    # as int(item) would: lists of any integer type, and empty lists, join
    items = np.concatenate(recommended, dtype=np.int64, casting="unsafe")
    pad = int(items.min()) - 1 if items.size else 0
    padded = np.full((n_users, max(1, int(lengths.max()))), pad, dtype=np.int64)
    rank = np.arange(items.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    padded[np.repeat(np.arange(n_users), lengths), rank] = items
    padded.sort(axis=1)
    padded[:, 1:][padded[:, 1:] == padded[:, :-1]] = pad  # a repeated item counts once
    return padded, pad


def evaluate_recommendations(
    recommended: Sequence[Sequence[int]],
    relevant: Sequence[Collection[int]],
    cutoff: int,
    n_items: int,
    max_pairs: int = 10_000,
    seed: int = 0,
) -> EvalReport:
    """Full report over users with a non-empty relevant set."""
    kept = [(rec, rel) for rec, rel in zip(recommended, relevant) if len(rel)]
    lists = [rec for rec, _ in kept]
    rels = [rel for _, rel in kept]
    precision, recall, ndcg, map_score = accuracy_metrics(lists, rels, cutoff)
    if lists and any(len(rec) for rec in lists):
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
