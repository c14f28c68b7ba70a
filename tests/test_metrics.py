import math
from dataclasses import asdict, astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofs.errors import DegenerateCatalog
from qubofs.fileio import read_json, write_json, write_tsv
from qubofs.metrics import (
    EvalReport,
    accuracy_metrics,
    evaluate_recommendations,
    gini_diversity,
    item_coverage,
    mean_inter_list,
)
from qubofs.sparse import SparseMatrix


def ranking(lists):
    """Ranked lists as ``score_and_rank`` returns them: one int64 row per
    list, padded with -1 to the longest."""
    out = np.full((len(lists), max(map(len, lists), default=0)), -1, dtype=np.int64)
    for row, items in zip(out, lists):
        row[:len(items)] = items
    return out


def holdings(sets, n_items=None):
    """The users x items matrix holding each user's relevant items."""
    if n_items is None:
        n_items = 1 + max((max(items) for items in sets if items), default=0)
    return SparseMatrix.from_triplets(
        len(sets), n_items, [(u, i, 1.0) for u, items in enumerate(sets) for i in items])


def lists_and_sets(ranked, held):
    """``ranking``'s and ``holdings``' inputs back: each row cut at its
    first -1, and each user's relevant items as a set."""
    lists = [row[:np.count_nonzero(row >= 0)] for row in ranked]
    bounds = held.indptr.tolist()
    return lists, [set(held.indices[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]


def reference_accuracy_metrics(recommended, relevant, cutoff):
    """The per-user loop the hit-matrix version replaced: the oracle for its
    floats, which add hit by hit in rank order."""
    if len(recommended) != len(relevant):
        raise ValueError("recommended and relevant must align per user")
    discounts = 1.0 / np.log2(np.arange(2, cutoff + 2))
    precisions, recalls, ndcgs, aps = [], [], [], []
    for rec, rel in zip(recommended, relevant):
        if not rel:
            continue
        hits = 0
        dcg = 0.0
        ap_sum = 0.0
        for rank0, item in enumerate(rec[:cutoff]):
            if int(item) in rel:
                hits += 1
                dcg += discounts[rank0]
                ap_sum += hits / (rank0 + 1)
        ideal = min(cutoff, len(rel))
        idcg = discounts[:ideal].sum()
        precisions.append(hits / cutoff)
        recalls.append(hits / len(rel))
        ndcgs.append(dcg / idcg if idcg > 0 else 0.0)
        aps.append(ap_sum / ideal)
    if not precisions:
        return 0.0, 0.0, 0.0, 0.0
    return (
        float(np.mean(precisions)),
        float(np.mean(recalls)),
        float(np.mean(ndcgs)),
        float(np.mean(aps)),
    )


class TestAccuracy:
    def test_single_hit_at_rank_two(self):
        precision, recall, ndcg, map_score = accuracy_metrics(ranking([[0, 1, 2]]), holdings([{1}]), cutoff=3)
        assert math.isclose(precision, 1 / 3, abs_tol=1e-12)
        assert recall == 1.0
        assert math.isclose(map_score, 1 / 2, abs_tol=1e-12)
        assert math.isclose(ndcg, 1 / math.log2(3), abs_tol=1e-9)

    def test_perfect_ranking(self):
        rec = [[3, 1, 4]]
        rel = [{3, 1, 4}]
        assert accuracy_metrics(ranking(rec), holdings(rel), cutoff=3) == (1.0, 1.0, 1.0, 1.0)

    def test_no_hits(self):
        assert accuracy_metrics(ranking([[0, 1]]), holdings([{5}]), cutoff=2) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_relevant_users_skipped(self):
        p1 = accuracy_metrics(ranking([[0], [1]]), holdings([{0}, set()]), cutoff=1)
        p2 = accuracy_metrics(ranking([[0]]), holdings([{0}]), cutoff=1)
        assert p1 == p2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12))
    def test_hit_counts_are_integers(self, seed, cutoff, n_rel):
        rng = np.random.default_rng(seed)
        rec = [rng.choice(30, size=cutoff, replace=False).tolist()]
        rel = [set(rng.choice(30, size=n_rel, replace=False).tolist())]
        precision, recall, _, _ = accuracy_metrics(ranking(rec), holdings(rel, 30), cutoff)
        assert abs(precision * cutoff - round(precision * cutoff)) <= 1e-9
        assert abs(recall * n_rel - round(recall * n_rel)) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 30),
           st.booleans())
    def test_matches_reference(self, seed, cutoff, n_users, as_arrays):
        """Bit-identical to the per-user loop: short, empty and over-long
        lists, repeated items, empty relevant sets, many hits."""
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(1, 3 * cutoff + 2))
        rec = [rng.integers(0, n_items, size=int(rng.integers(0, cutoff + 3))).tolist()
               for _ in range(n_users)]
        if as_arrays:
            rec = [np.asarray(r, dtype=np.int64) for r in rec]
        rel = [set(rng.choice(n_items, size=int(rng.integers(0, n_items + 1)),
                              replace=False).tolist())
               for _ in range(n_users)]
        assert accuracy_metrics(ranking(rec), holdings(rel, n_items), cutoff) == \
            reference_accuracy_metrics(rec, rel, cutoff)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 30),
           st.integers(0, 15))
    def test_padded_rankings_match_reference(self, seed, cutoff, n_users, width):
        """On a padded ranking of any width (above, at or below the cutoff)
        and a random holdings matrix, the floats of the per-user loop over
        the same lists and sets: ranked items beyond the holdings' columns,
        repeated items, empty rows and rows without a relevant item."""
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(1, 3 * cutoff + 2))
        ranked = rng.integers(0, n_items + 3, size=(n_users, width))
        ranked[np.arange(width) >= rng.integers(0, width + 1, size=(n_users, 1))] = -1
        held = SparseMatrix.from_dense(rng.random((n_users, n_items)) < rng.random())
        assert accuracy_metrics(ranked, held, cutoff) == \
            reference_accuracy_metrics(*lists_and_sets(ranked, held), cutoff)


    def test_cutoff_beyond_the_catalog(self):
        """The arrays are as wide as the ranking, not the cutoff: at a cutoff
        of 10**20, recall, NDCG and MAP are their values at the catalog size
        and precision is each user's hits over 10**20."""
        rng = np.random.default_rng(3)
        n_items = 40
        ranked = np.argsort(rng.random((25, n_items)), axis=1)[:, :15]
        held = SparseMatrix.from_dense(rng.random((25, n_items)) < 0.2)
        huge = accuracy_metrics(ranked, held, 10**20)
        assert huge[1:] == accuracy_metrics(ranked, held, n_items)[1:]
        lists, sets = lists_and_sets(ranked, held)
        hits = np.array([len(set(items.tolist()) & rel) for items, rel in zip(lists, sets) if rel])
        assert huge[0] == float(np.mean(hits / 10**20))


class TestItemCoverage:
    def test_full(self):
        assert item_coverage(ranking([[0, 1], [2]]), 3) == 1.0

    def test_no_users(self):
        assert item_coverage(ranking([]), 5) == 0.0

    def test_partial(self):
        assert item_coverage(ranking([[1, 1], [2, 7]]), 10) == 0.3


class TestGiniDiversity:
    def test_uniform_exposure(self):
        assert math.isclose(gini_diversity(ranking([[0, 1], [2, 3]]), 4), 1.0, abs_tol=1e-12)

    def test_single_item_concentration(self):
        assert math.isclose(gini_diversity(ranking([[0], [0], [0]]), 2), 0.0, abs_tol=1e-12)

    def test_concentration_decreases_score(self):
        uniform = gini_diversity(ranking([[0], [1], [2], [3]]), 4)
        skewed = gini_diversity(ranking([[0], [0], [1], [2], [3]]), 4)
        assert skewed < uniform

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        lists = [rng.integers(0, 10, size=3).tolist() for _ in range(8)]
        perm = rng.permutation(10)
        relabeled = [[int(perm[i]) for i in rec] for rec in lists]
        assert math.isclose(
            gini_diversity(ranking(lists), 10), gini_diversity(ranking(relabeled), 10), abs_tol=1e-12
        )

    def test_degenerate_catalog(self):
        with pytest.raises(DegenerateCatalog):
            gini_diversity(ranking([[0]]), 1)


def reference_mean_inter_list(recommended, cutoff, max_pairs=10_000, seed=0):
    """The per-pair loop over item sets that the padded, chunked count
    replaced: the oracle for its float, which adds one pair at a time."""
    n_users = len(recommended)
    sets = [set(int(i) for i in rec) for rec in recommended]
    total_pairs = n_users * (n_users - 1) // 2
    if total_pairs <= max_pairs:
        pairs = [(u, v) for u in range(n_users) for v in range(u + 1, n_users)]
    else:
        chosen = np.random.default_rng(seed).choice(total_pairs, size=max_pairs, replace=False)
        offsets = np.concatenate([[0], np.cumsum(np.arange(n_users - 1, 0, -1))])
        us = np.searchsorted(offsets, chosen, side="right") - 1
        pairs = zip(us.tolist(), (chosen - offsets[us] + us + 1).tolist())
    acc = 0.0
    for u, v in pairs:
        acc += 1.0 - len(sets[u] & sets[v]) / cutoff
    return acc / min(total_pairs, max_pairs)


class TestMeanInterList:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_pairs", [10_000, 700])
    def test_matches_the_per_pair_sets(self, seed, max_pairs):
        """Lists of any length, empty ones, repeated items, over more pairs
        than a chunk holds."""
        rng = np.random.default_rng(seed)
        lists = []
        for _ in range(int(rng.integers(2, 90))):
            items = rng.integers(0, 28, size=int(rng.integers(0, 12)))
            lists.append(items if rng.random() < 0.5 else items.tolist())
        cutoff = int(rng.integers(1, 12))
        assert mean_inter_list(ranking(lists), cutoff, max_pairs, seed) == \
            reference_mean_inter_list(lists, cutoff, max_pairs, seed)

    def test_identical_lists(self):
        assert mean_inter_list(ranking([[0, 1], [0, 1]]), cutoff=2) == 0.0

    def test_disjoint_lists(self):
        assert mean_inter_list(ranking([[0, 1], [2, 3]]), cutoff=2) == 1.0

    def test_three_pair_enumeration(self):
        value = mean_inter_list(ranking([[0, 1], [1, 2], [2, 3]]), cutoff=2)
        assert math.isclose(value, 2 / 3, abs_tol=1e-12)

    def test_symmetry_and_order_invariance(self):
        lists = [[0, 1, 2], [2, 3, 4], [5, 6, 7]]
        shuffled = [[2, 1, 0], [4, 3, 2], [7, 5, 6]]
        assert mean_inter_list(ranking(lists), 3) == mean_inter_list(ranking(shuffled), 3)
        assert mean_inter_list(ranking(lists), 3) == mean_inter_list(ranking(list(reversed(lists))), 3)

    def test_sampled_mode_close_to_exact(self):
        rng = np.random.default_rng(1)
        lists = [rng.choice(50, size=10, replace=False).tolist() for _ in range(100)]
        exact = mean_inter_list(ranking(lists), cutoff=10, max_pairs=10_000, seed=0)
        sampled = mean_inter_list(ranking(lists), cutoff=10, max_pairs=1000, seed=0)
        assert abs(exact - sampled) <= 0.02

    def test_sampling_deterministic(self):
        rng = np.random.default_rng(2)
        lists = [rng.choice(40, size=5, replace=False).tolist() for _ in range(80)]
        a = mean_inter_list(ranking(lists), 5, max_pairs=500, seed=9)
        b = mean_inter_list(ranking(lists), 5, max_pairs=500, seed=9)
        assert a == b


class TestEvaluateRecommendations:
    def test_report_fields(self):
        report = evaluate_recommendations(
            ranked=ranking([[0, 1], [2, 3], [4, 5]]),
            holdings=holdings([{1}, {9}, set()], 10),
            cutoff=2,
            n_items=10,
        )
        assert report.n_users_evaluated == 2
        assert 0 <= report.precision <= 1
        assert report.cutoff == 2

    def test_json_round_trip_keys(self, tmp_path):
        report = evaluate_recommendations(ranking([[0], [1]]), holdings([{0}, {1}], 4), 1, 4)
        write_json(tmp_path / "report.json", asdict(report))
        d = read_json(tmp_path / "report.json")
        assert set(d) == {
            "cutoff", "precision", "recall", "ndcg", "map",
            "item_coverage", "gini_diversity", "mil", "n_users_evaluated",
        }
        assert EvalReport(**d) == report

    def test_tsv_row_field_count(self, tmp_path):
        report = evaluate_recommendations(ranking([[0], [1]]), holdings([{0}, {1}], 4), 1, 4)
        write_tsv(tmp_path / "report.tsv", [f.name for f in fields(EvalReport)], [astuple(report)])
        header, row = [line.split("\t") for line in (tmp_path / "report.tsv").read_text().splitlines()]
        assert header == ["cutoff", "precision", "recall", "ndcg", "map",
                          "item_coverage", "gini_diversity", "mil", "n_users_evaluated"]
        assert [float(cell) for cell in row] == list(astuple(report))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            EvalReport(10, 1.5, 0, 0, 0, 0, 0, 0, 1)
