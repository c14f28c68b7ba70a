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
        precision, recall, ndcg, map_score = accuracy_metrics([[0, 1, 2]], [{1}], cutoff=3)
        assert math.isclose(precision, 1 / 3, abs_tol=1e-12)
        assert recall == 1.0
        assert math.isclose(map_score, 1 / 2, abs_tol=1e-12)
        assert math.isclose(ndcg, 1 / math.log2(3), abs_tol=1e-9)

    def test_perfect_ranking(self):
        rec = [[3, 1, 4]]
        rel = [{3, 1, 4}]
        assert accuracy_metrics(rec, rel, cutoff=3) == (1.0, 1.0, 1.0, 1.0)

    def test_no_hits(self):
        assert accuracy_metrics([[0, 1]], [{5}], cutoff=2) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_relevant_users_skipped(self):
        p1 = accuracy_metrics([[0], [1]], [{0}, set()], cutoff=1)
        p2 = accuracy_metrics([[0]], [{0}], cutoff=1)
        assert p1 == p2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12))
    def test_hit_counts_are_integers(self, seed, cutoff, n_rel):
        rng = np.random.default_rng(seed)
        rec = [rng.choice(30, size=cutoff, replace=False).tolist()]
        rel = [set(rng.choice(30, size=n_rel, replace=False).tolist())]
        precision, recall, _, _ = accuracy_metrics(rec, rel, cutoff)
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
        assert accuracy_metrics(rec, rel, cutoff) == reference_accuracy_metrics(rec, rel, cutoff)


class TestItemCoverage:
    def test_full(self):
        assert item_coverage([[0, 1], [2]], 3) == 1.0

    def test_no_users(self):
        assert item_coverage([], 5) == 0.0

    def test_partial(self):
        assert item_coverage([[1, 1], [2, 7]], 10) == 0.3


class TestGiniDiversity:
    def test_uniform_exposure(self):
        assert math.isclose(gini_diversity([[0, 1], [2, 3]], 4), 1.0, abs_tol=1e-12)

    def test_single_item_concentration(self):
        assert math.isclose(gini_diversity([[0], [0], [0]], 2), 0.0, abs_tol=1e-12)

    def test_concentration_decreases_score(self):
        uniform = gini_diversity([[0], [1], [2], [3]], 4)
        skewed = gini_diversity([[0], [0], [1], [2], [3]], 4)
        assert skewed < uniform

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        lists = [rng.integers(0, 10, size=3).tolist() for _ in range(8)]
        perm = rng.permutation(10)
        relabeled = [[int(perm[i]) for i in rec] for rec in lists]
        assert math.isclose(
            gini_diversity(lists, 10), gini_diversity(relabeled, 10), abs_tol=1e-12
        )

    def test_degenerate_catalog(self):
        with pytest.raises(DegenerateCatalog):
            gini_diversity([[0]], 1)


class TestMeanInterList:
    def test_identical_lists(self):
        assert mean_inter_list([[0, 1], [0, 1]], cutoff=2) == 0.0

    def test_disjoint_lists(self):
        assert mean_inter_list([[0, 1], [2, 3]], cutoff=2) == 1.0

    def test_three_pair_enumeration(self):
        value = mean_inter_list([[0, 1], [1, 2], [2, 3]], cutoff=2)
        assert math.isclose(value, 2 / 3, abs_tol=1e-12)

    def test_symmetry_and_order_invariance(self):
        lists = [[0, 1, 2], [2, 3, 4], [5, 6, 7]]
        shuffled = [[2, 1, 0], [4, 3, 2], [7, 5, 6]]
        assert mean_inter_list(lists, 3) == mean_inter_list(shuffled, 3)
        assert mean_inter_list(lists, 3) == mean_inter_list(list(reversed(lists)), 3)

    def test_sampled_mode_close_to_exact(self):
        rng = np.random.default_rng(1)
        lists = [rng.choice(50, size=10, replace=False).tolist() for _ in range(100)]
        exact = mean_inter_list(lists, cutoff=10, max_pairs=10_000, seed=0)
        sampled = mean_inter_list(lists, cutoff=10, max_pairs=1000, seed=0)
        assert abs(exact - sampled) <= 0.02

    def test_sampling_deterministic(self):
        rng = np.random.default_rng(2)
        lists = [rng.choice(40, size=5, replace=False).tolist() for _ in range(80)]
        a = mean_inter_list(lists, 5, max_pairs=500, seed=9)
        b = mean_inter_list(lists, 5, max_pairs=500, seed=9)
        assert a == b


class TestEvaluateRecommendations:
    def test_report_fields(self):
        report = evaluate_recommendations(
            recommended=[[0, 1], [2, 3], [4, 5]],
            relevant=[{1}, {9}, set()],
            cutoff=2,
            n_items=10,
        )
        assert report.n_users_evaluated == 2
        assert 0 <= report.precision <= 1
        assert report.cutoff == 2

    def test_json_round_trip_keys(self, tmp_path):
        report = evaluate_recommendations([[0], [1]], [{0}, {1}], 1, 4)
        write_json(tmp_path / "report.json", asdict(report))
        d = read_json(tmp_path / "report.json")
        assert set(d) == {
            "cutoff", "precision", "recall", "ndcg", "map",
            "item_coverage", "gini_diversity", "mil", "n_users_evaluated",
        }
        assert EvalReport(**d) == report

    def test_tsv_row_field_count(self, tmp_path):
        report = evaluate_recommendations([[0], [1]], [{0}, {1}], 1, 4)
        write_tsv(tmp_path / "report.tsv", [f.name for f in fields(EvalReport)], [astuple(report)])
        header, row = [line.split("\t") for line in (tmp_path / "report.tsv").read_text().splitlines()]
        assert header == ["cutoff", "precision", "recall", "ndcg", "map",
                          "item_coverage", "gini_diversity", "mil", "n_users_evaluated"]
        assert [float(cell) for cell in row] == list(astuple(report))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            EvalReport(10, 1.5, 0, 0, 0, 0, 0, 0, 1)
