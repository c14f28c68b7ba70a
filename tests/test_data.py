import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofs.data import (
    Dataset,
    build_dataset,
    cold_item_split,
    load_interactions,
    load_item_features,
    preprocess,
    save_cold_split,
    load_cold_split,
    synth_planted,
    user_holdout_split,
)
from qubofs.errors import EmptyDataset, InfeasibleConfig, NegativeValue, ParseError
from qubofs.sparse import SparseMatrix


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def random_dataset(rng, n_users=10, n_items=10, n_features=6, density=0.3):
    urm_mask = rng.random((n_users, n_items)) < density
    urm = SparseMatrix.from_dense(urm_mask.astype(float))
    icm_mask = rng.random((n_items, n_features)) < 0.4
    # every item gets at least one feature to keep things non-degenerate
    icm_dense = icm_mask.astype(float)
    for i in range(n_items):
        if icm_dense[i].sum() == 0:
            icm_dense[i, rng.integers(0, n_features)] = 1.0
    icm = SparseMatrix.from_dense(icm_dense)
    return Dataset(
        urm,
        icm,
        tuple(f"u{k}" for k in range(n_users)),
        tuple(f"i{k}" for k in range(n_items)),
        tuple(f"f{k}" for k in range(n_features)),
    )


class TestLoadInteractions:
    def test_explicit(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\t4\n")
        assert load_interactions(p, "explicit") == [("u1", "i1", 4.0)]

    def test_implicit_forces_one(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\t4\n")
        assert load_interactions(p, "implicit") == [("u1", "i1", 1.0)]

    def test_default_value(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\n")
        assert load_interactions(p) == [("u1", "i1", 1.0)]

    def test_comments_skipped(self, tmp_path):
        p = write(tmp_path, "r.tsv", "# header\nu1\ti1\t2\n")
        assert load_interactions(p) == [("u1", "i1", 2.0)]

    def test_parse_error_line_number(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\t2\nu2\ti2\tnope\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(p)

    def test_negative_value(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\t-1\n")
        with pytest.raises(NegativeValue):
            load_interactions(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        p = write(tmp_path, "r.tsv", f"u1\ti1\t2\nu2\ti2\t{value}\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(p)

    @pytest.mark.parametrize("line, n_fields", [("u2", 1), ("u2\ti2\t1\tx", 4), (" ", 1)])
    def test_wrong_field_count(self, tmp_path, line, n_fields):
        """Blank lines and comments still count toward the line number."""
        p = write(tmp_path, "r.tsv", f"u1\ti1\t2\n\n# c\n{line}\nu3\ti3\n")
        with pytest.raises(ParseError) as info:
            load_interactions(p)
        assert str(info.value) == f"line 4: expected 2 or 3 tab-separated fields, got {n_fields}"
        assert info.value.line_no == 4


class TestLoadItemFeatures:
    def test_pairs_in_file_order(self, tmp_path):
        p = write(tmp_path, "f.tsv", "i2\tf1\ni1\tf2\ni2\tf1\n")
        assert load_item_features(p) == [("i2", "f1"), ("i1", "f2"), ("i2", "f1")]

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        p = write(tmp_path, "f.tsv", "# item\tfeature\n\ni1\tf1\n\n#i2\tf2\ni2\tf3")
        assert load_item_features(p) == [("i1", "f1"), ("i2", "f3")]

    @pytest.mark.parametrize("line, n_fields", [("i2", 1), ("i2\tf2\t1", 3), (" ", 1)])
    def test_wrong_field_count(self, tmp_path, line, n_fields):
        p = write(tmp_path, "f.tsv", f"i1\tf1\n\n# c\n{line}\ni3\tf3\n")
        with pytest.raises(ParseError) as info:
            load_item_features(p)
        assert str(info.value) == f"line 4: expected 2 tab-separated fields, got {n_fields}"
        assert info.value.line_no == 4


class TestBuildDataset:
    def test_union_item_space(self, tmp_path):
        inter = [("u1", "i1", 1.0)]
        feats = [("i1", "f1"), ("i2", "f1")]
        ds = build_dataset(inter, feats)
        assert ds.n_items == 2
        assert ds.n_users == 1
        assert ds.n_features == 1
        assert ds.icm.nnz == 2

    def test_no_features(self):
        with pytest.raises(EmptyDataset, match="no item features"):
            build_dataset([("u1", "i1", 1.0)], [])

    def test_feature_pairs_deduplicated(self):
        ds = build_dataset([("u", "i", 1.0)], [("i", "f"), ("i", "f")])
        assert list(ds.icm.triplets()) == [(0, 0, 1.0)]


class TestPreprocess:
    def test_zero_thresholds_identity(self):
        ds = random_dataset(np.random.default_rng(0))
        out = preprocess(ds, 0, 0, 0)
        assert out.urm == ds.urm and out.icm == ds.icm
        assert out.user_ids == ds.user_ids

    def test_empty_dataset(self):
        ds = build_dataset([("u1", "i1", 1.0)], [("i1", "f1")])
        with pytest.raises(EmptyDataset):
            preprocess(ds, min_user_interactions=5)

    def test_fixed_point(self):
        ds = random_dataset(np.random.default_rng(1))
        out = preprocess(ds, 2, 2, 1)
        again = preprocess(out, 2, 2, 1)
        assert again.urm == out.urm and again.icm == out.icm


class TestColdItemSplit:
    def test_zero_quotas_all_train(self):
        ds = random_dataset(np.random.default_rng(2))
        split = cold_item_split(ds, 0.0, 0.0, seed=3)
        assert split.train == ds.urm
        assert split.test.nnz == 0 and split.validation.nnz == 0

    def test_counting_argument(self):
        # 4 items x 25 interactions each; test_quota 0.5 -> exactly 2 items
        urm = SparseMatrix.from_dense(np.ones((25, 4)))
        icm = SparseMatrix.from_dense(np.ones((4, 1)))
        ds = Dataset(urm, icm, tuple(f"u{k}" for k in range(25)),
                     ("a", "b", "c", "d"), ("f",))
        for seed in range(5):
            split = cold_item_split(ds, 0.5, 0.0, seed=seed)
            assert len(split.cold_test_items) == 2

    def test_determinism(self):
        ds = random_dataset(np.random.default_rng(4))
        s1 = cold_item_split(ds, 0.2, 0.1, seed=11)
        s2 = cold_item_split(ds, 0.2, 0.1, seed=11)
        assert s1.cold_test_items == s2.cold_test_items
        assert s1.train == s2.train

    def test_partition_and_disjoint_columns(self):
        ds = random_dataset(np.random.default_rng(5), density=0.5)
        split = cold_item_split(ds, 0.2, 0.1, seed=6)
        summed = split.train + split.validation + split.test
        assert summed == ds.urm
        train_cols = set(np.flatnonzero(split.train.col_nnz() > 0))
        val_cols = set(np.flatnonzero(split.validation.col_nnz() > 0))
        test_cols = set(np.flatnonzero(split.test.col_nnz() > 0))
        assert not (test_cols & (train_cols | val_cols))
        assert not (val_cols & train_cols)

    def test_round_trip_persistence(self, tmp_path):
        ds = random_dataset(np.random.default_rng(6))
        split = cold_item_split(ds, 0.2, 0.1, seed=7)
        save_cold_split(split, tmp_path, seed=7, test_quota=0.2, validation_quota=0.1)
        loaded = load_cold_split(tmp_path)
        assert loaded.train == split.train
        assert loaded.cold_test_items == split.cold_test_items

    def test_dominant_item_is_infeasible(self):
        # one item holds 90% of interactions; train cannot reach its share
        dense = np.zeros((20, 3))
        dense[:18, 0] = 1.0
        dense[0, 1] = 1.0
        dense[1, 2] = 1.0
        urm = SparseMatrix.from_dense(dense)
        icm = SparseMatrix.from_dense(np.ones((3, 1)))
        ds = Dataset(urm, icm, tuple(f"u{k}" for k in range(20)),
                     ("a", "b", "c"), ("f",))
        from qubofs.errors import QuotaInfeasible

        with pytest.raises(QuotaInfeasible):
            cold_item_split(ds, 0.2, 0.1, seed=0)


class TestUserHoldout:
    def test_zero_quota(self):
        m = SparseMatrix.from_dense(np.ones((3, 5)))
        split = user_holdout_split(m, 0.0, seed=0)
        assert split.validation.nnz == 0
        assert split.train == m

    def test_floor_arithmetic(self):
        m = SparseMatrix.from_dense(np.ones((1, 10)))
        split = user_holdout_split(m, 0.1, seed=1)
        assert split.validation.nnz == 1
        assert split.train.nnz == 9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
    def test_conservation(self, seed, quota):
        rng = np.random.default_rng(seed)
        m = SparseMatrix.from_dense((rng.random((8, 12)) < 0.4).astype(float))
        split = user_holdout_split(m, quota, seed=seed)
        assert split.train.nnz + split.validation.nnz == m.nnz
        assert split.train + split.validation == m


class TestSynthPlanted:
    def test_no_noise_all_preferred(self):
        ds, planted = synth_planted(20, 30, 10, 3, 5, 0.0, seed=0)
        carries = ds.icm.to_dense() > 0
        for u in range(ds.n_users):
            cols, _ = ds.urm.row_entries(u)
            hit_any_planted = [
                any(carries[i, f] for f in planted) for i in cols
            ]
            assert all(hit_any_planted)

    def test_all_features_planted(self):
        ds, planted = synth_planted(5, 10, 4, 4, 3, 0.0, seed=1)
        assert planted == frozenset(range(4))

    def test_acceptance_scale_invariants(self):
        ds, planted = synth_planted(200, 150, 40, 8, 30, 0.1, seed=7)
        assert ds.n_users == 200 and ds.n_items == 150 and ds.n_features == 40
        assert len(planted) == 8
        # weighted count of interactions landing on the preferred feature
        carries = ds.icm.to_dense() > 0
        total = 0.0
        hits = 0.0
        # recompute preference as the planted feature most interacted with
        for u in range(ds.n_users):
            cols, vals = ds.urm.row_entries(u)
            mass = {f: 0.0 for f in planted}
            for i, v in zip(cols, vals):
                for f in planted:
                    if carries[i, f]:
                        mass[f] += v
            pref = max(mass, key=lambda f: mass[f])
            for i, v in zip(cols, vals):
                total += v
                if carries[i, pref]:
                    hits += v
        assert hits / total >= 0.90

    def test_determinism(self):
        a, pa = synth_planted(10, 20, 8, 2, 4, 0.2, seed=5)
        b, pb = synth_planted(10, 20, 8, 2, 4, 0.2, seed=5)
        assert pa == pb and a.urm == b.urm and a.icm == b.icm

    def test_infeasible(self):
        with pytest.raises(InfeasibleConfig):
            synth_planted(5, 5, 3, 4, 2, 0.0)
