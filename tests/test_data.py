import tracemalloc

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
        assert list(load_interactions(p, "explicit")) == [("u1", "i1", 4.0)]

    def test_implicit_forces_one(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\t4\n")
        assert list(load_interactions(p, "implicit")) == [("u1", "i1", 1.0)]

    def test_default_value(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\n")
        assert list(load_interactions(p)) == [("u1", "i1", 1.0)]

    def test_comments_skipped(self, tmp_path):
        p = write(tmp_path, "r.tsv", "# header\nu1\ti1\t2\n")
        assert list(load_interactions(p)) == [("u1", "i1", 2.0)]

    def test_parse_error_line_number(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\t2\nu2\ti2\tnope\n")
        with pytest.raises(ParseError, match="line 2"):
            list(load_interactions(p))

    def test_negative_value(self, tmp_path):
        p = write(tmp_path, "r.tsv", "u1\ti1\t-1\n")
        with pytest.raises(NegativeValue):
            list(load_interactions(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        p = write(tmp_path, "r.tsv", f"u1\ti1\t2\nu2\ti2\t{value}\n")
        with pytest.raises(ParseError, match="line 2"):
            list(load_interactions(p))

    @pytest.mark.parametrize("line, n_fields", [("u2", 1), ("u2\ti2\t1\tx", 4), (" ", 1)])
    def test_wrong_field_count(self, tmp_path, line, n_fields):
        """Blank lines and comments still count toward the line number."""
        p = write(tmp_path, "r.tsv", f"u1\ti1\t2\n\n# c\n{line}\nu3\ti3\n")
        with pytest.raises(ParseError) as info:
            list(load_interactions(p))
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


def dataset_of_lists(interactions: list[tuple[str, str, float]],
                     item_features: list[tuple[str, str]]) -> Dataset:
    """The dataset as once built from parsed lists: sorted label sets, label
    dictionaries and one triplet list per matrix."""
    users = sorted({u for u, _, _ in interactions})
    items = sorted({i for _, i, _ in interactions} | {i for i, _ in item_features})
    features = sorted({f for _, f in item_features})
    if not users or not items:
        raise EmptyDataset("no users or items")
    if not features:
        raise EmptyDataset("no item features")
    u_index = {u: k for k, u in enumerate(users)}
    i_index = {i: k for k, i in enumerate(items)}
    f_index = {f: k for k, f in enumerate(features)}
    urm = SparseMatrix.from_triplets(len(users), len(items),
                                     [(u_index[u], i_index[i], v) for u, i, v in interactions])
    icm_pairs = {(i_index[i], f_index[f]) for i, f in item_features}
    icm = SparseMatrix.from_triplets(len(items), len(features),
                                     [(i, f, 1.0) for i, f in sorted(icm_pairs)])
    return Dataset(urm, icm, tuple(users), tuple(items), tuple(features))


def random_tsvs(tmp_path, rng, n_lines):
    """Interaction and feature TSVs with comments, blank lines, repeated
    (user, item) lines, 2-field lines, values that sum inexactly, labels
    whose sorted order is not their first-seen order, and items that only
    the features file names."""
    lines = []
    for _ in range(n_lines):
        kind = rng.integers(0, 10)
        if kind == 0:
            lines.append("# a comment\tu1\ti1" if rng.random() < 0.5 else "")
            continue
        user, item = f"u{rng.integers(0, 12)}", f"i{rng.integers(0, 15)}"
        lines.append(f"{user}\t{item}" if kind == 1 else
                     f"{user}\t{item}\t{float(rng.choice([0.1, 0.2, 0.3, 1e16, 1.0, 0.0, 7.25]))!r}")
    features = [f"i{i}\tf{rng.integers(0, 5)}" for i in rng.integers(0, 20, size=25)]
    return (write(tmp_path, "r.tsv", "\n".join(lines) + "\n"),
            write(tmp_path, "f.tsv", "# item\tfeature\n\n" + "\n".join(features)))


def assert_same_dataset(got: Dataset, want: Dataset) -> None:
    assert (got.user_ids, got.item_ids, got.feature_ids) == (want.user_ids, want.item_ids,
                                                             want.feature_ids)
    for m, expected in ((got.urm, want.urm), (got.icm, want.icm)):
        assert m.shape == expected.shape
        for array, expected_array in zip((m.indptr, m.indices, m.data),
                                         (expected.indptr, expected.indices, expected.data)):
            assert array.dtype == expected_array.dtype
            assert array.tobytes() == expected_array.tobytes()


class TestBuildDataset:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_streamed_parse_matches_the_parsed_lists(self, tmp_path, seed, mode):
        interactions, features = random_tsvs(tmp_path, np.random.default_rng(seed), 200)
        got = build_dataset(load_interactions(interactions, mode), load_item_features(features))
        want = dataset_of_lists(list(load_interactions(interactions, mode)),
                                load_item_features(features))
        assert_same_dataset(got, want)
        assert got.n_items > len({line.split("\t")[1] for line in interactions.read_text().splitlines()
                                  if line and not line.startswith("#")})

    @pytest.mark.parametrize("line, error, message", [
        ("u2\ti2\tnope", ParseError, "line 5: bad value 'nope'"),
        ("u2\ti2\tinf", ParseError, "line 5: non-finite value 'inf'"),
        ("u2\ti2\t-1", NegativeValue, "line 5: negative value -1.0"),
        ("u2\ti2\t1\tx", ParseError, "line 5: expected 2 or 3 tab-separated fields, got 4"),
    ])
    def test_bad_line_stops_the_build_naming_it(self, tmp_path, line, error, message):
        interactions = write(tmp_path, "r.tsv", f"u1\ti1\t2\n\n# c\nu0\ti1\n{line}\nu3\ti3\n")
        features = write(tmp_path, "f.tsv", "i1\tf1\n")
        with pytest.raises(error) as info:
            build_dataset(load_interactions(interactions), load_item_features(features))
        assert str(info.value) == message

    def test_parse_peak_per_line(self, tmp_path):
        """Reading the lines as they are parsed holds each line as a code pair
        and a value (16 bytes) until the canonical matrix is built, which
        peaks at about 80 bytes a line; building from a list of the parsed
        lines peaks at about 340."""
        n_users, n_items, per_user = 1000, 400, 40
        rng = np.random.default_rng(3)
        items = rng.integers(0, n_items, size=(n_users, per_user))
        interactions = write(tmp_path, "r.tsv", "".join(
            f"u{u}\ti{i}\t{1 + (u + i) % 5}\n" for u in range(n_users) for i in items[u]))
        features = write(tmp_path, "f.tsv", "".join(f"i{i}\tf{i % 9}\n" for i in range(n_items)))
        tracemalloc.start()
        try:
            ds = build_dataset(load_interactions(interactions), load_item_features(features))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n_users == n_users and ds.urm.nnz <= n_users * per_user
        assert peak < 100 * n_users * per_user

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
        assert np.array_equal(s1.cold_test_items, s2.cold_test_items)
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
        """The sidecar holds the cold items alone; loading it takes the same
        columns of the interactions that the split took."""
        ds = random_dataset(np.random.default_rng(6))
        split = cold_item_split(ds, 0.2, 0.1, seed=7)
        path = tmp_path / "split.json"
        save_cold_split(split, path, seed=7, test_quota=0.2, validation_quota=0.1)
        # all three matrices and both item arrays
        loaded = load_cold_split(ds.urm, path)
        assert (loaded.train, loaded.validation, loaded.test) == (split.train, split.validation, split.test)
        assert np.array_equal(loaded.cold_test_items, split.cold_test_items)
        assert np.array_equal(loaded.cold_validation_items, split.cold_validation_items)

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
            cols = ds.urm.indices[ds.urm.indptr[u]:ds.urm.indptr[u + 1]]
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
            lo, hi = ds.urm.indptr[u], ds.urm.indptr[u + 1]
            cols, vals = ds.urm.indices[lo:hi], ds.urm.data[lo:hi]
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
