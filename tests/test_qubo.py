import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofs.errors import DimensionMismatch, ParseError
from qubofs.qubo import (
    QuboProblem,
    _positive_support,
    assemble_qubo,
    build_fpm,
    build_ipm,
    build_penalization,
    load_qubo,
    save_qubo,
)
from qubofs.solvers import energy, solve_exhaustive
from qubofs.sparse import ZERO_EPSILON, SparseMatrix
from test_solvers import combination_penalty


def sym_pair(n, entries):
    """Sparse symmetric matrix from {(i, j): value} over unordered pairs."""
    triplets = []
    for (i, j), v in entries.items():
        triplets.append((i, j, v))
        if i != j:
            triplets.append((j, i, v))
    return SparseMatrix.from_triplets(n, n, triplets)


def fpm_oracle(icm: np.ndarray, ipm: np.ndarray) -> np.ndarray:
    n_features = icm.shape[1]
    out = np.zeros((n_features, n_features))
    for f in range(n_features):
        for g in range(n_features):
            total = 0.0
            for i in range(icm.shape[0]):
                for j in range(icm.shape[0]):
                    total += icm[i, f] * icm[j, g] * ipm[i, j]
            out[f, g] = total
    return out


def composed_penalization(s_cf: SparseMatrix, s_cbf: SparseMatrix) -> SparseMatrix:
    """The classification as once composed: both symmetrised positive
    supports in full, summed as cf + 2 * cbf, where 3 codes keep (-1), 2
    eliminate (+1) and 1 no signal."""
    cbf = _positive_support(s_cbf)
    code = _positive_support(s_cf) + cbf.with_entries(values=cbf.data * 2.0)
    values = code.entries()[2]
    return code.with_entries(values != 1.0, np.where(values == 3.0, -1.0, 1.0))


def random_similarity(rng, n, density) -> SparseMatrix:
    """An asymmetric n x n similarity whose entries are positive, negative,
    exactly ``ZERO_EPSILON`` (stored but not positive) or below it (dropped)."""
    mask = rng.random((n, n)) < density
    values = rng.choice([0.7, 2.5, -0.4, ZERO_EPSILON, ZERO_EPSILON / 2], size=(n, n)) * mask
    return SparseMatrix.from_dense(np.where(values > ZERO_EPSILON, values * rng.random((n, n)), values))


class TestBuildPenalization:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_composed_supports(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        s_cf, s_cbf = (random_similarity(rng, n, rng.choice([0.0, 0.05, 0.3, 0.9])) for _ in range(2))
        got, expected = build_penalization(s_cf, s_cbf), composed_penalization(s_cf, s_cbf)
        assert got == expected
        assert [a.dtype for a in (got.indptr, got.indices, got.data)] == \
               [a.dtype for a in (expected.indptr, expected.indices, expected.data)]
        assert got == got.transpose() and np.all(np.abs(got.data) == 1.0)

    def test_peak_follows_the_content_support(self):
        """The collaborative entries cost their sorted keys (8 bytes each
        and a copy of the positive ones), not a symmetrised copy of the
        collaborative support as the composed classification makes."""
        rng = np.random.default_rng(5)
        n, per_row = 3000, 60
        # per_row ascending columns in each row, one in each stride of n / per_row
        cols = np.arange(per_row) * (n // per_row) + rng.integers(0, n // per_row, size=(n, 1))
        s_cf = SparseMatrix._canonical((n, n), np.repeat(np.arange(n), per_row), cols.ravel(),
                                       rng.random(n * per_row) + 0.1)
        s_cbf = SparseMatrix.from_triplets(n, n, [(i, (i * 7 + 1) % n, 1.0) for i in range(n)])
        tracemalloc.start()
        try:
            pm = build_penalization(s_cf, s_cbf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pm.nnz == 2 * n
        assert peak < 18 * s_cf.nnz + 200 * 2 * n

    def test_both_positive_goes_to_keep(self):
        s_cf = sym_pair(2, {(0, 1): 0.7})
        s_cbf = sym_pair(2, {(0, 1): 0.7})
        pm = build_penalization(s_cf, s_cbf)
        assert np.array_equal(pm.to_dense(), [[0, -1], [-1, 0]])

    def test_content_only_goes_to_eliminate(self):
        s_cf = SparseMatrix.from_triplets(2, 2, [])
        s_cbf = sym_pair(2, {(0, 1): 0.7})
        pm = build_penalization(s_cf, s_cbf)
        assert np.array_equal(pm.to_dense(), [[0, 1], [1, 0]])

    def test_collaborative_only_is_silent(self):
        s_cf = sym_pair(2, {(0, 1): 0.5})
        s_cbf = SparseMatrix.from_triplets(2, 2, [])
        pm = build_penalization(s_cf, s_cbf)
        assert pm.nnz == 0 and pm.shape == (2, 2)

    def test_both_empty(self):
        pm = build_penalization(SparseMatrix.from_triplets(3, 3, []), SparseMatrix.from_triplets(3, 3, []))
        assert pm.nnz == 0 and pm.shape == (3, 3)

    def test_asymmetric_input_symmetrized(self):
        s_cf = SparseMatrix.from_triplets(3, 3, [(0, 1, 0.9)])  # one direction only
        s_cbf = SparseMatrix.from_triplets(3, 3, [(1, 0, 0.4)])  # other direction
        pm = build_penalization(s_cf, s_cbf)
        assert np.array_equal(
            pm.to_dense(), [[0, -1, 0], [-1, 0, 0], [0, 0, 0]]
        )

    def test_negative_similarity_counts_as_absent(self):
        s_cf = sym_pair(2, {(0, 1): -0.8})
        s_cbf = sym_pair(2, {(0, 1): 0.8})
        pm = build_penalization(s_cf, s_cbf)
        assert np.array_equal(pm.to_dense(), [[0, 1], [1, 0]])

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        a = SparseMatrix.from_dense((rng.random((6, 6)) < 0.3) * rng.random((6, 6)))
        b = SparseMatrix.from_dense((rng.random((6, 6)) < 0.3) * rng.random((6, 6)))
        pm1 = build_penalization(a, b)
        pm2 = build_penalization(a.with_entries(values=a.data * 7.0), b.with_entries(values=b.data * 0.003))
        assert pm1 == pm2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_penalization(SparseMatrix.from_triplets(2, 2, []), SparseMatrix.from_triplets(3, 3, []))


class TestBuildIpm:
    def test_keep_only(self):
        ipm = build_ipm(sym_pair(2, {(0, 1): -1.0}), alpha=1.0, beta=0.1)
        assert np.array_equal(ipm.to_dense(), [[0, -1], [-1, 0]])

    def test_eliminate_only(self):
        ipm = build_ipm(sym_pair(2, {(0, 1): 1.0}), alpha=1.0, beta=0.1)
        assert np.allclose(ipm.to_dense(), [[0, 0.1], [0.1, 0]])

    def test_beta_zero_support_equals_keep(self):
        pairs = sym_pair(3, {(0, 1): -1.0, (1, 2): 1.0})
        ipm = build_ipm(pairs, alpha=2.0, beta=0.0)
        assert np.array_equal(ipm.to_dense(), 2.0 * np.minimum(pairs.to_dense(), 0.0))

    def test_supports_disjoint_union(self):
        pairs = sym_pair(4, {(0, 1): -1.0, (2, 3): -1.0, (1, 2): 1.0})
        ipm = build_ipm(pairs, alpha=1.0, beta=0.5)
        assert ipm.nnz == pairs.nnz

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        *(st.one_of(st.sampled_from([0.0, ZERO_EPSILON / 2, ZERO_EPSILON, 1.0, 0.1, 1 / 3, 2.7]),
                    st.floats(0.0, 100.0)) for _ in range(2)),
    )
    def test_equals_the_weighted_sum_of_the_halves(self, seed, alpha, beta):
        """Bit for bit, the sum of the kept half scaled by alpha and the
        eliminated half scaled by beta, as the classification was once
        weighted: the same values, order and ``ZERO_EPSILON`` drop."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        s_cf, s_cbf = (random_similarity(rng, n, rng.choice([0.0, 0.1, 0.5])) for _ in range(2))
        pairs = build_penalization(s_cf, s_cbf)
        keep, eliminate = pairs.with_entries(pairs.data < 0.0), pairs.with_entries(pairs.data > 0.0)
        want = keep.with_entries(values=keep.data * alpha) + eliminate.with_entries(values=eliminate.data * beta)
        got = build_ipm(pairs, alpha, beta)
        assert got.shape == want.shape
        for a, b in zip((got.indptr, got.indices, got.data), (want.indptr, want.indices, want.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBuildFpm:
    def test_identity_conjugation(self):
        ipm = SparseMatrix.from_dense([[0, -1], [-1, 0]])
        fpm = build_fpm(SparseMatrix.from_dense(np.eye(2)), ipm)
        assert fpm == ipm

    def test_hand_example(self):
        icm = SparseMatrix.from_dense([[1, 1], [0, 1]])
        ipm = SparseMatrix.from_dense([[0, -1], [-1, 0]])
        fpm = build_fpm(icm, ipm)
        assert np.array_equal(fpm.to_dense(), [[0, -1], [-1, -2]])

    def test_random_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n_items = int(rng.integers(2, 31))
            n_features = int(rng.integers(1, 11))
            icm = (rng.random((n_items, n_features)) < 0.3).astype(float)
            ipm = rng.integers(-2, 3, size=(n_items, n_items)).astype(float)
            ipm = np.triu(ipm, 1)
            ipm = ipm + ipm.T
            fpm = build_fpm(SparseMatrix.from_dense(icm), SparseMatrix.from_dense(ipm))
            assert np.array_equal(fpm.to_dense(), fpm_oracle(icm, ipm))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_fpm(SparseMatrix.from_triplets(3, 2, []), SparseMatrix.from_triplets(2, 2, []))
        with pytest.raises(DimensionMismatch):
            build_fpm(SparseMatrix.from_triplets(3, 2, []), SparseMatrix.from_triplets(3, 4, []))


class TestCombinationPenalty:
    def test_on_target_is_zero(self):
        p = combination_penalty(3, 2.0, 1.0)
        assert abs(energy(p, np.array([1, 1, 0]))) <= 1e-12

    def test_hand_expansion(self):
        p = combination_penalty(3, 2.0, 1.0)
        assert abs(energy(p, np.array([1, 1, 1])) - 1.0) <= 1e-12

    def test_all_zero_gives_offset(self):
        p = combination_penalty(3, 2.0, 1.0)
        assert abs(energy(p, np.zeros(3)) - 4.0) <= 1e-12
        assert p.offset == 4.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 10),
        st.floats(0.0, 10.0),
        st.floats(0.0, 100.0),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_squared_count_everywhere(self, n, k_target, s, seed):
        p = combination_penalty(n, k_target, s)
        rng = np.random.default_rng(seed)
        x = (rng.random(n) < 0.5).astype(float)
        direct = s * (x.sum() - k_target) ** 2
        assert abs(energy(p, x) - direct) <= 1e-9 * max(1.0, abs(direct))


class TestAssemble:
    def test_zero_strength_is_pure_fpm(self):
        fpm = SparseMatrix.from_dense([[0, -1], [-1, -2]])
        problem = assemble_qubo(fpm, 0.5, 0.0)
        assert np.array_equal(problem.q, fpm.to_dense())
        assert problem.offset == 0.0

    def test_zero_fpm_is_pure_penalty(self):
        fpm = SparseMatrix.from_triplets(3, 3, [])
        problem = assemble_qubo(fpm, 2 / 3, 5.0)
        penalty = combination_penalty(3, 2.0, 5.0)
        assert np.array_equal(problem.q, penalty.q)
        assert problem.offset == penalty.offset

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 59),
        st.one_of(st.sampled_from([0.2, 1 / 3, 0.95, 1.0]), st.floats(1e-6, 1.0)),
        st.one_of(st.sampled_from([0.0, 0.1, 1.0, 10.0, 1e4]), st.floats(0.0, 1e6), st.integers(0, 100)),
        st.sampled_from([1e-3, 1 / 3, 3.7]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_symmetrised_fpm_plus_the_penalty(self, n, p, s, scale, seed):
        """Q and the offset are bit for bit the symmetrised F plus the
        penalty built as its own problem."""
        rng = np.random.default_rng(seed)
        fpm = SparseMatrix.from_dense(rng.integers(-3, 4, size=(n, n)) * scale)
        problem = assemble_qubo(fpm, p, s)
        dense = fpm.to_dense()
        penalty = combination_penalty(n, p * n, s)
        assert problem.q.tobytes() == ((dense + dense.T) / 2.0 + penalty.q).tobytes()
        assert problem.offset == penalty.offset

    def test_exhaustive_four_assignments(self):
        fpm = SparseMatrix.from_dense([[0, -1], [-1, -2]])
        problem = assemble_qubo(fpm, 0.5, 10.0)
        dense_fpm = fpm.to_dense()
        for bits in itertools.product([0, 1], repeat=2):
            x = np.array(bits, dtype=float)
            expected = x @ dense_fpm @ x + 10.0 * (x.sum() - 1.0) ** 2
            assert abs(energy(problem, x) - expected) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_energy_identity_exhaustive(self, n_features, seed):
        rng = np.random.default_rng(seed)
        fpm_dense = rng.integers(-3, 4, size=(n_features, n_features)).astype(float)
        fpm = SparseMatrix.from_dense(fpm_dense)
        rng.uniform(0, 1)  # beta: assemble_qubo takes none, drawn to keep the instances
        p = float(rng.uniform(0.1, 1.0))
        s = float(rng.uniform(0, 20))
        problem = assemble_qubo(fpm, p, s)
        k_target = p * n_features
        for bits in itertools.product([0, 1], repeat=n_features):
            x = np.array(bits, dtype=float)
            expected = x @ fpm_dense @ x + s * (x.sum() - k_target) ** 2
            assert abs(energy(problem, x) - expected) <= 1e-9

    def test_fpm_diag_nonpositive_when_beta_zero(self):
        rng = np.random.default_rng(2)
        icm = SparseMatrix.from_dense((rng.random((12, 5)) < 0.4).astype(float))
        cf = SparseMatrix.from_dense((rng.random((12, 12)) < 0.3) * 1.0).zero_diagonal()
        cbf = SparseMatrix.from_dense((rng.random((12, 12)) < 0.3) * 1.0).zero_diagonal()
        pm = build_penalization(cf, cbf)
        fpm = build_fpm(icm, build_ipm(pm, alpha=1.5, beta=0.0))
        assert np.all(np.diagonal(fpm.to_dense()) <= 0)

    def test_penalty_dominance_forces_count(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 13))
            fpm_dense = rng.uniform(-1, 1, size=(n, n))
            fpm_dense = (fpm_dense + fpm_dense.T) / 2
            fpm = SparseMatrix.from_dense(fpm_dense)
            m = int(rng.integers(1, n + 1))
            p = m / n
            problem = assemble_qubo(fpm, p, 2.0 * np.abs(fpm.to_dense()).sum() + 1.0)
            result = solve_exhaustive(problem)
            assert int(result.x.sum()) == round(p * n)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        fpm = SparseMatrix.from_dense([[0, -1], [-1, -2]])
        with pytest.raises(ValueError):
            assemble_qubo(fpm, 0.0, 1.0)
        with pytest.raises(ValueError):
            assemble_qubo(fpm, 1.5, 1.0)
        with pytest.raises(ValueError):
            assemble_qubo(fpm, 0.5, -0.1)


class TestConversionAndPersistence:
    def test_round_trip(self, tmp_path):
        """The files hold the penalization and exactly p and s, and a load
        is ``assemble_qubo`` of them, bit for bit; the penalization need not
        be symmetric, as ``assemble_qubo`` symmetrises it."""
        rng = np.random.default_rng(5)
        fpm = SparseMatrix.from_dense(rng.uniform(-1, 1, size=(4, 4)) * (rng.random((4, 4)) < 0.6))
        assert fpm != fpm.transpose()
        save_qubo(fpm, 0.5, 1.25, tmp_path / "q.coo", tmp_path / "q.json")
        assert SparseMatrix.load_coo(tmp_path / "q.coo") == fpm
        assert json.loads((tmp_path / "q.json").read_text()) == {"p": 0.5, "s": 1.25}
        loaded, built = load_qubo(tmp_path / "q.coo", tmp_path / "q.json"), assemble_qubo(fpm, 0.5, 1.25)
        assert np.array_equal(loaded.q, built.q)
        assert loaded.offset == built.offset

    def test_tiny_strength_loads_as_built(self, tmp_path):
        """A count penalty of s = 1e-13 puts coefficients below
        ``ZERO_EPSILON`` on entries that the penalization leaves zero; the
        loaded problem keeps them, and with them the energies."""
        fpm = SparseMatrix.from_dense([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        built = assemble_qubo(fpm, 0.5, 1e-13)
        assert built.q[0, 2] == built.q[1, 2] == 1e-13
        assert np.all(built.q.diagonal() == -2e-13)
        save_qubo(fpm, 0.5, 1e-13, tmp_path / "q.coo", tmp_path / "q.json")
        loaded = load_qubo(tmp_path / "q.coo", tmp_path / "q.json")
        assert np.array_equal(loaded.q, built.q)
        assert loaded.offset == built.offset == 1e-13 * 1.5**2
        x = np.array([0, 0, 1])
        assert energy(loaded, x) == energy(built, x) == pytest.approx(2.5e-14, rel=1e-9)

    @pytest.mark.parametrize("edit", [
        {"s": "abc"}, {"s": None}, {"s": [1]}, {"s": True},
        {"s": float("nan")}, {"s": float("inf")}, {"s": 10 ** 400}, {"s": -0.5},
        {"p": "0.5"}, {"p": float("nan")}, {"p": 0}, {"p": 1.5}, {"p": None},
    ], ids=["offset a string", "offset null", "offset a list", "offset a bool", "offset NaN",
            "offset infinite", "offset beyond float range", "s negative",
            "p a string", "p NaN", "p zero", "p above one", "p null"])
    def test_bad_sidecar_is_parse_error(self, tmp_path, edit):
        """A sidecar whose p or s is not a finite number in ``assemble_qubo``'s
        range is a ParseError naming it, not a TypeError, ValueError or
        unnamed NonFinite. The cases named after the offset put their value
        in s, from which the offset s * k^2 is built."""
        save_qubo(SparseMatrix.from_dense(np.eye(4)), 0.5, 2.0, tmp_path / "q.coo", tmp_path / "q.json")
        sidecar = json.loads((tmp_path / "q.json").read_text())
        (tmp_path / "q.json").write_text(json.dumps({**sidecar, **edit}))
        with pytest.raises(ParseError, match=re.escape(str(tmp_path / "q.json"))):
            load_qubo(tmp_path / "q.coo", tmp_path / "q.json")

    def test_older_assembled_qubo_is_parse_error(self, tmp_path):
        """An older run's files, the assembled Q and a sidecar of its n and
        offset, are a ParseError naming the sidecar that says to delete the
        grid points, so that a dense Q is never read as a penalization."""
        problem = assemble_qubo(SparseMatrix.from_dense(np.eye(4)), 0.5, 2.0)
        SparseMatrix.from_dense(problem.q).save_coo(tmp_path / "q.coo")
        (tmp_path / "q.json").write_text(json.dumps(
            {"n": 4, "offset": problem.offset, "convention": "symmetric"}))
        with pytest.raises(ParseError, match=re.escape(str(tmp_path / "q.json")) + ".*delete qubo/grid_"):
            load_qubo(tmp_path / "q.coo", tmp_path / "q.json")

    def test_size_other_than_n_is_parse_error(self, tmp_path):
        """A penalization that is not n x n, given ``n``, or not square is a
        ParseError naming it; one of that size loads."""
        save_qubo(SparseMatrix.from_dense(np.eye(4)), 0.5, 1.0, tmp_path / "q.coo", tmp_path / "q.json")
        assert load_qubo(tmp_path / "q.coo", tmp_path / "q.json", 4).n == 4
        with pytest.raises(ParseError, match=re.escape(str(tmp_path / "q.coo"))):
            load_qubo(tmp_path / "q.coo", tmp_path / "q.json", 5)
        SparseMatrix.from_dense(np.ones((4, 3))).save_coo(tmp_path / "q.coo")
        with pytest.raises(ParseError, match=re.escape(str(tmp_path / "q.coo"))):
            load_qubo(tmp_path / "q.coo", tmp_path / "q.json")

    def test_int_offset_loads_as_float(self, tmp_path):
        """A p and an s stored as JSON integers are finite numbers: the
        problem's offset s * k^2 is a float all the same."""
        save_qubo(SparseMatrix.from_dense(np.eye(2)), 1, 3, tmp_path / "q.coo", tmp_path / "q.json")
        loaded = load_qubo(tmp_path / "q.coo", tmp_path / "q.json")
        assert type(loaded.offset) is float and loaded.offset == 12.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuboProblem(q=np.array([[0.0, 1.0], [0.5, 0.0]]))
