import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofs.errors import DimensionMismatch
from qubofs.qubo import (
    PenalizationMatrices,
    QuboProblem,
    assemble_qubo,
    build_fpm,
    build_ipm,
    build_penalization,
    combination_penalty,
    load_qubo,
    save_qubo,
)
from qubofs.solvers import energy, solve_exhaustive
from qubofs.sparse import SparseMatrix


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


class TestBuildPenalization:
    def test_both_positive_goes_to_keep(self):
        s_cf = sym_pair(2, {(0, 1): 0.7})
        s_cbf = sym_pair(2, {(0, 1): 0.7})
        pm = build_penalization(s_cf, s_cbf)
        assert np.array_equal(pm.keep.to_dense(), [[0, -1], [-1, 0]])
        assert pm.eliminate.nnz == 0

    def test_content_only_goes_to_eliminate(self):
        s_cf = SparseMatrix.from_triplets(2, 2, [])
        s_cbf = sym_pair(2, {(0, 1): 0.7})
        pm = build_penalization(s_cf, s_cbf)
        assert pm.keep.nnz == 0
        assert np.array_equal(pm.eliminate.to_dense(), [[0, 1], [1, 0]])

    def test_collaborative_only_is_silent(self):
        s_cf = sym_pair(2, {(0, 1): 0.5})
        s_cbf = SparseMatrix.from_triplets(2, 2, [])
        pm = build_penalization(s_cf, s_cbf)
        assert pm.keep.nnz == 0 and pm.eliminate.nnz == 0

    def test_both_empty(self):
        pm = build_penalization(SparseMatrix.from_triplets(3, 3, []), SparseMatrix.from_triplets(3, 3, []))
        assert pm.keep.nnz == 0 and pm.eliminate.nnz == 0

    def test_asymmetric_input_symmetrized(self):
        s_cf = SparseMatrix.from_triplets(3, 3, [(0, 1, 0.9)])  # one direction only
        s_cbf = SparseMatrix.from_triplets(3, 3, [(1, 0, 0.4)])  # other direction
        pm = build_penalization(s_cf, s_cbf)
        assert np.array_equal(
            pm.keep.to_dense(), [[0, -1, 0], [-1, 0, 0], [0, 0, 0]]
        )

    def test_negative_similarity_counts_as_absent(self):
        s_cf = sym_pair(2, {(0, 1): -0.8})
        s_cbf = sym_pair(2, {(0, 1): 0.8})
        pm = build_penalization(s_cf, s_cbf)
        assert pm.keep.nnz == 0
        assert pm.eliminate.nnz == 2

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        a = SparseMatrix.from_dense((rng.random((6, 6)) < 0.3) * rng.random((6, 6)))
        b = SparseMatrix.from_dense((rng.random((6, 6)) < 0.3) * rng.random((6, 6)))
        pm1 = build_penalization(a, b)
        pm2 = build_penalization(a.scale(7.0), b.scale(0.003))
        assert pm1.keep == pm2.keep and pm1.eliminate == pm2.eliminate

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_penalization(SparseMatrix.from_triplets(2, 2, []), SparseMatrix.from_triplets(3, 3, []))


class TestBuildIpm:
    def test_keep_only(self):
        pm = PenalizationMatrices(sym_pair(2, {(0, 1): -1.0}), SparseMatrix.from_triplets(2, 2, []))
        ipm = build_ipm(pm, alpha=1.0, beta=0.1)
        assert np.array_equal(ipm.to_dense(), [[0, -1], [-1, 0]])

    def test_eliminate_only(self):
        pm = PenalizationMatrices(SparseMatrix.from_triplets(2, 2, []), sym_pair(2, {(0, 1): 1.0}))
        ipm = build_ipm(pm, alpha=1.0, beta=0.1)
        assert np.allclose(ipm.to_dense(), [[0, 0.1], [0.1, 0]])

    def test_beta_zero_support_equals_keep(self):
        pm = PenalizationMatrices(
            sym_pair(3, {(0, 1): -1.0}), sym_pair(3, {(1, 2): 1.0})
        )
        ipm = build_ipm(pm, alpha=2.0, beta=0.0)
        assert np.array_equal(ipm.to_dense(), 2.0 * pm.keep.to_dense())

    def test_supports_disjoint_union(self):
        pm = PenalizationMatrices(
            sym_pair(4, {(0, 1): -1.0, (2, 3): -1.0}), sym_pair(4, {(1, 2): 1.0})
        )
        ipm = build_ipm(pm, alpha=1.0, beta=0.5)
        assert ipm.nnz == pm.keep.nnz + pm.eliminate.nnz


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
        assert np.allclose(problem.q, penalty.q)
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
        rng = np.random.default_rng(5)
        q = rng.uniform(-1, 1, size=(4, 4))
        q = (q + q.T) / 2
        problem = QuboProblem(q=q, offset=1.25)
        save_qubo(problem, tmp_path / "q.coo", tmp_path / "q.json")
        loaded = load_qubo(tmp_path / "q.coo", tmp_path / "q.json")
        assert np.array_equal(loaded.q, problem.q)
        assert loaded.offset == problem.offset

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuboProblem(q=np.array([[0.0, 1.0], [0.5, 0.0]]))
