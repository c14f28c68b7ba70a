"""Acceptance suite: one test per toolkit-level exit criterion.

Each test prints a PASS line with its headline numbers so a plain
`pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.
"""

import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qubofs.cli import main as cli_main
from qubofs.data import cold_item_split, synth_planted
from qubofs.metrics import accuracy_metrics, mean_inter_list
from qubofs.models import ModelKind, SimilarityModel, cosine_knn, randomized_svd, rp3beta, score_and_rank
from qubofs.qubo import assemble_qubo, build_fpm
from qubofs.solvers import default_schedule, energy, solve_exhaustive, solve_sa_many
from qubofs.sparse import SparseMatrix


def all_assignments(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)


def test_qubo_algebra_energy_identity():
    """Assembled energies equal the closed form on every assignment."""
    started = time.monotonic()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        fpm_dense = rng.integers(-3, 4, size=(n, n)).astype(np.float64)
        fpm = SparseMatrix.from_dense(fpm_dense)
        rng.uniform(0.0001, 1.0)  # beta: assemble_qubo takes none, drawn to keep the instances
        p = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(0.0, 1e4))
        problem = assemble_qubo(fpm, p, s)
        x = all_assignments(n)
        energies = np.einsum("bi,bi->b", x @ problem.q, x) + problem.offset
        direct = (
            np.einsum("bi,bi->b", x @ fpm_dense, x)
            + s * (x.sum(axis=1) - p * n) ** 2
        )
        worst = max(worst, float(np.abs(energies - direct).max()))
        assert worst <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"\nPASS qubo-algebra: 1000 instances, max |err| {worst:.2e}, {elapsed:.1f}s")


def test_fpm_matches_triple_sum_oracle():
    """Feature projection equals the dense triple-sum contraction exactly."""
    started = time.monotonic()
    rng = np.random.default_rng(20241)
    for _ in range(200):
        n_items = int(rng.integers(2, 31))
        n_features = int(rng.integers(1, 11))
        icm_dense = (rng.random((n_items, n_features)) < 0.35).astype(np.float64)
        ipm_dense = rng.integers(-2, 3, size=(n_items, n_items)).astype(np.float64)
        ipm_dense = np.triu(ipm_dense, 1)
        ipm_dense = ipm_dense + ipm_dense.T
        fpm = build_fpm(
            SparseMatrix.from_dense(icm_dense), SparseMatrix.from_dense(ipm_dense)
        )
        oracle = np.einsum("if,ij,jg->fg", icm_dense, ipm_dense, icm_dense)
        assert np.array_equal(fpm.to_dense(), oracle)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\nPASS fpm-oracle: 200 instances exact, {elapsed:.1f}s")


def test_sa_reaches_exhaustive_optimum():
    """100-sample annealing matches exact optima on random dense problems."""
    started = time.monotonic()
    rng = np.random.default_rng(20242)
    n = 16
    hits = 0
    trials = 50
    for trial in range(trials):
        q = rng.uniform(-1.0, 1.0, size=(n, n))
        q = np.triu(q)
        q = q + np.triu(q, 1).T
        from qubofs.qubo import QuboProblem

        problem = QuboProblem(q=q)
        exact = solve_exhaustive(problem)
        results = solve_sa_many([problem], [default_schedule(n)], 100, [trial])[0]
        best = results[0].energy
        assert best >= exact.energy - 1e-9  # the oracle lower-bounds the annealer
        if best <= exact.energy + 1e-9:
            hits += 1
    elapsed = time.monotonic() - started
    assert hits >= math.ceil(0.95 * trials), f"SA hit optimum on only {hits}/{trials}"
    assert elapsed < 60.0
    print(f"\nPASS sa-quality: optimum on {hits}/{trials}, {elapsed:.1f}s")


def test_cardinality_control():
    """Penalty-dominant strength pins the exact selection count."""
    started = time.monotonic()
    rng = np.random.default_rng(20243)
    for _ in range(100):
        n = int(rng.integers(4, 15))
        fpm_dense = rng.uniform(-1.0, 1.0, size=(n, n))
        fpm_dense = (fpm_dense + fpm_dense.T) / 2.0
        fpm = SparseMatrix.from_dense(fpm_dense)
        target = int(rng.integers(1, n + 1))
        p = target / n
        s = 2.0 * float(np.abs(fpm.to_dense()).sum()) + 1.0
        result = solve_exhaustive(assemble_qubo(fpm, p, s))
        assert int(result.x.sum()) == round(p * n)
    elapsed = time.monotonic() - started
    print(f"\nPASS cardinality-control: 100/100 exact counts, {elapsed:.1f}s")


def test_metric_fixtures():
    """Hand-computed ranking values and MIL sampling agreement."""
    precision, recall, ndcg, map_score = accuracy_metrics([[0, 1, 2]], [{1}], cutoff=3)
    assert abs(precision - 1 / 3) <= 1e-9
    assert abs(recall - 1.0) <= 1e-9
    assert abs(ndcg - 1 / math.log2(3)) <= 1e-9
    assert abs(map_score - 0.5) <= 1e-9

    rng = np.random.default_rng(20244)
    lists = [rng.choice(60, size=10, replace=False).tolist() for _ in range(100)]
    exact = mean_inter_list(lists, cutoff=10, max_pairs=10_000, seed=0)
    stated = mean_inter_list(lists, cutoff=10, max_pairs=10_000, seed=1)
    assert abs(exact - stated) <= 0.02  # 4950 pairs fit, so both are exact
    forced = mean_inter_list(lists, cutoff=10, max_pairs=1_000, seed=1)
    assert abs(exact - forced) <= 0.02
    print(
        f"\nPASS metric-fixtures: ndcg {ndcg:.6f}, mil exact {exact:.4f}, sampled {forced:.4f}"
    )


def load_recovery_study():
    """scripts/planted_recovery_study.py, the study this test gates."""
    path = Path(__file__).parents[1] / "scripts" / "planted_recovery_study.py"
    spec = importlib.util.spec_from_file_location("planted_recovery_study", path)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    return study


def test_planted_feature_recovery():
    """Selection driven by the collaborative teacher recovers planted features
    and beats random subsets of the same size on cold items."""
    started = time.monotonic()
    study = load_recovery_study()
    recoveries, random_recoveries = [], []
    ndcg_wins = 0
    seeds = range(10)
    for seed in seeds:
        ds, planted = synth_planted(200, 150, 40, 8, 30, 0.1, seed=seed)
        cold = cold_item_split(ds, 0.2, 0.1, seed=seed)
        selected = study.qubo_selection(ds, cold, 0.2, seed)
        assert len(selected) == 8
        recoveries.append(len(selected & planted) / len(planted))
        # independent stream: the generator's first draw is the planted set
        random_sel = set(study.baseline_random_selection(40, 0.2, seed=10_000 + seed))
        random_recoveries.append(len(random_sel & planted) / len(planted))
        if study.cold_ndcg(ds, cold, selected) > study.cold_ndcg(ds, cold, random_sel):
            ndcg_wins += 1
    mean_recovery = float(np.mean(recoveries))
    mean_random = float(np.mean(random_recoveries))
    elapsed = time.monotonic() - started
    assert mean_recovery >= 0.80, f"recovered only {mean_recovery:.0%}"
    assert mean_recovery - mean_random >= 0.30
    assert ndcg_wins >= 8, f"beat random on only {ndcg_wins}/10 seeds"
    assert elapsed < 300.0
    print(
        f"\nPASS planted-recovery: recovery {mean_recovery:.0%} vs random "
        f"{mean_random:.0%}, ndcg wins {ndcg_wins}/10, {elapsed:.0f}s"
    )


def test_model_oracles():
    """Similarity models and ranking match dense from-scratch computations."""
    rng = np.random.default_rng(20245)

    # cosine with shrink
    vectors_dense = (rng.random((18, 12)) < 0.4) * rng.random((18, 12))
    model = cosine_knn(
        SparseMatrix.from_dense(vectors_dense), top_k=18, shrink=1.5, normalize=True
    )
    oracle = np.zeros((18, 18))
    for i in range(18):
        for j in range(18):
            if i != j:
                denom = (
                    np.linalg.norm(vectors_dense[i]) * np.linalg.norm(vectors_dense[j])
                    + 1.5
                )
                oracle[i, j] = vectors_dense[i] @ vectors_dense[j] / denom
    assert np.allclose(model.s.to_dense(), oracle, atol=1e-9)

    # random-walk similarity at alpha=1, beta=0
    urm_dense = (rng.random((20, 15)) < 0.3).astype(float)
    walk_model = rp3beta(
        SparseMatrix.from_dense(urm_dense), alpha=1.0, beta=0.0, top_k=15,
        normalize=False,
    )
    row_sums = urm_dense.sum(axis=1, keepdims=True)
    p_ui = np.divide(urm_dense, row_sums, out=np.zeros_like(urm_dense), where=row_sums > 0)
    col_sums = urm_dense.sum(axis=0, keepdims=True)
    p_iu = np.divide(
        urm_dense.T, col_sums.T, out=np.zeros_like(urm_dense.T), where=col_sums.T > 0
    )
    walk_oracle = p_iu @ p_ui
    np.fill_diagonal(walk_oracle, 0.0)
    assert np.allclose(walk_model.s.to_dense(), walk_oracle, atol=1e-9)

    # ranking
    s_dense = rng.random((15, 15))
    np.fill_diagonal(s_dense, 0.0)
    sim = SimilarityModel(SparseMatrix.from_dense(s_dense), ModelKind.ITEM_KNN_CF, {})
    profiles_dense = (rng.random((10, 15)) < 0.3).astype(float)
    ranked = score_and_rank(
        sim, SparseMatrix.from_dense(profiles_dense), cutoff=5
    )
    scores = profiles_dense @ s_dense
    for u in range(10):
        cand = np.flatnonzero(profiles_dense[u] == 0)
        order = np.lexsort((cand, -scores[u, cand]))
        assert list(ranked[u]) == list(cand[order[:5]])

    # truncated factorization at full rank reconstructs the matrix
    dense = rng.random((10, 8))
    u, s, vt = randomized_svd(SparseMatrix.from_dense(dense), rank=8, seed=0)
    assert np.linalg.norm(dense - (u * s) @ vt) <= 1e-8
    print("\nPASS model-oracles: cosine, random-walk, ranking, factorization")


def test_pipeline_determinism(tmp_path):
    """Identical config and seed produce byte-identical files, every one but
    manifest.json, which holds the run's timings."""
    config = {
        "seed": 11,
        "cutoff": 10,
        "dataset": {
            "synth": {"n_users": 50, "n_items": 40, "n_features": 12,
                       "n_relevant": 3, "interactions_per_user": 10,
                       "noise_rate": 0.1}
        },
        "collaborative": {"kind": "item_knn_cf", "n_cases": 3},
        "qubo": {"alpha": [1.0], "beta": [0.001], "s": [100.0], "p": [0.5]},
        "solver": {"kind": "sa", "num_samples": 20},
        "final_cbf": {"n_cases": 3},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0

    def files(root: Path) -> dict:
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
                if p.is_file() and p.name != "manifest.json"}

    a, b = files(tmp_path / "a"), files(tmp_path / "b")
    assert "reports/report.json" in a and "selections/grid_000/selection.json" in a
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between runs"
    print(f"\nPASS determinism: {len(a)} byte-identical files across reruns")
