#!/usr/bin/env python3
"""Planted-feature recovery study across seeds.

Generates datasets whose user behavior is driven by a known planted feature
set, selects features via the QUBO route (collaborative teacher), and compares
recovery and cold-test ranking quality against random and rarity-score
selections of the same size.

Usage: python scripts/planted_recovery_study.py [--seeds N] [--p 0.2]
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qubofs.data import cold_item_split, synth_planted, user_holdout_split
from qubofs.metrics import accuracy_metrics
from qubofs.models import ModelKind, cosine_knn, score_and_rank, tfidf_feature_scores
from qubofs.qubo import assemble_qubo, build_fpm, build_ipm, build_penalization
from qubofs.solvers import default_schedule, solve_sa_many


def baseline_tfidf_selection(icm, quota: float) -> list[int]:
    """Top ceil(quota * n_features) features by rarity score, ties to the
    smaller index."""
    if not 0 < quota <= 1:
        raise ValueError("quota must be in (0, 1]")
    scores = tfidf_feature_scores(icm)
    n = scores.shape[0]
    count = math.ceil(quota * n - 1e-9)
    order = np.lexsort((np.arange(n), -scores))
    return sorted(int(f) for f in order[:count])


def baseline_random_selection(n_features: int, quota: float, seed: int) -> list[int]:
    """ceil(quota * n_features) features drawn uniformly without replacement."""
    if not 0 < quota <= 1:
        raise ValueError("quota must be in (0, 1]")
    count = math.ceil(quota * n_features - 1e-9)
    rng = np.random.default_rng(seed)
    return sorted(int(f) for f in rng.choice(n_features, size=count, replace=False))


def qubo_selection(ds, cold, p, seed):
    """Warm-restricted QUBO selection with an ItemKNN CF teacher.

    Neighborhoods stay tight so the positive-similarity patterns mean
    something; the count penalty sits just above the typical per-feature
    energy swing so the single-flip annealer can still rearrange subsets.
    """
    holdout = user_holdout_split(cold.train + cold.validation, 0.1, seed=seed)
    cf = cosine_knn(holdout.train.transpose(), top_k=10, shrink=2.0, normalize=True)
    warm = cold.warm_items()
    icm_warm = ds.icm.submatrix(rows=warm)
    cbf_warm = cosine_knn(
        icm_warm, top_k=25, shrink=0.0, normalize=True, kind=ModelKind.ITEM_KNN_CBF
    )
    pm = build_penalization(cf.s.submatrix(rows=warm, cols=warm), cbf_warm.s)
    fpm = build_fpm(icm_warm, build_ipm(pm, alpha=1.0, beta=1.0))
    strength = 1.5 * float(np.abs(fpm.to_dense()).sum(axis=1).mean())
    problem = assemble_qubo(fpm, p, strength)
    mags = np.abs(problem.q[problem.q != 0.0])
    schedule = default_schedule(
        problem.n, scale=float(mags.max()), cold_scale=float(mags.min())
    )
    return set(solve_sa_many([problem], [schedule], 100, [seed])[0][0].selected())


def cold_ndcg(ds, cold, selected, cutoff=10):
    """NDCG on the cold test items of a content model on the selected features."""
    mask = np.zeros(ds.n_features, dtype=bool)
    mask[sorted(selected)] = True
    model = cosine_knn(
        ds.icm.mask_cols(mask), top_k=100, shrink=0.0, normalize=True,
        kind=ModelKind.ITEM_KNN_CBF,
    )
    candidates = np.array(sorted(cold.cold_test_items), dtype=np.int64)
    ranked = score_and_rank(
        model, cold.train + cold.validation, cutoff, candidate_items=candidates
    )
    relevant = [
        set(int(i) for i in cold.test.row_entries(u)[0]) for u in range(ds.n_users)
    ]
    return accuracy_metrics(ranked, relevant, cutoff)[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--p", type=float, default=0.2)
    args = parser.parse_args()

    rows = []
    for seed in range(args.seeds):
        ds, planted = synth_planted(200, 150, 40, 8, 30, 0.1, seed=seed)
        cold = cold_item_split(ds, 0.2, 0.1, seed=seed)
        qubo_sel = qubo_selection(ds, cold, args.p, seed)
        size = len(qubo_sel)
        quota = size / ds.n_features
        random_sel = set(baseline_random_selection(ds.n_features, quota, 10_000 + seed))
        rarity_sel = set(baseline_tfidf_selection(ds.icm, quota))

        def recovery(sel):
            return len(sel & planted) / len(planted)

        rows.append(
            {
                "seed": seed,
                "qubo": (recovery(qubo_sel), cold_ndcg(ds, cold, qubo_sel)),
                "random": (recovery(random_sel), cold_ndcg(ds, cold, random_sel)),
                "rarity": (recovery(rarity_sel), cold_ndcg(ds, cold, rarity_sel)),
            }
        )
        r = rows[-1]
        print(
            f"seed {seed}: qubo rec={r['qubo'][0]:.2f} ndcg={r['qubo'][1]:.3f} | "
            f"random rec={r['random'][0]:.2f} ndcg={r['random'][1]:.3f} | "
            f"rarity rec={r['rarity'][0]:.2f} ndcg={r['rarity'][1]:.3f}"
        )

    print("\nmeans over seeds:")
    for method in ("qubo", "random", "rarity"):
        rec = float(np.mean([r[method][0] for r in rows]))
        ndcg = float(np.mean([r[method][1] for r in rows]))
        print(f"  {method:<8} recovery={rec:.2f}  cold ndcg@10={ndcg:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
