"""Two-phase experiment pipeline.

Phase one removes cold items and tunes a collaborative model on the warm
interactions. Phase two builds one QUBO per grid point from the agreement
between that collaborative similarity and an all-features content similarity
(warm items only), solves it, trains a content-based model on each selected
feature subset, picks the grid point with the best cold-validation quality,
retrains on train-plus-validation and reports cold-test metrics next to the
all-features baseline.

Every stage persists its artifacts and is skipped when they already exist, so
deleting a downstream artifact and re-running regenerates only that part.
Report files are a pure function of (config, seed): no timings or absolute
paths go into them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import ExperimentConfig
from .data import (
    ColdSplit,
    Dataset,
    HoldoutSplit,
    build_dataset,
    cold_item_split,
    load_cold_split,
    load_interactions,
    load_item_features,
    preprocess,
    save_cold_split,
    save_dataset_tsv,
    synth_planted,
    user_holdout_split,
)
from .errors import ConfigInvalid
from .fileio import atomic_write_text
from .metrics import EVAL_TSV_HEADER, EvalReport, accuracy_metrics, evaluate_recommendations
from .models import (
    ModelKind,
    SimilarityModel,
    apply_feature_weighting,
    cosine_knn,
    pure_svd,
    rp3beta,
    score_and_rank,
    tfidf_feature_scores,
)
from .qubo import (
    FeatureSelectionConfig,
    QuboProblem,
    assemble_qubo,
    build_fpm,
    build_ipm,
    build_penalization,
    load_qubo,
    save_qubo,
)
from .sparse import SparseMatrix
from .solvers import (
    SelectionResult,
    AnnealSchedule,
    default_schedule,
    energy,
    load_selection,
    save_selection,
    solve_exhaustive,
    solve_sa_many,
)


def derive_seed(master: int, *labels) -> int:
    """Stable per-stage seed from the master seed and a label path."""
    digest = hashlib.sha256(repr((int(master),) + tuple(labels)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# search harness
# ----------------------------------------------------------------------


def sample_point(space: dict, rng: np.random.Generator) -> dict:
    """One parameter point; parameters drawn in sorted name order."""
    point = {}
    for name in sorted(space):
        spec = space[name]
        kind = spec["type"]
        if kind == "categorical":
            point[name] = spec["choices"][int(rng.integers(0, len(spec["choices"])))]
        elif kind in ("int", "float"):
            low, high = spec["low"], spec["high"]
            if spec.get("dist", "uniform") == "log-uniform":
                value = math.exp(rng.uniform(math.log(low), math.log(high)))
            else:
                value = rng.uniform(low, high)
            point[name] = int(round(value)) if kind == "int" else float(value)
        else:
            raise ConfigInvalid(f"unknown parameter type {kind!r} for {name}")
    return point


def random_search(
    space: dict,
    n_cases: int,
    objective: Callable[[dict], float],
    seed: int,
    workers: int = 1,
) -> tuple[dict, float, list[tuple[dict, float]]]:
    """Sample n_cases points and return the argmax of the objective.

    Ties go to the earlier case. Cases are evaluated possibly in parallel but
    always reduced in case order.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    rng = np.random.default_rng(seed)
    points = [sample_point(space, rng) for _ in range(n_cases)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scores = list(pool.map(objective, points))
    else:
        scores = [objective(p) for p in points]
    best_idx = max(range(n_cases), key=lambda i: (scores[i], -i))
    return points[best_idx], scores[best_idx], list(zip(points, scores))


# ----------------------------------------------------------------------
# baselines and stats
# ----------------------------------------------------------------------


def baseline_tfidf_selection(icm: SparseMatrix, quota: float) -> list[int]:
    """Top ceil(quota * n_features) features by rarity score."""
    return tfidf_feature_scores(icm).top_quota(quota)


def baseline_random_selection(n_features: int, quota: float, seed: int) -> list[int]:
    if not 0 < quota <= 1:
        raise ValueError("quota must be in (0, 1]")
    count = math.ceil(quota * n_features - 1e-9)
    rng = np.random.default_rng(seed)
    return sorted(int(f) for f in rng.choice(n_features, size=count, replace=False))


def feature_selection_stats(
    selections: Sequence[set[int] | Sequence[int]], n_features: int
) -> list[tuple[int, int, float]]:
    """(feature, times selected, selection share) sorted by share descending,
    ties toward the smaller feature index."""
    counts = np.zeros(n_features, dtype=np.int64)
    for sel in selections:
        for f in sel:
            counts[int(f)] += 1
    total = len(selections)
    rows = [
        (f, int(counts[f]), (counts[f] / total) if total else 0.0)
        for f in range(n_features)
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows


def stats_tsv(rows: list[tuple[int, int, float]], labels: Sequence[str] | None = None) -> str:
    lines = ["feature\tlabel\ttimes_selected\tshare"]
    for f, count, share in rows:
        label = labels[f] if labels is not None else ""
        lines.append(f"{f}\t{label}\t{count}\t{share:.17g}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# model fitting helpers
# ----------------------------------------------------------------------


def fit_collaborative(kind: str, urm: SparseMatrix, params: dict, seed: int) -> SimilarityModel:
    if kind == "item_knn_cf":
        return cosine_knn(
            urm.transpose(),
            top_k=int(params["topK"]),
            shrink=float(params["shrink"]),
            normalize=bool(params["normalize"]),
            kind=ModelKind.ITEM_KNN_CF,
        )
    if kind == "pure_svd":
        return pure_svd(urm, num_factors=int(params["num_factors"]), seed=seed)
    if kind == "rp3beta":
        return rp3beta(
            urm,
            alpha=float(params["alpha"]),
            beta=float(params["beta"]),
            top_k=int(params["topK"]),
            normalize=bool(params["normalize"]),
        )
    raise ConfigInvalid(f"unknown collaborative kind {kind!r}")


def fit_cbf(icm: SparseMatrix, params: dict) -> SimilarityModel:
    weighted = apply_feature_weighting(icm, params.get("weighting", "none"))
    return cosine_knn(
        weighted,
        top_k=int(params["topK"]),
        shrink=float(params["shrink"]),
        normalize=bool(params["normalize"]),
        kind=ModelKind.ITEM_KNN_CBF,
    )


def save_model(model: SimilarityModel, coo_path: Path, sidecar_path: Path, extra: dict | None = None) -> None:
    model.s.save_coo(coo_path)
    payload = {"kind": model.kind.value, **model.hyperparams}
    if extra:
        payload.update(extra)
    write_json(sidecar_path, payload)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------


@dataclass
class PipelineRun:
    config_hash: str
    artifacts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def manifest_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "artifacts": {k: str(v) for k, v in self.artifacts.items()},
            "timings_s": self.timings,
        }


class Pipeline:
    """Stage runner over a persistent output directory."""

    def __init__(self, cfg: ExperimentConfig, out_dir, workers: int | None = None):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.workers = workers if workers is not None else cfg.workers
        self.run_info = PipelineRun(config_hash=cfg.config_hash())
        self._dataset: Dataset | None = None
        self._cold: ColdSplit | None = None
        self._holdout: HoldoutSplit | None = None
        self._cf_model: SimilarityModel | None = None
        self._cbf_all: tuple[dict, SimilarityModel] | None = None
        self._points: list[dict] | None = None
        self._selections: list[SelectionResult] | None = None
        self._grid_rows: list[dict] | None = None
        self._final: dict | None = None
        self._attributed_time = 0.0
        self.out.mkdir(parents=True, exist_ok=True)
        self._pin_config()

    # -- config pinning -------------------------------------------------

    def _pin_config(self) -> None:
        pin = self.out / "config.resolved.json"
        if pin.exists():
            previous = pin.read_text(encoding="utf-8")
            if previous != self.cfg.canonical_json():
                raise ConfigInvalid(
                    f"{self.out} holds artifacts for a different config; "
                    "use a fresh output directory"
                )
        else:
            atomic_write_text(pin, self.cfg.canonical_json())
        self.run_info.artifacts["config"] = pin

    def _timed(self, stage: str, fn):
        """Record the stage's own wall time, excluding nested stages."""
        started = time.monotonic()
        nested_before = self._attributed_time
        result = fn()
        elapsed = time.monotonic() - started
        own = elapsed - (self._attributed_time - nested_before)
        self.run_info.timings[stage] = own
        self._attributed_time += own
        return result

    # -- stage: dataset --------------------------------------------------

    def ensure_dataset(self) -> Dataset:
        if self._dataset is not None:
            return self._dataset
        self._dataset = self._timed("dataset", self._build_dataset)
        return self._dataset

    def _build_dataset(self) -> Dataset:
        ds_cfg = self.cfg.dataset
        if ds_cfg.synth is not None:
            data_dir = self.out / "dataset"
            inter_path = data_dir / "interactions.tsv"
            feat_path = data_dir / "features.tsv"
            planted_path = data_dir / "planted.json"
            if not (inter_path.exists() and feat_path.exists()):
                data_dir.mkdir(parents=True, exist_ok=True)
                spec = ds_cfg.synth
                generated, planted = synth_planted(
                    spec.n_users,
                    spec.n_items,
                    spec.n_features,
                    spec.n_relevant,
                    spec.interactions_per_user,
                    spec.noise_rate,
                    seed=derive_seed(self.cfg.seed, "synth"),
                )
                save_dataset_tsv(generated, inter_path, feat_path)
                write_json(
                    planted_path,
                    {"planted_feature_labels": sorted(
                        generated.feature_ids[f] for f in planted
                    )},
                )
            # always reload from disk so every run sees identical label order
            raw = build_dataset(
                load_interactions(inter_path, "explicit"),
                load_item_features(feat_path),
            )
            self.run_info.artifacts["dataset"] = data_dir
        else:
            files = ds_cfg.files
            raw = build_dataset(
                load_interactions(files.interactions, files.value_mode),
                load_item_features(files.features),
            )
        pp = self.cfg.preprocess
        return preprocess(
            raw,
            pp.min_user_interactions,
            pp.min_item_interactions,
            pp.min_feature_items,
        )

    # -- stage: splits ----------------------------------------------------

    def ensure_splits(self) -> tuple[ColdSplit, HoldoutSplit]:
        if self._cold is not None and self._holdout is not None:
            return self._cold, self._holdout
        self._cold, self._holdout = self._timed("splits", self._build_splits)
        return self._cold, self._holdout

    def _build_splits(self) -> tuple[ColdSplit, HoldoutSplit]:
        split_dir = self.out / "splits"
        holdout_dir = self.out / "holdout"
        self.run_info.artifacts["splits"] = split_dir
        self.run_info.artifacts["holdout"] = holdout_dir
        needed = [
            split_dir / name
            for name in ("train.coo", "validation.coo", "test.coo", "split.json")
        ] + [holdout_dir / name for name in ("train.coo", "validation.coo", "holdout.json")]
        if all(p.exists() for p in needed):
            cold = load_cold_split(split_dir)
            holdout = HoldoutSplit(
                train=SparseMatrix.load_coo(holdout_dir / "train.coo"),
                validation=SparseMatrix.load_coo(holdout_dir / "validation.coo"),
            )
            return cold, holdout
        ds = self.ensure_dataset()
        sp = self.cfg.split
        cold_seed = derive_seed(self.cfg.seed, "cold-split")
        cold = cold_item_split(ds, sp.test_quota, sp.validation_quota, seed=cold_seed)
        save_cold_split(cold, split_dir, cold_seed, sp.test_quota, sp.validation_quota)
        warm = cold.train + cold.validation
        holdout_seed = derive_seed(self.cfg.seed, "holdout")
        holdout = user_holdout_split(warm, sp.holdout_quota, seed=holdout_seed)
        holdout_dir.mkdir(parents=True, exist_ok=True)
        holdout.train.save_coo(holdout_dir / "train.coo")
        holdout.validation.save_coo(holdout_dir / "validation.coo")
        write_json(
            holdout_dir / "holdout.json",
            {"seed": holdout_seed, "quota": sp.holdout_quota},
        )
        return cold, holdout

    # -- evaluation helper -------------------------------------------------

    def _objective_value(self, model: SimilarityModel, profiles: SparseMatrix,
                         holdings: SparseMatrix, candidates: np.ndarray | None,
                         metric: str) -> float:
        ranked = score_and_rank(
            model, profiles, self.cfg.cutoff, exclude_seen=True,
            candidate_items=candidates,
        )
        relevant = [
            set(int(i) for i in holdings.row_entries(u)[0])
            for u in range(holdings.n_rows)
        ]
        precision, recall, ndcg, map_score = accuracy_metrics(
            ranked, relevant, self.cfg.cutoff
        )
        return {"precision": precision, "recall": recall, "ndcg": ndcg, "map": map_score}[metric]

    def _full_report(self, model: SimilarityModel, profiles: SparseMatrix,
                     holdings: SparseMatrix, candidates: np.ndarray) -> EvalReport:
        ranked = score_and_rank(
            model, profiles, self.cfg.cutoff, exclude_seen=True,
            candidate_items=candidates,
        )
        relevant = [
            set(int(i) for i in holdings.row_entries(u)[0])
            for u in range(holdings.n_rows)
        ]
        # reindex to the candidate catalog so coverage and concentration are
        # measured against the cold catalog only
        local = {int(item): j for j, item in enumerate(sorted(candidates.tolist()))}
        ranked_local = [[local[int(i)] for i in rec] for rec in ranked]
        relevant_local = [
            {local[i] for i in rel if i in local} for rel in relevant
        ]
        return evaluate_recommendations(
            ranked_local,
            relevant_local,
            cutoff=self.cfg.cutoff,
            n_items=len(local),
            max_pairs=self.cfg.max_pairs,
            seed=derive_seed(self.cfg.seed, "eval"),
        )

    # -- stage: collaborative model ----------------------------------------

    def ensure_cf_model(self) -> SimilarityModel:
        if self._cf_model is not None:
            return self._cf_model
        self._cf_model = self._timed("cf_model", self._build_cf_model)
        return self._cf_model

    def _build_cf_model(self) -> SimilarityModel:
        cf_dir = self.out / "cf_model"
        self.run_info.artifacts["cf_model"] = cf_dir
        sim_path, meta_path = cf_dir / "similarity.coo", cf_dir / "model.json"
        kind = self.cfg.collaborative.kind
        if sim_path.exists() and meta_path.exists():
            meta = read_json(meta_path)
            params = {k: meta[k] for k in meta.get("hyperparam_names", [])}
            return SimilarityModel(
                SparseMatrix.load_coo(sim_path), ModelKind(meta["kind"]), params
            )
        ds = self.ensure_dataset()
        _, holdout = self.ensure_splits()
        fit_seed = derive_seed(self.cfg.seed, "cf-fit")
        space = dict(self.cfg.collaborative.resolved_space())
        if kind == "pure_svd":
            cap = min(ds.n_users, ds.n_items)
            spec = dict(space["num_factors"])
            spec["high"] = min(spec["high"], cap)
            spec["low"] = min(spec["low"], spec["high"])
            space["num_factors"] = spec
        relevant_holdings = holdout.validation

        def objective(params: dict) -> float:
            model = fit_collaborative(kind, holdout.train, params, fit_seed)
            return self._objective_value(
                model, holdout.train, relevant_holdings, None, "precision"
            )

        best, best_score, cases = random_search(
            space,
            self.cfg.collaborative.n_cases,
            objective,
            seed=derive_seed(self.cfg.seed, "cf-search"),
            workers=self.workers,
        )
        model = fit_collaborative(kind, holdout.train, best, fit_seed)
        cf_dir.mkdir(parents=True, exist_ok=True)
        save_model(
            model,
            sim_path,
            meta_path,
            extra={
                "hyperparam_names": sorted(best),
                "validation_precision": best_score,
                "seed": fit_seed,
            },
        )
        atomic_write_text(cf_dir / "search.tsv", self._search_tsv(cases))
        return model

    @staticmethod
    def _search_tsv(cases: list[tuple[dict, float]]) -> str:
        lines = ["case\tparams\tscore"]
        for idx, (params, score) in enumerate(cases):
            lines.append(f"{idx}\t{json.dumps(params, sort_keys=True)}\t{score:.17g}")
        return "\n".join(lines) + "\n"

    # -- stage: all-features content model ----------------------------------

    def ensure_cbf_all(self) -> tuple[dict, SimilarityModel]:
        if self._cbf_all is not None:
            return self._cbf_all
        self._cbf_all = self._timed("cbf_all", self._build_cbf_all)
        return self._cbf_all

    def _build_cbf_all(self) -> tuple[dict, SimilarityModel]:
        cbf_dir = self.out / "cbf_all"
        self.run_info.artifacts["cbf_all"] = cbf_dir
        sim_path, meta_path = cbf_dir / "similarity.coo", cbf_dir / "model.json"
        if sim_path.exists() and meta_path.exists():
            meta = read_json(meta_path)
            params = {k: meta[k] for k in meta["hyperparam_names"]}
            return params, SimilarityModel(
                SparseMatrix.load_coo(sim_path), ModelKind.ITEM_KNN_CBF, params
            )
        ds = self.ensure_dataset()
        cold, _ = self.ensure_splits()
        params, _, _ = self._search_cbf(ds.icm, cold)
        model = fit_cbf(ds.icm, params)
        cbf_dir.mkdir(parents=True, exist_ok=True)
        save_model(
            model, sim_path, meta_path,
            extra={"hyperparam_names": sorted(params), "weighting": params.get("weighting", "none")},
        )
        return params, model

    def _search_cbf(
        self, icm: SparseMatrix, cold: ColdSplit, workers: int | None = None
    ) -> tuple[dict, float, list]:
        """Shared content-model search; the seed is the same for every feature
        subset so all selections see an identical case sequence."""
        candidates = np.array(sorted(cold.cold_validation_items), dtype=np.int64)

        def objective(params: dict) -> float:
            model = fit_cbf(icm, params)
            return self._objective_value(
                model, cold.train, cold.validation, candidates, self.cfg.objective
            )

        return random_search(
            self.cfg.final_cbf.resolved_space(),
            self.cfg.final_cbf.n_cases,
            objective,
            seed=derive_seed(self.cfg.seed, "cbf-search"),
            workers=self.workers if workers is None else workers,
        )

    # -- stage: QUBO grid ----------------------------------------------------

    def ensure_qubos(self) -> list[dict]:
        if self._points is None:
            self._points = self._timed("qubos", self._build_qubos)
        return self._points

    def _build_qubos(self) -> list[dict]:
        qubo_dir = self.out / "qubo"
        self.run_info.artifacts["qubo"] = qubo_dir
        points = self.cfg.qubo.points()
        done = (qubo_dir / "keep.coo").exists() and (qubo_dir / "eliminate.coo").exists() and all(
            (qubo_dir / f"grid_{i:03d}" / name).exists()
            for i in range(len(points))
            for name in ("qubo.coo", "qubo.json", "params.json")
        )
        if done:
            return points
        ds = self.ensure_dataset()
        cold, _ = self.ensure_splits()
        cf_model = self.ensure_cf_model()
        cbf_params, _ = self.ensure_cbf_all()
        warm = cold.warm_items()
        icm_warm = ds.icm.submatrix(rows=warm)
        cf_warm = cf_model.s.submatrix(rows=warm, cols=warm)
        cbf_warm = fit_cbf(icm_warm, cbf_params)
        pm = build_penalization(cf_warm, cbf_warm.s)
        qubo_dir.mkdir(parents=True, exist_ok=True)
        pm.keep.save_coo(qubo_dir / "keep.coo")
        pm.eliminate.save_coo(qubo_dir / "eliminate.coo")
        fpm_cache: dict[tuple[float, float], SparseMatrix] = {}
        for index, point in enumerate(points):
            grid_dir = qubo_dir / f"grid_{index:03d}"
            if all((grid_dir / n).exists() for n in ("qubo.coo", "qubo.json", "params.json")):
                continue
            key = (point["alpha"], point["beta"])
            if key not in fpm_cache:
                ipm = build_ipm(pm, point["alpha"], point["beta"])
                fpm_cache[key] = build_fpm(icm_warm, ipm)
            problem = assemble_qubo(
                fpm_cache[key],
                FeatureSelectionConfig(
                    alpha=point["alpha"], beta=point["beta"],
                    p=point["p"], s=point["s"],
                ),
            )
            grid_dir.mkdir(parents=True, exist_ok=True)
            save_qubo(problem, grid_dir / "qubo.coo", grid_dir / "qubo.json")
            write_json(grid_dir / "params.json", point)
        return points

    # -- stage: selection ------------------------------------------------------

    def ensure_selections(self) -> list[SelectionResult]:
        if self._selections is None:
            self._selections = self._timed("selections", self._build_selections)
        return self._selections

    def _build_selections(self) -> list[SelectionResult]:
        """Load the stored selections and solve the missing ones. Annealed
        points are grouped by (n, sweeps) and each group runs in one lockstep
        batch; every point owns its RNG streams, so a batch's makeup never
        changes a result."""
        points = self.ensure_qubos()
        sel_dir = self.out / "selections"
        self.run_info.artifacts["selections"] = sel_dir
        results: list[SelectionResult | None] = [None] * len(points)
        batches: dict[tuple[int, int], list[tuple[int, QuboProblem, AnnealSchedule]]] = {}

        def store(index: int, result: SelectionResult) -> None:
            sel_path = sel_dir / f"grid_{index:03d}" / "selection.json"
            sel_path.parent.mkdir(parents=True, exist_ok=True)
            save_selection(result, sel_path)
            results[index] = result

        for index, point in enumerate(points):
            sel_path = sel_dir / f"grid_{index:03d}" / "selection.json"
            if sel_path.exists():
                results[index] = load_selection(sel_path)
                continue
            problem = load_qubo(
                self.out / "qubo" / f"grid_{index:03d}" / "qubo.coo",
                self.out / "qubo" / f"grid_{index:03d}" / "qubo.json",
            )
            if point["s"] == 0.0 and np.all(problem.q <= 0.0):
                # every coefficient pushes toward inclusion; all-ones is optimal
                x = np.ones(problem.n, dtype=np.int8)
                result = SelectionResult(
                    x=x,
                    energy=energy(problem, x),
                    solver="closed_form",
                    seed=0,
                    samples_drawn=1,
                    wall_time=0.0,
                )
            elif self.cfg.solver.kind == "exhaustive":
                result = solve_exhaustive(problem)
            else:
                schedule = self._schedule(problem, index)
                batches.setdefault((problem.n, schedule.sweeps), []).append(
                    (index, problem, schedule)
                )
                continue
            store(index, result)
        for batch in batches.values():
            indices, problems, schedules = zip(*batch)
            solved = solve_sa_many(
                problems,
                schedules,
                self.cfg.solver.num_samples,
                [derive_seed(self.cfg.seed, "select", index) for index in indices],
            )
            for index, samples in zip(indices, solved):
                store(index, samples[0])
        return results

    def _schedule(self, problem: QuboProblem, index: int) -> AnnealSchedule:
        """The default ramp for the problem's coefficient range, with the
        configured overrides."""
        magnitudes = np.abs(problem.q[problem.q != 0.0])
        scale = float(magnitudes.max()) if magnitudes.size else 1.0
        cold_scale = float(magnitudes.min()) if magnitudes.size else 1.0
        default = default_schedule(problem.n, scale=scale, cold_scale=cold_scale)
        solver = self.cfg.solver
        sweeps = solver.sweeps if solver.sweeps is not None else default.sweeps
        beta_start = solver.beta_start if solver.beta_start is not None else default.beta_start
        beta_end = solver.beta_end if solver.beta_end is not None else default.beta_end
        try:
            return AnnealSchedule(sweeps=sweeps, beta_start=beta_start, beta_end=beta_end)
        except ValueError as exc:
            raise ConfigInvalid(
                f"solver schedule of grid point {index} (beta_start={beta_start:g}, "
                f"beta_end={beta_end:g}): {exc}"
            ) from exc

    # -- stage: per-selection content models and the winner ---------------------

    def ensure_grid_scores(self) -> list[dict]:
        if self._grid_rows is None:
            self._grid_rows = self._timed("grid_scores", self._build_grid_scores)
        return self._grid_rows

    def _build_grid_scores(self) -> list[dict]:
        points = self.ensure_qubos()
        selections = self.ensure_selections()
        ds = self.ensure_dataset()
        cold, _ = self.ensure_splits()
        score_dir = self.out / "cbf_sel"
        self.run_info.artifacts["cbf_sel"] = score_dir
        parallel = self.workers > 1

        def build_row(index: int) -> dict:
            row_path = score_dir / f"grid_{index:03d}" / "result.json"
            if row_path.exists():
                return read_json(row_path)
            selection = selections[index]
            mask = selection.x.astype(bool)
            icm_selected = ds.icm.mask_cols(mask)
            # grid points already run in parallel; keep the inner search flat
            params, score, _ = self._search_cbf(
                icm_selected, cold, workers=1 if parallel else None
            )
            row = {
                "grid_index": index,
                "params": points[index],
                "cbf_params": params,
                "validation_score": score,
                "n_selected": int(mask.sum()),
                "energy": selection.energy,
                "solver": selection.solver,
            }
            row_path.parent.mkdir(parents=True, exist_ok=True)
            write_json(row_path, row)
            return row

        if parallel:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                rows = list(pool.map(build_row, range(len(points))))
        else:
            rows = [build_row(i) for i in range(len(points))]
        winner_idx = max(
            range(len(rows)), key=lambda i: (rows[i]["validation_score"], -i)
        )
        write_json(score_dir / "winner.json", {"grid_index": winner_idx})
        return rows

    # -- stage: final model and reports -------------------------------------------

    def ensure_final(self) -> dict:
        if self._final is None:
            self._final = self._timed("final", self._build_final)
        return self._final

    def _build_final(self) -> dict:
        rows = self.ensure_grid_scores()
        winner_idx = read_json(self.out / "cbf_sel" / "winner.json")["grid_index"]
        winner = rows[winner_idx]
        final_dir = self.out / "final"
        self.run_info.artifacts["final"] = final_dir
        sim_path, meta_path = final_dir / "similarity.coo", final_dir / "model.json"
        if sim_path.exists() and meta_path.exists():
            model = SimilarityModel(
                SparseMatrix.load_coo(sim_path),
                ModelKind.ITEM_KNN_CBF,
                dict(winner["cbf_params"]),
            )
            return {"winner": winner, "model": model}
        ds = self.ensure_dataset()
        selections = self.ensure_selections()
        final_dir.mkdir(parents=True, exist_ok=True)
        mask = selections[winner_idx].x.astype(bool)
        final_model = fit_cbf(ds.icm.mask_cols(mask), winner["cbf_params"])
        save_model(
            final_model,
            sim_path,
            meta_path,
            extra={
                "grid_index": winner_idx,
                "n_selected": winner["n_selected"],
                "hyperparam_names": sorted(winner["cbf_params"]),
            },
        )
        return {"winner": winner, "model": final_model}

    def ensure_reports(self) -> dict:
        return self._timed("reports", self._build_reports)

    def _build_reports(self) -> dict:
        reports_dir = self.out / "reports"
        self.run_info.artifacts["reports"] = reports_dir
        report_path = reports_dir / "report.json"
        if report_path.exists():
            return read_json(report_path)
        final = self.ensure_final()
        rows = self.ensure_grid_scores()
        selections = self.ensure_selections()
        ds = self.ensure_dataset()
        cold, _ = self.ensure_splits()
        cbf_params, _ = self.ensure_cbf_all()

        # retrain on train + validation, report on the cold test items
        union_profiles = cold.train + cold.validation
        test_candidates = np.array(sorted(cold.cold_test_items), dtype=np.int64)
        final_report = self._full_report(
            final["model"], union_profiles, cold.test, test_candidates
        )
        baseline_model = fit_cbf(ds.icm, cbf_params)
        baseline_report = self._full_report(
            baseline_model, union_profiles, cold.test, test_candidates
        )

        winner = final["winner"]
        report = {
            "config_hash": self.cfg.config_hash(),
            "cutoff": self.cfg.cutoff,
            "objective": self.cfg.objective,
            "winner": {
                "grid_index": winner["grid_index"],
                "params": winner["params"],
                "cbf_params": winner["cbf_params"],
                "n_selected": winner["n_selected"],
                "validation_score": winner["validation_score"],
            },
            "final": final_report.to_json_dict(),
            "baseline_all_features": baseline_report.to_json_dict(),
        }
        reports_dir.mkdir(parents=True, exist_ok=True)
        write_json(report_path, report)

        tsv_lines = [f"model\t{EVAL_TSV_HEADER}"]
        tsv_lines.append("selected_features\t" + final_report.to_tsv_row())
        tsv_lines.append("all_features\t" + baseline_report.to_tsv_row())
        atomic_write_text(reports_dir / "report.tsv", "\n".join(tsv_lines) + "\n")

        grid_lines = ["grid_index\talpha\tbeta\ts\tp\tn_selected\tenergy\tvalidation_score"]
        for row in rows:
            p = row["params"]
            grid_lines.append(
                f"{row['grid_index']}\t{p['alpha']:.17g}\t{p['beta']:.17g}\t"
                f"{p['s']:.17g}\t{p['p']:.17g}\t{row['n_selected']}\t"
                f"{row['energy']:.17g}\t{row['validation_score']:.17g}"
            )
        atomic_write_text(reports_dir / "grid_validation.tsv", "\n".join(grid_lines) + "\n")

        stats_rows = feature_selection_stats(
            [s.selected() for s in selections], ds.n_features
        )
        atomic_write_text(
            reports_dir / "feature_stats.tsv", stats_tsv(stats_rows, ds.feature_ids)
        )
        return report

    # -- full run -----------------------------------------------------------------

    def run(self) -> PipelineRun:
        self.ensure_reports()
        write_json(self.out / "manifest.json", self.run_info.manifest_dict())
        return self.run_info


def run_pipeline(cfg: ExperimentConfig, out_dir, workers: int | None = None) -> PipelineRun:
    return Pipeline(cfg, out_dir, workers=workers).run()
