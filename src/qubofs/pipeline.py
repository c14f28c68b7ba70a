"""Two-phase experiment pipeline.

Phase one removes cold items and tunes a collaborative model on the warm
interactions. Phase two builds one QUBO per grid point from the agreement
between that collaborative similarity and an all-features content similarity
(warm items only), solves it, trains a content-based model on each selected
feature subset, picks the grid point with the best cold-validation quality,
retrains on train-plus-validation and reports cold-test metrics next to the
all-features baseline.

Each stage is one row of ``STAGES``: the files it writes (per grid point, for
the three grid stages) and its build and load functions; ``Pipeline`` gets its
``ensure_<name>`` method from the row. A stage is complete when all its files
exist; it is then loaded, otherwise built, and only a build asks for the stages
it depends on. A grid stage loads its complete points and builds only the
others. Every file is written atomically, so a killed run resumes without
cleanup and deleting any artifact regenerates only its stage or grid point.
Every file but manifest.json, which holds the stage timings, is a pure function
of (config, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import ExperimentConfig, FilesSpec
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
from .fileio import atomic_write_text, read_json, write_json, write_tsv
from .metrics import EvalReport, accuracy_metrics, evaluate_recommendations
from .models import (
    ModelKind,
    SimilarityModel,
    apply_feature_weighting,
    cosine_knn,
    pure_svd,
    rp3beta,
    score_and_rank,
)
from .qubo import (
    PenalizationMatrices,
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
# selection stats
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# model fitting helpers
# ----------------------------------------------------------------------


def _fit_cosine(matrix: SparseMatrix, params: dict, kind: ModelKind) -> SimilarityModel:
    """``cosine_knn`` of ``matrix``'s rows with a case's topK, shrink and normalize."""
    return cosine_knn(matrix, top_k=int(params["topK"]), shrink=float(params["shrink"]),
                      normalize=bool(params["normalize"]), kind=kind)


def fit_collaborative(kind: str, urm: SparseMatrix, params: dict, seed: int) -> SimilarityModel:
    if kind == "item_knn_cf":
        return _fit_cosine(urm.transpose(), params, ModelKind.ITEM_KNN_CF)
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
    weighting = params.get("weighting", "none")
    model = _fit_cosine(apply_feature_weighting(icm, weighting), params, ModelKind.ITEM_KNN_CBF)
    return replace(model, hyperparams={**model.hyperparams, "weighting": weighting})


def save_model(model: SimilarityModel, model_dir: Path, **extra) -> None:
    """similarity.coo plus a model.json sidecar holding the kind, the model's
    hyperparameters, their names as ``hyperparam_names``, and ``extra``."""
    model.s.save_coo(model_dir / "similarity.coo")
    write_json(model_dir / "model.json", {
        "kind": model.kind.value, **model.hyperparams,
        "hyperparam_names": sorted(model.hyperparams), **extra,
    })


def load_model(model_dir: Path) -> SimilarityModel:
    """The model ``save_model`` stored."""
    meta = read_json(model_dir / "model.json")
    return SimilarityModel(
        SparseMatrix.load_coo(model_dir / "similarity.coo"),
        ModelKind(meta["kind"]),
        {k: meta[k] for k in meta["hyperparam_names"]},
    )


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

    def __init__(self, cfg: ExperimentConfig, out_dir):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.run_info = PipelineRun(
            config_hash=cfg.config_hash(),
            artifacts={"config": self.out / "config.resolved.json"},
        )
        self._results: dict[str, object] = {}
        self._attributed_time = 0.0
        self._pin_config()

    # -- config pinning -------------------------------------------------

    def _pin_config(self) -> None:
        pin = self.run_info.artifacts["config"]
        if pin.exists():
            previous = pin.read_text(encoding="utf-8")
            if previous != self.cfg.canonical_json():
                raise ConfigInvalid(
                    f"{self.out} holds artifacts for a different config; "
                    "use a fresh output directory"
                )
        else:
            atomic_write_text(pin, self.cfg.canonical_json())

    # -- the stage runner -------------------------------------------------

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

    def _stage(self, name: str):
        """The stage's result, computed once per pipeline."""
        if name not in self._results:
            self._results[name] = self._timed(name, lambda: self._load_or_build(name))
        return self._results[name]

    def _load_or_build(self, name: str):
        """Load the stage if all its declared files exist, else build it; a
        grid stage loads its complete points and builds the others at once."""
        patterns, build, load = STAGES[name]
        if name == "dataset" and self.cfg.dataset.synth is None:
            patterns = ()  # read from the configured files, nothing to write
        for top in dict.fromkeys(pattern.split("/")[0] for pattern in patterns):
            self.run_info.artifacts[top] = self.out / top
        complete = all((self.out / p).exists() for p in patterns if "{i" not in p)
        if not any("{i" in p for p in patterns):
            return load(self) if complete else build(self)
        # the later grid stages take the grid from the QUBOs they are built on
        grid = range(len(self.cfg.qubo.points() if name == "qubos" else self.ensure_qubos()))
        results = [
            load(self, i) if all(f.exists() for f in self._point_files(name, i)) else None
            for i in grid
        ]
        if not complete or None in results:
            build(self, results)
        return results

    def _point_files(self, name: str, index: int) -> list[Path]:
        """Stage ``name``'s files of grid point ``index``, in ``STAGES`` order."""
        return [self.out / p.format(i=index) for p in STAGES[name][0] if "{i" in p]

    # -- stage: dataset --------------------------------------------------

    def _build_dataset(self) -> Dataset:
        data_dir = self.out / "dataset"
        spec = self.cfg.dataset.synth
        generated, planted = synth_planted(
            spec.n_users,
            spec.n_items,
            spec.n_features,
            spec.n_relevant,
            spec.interactions_per_user,
            spec.noise_rate,
            seed=derive_seed(self.cfg.seed, "synth"),
        )
        save_dataset_tsv(generated, data_dir / "interactions.tsv", data_dir / "features.tsv")
        write_json(
            data_dir / "planted.json",
            {"planted_feature_labels": sorted(
                generated.feature_ids[f] for f in planted
            )},
        )
        # always reload from disk so every run sees identical label order
        return self._load_dataset()

    def _load_dataset(self) -> Dataset:
        data_dir = self.out / "dataset"
        # a synthetic dataset is read from the files _build_dataset wrote
        files = self.cfg.dataset.files or FilesSpec(
            data_dir / "interactions.tsv", data_dir / "features.tsv"
        )
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

    def _build_splits(self) -> tuple[ColdSplit, HoldoutSplit]:
        ds = self.ensure_dataset()
        sp = self.cfg.split
        cold_seed = derive_seed(self.cfg.seed, "cold-split")
        cold = cold_item_split(ds, sp.test_quota, sp.validation_quota, seed=cold_seed)
        save_cold_split(cold, self.out / "splits", cold_seed, sp.test_quota, sp.validation_quota)
        warm = cold.train + cold.validation
        holdout_seed = derive_seed(self.cfg.seed, "holdout")
        holdout = user_holdout_split(warm, sp.holdout_quota, seed=holdout_seed)
        holdout_dir = self.out / "holdout"
        holdout.train.save_coo(holdout_dir / "train.coo")
        holdout.validation.save_coo(holdout_dir / "validation.coo")
        write_json(
            holdout_dir / "holdout.json",
            {"seed": holdout_seed, "quota": sp.holdout_quota},
        )
        return cold, holdout

    def _load_splits(self) -> tuple[ColdSplit, HoldoutSplit]:
        holdout_dir = self.out / "holdout"
        holdout = HoldoutSplit(
            train=SparseMatrix.load_coo(holdout_dir / "train.coo"),
            validation=SparseMatrix.load_coo(holdout_dir / "validation.coo"),
        )
        return load_cold_split(self.out / "splits"), holdout

    # -- evaluation helpers -------------------------------------------------

    @staticmethod
    def _relevant(holdings: SparseMatrix) -> list[set[int]]:
        """Each user's held-out items."""
        return [set(holdings.row_entries(u)[0].tolist()) for u in range(holdings.n_rows)]

    def _search(self, label: str, space: dict, n_cases: int, fit: Callable[[dict], SimilarityModel],
                profiles: SparseMatrix, holdings: SparseMatrix, candidates: np.ndarray | None,
                metric: str) -> tuple[dict, float, list]:
        """``random_search`` of ``space`` seeded by ``label``: the case whose ``fit`` model
        ranks ``holdings`` best by ``metric``, from ``profiles``, among ``candidates``."""
        relevant = self._relevant(holdings)

        def objective(params: dict) -> float:
            ranked = score_and_rank(fit(params), profiles, self.cfg.cutoff,
                                    candidate_items=candidates)
            scores = accuracy_metrics(ranked, relevant, self.cfg.cutoff)
            return dict(zip(("precision", "recall", "ndcg", "map"), scores))[metric]

        return random_search(space, n_cases, objective,
                             seed=derive_seed(self.cfg.seed, label), workers=self.cfg.workers)

    def _full_report(self, model: SimilarityModel, profiles: SparseMatrix,
                     holdings: SparseMatrix, candidates: np.ndarray) -> EvalReport:
        ranked = score_and_rank(model, profiles, self.cfg.cutoff, candidate_items=candidates)
        relevant = self._relevant(holdings)
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

    def _build_cf_model(self) -> SimilarityModel:
        kind = self.cfg.collaborative.kind
        ds = self.ensure_dataset()
        _, holdout = self.ensure_splits()
        fit_seed = derive_seed(self.cfg.seed, "cf-fit")
        space = dict(self.cfg.collaborative.resolved_space())
        if kind == "pure_svd":
            spec = dict(space["num_factors"])
            spec["high"] = min(spec["high"], ds.n_users, ds.n_items)
            spec["low"] = min(spec["low"], spec["high"])
            space["num_factors"] = spec
        fit = partial(fit_collaborative, kind, holdout.train, seed=fit_seed)
        best, best_score, cases = self._search("cf-search", space, self.cfg.collaborative.n_cases,
                                               fit, holdout.train, holdout.validation, None,
                                               "precision")
        model = fit(best)
        cf_dir = self.out / "cf_model"
        save_model(model, cf_dir, validation_precision=best_score, seed=fit_seed)
        write_tsv(cf_dir / "search.tsv", ("case", "params", "score"), (
            (index, json.dumps(params, sort_keys=True), score)
            for index, (params, score) in enumerate(cases)
        ))
        return model

    # -- stage: all-features content model ----------------------------------

    def _build_cbf_all(self) -> SimilarityModel:
        ds = self.ensure_dataset()
        cold, _ = self.ensure_splits()
        params, _, _ = self._search_cbf(ds.icm, cold)
        model = fit_cbf(ds.icm, params)
        save_model(model, self.out / "cbf_all")
        return model

    def _search_cbf(self, icm: SparseMatrix, cold: ColdSplit) -> tuple[dict, float, list]:
        """Shared content-model search; the seed is the same for every feature
        subset so all selections see an identical case sequence."""
        candidates = np.array(sorted(cold.cold_validation_items), dtype=np.int64)
        return self._search("cbf-search", self.cfg.final_cbf.resolved_space(),
                            self.cfg.final_cbf.n_cases, partial(fit_cbf, icm),
                            cold.train, cold.validation, candidates, self.cfg.objective)

    # -- stage: QUBO grid ----------------------------------------------------

    def _build_qubos(self, points: list[dict | None]) -> None:
        """The QUBO of every grid point that is None, and the pair matrices
        unless both are on disk already (each is written atomically)."""
        ds = self.ensure_dataset()
        cold, _ = self.ensure_splits()
        warm = cold.warm_items()
        icm_warm = ds.icm.submatrix(rows=warm)
        pair_files = (self.out / "qubo" / "keep.coo", self.out / "qubo" / "eliminate.coo")
        if all(path.exists() for path in pair_files):
            pm = PenalizationMatrices(*(SparseMatrix.load_coo(path) for path in pair_files))
        else:
            cf_model = self.ensure_cf_model()
            cbf_params = self.ensure_cbf_all().hyperparams
            cf_warm = cf_model.s.submatrix(rows=warm, cols=warm)
            cbf_warm = fit_cbf(icm_warm, cbf_params)
            pm = build_penalization(cf_warm, cbf_warm.s)
            pm.keep.save_coo(pair_files[0])
            pm.eliminate.save_coo(pair_files[1])
        fpm_cache: dict[tuple[float, float], SparseMatrix] = {}
        for index, point in enumerate(self.cfg.qubo.points()):
            if points[index] is not None:
                continue
            key = (point["alpha"], point["beta"])
            if key not in fpm_cache:
                ipm = build_ipm(pm, point["alpha"], point["beta"])
                fpm_cache[key] = build_fpm(icm_warm, ipm)
            problem = assemble_qubo(fpm_cache[key], point["p"], point["s"])
            save_qubo(problem, *self._point_files("qubos", index))
            points[index] = point

    # -- stage: selection ------------------------------------------------------

    def _build_selections(self, results: list[SelectionResult | None]) -> None:
        """Solve every grid point that is None. Every QUBO is n_features
        square and every schedule has the configured or the default sweep
        count, so all annealed points run in one lockstep batch; every point
        owns its RNG streams, so a batch's makeup never changes a result."""
        points = self.ensure_qubos()
        annealed: list[tuple[int, QuboProblem, AnnealSchedule]] = []

        def store(index: int, result: SelectionResult) -> None:
            save_selection(result, self._point_files("selections", index)[0])
            results[index] = result

        for index, point in enumerate(points):
            if results[index] is not None:
                continue
            problem = load_qubo(*self._point_files("qubos", index))
            if point["s"] == 0.0 and np.all(problem.q <= 0.0):
                # every coefficient pushes toward inclusion; all-ones is optimal
                x = np.ones(problem.n, dtype=np.int8)
                result = SelectionResult(x=x, energy=energy(problem, x), solver="closed_form",
                                         seed=0, samples_drawn=1)
            elif self.cfg.solver.kind == "exhaustive":
                result = solve_exhaustive(problem)
            else:
                annealed.append((index, problem, self._schedule(problem, index)))
                continue
            store(index, result)
        if annealed:
            indices, problems, schedules = zip(*annealed)
            solved = solve_sa_many(
                problems,
                schedules,
                self.cfg.solver.num_samples,
                [derive_seed(self.cfg.seed, "select", index) for index in indices],
            )
            for index, samples in zip(indices, solved):
                store(index, samples[0])

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

    # -- stage: per-selection content models -------------------------------------

    def _build_grid_scores(self, rows: list[dict | None]) -> None:
        """Score every grid point that is None by the content-model search on
        its selected features."""
        points = self.ensure_qubos()
        selections = self.ensure_selections()
        ds = self.ensure_dataset()
        cold, _ = self.ensure_splits()
        for index, row in enumerate(rows):
            if row is not None:
                continue
            selection = selections[index]
            mask = selection.x.astype(bool)
            params, score, _ = self._search_cbf(ds.icm.mask_cols(mask), cold)
            row = {
                "grid_index": index,
                "params": points[index],
                "cbf_params": params,
                "validation_score": score,
                "n_selected": int(mask.sum()),
                "energy": selection.energy,
                "solver": selection.solver,
            }
            write_json(self._point_files("grid_scores", index)[0], row)
            rows[index] = row

    # -- stage: final model and reports -------------------------------------------

    def _winner(self) -> dict:
        """The grid point with the best validation score; ties go to the
        smaller grid index."""
        rows = self.ensure_grid_scores()
        best = max(range(len(rows)), key=lambda i: (rows[i]["validation_score"], -i))
        return rows[best]

    def _build_final(self) -> SimilarityModel:
        winner = self._winner()
        ds = self.ensure_dataset()
        selections = self.ensure_selections()
        mask = selections[winner["grid_index"]].x.astype(bool)
        final_model = fit_cbf(ds.icm.mask_cols(mask), winner["cbf_params"])
        save_model(
            final_model,
            self.out / "final",
            grid_index=winner["grid_index"],
            n_selected=winner["n_selected"],
        )
        return final_model

    def _build_reports(self) -> dict:
        final_model = self.ensure_final()
        winner = self._winner()
        rows = self.ensure_grid_scores()
        cold, _ = self.ensure_splits()
        baseline_model = self.ensure_cbf_all()

        # retrain on train + validation, report on the cold test items
        union_profiles = cold.train + cold.validation
        test_candidates = np.array(sorted(cold.cold_test_items), dtype=np.int64)
        final_report = self._full_report(
            final_model, union_profiles, cold.test, test_candidates
        )
        baseline_report = self._full_report(
            baseline_model, union_profiles, cold.test, test_candidates
        )

        report = {
            "config_hash": self.cfg.config_hash(),
            "cutoff": self.cfg.cutoff,
            "objective": self.cfg.objective,
            "winner": {key: winner[key] for key in (
                "grid_index", "params", "cbf_params", "n_selected", "validation_score")},
            "final": asdict(final_report),
            "baseline_all_features": asdict(baseline_report),
        }
        reports_dir = self.out / "reports"
        write_json(reports_dir / "report.json", report)
        write_tsv(reports_dir / "report.tsv", ("model", *(f.name for f in fields(EvalReport))), (
            ("selected_features", *astuple(final_report)),
            ("all_features", *astuple(baseline_report)),
        ))
        qubo_params = ("alpha", "beta", "s", "p")
        write_tsv(
            reports_dir / "grid_validation.tsv",
            ("grid_index", *qubo_params, "n_selected", "energy", "validation_score"),
            ((row["grid_index"], *(row["params"][k] for k in qubo_params), row["n_selected"],
              row["energy"], row["validation_score"]) for row in rows),
        )
        self.write_feature_stats()
        return report

    def write_feature_stats(self) -> str:
        """Write reports/feature_stats.tsv, how often each feature is selected
        across the grid, and return its text."""
        ds = self.ensure_dataset()
        rows = feature_selection_stats(
            [s.selected() for s in self.ensure_selections()], ds.n_features
        )
        path = self.out / "reports" / "feature_stats.tsv"
        write_tsv(path, ("feature", "label", "times_selected", "share"),
                  ((f, ds.feature_ids[f], count, share) for f, count, share in rows))
        return path.read_text(encoding="utf-8")

    # -- full run -----------------------------------------------------------------

    def run(self) -> PipelineRun:
        self.ensure_reports()
        write_json(self.out / "manifest.json", self.run_info.manifest_dict())
        return self.run_info


# The experiment's stages in dependency order: name -> (the files the stage
# writes, relative to the output directory, where "{i:03d}" names one file per
# grid point; its build function; its load function). For a grid stage, the
# load function loads point i, and the build function fills the None entries
# of the list of points and writes the stage's shared files. The loop below
# derives Pipeline.ensure_<name> from each row; it returns a Dataset, a
# (ColdSplit, HoldoutSplit) pair, a SimilarityModel (cf_model, cbf_all, final),
# one grid dict, SelectionResult or score dict per grid point, or the report.
STAGES = {
    "dataset": (("dataset/interactions.tsv", "dataset/features.tsv", "dataset/planted.json"),
                Pipeline._build_dataset, Pipeline._load_dataset),
    "splits": (("splits/train.coo", "splits/validation.coo", "splits/test.coo", "splits/split.json",
                "holdout/train.coo", "holdout/validation.coo", "holdout/holdout.json"),
               Pipeline._build_splits, Pipeline._load_splits),
    "cf_model": (("cf_model/similarity.coo", "cf_model/model.json", "cf_model/search.tsv"),
                 Pipeline._build_cf_model, lambda p: load_model(p.out / "cf_model")),
    "cbf_all": (("cbf_all/similarity.coo", "cbf_all/model.json"),
                Pipeline._build_cbf_all, lambda p: load_model(p.out / "cbf_all")),
    "qubos": (("qubo/keep.coo", "qubo/eliminate.coo", "qubo/grid_{i:03d}/qubo.coo",
               "qubo/grid_{i:03d}/qubo.json"),
              Pipeline._build_qubos, lambda p, i: p.cfg.qubo.points()[i]),
    "selections": (("selections/grid_{i:03d}/selection.json",),
                   Pipeline._build_selections,
                   lambda p, i: load_selection(p._point_files("selections", i)[0])),
    "grid_scores": (("cbf_sel/grid_{i:03d}/result.json",),
                    Pipeline._build_grid_scores,
                    lambda p, i: read_json(p._point_files("grid_scores", i)[0])),
    "final": (("final/similarity.coo", "final/model.json"),
              Pipeline._build_final, lambda p: load_model(p.out / "final")),
    "reports": (("reports/report.json", "reports/report.tsv", "reports/grid_validation.tsv",
                 "reports/feature_stats.tsv"),
                Pipeline._build_reports, lambda p: read_json(p.out / "reports" / "report.json")),
}


def _ensure(name: str):
    def ensure(self):
        return self._stage(name)
    ensure.__name__ = f"ensure_{name}"
    return ensure


for _name in STAGES:
    setattr(Pipeline, f"ensure_{_name}", _ensure(_name))
