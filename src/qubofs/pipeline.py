"""Two-phase experiment pipeline.

Phase one removes cold items and tunes a collaborative model on a per-user
holdout of the warm interactions. Phase two builds one QUBO per grid point
from the agreement between that collaborative similarity and an all-features
content similarity (warm items only), solves it, trains a content-based model
on each selected feature subset, picks the grid point with the best
cold-validation quality, retrains on train-plus-validation and reports
cold-test metrics next to the all-features baseline.

Each stage is one row of ``STAGES``: the files it writes (per grid point, for
the three grid stages) and its build and load functions; ``Pipeline`` gets its
``ensure_<name>`` method from the row. A stage is complete when all its files
exist; it is then loaded from them, otherwise built, and only a build asks for
the stages it depends on, save that the splits stage is stored as its cold
item lists and loads its matrices as columns of the loaded dataset. A grid
stage loads its complete points and builds only the others. The dataset stage
parses and preprocesses the input TSVs once (a synthetic dataset's come from
the synth stage) and stores the result as archives, so a resume reads those
and never the text. The collaborative stage draws its holdout itself and
stores none. The collaborative and all-features model stages store no
similarity, only a sidecar with the stage's kind and the hyperparameters, from
which a load fits it again. The final stage stores nothing: its load fits the
winner's content model from the winner's content-search row. Every file is
written atomically, so a killed run resumes without cleanup and
deleting any artifact but the pin regenerates only its stage or grid point
when a command asks for that stage.

A run directory is pinned to what it was built from by one file,
``config.resolved.json``: the canonical config, and for a ``dataset.files``
config also the sha256 and byte size of each input. Every run computes the
pin's bytes before it writes anything, reading the inputs; an input that
cannot be read is a ``DataError``. A pin on disk that holds other bytes is
``ConfigInvalid``, as is a missing pin while any stage directory holds
anything, since nothing then tells what that output was built from. Every file
but manifest.json, which holds the stage timings, is a pure function of
(config, seed, input bytes).
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

from .config import ExperimentConfig, FilesSpec, _check_value
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
from .errors import ConfigInvalid, DataError, DimensionMismatch, ParseError
from .fileio import atomic_write_text, is_finite_number, read_json, write_json, write_tsv
from .metrics import EvalReport, accuracy_metrics, evaluate_recommendations
from .models import (
    SimilarityModel,
    apply_feature_weighting,
    cosine_knn,
    pure_svd,
    rp3beta,
    score_and_rank,
)
from .qubo import (
    QuboProblem,
    assemble_qubo,  # unused here: perfbench/tracer.py times it under this module's name
    build_fpm,
    build_ipm,
    build_penalization,
    load_pairs,
    load_qubo,
    save_qubo,
)
from .sparse import SparseMatrix
from .solvers import (
    SelectionResult,
    AnnealSchedule,
    descend,
    energy,
    load_selection,
    save_selection,
    schedule_for,
    solve_exhaustive,
    solve_sa_many,
)


def file_digest(path) -> dict:
    """The byte size and sha256 of the file at ``path``; a file that cannot
    be read, such as a missing one or a directory, is a ``DataError`` naming
    the path."""
    digest, size = hashlib.sha256(), 0
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
                size += len(block)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return {"bytes": size, "sha256": digest.hexdigest()}


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


def _fit_cosine(matrix: SparseMatrix, params: dict) -> SimilarityModel:
    """``cosine_knn`` of ``matrix``'s rows with a case's topK, shrink and normalize."""
    return cosine_knn(matrix, top_k=int(params["topK"]), shrink=float(params["shrink"]),
                      normalize=bool(params["normalize"]))


def fit_collaborative(kind: str, urm: SparseMatrix, params: dict, seed: int) -> SimilarityModel:
    if kind == "item_knn_cf":
        return _fit_cosine(urm.transpose(), params)
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
    model = _fit_cosine(apply_feature_weighting(icm, weighting), params)
    return replace(model, hyperparams={**model.hyperparams, "weighting": weighting})


def save_model(model: SimilarityModel, kind: str, sidecar_path, **extra) -> None:
    """The model as a JSON sidecar holding ``kind``, the stage's name for its
    fit, the model's hyperparameters, their names as ``hyperparam_names``, and
    ``extra``: all that ``load_model`` needs to fit it again."""
    write_json(sidecar_path, {
        "kind": kind, **model.hyperparams,
        "hyperparam_names": sorted(model.hyperparams), **extra,
    })


def load_model(sidecar_path, kind: str, fit: Callable[[dict], SimilarityModel]) -> SimilarityModel:
    """``fit`` of the hyperparameters ``save_model`` stored for a stage that
    fits ``kind``. A sidecar of another kind, whose ``hyperparam_names`` is
    not a list of strings that are its keys, holding values no search space
    may give or ``fit`` refuses, or other hyperparameters than the fitted
    model's, is a ``ParseError`` naming it."""
    meta = read_json(sidecar_path, "kind", "hyperparam_names")
    if meta["kind"] != kind:
        raise ParseError(f"{sidecar_path}: kind {meta['kind']!r} is not its stage's {kind!r}")
    names = meta["hyperparam_names"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ParseError(f"{sidecar_path}: hyperparam_names is not a list of strings")
    missing = [name for name in names if name not in meta]
    if missing:
        raise ParseError(f"{sidecar_path}: no {', '.join(map(repr, missing))} key")
    params = {name: meta[name] for name in names}
    try:
        for name, value in params.items():
            _check_value(name, name, value)
        model = fit(params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{sidecar_path}: hyperparameters that fit no model ({exc})") from exc
    if model.hyperparams != params:
        raise ParseError(f"{sidecar_path}: its values fit a {kind} model with {model.hyperparams}")
    return model


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------


@dataclass
class PipelineRun:
    config_hash: str
    timings: dict = field(default_factory=dict)

    def manifest_dict(self) -> dict:
        return {"config_hash": self.config_hash, "timings_s": self.timings}


class Pipeline:
    """Stage runner over a persistent output directory."""

    def __init__(self, cfg: ExperimentConfig, out_dir):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.run_info = PipelineRun(config_hash=cfg.config_hash())
        self._results: dict[str, object] = {}
        self._attributed_time = 0.0
        self._pin()

    def _pin(self) -> None:
        """Pin the directory to this run's config and, for a ``dataset.files``
        config, to the digest of each input: ``config.resolved.json`` holds the
        canonical config, with those digests as ``"inputs"``. A pin on disk
        must hold exactly these bytes. A missing one is written only while no
        stage directory holds anything, as nothing tells what that output was
        built from. Either refusal is ``ConfigInvalid`` and writes nothing."""
        pin = self.out / "config.resolved.json"
        files = self.cfg.dataset.files
        expected = self.cfg.canonical_json()
        if files is not None:
            inputs = {role: file_digest(getattr(files, role)) for role in ("interactions", "features")}
            expected = json.dumps({**self.cfg.to_canonical_dict(), "inputs": inputs},
                                  indent=2, sort_keys=True) + "\n"
        try:
            pinned = pin.read_bytes()
        except FileNotFoundError:
            pinned = None
        except OSError as exc:
            raise DataError(f"cannot read {pin}: {exc.strerror or exc}") from exc
        if pinned is None:
            tops = dict.fromkeys(p.split("/")[0] for patterns, _, _ in STAGES.values() for p in patterns)
            built = [top + "/" for top in tops if any((self.out / top).glob("*"))]
            if built:
                raise ConfigInvalid(
                    f"{pin} is missing, so nothing tells what {', '.join(built)} in {self.out} "
                    "were built from; delete those or use a fresh output directory"
                )
            atomic_write_text(pin, expected)
        elif pinned != expected.encode():
            inputs = f" or other bytes of {files.interactions} and {files.features}" if files else ""
            raise ConfigInvalid(f"{pin} pins another config{inputs} than this run's; "
                                "use a fresh output directory")

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
        complete = all(f.exists() for f in self._files(name))
        if not any("{i" in p for p in patterns):
            return load(self) if complete else build(self)
        # the later grid stages take the grid from the QUBOs they are built on
        grid = range(len(self.cfg.qubo.points() if name == "qubos" else self.ensure_qubos()))
        results = [
            load(self, i) if all(f.exists() for f in self._files(name, i)) else None
            for i in grid
        ]
        if not complete or None in results:
            build(self, results)
        return results

    def _files(self, name: str, index: int | None = None) -> list[Path]:
        """Stage ``name``'s shared files, or its files of grid point ``index``,
        in ``STAGES`` order."""
        return [self.out / p.format(i=index) for p in STAGES[name][0]
                if ("{i" in p) == (index is not None)]

    # -- stages: synthetic data and dataset -----------------------------------

    def _build_synth(self) -> FilesSpec:
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
        interactions, features, planted_path = self._files("synth")
        save_dataset_tsv(generated, interactions, features)
        write_json(
            planted_path,
            {"planted_feature_labels": sorted(
                generated.feature_ids[f] for f in planted
            )},
        )
        return self._synth_files()

    def _synth_files(self) -> FilesSpec:
        """The synth stage's TSVs as a ``dataset.files`` input: the dataset
        stage parses them as it parses configured files, so label order is
        the same however the data came."""
        interactions, features, _ = self._files("synth")
        return FilesSpec(str(interactions), str(features))

    def _build_dataset(self) -> Dataset:
        files = self.cfg.dataset.files or self.ensure_synth()
        raw = build_dataset(
            load_interactions(files.interactions, files.value_mode),
            load_item_features(files.features),
        )
        pp = self.cfg.preprocess
        ds = preprocess(
            raw,
            pp.min_user_interactions,
            pp.min_item_interactions,
            pp.min_feature_items,
        )
        urm, icm, labels = self._files("dataset")
        ds.urm.save_coo(urm)
        ds.icm.save_coo(icm)
        write_json(labels, {"users": ds.user_ids, "items": ds.item_ids, "features": ds.feature_ids})
        return ds

    def _load_dataset(self) -> Dataset:
        """The stored dataset. An interaction archive holding a value that is
        not positive or a feature archive holding one other than 1, which the
        parse never stores, is a ``ParseError`` naming the archive; labels
        that do not fit the matrices are one naming the labels file."""
        urm, icm, labels = self._files("dataset")
        interactions, features = SparseMatrix.load_coo(urm), SparseMatrix.load_coo(icm)
        if not np.all(interactions.data > 0.0):
            raise ParseError(f"{urm}: an interaction value that is not positive")
        if not np.all(features.data == 1.0):
            raise ParseError(f"{icm}: a feature value other than 1")
        keys = ("users", "items", "features")
        names = read_json(labels, *keys)
        try:
            return Dataset(interactions, features, *(tuple(names[key]) for key in keys))
        except (TypeError, DimensionMismatch) as exc:
            raise ParseError(f"{labels}: labels that do not fit {urm.name} and {icm.name} ({exc})") from exc

    # -- stage: splits ----------------------------------------------------

    def _build_splits(self) -> ColdSplit:
        sp = self.cfg.split
        seed = derive_seed(self.cfg.seed, "cold-split")
        cold = cold_item_split(self.ensure_dataset(), sp.test_quota, sp.validation_quota, seed=seed)
        save_cold_split(cold, *self._files("splits"), seed, sp.test_quota, sp.validation_quota)
        return cold

    # -- evaluation helpers -------------------------------------------------

    def _warm_interactions(self) -> SparseMatrix:
        """``cold.train + cold.validation``, the interactions outside the cold
        test items, as one column mask of the dataset's interactions: the
        split's matrices are disjoint column masks of them."""
        warm = np.ones(self.ensure_dataset().n_items, dtype=bool)
        warm[self.ensure_splits().cold_test_items] = False
        return self.ensure_dataset().urm.mask_cols(warm)

    def _search(self, label: str, space: dict, n_cases: int, fit: Callable[[dict], SimilarityModel],
                profiles: SparseMatrix, holdings: SparseMatrix, candidates: np.ndarray | None,
                metric: str) -> tuple[dict, float, list]:
        """``random_search`` of ``space`` seeded by ``label``: the case whose ``fit`` model
        ranks ``holdings`` best by ``metric``, from ``profiles``, among ``candidates``."""

        def objective(params: dict) -> float:
            ranked = score_and_rank(fit(params), profiles, self.cfg.cutoff,
                                    candidate_items=candidates)
            scores = accuracy_metrics(ranked, holdings, self.cfg.cutoff)
            return dict(zip(("precision", "recall", "ndcg", "map"), scores))[metric]

        return random_search(space, n_cases, objective,
                             seed=derive_seed(self.cfg.seed, label), workers=self.cfg.workers)

    def _full_report(self, model: SimilarityModel, profiles: SparseMatrix,
                     holdings: SparseMatrix, candidates: np.ndarray) -> EvalReport:
        """The report of ``model`` ranking the ascending, distinct
        ``candidates`` for ``profiles``, relevant where ``holdings`` hold an
        entry among them."""
        ranked = score_and_rank(model, profiles, self.cfg.cutoff, candidate_items=candidates)
        # reindex to the candidate catalog so coverage and concentration are
        # measured against the cold catalog only; the -1 pads stay
        return evaluate_recommendations(
            np.where(ranked >= 0, np.searchsorted(candidates, ranked), -1),
            holdings.submatrix(cols=candidates),
            cutoff=self.cfg.cutoff,
            n_items=candidates.size,
            max_pairs=self.cfg.max_pairs,
            seed=derive_seed(self.cfg.seed, "eval"),
        )

    # -- stage: collaborative model ----------------------------------------

    def _cf_fit(self) -> tuple[Callable[[dict], SimilarityModel], HoldoutSplit]:
        """A case's collaborative model, fitted on the per-user holdout of the
        warm interactions, and that holdout, which serves this stage alone."""
        holdout = user_holdout_split(self._warm_interactions(), self.cfg.split.holdout_quota,
                                     seed=derive_seed(self.cfg.seed, "holdout"))
        return partial(fit_collaborative, self.cfg.collaborative.kind, holdout.train,
                       seed=derive_seed(self.cfg.seed, "cf-fit")), holdout

    def _build_cf_model(self) -> SimilarityModel:
        kind = self.cfg.collaborative.kind
        ds = self.ensure_dataset()
        fit, holdout = self._cf_fit()
        space = dict(self.cfg.collaborative.resolved_space())
        if kind == "pure_svd":
            # a choice or the high end above the rank is lowered to it
            limit = min(ds.n_users, ds.n_items)
            spec = dict(space["num_factors"])
            if spec["type"] == "categorical":
                spec["choices"] = [min(choice, limit) for choice in spec["choices"]]
            else:
                spec["high"] = min(spec["high"], limit)
                spec["low"] = min(spec["low"], spec["high"])
            space["num_factors"] = spec
        best, best_score, cases = self._search("cf-search", space, self.cfg.collaborative.n_cases,
                                               fit, holdout.train, holdout.validation, None,
                                               "precision")
        model = fit(best)
        sidecar, search = self._files("cf_model")
        save_model(model, kind, sidecar, validation_precision=best_score, seed=fit.keywords["seed"])
        write_tsv(search, ("case", "params", "score"), (
            (index, json.dumps(params, sort_keys=True), score)
            for index, (params, score) in enumerate(cases)
        ))
        return model

    # -- stage: all-features content model ----------------------------------

    def _build_cbf_all(self) -> SimilarityModel:
        ds = self.ensure_dataset()
        cold = self.ensure_splits()
        params, _, _ = self._search_cbf(ds.icm, cold)
        model = fit_cbf(ds.icm, params)
        save_model(model, "item_knn_cbf", *self._files("cbf_all"))
        return model

    def _search_cbf(self, icm: SparseMatrix, cold: ColdSplit) -> tuple[dict, float, list]:
        """Shared content-model search; the seed is the same for every feature
        subset so all selections see an identical case sequence."""
        return self._search("cbf-search", self.cfg.final_cbf.resolved_space(),
                            self.cfg.final_cbf.n_cases, partial(fit_cbf, icm),
                            cold.train, cold.validation, cold.cold_validation_items,
                            self.cfg.objective)

    # -- stage: QUBO grid ----------------------------------------------------

    def _build_qubos(self, points: list[dict | None]) -> None:
        """What builds the QUBO of every grid point that is None (its pair's
        penalization, its p and s), and the pair matrix unless it is on disk
        already (each file is written atomically); a stored pair matrix is
        loaded as one over the warm items."""
        ds = self.ensure_dataset()
        cold = self.ensure_splits()
        warm = cold.warm_items()
        icm_warm = ds.icm.submatrix(rows=warm)
        (pair_file,) = self._files("qubos")
        if pair_file.exists():
            pairs = load_pairs(pair_file, warm.size)
        else:
            cf_model = self.ensure_cf_model()
            cbf_params = self.ensure_cbf_all().hyperparams
            cf_warm = cf_model.s.submatrix(rows=warm, cols=warm)
            cbf_warm = fit_cbf(icm_warm, cbf_params)
            pairs = build_penalization(cf_warm, cbf_warm.s)
            pairs.save_coo(pair_file)
        fpm_cache: dict[tuple[float, float], SparseMatrix] = {}
        for index, point in enumerate(self.cfg.qubo.points()):
            if points[index] is not None:
                continue
            key = (point["alpha"], point["beta"])
            if key not in fpm_cache:
                fpm_cache[key] = build_fpm(icm_warm, build_ipm(pairs, *key))
            save_qubo(fpm_cache[key], point["p"], point["s"], *self._files("qubos", index))
            points[index] = point

    # -- stage: selection ------------------------------------------------------

    def _build_selections(self, results: list[SelectionResult | None]) -> None:
        """Solve every grid point that is None. Every QUBO is n_features
        square and every schedule has the configured or the default sweep
        count, so all annealed points run in one lockstep batch; every point
        owns its RNG streams, so a batch's makeup never changes a result.
        Each annealed point keeps its best restart after ``descend``, so no
        single flip and no count-preserving swap lowers its energy; the
        descent reads that restart alone, so a point's selection still
        depends only on its QUBO and its seed."""
        points = self.ensure_qubos()
        n_features = self.ensure_dataset().n_features
        annealed: list[tuple[int, QuboProblem, AnnealSchedule]] = []

        def store(index: int, result: SelectionResult) -> None:
            save_selection(result, self._files("selections", index)[0])
            results[index] = result

        for index, point in enumerate(points):
            if results[index] is not None:
                continue
            problem = load_qubo(*self._files("qubos", index), n_features)
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
            for index, problem, (best, *_) in zip(indices, problems, solved):
                x, lowest = descend(problem, best.x)
                store(index, replace(best, x=x, energy=lowest))

    def _schedule(self, problem: QuboProblem, index: int) -> AnnealSchedule:
        """The default ramp for the problem's coefficient range, with the
        configured overrides."""
        default = schedule_for(problem)
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
        its selected features. The search depends on the selection alone, so
        each distinct selection is searched once, and not at all when a
        loaded point already holds its score."""
        selections = self.ensure_selections()
        ds = self.ensure_dataset()
        cold = self.ensure_splits()
        # selected features (mask bytes) -> that selection's row
        searched = {selections[index].x.astype(bool).tobytes(): row
                    for index, row in enumerate(rows) if row is not None}
        for index, row in enumerate(rows):
            if row is not None:
                continue
            mask = selections[index].x.astype(bool)
            key = mask.tobytes()
            if key not in searched:
                params, score, _ = self._search_cbf(ds.icm.mask_cols(mask), cold)
                searched[key] = {"cbf_params": params, "validation_score": score}
            rows[index] = searched[key]
            write_json(self._files("grid_scores", index)[0], rows[index])

    def _load_grid_score(self, index: int) -> dict:
        """Grid point ``index``'s row: the best content-model case's
        hyperparameters and validation score. A score that is not a finite
        number, or hyperparameters that are not an object of values a search
        space may give to the names of ``final_cbf``'s space, is a
        ``ParseError`` naming the file; keys an earlier version stored beside
        those two are not read."""
        path = self._files("grid_scores", index)[0]
        row = read_json(path, "cbf_params", "validation_score")
        params, score = row["cbf_params"], row["validation_score"]
        if not is_finite_number(score):
            raise ParseError(f"{path}: validation_score {score!r} is not a finite number")
        if not isinstance(params, dict):
            raise ParseError(f"{path}: cbf_params is not an object")
        names = sorted(self.cfg.final_cbf.resolved_space())
        if sorted(params) != names:
            raise ParseError(f"{path}: cbf_params holds {sorted(params)}, not the search space's {names}")
        try:
            for name, value in params.items():
                _check_value(f"cbf_params.{name}", name, value)
        except ConfigInvalid as exc:
            raise ParseError(f"{path}: {exc}") from exc
        return {"cbf_params": params, "validation_score": score}

    # -- stage: final model and reports -------------------------------------------

    def _winner(self) -> int:
        """The grid index with the best validation score; ties go to the
        smaller one."""
        rows = self.ensure_grid_scores()
        return max(range(len(rows)), key=lambda i: (rows[i]["validation_score"], -i))

    def _fit_final(self) -> SimilarityModel:
        """The winner's content model: its row's hyperparameters fitted on
        the features its selection picked. Hyperparameters the fit refuses
        are a ``ParseError`` naming the row."""
        index = self._winner()
        icm = self.ensure_dataset().icm.mask_cols(self.ensure_selections()[index].x.astype(bool))
        try:
            return fit_cbf(icm, self.ensure_grid_scores()[index]["cbf_params"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{self._files('grid_scores', index)[0]}: "
                             f"hyperparameters that fit no model ({exc})") from exc

    def _build_reports(self) -> dict:
        final_model = self.ensure_final()
        index = self._winner()
        rows = self.ensure_grid_scores()
        selections = self.ensure_selections()
        points = self.cfg.qubo.points()
        cold = self.ensure_splits()
        baseline_model = self.ensure_cbf_all()

        # retrain on train + validation, report on the cold test items
        union_profiles = self._warm_interactions()
        final_report = self._full_report(
            final_model, union_profiles, cold.test, cold.cold_test_items
        )
        baseline_report = self._full_report(
            baseline_model, union_profiles, cold.test, cold.cold_test_items
        )

        report = {
            "config_hash": self.cfg.config_hash(),
            "cutoff": self.cfg.cutoff,
            "objective": self.cfg.objective,
            "winner": {"grid_index": index, "params": points[index],
                       "n_selected": len(selections[index].selected()), **rows[index]},
            "final": asdict(final_report),
            "baseline_all_features": asdict(baseline_report),
        }
        report_json, report_tsv, grid_tsv, _ = self._files("reports")
        write_json(report_json, report)
        write_tsv(report_tsv, ("model", *(f.name for f in fields(EvalReport))), (
            ("selected_features", *astuple(final_report)),
            ("all_features", *astuple(baseline_report)),
        ))
        qubo_params = ("alpha", "beta", "s", "p")
        write_tsv(
            grid_tsv,
            ("grid_index", *qubo_params, "n_selected", "energy", "validation_score"),
            ((i, *(point[k] for k in qubo_params), len(selection.selected()), selection.energy,
              row["validation_score"]) for i, (point, selection, row)
             in enumerate(zip(points, selections, rows))),
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
        *_, path = self._files("reports")
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
# grid point; its build function; its load function). The functions take their
# paths from Pipeline._files, so these rows are the only place a stage file is
# named. For a grid stage, the load function loads point i, and the build
# function fills the None entries of the list of points and writes the stage's
# shared files; the qubos stage's one shared file is the item-pair
# classification, -1 on kept and +1 on eliminated pairs, that every point's
# QUBO is built from; each point stores its pair's feature penalization and
# its p and s, which the selections stage assembles. A stage may declare no
# files (final): it is then always complete, has no build function, and its
# load computes it. The loop below derives Pipeline.ensure_<name> from each
# row; it returns the synthetic TSVs as a FilesSpec (synth, which only a
# synthetic dataset reaches), a Dataset, a ColdSplit, a SimilarityModel
# (cf_model, cbf_all, final), one grid dict, SelectionResult or score dict per
# grid point, or the report.
STAGES = {
    "synth": (("dataset/interactions.tsv", "dataset/features.tsv", "dataset/planted.json"),
              Pipeline._build_synth, Pipeline._synth_files),
    "dataset": (("dataset/urm.coo", "dataset/icm.coo", "dataset/labels.json"),
                Pipeline._build_dataset, Pipeline._load_dataset),
    "splits": (("splits/split.json",), Pipeline._build_splits,
               lambda p: load_cold_split(p.ensure_dataset().urm, *p._files("splits"))),
    "cf_model": (("cf_model/model.json", "cf_model/search.tsv"), Pipeline._build_cf_model,
                 lambda p: load_model(p._files("cf_model")[0], p.cfg.collaborative.kind, p._cf_fit()[0])),
    "cbf_all": (("cbf_all/model.json",), Pipeline._build_cbf_all,
                lambda p: load_model(*p._files("cbf_all"), "item_knn_cbf",
                                     partial(fit_cbf, p.ensure_dataset().icm))),
    "qubos": (("qubo/pairs.coo", "qubo/grid_{i:03d}/qubo.coo", "qubo/grid_{i:03d}/qubo.json"),
              Pipeline._build_qubos, lambda p, i: p.cfg.qubo.points()[i]),
    "selections": (("selections/grid_{i:03d}/selection.json",), Pipeline._build_selections,
                   lambda p, i: load_selection(p._files("selections", i)[0], p.ensure_dataset().n_features)),
    "grid_scores": (("cbf_sel/grid_{i:03d}/result.json",), Pipeline._build_grid_scores,
                    Pipeline._load_grid_score),
    "final": ((), None, Pipeline._fit_final),
    "reports": (("reports/report.json", "reports/report.tsv", "reports/grid_validation.tsv",
                 "reports/feature_stats.tsv"),
                Pipeline._build_reports, lambda p: read_json(p._files("reports")[0])),
}


def _ensure(name: str):
    def ensure(self):
        return self._stage(name)
    ensure.__name__ = f"ensure_{name}"
    return ensure


for _name in STAGES:
    setattr(Pipeline, f"ensure_{_name}", _ensure(_name))
