import dataclasses
import importlib.util
import inspect
import json
import hashlib
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import qubofs
from qubofs import cli, data, fileio, models, pipeline, solvers, sparse
from qubofs.cli import COMMANDS
from qubofs.config import ITEM_KNN_CBF_SPACE, ExperimentConfig, SynthSpec
from qubofs.errors import ConfigInvalid, InfeasibleConfig
from qubofs.pipeline import (
    Pipeline,
    derive_seed,
    feature_selection_stats,
    random_search,
)
from qubofs.qubo import assemble_qubo, build_fpm, build_ipm, load_qubo
from qubofs.solvers import SelectionResult
from qubofs.sparse import SparseMatrix
from test_solvers import localopt


def tiny_config(**overrides) -> ExperimentConfig:
    base = {
        "seed": 7,
        "cutoff": 10,
        "dataset": {
            "synth": {
                "n_users": 60,
                "n_items": 50,
                "n_features": 16,
                "n_relevant": 4,
                "interactions_per_user": 12,
                "noise_rate": 0.1,
            }
        },
        "collaborative": {"kind": "item_knn_cf", "n_cases": 4},
        "qubo": {"alpha": [1.0], "beta": [0.001], "s": [100.0], "p": [0.25, 0.5]},
        "solver": {"kind": "exhaustive"},
        "final_cbf": {"n_cases": 4},
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def files_config(tmp_path: Path, **overrides) -> ExperimentConfig:
    """``tiny_config`` with its synthetic data written as input TSVs under
    ``tmp_path/inputs`` and given as ``dataset.files``."""
    ds, _ = data.synth_planted(**dataclasses.asdict(tiny_config().dataset.synth), seed=7)
    interactions, features = tmp_path / "inputs/interactions.tsv", tmp_path / "inputs/features.tsv"
    data.save_dataset_tsv(ds, interactions, features)
    return tiny_config(dataset={"files": {"interactions": str(interactions),
                                          "features": str(features)}}, **overrides)


def tree_hashes(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestRandomSearch:
    def test_single_case(self):
        space = {"x": {"type": "float", "low": 0.0, "high": 1.0}}
        best, score, cases = random_search(space, 1, lambda p: p["x"], seed=0)
        assert len(cases) == 1
        assert best == cases[0][0]

    def test_constant_objective_returns_first(self):
        space = {"x": {"type": "int", "low": 0, "high": 100}}
        best, _, cases = random_search(space, 10, lambda p: 1.0, seed=1)
        assert best == cases[0][0]

    def test_finds_one_dimensional_optimum(self):
        space = {"x": {"type": "float", "low": 0.0, "high": 10.0}}
        target = 6.4
        best, _, _ = random_search(
            space, 200, lambda p: -abs(p["x"] - target), seed=2
        )
        assert abs(best["x"] - target) <= 0.5  # within 5% of range width

    def test_log_uniform_stays_in_range(self):
        space = {"s": {"type": "float", "low": 1.0, "high": 1e4, "dist": "log-uniform"}}
        _, _, cases = random_search(space, 50, lambda p: 0.0, seed=3)
        values = [c[0]["s"] for c in cases]
        assert min(values) >= 1.0 and max(values) <= 1e4
        # log-uniform spreads mass across decades
        assert sum(1 for v in values if v < 100) >= 10

    def test_deterministic(self):
        space = {"x": {"type": "float", "low": 0.0, "high": 1.0}}
        a = random_search(space, 20, lambda p: p["x"], seed=4)
        b = random_search(space, 20, lambda p: p["x"], seed=4)
        assert a[0] == b[0] and a[1] == b[1]

    def test_workers_do_not_change_outcome(self):
        space = {
            "x": {"type": "float", "low": 0.0, "high": 1.0},
            "k": {"type": "categorical", "choices": ["a", "b"]},
        }
        objective = lambda p: p["x"] if p["k"] == "a" else -p["x"]
        seq = random_search(space, 30, objective, seed=5, workers=1)
        par = random_search(space, 30, objective, seed=5, workers=4)
        assert seq[0] == par[0] and seq[1] == par[1]
        assert seq[2] == par[2]


def load_recovery_study():
    """scripts/planted_recovery_study.py, which holds the baselines."""
    path = Path(__file__).parents[1] / "scripts" / "planted_recovery_study.py"
    spec = importlib.util.spec_from_file_location("planted_recovery_study", path)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    return study


class TestBaselines:
    study = load_recovery_study()

    def test_tfidf_quota_one_selects_all(self):
        icm = SparseMatrix.from_dense(np.eye(4))
        assert self.study.baseline_tfidf_selection(icm, 1.0) == [0, 1, 2, 3]

    def test_tfidf_picks_rare(self):
        icm = SparseMatrix.from_dense(
            [[1, 1, 0, 1], [0, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1]]
        )
        # df: f0=1, f1=4, f2=3, f3=4 -> rarest two are f0, f2
        assert self.study.baseline_tfidf_selection(icm, 0.5) == [0, 2]

    def test_random_selection_size_and_determinism(self):
        sel = self.study.baseline_random_selection(10, 0.6, seed=5)
        assert len(sel) == 6
        assert sel == self.study.baseline_random_selection(10, 0.6, seed=5)

    def test_random_selection_quota_one(self):
        assert self.study.baseline_random_selection(5, 1.0, seed=6) == [0, 1, 2, 3, 4]


class TestFeatureStats:
    def test_single_selection(self):
        rows = feature_selection_stats([{3}], 5)
        assert rows[0] == (3, 1, 1.0)
        assert all(r[2] == 0.0 for r in rows[1:])

    def test_empty(self):
        rows = feature_selection_stats([], 3)
        assert all(r == (f, 0, 0.0) for f, r in zip(range(3), rows))

    def test_two_selections(self):
        rows = feature_selection_stats([{0}, {0, 1}], 3)
        assert rows[0] == (0, 2, 1.0)
        assert rows[1] == (1, 1, 0.5)
        assert rows[2] == (2, 0, 0.0)

    def test_tsv_shape(self, tmp_path):
        run = Pipeline(tiny_config(), tmp_path / "run")
        text = run.write_feature_stats()
        assert (tmp_path / "run/reports/feature_stats.tsv").read_text() == text
        header, *rows = [line.split("\t") for line in text.strip().split("\n")]
        assert header == ["feature", "label", "times_selected", "share"]
        n_features = run.ensure_dataset().n_features
        assert sorted(int(row[0]) for row in rows) == list(range(n_features))
        n_points = len(run.ensure_selections())
        assert all(float(share) == int(times) / n_points for _, _, times, share in rows)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")


class TestPipeline:
    def test_smoke_report_complete(self, tmp_path):
        Pipeline(tiny_config(), tmp_path / "run").run()
        report = json.loads((tmp_path / "run/reports/report.json").read_text())
        for key in ("precision", "recall", "ndcg", "map", "item_coverage",
                    "gini_diversity", "mil"):
            assert key in report["final"]
            assert 0.0 <= report["final"][key] <= 1.0
        assert (tmp_path / "run/reports/grid_validation.tsv").exists()
        assert (tmp_path / "run/reports/feature_stats.tsv").exists()

    def test_pure_svd_factor_choices_above_the_rank(self, tmp_path):
        """A categorical ``num_factors`` choice above min(n_users, n_items)
        is lowered to it, as an int or float space's high end is, and the
        run goes on."""
        # case 4 of 6 draws the large choice
        cfg = tiny_config(collaborative={"kind": "pure_svd", "n_cases": 6, "space": {
            "num_factors": {"type": "categorical", "choices": [2, 10**6]}}})
        run = Pipeline(cfg, tmp_path / "run")
        run.run()
        ds = run.ensure_dataset()
        limit = min(ds.n_users, ds.n_items)
        rows = (tmp_path / "run/cf_model/search.tsv").read_text().splitlines()[1:]
        tried = sorted({json.loads(row.split("\t")[1])["num_factors"] for row in rows})
        stored = json.loads((tmp_path / "run/cf_model/model.json").read_text())["num_factors"]
        assert tried == [2, limit] and stored in tried

    def test_degenerate_grid_equals_all_features_baseline(self, tmp_path):
        cfg = tiny_config(
            qubo={"alpha": [1.0], "beta": [0.0], "s": [0.0], "p": [1.0]},
        )
        Pipeline(cfg, tmp_path / "run").run()
        report = json.loads((tmp_path / "run/reports/report.json").read_text())
        selection = json.loads(
            (tmp_path / "run/selections/grid_000/selection.json").read_text()
        )
        # features never attached to an item don't survive the TSV round trip,
        # so compare against the actual variable count
        n_features = len(selection["x"])
        assert report["winner"]["n_selected"] == n_features
        assert selection["x"] == [1] * n_features
        assert selection["solver"] == "closed_form"
        assert report["final"] == report["baseline_all_features"]

    def test_rerun_byte_identical_reports(self, tmp_path):
        """Every file but manifest.json is a pure function of (config, seed)."""
        cfg = tiny_config()
        Pipeline(cfg, tmp_path / "a").run()
        Pipeline(cfg, tmp_path / "b").run()
        assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")

    def test_worker_count_does_not_change_reports(self, tmp_path):
        """Every artifact but manifest.json is the same."""
        hashes = []
        for workers, name in ((1, "a"), (3, "b")):
            out = tmp_path / name
            Pipeline(tiny_config(workers=workers), out).run()
            hashes.append(tree_hashes(out))
        assert hashes[0] == hashes[1]

    def test_downstream_regeneration_leaves_upstream_alone(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "run"
        Pipeline(cfg, out).run()
        before = tree_hashes(out)
        # wipe the last stage's tables and re-run
        for name in ("reports/report.json", "reports/report.tsv"):
            (out / name).unlink()
        Pipeline(cfg, out).run()
        after = tree_hashes(out)
        assert before == after

    def test_penalty_dominant_selection_count(self, tmp_path):
        # strength far above any feature-matrix mass pins the selection size
        cfg = tiny_config(
            qubo={"alpha": [1.0], "beta": [0.001], "s": [1e7], "p": [0.5]},
        )
        Pipeline(cfg, tmp_path / "run").run()
        report = json.loads((tmp_path / "run/reports/report.json").read_text())
        n_features = 16
        expected = round(0.5 * n_features)
        assert abs(report["winner"]["n_selected"] - expected) <= max(1, 0.05 * n_features)

    def test_config_mismatch_on_same_out_dir(self, tmp_path):
        out = tmp_path / "run"
        Pipeline(tiny_config(), out).run()
        with pytest.raises(ConfigInvalid):
            Pipeline(tiny_config(seed=8), out)

    def test_sa_solver_path(self, tmp_path):
        cfg = tiny_config(
            qubo={"alpha": [1.0], "beta": [0.001], "s": [1e6], "p": [0.5]},
            solver={"kind": "sa", "num_samples": 20},
        )
        Pipeline(cfg, tmp_path / "run").run()
        selection = json.loads(
            (tmp_path / "run/selections/grid_000/selection.json").read_text()
        )
        assert selection["solver"] == "sa"
        assert sum(selection["x"]) == 8

    @pytest.mark.parametrize("qubo, solver", [
        # test_sa_solver_path's config
        ({"alpha": [1.0], "beta": [0.001], "s": [1e6], "p": [0.5]},
         {"kind": "sa", "num_samples": 20}),
        # short ramps, whose selections depend on every draw
        ({"alpha": [1.0], "beta": [1.0, 0.001], "s": [10.0], "p": [0.25, 0.5]},
         {"kind": "sa", "num_samples": 3, "sweeps": 4}),
    ])
    def test_sa_selections_without_kernel(self, tmp_path, monkeypatch, qubo, solver):
        """The numpy fallback writes the kernel's selections byte for byte."""
        cfg = tiny_config(qubo=qubo, solver=solver)
        Pipeline(cfg, tmp_path / "kernel").ensure_selections()
        monkeypatch.setattr(solvers, "_load_kernel", lambda: None)
        Pipeline(cfg, tmp_path / "numpy").ensure_selections()
        kernel, fallback = (tree_hashes(tmp_path / run / "selections") for run in ("kernel", "numpy"))
        assert kernel and kernel == fallback

    @pytest.mark.parametrize("kind", ["item_knn_cf", "pure_svd"])
    def test_reports_without_ranking_kernel(self, tmp_path, monkeypatch, kind):
        """The numpy ranking writes the ranking kernel's files byte for byte:
        the model searches, the content-model scores and the reports."""
        cfg = tiny_config(collaborative={"kind": kind, "n_cases": 4})
        Pipeline(cfg, tmp_path / "kernel").run()
        monkeypatch.setattr(models, "_load_kernel", lambda: None)
        Pipeline(cfg, tmp_path / "numpy").run()
        kernel, fallback = (tree_hashes(tmp_path / run) for run in ("kernel", "numpy"))
        assert {"cf_model/search.tsv", "reports/report.json"} <= set(kernel)
        assert any(name.startswith("cbf_sel/") for name in kernel)
        assert kernel == fallback

    @pytest.mark.parametrize("kind", ["item_knn_cf", "rp3beta", "pure_svd"])
    def test_run_without_product_kernel(self, tmp_path, monkeypatch, kind):
        """The numpy products (``cosine_knn``'s composition included) write
        the product kernel's run tree byte for byte and fit the same three
        similarities, which no run stores."""
        cfg = tiny_config(collaborative={"kind": kind, "n_cases": 4})
        runs = {"kernel": Pipeline(cfg, tmp_path / "kernel")}
        runs["kernel"].run()
        monkeypatch.setattr(sparse, "_load_kernel", lambda: None)
        runs["numpy"] = Pipeline(cfg, tmp_path / "numpy")
        runs["numpy"].run()
        kernel, fallback = (tree_hashes(tmp_path / run) for run in runs)
        assert {"cf_model/model.json", "cbf_all/model.json", "reports/report.json"} <= set(kernel)
        assert kernel == fallback
        for name in ("cf_model", "cbf_all", "final"):
            built, refit = (getattr(run, f"ensure_{name}")() for run in runs.values())
            assert built.s.nnz and built.s == refit.s, name

    @pytest.mark.parametrize("kind", ["item_knn_cf", "rp3beta", "pure_svd"])
    def test_loaded_models_equal_built_ones(self, tmp_path, kind):
        """A resumed run fits again, from the stored sidecars, the models a
        fresh run built: the same similarity and hyperparameters. The kind
        each sidecar stores is its stage's: the configured collaborative
        kind, and the content model's for ``cbf_all``."""
        cfg, out = tiny_config(collaborative={"kind": kind, "n_cases": 2}), tmp_path / "run"
        built, resumed = Pipeline(cfg, out), Pipeline(cfg, out)
        for name in ("cf_model", "cbf_all", "final"):
            model = getattr(built, f"ensure_{name}")()
            assert getattr(resumed, f"ensure_{name}")() == model, name
        assert not list(out.rglob("similarity.coo"))
        assert json.loads((out / "cf_model/model.json").read_text())["kind"] == kind
        assert json.loads((out / "cbf_all/model.json").read_text())["kind"] == "item_knn_cbf"


class TestSelectionResume:
    POINTS = 8

    @staticmethod
    def sa_config() -> ExperimentConfig:
        return tiny_config(
            qubo={"alpha": [1.0], "beta": [0.001, 1.0], "s": [1.0, 100.0], "p": [0.25, 0.5]},
            solver={"kind": "sa", "num_samples": 5, "sweeps": 30},
        )

    @staticmethod
    def selections(out: Path) -> dict:
        return {
            i: (out / f"selections/grid_{i:03d}/selection.json").read_bytes()
            for i in range(TestSelectionResume.POINTS)
        }

    def test_partial_resume_matches_full_batch(self, tmp_path):
        cfg = self.sa_config()
        out = tmp_path / "run"
        Pipeline(cfg, out).ensure_selections()
        originals = self.selections(out)
        paths = [out / f"selections/grid_{i:03d}/selection.json" for i in range(self.POINTS)]
        inodes = [os.stat(path).st_ino for path in paths]
        deleted = (1, 4, 6)
        for i in deleted:
            paths[i].unlink()
        Pipeline(cfg, out).ensure_selections()
        # the deleted points were re-solved in a batch of three instead of eight
        assert self.selections(out) == originals
        # the others were loaded, not re-solved: an atomic rewrite gives a new inode
        assert all(os.stat(paths[i]).st_ino == inodes[i] for i in range(self.POINTS) if i not in deleted)

    def test_write_killed_midway_resumes(self, tmp_path, monkeypatch):
        cfg = self.sa_config()
        Pipeline(cfg, tmp_path / "reference").ensure_selections()
        reference = self.selections(tmp_path / "reference")

        to_json_dict = SelectionResult.to_json_dict
        calls = []

        def fails_on_third_write(result):
            d = to_json_dict(result)
            calls.append(d)
            if len(calls) == 3:
                # sorts last: json.dump writes every other key, then raises
                d["zz_unserialisable"] = object()
            return d

        out = tmp_path / "run"
        monkeypatch.setattr(SelectionResult, "to_json_dict", fails_on_third_write)
        with pytest.raises(TypeError):
            Pipeline(cfg, out).ensure_selections()
        monkeypatch.undo()
        written = sorted((out / "selections").glob("grid_*/selection.json"))
        assert len(written) == 2
        for path in written:
            json.loads(path.read_text())  # complete, never truncated

        Pipeline(cfg, out).ensure_selections()
        assert self.selections(out) == reference


class TestDescentInPipeline:
    """Every annealed selection is a local optimum under single flips and
    count-preserving swaps, as the benchmark's checker sees it, and still a
    function of its own QUBO and seed alone."""

    # grid index 2 * s + p + 4 * beta: points 2, 3, 6 and 7 have s = 1000
    SA_CONFIG = dict(qubo={"alpha": [1.0], "beta": [1.0, 0.001], "s": [10.0, 1000.0], "p": [0.25, 0.5]},
                     solver={"kind": "sa", "num_samples": 5, "sweeps": 30})

    def test_every_selection_is_locally_optimal(self, tmp_path, monkeypatch):
        starts = []

        def recorded(problem, x):
            starts.append(x)
            return solvers.descend(problem, x)

        monkeypatch.setattr(pipeline, "descend", recorded)
        run = Pipeline(tiny_config(**self.SA_CONFIG), tmp_path / "run")
        selections = run.ensure_selections()
        problems = [load_qubo(*run._files("qubos", i)) for i in range(len(selections))]
        assert len(starts) == len(selections) == 8
        for problem, selection, start in zip(problems, selections, starts):
            assert selection.solver == "sa"
            assert localopt.is_local_optimum(problem.q, selection.x, problem.offset)
            assert selection.energy == solvers.energy(problem, selection.x) <= solvers.energy(problem, start)
        # the count penalty stops the short ramps short of a local optimum at s = 1000
        stuck = [i for i, (problem, start) in enumerate(zip(problems, starts))
                 if not localopt.is_local_optimum(problem.q, start, problem.offset)]
        assert stuck and set(stuck) <= {2, 3, 6, 7}

    def test_deleted_selections_rebuild_the_same_bytes(self, tmp_path):
        cfg, out = tiny_config(**self.SA_CONFIG), tmp_path / "run"
        Pipeline(cfg, out).ensure_selections()
        before = tree_hashes(out / "selections")
        for i in (3, 6):
            (out / f"selections/grid_{i:03d}/selection.json").unlink()
        Pipeline(cfg, out).ensure_selections()
        assert tree_hashes(out / "selections") == before

    @pytest.mark.parametrize("qubo, solver, kind", [
        ({"alpha": [1.0], "beta": [0.001], "s": [100.0], "p": [0.25, 0.5]}, {"kind": "exhaustive"},
         "exhaustive"),
        ({"alpha": [1.0], "beta": [0.0], "s": [0.0], "p": [1.0]}, SA_CONFIG["solver"], "closed_form"),
    ], ids=["exhaustive", "closed_form"])
    def test_optimal_points_are_not_descended(self, tmp_path, monkeypatch, qubo, solver, kind):
        """Exhaustive and closed-form points keep what their solver found,
        which the descent would not move either."""

        def refuse(*args):
            raise AssertionError("an optimal point was descended")

        monkeypatch.setattr(pipeline, "descend", refuse)
        run = Pipeline(tiny_config(qubo=qubo, solver=solver), tmp_path / "run")
        for i, selection in enumerate(run.ensure_selections()):
            problem = load_qubo(*run._files("qubos", i))
            assert selection.solver == kind
            if kind == "exhaustive":
                assert selection.to_json_dict() == solvers.solve_exhaustive(problem).to_json_dict()
            assert np.array_equal(solvers.descend(problem, selection.x)[0], selection.x)


class TestGridResume:
    """Deleting grid points' files rebuilds those points alone, from the pair
    matrix on disk, and deleting a grid stage's shared file rewrites it
    without redoing any point."""

    @pytest.mark.parametrize("deleted, rebuilt, searches", [
        (("qubo/grid_000/qubo.coo", "qubo/grid_002/qubo.coo", "cbf_sel/grid_001/result.json"),
         ("qubo/grid_000/", "qubo/grid_002/", "cbf_sel/grid_001/result.json"), 1),
        (("qubo/pairs.coo",), ("qubo/pairs.coo",), 0),
    ], ids=["points", "pairs"])
    def test_rebuilds_only_what_is_missing(self, tmp_path, monkeypatch, deleted, rebuilt, searches):
        cfg = tiny_config(qubo={"alpha": [1.0], "beta": [0.001], "s": [100.0], "p": [0.25, 0.5, 0.75]})
        out = tmp_path / "run"
        Pipeline(cfg, out).run()
        before = tree_hashes(out)
        inodes = {name: os.stat(out / name).st_ino for name in before}
        for name in deleted:
            (out / name).unlink()

        calls = []
        search = pipeline.random_search

        def counted_search(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(pipeline, "random_search", counted_search)
        Pipeline(cfg, out).ensure_grid_scores()
        assert tree_hashes(out) == before
        # an atomic rewrite gives a file that was never deleted a new inode
        rewritten = set(deleted) | {
            name for name in before if os.stat(out / name).st_ino != inodes[name]
        }
        assert rewritten == {name for name in before if name.startswith(rebuilt)}
        assert len(calls) == searches

    def test_each_distinct_selection_searched_once(self, tmp_path, monkeypatch):
        """The content-model search of a grid point depends on its selection
        alone: points 0 and 2, and 1 and 3, select the same features, so a
        fresh run searches twice, and a rebuild of point 2 takes point 0's
        score without a search. Each row is what its own search gives."""
        cfg = tiny_config(qubo={"alpha": [1.0, 2.0], "beta": [0.001], "s": [100.0], "p": [0.25, 0.5]})
        out = tmp_path / "run"
        fresh = Pipeline(cfg, out)
        masks = [s.x.astype(bool) for s in fresh.ensure_selections()]
        keys = [m.tobytes() for m in masks]
        assert keys[0] == keys[2] != keys[1] == keys[3]
        fresh.ensure_cbf_all()
        calls = []
        search = pipeline.random_search

        def counted_search(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(pipeline, "random_search", counted_search)
        rows = fresh.ensure_grid_scores()
        assert len(calls) == 2
        ds, cold = fresh.ensure_dataset(), fresh.ensure_splits()
        for row, mask in zip(rows, masks):
            params, score, _ = fresh._search_cbf(ds.icm.mask_cols(mask), cold)
            assert (row["cbf_params"], row["validation_score"]) == (params, score)
        fresh.run()
        before = tree_hashes(out)
        (out / "cbf_sel/grid_002/result.json").unlink()
        calls.clear()
        Pipeline(cfg, out).ensure_grid_scores()
        assert tree_hashes(out) == before
        assert calls == []

    def test_point_rebuilt_from_pair_matrices_on_disk(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        Pipeline(tiny_config(), out).ensure_qubos()
        before = tree_hashes(out)
        inode = os.stat(out / "qubo/pairs.coo").st_ino
        (out / "qubo/grid_001/qubo.coo").unlink()

        def refuse(*args):
            raise AssertionError("the pair matrix was recomputed")

        monkeypatch.setattr(pipeline, "build_penalization", refuse)
        monkeypatch.setattr(pipeline, "fit_cbf", refuse)
        resumed = Pipeline(tiny_config(), out)
        resumed.ensure_qubos()
        assert tree_hashes(out) == before
        assert os.stat(out / "qubo/pairs.coo").st_ino == inode
        assert "cf_model" not in resumed.run_info.timings

    def test_point_files_hold_what_builds_the_qubo(self, tmp_path):
        """Each point stores its pair's feature penalization, as sparse as
        ``build_fpm`` gives it, and exactly its p and s; a load is
        ``assemble_qubo`` of them, bit for bit."""
        cfg = tiny_config(qubo={"alpha": [1.0, 2.0], "beta": [0.001], "s": [100.0], "p": [0.25, 0.5]})
        run = Pipeline(cfg, tmp_path / "run")
        points = run.ensure_qubos()
        ds, warm = run.ensure_dataset(), run.ensure_splits().warm_items()
        icm_warm = ds.icm.submatrix(rows=warm)
        pairs = SparseMatrix.load_coo(tmp_path / "run/qubo/pairs.coo")
        for index, point in enumerate(points):
            coo, sidecar = run._files("qubos", index)
            fpm = build_fpm(icm_warm, build_ipm(pairs, point["alpha"], point["beta"]))
            stored = SparseMatrix.load_coo(coo)
            assert stored == fpm and stored.nnz < ds.n_features ** 2
            assert json.loads(sidecar.read_text()) == {"p": point["p"], "s": point["s"]}
            loaded, built = load_qubo(coo, sidecar, ds.n_features), assemble_qubo(fpm, point["p"], point["s"])
            assert np.array_equal(loaded.q, built.q)
            assert loaded.offset == built.offset

    def test_qubo_stage_assembles_nothing(self, tmp_path, monkeypatch):
        """A fresh qubos stage stores what builds each QUBO and assembles none."""

        def refuse(*args):
            raise AssertionError("the qubos stage assembled a QUBO")

        monkeypatch.setattr("qubofs.qubo.assemble_qubo", refuse)
        monkeypatch.setattr(pipeline, "assemble_qubo", refuse)
        run = Pipeline(tiny_config(), tmp_path / "run")
        assert len(run.ensure_qubos()) == 2
        assert all(f.exists() for i in range(2) for f in run._files("qubos", i))

    def test_directories_of_assembled_qubos(self, tmp_path, capsys, monkeypatch):
        """A directory whose points hold the assembled Q and a sidecar of its
        n and offset, as older runs stored them, resumes to the same reports
        without opening them; a point that must still be solved exits 3
        naming its sidecar, which lacks p and s, so the dense Q is never read
        as a penalization, and the message says to delete qubo/grid_*."""
        cfg = tiny_config()
        out = tmp_path / "run"
        run = Pipeline(cfg, out)
        run.run()
        for index in range(2):
            coo, sidecar = run._files("qubos", index)
            problem = load_qubo(coo, sidecar)
            SparseMatrix.from_dense(problem.q).save_coo(coo)
            fileio.write_json(sidecar, {"n": problem.n, "offset": problem.offset, "convention": "symmetric"})
        before = tree_hashes(out)
        shutil.rmtree(out / "reports")
        (out / "manifest.json").unlink()
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        for module in (fileio, data, sparse, pipeline):
            monkeypatch.setattr(module, "open", recording_open, raising=False)
        Pipeline(cfg, out).run()
        assert tree_hashes(out) == before
        assert opened and not [path for path in opened if "qubo/grid_" in path]

        (out / "selections/grid_001/selection.json").unlink()
        shutil.rmtree(out / "reports")
        config = tmp_path / "config.json"
        config.write_text(cfg.canonical_json())
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out / "qubo/grid_001/qubo.json") in err
        assert "delete qubo/grid_*" in err
        assert not (out / "selections/grid_001/selection.json").exists()

    def test_old_pair_archives_are_left_alone(self, tmp_path, monkeypatch):
        """A directory that holds the classification as its kept (-1) and
        eliminated (+1) halves, in ``qubo/keep.coo`` and
        ``qubo/eliminate.coo``, resumes to the reports of a fresh run: its
        first resume rebuilds ``qubo/pairs.coo`` once and loads the grid
        points, and neither old file is opened or changed."""
        cfg = tiny_config()
        out = tmp_path / "run"
        Pipeline(cfg, out).run()
        before = tree_hashes(out)
        pairs = SparseMatrix.load_coo(out / "qubo/pairs.coo")
        pairs.with_entries(pairs.data < 0.0).save_coo(out / "qubo/keep.coo")
        pairs.with_entries(pairs.data > 0.0).save_coo(out / "qubo/eliminate.coo")
        (out / "qubo/pairs.coo").unlink()
        shutil.rmtree(out / "reports")
        (out / "manifest.json").unlink()
        old = {name: digest for name, digest in tree_hashes(out).items()
               if name in ("qubo/keep.coo", "qubo/eliminate.coo")}
        inodes = {name: os.stat(out / name).st_ino for name in before if name.startswith("qubo/grid_")}
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(Path(path).name)
            return open(path, *args, **kwargs)

        for module in (fileio, data, sparse, pipeline):
            monkeypatch.setattr(module, "open", recording_open, raising=False)
        Pipeline(cfg, out).run()
        assert tree_hashes(out) == {**before, **old}
        assert {name: os.stat(out / name).st_ino for name in inodes} == inodes
        assert "pairs.coo.tmp" in opened
        assert not {"keep.coo", "eliminate.coo"} & set(opened)


def assert_stages_name_exactly_the_files_written(cfg: ExperimentConfig, out: Path) -> None:
    Pipeline(cfg, out).run()
    declared = {"config.resolved.json", "manifest.json"} | {
        pattern.format(i=i)
        for name, (patterns, _, _) in pipeline.STAGES.items()
        if name != "synth" or cfg.dataset.synth is not None
        for pattern in patterns
        for i in range(len(cfg.qubo.points()))
    }
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert written == declared


def test_stages_name_exactly_the_files_a_run_writes(tmp_path):
    """A run writes the files STAGES declares, expanded over the grid, and
    the two run-level files; nothing else. A file name that a build or load
    function spells differently from its STAGES row fails here."""
    assert_stages_name_exactly_the_files_written(tiny_config(), tmp_path / "run")


def test_stages_name_exactly_the_files_a_files_run_writes(tmp_path):
    """The same for a dataset.files config, which never reaches the synth
    stage, so that stage's files are not written."""
    assert_stages_name_exactly_the_files_written(files_config(tmp_path), tmp_path / "run")


def readme_output_layout() -> set[str]:
    """The entries README's Output layout block lists under ``run/``: the
    first column of each line indented by two spaces."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Output layout", 1)[1].split("```")[1]
    return {name for line in block.splitlines()
            if line.startswith("  ") and not line.startswith("   ")
            for name in re.split(r"\s{2,}", line.strip())[0].split()}


def test_readme_output_layout_names_what_a_run_writes(tmp_path):
    """README's Output layout names exactly the top-level entries of a run
    directory: the directories STAGES writes into, the pin and the manifest."""
    out = tmp_path / "run"
    Pipeline(tiny_config(), out).run()
    written = {p.name + "/" * p.is_dir() for p in out.iterdir()}
    tops = {pattern.split("/")[0] + "/" for patterns, _, _ in pipeline.STAGES.values()
            for pattern in patterns}
    assert written == tops | {"config.resolved.json", "manifest.json"}
    assert readme_output_layout() == written


def test_search_seed_rule(tmp_path, monkeypatch):
    """One collaborative search, seeded by "cf-search" over the collaborative
    space; every content search, cbf_all's and each grid point's, seeded by
    "cbf-search" over final_cbf's space and case count, so that all
    selections see an identical case sequence."""
    cfg = tiny_config()
    calls = []
    search = pipeline.random_search

    def recorded(*args, **kwargs):
        calls.append(inspect.signature(search).bind(*args, **kwargs).arguments)
        return search(*args, **kwargs)

    monkeypatch.setattr(pipeline, "random_search", recorded)
    Pipeline(cfg, tmp_path / "run").run()
    rule = [(call["seed"], call["space"], call["n_cases"]) for call in calls]
    cf_rule = (derive_seed(cfg.seed, "cf-search"), cfg.collaborative.resolved_space(),
               cfg.collaborative.n_cases)
    cbf_rule = (derive_seed(cfg.seed, "cbf-search"), cfg.final_cbf.resolved_space(),
                cfg.final_cbf.n_cases)
    assert rule.count(cf_rule) == 1
    assert rule.count(cbf_rule) == len(rule) - 1 == 1 + len(cfg.qubo.points())


def test_benchmark_tracer_names_are_bound():
    """Every name the benchmark tracer wraps exists where it looks for it, so
    a refactor cannot silently blank a per-layer metric."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = [name for names in tracer.PIPELINE_NAMES.values() for name in names]
    # solve_sa_many replaced solve_sa; the tracer still wraps the old name
    assert {name for name in wrapped if name not in vars(pipeline)} <= {"solve_sa"}
    assert all(f"ensure_{stage}" in vars(Pipeline) for stage in tracer.STAGES)
    assert {"save_coo", "load_coo"} <= set(vars(SparseMatrix))
    # the stage list is declared once: STAGES gives every ensure_* method
    assert {name for name in dir(Pipeline) if name.startswith("ensure_")} == {
        f"ensure_{stage}" for stage in pipeline.STAGES}
    assert all(callable(getattr(Pipeline, method, None)) for method in COMMANDS.values())


class Killed(Exception):
    pass


class DiesMidway:
    """File handle that writes its first 40 characters or bytes, then raises
    Killed, as a process killed in the middle of the write would leave the
    file; a shorter file dies after its last write, before it is closed.
    Once dead, every write or other use of the file raises Killed."""

    def __init__(self, fh):
        self.fh, self.left = fh, 40

    def write(self, text):
        if len(text) > self.left:
            self.die(text[: self.left])
        self.left -= len(text)
        return self.fh.write(text)

    def die(self, last=None):
        if not self.fh.closed:
            if last:
                self.fh.write(last)
            self.fh.close()
        raise Killed

    def __getattr__(self, name):
        # tell, seek and flush, which a zip archive's writer asks of its file
        if self.fh.closed:
            raise Killed
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.die()
        self.fh.close()


def test_atomic_open_body_that_raises_leaves_no_temp_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("old")
    with pytest.raises(Killed):
        with fileio.atomic_open(path) as fh:
            fh.write("new")
            raise Killed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
    assert path.read_text() == "old"


class TestKilledWriteResumes:
    """A run killed inside a dataset or split write resumes, with no cleanup,
    to the artifacts of an uninterrupted run: on a fresh run, and on a rerun
    that rebuilds the stage because the file was deleted."""

    VICTIMS = {
        "interactions.tsv": "dataset", "features.tsv": "dataset",
        "planted.json": "dataset", "urm.coo": "dataset", "labels.json": "dataset",
        "split.json": "splits",
    }

    @staticmethod
    def run_to_splits(cfg, out):
        pipeline = Pipeline(cfg, out)
        # loading a complete stage skips the stages it was built from
        pipeline.ensure_synth()
        pipeline.ensure_dataset()
        pipeline.ensure_splits()

    @pytest.mark.parametrize("rebuild", [False, True], ids=["fresh", "rebuild"])
    @pytest.mark.parametrize("victim", sorted(VICTIMS))
    def test_resume_matches_uninterrupted_run(self, tmp_path, monkeypatch, victim, rebuild):
        cfg = tiny_config()
        self.run_to_splits(cfg, tmp_path / "reference")
        out = tmp_path / "run"
        if rebuild:
            self.run_to_splits(cfg, out)
            (out / self.VICTIMS[victim] / victim).unlink()

        def dies_writing_victim(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if "w" in mode and Path(path).name in (victim, victim + ".tmp"):
                return DiesMidway(fh)
            return fh

        with monkeypatch.context() as patch:
            # both modules open their files through the name `open`
            for module in (fileio, data):
                patch.setattr(module, "open", dies_writing_victim, raising=False)
            with pytest.raises(Killed):
                self.run_to_splits(cfg, out)
        self.run_to_splits(cfg, out)
        assert tree_hashes(out) == tree_hashes(tmp_path / "reference")


class TestSigkilledRunResumes:
    """A real `qubofs pipeline` process killed with SIGKILL as soon as a
    stage's file appears resumes, with no cleanup, to the reports of an
    uninterrupted run."""

    @pytest.fixture(scope="class")
    def reference_reports(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("reference")
        Pipeline(tiny_config(), out).run()
        return {p.name: p.read_bytes() for p in (out / "reports").iterdir()}

    @pytest.mark.parametrize("trigger", ["qubo/pairs.coo", "selections/grid_000/selection.json"])
    def test_resume_matches_uninterrupted_run(self, tmp_path, trigger, reference_reports):
        cfg = tiny_config()
        config = tmp_path / "config.json"
        config.write_text(cfg.canonical_json())
        out = tmp_path / "run"
        src = str(Path(qubofs.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "qubofs.cli", "pipeline", "--config", str(config), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not (out / trigger).exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.002)
        finally:
            proc.kill()  # SIGKILL
            proc.wait()
        assert proc.returncode == -signal.SIGKILL  # killed, not finished
        assert (out / trigger).exists()

        Pipeline(cfg, out).run()
        assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == reference_reports
        assert not list(out.rglob("*.tmp"))


class TestLazyResume:
    def test_reports_resume_loads_only_what_reports_need(self, tmp_path, monkeypatch):
        """Rebuilding the reports loads complete upstream stages without
        resolving what those stages were built from."""
        cfg = tiny_config()
        out = tmp_path / "run"
        fresh = Pipeline(cfg, out).run()
        reports = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
        shutil.rmtree(out / "reports")
        (out / "manifest.json").unlink()

        loaded = []
        load_coo = SparseMatrix.load_coo.__func__

        def recording_load_coo(cls, path):
            loaded.append(Path(path).relative_to(out).parts[0])
            return load_coo(cls, path)

        monkeypatch.setattr(SparseMatrix, "load_coo", classmethod(recording_load_coo))
        resumed = Pipeline(cfg, out).run()
        assert loaded and not {"cf_model", "qubo"} & set(loaded)
        assert set(resumed.timings) == set(fresh.timings) - {"cf_model", "synth"}
        assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == reports


def file_states(root: Path) -> dict:
    """Each file's bytes, inode and modification time."""
    return {str(p.relative_to(root)): (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
            for p in sorted(root.rglob("*")) if p.is_file()}


def shift_feature_column(features: Path) -> None:
    """Shift the feature column of a features TSV by 7 lines: the same
    feature set on the same lines, each item given another's features."""
    items, labels = zip(*(line.split("\t") for line in features.read_text().splitlines()))
    features.write_text("".join(f"{i}\t{f}\n" for i, f in zip(items, labels[7:] + labels[:7])))


PIN = "config.resolved.json"


class TestDatasetStage:
    """The dataset stage parses its inputs once and stores them as archives.
    The run directory's one pin, config.resolved.json, holds the config and
    the digests of the dataset.files inputs; a run refuses a pin that holds
    other bytes, or a missing one under stage output, and writes nothing."""

    @staticmethod
    def pipeline_argv(tmp_path, cfg) -> list[str]:
        """``qubofs pipeline`` of ``cfg`` into ``tmp_path/run``, run once."""
        config = tmp_path / "config.json"
        config.write_text(cfg.canonical_json())
        argv = ["pipeline", "--config", str(config), "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 0
        return argv

    @staticmethod
    def assert_refused(argv, capsys, *named) -> None:
        """``argv`` exits 2 with a message naming each of ``named``, and no
        file of the run directory changes its bytes, inode or mtime."""
        out = Path(argv[argv.index("--out") + 1])
        before = file_states(out)
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and all(str(name) in err for name in named), err
        assert file_states(out) == before

    def test_edited_input_is_refused(self, tmp_path, capsys):
        """The edit that once mixed two datasets in one run directory: the
        same feature set on the same lines, shifted by 7 lines, then a
        resume that rebuilds one grid point and the reports."""
        cfg = files_config(tmp_path)
        argv, out = self.pipeline_argv(tmp_path, cfg), tmp_path / "run"
        features = Path(cfg.dataset.files.features)
        shift_feature_column(features)
        shutil.rmtree(out / "cbf_sel/grid_000")
        shutil.rmtree(out / "reports")
        self.assert_refused(argv, capsys, out / PIN, cfg.dataset.files.interactions, features)

    @pytest.mark.parametrize("deleted_dirs", [["dataset"], []], ids=["dataset and pin", "pin"])
    @pytest.mark.parametrize("source, change", [
        ("files", None), ("files", "input"), ("files", "seed"), ("synth", None), ("synth", "seed"),
    ], ids=["same input", "edited input", "another seed", "synth", "synth, another seed"])
    def test_missing_pin_is_refused_under_later_stages(self, tmp_path, capsys, source, change,
                                                       deleted_dirs):
        """Without the pin nothing tells which config and inputs the stage
        output was built from, so the run stops, whether or not either
        changed, instead of rebuilding under it. A rerun at another seed once
        reported that seed over the old seed's splits, models and selections."""
        cfg = files_config(tmp_path) if source == "files" else tiny_config()
        argv, out = self.pipeline_argv(tmp_path, cfg), tmp_path / "run"
        if change == "input":
            shift_feature_column(Path(cfg.dataset.files.features))
        if change == "seed":
            argv += ["--seed", "8"]
        (out / PIN).unlink()
        for name in deleted_dirs + ["reports"]:
            shutil.rmtree(out / name)
        self.assert_refused(argv, capsys, out / PIN, "splits/", "cf_model/")

    @pytest.mark.parametrize("source", ["files", "synth"])
    @pytest.mark.parametrize("pin", [b"{", b"[]", b"\xff"], ids=["not JSON", "not an object", "not UTF-8"])
    def test_corrupt_pin_is_refused(self, tmp_path, capsys, pin, source):
        """The pin is compared as bytes, so a pin that does not decode is
        refused as any other pin that differs."""
        cfg = files_config(tmp_path) if source == "files" else tiny_config()
        argv, out = self.pipeline_argv(tmp_path, cfg), tmp_path / "run"
        (out / PIN).write_bytes(pin)
        self.assert_refused(argv, capsys, out / PIN)

    def test_deleted_dataset_is_rebuilt(self, tmp_path):
        """The pin vouches for the inputs, so a deleted dataset/ is rebuilt
        byte for byte from unchanged ones, and so is a deleted cf_model/,
        whose holdout is drawn again from the split's columns of it."""
        cfg = files_config(tmp_path)
        argv, out = self.pipeline_argv(tmp_path, cfg), tmp_path / "run"
        before = tree_hashes(out)
        for name in ("dataset", "cf_model", "reports"):  # the reports read the dataset's labels
            shutil.rmtree(out / name)
        assert cli.main(["train-cf", *argv[1:]]) == 0
        assert (out / "cf_model").is_dir() and not (out / "reports").exists()
        assert cli.main(argv) == 0
        assert tree_hashes(out) == before

    def test_deleted_dataset_with_edited_input_is_refused(self, tmp_path, capsys):
        cfg = files_config(tmp_path)
        argv, out = self.pipeline_argv(tmp_path, cfg), tmp_path / "run"
        shutil.rmtree(out / "dataset")
        shift_feature_column(Path(cfg.dataset.files.features))
        self.assert_refused(argv, capsys, out / PIN, cfg.dataset.files.features)

    def test_file_digest_needs_no_hashlib_file_digest(self, tmp_path, monkeypatch):
        """``hashlib.file_digest`` is new in Python 3.11; the digest of an
        input is taken without it, in blocks."""
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        path = tmp_path / "input.tsv"
        content = os.urandom(3 << 19)  # one and a half 1 MiB blocks
        path.write_bytes(content)
        assert pipeline.file_digest(path) == {"bytes": len(content),
                                              "sha256": hashlib.sha256(content).hexdigest()}

    def test_deleted_archive_is_rebuilt(self, tmp_path):
        cfg = files_config(tmp_path)
        out = tmp_path / "run"
        Pipeline(cfg, out).run()
        before = tree_hashes(out)
        (out / "dataset/urm.coo").unlink()
        Pipeline(cfg, out).ensure_dataset()
        assert tree_hashes(out) == before

    @pytest.mark.parametrize("source", ["synth", "files"])
    def test_resume_parses_nothing(self, tmp_path, monkeypatch, source):
        """With every stage on disk, no stage parses or preprocesses the
        input, and the loaded dataset is the one the fresh run built."""
        cfg = tiny_config() if source == "synth" else files_config(tmp_path)
        out = tmp_path / "run"
        fresh = Pipeline(cfg, out)
        fresh.run()
        before = tree_hashes(out)

        def refuse(*args, **kwargs):
            raise AssertionError("a resume parsed the input")

        for name in ("load_interactions", "load_item_features", "build_dataset", "preprocess"):
            monkeypatch.setattr(pipeline, name, refuse)
        resumed = Pipeline(cfg, out)
        for name in pipeline.STAGES:
            if name != "synth" or source == "synth":
                getattr(resumed, f"ensure_{name}")()
        resumed.write_feature_stats()  # the labels, rewritten from the loaded dataset
        assert resumed.ensure_dataset() == fresh.ensure_dataset()
        assert tree_hashes(out) == before


def test_resume_beside_stored_similarities(tmp_path):
    """A run directory of an earlier version, which stored each model's
    similarity as ``similarity.coo`` beside its sidecar, resumes to the same
    reports and leaves those archives as they were."""
    cfg = tiny_config(collaborative={"kind": "rp3beta", "n_cases": 2})
    out = tmp_path / "run"
    run = Pipeline(cfg, out)
    run.run()
    for name in ("cf_model", "cbf_all", "final"):
        getattr(run, f"ensure_{name}")().s.save_coo(out / name / "similarity.coo")
    before = tree_hashes(out)
    shutil.rmtree(out / "reports")
    Pipeline(cfg, out).run()
    assert tree_hashes(out) == before


def test_resume_beside_stored_final_model_and_row_copies(tmp_path):
    """A run directory of an earlier version, which stored the final model's
    sidecar as ``final/model.json`` and copied the grid point, the selection's
    size, energy and solver into every ``cbf_sel`` row, resumes to the same
    reports and leaves those files as they were."""
    cfg = tiny_config(qubo={"alpha": [1.0], "beta": [1.0, 0.001], "s": [100.0], "p": [0.25, 0.5]})
    out = tmp_path / "run"
    run = Pipeline(cfg, out)
    run.run()
    points = cfg.qubo.points()
    for index, selection in enumerate(run.ensure_selections()):
        path = out / f"cbf_sel/grid_{index:03d}/result.json"
        row = json.loads(path.read_text())
        assert sorted(row) == ["cbf_params", "validation_score"]
        fileio.write_json(path, {**row, "grid_index": index, "params": points[index],
                                 "n_selected": len(selection.selected()),
                                 "energy": selection.energy, "solver": selection.solver})
    winner = json.loads((out / "reports/report.json").read_text())["winner"]
    pipeline.save_model(run.ensure_final(), "item_knn_cbf", out / "final/model.json",
                        grid_index=winner["grid_index"], n_selected=winner["n_selected"])
    before = tree_hashes(out)
    shutil.rmtree(out / "reports")
    Pipeline(cfg, out).run()
    assert tree_hashes(out) == before


def test_resume_from_64_bit_archives(tmp_path, monkeypatch):
    """A run whose .coo files hold int64 index arrays, as earlier versions
    wrote them, resumes to the same reports, and every matrix it loads has
    32-bit indices."""
    cfg = tiny_config()
    out = tmp_path / "run"
    Pipeline(cfg, out).run()
    reports = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
    for path in out.rglob("*.coo"):
        coo = sp.load_npz(path)
        coo.coords = tuple(c.astype(np.int64) for c in coo.coords)
        with open(path, "wb") as fh:
            sp.save_npz(fh, coo, compressed=False)
        with np.load(path) as z:
            assert z["row"].dtype == z["col"].dtype == np.int64
    shutil.rmtree(out / "reports")

    widths = set()
    load_coo = SparseMatrix.load_coo.__func__

    def recording_load_coo(cls, path):
        m = load_coo(cls, path)
        widths.add((m.indptr.dtype, m.indices.dtype))
        return m

    monkeypatch.setattr(SparseMatrix, "load_coo", classmethod(recording_load_coo))
    Pipeline(cfg, out).run()
    assert widths == {(np.dtype(np.int32), np.dtype(np.int32))}
    assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == reports


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict({"dataset": {"synth": {}}, "typo_key": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict(
                {"dataset": {"synth": {"n_userz": 5}}}
            )

    def test_needs_exactly_one_dataset(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict({"dataset": {}})

    def test_hash_stable(self):
        a = tiny_config()
        b = tiny_config()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != tiny_config(seed=8).config_hash()

    @pytest.mark.parametrize("synth", [
        {"n_items": 0}, {"n_relevant": 41}, {"noise_rate": -0.1}, {"noise_rate": 1.0},
        {"n_items": 2, "interactions_per_user": 30, "noise_rate": 0.1},
    ])
    def test_synth_rejected_at_load_as_at_generation(self, synth):
        spec = {**dataclasses.asdict(SynthSpec()), **synth}
        with pytest.raises(InfeasibleConfig):
            data.synth_planted(**spec, seed=0)
        with pytest.raises(ConfigInvalid, match="dataset.synth."):
            ExperimentConfig.from_dict({"dataset": {"synth": synth}})

    @pytest.mark.parametrize("entry, message", [
        (5, "must be a JSON object"),
        ({"type": "int", "low": 20, "high": 5}, "low must be <= its high"),
        ({"type": "float", "low": 0, "high": "9"}, "must be finite numbers"),
        ({"type": "float", "low": 0, "high": 9, "dist": "log-uniform"}, "must be > 0"),
        ({"type": "float", "low": 1, "high": 9, "dist": "normal"}, "dist must be"),
        ({"type": "categorical", "choices": []}, "non-empty list"),
    ])
    def test_search_space_entry_rejected(self, entry, message):
        space = {**ITEM_KNN_CBF_SPACE, "shrink": entry}
        with pytest.raises(ConfigInvalid) as exc:
            tiny_config(final_cbf={"n_cases": 4, "space": space})
        assert "final_cbf.space.shrink" in str(exc.value) and message in str(exc.value)

    def test_search_space_may_leave_out_weighting(self):
        space = {k: v for k, v in ITEM_KNN_CBF_SPACE.items() if k != "weighting"}
        assert tiny_config(final_cbf={"n_cases": 4, "space": space}).final_cbf.space == space

    def test_integer_parameter_takes_whole_number_float_bounds(self):
        space = {**ITEM_KNN_CBF_SPACE, "topK": {"type": "int", "low": 5.0, "high": 20.0}}
        cfg = tiny_config(final_cbf={"n_cases": 4, "space": space})
        assert all(type(pipeline.sample_point(space, np.random.default_rng(seed))["topK"]) is int for seed in range(5))
        assert cfg.final_cbf.space == space

    def test_checked_in_config_loads(self):
        assert ExperimentConfig.from_json_file(Path(__file__).parents[1] / "configs" / "synthetic.json")

    def test_hash_golden(self):
        """config_hash goes into report.json and names the default run
        directory, so its value is pinned, not only its stability."""
        readme_minimal = {
            "seed": 7,
            "dataset": {"synth": {"n_users": 200, "n_items": 150, "n_features": 40,
                                  "n_relevant": 8, "interactions_per_user": 30,
                                  "noise_rate": 0.1}},
            "qubo": {"alpha": [1.0], "beta": [1.0, 0.01], "s": [100.0, 1000.0],
                     "p": [0.2, 0.4, 0.6]},
            "solver": {"kind": "sa", "num_samples": 100},
        }
        assert ExperimentConfig.from_dict(readme_minimal).config_hash() == "567732c8383e22d9"
        assert tiny_config().config_hash() == "461053b308e8e44a"
        assert tiny_config(seed=7.0).config_hash() == "461053b308e8e44a"
        assert tiny_config(final_cbf={"n_cases": 4.0}).config_hash() == "461053b308e8e44a"
        assert ExperimentConfig.from_dict({"dataset": {"synth": {}}}).config_hash() == "e771e03d654fa2a2"
