import dataclasses
import importlib.util
import json
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qubofs
from qubofs import data, fileio, pipeline
from qubofs.config import ITEM_KNN_CBF_SPACE, ExperimentConfig, SynthSpec
from qubofs.errors import ConfigInvalid, InfeasibleConfig
from qubofs.pipeline import (
    Pipeline,
    baseline_random_selection,
    baseline_tfidf_selection,
    derive_seed,
    feature_selection_stats,
    random_search,
    run_pipeline,
    stats_tsv,
)
from qubofs.solvers import SelectionResult
from qubofs.sparse import SparseMatrix


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


class TestBaselines:
    def test_tfidf_quota_one_selects_all(self):
        icm = SparseMatrix.from_dense(np.eye(4))
        assert baseline_tfidf_selection(icm, 1.0) == [0, 1, 2, 3]

    def test_tfidf_picks_rare(self):
        icm = SparseMatrix.from_dense(
            [[1, 1, 0, 1], [0, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1]]
        )
        # df: f0=1, f1=4, f2=3, f3=4 -> rarest two are f0, f2
        assert baseline_tfidf_selection(icm, 0.5) == [0, 2]

    def test_random_selection_size_and_determinism(self):
        sel = baseline_random_selection(10, 0.6, seed=5)
        assert len(sel) == 6
        assert sel == baseline_random_selection(10, 0.6, seed=5)

    def test_random_selection_quota_one(self):
        assert baseline_random_selection(5, 1.0, seed=6) == [0, 1, 2, 3, 4]


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

    def test_tsv_shape(self):
        text = stats_tsv(feature_selection_stats([{0}], 2), ("a", "b"))
        lines = text.strip().split("\n")
        assert lines[0].startswith("feature\t")
        assert len(lines) == 3


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")


class TestPipeline:
    def test_smoke_report_complete(self, tmp_path):
        run_pipeline(tiny_config(), tmp_path / "run")
        report = json.loads((tmp_path / "run/reports/report.json").read_text())
        for key in ("precision", "recall", "ndcg", "map", "item_coverage",
                    "gini_diversity", "mil"):
            assert key in report["final"]
            assert 0.0 <= report["final"][key] <= 1.0
        assert (tmp_path / "run/reports/grid_validation.tsv").exists()
        assert (tmp_path / "run/reports/feature_stats.tsv").exists()

    def test_degenerate_grid_equals_all_features_baseline(self, tmp_path):
        cfg = tiny_config(
            qubo={"alpha": [1.0], "beta": [0.0], "s": [0.0], "p": [1.0]},
        )
        run_pipeline(cfg, tmp_path / "run")
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
        cfg = tiny_config()
        run_pipeline(cfg, tmp_path / "a")
        run_pipeline(cfg, tmp_path / "b")
        for name in ("report.json", "report.tsv", "grid_validation.tsv",
                     "feature_stats.tsv"):
            assert (tmp_path / "a/reports" / name).read_bytes() == (
                tmp_path / "b/reports" / name
            ).read_bytes(), name

    def test_worker_count_does_not_change_reports(self, tmp_path):
        run_pipeline(tiny_config(workers=1), tmp_path / "a")
        run_pipeline(tiny_config(workers=3), tmp_path / "b")
        assert (tmp_path / "a/reports/report.json").read_bytes() == (
            tmp_path / "b/reports/report.json"
        ).read_bytes()

    def test_downstream_regeneration_leaves_upstream_alone(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        before = tree_hashes(out)
        # wipe the last two stages and re-run
        for name in ("reports/report.json", "reports/report.tsv",
                      "final/similarity.coo", "final/model.json"):
            (out / name).unlink()
        run_pipeline(cfg, out)
        after = tree_hashes(out)
        assert before == after

    def test_penalty_dominant_selection_count(self, tmp_path):
        # strength far above any feature-matrix mass pins the selection size
        cfg = tiny_config(
            qubo={"alpha": [1.0], "beta": [0.001], "s": [1e7], "p": [0.5]},
        )
        run_pipeline(cfg, tmp_path / "run")
        report = json.loads((tmp_path / "run/reports/report.json").read_text())
        n_features = 16
        expected = round(0.5 * n_features)
        assert abs(report["winner"]["n_selected"] - expected) <= max(1, 0.05 * n_features)

    def test_config_mismatch_on_same_out_dir(self, tmp_path):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        with pytest.raises(ConfigInvalid):
            Pipeline(tiny_config(seed=8), out)

    def test_sa_solver_path(self, tmp_path):
        cfg = tiny_config(
            qubo={"alpha": [1.0], "beta": [0.001], "s": [1e6], "p": [0.5]},
            solver={"kind": "sa", "num_samples": 20},
        )
        run_pipeline(cfg, tmp_path / "run")
        selection = json.loads(
            (tmp_path / "run/selections/grid_000/selection.json").read_text()
        )
        assert selection["solver"] == "sa"
        assert sum(selection["x"]) == 8

    @pytest.mark.parametrize("kind", ["item_knn_cf", "pure_svd"])
    def test_loaded_models_equal_built_ones(self, tmp_path, kind):
        """A resumed run sees the models a fresh run built: the same
        similarity, kind and hyperparameters."""
        out = tmp_path / "run"
        run = Pipeline(tiny_config(collaborative={"kind": kind, "n_cases": 2}), out)
        built = {
            "cf_model": run.ensure_cf_model(),
            "cbf_all": run.ensure_cbf_all(),
            "final": run.ensure_final(),
        }
        for name, model in built.items():
            assert pipeline.load_model(out / name) == model, name


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
            i: json.loads((out / f"selections/grid_{i:03d}/selection.json").read_text())
            for i in range(TestSelectionResume.POINTS)
        }

    @staticmethod
    def without_wall_time(selection: dict) -> dict:
        return {k: v for k, v in selection.items() if k != "wall_time_s"}

    def test_partial_resume_matches_full_batch(self, tmp_path):
        cfg = self.sa_config()
        out = tmp_path / "run"
        Pipeline(cfg, out).ensure_selections()
        originals = self.selections(out)
        deleted = (1, 4, 6)
        for i in deleted:
            (out / f"selections/grid_{i:03d}/selection.json").unlink()
        Pipeline(cfg, out).ensure_selections()
        resumed = self.selections(out)
        for i in range(self.POINTS):
            if i in deleted:
                # re-solved in a batch of three instead of eight
                assert self.without_wall_time(resumed[i]) == self.without_wall_time(originals[i])
            else:
                assert resumed[i] == originals[i]  # loaded, not re-solved

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
        resumed = self.selections(out)
        for i in range(self.POINTS):
            assert self.without_wall_time(resumed[i]) == self.without_wall_time(reference[i])


class TestGridResume:
    """Deleting grid points' files rebuilds those points alone, and deleting a
    grid stage's shared file rewrites it without redoing any point."""

    @pytest.mark.parametrize("deleted, rebuilt, searches", [
        (("qubo/grid_000/qubo.coo", "qubo/grid_002/qubo.coo", "cbf_sel/grid_001/result.json"),
         ("qubo/grid_000/", "qubo/grid_002/", "qubo/keep.coo", "qubo/eliminate.coo",
          "cbf_sel/grid_001/result.json", "cbf_sel/winner.json"), 1),
        (("cbf_sel/winner.json",), ("cbf_sel/winner.json",), 0),
        (("qubo/keep.coo",), ("qubo/keep.coo", "qubo/eliminate.coo"), 0),
    ], ids=["points", "winner", "keep"])
    def test_rebuilds_only_what_is_missing(self, tmp_path, monkeypatch, deleted, rebuilt, searches):
        cfg = tiny_config(qubo={"alpha": [1.0], "beta": [0.001], "s": [100.0], "p": [0.25, 0.5, 0.75]})
        out = tmp_path / "run"
        run_pipeline(cfg, out)
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


class Killed(Exception):
    pass


class DiesMidway:
    """File handle that writes its first 40 characters, then raises Killed, as
    a process killed in the middle of the write would leave the file."""

    def __init__(self, fh):
        self.fh, self.left = fh, 40

    def write(self, text):
        if len(text) > self.left:
            self.fh.write(text[: self.left])
            self.fh.close()
            raise Killed
        self.left -= len(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestKilledWriteResumes:
    """A run killed inside a dataset or split write resumes, with no cleanup,
    to the artifacts of an uninterrupted run: on a fresh run, and on a rerun
    that rebuilds the stage because the file was deleted."""

    VICTIMS = {
        "interactions.tsv": "dataset", "features.tsv": "dataset",
        "planted.json": "dataset", "split.json": "splits",
    }

    @staticmethod
    def run_to_splits(cfg, out):
        pipeline = Pipeline(cfg, out)
        pipeline.ensure_dataset()  # loading the splits alone skips the dataset
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
        run_pipeline(tiny_config(), out)
        return {p.name: p.read_bytes() for p in (out / "reports").iterdir()}

    @pytest.mark.parametrize("trigger", ["qubo/keep.coo", "selections/grid_000/selection.json"])
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

        run_pipeline(cfg, out)
        assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == reference_reports
        assert not list(out.rglob("*.tmp"))


class TestLazyResume:
    def test_reports_resume_loads_only_what_reports_need(self, tmp_path, monkeypatch):
        """Rebuilding the reports loads complete upstream stages without
        resolving what those stages were built from."""
        cfg = tiny_config()
        out = tmp_path / "run"
        fresh = run_pipeline(cfg, out)
        reports = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
        shutil.rmtree(out / "reports")
        (out / "manifest.json").unlink()

        loaded = []
        load_coo = SparseMatrix.load_coo.__func__

        def recording_load_coo(cls, path):
            loaded.append(Path(path).relative_to(out).parts[0])
            return load_coo(cls, path)

        monkeypatch.setattr(SparseMatrix, "load_coo", classmethod(recording_load_coo))
        resumed = run_pipeline(cfg, out)
        assert loaded and not {"cf_model", "qubo"} & set(loaded)
        assert set(resumed.timings) == set(fresh.timings) - {"cf_model"}
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
