import json
import shutil

import pytest

from qubofs.cli import main


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 3,
        "cutoff": 10,
        "dataset": {
            "synth": {
                "n_users": 40,
                "n_items": 30,
                "n_features": 12,
                "n_relevant": 3,
                "interactions_per_user": 8,
                "noise_rate": 0.1,
            }
        },
        "collaborative": {"kind": "item_knn_cf", "n_cases": 3},
        "qubo": {"alpha": [1.0], "beta": [0.001], "s": [50.0], "p": [0.5]},
        "solver": {"kind": "exhaustive"},
        "final_cbf": {"n_cases": 3},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# test id -> (the field named in the error, config sections to replace, CLI flags)
INVALID_VALUES = {
    "qubo.alpha": ("qubo.alpha", {"qubo": {"alpha": [0], "beta": [0.001], "s": [50.0], "p": [0.5]}}, ()),
    "qubo.alpha string": ("qubo.alpha", {"qubo": {"alpha": ["1"], "beta": [0.001], "s": [50.0], "p": [0.5]}}, ()),
    "qubo.p bool": ("qubo.p", {"qubo": {"alpha": [1.0], "beta": [0.001], "s": [50.0], "p": [True]}}, ()),
    "qubo.s": ("qubo.s", {"qubo": {"alpha": [1.0], "beta": [0.001], "s": [-1], "p": [0.5]}}, ()),
    "split.test_quota": ("split.test_quota", {"split": {"test_quota": 0.95}}, ()),
    "split.holdout_quota": ("split.holdout_quota", {"split": {"holdout_quota": 1.5}}, ()),
    "preprocess.min_user_interactions": (
        "preprocess.min_user_interactions", {"preprocess": {"min_user_interactions": -1}}, ()),
    "max_pairs": ("max_pairs", {"max_pairs": 0}, ()),
    "final_cbf.n_cases": ("final_cbf.n_cases", {"final_cbf": {"n_cases": "5"}}, ()),
    "solver.num_samples": ("solver.num_samples", {}, ("--solver", "sa", "--samples", "0")),
    "workers": ("workers", {}, ("--workers", "0")),
    "seed fractional": ("seed", {"seed": 7.5}, ()),
    "cutoff fractional": ("cutoff", {"cutoff": 10.5}, ()),
    "final_cbf.n_cases fractional": ("final_cbf.n_cases", {"final_cbf": {"n_cases": 5.5}}, ()),
    "dataset.synth.n_users fractional": (
        "dataset.synth.n_users", {"dataset": {"synth": {"n_users": 40.5}}}, ()),
    "solver.num_samples fractional": ("solver.num_samples", {"solver": {"kind": "sa", "num_samples": 2.5}}, ()),
}


class TestStages:
    def test_full_pipeline_command(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "reports/report.json").exists()
        assert (out / "manifest.json").exists()

    def test_stagewise_execution(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        for stage, artifact in [
            ("synth", "dataset/interactions.tsv"),
            ("prepare", "splits/split.json"),
            ("train-cf", "cf_model/model.json"),
            ("build-qubo", "qubo/grid_000/qubo.coo"),
            ("select", "selections/grid_000/selection.json"),
            ("train-cbf", "final/model.json"),
            ("evaluate", "reports/report.json"),
        ]:
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0
            assert (out / artifact).exists(), stage

    def test_stats_prints_table(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["stats", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("feature\t")
        assert (out / "reports/feature_stats.tsv").exists()


class TestOverrides:
    def test_solver_and_samples_override(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        code = main([
            "select", "--config", str(config), "--out", str(out),
            "--solver", "sa", "--samples", "5",
        ])
        assert code == 0
        selection = json.loads((out / "selections/grid_000/selection.json").read_text())
        assert selection["solver"] == "sa"
        assert selection["samples_drawn"] == 5

    def test_seed_override_changes_hash_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        assert main(["prepare", "--config", str(config), "--seed", "99"]) == 0
        run_dirs = list((tmp_path / "runs").iterdir())
        assert len(run_dirs) == 1


class TestExitCodes:
    def test_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": {"synth": {}}, "nope": 1}))
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_config_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_data_error(self, tmp_path):
        cfg = {
            "dataset": {"files": {"interactions": str(tmp_path / "missing.tsv"),
                                   "features": str(tmp_path / "missing2.tsv")}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["prepare", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_corrupt_artifact_is_data_error(self, tmp_path, capsys):
        """A stage file that is not a sparse archive, such as a text COO file
        of an older run, exits 3 naming the file instead of a traceback."""
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        (out / "holdout/train.coo").write_text("40\t30\t1\n0\t0\t1\n")
        shutil.rmtree(out / "reports")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out / "holdout/train.coo") in err

    def test_infeasible_error(self, tmp_path):
        config = write_config(
            tmp_path,
            dataset={"synth": {"n_users": 10, "n_items": 10, "n_features": 4,
                               "n_relevant": 9, "interactions_per_user": 5,
                               "noise_rate": 0.0}},
        )
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 4

    @staticmethod
    def assert_rejected_at_load(tmp_path, capsys, field, flags=(), **config):
        path = write_config(tmp_path, **config)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(path), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not out.exists()  # rejected at load, before any stage ran

    @pytest.mark.parametrize("solver", [
        {"sweeps": 0},
        {"beta_start": 0.0},
        {"beta_end": -1.0},
        {"beta_start": 2.0, "beta_end": 1.0},
    ])
    def test_invalid_solver_schedule(self, tmp_path, capsys, solver):
        self.assert_rejected_at_load(tmp_path, capsys, "solver.", solver={"kind": "sa", **solver})

    @pytest.mark.parametrize("field, config, flags", INVALID_VALUES.values(), ids=list(INVALID_VALUES))
    def test_invalid_value(self, tmp_path, capsys, field, config, flags):
        """A bad value in the file or in an override fails before anything is
        written, naming the field."""
        self.assert_rejected_at_load(tmp_path, capsys, field, flags, **config)

    def test_beta_end_below_derived_beta_start(self, tmp_path, capsys):
        # the derived beta_start is 0.1 / max|Q| and max|Q| >= s = 50
        config = write_config(tmp_path, solver={"kind": "sa", "num_samples": 2, "beta_end": 1e-9})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
        assert "grid point 0" in capsys.readouterr().err
        assert (out / "qubo/grid_000/qubo.json").exists()
        assert not (out / "selections").exists()  # nothing was annealed

    def test_synth_stage_needs_synth_config(self, tmp_path):
        inter = tmp_path / "i.tsv"
        inter.write_text("u\ti\t1\n")
        feats = tmp_path / "f.tsv"
        feats.write_text("i\tf\n")
        cfg = {"dataset": {"files": {"interactions": str(inter), "features": str(feats)}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_synth_on_files_dataset_writes_nothing(self, tmp_path, capsys):
        cfg = {"dataset": {"files": {"interactions": str(tmp_path / "i.tsv"),
                                     "features": str(tmp_path / "f.tsv")}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 2
        assert "dataset.synth" in capsys.readouterr().err
        assert not out.exists()
