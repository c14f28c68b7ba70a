import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qubofs import cli, errors, models
from qubofs.cli import COMMANDS, build_parser, main
from qubofs.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


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


def setup_probe() -> str:
    """The benchmark's setup probe, read from the source of perfbench/run.py."""
    tree = ast.parse((ROOT / "perfbench/run.py").read_text(encoding="utf-8"))
    [probe] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "SETUP_PROBE" for t in node.targets)]
    return probe


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args`` with this checkout's sources on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


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
    "dataset.synth.n_users": ("dataset.synth.n_users", {"dataset": {"synth": {"n_users": -3}}}, ()),
    "dataset.synth.noise_rate": ("dataset.synth.noise_rate", {"dataset": {"synth": {"noise_rate": 1.0}}}, ()),
    "dataset.synth.n_relevant": (
        "dataset.synth.n_relevant", {"dataset": {"synth": {"n_features": 4, "n_relevant": 9}}}, ()),
    "collaborative.space high missing": ("collaborative.space.topK", {"collaborative": {"space": {
        "topK": {"type": "int", "low": 5}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]}}}}, ()),
    "final_cbf.space type": ("final_cbf.space.shrink", {"final_cbf": {"space": {
        "topK": {"type": "int", "low": 5, "high": 20}, "shrink": {"type": "double", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]}}}}, ()),
    "final_cbf.space topK low 0": ("final_cbf.space.topK.low", {"final_cbf": {"space": {
        "topK": {"type": "int", "low": 0, "high": 20}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]}}}}, ()),
    "collaborative.space shrink low": ("collaborative.space.shrink.low", {"collaborative": {"space": {
        "topK": {"type": "int", "low": 5, "high": 20}, "shrink": {"type": "float", "low": -1, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]}}}}, ()),
    "collaborative.space topK choice 0": ("collaborative.space.topK.choices", {"collaborative": {"space": {
        "topK": {"type": "categorical", "choices": [5, 0]}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]}}}}, ()),
    "rp3beta space alpha low": ("collaborative.space.alpha.low", {"collaborative": {
        "kind": "rp3beta", "n_cases": 3, "space": {
            "topK": {"type": "int", "low": 5, "high": 20}, "alpha": {"type": "float", "low": -0.5, "high": 1},
            "beta": {"type": "float", "low": 0, "high": 1},
            "normalize": {"type": "categorical", "choices": [True]}}}}, ()),
    "pure_svd space num_factors low 0": ("collaborative.space.num_factors.low", {"collaborative": {
        "kind": "pure_svd", "n_cases": 3, "space": {
            "num_factors": {"type": "int", "low": 0, "high": 5}}}}, ()),
    "final_cbf.space weighting bm24": ("final_cbf.space.weighting.choices", {"final_cbf": {"space": {
        "topK": {"type": "int", "low": 5, "high": 20}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]},
        "weighting": {"type": "categorical", "choices": ["none", "bm24"]}}}}, ()),
    "final_cbf.space normalize no": ("final_cbf.space.normalize.choices", {"final_cbf": {"space": {
        "topK": {"type": "int", "low": 5, "high": 20}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": ["no"]}}}}, ()),
    "collaborative.space normalize 0": ("collaborative.space.normalize.choices", {"collaborative": {"space": {
        "topK": {"type": "int", "low": 5, "high": 20}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True, 0]}}}}, ()),
    "final_cbf.space weighting int": ("final_cbf.space.weighting.type", {"final_cbf": {"space": {
        "topK": {"type": "int", "low": 5, "high": 20}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]},
        "weighting": {"type": "int", "low": 1, "high": 2}}}}, ()),
    "collaborative.space normalize float": ("collaborative.space.normalize.type", {"collaborative": {"space": {
        "topK": {"type": "int", "low": 5, "high": 20}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "float", "low": 0, "high": 1}}}}, ()),
    "collaborative.space topK missing": ("collaborative.space.topK", {"collaborative": {"space": {
        "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]}}}}, ()),
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


class TestParser:
    def test_every_command_parses(self):
        for command in COMMANDS:
            assert build_parser().parse_args([command, "--config", "c.json"]).command == command

    def test_flags_before_or_after_the_command(self):
        after = build_parser().parse_args(["select", "--config", "c.json", "--seed", "4", "--solver", "sa"])
        before = build_parser().parse_args(["--config", "c.json", "--seed", "4", "--solver", "sa", "select"])
        assert vars(before) == vars(after) == {
            "command": "select", "config": "c.json", "out": None, "seed": 4,
            "workers": None, "solver": "sa", "samples": None}

    def test_benchmark_setup_probe(self, tmp_path):
        """The setup probe of perfbench/run.py, read from its source and run
        as the benchmark runs it, still parses, loads and pins the config."""
        config, out = write_config(tmp_path), tmp_path / "probe"
        child = run_python(setup_probe(), str(config), str(out))
        assert child.returncode == 0, child.stderr
        float(child.stdout.strip().splitlines()[-1])
        pinned = (out / "config.resolved.json").read_text(encoding="utf-8")
        assert pinned == ExperimentConfig.from_json_file(config).canonical_json()


class TestStartup:
    """Importing scipy costs a process about 0.2 s. Starting the command line,
    the benchmark's setup probe and a resume need none of its arithmetic,
    so none of them may import it."""

    @staticmethod
    def scipy_modules_after(code: str, *args: str) -> list[str]:
        child = run_python(code + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                           *args)
        assert child.returncode == 0, child.stderr
        return ast.literal_eval(child.stdout.strip().splitlines()[-1])

    def test_imports(self):
        assert self.scipy_modules_after("import sys\nimport qubofs.cli, qubofs.pipeline") == []

    def test_setup_probe(self, tmp_path):
        config, out = write_config(tmp_path), tmp_path / "probe"
        assert self.scipy_modules_after(setup_probe(), str(config), str(out)) == []
        assert (out / "config.resolved.json").is_file()

    @pytest.mark.parametrize("repeated_lines", [False, True], ids=["synth", "repeated interaction lines"])
    def test_resume(self, tmp_path, repeated_lines):
        """A resume after deleting reports/ and manifest.json, as the
        benchmark resumes; ranking without the compiled kernel multiplies
        sparse matrices, so it needs the kernel. A resume reads the dataset
        files again, and their repeated lines are summed without scipy."""
        if models._load_kernel() is None:
            pytest.skip("no ranking kernel on this machine")
        config, out = write_config(tmp_path), tmp_path / "run"
        if repeated_lines:
            assert main(["synth", "--config", str(config), "--out", str(tmp_path / "synth")]) == 0
            interactions, features = (tmp_path / "synth/dataset" / name
                                      for name in ("interactions.tsv", "features.tsv"))
            lines = interactions.read_text().splitlines(keepends=True)
            interactions.write_text("".join(lines + lines[:20]))
            config = write_config(tmp_path, dataset={"files": {"interactions": str(interactions),
                                                               "features": str(features)}})
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        reports = {p.name: p.read_bytes() for p in (out / "reports").iterdir()}
        shutil.rmtree(out / "reports")
        (out / "manifest.json").unlink()
        resume = "import sys\nfrom qubofs.cli import main\nassert main(sys.argv[1:]) == 0"
        argv = ("pipeline", "--config", str(config), "--out", str(out))
        assert self.scipy_modules_after(resume, *argv) == []
        assert {p.name: p.read_bytes() for p in (out / "reports").iterdir()} == reports


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


# the exit code and message prefix that README and the cli docstring give
# each kind of error
DOCUMENTED_EXITS = {errors.ConfigInvalid: (2, "config error"), errors.DataError: (3, "data error"),
                    errors.Infeasible: (4, "infeasible")}


def concrete_errors(cls=errors.QubofsError) -> list[type]:
    """The error classes below ``cls`` that have no subclasses."""
    subclasses = cls.__subclasses__()
    return [leaf for sub in subclasses for leaf in concrete_errors(sub)] if subclasses else [cls]


class TestExitCodes:
    @pytest.mark.parametrize("error", concrete_errors(), ids=lambda cls: cls.__name__)
    def test_every_error_exits_with_its_documented_code(self, tmp_path, capsys, monkeypatch, error):
        [(code, prefix)] = [kind for base, kind in DOCUMENTED_EXITS.items() if issubclass(error, base)]

        def raises(*args):
            raise error("it failed")

        monkeypatch.setattr(cli, "Pipeline", raises)
        path = write_config(tmp_path)
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{prefix}: it failed\n"

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

    @pytest.mark.parametrize("interactions, features, message", [
        ("u0\ta\t1\nu1\tb\tnan\n", "a\tf0\nb\tf1\n", "line 2: non-finite value"),
        ("u0\ta\t1\nu1\tb\t1\n", "# item\tfeature\n", "no item features"),
        ("u0\ta\t1\nu1\tb\t1\n", "a\tf0\n\nb\tf1\t1\n", "line 3: expected 2 tab-separated fields, got 3"),
    ], ids=["non-finite value", "no features", "features field count"])
    def test_bad_dataset_is_data_error(self, tmp_path, capsys, interactions, features, message):
        """The dataset stage rejects the files with exit 3 before any later
        stage runs."""
        (tmp_path / "i.tsv").write_text(interactions)
        (tmp_path / "f.tsv").write_text(features)
        config = write_config(tmp_path, dataset={"files": {
            "interactions": str(tmp_path / "i.tsv"), "features": str(tmp_path / "f.tsv")}})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config.resolved.json"]

    def test_overflowing_value_is_data_error(self, tmp_path, capsys):
        """A finite value whose products overflow passes the dataset stage
        and stops the stage that multiplies it with exit 3."""
        (tmp_path / "i.tsv").write_text("".join(
            f"u{u}\ti{(u + k) % 8}\t{'1e200' if u == k == 0 else 1}\n"
            for u in range(12) for k in range(3)))
        (tmp_path / "f.tsv").write_text("".join(f"i{i}\tf{i % 3}\n" for i in range(8)))
        config = write_config(tmp_path, dataset={"files": {
            "interactions": str(tmp_path / "i.tsv"), "features": str(tmp_path / "f.tsv")}})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error: non-finite value")
        assert (out / "holdout").is_dir() and not (out / "cf_model").exists()

    def test_overflowing_qubo_is_data_error(self, tmp_path, capsys):
        """A finite grid value whose QUBO coefficients overflow stops the
        qubos stage with exit 3 instead of a traceback."""
        config = write_config(tmp_path, qubo={"alpha": [1.0], "beta": [0.001], "s": [1e308], "p": [0.5]})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not (out / "selections").exists()

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

    def test_infeasible_error(self, tmp_path, capsys):
        # item a holds 10 of 11 interactions, more than the 70% train share
        inter = tmp_path / "i.tsv"
        inter.write_text("".join(f"u{u}\ta\t1\n" for u in range(10)) + "u0\tb\t1\n")
        feats = tmp_path / "f.tsv"
        feats.write_text("a\tf0\nb\tf1\n")
        config = write_config(
            tmp_path, dataset={"files": {"interactions": str(inter), "features": str(feats)}},
        )
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "o")]) == 4
        assert "train share" in capsys.readouterr().err

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
