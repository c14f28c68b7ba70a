import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from qubofs import cli, errors, pipeline
from qubofs.cli import COMMANDS, build_parser, main
from qubofs.config import ITEM_KNN_CBF_SPACE, ITEM_KNN_CF_SPACE, ExperimentConfig
from qubofs.qubo import save_qubo
from qubofs.sparse import SparseMatrix

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
    "qubo.s infinite": ("qubo.s", {"qubo": {"alpha": [1.0], "beta": [0.001], "s": [float("inf")], "p": [0.5]}}, ()),
    "qubo.alpha infinite": (
        "qubo.alpha", {"qubo": {"alpha": [float("inf")], "beta": [0.001], "s": [50.0], "p": [0.5]}}, ()),
    "qubo.s beyond float range": ("qubo.s", {"qubo": {"alpha": [1.0], "beta": [0.001], "s": [10**400], "p": [0.5]}}, ()),
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
    **{f"final_cbf.space topK choice {name}": ("final_cbf.space.topK.choices", {"final_cbf": {"space": {
        "topK": {"type": "categorical", "choices": [5, choice]}, "shrink": {"type": "float", "low": 0, "high": 10},
        "normalize": {"type": "categorical", "choices": [True]}}}}, ())
       for name, choice in (("infinite", float("inf")), ("string", "abc"), ("null", None))},
    "pure_svd space num_factors choice true": ("collaborative.space.num_factors.choices", {"collaborative": {
        "kind": "pure_svd", "n_cases": 3, "space": {
            "num_factors": {"type": "categorical", "choices": [2, True]}}}}, ()),
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
    "final_cbf.space name of no parameter": ("final_cbf.space.tpoK", {"final_cbf": {"space": {
        **ITEM_KNN_CBF_SPACE, "tpoK": {"type": "int", "low": 100, "high": 200}}}}, ()),
    "collaborative.space weighting": ("collaborative.space.weighting", {"collaborative": {"space": {
        **ITEM_KNN_CF_SPACE, "weighting": {"type": "categorical", "choices": ["none"]}}}}, ()),
    "final_cbf.space topK float": ("final_cbf.space.topK.type", {"final_cbf": {"space": {
        **ITEM_KNN_CBF_SPACE, "topK": {"type": "float", "low": 2.0, "high": 9.0}}}}, ()),
    "final_cbf.space topK choice fractional": ("final_cbf.space.topK.choices", {"final_cbf": {"space": {
        **ITEM_KNN_CBF_SPACE, "topK": {"type": "categorical", "choices": [3.5, 7.25]}}}}, ()),
    "pure_svd space num_factors float": ("collaborative.space.num_factors.type", {"collaborative": {
        "kind": "pure_svd", "n_cases": 3, "space": {
            "num_factors": {"type": "float", "low": 1, "high": 5}}}}, ()),
    "collaborative.space topK choice fractional": ("collaborative.space.topK.choices", {"collaborative": {"space": {
        **ITEM_KNN_CF_SPACE, "topK": {"type": "categorical", "choices": [5, 7.25]}}}}, ()),
    "final_cbf.space topK high beyond float range": ("final_cbf.space.topK", {"final_cbf": {"space": {
        "topK": {"type": "int", "low": 5, "high": 10**400}, "shrink": {"type": "float", "low": 0, "high": 10},
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
            ("train-cbf", "cbf_sel/grid_000/result.json"),
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
    """Importing scipy costs a process about 0.2 s and 15 MB. It is the
    tests' oracle, not a dependency: starting the command line, the
    benchmark's setup probe, a fresh run and a resume never import it."""

    @staticmethod
    def scipy_modules_after(code: str, *args: str) -> list[str]:
        child = run_python(code + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                           *args)
        assert child.returncode == 0, child.stderr
        return ast.literal_eval(child.stdout.strip().splitlines()[-1])

    def test_imports(self):
        assert self.scipy_modules_after("import sys\nimport qubofs.cli, qubofs.pipeline") == []

    def test_fresh_pipeline_and_resume_skip_numpy_ma(self, tmp_path):
        """numpy.ma costs a process about 10 ms to import; np.unique imports
        it, so the pipeline calls none."""
        config, out = write_config(tmp_path, solver={"kind": "sa", "num_samples": 4}), tmp_path / "run"
        run = ("import sys\nfrom qubofs.cli import main\nassert main(sys.argv[1:]) == 0\n"
               "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))")
        argv = ("pipeline", "--config", str(config), "--out", str(out))
        for _ in ("fresh", "resume"):
            child = run_python(run, *argv)
            assert child.returncode == 0, child.stderr
            assert ast.literal_eval(child.stdout.strip().splitlines()[-1]) == []
            shutil.rmtree(out / "reports")
            (out / "manifest.json").unlink()

    def test_setup_probe(self, tmp_path):
        config, out = write_config(tmp_path), tmp_path / "probe"
        assert self.scipy_modules_after(setup_probe(), str(config), str(out)) == []
        assert (out / "config.resolved.json").is_file()

    @staticmethod
    def repeated_lines_config(tmp_path) -> Path:
        """The CLI config with its synthetic data given as ``dataset.files``,
        the first 20 interaction lines repeated at the end of the file."""
        config = write_config(tmp_path)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "synth")]) == 0
        interactions, features = (tmp_path / "synth/dataset" / name
                                  for name in ("interactions.tsv", "features.tsv"))
        lines = interactions.read_text().splitlines(keepends=True)
        interactions.write_text("".join(lines + lines[:20]))
        return write_config(tmp_path, dataset={"files": {"interactions": str(interactions),
                                                         "features": str(features)}})

    def test_dataset_stage_of_repeated_lines(self, tmp_path):
        """A fresh dataset stage parses the input, sums its repeated lines
        and preprocesses the result without scipy."""
        config, out = self.repeated_lines_config(tmp_path), tmp_path / "run"
        build = ("import sys\nfrom qubofs.config import ExperimentConfig\n"
                 "from qubofs.pipeline import Pipeline\n"
                 "Pipeline(ExperimentConfig.from_json_file(sys.argv[1]), sys.argv[2]).ensure_dataset()")
        assert self.scipy_modules_after(build, str(config), str(out)) == []
        assert (out / "dataset/urm.coo").is_file()

    def test_fresh_pipeline(self, tmp_path):
        """Every stage of a fresh run, the similarities and the products
        included, on the compiled kernels or on numpy."""
        config, out = write_config(tmp_path), tmp_path / "run"
        run = "import sys\nfrom qubofs.cli import main\nassert main(sys.argv[1:]) == 0"
        argv = ("pipeline", "--config", str(config), "--out", str(out))
        assert self.scipy_modules_after(run, *argv) == []
        assert (out / "reports/report.json").is_file()

    @pytest.mark.parametrize("repeated_lines", [False, True], ids=["synth", "repeated interaction lines"])
    def test_resume(self, tmp_path, repeated_lines):
        """A resume after deleting reports/ and manifest.json, as the
        benchmark resumes. A resume loads the dataset archives the fresh run
        wrote instead of parsing the input again; with a ``dataset.files``
        config it hashes the input files first."""
        config, out = write_config(tmp_path), tmp_path / "run"
        if repeated_lines:
            config = self.repeated_lines_config(tmp_path)
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


def edited(key: str, change) -> Callable[[str], str]:
    """An edit of a JSON object's text that sets ``key`` to ``change(object)``."""
    def edit(text: str) -> str:
        value = json.loads(text)
        return json.dumps({**value, key: change(value)})
    return edit


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

    @pytest.mark.parametrize("kind", ["directory", "missing", "unreadable"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, monkeypatch, kind):
        """An input that cannot be read exits 3 naming it, before the output
        directory is made."""
        interactions, features = tmp_path / "i.tsv", tmp_path / "f.tsv"
        features.write_text("a\tf0\n")
        if kind == "directory":
            interactions.mkdir()
        elif kind == "unreadable":
            interactions.write_text("u0\ta\t1\n")
            real_open = open

            def refusing_open(path, *args, **kwargs):
                if Path(path) == interactions:
                    raise PermissionError(13, "Permission denied", str(path))
                return real_open(path, *args, **kwargs)

            monkeypatch.setattr(pipeline, "open", refusing_open, raising=False)
        config = write_config(tmp_path, dataset={"files": {
            "interactions": str(interactions), "features": str(features)}})
        out = tmp_path / "o"
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(interactions) in err
        assert not out.exists()

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
        assert (out / "splits").is_dir() and not (out / "cf_model").exists()

    def test_overflowing_qubo_is_data_error(self, tmp_path, capsys):
        """A finite grid value whose QUBO coefficients overflow stops the
        run with exit 3 instead of a traceback. The qubos stage stores only
        what builds Q, so ``build-qubo`` passes and the selections stage,
        which assembles Q, stops before it writes a selection."""
        config = write_config(tmp_path, qubo={"alpha": [1.0], "beta": [0.001], "s": [1e308], "p": [0.5]})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not (out / "selections").exists()

    def test_cutoff_beyond_every_ranking_exits_0(self, tmp_path, capsys):
        """A cutoff far beyond the catalog passes validation and the run:
        the metrics are as wide as the rankings, not the cutoff."""
        config = write_config(tmp_path, cutoff=10**20)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "reports/report.json").read_text())["cutoff"] == 10**20

    def test_corrupt_artifact_is_data_error(self, tmp_path, capsys):
        """A stage file that is not a sparse archive, such as a text COO file
        of an older run, that cannot be read, such as a directory, or that
        holds values the parse refuses exits 3 naming the file instead of a
        traceback or other reports."""
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        urm, icm = out / "dataset/urm.coo", out / "dataset/icm.coo"
        saved = {path: path.read_bytes() for path in (urm, icm)}

        def rescaled(path, factor):
            matrix = SparseMatrix.load_coo(path)
            matrix.with_entries(values=matrix.data * factor).save_coo(path)

        for path, corrupt in ((urm, lambda: urm.write_text("40\t30\t1\n0\t0\t1\n")),
                              (icm, lambda: rescaled(icm, 2.0)),
                              (urm, lambda: rescaled(urm, -1.0)),
                              (icm, lambda: (icm.unlink(), icm.mkdir()))):
            for original, data in saved.items():
                original.write_bytes(data)
            corrupt()
            shutil.rmtree(out / "reports", ignore_errors=True)
            capsys.readouterr()
            assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and str(path) in err

    @pytest.mark.parametrize("name, edit, deleted", [
        ("dataset/labels.json", lambda text: "{", ()),
        ("splits/split.json", lambda text: "{", ()),
        ("dataset/labels.json", lambda text: json.dumps({**json.loads(text),
                                                         "users": json.loads(text)["users"][1:]}), ()),
        ("splits/split.json", lambda text: "[]", ()),
        ("splits/split.json", lambda text: "{}", ()),
        ("selections/grid_000/selection.json", lambda text: "[]", ("cbf_sel",)),
        ("splits/split.json", edited("cold_test_items", lambda v: v["cold_test_items"] + [999]), ()),
        ("splits/split.json", edited("cold_test_items", lambda v: v["cold_test_items"] + [-1]), ()),
        ("splits/split.json", edited("cold_test_items", lambda v: v["cold_test_items"] + [1.0]), ()),
        ("splits/split.json", edited("cold_test_items", lambda v: v["cold_test_items"] * 2), ()),
        ("splits/split.json", edited("cold_validation_items",
                                     lambda v: v["cold_validation_items"] + v["cold_test_items"][:1]), ()),
        ("cbf_all/model.json", edited("hyperparam_names", lambda v: v["hyperparam_names"] + ["zzz"]), ()),
        ("cbf_all/model.json", edited("hyperparam_names", lambda v: "topK"), ()),
        ("cbf_all/model.json",
         edited("hyperparam_names", lambda v: [n for n in v["hyperparam_names"] if n != "topK"]), ()),
        ("cbf_all/model.json", edited("kind", lambda v: "knn"), ()),
        ("cbf_all/model.json", edited("topK", lambda v: 0), ()),
        ("cbf_all/model.json", edited("weighting", lambda v: "zzz"), ()),
        ("cbf_all/model.json", edited("kind", lambda v: "item_knn_cf"), ()),
        ("cf_model/model.json", edited("num_factors", lambda v: 31), ("qubo/pairs.coo", "qubo/grid_000")),
        ("selections/grid_000/selection.json", edited("x", lambda v: [300] + v["x"][1:]), ("cbf_sel",)),
        ("selections/grid_000/selection.json", edited("x", lambda v: ["a"] + v["x"][1:]), ("cbf_sel",)),
        ("selections/grid_000/selection.json", edited("x", lambda v: [2] + v["x"][1:]), ("cbf_sel",)),
        ("selections/grid_000/selection.json", edited("x", lambda v: v["x"][1:]), ("cbf_sel",)),
        ("selections/grid_000/selection.json", edited("energy", lambda v: "abc"), ()),
        ("selections/grid_000/selection.json", edited("energy", lambda v: float("nan")), ()),
        ("selections/grid_000/selection.json", edited("energy", lambda v: 10 ** 400), ()),
        ("selections/grid_000/selection.json", edited("energy", lambda v: True), ()),
        ("cbf_sel/grid_000/result.json", edited("validation_score", lambda v: "high"), ()),
        ("cbf_sel/grid_000/result.json", edited("validation_score", lambda v: True), ()),
        ("cbf_sel/grid_000/result.json", edited("validation_score", lambda v: float("nan")), ()),
        ("cbf_sel/grid_000/result.json", edited("validation_score", lambda v: 10 ** 400), ()),
        ("cbf_sel/grid_000/result.json", edited("cbf_params", lambda v: "oops"), ()),
        ("cbf_sel/grid_000/result.json", edited("cbf_params", lambda v: {**v["cbf_params"], "topK": 0}), ()),
        ("cbf_sel/grid_000/result.json", edited("cbf_params", lambda v: {**v["cbf_params"], "shrink": "x"}), ()),
        ("cbf_sel/grid_000/result.json",
         edited("cbf_params", lambda v: {k: p for k, p in v["cbf_params"].items() if k != "topK"}), ()),
        ("cbf_sel/grid_000/result.json", edited("cbf_params", lambda v: {**v["cbf_params"], "foo": 1}), ()),
        ("cbf_sel/grid_000/result.json", edited("cbf_params", lambda v: {**v["cbf_params"], "topK": 7.5}), ()),
        ("cbf_sel/grid_000/result.json",
         edited("cbf_params", lambda v: {k: p for k, p in v["cbf_params"].items() if k != "weighting"}), ()),
        ("qubo/grid_000/qubo.json", edited("s", lambda v: "abc"), ("selections", "cbf_sel")),
        ("qubo/grid_000/qubo.json", edited("s", lambda v: None), ("selections", "cbf_sel")),
        ("qubo/grid_000/qubo.json", edited("s", lambda v: [1]), ("selections", "cbf_sel")),
        ("qubo/grid_000/qubo.json", edited("s", lambda v: float("nan")), ("selections", "cbf_sel")),
    ], ids=["labels not JSON", "split not JSON", "labels short of a user", "split not an object",
            "split without its items", "selection not an object", "split item beyond the items",
            "split item negative", "split item not an integer", "split item repeated",
            "split item in both lists", "model without a named hyperparameter",
            "model hyperparameter names not a list", "model hyperparameter names without topK",
            "model of an unknown kind", "model topK below one", "model weighting unknown", "model of another kind",
            "model rank beyond the matrix", "selection entry out of int8",
            "selection entry a string", "selection entry not binary", "selection short of a feature",
            "selection energy a string", "selection energy NaN", "selection energy beyond float range",
            "selection energy a bool",
            "row score a string", "row score a bool", "row score not finite",
            "row score beyond float range", "row params not an object",
            "row topK below one", "row params that fit no model", "row params without topK",
            "row params with another key", "row topK fractional", "row params without weighting",
            "qubo offset a string", "qubo offset null", "qubo offset a list", "qubo offset NaN"])
    def test_corrupt_sidecar_is_data_error(self, tmp_path, capsys, name, edit, deleted):
        """A JSON sidecar that does not parse, is not an object or lacks a key
        its loader reads; labels that do not fit the stored matrices; cold
        items outside the interactions, repeated or in both lists; a model
        whose kind or hyperparameter names do not hold, or whose values fit
        no model or another kind of model than the one named; a selection
        that is not one 0/1 integer per feature or whose energy is not a
        finite number; a content-search row whose score is not a finite
        number or whose hyperparameters fit no model, are not named as the
        content search space's parameters or give topK a fraction (the one
        grid point is the winner, so the final fit reads them); or a QUBO
        sidecar whose s, from which the QUBO's offset is built, is not a
        finite number: each exits 3 naming the
        file instead of a traceback. The collaborative model is ``pure_svd``,
        whose rank the matrix bounds. The files and stages in ``deleted`` are
        deleted too, so that the evaluation reaches the file: a partial QUBO
        rebuild fits the collaborative model again."""
        config = write_config(tmp_path, collaborative={"kind": "pure_svd", "n_cases": 3})
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        (out / name).write_text(edit((out / name).read_text()))
        for stage in ("reports", *deleted):
            if (out / stage).is_dir():
                shutil.rmtree(out / stage)
            else:
                (out / stage).unlink()
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out / name) in err

    @pytest.mark.parametrize("corrupt", [
        lambda m: m.with_entries(values=np.full(m.nnz, 2.0)),
        lambda m: m.submatrix(rows=np.arange(m.n_rows - 1), cols=np.arange(m.n_cols - 1)),
        lambda m: m.with_entries(m.entries()[0] < m.entries()[1]),
    ], ids=["value 2", "another shape", "one direction"])
    def test_corrupt_pair_matrix_is_data_error(self, tmp_path, capsys, corrupt):
        """A stored pair matrix that holds a value other than -1 and +1, or
        that is not symmetric over the warm items, exits 3 naming it when a
        grid point is rebuilt from it."""
        config = write_config(tmp_path, qubo={"alpha": [1.0], "beta": [0.001], "s": [50.0], "p": [0.25, 0.5]})
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        pairs = out / "qubo/pairs.coo"
        stored = SparseMatrix.load_coo(pairs)
        assert stored.nnz
        corrupt(stored).save_coo(pairs)
        for stage in ("qubo/grid_001", "selections/grid_001", "reports"):
            shutil.rmtree(out / stage)
        (out / "manifest.json").unlink()
        capsys.readouterr()
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(pairs) in err
        assert not (out / "qubo/grid_001").exists()

    def test_qubo_of_another_size_is_data_error(self, tmp_path, capsys):
        """A stored feature penalization whose size is not the feature count
        exits 3 naming it, and no selection is written for it."""
        config = write_config(tmp_path, qubo={"alpha": [1.0], "beta": [0.001], "s": [50.0], "p": [0.25, 0.5]})
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        point = out / "qubo/grid_001"
        save_qubo(SparseMatrix.from_dense(np.eye(5)), 0.5, 50.0, point / "qubo.coo", point / "qubo.json")
        for stage in ("selections/grid_001", "cbf_sel/grid_001", "reports"):
            shutil.rmtree(out / stage)
        (out / "manifest.json").unlink()
        capsys.readouterr()
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(point / "qubo.coo") in err
        assert not (out / "selections/grid_001/selection.json").exists()

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
