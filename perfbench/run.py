#!/usr/bin/env python3
"""End-to-end benchmark of `qubofs pipeline`.

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 30 --trace 0

The users are researchers running the experiment: they wait for a full run,
for a resume after an interruption, and they need every QUBO minimised. One
run of this script is a closed loop with a single caller: it generates the
workload's input TSVs from ``--seed`` (``qubofs.data.synth_planted``), then,
until ``--seconds`` are used up, runs ``qubofs pipeline`` in a fresh
subprocess on an empty directory, then twice removes ``reports/`` and
``manifest.json`` and runs it again (the resume after a kill in the last
stage), and checks the outputs. Every subprocess uses ``workers=1`` and
single-threaded BLAS unless the caller's environment sets the thread count.

End-to-end metrics (``--trace 0``):

- ``pipeline_s``: wall time of ``qubofs pipeline`` on an empty directory;
- ``setup_s``: process start to a constructed ``Pipeline`` (imports, config
  parsing, pinning on an empty directory), in a subprocess of its own;
- ``resume_s``: wall time of the resume described above;
- ``peak_rss_mb``: maximum RSS of the fresh-run subprocess, from its own
  rusage;
- ``local_opt_share``: share of grid points whose selection has no improving
  single flip and no improving count-preserving swap under its own QUBO.

With several inputs per workload, one iteration runs every input once and
the time metrics are per pipeline run, averaged over the inputs.

``--trace 1`` gives the per-layer metrics instead (see ``tracer.py``): each
iteration runs an untraced fresh run and resumes, and a traced fresh run and
resume in in-process children that wrap each module's public functions.

Output checks, each failing the operation it belongs to: exit code 0;
``report.json`` byte-identical across repeats and after every resume; each
``selection.json`` energy equal to the energy recomputed with
``qubofs.qubo.load_qubo`` and ``qubofs.solvers.energy``; every selection
locally optimal on ``exhaustive``. A full record (input hashes, machine,
summaries, quality fields) goes to ``perfbench/out/results/``; the last line
of standard output is the JSON result.

Seeds: ``DEFAULT_SEED`` is the default; ``CLAIM_SEED`` is kept out of tuning
and is for checking claimed gains.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import localopt

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
CLAIM_SEED = 7919
SETUP_SAMPLES = 5
RESUMES = 2  # resumes per fresh run: a resume is short, so take two samples
CHILD_TIMEOUT_S = 150.0
ENERGY_RTOL = 1e-9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    why: str
    synth: dict  # synth_planted arguments other than the seed
    config: dict  # experiment config other than seed, workers and dataset
    inputs: int = 1  # independent datasets drawn from the seed


# Sized so that a run of 30 s holds at least two iterations on 2 cores; the
# README demo (64 s) and the 2000x1500x120 mid run (15 s) would not fit.
WORKLOADS = {
    "anneal": Workload(
        why="README demo data, 12 grid points, 100 restarts: solve_sa dominates and its s=1000 points are not swap-optimal",
        synth=dict(n_users=200, n_items=150, n_features=40, n_relevant=8,
                   interactions_per_user=30, noise_rate=0.1),
        config={
            "collaborative": {"kind": "item_knn_cf", "n_cases": 5},
            "final_cbf": {"n_cases": 5},
            # s=10 and 100 points reach local optima, s=1000 points do not
            # (the count penalty is a barrier single flips cannot cross)
            "qubo": {"alpha": [1], "beta": [1, 0.01], "s": [10, 100, 1000], "p": [0.2, 0.4]},
            # 100 sweeps instead of the default 2000 keeps an iteration short
            "solver": {"kind": "sa", "num_samples": 100, "sweeps": 100},
        },
        # which points end locally optimal, and the annealer's time, vary
        # with the data: average both over three inputs
        inputs=3,
    ),
    "search": Workload(
        why="largest users x items: score_and_rank and cosine_knn dominate and resume reads the most COO bytes",
        synth=dict(n_users=1000, n_items=800, n_features=120, n_relevant=16,
                   interactions_per_user=30, noise_rate=0.1),
        config={
            "collaborative": {"kind": "item_knn_cf", "n_cases": 10},
            "final_cbf": {"n_cases": 10},
            # s=10: the annealer reliably reaches local optima here, so the
            # share guards the selections instead of varying with the seed
            "qubo": {"alpha": [1], "beta": [1, 0.01], "s": [10], "p": [0.2, 0.4]},
            "solver": {"kind": "sa", "num_samples": 10, "sweeps": 50},
        },
    ),
    "exhaustive": Workload(
        why="Gray-code enumeration at n=18 dominates and the annealer never runs; every selection must be optimal",
        synth=dict(n_users=300, n_items=200, n_features=18, n_relevant=5,
                   interactions_per_user=30, noise_rate=0.1),
        config={
            "collaborative": {"kind": "item_knn_cf", "n_cases": 5},
            "final_cbf": {"n_cases": 5},
            "qubo": {"alpha": [1], "beta": [1, 0.01], "s": [10], "p": [0.4]},
            "solver": {"kind": "exhaustive"},
        },
    ),
}

# prints the CLOCK_MONOTONIC time at which a Pipeline exists, built the way
# `qubofs pipeline` builds it
SETUP_PROBE = """\
import sys, time
from pathlib import Path
from qubofs.cli import build_parser, load_config
from qubofs.pipeline import Pipeline
args = build_parser().parse_args(["pipeline", "--config", sys.argv[1], "--out", sys.argv[2]])
Pipeline(load_config(args), Path(args.out))
print(repr(time.monotonic()))
"""


# ----------------------------------------------------------------------
# subprocesses
# ----------------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    exit_code: int
    max_rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str
    started: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def run_child(argv: list[str], log_stem: Path) -> Child:
    """Run one subprocess from the checkout root; wall time and its own
    rusage come from ``os.wait4`` on that child."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        exit_code=proc.returncode,
        max_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        started=started,
    )


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def inspect_run(run_dir: Path) -> dict:
    """Quality fields of a finished run, with the energy and local-optimality
    checks; problems go to ``errors``."""
    from qubofs.qubo import load_qubo
    from qubofs.solvers import energy, load_selection

    report = run_dir / "reports" / "report.json"
    result = {"errors": [], "energies": [], "local_opt": [], "selections": []}
    result["report_sha256"] = sha256_file(report)
    result["winner_grid_index"] = json.loads(report.read_text())["winner"]["grid_index"]
    problems = []
    for name in sorted(p.name for p in (run_dir / "qubo").glob("grid_*")):
        problem = load_qubo(run_dir / "qubo" / name / "qubo.coo", run_dir / "qubo" / name / "qubo.json")
        selection = load_selection(run_dir / "selections" / name / "selection.json")
        recomputed = energy(problem, selection.x)
        if not math.isclose(selection.energy, recomputed, rel_tol=ENERGY_RTOL, abs_tol=ENERGY_RTOL):
            result["errors"].append(f"{name}: stored energy {selection.energy!r} != recomputed {recomputed!r}")
        problems.append(problem)
        result["energies"].append(recomputed)
        result["local_opt"].append(localopt.is_local_optimum(problem.q, selection.x, problem.offset))
        result["selections"].append(selection.x)
    result["problems"] = problems
    if not problems:
        result["errors"].append("no grid points found")
    return result


def energy_gaps(quality: dict) -> list[float]:
    """Relative gap of each grid point's energy to the best known energy: the
    lowest of its own selection, every other grid point's selection (when
    sizes match) and a flip/swap descent from its selection."""
    gaps = []
    for problem, x, e in zip(quality["problems"], quality["selections"], quality["energies"]):
        candidates = [e, localopt.energy(problem.q, localopt.descend(problem.q, x, problem.offset), problem.offset)]
        candidates += [localopt.energy(problem.q, y, problem.offset)
                       for y in quality["selections"] if y.shape == x.shape]
        best = min(candidates)
        gaps.append((e - best) / max(abs(best), 1.0))
    return gaps


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median plus the highest percentile that has at least ten samples
    beyond it (absent below 11 samples), with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered) if n else None, "tail": None,
               "values": values}
    if n >= 11:
        k = n - 11  # ordered[k] has exactly ten samples above it
        summary["tail"] = {"percentile": math.floor(100 * (k + 1) / n), "value": ordered[k]}
    return summary


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError) as exc:
        blas = {"error": repr(exc)}
    env = child_env()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": commit,
    }


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / "work" / f"{name}-seed{seed}-trace{int(trace)}"
        self.ops: list[dict] = []
        self.missing: list[str] = []

    def rel(self, path: Path) -> str:
        return str(path.relative_to(ROOT))

    # -- inputs -----------------------------------------------------------

    def make_inputs(self) -> list[dict]:
        from qubofs.data import save_dataset_tsv, synth_planted

        inputs = []
        for k in range(self.workload.inputs):
            data_seed = self.seed if self.workload.inputs == 1 else self.seed * 1000 + k
            d = self.work / f"input{k}"
            d.mkdir(parents=True)
            ds, _ = synth_planted(**self.workload.synth, seed=data_seed)
            save_dataset_tsv(ds, d / "interactions.tsv", d / "features.tsv")
            cfg = {
                "seed": self.seed,
                "workers": 1,
                # relative to the checkout root, so reports match across checkouts
                "dataset": {"files": {"interactions": self.rel(d / "interactions.tsv"),
                                      "features": self.rel(d / "features.tsv")}},
                **self.workload.config,
            }
            (d / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")
            inputs.append({
                "dir": d,
                "config": self.rel(d / "config.json"),
                "data_seed": data_seed,
                "sha256": {f: sha256_file(d / f) for f in ("interactions.tsv", "features.tsv")},
                "report_sha256": None,
                "quality": None,
            })
        return inputs

    # -- operations ---------------------------------------------------------

    def op(self, argv: list[str], what: str) -> Child:
        """One attempted operation: a subprocess run from the checkout root."""
        log_stem = self.work / "logs" / f"{len(self.ops):03d}-{what}"
        child = run_child([sys.executable] + argv, log_stem)
        self.ops.append({"op": what, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                         "exit_code": child.exit_code, "max_rss_mb": child.max_rss_mb,
                         "failures": []})
        if child.exit_code != 0:
            self.fail(f"exit code {child.exit_code}: {child.stderr.strip()[-500:]}")
        return child

    def fail(self, message: str) -> None:
        """Fail the latest operation: every check follows the run it checks."""
        self.ops[-1]["failures"].append(message)

    def setup_sample(self, inp: dict) -> float | None:
        probe_dir = self.work / "setup_probe"
        shutil.rmtree(probe_dir, ignore_errors=True)
        child = self.op(["-c", SETUP_PROBE, inp["config"], self.rel(probe_dir)], "setup")
        if child.exit_code != 0:
            return None
        if not (probe_dir / "config.resolved.json").is_file():
            self.fail("no pinned config in the probe directory")
            return None
        return float(child.stdout.strip().splitlines()[-1]) - child.started

    def pipeline_argv(self, inp: dict, run_dir: Path, span_file: Path | None) -> list[str]:
        if span_file is None:
            return ["-m", "qubofs.cli", "pipeline", "--config", inp["config"], "--out", self.rel(run_dir)]
        run_id = span_file.stem.split("-")[-1]
        return [self.rel(HERE / "tracer.py"), "--config", inp["config"], "--out", self.rel(run_dir),
                "--spans", self.rel(span_file), "--run-id", run_id]

    def check_report(self, inp: dict, run_dir: Path) -> bool:
        report = run_dir / "reports" / "report.json"
        if not report.is_file():
            self.fail("no report.json")
            return False
        digest = sha256_file(report)
        if inp["report_sha256"] is None:
            inp["report_sha256"] = digest
        elif digest != inp["report_sha256"]:
            self.fail("report.json differs from the first run of this input")
            return False
        return True

    def check_outputs(self, inp: dict, run_dir: Path) -> None:
        """Energy and local-optimality checks of a fresh run; the first run of
        an input gives its quality fields."""
        try:
            quality = inspect_run(run_dir)
            manifest = run_dir / "manifest.json"
            if manifest.is_file():
                self.ops[-1]["stages_s"] = json.loads(manifest.read_text()).get("timings_s")
        except (OSError, ValueError, KeyError, TypeError, ImportError) as exc:
            self.fail(f"cannot read the outputs back: {exc!r}")
            return
        for error in quality["errors"]:
            self.fail(error)
        if self.name == "exhaustive" and not all(quality["local_opt"]):
            self.fail("an exhaustive selection is not locally optimal")
        if inp["quality"] is None:
            inp["quality"] = quality

    def fresh_and_resume(self, inp: dict, tag: str, spans: bool) -> tuple[Child, list[Child]]:
        """A fresh run on an empty directory, then resumes, each after removing
        reports/ and manifest.json; all checked. A traced run resumes once."""
        run_dir = self.work / f"run-{inp['dir'].name}-{tag}"
        shutil.rmtree(run_dir, ignore_errors=True)
        span_files = [self.work / f"spans-{tag}-{r}.json" for r in ("fresh", "resume")] if spans else [None, None]
        fresh = self.op(self.pipeline_argv(inp, run_dir, span_files[0]), f"fresh-{tag}")
        if fresh.exit_code == 0 and self.check_report(inp, run_dir):
            self.check_outputs(inp, run_dir)
        resumes = []
        for r in range(1 if spans else RESUMES):
            shutil.rmtree(run_dir / "reports", ignore_errors=True)
            (run_dir / "manifest.json").unlink(missing_ok=True)
            resumes.append(self.op(self.pipeline_argv(inp, run_dir, span_files[1]), f"resume{r}-{tag}"))
            if resumes[-1].exit_code == 0:
                self.check_report(inp, run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        return fresh, resumes

    # -- runs -------------------------------------------------------------------

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        inputs = self.make_inputs()
        # untimed warm-up: byte-compiles the sources and warms the file cache
        self.op(["-c", "import qubofs.cli"], "warmup")
        started = time.monotonic()
        samples: dict[str, list[float]] = {}
        layer_samples: dict[str, list[float]] = {}
        calls: dict[str, list[float]] = {}

        if not self.trace:
            for _ in range(SETUP_SAMPLES):
                value = self.setup_sample(inputs[0])
                if value is not None:
                    samples.setdefault("setup_s", []).append(value)

        iteration = 0
        last = 0.0
        # a timed run repeats at least once, so that it checks a repeat; a
        # traced run repeats every input already (plain and traced)
        min_iterations = 1 if self.trace else 2
        while iteration < min_iterations or time.monotonic() - started + last <= self.seconds:
            t0 = time.monotonic()
            per_input = {k: [] for k in ("pipeline_s", "resume_s", "peak_rss_mb",
                                         "traced_pipeline_s", "traced_resume_s")}
            for k, inp in enumerate(inputs):
                pairs = [("plain", False), ("traced", True)] if self.trace else [("plain", False)]
                if iteration % 2:
                    pairs.reverse()  # alternate which side runs first
                for label, spans in pairs:
                    tag = f"{iteration}-{k}-{label}"
                    fresh, resumes = self.fresh_and_resume(inp, tag, spans)
                    prefix = "traced_" if spans else ""
                    per_input[prefix + "pipeline_s"].append(fresh.wall_s)
                    per_input[prefix + "resume_s"].extend(r.wall_s for r in resumes)
                    if not spans:
                        per_input["peak_rss_mb"].append(fresh.max_rss_mb)
                    else:
                        self.collect_layers(tag, layer_samples, calls)
            for key, values in per_input.items():
                if values:
                    agg = max(values) if key == "peak_rss_mb" else statistics.fmean(values)
                    samples.setdefault(key, []).append(agg)
            iteration += 1
            last = time.monotonic() - t0
        return self.finish(inputs, samples, layer_samples, calls, time.monotonic() - started)

    def collect_layers(self, tag: str, layer_samples: dict, calls: dict) -> None:
        import tracer

        docs = []
        for run_id in ("fresh", "resume"):
            path = self.work / f"spans-{tag}-{run_id}.json"
            if not path.is_file():
                self.fail(f"no span file for the traced {run_id} run")
                return
            docs.append(json.loads(path.read_text()))
            path.unlink()
        metrics, per_call = tracer.layer_metrics(docs)
        self.missing = sorted({m for doc in docs for m in doc["missing"]})
        for key, value in metrics.items():
            layer_samples.setdefault(key, []).append(value)
        for key, values in per_call.items():
            calls.setdefault(key, []).extend(values)

    def finish(self, inputs, samples, layer_samples, calls, measured_s) -> dict:
        qualities = [inp["quality"] for inp in inputs]
        flags = [f for q in qualities if q for f in q["local_opt"]]
        metrics: dict[str, dict] = {}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        if not self.trace:
            for name, unit in (("pipeline_s", "s"), ("setup_s", "s"), ("resume_s", "s"), ("peak_rss_mb", "MB")):
                if samples.get(name):
                    put(name, statistics.median(samples[name]), unit)
            if flags and all(qualities):
                put("local_opt_share", sum(flags) / len(flags), "ratio")
        else:
            import tracer

            for name, values in sorted(layer_samples.items()):
                put(name, statistics.median(values), tracer.unit_of(name))
            if all(qualities):
                distinct = [len({x.tobytes() for x in q["selections"]}) / len(q["selections"]) for q in qualities]
                gaps = [g for q in qualities for g in energy_gaps(q)]
                put("pipeline.distinct_mask_share", statistics.fmean(distinct), "ratio")
                put("solvers.energy_gap", statistics.fmean(gaps), "ratio")
            for side in ("pipeline", "resume"):
                traced, plain = samples.get(f"traced_{side}_s"), samples.get(f"{side}_s")
                if traced and plain:
                    diffs = [t - p for t, p in zip(traced, plain)]
                    put(f"trace.{'overhead' if side == 'pipeline' else 'resume_overhead'}_s",
                        statistics.median(diffs), "s")

        failed = sum(1 for op in self.ops if op["failures"])
        record = {
            "workload": self.name,
            "why": self.workload.why,
            "seed": self.seed,
            "trace": self.trace,
            "seconds": self.seconds,
            "measured_s": measured_s,
            "machine": machine_record(),
            "inputs": [{"config": json.loads((ROOT / inp["config"]).read_text()),
                        "data_seed": inp["data_seed"], "sha256": inp["sha256"]} for inp in inputs],
            "quality": [{
                "winner_grid_index": q["winner_grid_index"],
                "report_sha256": q["report_sha256"],
                "energies": q["energies"],
                "local_opt": q["local_opt"],
            } if q else None for q in qualities],
            "summaries": {k: summarize(v) for k, v in {**samples, **layer_samples}.items()},
            "per_call_s": {k: summarize(v) for k, v in calls.items()},
            "missing_names": self.missing,
            "ops": self.ops,
            "result": {"correct": failed == 0, "attempted": len(self.ops), "failed": failed, "metrics": metrics},
        }
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark `qubofs pipeline` end to end or per layer.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "qubofs" / "cli.py").is_file():
        print(f"error: no qubofs sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated benchmark still kills and reaps its current subprocess
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    record = bench.run()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if record["result"]["correct"]:
        shutil.rmtree(bench.work, ignore_errors=True)
    for op in record["ops"]:
        for failure in op["failures"]:
            print(f"FAILED {op['op']}: {failure}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{args.workload:<10} {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
