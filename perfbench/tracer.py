"""Traced in-process run of `qubofs pipeline`, and the per-layer metrics
computed from its spans.

As a script it is the traced child of ``run.py --trace 1``: it wraps the
public functions that ``qubofs.pipeline`` imports (by rebinding them in that
module's namespace), the ``Pipeline.ensure_*`` stage methods and
``SparseMatrix.save_coo``/``load_coo``, then runs the same code path as
``qubofs pipeline`` in this process. Spans stay in memory and are written as
JSON when the run ends::

    python3 perfbench/tracer.py --config CFG --out RUN_DIR --spans SPANS.json --run-id fresh

A name that no longer exists is recorded as missing and the run goes on; a
metric whose names are all missing is left out of the result.

Untimed runs never import this module: ``run.py`` imports it only in its
traced mode, to turn span files into metrics.

Which end-to-end metric each layer metric should move, and where:

- ``pipeline.<stage>_s`` (stage self time, fresh run): ``pipeline_s`` where the
  stage dominates, ``selections`` on anneal and exhaustive, ``cf_model`` and
  ``grid_scores`` on search; ``resume.<stage>_s`` (the resume): ``resume_s``.
- ``pipeline.search_cases``, ``pipeline.distinct_mask_share``: ``pipeline_s``
  on anneal and search (the headroom of a memo by selection mask).
- ``solvers.solve_s``, ``solvers.ns_per_step``: ``pipeline_s`` on anneal
  (annealer flip steps) and on exhaustive (enumerated assignments); a change to
  one solver predicts no change on the other's workload. ``solvers.sa_calls``
  and ``solvers.exhaustive_calls`` say which solver ran. Each workload runs
  one solver, so a time per solver would read 0 on the others.
- ``solvers.sa_best_share`` and ``solvers.energy_gap``: ``local_opt_share`` on
  anneal and search.
- ``models.*``: ``pipeline_s``, ``peak_rss_mb`` and ``resume_s`` on search.
- ``metrics.accuracy_s``: ``pipeline_s`` on search; ``metrics.evaluate_s``:
  ``resume_s`` on search.
- ``qubo.*``: ``pipeline_s`` on search.
- ``sparse.save_coo_*``: ``pipeline_s`` on search; ``sparse.load_coo_*``:
  ``resume_s`` on search.
- ``data.*``: ``resume_s`` everywhere and ``pipeline_s`` on search.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

STAGES = (
    "dataset", "splits", "cf_model", "cbf_all", "qubos",
    "selections", "grid_scores", "final", "reports",
)


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _sa_attrs(args, kwargs, result):
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    best = result[0].energy
    return {
        # restarts run in lockstep, so a call costs sweeps * n flip steps
        "steps": schedule.sweeps * args[0].n,
        "samples": len(result),
        "at_best": sum(1 for r in result if r.energy == best),
    }


# function group -> names wrapped in the qubofs.pipeline namespace; a span is
# named "<layer>.<function>", as in "qubo.build_ipm"
PIPELINE_NAMES = {
    "data.load": ["load_interactions", "load_item_features", "build_dataset", "preprocess"],
    "data.split": ["cold_item_split", "user_holdout_split", "save_cold_split", "load_cold_split"],
    "models.cosine_knn": ["cosine_knn"],
    "models.score_and_rank": ["score_and_rank"],
    "metrics.accuracy": ["accuracy_metrics"],
    "metrics.evaluate": ["evaluate_recommendations"],
    "qubo.build": ["build_penalization", "build_ipm", "build_fpm", "assemble_qubo"],
    "qubo.save": ["save_qubo"],
    "qubo.load": ["load_qubo"],
    "solvers.solve": ["solve_sa", "solve_exhaustive"],
    "pipeline.search": ["random_search"],
}

# span name -> attributes read from (args, kwargs, result) after the call
ATTRS = {
    "solvers.solve_sa": _sa_attrs,
    "solvers.solve_exhaustive": lambda args, kwargs, result: {"steps": 2 ** args[0].n},
    "models.score_and_rank": lambda args, kwargs, result: {"users": len(result)},
    "pipeline.random_search": lambda args, kwargs, result: {"cases": len(result[2])},
    "sparse.save_coo": lambda args, kwargs, result: {"bytes": _path_bytes(args[1])},
}
# load sizes are read before the call, while the file is known to exist
PRE_ATTRS = {
    "sparse.load_coo": lambda args, kwargs: {"bytes": _path_bytes(args[1])},
}


class Tracer:
    """Records spans (name, start, end, parent, run id) around wrapped calls.

    Calls run on one thread (the benchmark sets ``workers=1``), so a plain
    stack gives each span its parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.installed: dict[str, list[str]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, group: str, fn):
        pre = PRE_ATTRS.get(name)
        post = ATTRS.get(name)

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans), "name": name, "group": group,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "attrs": {},
            }
            self.spans.append(span)
            if pre is not None:
                span["attrs"] = self._attrs(pre, args, kwargs)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if post is not None:
                span["attrs"].update(self._attrs(post, args, kwargs, result))
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @staticmethod
    def _attrs(extract, *call):
        # a later signature change must cost the attribute, not the run
        try:
            return extract(*call)
        except Exception as exc:  # noqa: BLE001 - reported, never fatal
            return {"attr_error": repr(exc)}

    def patch(self, owner, attr: str, name: str, group: str) -> None:
        """Rebind ``owner.attr`` to a traced wrapper, keeping method kinds."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(name)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self.wrap(name, group, raw.__func__)))
        else:
            setattr(owner, attr, self.wrap(name, group, raw))
        self.installed.setdefault(group, []).append(name)

    def install(self) -> None:
        import qubofs.pipeline as pipeline
        import qubofs.sparse as sparse

        for group, names in PIPELINE_NAMES.items():
            for attr in names:
                self.patch(pipeline, attr, f"{group.split('.')[0]}.{attr}", group)
        # a class that is gone leaves each of its names missing
        absent = type("Absent", (), {})
        stages = vars(pipeline).get("Pipeline", absent)
        for stage in STAGES:
            self.patch(stages, f"ensure_{stage}", f"pipeline.ensure_{stage}", f"stage.{stage}")
        matrix = vars(sparse).get("SparseMatrix", absent)
        for attr in ("save_coo", "load_coo"):
            self.patch(matrix, attr, f"sparse.{attr}", f"sparse.{attr}")

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "missing": self.missing,
                       "installed": self.installed, "spans": self.spans}, fh)


# ----------------------------------------------------------------------
# span files -> per-layer metrics
# ----------------------------------------------------------------------

# function groups whose time is summed over their outermost calls
TIME_GROUPS = [g for g in PIPELINE_NAMES if g != "pipeline.search"]
TIME_GROUPS += ["sparse.save_coo", "sparse.load_coo"]

UNITS = (
    ("_calls", "count"), ("search_cases", "count"), ("ns_per_step", "ns"),
    ("_mb_per_s", "MB/s"), ("users_ranked_per_s", "users/s"),
    ("_s", "s"),
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name; shares have unit ``ratio``."""
    return next((unit for suffix, unit in UNITS if metric.endswith(suffix)), "ratio")


class SpanIndex:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    @staticmethod
    def duration(span) -> float:
        return span["end"] - span["start"]

    def self_time(self, span, layer: str | None = None) -> float:
        """Duration minus the nearest descendant spans (of ``layer`` only,
        when given: a stage's own time excludes nested stages, as the
        pipeline's manifest attributes it)."""
        covered = 0.0
        todo = list(self.children.get(span["id"], []))
        while todo:
            child = todo.pop()
            if layer is None or child["group"].startswith(layer):
                covered += self.duration(child)
            else:
                todo.extend(self.children.get(child["id"], []))
        return self.duration(span) - covered

    def outermost(self, group: str) -> list[dict]:
        """Spans of ``group`` with no ancestor in ``group``."""
        by_id = {s["id"]: s for s in self.spans}
        found = []
        for s in self.spans:
            if s["group"] != group:
                continue
            parent = s["parent"]
            while parent is not None and by_id[parent]["group"] != group:
                parent = by_id[parent]["parent"]
            if parent is None:
                found.append(s)
        return found


def layer_metrics(docs: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced fresh run plus the traced resume after
    it (``docs`` are the two span files). Returns (metrics, per-call samples).

    Stage times are stage self times; every other ``*_s`` metric is the
    inclusive time of the outermost calls of its function group, summed over
    both runs.
    """
    installed = {group for doc in docs for group in doc["installed"]}
    spans = []
    for doc in docs:  # span ids restart in every file: renumber them
        offset = len(spans)
        for s in doc["spans"]:
            parent = None if s["parent"] is None else s["parent"] + offset
            spans.append({**s, "id": s["id"] + offset, "parent": parent})
    index = SpanIndex(spans)
    metrics: dict[str, float] = {}

    for run, prefix in (("fresh", "pipeline"), ("resume", "resume")):
        for stage in STAGES:
            if f"stage.{stage}" not in installed:
                continue
            own = [s for s in spans if s["run"] == run and s["group"] == f"stage.{stage}"]
            if prefix == "resume" and not own:
                continue  # a stage the resume never enters has no resume time
            metrics[f"{prefix}.{stage}_s"] = sum(index.self_time(s, "stage.") for s in own)

    totals = {}
    for group in TIME_GROUPS:
        if group not in installed:
            continue
        totals[group] = index.outermost(group)
        metrics[f"{group}_s"] = sum(index.duration(s) for s in totals[group])

    def attr_sum(prefix, key) -> float:
        return sum(s["attrs"].get(key, 0) for s in totals.get(prefix, []))

    def rate(numerator, seconds) -> float:
        return numerator / seconds if seconds > 0 else 0.0

    if "solvers.solve" in totals:
        solves = totals["solvers.solve"]
        sa = [s for s in solves if s["name"] == "solvers.solve_sa"]
        metrics["solvers.sa_calls"] = len(sa)
        metrics["solvers.exhaustive_calls"] = len(solves) - len(sa)
        metrics["solvers.ns_per_step"] = rate(metrics["solvers.solve_s"] * 1e9, attr_sum("solvers.solve", "steps"))
        metrics["solvers.sa_best_share"] = rate(
            sum(s["attrs"].get("at_best", 0) for s in sa), sum(s["attrs"].get("samples", 0) for s in sa))
    if "models.score_and_rank" in totals:
        metrics["models.score_and_rank_calls"] = len(totals["models.score_and_rank"])
        metrics["models.users_ranked_per_s"] = rate(
            attr_sum("models.score_and_rank", "users"), metrics["models.score_and_rank_s"])
    if "models.cosine_knn" in totals:
        metrics["models.cosine_knn_calls"] = len(totals["models.cosine_knn"])
    for op in ("save_coo", "load_coo"):
        if f"sparse.{op}" in totals:
            metrics[f"sparse.{op}_mb_per_s"] = rate(
                attr_sum(f"sparse.{op}", "bytes") / 1e6, metrics[f"sparse.{op}_s"])
    if "pipeline.search" in installed:
        metrics["pipeline.search_cases"] = sum(
            s["attrs"].get("cases", 0) for s in spans if s["group"] == "pipeline.search")

    calls: dict[str, list[float]] = {}
    for s in totals.get("models.score_and_rank", []) + totals.get("solvers.solve", []):
        calls.setdefault(s["name"], []).append(index.duration(s))
    return metrics, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args(argv)
    tracer = Tracer(args.run_id)
    tracer.install()
    from qubofs.cli import main as cli_main

    try:
        return cli_main(["pipeline", "--config", args.config, "--out", args.out])
    finally:
        tracer.dump(Path(args.spans))


if __name__ == "__main__":
    sys.exit(main())
