"""The tracer keeps running when a wrapped name is gone, and span files turn
into the per-layer metrics.

Run with ``python -m pytest perfbench/test_tracer.py``.
"""

import types

import pytest

from tracer import Tracer, layer_metrics, unit_of


def make_owner():
    owner = types.SimpleNamespace()
    owner.score_and_rank = lambda model, profiles: [[1], [2], [3]]
    owner.cosine_knn = lambda vectors: "model"
    return owner


def test_missing_name_is_recorded_and_the_run_continues():
    tracer = Tracer("fresh")
    owner = make_owner()
    tracer.patch(owner, "score_and_rank", "models.score_and_rank", "models.score_and_rank")
    tracer.patch(owner, "no_such_function", "qubo.build_ipm", "qubo.build")
    assert owner.score_and_rank(None, None) == [[1], [2], [3]]
    assert tracer.missing == ["qubo.build_ipm"]
    doc = {"run": "fresh", "missing": tracer.missing, "installed": tracer.installed, "spans": tracer.spans}
    metrics, calls = layer_metrics([doc, {**doc, "run": "resume", "spans": []}])
    assert metrics["models.score_and_rank_calls"] == 1
    assert metrics["models.users_ranked_per_s"] > 0
    assert "qubo.build_s" not in metrics
    assert len(calls["models.score_and_rank"]) == 1


def test_nested_spans_self_time_and_outermost_sums():
    tracer = Tracer("fresh")
    owner = make_owner()
    tracer.patch(owner, "cosine_knn", "models.cosine_knn", "models.cosine_knn")
    inner = owner.cosine_knn

    def stage():
        inner(None)
        inner(None)

    owner.ensure_cf_model = stage
    tracer.patch(owner, "ensure_cf_model", "pipeline.ensure_cf_model", "stage.cf_model")
    owner.ensure_cf_model()
    doc = {"run": "fresh", "missing": [], "installed": tracer.installed, "spans": tracer.spans}
    metrics, _ = layer_metrics([doc])
    stage_span, *knn = tracer.spans
    assert [s["parent"] for s in knn] == [stage_span["id"]] * 2
    total = stage_span["end"] - stage_span["start"]
    # stages exclude only nested stages, so the model calls stay in cf_model
    assert metrics["pipeline.cf_model_s"] == pytest.approx(total)
    assert metrics["models.cosine_knn_calls"] == 2
    assert 0 < metrics["models.cosine_knn_s"] <= total


def test_classmethods_stay_classmethods():
    class Matrix:
        @classmethod
        def load_coo(cls, path):
            return cls

    tracer = Tracer("resume")
    tracer.patch(Matrix, "load_coo", "sparse.load_coo", "sparse.load_coo")
    assert Matrix.load_coo("missing-file.coo") is Matrix
    assert tracer.spans[0]["attrs"] == {"bytes": 0}


@pytest.mark.parametrize("name, unit", [
    ("pipeline.selections_s", "s"), ("solvers.sa_calls", "count"), ("pipeline.search_cases", "count"),
    ("solvers.ns_per_step", "ns"), ("sparse.load_coo_mb_per_s", "MB/s"),
    ("models.users_ranked_per_s", "users/s"), ("solvers.energy_gap", "ratio"),
])
def test_units(name, unit):
    assert unit_of(name) == unit
