"""Experiment configuration: JSON with a strict schema (unknown keys rejected).

Defaults follow the hyperparameter grids used throughout: the QUBO grid spans
alpha = 1, beta in {1e0..1e-4}, strength in {1e0..1e4} and selection fractions
{0.4, 0.6, 0.8, 0.95}; model searches draw 50 cases from the documented
ranges.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigInvalid

DEFAULT_QUBO_ALPHA = [1.0]
DEFAULT_QUBO_BETA = [1.0, 1e-1, 1e-2, 1e-3, 1e-4]
DEFAULT_QUBO_S = [1.0, 1e1, 1e2, 1e3, 1e4]
DEFAULT_QUBO_P = [0.4, 0.6, 0.8, 0.95]

ITEM_KNN_CF_SPACE = {
    "topK": {"type": "int", "low": 5, "high": 1000, "dist": "uniform"},
    "shrink": {"type": "float", "low": 0.0, "high": 1000.0, "dist": "uniform"},
    "normalize": {"type": "categorical", "choices": [True, False]},
}

ITEM_KNN_CBF_SPACE = {
    "topK": {"type": "int", "low": 5, "high": 1000, "dist": "uniform"},
    "shrink": {"type": "float", "low": 0.0, "high": 1000.0, "dist": "uniform"},
    "normalize": {"type": "categorical", "choices": [True, False]},
    "weighting": {"type": "categorical", "choices": ["none", "tfidf", "bm25"]},
}

PURE_SVD_SPACE = {
    "num_factors": {"type": "int", "low": 1, "high": 350, "dist": "uniform"},
}

RP3BETA_SPACE = {
    "topK": {"type": "int", "low": 5, "high": 1000, "dist": "uniform"},
    "alpha": {"type": "float", "low": 0.0, "high": 2.0, "dist": "uniform"},
    "beta": {"type": "float", "low": 0.0, "high": 2.0, "dist": "uniform"},
    "normalize": {"type": "categorical", "choices": [True, False]},
}

DEFAULT_SPACES = {
    "item_knn_cf": ITEM_KNN_CF_SPACE,
    "pure_svd": PURE_SVD_SPACE,
    "rp3beta": RP3BETA_SPACE,
}


def _check_keys(d: dict, allowed: set[str], section: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown keys in {section}: {sorted(unknown)}")


@dataclass(frozen=True)
class SynthSpec:
    n_users: int = 200
    n_items: int = 150
    n_features: int = 40
    n_relevant: int = 8
    interactions_per_user: int = 30
    noise_rate: float = 0.1

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        _check_keys(
            d,
            {"n_users", "n_items", "n_features", "n_relevant",
             "interactions_per_user", "noise_rate"},
            "dataset.synth",
        )
        return cls(**d)


@dataclass(frozen=True)
class FilesSpec:
    interactions: str
    features: str
    value_mode: str = "explicit"

    @classmethod
    def from_dict(cls, d: dict) -> "FilesSpec":
        _check_keys(d, {"interactions", "features", "value_mode"}, "dataset.files")
        if "interactions" not in d or "features" not in d:
            raise ConfigInvalid("dataset.files needs interactions and features paths")
        spec = cls(**d)
        if spec.value_mode not in ("explicit", "implicit"):
            raise ConfigInvalid(f"bad value_mode {spec.value_mode!r}")
        return spec


@dataclass(frozen=True)
class DatasetSpec:
    synth: SynthSpec | None = None
    files: FilesSpec | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        _check_keys(d, {"synth", "files"}, "dataset")
        synth = SynthSpec.from_dict(d["synth"]) if "synth" in d else None
        files = FilesSpec.from_dict(d["files"]) if "files" in d else None
        if (synth is None) == (files is None):
            raise ConfigInvalid("dataset needs exactly one of synth or files")
        return cls(synth=synth, files=files)


@dataclass(frozen=True)
class PreprocessSpec:
    min_user_interactions: int = 0
    min_item_interactions: int = 0
    min_feature_items: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "PreprocessSpec":
        _check_keys(
            d,
            {"min_user_interactions", "min_item_interactions", "min_feature_items"},
            "preprocess",
        )
        return cls(**d)


@dataclass(frozen=True)
class SplitSpec:
    test_quota: float = 0.20
    validation_quota: float = 0.10
    holdout_quota: float = 0.10

    @classmethod
    def from_dict(cls, d: dict) -> "SplitSpec":
        _check_keys(d, {"test_quota", "validation_quota", "holdout_quota"}, "split")
        return cls(**d)


@dataclass(frozen=True)
class CollaborativeSpec:
    kind: str = "item_knn_cf"
    n_cases: int = 50
    space: dict | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "CollaborativeSpec":
        _check_keys(d, {"kind", "n_cases", "space"}, "collaborative")
        spec = cls(**d)
        if spec.kind not in DEFAULT_SPACES:
            raise ConfigInvalid(f"unknown collaborative kind {spec.kind!r}")
        if spec.n_cases < 1:
            raise ConfigInvalid("collaborative.n_cases must be >= 1")
        return spec

    def resolved_space(self) -> dict:
        return self.space if self.space is not None else DEFAULT_SPACES[self.kind]


@dataclass(frozen=True)
class QuboGridSpec:
    alpha: tuple = tuple(DEFAULT_QUBO_ALPHA)
    beta: tuple = tuple(DEFAULT_QUBO_BETA)
    s: tuple = tuple(DEFAULT_QUBO_S)
    p: tuple = tuple(DEFAULT_QUBO_P)

    @classmethod
    def from_dict(cls, d: dict) -> "QuboGridSpec":
        _check_keys(d, {"alpha", "beta", "s", "p"}, "qubo")
        kwargs = {k: tuple(v) for k, v in d.items()}
        spec = cls(**kwargs)
        for name in ("alpha", "beta", "s", "p"):
            if not getattr(spec, name):
                raise ConfigInvalid(f"qubo.{name} grid is empty")
        if any(not 0 < p <= 1 for p in spec.p):
            raise ConfigInvalid("qubo.p values must be in (0, 1]")
        return spec

    def points(self) -> list[dict]:
        return [
            {"alpha": a, "beta": b, "s": s, "p": p}
            for a in self.alpha
            for b in self.beta
            for s in self.s
            for p in self.p
        ]


@dataclass(frozen=True)
class SolverSpec:
    kind: str = "sa"
    num_samples: int = 100
    sweeps: int | None = None
    beta_start: float | None = None
    beta_end: float | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "SolverSpec":
        _check_keys(d, {"kind", "num_samples", "sweeps", "beta_start", "beta_end"}, "solver")
        spec = cls(**d)
        if spec.kind not in ("sa", "exhaustive"):
            raise ConfigInvalid(f"unknown solver kind {spec.kind!r}")
        if spec.num_samples < 1:
            raise ConfigInvalid("solver.num_samples must be >= 1")
        if spec.sweeps is not None and spec.sweeps < 1:
            raise ConfigInvalid("solver.sweeps must be >= 1")
        for name in ("beta_start", "beta_end"):
            value = getattr(spec, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigInvalid(f"solver.{name} must be finite and > 0")
        if spec.beta_start is not None and spec.beta_end is not None and spec.beta_end < spec.beta_start:
            raise ConfigInvalid("solver.beta_end must be >= solver.beta_start")
        return spec


@dataclass(frozen=True)
class FinalCbfSpec:
    n_cases: int = 50
    space: dict | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "FinalCbfSpec":
        _check_keys(d, {"n_cases", "space"}, "final_cbf")
        spec = cls(**d)
        if spec.n_cases < 1:
            raise ConfigInvalid("final_cbf.n_cases must be >= 1")
        return spec

    def resolved_space(self) -> dict:
        return self.space if self.space is not None else ITEM_KNN_CBF_SPACE


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    seed: int = 0
    cutoff: int = 10
    workers: int = 1
    objective: str = "ndcg"
    max_pairs: int = 10_000
    preprocess: PreprocessSpec = field(default_factory=PreprocessSpec)
    split: SplitSpec = field(default_factory=SplitSpec)
    collaborative: CollaborativeSpec = field(default_factory=CollaborativeSpec)
    qubo: QuboGridSpec = field(default_factory=QuboGridSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    final_cbf: FinalCbfSpec = field(default_factory=FinalCbfSpec)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(
            d,
            {
                "dataset", "seed", "cutoff", "workers", "objective", "max_pairs",
                "preprocess", "split", "collaborative", "qubo", "solver", "final_cbf",
            },
            "config",
        )
        if "dataset" not in d:
            raise ConfigInvalid("config needs a dataset section")
        cfg = cls(
            dataset=DatasetSpec.from_dict(d["dataset"]),
            seed=int(d.get("seed", 0)),
            cutoff=int(d.get("cutoff", 10)),
            workers=int(d.get("workers", 1)),
            objective=d.get("objective", "ndcg"),
            max_pairs=int(d.get("max_pairs", 10_000)),
            preprocess=PreprocessSpec.from_dict(d.get("preprocess", {})),
            split=SplitSpec.from_dict(d.get("split", {})),
            collaborative=CollaborativeSpec.from_dict(d.get("collaborative", {})),
            qubo=QuboGridSpec.from_dict(d.get("qubo", {})),
            solver=SolverSpec.from_dict(d.get("solver", {})),
            final_cbf=FinalCbfSpec.from_dict(d.get("final_cbf", {})),
        )
        if cfg.objective not in ("precision", "recall", "ndcg", "map"):
            raise ConfigInvalid(f"unknown objective {cfg.objective!r}")
        if cfg.cutoff < 1:
            raise ConfigInvalid("cutoff must be >= 1")
        if cfg.workers < 1:
            raise ConfigInvalid("workers must be >= 1")
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigInvalid("config root must be a JSON object")
        return cls.from_dict(raw)

    def replace(self, **kwargs) -> "ExperimentConfig":
        import dataclasses

        return dataclasses.replace(self, **kwargs)

    def to_canonical_dict(self) -> dict:
        def unwrap(obj: Any):
            if hasattr(obj, "__dataclass_fields__"):
                return {
                    k: unwrap(getattr(obj, k)) for k in obj.__dataclass_fields__
                }
            if isinstance(obj, tuple):
                return [unwrap(v) for v in obj]
            if isinstance(obj, dict):
                return {k: unwrap(v) for k, v in obj.items()}
            return obj

        out = unwrap(self)
        # execution detail, not an experiment input: results must not depend on it
        out.pop("workers", None)
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_canonical_dict(), indent=2, sort_keys=True) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]
