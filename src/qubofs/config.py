"""Experiment configuration: JSON with a strict schema.

Each section is a frozen spec dataclass that checks its values in
``__post_init__``, so a config read from a file and one changed with
``dataclasses.replace`` (the CLI overrides) pass the same checks.

Defaults follow the hyperparameter grids used throughout: the QUBO grid spans
alpha = 1, beta in {1e0..1e-4}, strength in {1e0..1e4} and selection fractions
{0.4, 0.6, 0.8, 0.95}; model searches draw 50 cases from the documented
ranges.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field

from .errors import ConfigInvalid
from .fileio import is_finite_number

ITEM_KNN_CF_SPACE = {
    "topK": {"type": "int", "low": 5, "high": 1000, "dist": "uniform"},
    "shrink": {"type": "float", "low": 0.0, "high": 1000.0, "dist": "uniform"},
    "normalize": {"type": "categorical", "choices": [True, False]},
}

ITEM_KNN_CBF_SPACE = {
    **ITEM_KNN_CF_SPACE,
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


# the values a search space may give each model parameter: models.py raises
# outside them and reads the INTEGERS with int(), and the pipeline reads
# normalize with bool(), so "no" is true
LEAST_VALUE = {"topK": 1, "num_factors": 1, "shrink": 0, "alpha": 0, "beta": 0}
INTEGERS = ("topK", "num_factors")
CHOICES = {"normalize": (True, False), "weighting": ("none", "tfidf", "bm25")}


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigInvalid(message)


def _check_value(path: str, name: str, value) -> None:
    """``value``, a choice or a stored value of parameter ``name``, is one
    that the model can take."""
    if name in CHOICES:
        allowed = CHOICES[name]
        _check(value in allowed and isinstance(value, type(allowed[0])),
               f"{path} must be among {list(allowed)}, not {value!r}")
    elif name in LEAST_VALUE:
        _check(is_finite_number(value) and value >= LEAST_VALUE[name],
               f"{path} must be a finite number >= {LEAST_VALUE[name]}, not {value!r}")
        _check(name not in INTEGERS or type(value) is int, f"{path} must be an integer, not {value!r}")


def _check_space(space: dict | None, defaults: dict, where: str) -> None:
    """The rules by which ``pipeline.sample_point`` reads a search space; it
    names the parameters of ``defaults``, every one but the optional
    weighting."""
    if space is None:
        return
    for name in defaults:
        _check(name in space or name == "weighting", f"{where}.{name} is missing")
    for name, spec in space.items():
        path = f"{where}.{name}"
        _check(name in defaults, f"{path} is not a parameter of the model")
        _check(isinstance(spec, dict), f"{path} must be a JSON object, not {spec!r}")
        kind = spec.get("type")
        _check(kind in ("int", "float", "categorical"),
               f"{path}.type must be int, float or categorical, not {kind!r}")
        _check(kind == "categorical" or name not in CHOICES,
               f"{path}.type must be categorical, not {kind!r}")
        _check(kind != "float" or name not in INTEGERS,
               f"{path}.type must be int or categorical, not {kind!r}")
        if kind == "categorical":
            choices = spec.get("choices")
            _check(isinstance(choices, (list, tuple)) and len(choices) > 0,
                   f"{path}.choices must be a non-empty list")
            for choice in choices:
                _check_value(f"{path}.choices", name, choice)
            continue
        low, high = spec.get("low"), spec.get("high")
        _check(all(is_finite_number(v) for v in (low, high)),
               f"{path}.low and .high must be finite numbers")
        _check(low <= high, f"{path}.low must be <= its high")
        if name in LEAST_VALUE:  # a bound need not be an integer: sample_point rounds
            _check(low >= LEAST_VALUE[name], f"{path}.low must be >= {LEAST_VALUE[name]}, not {low!r}")
        dist = spec.get("dist", "uniform")
        _check(dist in ("uniform", "log-uniform"),
               f"{path}.dist must be uniform or log-uniform, not {dist!r}")
        _check(dist == "uniform" or low > 0, f"{path}.low must be > 0 for a log-uniform dist")


def _from_dict(cls, d, section: str = ""):
    """Spec ``cls`` built from the JSON object ``d`` at ``section``: nested
    objects become their specs, lists become tuples, a whole number in an
    int field becomes an int, and an unknown key, a value of the wrong type
    (a fractional number in an int field too) or a failed check raises
    ``ConfigInvalid``."""
    where = section or "config"
    if not isinstance(d, dict):
        raise ConfigInvalid(f"{where} must be a JSON object, not {d!r}")
    unknown = set(d) - set(cls.__annotations__)
    if unknown:
        raise ConfigInvalid(f"unknown keys in {where}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in d.items():
        path = f"{section}.{name}" if section else name
        types = typing.get_args(hints[name]) or (hints[name],)
        integral = int in types
        if {int, float} & set(types):
            types += (int, float)  # any JSON number
        if isinstance(value, list):
            value = tuple(value)
        if isinstance(value, dict) and dataclasses.is_dataclass(types[0]):
            value = _from_dict(types[0], value, path)
        elif isinstance(value, bool) or not isinstance(value, types):
            raise ConfigInvalid(f"{path} must be {cls.__annotations__[name]}, not {value!r}")
        elif integral and isinstance(value, float):
            # "seed": 7.0 is seed 7 and hashes as 7
            if not value.is_integer():
                raise ConfigInvalid(f"{path} must be an integer, not {value!r}")
            value = int(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigInvalid:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class SynthSpec:
    n_users: int = 200
    n_items: int = 150
    n_features: int = 40
    n_relevant: int = 8
    interactions_per_user: int = 30
    noise_rate: float = 0.1

    def __post_init__(self):
        # the checks data.synth_planted makes before it draws anything
        for f in dataclasses.fields(self):
            _check(f.name == "noise_rate" or getattr(self, f.name) >= 1,
                   f"dataset.synth.{f.name} must be >= 1")
        _check(self.n_relevant <= self.n_features,
               "dataset.synth.n_relevant must be <= dataset.synth.n_features")
        _check(0 <= self.noise_rate < 1, "dataset.synth.noise_rate must be in [0, 1)")
        _check(math.floor(self.noise_rate * self.interactions_per_user + 1e-9) <= self.n_items,
               "dataset.synth.noise_rate draws floor(noise_rate * interactions_per_user) "
               "random items per user, more than n_items")


@dataclass(frozen=True)
class FilesSpec:
    interactions: str
    features: str
    value_mode: str = "explicit"

    def __post_init__(self):
        _check(self.value_mode in ("explicit", "implicit"),
               f"dataset.files.value_mode must be explicit or implicit, not {self.value_mode!r}")


@dataclass(frozen=True)
class DatasetSpec:
    synth: SynthSpec | None = None
    files: FilesSpec | None = None

    def __post_init__(self):
        _check((self.synth is None) != (self.files is None),
               "dataset needs exactly one of synth or files")


@dataclass(frozen=True)
class PreprocessSpec:
    min_user_interactions: int = 0
    min_item_interactions: int = 0
    min_feature_items: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check(getattr(self, f.name) >= 0, f"preprocess.{f.name} must be >= 0")


@dataclass(frozen=True)
class SplitSpec:
    test_quota: float = 0.20
    validation_quota: float = 0.10
    holdout_quota: float = 0.10

    def __post_init__(self):
        # the rules of data.cold_item_split and data.user_holdout_split
        _check(0 <= self.test_quota and 0 <= self.validation_quota
               and self.test_quota + self.validation_quota < 1,
               "split.test_quota and split.validation_quota must be >= 0 and sum below 1")
        _check(0 <= self.holdout_quota < 1, "split.holdout_quota must be in [0, 1)")


@dataclass(frozen=True)
class CollaborativeSpec:
    kind: str = "item_knn_cf"
    n_cases: int = 50
    space: dict | None = None

    def __post_init__(self):
        _check(self.kind in DEFAULT_SPACES, f"unknown collaborative.kind {self.kind!r}")
        _check(self.n_cases >= 1, "collaborative.n_cases must be >= 1")
        _check_space(self.space, DEFAULT_SPACES[self.kind], "collaborative.space")

    def resolved_space(self) -> dict:
        return self.space if self.space is not None else DEFAULT_SPACES[self.kind]


@dataclass(frozen=True)
class QuboGridSpec:
    alpha: tuple = (1.0,)
    beta: tuple = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
    s: tuple = (1.0, 1e1, 1e2, 1e3, 1e4)
    p: tuple = (0.4, 0.6, 0.8, 0.95)

    def __post_init__(self):
        # every grid value, at load; assemble_qubo checks only one point's p and s
        for name in ("alpha", "beta", "s", "p"):
            values = getattr(self, name)
            _check(len(values) > 0, f"qubo.{name} grid is empty")
            for v in values:
                _check(is_finite_number(v), f"qubo.{name} values must be finite numbers, not {v!r}")
        _check(all(v > 0 for v in self.alpha), "qubo.alpha values must be > 0")
        _check(all(v >= 0 for v in self.beta), "qubo.beta values must be >= 0")
        _check(all(v >= 0 for v in self.s), "qubo.s values must be >= 0")
        _check(all(0 < v <= 1 for v in self.p), "qubo.p values must be in (0, 1]")

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

    def __post_init__(self):
        _check(self.kind in ("sa", "exhaustive"), f"unknown solver.kind {self.kind!r}")
        _check(self.num_samples >= 1, "solver.num_samples must be >= 1")
        _check(self.sweeps is None or self.sweeps >= 1, "solver.sweeps must be >= 1")
        for name in ("beta_start", "beta_end"):
            value = getattr(self, name)
            _check(value is None or 0 < value < math.inf, f"solver.{name} must be finite and > 0")
        _check(self.beta_start is None or self.beta_end is None or self.beta_end >= self.beta_start,
               "solver.beta_end must be >= solver.beta_start")


@dataclass(frozen=True)
class FinalCbfSpec:
    n_cases: int = 50
    space: dict | None = None

    def __post_init__(self):
        _check(self.n_cases >= 1, "final_cbf.n_cases must be >= 1")
        _check_space(self.space, ITEM_KNN_CBF_SPACE, "final_cbf.space")

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

    def __post_init__(self):
        _check(self.objective in ("precision", "recall", "ndcg", "map"),
               f"unknown objective {self.objective!r}")
        _check(self.cutoff >= 1, "cutoff must be >= 1")
        _check(self.workers >= 1, "workers must be >= 1")
        _check(self.max_pairs >= 1, "max_pairs must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _from_dict(cls, d)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_canonical_dict(self) -> dict:
        out = dataclasses.asdict(self)
        # execution detail, not an experiment input: results must not depend on it
        del out["workers"]
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_canonical_dict(), indent=2, sort_keys=True) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]
