"""Dataset ingestion, preprocessing filters, split protocols and a synthetic
generator with planted relevant features.

Interactions live in a user-by-item matrix (values > 0, duplicates summed),
item features in a binary item-by-feature matrix. The cold-item split moves
whole item columns into test/validation pools until each pool holds the
requested share of interactions; the per-user holdout split moves a fixed
fraction of each user's interactions. All randomized operations are pure
functions of (input, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    InfeasibleConfig,
    NegativeValue,
    ParseError,
    QuotaInfeasible,
)
from .fileio import atomic_open, read_json, write_json
from .sparse import SparseMatrix

# Mean number of decoy (non-planted) features attached to each synthetic item.
# Kept well below the one planted feature per item: dense decoys let feature
# subsets ride on co-occurrence alone, which defeats recovery scoring.
SYNTH_EXTRA_FEATURES_MEAN = 0.5


@dataclass(frozen=True)
class Dataset:
    """Interactions plus binary item features, with label<->index maps."""

    urm: SparseMatrix
    icm: SparseMatrix
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    feature_ids: tuple[str, ...]

    def __post_init__(self):
        if self.urm.n_cols != self.icm.n_rows:
            raise ValueError("interaction and feature matrices disagree on item count")
        if len(self.user_ids) != self.urm.n_rows:
            raise ValueError("user label count mismatch")
        if len(self.item_ids) != self.urm.n_cols:
            raise ValueError("item label count mismatch")
        if len(self.feature_ids) != self.icm.n_cols:
            raise ValueError("feature label count mismatch")
        if self.icm.nnz and not np.all(self.icm.csr.data == 1.0):
            raise ValueError("feature matrix must be binary")

    @property
    def n_users(self) -> int:
        return self.urm.n_rows

    @property
    def n_items(self) -> int:
        return self.urm.n_cols

    @property
    def n_features(self) -> int:
        return self.icm.n_cols


@dataclass(frozen=True)
class ColdSplit:
    """Item-wise split: warm train/validation columns, cold test columns."""

    train: SparseMatrix
    validation: SparseMatrix
    test: SparseMatrix
    cold_validation_items: frozenset[int]
    cold_test_items: frozenset[int]

    def warm_items(self) -> np.ndarray:
        cold = self.cold_validation_items | self.cold_test_items
        return np.array(
            [i for i in range(self.train.n_cols) if i not in cold], dtype=np.int64
        )


@dataclass(frozen=True)
class HoldoutSplit:
    train: SparseMatrix
    validation: SparseMatrix


def load_interactions(path, value_mode: str = "explicit") -> list[tuple[str, str, float]]:
    """Read `user<TAB>item[<TAB>value]` lines; `#` comments skipped.

    Missing values default to 1.0; ``implicit`` mode forces all values to 1.
    """
    if value_mode not in ("explicit", "implicit"):
        raise ValueError(f"unknown value_mode {value_mode!r}")
    triplets = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) == 2:
                user, item, value = fields[0], fields[1], 1.0
            elif len(fields) == 3:
                user, item = fields[0], fields[1]
                try:
                    value = float(fields[2])
                except ValueError as exc:
                    raise ParseError(f"bad value {fields[2]!r}", line_no) from exc
            else:
                raise ParseError(
                    f"expected 2 or 3 tab-separated fields, got {len(fields)}", line_no
                )
            if value < 0:
                raise NegativeValue(f"line {line_no}: negative value {value}")
            if value_mode == "implicit":
                value = 1.0
            triplets.append((user, item, value))
    return triplets


def load_item_features(path) -> list[tuple[str, str]]:
    """Read `item<TAB>feature` lines; `#` comments skipped."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(
                    f"expected 2 tab-separated fields, got {len(fields)}", line_no
                )
            pairs.append((fields[0], fields[1]))
    return pairs


def build_dataset(
    interactions: list[tuple[str, str, float]],
    item_features: list[tuple[str, str]],
) -> Dataset:
    """Assemble a Dataset; the item space is the union of both sources."""
    users = sorted({u for u, _, _ in interactions})
    items = sorted({i for _, i, _ in interactions} | {i for i, _ in item_features})
    features = sorted({f for _, f in item_features})
    if not users or not items:
        raise EmptyDataset("no users or items")
    u_index = {u: k for k, u in enumerate(users)}
    i_index = {i: k for k, i in enumerate(items)}
    f_index = {f: k for k, f in enumerate(features)}
    urm = SparseMatrix.from_triplets(
        len(users),
        len(items),
        [(u_index[u], i_index[i], v) for u, i, v in interactions],
    )
    # repeated (item, feature) pairs would sum above 1; deduplicate first
    icm_pairs = {(i_index[i], f_index[f]) for i, f in item_features}
    icm = SparseMatrix.from_triplets(
        len(items), len(features), [(i, f, 1.0) for i, f in sorted(icm_pairs)]
    )
    return Dataset(urm, icm, tuple(users), tuple(items), tuple(features))


def preprocess(
    ds: Dataset,
    min_user_interactions: int = 0,
    min_item_interactions: int = 0,
    min_feature_items: int = 0,
) -> Dataset:
    """Iteratively drop low-degree users/items/features until a fixed point."""
    if min(min_user_interactions, min_item_interactions, min_feature_items) < 0:
        raise ValueError("thresholds must be >= 0")
    urm, icm = ds.urm, ds.icm
    users = np.arange(ds.n_users)
    items = np.arange(ds.n_items)
    features = np.arange(ds.n_features)
    while True:
        user_keep = urm.row_nnz() >= min_user_interactions
        item_keep = urm.col_nnz() >= min_item_interactions
        feature_keep = icm.col_nnz() >= min_feature_items
        if user_keep.all() and item_keep.all() and feature_keep.all():
            break
        if not user_keep.any() or not item_keep.any() or not feature_keep.any():
            raise EmptyDataset("preprocessing filtered out everything")
        urm = urm.submatrix(rows=np.flatnonzero(user_keep), cols=np.flatnonzero(item_keep))
        icm = icm.submatrix(rows=np.flatnonzero(item_keep), cols=np.flatnonzero(feature_keep))
        users = users[user_keep]
        items = items[item_keep]
        features = features[feature_keep]
    return Dataset(
        urm,
        icm,
        tuple(ds.user_ids[u] for u in users),
        tuple(ds.item_ids[i] for i in items),
        tuple(ds.feature_ids[f] for f in features),
    )


def cold_item_split(
    ds: Dataset,
    test_quota: float = 0.20,
    validation_quota: float = 0.10,
    seed: int = 0,
) -> ColdSplit:
    """Draw items uniformly (seeded) into cold test/validation pools until each
    pool's interaction count crosses its quota; remaining columns are train."""
    if test_quota < 0 or validation_quota < 0 or test_quota + validation_quota >= 1:
        raise ValueError("quotas must be non-negative and sum below 1")
    total = ds.urm.nnz
    col_counts = ds.urm.col_nnz()
    if total and col_counts.max() > (1.0 - test_quota - validation_quota) * total:
        raise QuotaInfeasible(
            "an item holds more interactions than the train share allows"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n_items)
    test_items: set[int] = set()
    validation_items: set[int] = set()
    cursor = 0
    accumulated = 0
    target = test_quota * total
    while accumulated < target:
        item = int(order[cursor])
        cursor += 1
        test_items.add(item)
        accumulated += int(col_counts[item])
    accumulated = 0
    target = validation_quota * total
    while accumulated < target:
        item = int(order[cursor])
        cursor += 1
        validation_items.add(item)
        accumulated += int(col_counts[item])

    test_mask = np.zeros(ds.n_items, dtype=bool)
    test_mask[list(test_items)] = True
    validation_mask = np.zeros(ds.n_items, dtype=bool)
    validation_mask[list(validation_items)] = True
    train_mask = ~(test_mask | validation_mask)
    return ColdSplit(
        train=ds.urm.mask_cols(train_mask),
        validation=ds.urm.mask_cols(validation_mask),
        test=ds.urm.mask_cols(test_mask),
        cold_validation_items=frozenset(validation_items),
        cold_test_items=frozenset(test_items),
    )


def user_holdout_split(m: SparseMatrix, quota: float, seed: int = 0) -> HoldoutSplit:
    """Move floor(quota * profile size) interactions per user to validation."""
    if not 0 <= quota < 1:
        raise ValueError("quota must be in [0, 1)")
    rng = np.random.default_rng(seed)
    held = np.zeros(m.nnz, dtype=bool)
    starts = m.csr.indptr[:-1].tolist()
    for start, n_u in zip(starts, m.row_nnz().tolist()):
        # tiny epsilon guards against fp noise flooring an exact product down
        n_holdout = int(math.floor(quota * n_u + 1e-9))
        if n_holdout:
            held[start + rng.choice(n_u, size=n_holdout, replace=False)] = True
    return HoldoutSplit(train=m.with_entries(keep=~held), validation=m.with_entries(keep=held))


def synth_planted(
    n_users: int,
    n_items: int,
    n_features: int,
    n_relevant: int,
    interactions_per_user: int,
    noise_rate: float,
    seed: int = 0,
) -> tuple[Dataset, frozenset[int]]:
    """Generate a dataset where user behavior is driven by a planted feature set.

    Every item carries exactly one planted feature plus Poisson-many decoy
    features from the non-planted pool. Every user prefers one planted feature
    and interacts with items carrying it, except for a ``noise_rate`` fraction
    of uniformly random interactions. Interaction counts are kept as values, so
    weighted counts on the result reproduce the generation-event ratios.
    """
    if min(n_users, n_items, n_features, n_relevant, interactions_per_user) < 1:
        raise InfeasibleConfig("all counts must be >= 1")
    if n_relevant > n_features:
        raise InfeasibleConfig("n_relevant exceeds n_features")
    if not 0 <= noise_rate < 1:
        raise InfeasibleConfig("noise_rate must be in [0, 1)")
    n_noise = int(math.floor(noise_rate * interactions_per_user + 1e-9))
    if n_noise > n_items:
        raise InfeasibleConfig("noise draws exceed catalog size")

    rng = np.random.default_rng(seed)
    planted = np.sort(rng.choice(n_features, size=n_relevant, replace=False))
    planted_set = frozenset(int(f) for f in planted)
    non_planted = np.array(
        [f for f in range(n_features) if f not in planted_set], dtype=np.int64
    )

    icm_triplets = []
    relevant_of_item = planted[rng.integers(0, n_relevant, size=n_items)]
    for i in range(n_items):
        icm_triplets.append((i, int(relevant_of_item[i]), 1.0))
        if non_planted.size:
            n_extra = min(int(rng.poisson(SYNTH_EXTRA_FEATURES_MEAN)), non_planted.size)
            if n_extra:
                for f in rng.choice(non_planted, size=n_extra, replace=False):
                    icm_triplets.append((i, int(f), 1.0))

    items_with_feature = {
        int(f): np.flatnonzero(relevant_of_item == f) for f in planted
    }
    eligible = [f for f in planted if items_with_feature[int(f)].size > 0]
    if not eligible:
        raise InfeasibleConfig("no planted feature ended up on any item")

    n_preferred = interactions_per_user - n_noise
    urm_triplets = []
    preferred_of_user = rng.choice(np.asarray(eligible), size=n_users)
    for u in range(n_users):
        pool = items_with_feature[int(preferred_of_user[u])]
        chosen = rng.choice(pool, size=n_preferred, replace=pool.size < n_preferred)
        for i in chosen:
            urm_triplets.append((u, int(i), 1.0))
        if n_noise:
            for i in rng.choice(n_items, size=n_noise, replace=False):
                urm_triplets.append((u, int(i), 1.0))

    urm = SparseMatrix.from_triplets(n_users, n_items, urm_triplets)
    icm = SparseMatrix.from_triplets(n_items, n_features, icm_triplets)
    ds = Dataset(
        urm,
        icm,
        tuple(f"u{k}" for k in range(n_users)),
        tuple(f"i{k}" for k in range(n_items)),
        tuple(f"f{k}" for k in range(n_features)),
    )
    return ds, planted_set


def save_dataset_tsv(ds: Dataset, interactions_path, features_path) -> None:
    with atomic_open(interactions_path) as fh:
        for u, i, v in ds.urm.triplets():
            fh.write(f"{ds.user_ids[u]}\t{ds.item_ids[i]}\t{v:.17g}\n")
    with atomic_open(features_path) as fh:
        for i, f, _ in ds.icm.triplets():
            fh.write(f"{ds.item_ids[i]}\t{ds.feature_ids[f]}\n")


def save_cold_split(split: ColdSplit, out_dir, seed: int, test_quota: float, validation_quota: float) -> None:
    split.train.save_coo(out_dir / "train.coo")
    split.validation.save_coo(out_dir / "validation.coo")
    split.test.save_coo(out_dir / "test.coo")
    sidecar = {
        "seed": seed,
        "test_quota": test_quota,
        "validation_quota": validation_quota,
        "cold_test_items": sorted(split.cold_test_items),
        "cold_validation_items": sorted(split.cold_validation_items),
    }
    write_json(out_dir / "split.json", sidecar)


def load_cold_split(out_dir) -> ColdSplit:
    sidecar = read_json(out_dir / "split.json")
    return ColdSplit(
        train=SparseMatrix.load_coo(out_dir / "train.coo"),
        validation=SparseMatrix.load_coo(out_dir / "validation.coo"),
        test=SparseMatrix.load_coo(out_dir / "test.coo"),
        cold_validation_items=frozenset(sidecar["cold_validation_items"]),
        cold_test_items=frozenset(sidecar["cold_test_items"]),
    )
