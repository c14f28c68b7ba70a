"""Dataset ingestion, preprocessing filters, split protocols and a synthetic
generator with planted relevant features.

Interactions live in a user-by-item matrix (values > 0, the values of
repeated lines summed in file order), item features in a binary
item-by-feature matrix. Both TSV inputs go through one reader,
``_read_tsv``: it skips blank lines and ``#`` comments, and a wrong field
count is a ``ParseError`` naming its line. The cold-item split moves
whole item columns into test/validation pools until each pool holds the
requested share of interactions; it is stored as its cold item lists alone,
and loading it takes those columns of the interactions again. The per-user
holdout split moves a fixed fraction of each user's interactions. All
randomized operations are pure functions of (input, seed).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
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
            raise DimensionMismatch("interaction and feature matrices disagree on item count")
        if len(self.user_ids) != self.urm.n_rows:
            raise DimensionMismatch("user label count mismatch")
        if len(self.item_ids) != self.urm.n_cols:
            raise DimensionMismatch("item label count mismatch")
        if len(self.feature_ids) != self.icm.n_cols:
            raise DimensionMismatch("feature label count mismatch")
        if not np.all(self.icm.entries()[2] == 1.0):
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
    """Item-wise split: warm train/validation columns, cold test columns.
    The cold items are ascending int64 arrays."""

    train: SparseMatrix
    validation: SparseMatrix
    test: SparseMatrix
    cold_validation_items: np.ndarray
    cold_test_items: np.ndarray

    def warm_items(self) -> np.ndarray:
        """The items in neither cold pool, ascending, as int64."""
        warm = np.ones(self.train.n_cols, dtype=bool)
        warm[self.cold_validation_items] = False
        warm[self.cold_test_items] = False
        return np.flatnonzero(warm)


@dataclass(frozen=True)
class HoldoutSplit:
    train: SparseMatrix
    validation: SparseMatrix


def _read_tsv(path, widths: tuple[int, ...]):
    """Yield ``(line number, fields)`` for each line of ``path`` that is
    neither blank nor a ``#`` comment; any field count outside ``widths`` is
    a ``ParseError`` naming its line."""
    expected = " or ".join(map(str, widths))
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in widths:
                raise ParseError(f"expected {expected} tab-separated fields, got {len(fields)}",
                                 line_no)
            yield line_no, fields


def load_interactions(path, value_mode: str = "explicit") -> Iterator[tuple[str, str, float]]:
    """Yield ``(user, item, value)`` for each `user<TAB>item[<TAB>value]` line,
    in file order, as the file is read; `#` comments skipped.

    Missing values default to 1.0; ``implicit`` mode forces all values to 1. A
    value that is not a finite number is a ``ParseError`` naming its line.
    """
    if value_mode not in ("explicit", "implicit"):
        raise ValueError(f"unknown value_mode {value_mode!r}")
    return _interactions(path, value_mode == "implicit")


def _interactions(path, implicit: bool) -> Iterator[tuple[str, str, float]]:
    for line_no, (user, item, *rest) in _read_tsv(path, (2, 3)):
        value = 1.0
        if rest:
            try:
                value = float(rest[0])
            except ValueError as exc:
                raise ParseError(f"bad value {rest[0]!r}", line_no) from exc
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {rest[0]!r}", line_no)
        if value < 0:
            raise NegativeValue(f"line {line_no}: negative value {value}")
        yield user, item, 1.0 if implicit else value


def load_item_features(path) -> list[tuple[str, str]]:
    """Read `item<TAB>feature` lines; `#` comments skipped."""
    return [(item, feature) for _, (item, feature) in _read_tsv(path, (2,))]


def _sorted_codes(index: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The labels of ``index`` (label -> code in first-seen order) sorted, and
    each code's position among them."""
    labels = sorted(index)
    position = np.empty(len(labels), dtype=np.int64)
    position[[index[label] for label in labels]] = np.arange(len(labels))
    return tuple(labels), position


def build_dataset(
    interactions: Iterable[tuple[str, str, float]],
    item_features: list[tuple[str, str]],
) -> Dataset:
    """Assemble a Dataset; the item space is the union of both sources, and
    each label space is sorted.

    The interactions are read in one pass, as ``load_interactions`` yields
    them: each label gets an integer code in first-seen order, and the codes
    and values go into flat arrays (16 bytes a line), which are then mapped
    to sorted label order and canonicalised once, the values of repeated
    (user, item) lines summed in the order given."""
    u_index: dict[str, int] = {}
    i_index: dict[str, int] = {}
    user_codes, item_codes, values = array("i"), array("i"), array("d")
    for user, item, value in interactions:
        user_codes.append(u_index.setdefault(user, len(u_index)))
        item_codes.append(i_index.setdefault(item, len(i_index)))
        values.append(value)
    for item, _ in item_features:
        i_index.setdefault(item, len(i_index))
    f_index = {f: k for k, f in enumerate(sorted({f for _, f in item_features}))}
    if not u_index or not i_index:
        raise EmptyDataset("no users or items")
    if not f_index:
        raise EmptyDataset("no item features")
    users, user_position = _sorted_codes(u_index)
    items, item_position = _sorted_codes(i_index)
    urm = SparseMatrix._canonical(
        (len(users), len(items)),
        user_position.take(np.frombuffer(user_codes, dtype=np.int32)),
        item_position.take(np.frombuffer(item_codes, dtype=np.int32)),
        np.frombuffer(values, dtype=np.float64),
    )
    # repeated (item, feature) pairs would sum above 1; deduplicate first
    icm_pairs = {(int(item_position[i_index[i]]), f_index[f]) for i, f in item_features}
    icm = SparseMatrix.from_triplets(
        len(items), len(f_index), [(i, f, 1.0) for i, f in sorted(icm_pairs)]
    )
    return Dataset(urm, icm, users, items, tuple(f_index))


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
    order = iter(np.random.default_rng(seed).permutation(ds.n_items).tolist())
    test_items: set[int] = set()
    validation_items: set[int] = set()
    for quota, pool in ((test_quota, test_items), (validation_quota, validation_items)):
        accumulated = 0
        while accumulated < quota * total:
            item = next(order)
            pool.add(item)
            accumulated += int(col_counts[item])

    return _split_columns(ds.urm, test_items, validation_items)


def _split_columns(urm: SparseMatrix, test_items, validation_items) -> ColdSplit:
    """``urm``'s test and validation item columns, and the rest as train."""
    test_mask = np.zeros(urm.n_cols, dtype=bool)
    test_mask[list(test_items)] = True
    validation_mask = np.zeros(urm.n_cols, dtype=bool)
    validation_mask[list(validation_items)] = True
    train_mask = ~(test_mask | validation_mask)
    return ColdSplit(
        train=urm.mask_cols(train_mask),
        validation=urm.mask_cols(validation_mask),
        test=urm.mask_cols(test_mask),
        cold_validation_items=np.flatnonzero(validation_mask),
        cold_test_items=np.flatnonzero(test_mask),
    )


def user_holdout_split(m: SparseMatrix, quota: float, seed: int = 0) -> HoldoutSplit:
    """Move floor(quota * profile size) interactions per user to validation."""
    if not 0 <= quota < 1:
        raise ValueError("quota must be in [0, 1)")
    rng = np.random.default_rng(seed)
    held = np.zeros(m.nnz, dtype=bool)
    starts = m.indptr[:-1].tolist()
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


def save_cold_split(split: ColdSplit, sidecar_path, seed: int, test_quota: float,
                    validation_quota: float) -> None:
    """A JSON sidecar holding the cold items and the seed and quotas they
    were drawn with; the matrices are columns of the interactions, so
    ``load_cold_split`` derives them again."""
    write_json(sidecar_path, {
        "seed": seed,
        "test_quota": test_quota,
        "validation_quota": validation_quota,
        "cold_test_items": split.cold_test_items.tolist(),
        "cold_validation_items": split.cold_validation_items.tolist(),
    })


def load_cold_split(urm: SparseMatrix, sidecar_path) -> ColdSplit:
    """The split of ``urm`` whose cold items ``save_cold_split`` stored. Each
    list must hold distinct integer items in ``[0, urm.n_cols)``, and no item
    may be in both; otherwise it is a ``ParseError`` naming the file."""
    sidecar = read_json(sidecar_path, "cold_test_items", "cold_validation_items")
    pools = []
    for key in ("cold_test_items", "cold_validation_items"):
        items = sidecar[key]
        if not (isinstance(items, list)
                and all(type(item) is int and 0 <= item < urm.n_cols for item in items)):
            raise ParseError(f"{sidecar_path}: {key} is not a list of items in [0, {urm.n_cols})")
        if len(set(items)) < len(items):
            raise ParseError(f"{sidecar_path}: {key} repeats an item")
        pools.append(set(items))
    if pools[0] & pools[1]:
        raise ParseError(f"{sidecar_path}: an item is both a cold test and a cold validation item")
    return _split_columns(urm, *pools)
