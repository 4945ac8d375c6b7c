"""Pixel-space neighbor selection: same-class target neighbors, per-foreign-
class impostor neighbors, and the (anchor, target, impostor) triples table.

Neighbors are chosen once in the original feature space by exact squared
Euclidean distance and are never refreshed while the codes move.  Distance
ties break toward the smaller index so tables are reproducible; `classify`
shares that rule through `sq_dists` and `nearest`.  `nearest` selects
partially: it finds each row's count-th smallest distance, takes every
column below it and the tied columns in index order, and sorts only the
chosen few.  `sq_dists` refuses non-finite distances, so that order is
never asked of a NaN.

The table stays factored: per anchor, its k targets and its M = m * (c-1)
impostors, n * (1 + k + M) indices in all.  Its n * k * M rows are that
per-anchor cross product and are materialized only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import CapacityError, ConfigError, DivergenceError

# distance-block cells per selection step of `nearest`: bounds its temporaries
_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class NeighborConfig:
    """k same-class targets and m impostors per foreign class, per anchor."""

    k: int = 5
    m: int = 30

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.m < 1:
            raise ConfigError("m must be >= 1")


@dataclass(frozen=True)
class TriplesTable:
    """(anchor i, same-class target l, foreign impostor j) triples, factored
    per anchor.

    The rows are every (anchors[a], targets[a, t], impostors[a, s]): each
    anchor's targets crossed with its impostors.  Storage is A * (1 + k + M)
    indices for A * k * M rows; a set of arbitrary rows is the k = M = 1
    case.
    """

    anchors: np.ndarray  # (A,) int64
    targets: np.ndarray  # (A, k) int64
    impostors: np.ndarray  # (A, M) int64

    def __post_init__(self):
        for name in ("anchors", "targets", "impostors"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        a, t, i = self.anchors, self.targets, self.impostors
        if a.ndim != 1 or t.ndim != 2 or i.ndim != 2 or \
                not a.shape[0] == t.shape[0] == i.shape[0]:
            raise ConfigError(
                f"triples need anchors (A,), targets (A, k) and impostors (A, M), "
                f"got {a.shape}, {t.shape} and {i.shape}"
            )

    def __len__(self) -> int:
        return self.anchors.shape[0] * self.targets.shape[1] * self.impostors.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """The (T, 3) row array, built on demand: anchor-major, then target
        column, then impostor column."""
        k, m = self.targets.shape[1], self.impostors.shape[1]
        return np.column_stack((
            np.repeat(self.anchors, k * m),
            np.repeat(self.targets, m, axis=1).ravel(),
            np.tile(self.impostors, (1, k)).ravel(),
        ))


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of a and rows of b.

    Raises DivergenceError when a distance is not finite: finite rows whose
    squares overflow would otherwise rank every neighbor by NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        aa = (a * a).sum(axis=1)[:, None]
        bb = (b * b).sum(axis=1)[None, :]
        d = aa + bb - 2.0 * (a @ b.T)
    np.maximum(d, 0.0, out=d)
    if not np.isfinite(d).all():
        raise DivergenceError("squared distances overflow: the features or codes "
                              "are too large to compare")
    return d


def nearest(dists: np.ndarray, count: int, candidates: np.ndarray) -> np.ndarray:
    """First `count` candidates per row, nearest first by (distance, index).

    Column j of `dists` is the distance to `candidates[j]`, and `candidates`
    must be ascending, so ties break toward the smaller global index; `inf`
    is an ordinary distance, NaN is not allowed, and count may not exceed
    the column count.  The result equals the first `count` columns of a
    stable argsort of each row, but only the chosen columns get sorted: a
    partition finds the count-th smallest distance, every column below it
    is in, and columns equal to it fill the remaining room in index order.
    """
    rows, cols = dists.shape
    out = np.empty((rows, count), dtype=candidates.dtype)
    step = max(1, _CHUNK_CELLS // cols)
    for start in range(0, rows, step):
        d = dists[start : start + step]
        bound = np.partition(d, count - 1, axis=1)[:, count - 1 : count]
        chosen = d <= bound
        over = np.count_nonzero(chosen, axis=1) - count  # ties past the room
        tied = np.flatnonzero(over)
        if tied.size:
            ties = d[tied] == bound[tied]
            room = ties.sum(axis=1, keepdims=True) - over[tied, None]
            chosen[tied] &= ~ties | (np.cumsum(ties, axis=1) <= room)
        picked = np.nonzero(chosen)[1].reshape(-1, count)  # ascending per row
        order = np.argsort(np.take_along_axis(d, picked, axis=1), axis=1, kind="stable")
        out[start : start + step] = candidates[np.take_along_axis(picked, order, axis=1)]
    return out


def target_neighbors(train: Dataset, k: int) -> np.ndarray:
    """The k nearest same-class points of every anchor, self excluded.

    Returns an (n, k) array of global indices, each row sorted ascending.
    """
    n = len(train)
    out = np.empty((n, k), dtype=np.int64)
    for cls in range(train.num_classes):
        idx = train.class_indices(cls)
        if idx.size < k + 1:
            raise CapacityError(
                f"class {cls} has {idx.size} members; target neighbors need >= {k + 1}"
            )
        d = sq_dists(train.features[idx], train.features[idx])
        np.fill_diagonal(d, np.inf)
        out[idx] = np.sort(nearest(d, k, idx), axis=1)
    return out


def impostor_neighbors(train: Dataset, m: int) -> np.ndarray:
    """The m nearest points from each foreign class, per anchor.

    Returns an (n, m*(c-1)) array of global indices, rows sorted ascending.
    Raises CapacityError when any class is smaller than m or when there is
    no foreign class at all.
    """
    c = train.num_classes
    if c < 2:
        raise CapacityError("impostor selection needs at least two classes")
    n = len(train)
    per_class = []
    for cls in range(c):
        idx = train.class_indices(cls)
        if idx.size < m:
            raise CapacityError(
                f"class {cls} has {idx.size} members; impostor selection needs >= {m}"
            )
        per_class.append(idx)
    out = np.empty((n, m * (c - 1)), dtype=np.int64)
    for anchor_cls in range(c):
        a_idx = per_class[anchor_cls]
        blocks = []
        for foreign_cls in range(c):
            if foreign_cls == anchor_cls:
                continue
            f_idx = per_class[foreign_cls]
            d = sq_dists(train.features[a_idx], train.features[f_idx])
            blocks.append(nearest(d, m, f_idx))
        out[a_idx] = np.sort(np.concatenate(blocks, axis=1), axis=1)
    return out


def build_triples(train: Dataset, cfg: NeighborConfig) -> TriplesTable:
    """Cross product, per anchor, of its targets and its impostors.

    Row order is anchor-major, then target index ascending, then impostor
    index ascending; the row count is n * k * (c-1) * m whenever the
    capacity preconditions hold.
    """
    return TriplesTable(np.arange(len(train), dtype=np.int64),
                        target_neighbors(train, cfg.k), impostor_neighbors(train, cfg.m))
