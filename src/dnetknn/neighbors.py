"""Pixel-space neighbor selection: same-class target neighbors, per-foreign-
class impostor neighbors, and the (anchor, target, impostor) triples table.

Neighbors are chosen once in the original feature space by squared
Euclidean distance and are never refreshed while the codes move.  `nearest`
selects an index-ordered set; kNN in `classify` ranks its k.  Ties break
toward the smaller index, and a tie means equal computed float distances:
points equally far in exact arithmetic can compute unequal distances, and
then the smaller one wins.  `sq_dists` refuses non-finite distances, so no
selection sees a NaN.

The table stays factored: row i holds anchor i's k targets and its
M = m * (c-1) impostors, n * (k + M) indices in all.  Its n * k * M rows
are that per-anchor cross product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import CapacityError, ConfigError, ConsistencyError, DivergenceError

# distance-block cells per step of `sq_dists` and `nearest`: bounds their temporaries
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
    per anchor: row i of both arrays belongs to anchor i.

    The rows are every (i, targets[i, t], impostors[i, s]): each anchor's
    targets crossed with its impostors.  Storage is n * (k + M) indices for
    n * k * M rows.  Every index is checked once, here, to lie in [0, n).
    """

    targets: np.ndarray  # (n, k) int64
    impostors: np.ndarray  # (n, M) int64

    def __post_init__(self):
        for name in ("targets", "impostors"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        t, i = self.targets, self.impostors
        if t.ndim != 2 or i.ndim != 2 or t.shape[0] != i.shape[0]:
            raise ConfigError(
                f"triples need targets (n, k) and impostors (n, M), "
                f"got {t.shape} and {i.shape}"
            )
        n = t.shape[0]
        for indices in (t, i):
            if indices.size and (indices.min() < 0 or indices.max() >= n):
                raise ConsistencyError(
                    f"triple indices must lie in [0, {n}), "
                    f"found range [{indices.min()}, {indices.max()}]"
                )

    def __len__(self) -> int:
        return self.targets.shape[0] * self.targets.shape[1] * self.impostors.shape[1]


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of a and rows of b.

    Raises DivergenceError when a distance is not finite: finite rows whose
    squares overflow would otherwise rank every neighbor by NaN.  The block
    is formed in the product's own buffer as -2 (a b^T) + (|a|^2 + |b|^2),
    the norms added a row chunk at a time; that equals |a|^2 + |b|^2 - 2 a b^T
    bit for bit, because doubling is exact and x - y is x + (-y).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        aa = (a * a).sum(axis=1)[:, None]
        bb = (b * b).sum(axis=1)[None, :]
        d = a @ b.T
        d *= -2.0
        step = max(1, _CHUNK_CELLS // max(1, d.shape[1]))
        for start in range(0, d.shape[0], step):
            d[start : start + step] += aa[start : start + step] + bb
    np.maximum(d, 0.0, out=d)
    if not np.isfinite(d).all():
        raise DivergenceError("squared distances overflow: the features or codes "
                              "are too large to compare")
    return d


def nearest(dists: np.ndarray, count: int) -> np.ndarray:
    """Each row's `count` nearest column positions by (distance, column), as
    an ascending int64 set.

    `inf` is an ordinary distance, NaN is not allowed, and count may not
    exceed the column count.  The set equals the first `count` columns of a
    stable argsort of the row, but nothing is sorted: a partition finds the
    count-th smallest distance, every column below it is in, and columns
    equal to it fill the remaining room in index order.
    """
    rows, cols = dists.shape
    out = np.empty((rows, count), dtype=np.int64)
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
        out[start : start + step] = np.nonzero(chosen)[1].reshape(-1, count)
    return out


def check_capacity(labels: np.ndarray, num_classes: int, targets: int, impostors: int) -> None:
    """The one class-size rule: every class id below num_classes needs
    `targets` and `impostors` members, and impostors need a second class.

    A triples table passes k + 1 and m (its anchor is a member of its class),
    energy labelling k and m (a test point is not).  0 asks for none.
    """
    if impostors and num_classes < 2:
        raise CapacityError("impostor selection needs at least two classes")
    need = max(targets, impostors)
    bins = min(num_classes, labels.size + 1)  # n labels cannot fill ids 0..n
    counts = np.bincount(labels[labels < bins], minlength=bins)
    short = np.flatnonzero(counts < need)
    if short.size:
        cls = int(short[0])
        raise CapacityError(f"class {cls} has {counts[cls]} members; >= {need} needed "
                            f"({targets} for targets, {impostors} for impostors)")


def target_neighbors(train: Dataset, k: int) -> np.ndarray:
    """The k nearest same-class points of every anchor, self excluded.

    Returns an (n, k) array of global indices, each row sorted ascending.
    """
    check_capacity(train.labels, train.num_classes, k + 1, 0)
    out = np.empty((len(train), k), dtype=np.int64)
    for cls in range(train.num_classes):
        idx = train.class_indices(cls)
        d = sq_dists(train.features[idx], train.features[idx])
        np.fill_diagonal(d, np.inf)
        out[idx] = idx[nearest(d, k)]
    return out


def impostor_neighbors(train: Dataset, m: int) -> np.ndarray:
    """The m nearest points from each foreign class, per anchor.

    Returns an (n, m*(c-1)) array of global indices, rows sorted ascending.
    """
    check_capacity(train.labels, train.num_classes, 0, m)
    c = train.num_classes
    per_class = [train.class_indices(cls) for cls in range(c)]
    out = np.empty((len(train), m * (c - 1)), dtype=np.int64)
    for anchor_cls in range(c):
        a_idx = per_class[anchor_cls]
        anchors = train.features[a_idx]
        blocks = [f_idx[nearest(sq_dists(anchors, train.features[f_idx]), m)]
                  for cls, f_idx in enumerate(per_class) if cls != anchor_cls]
        # each block is ascending, but the classes' indices interleave
        out[a_idx] = np.sort(np.concatenate(blocks, axis=1), axis=1)
    return out


def build_triples(train: Dataset, cfg: NeighborConfig) -> TriplesTable:
    """Cross product, per anchor, of its targets and its impostors.

    Row order is anchor-major, then target index ascending, then impostor
    index ascending; the row count is n * k * (c-1) * m.  Class sizes are
    checked by `check_capacity` before any distance block is formed.
    """
    check_capacity(train.labels, train.num_classes, cfg.k + 1, cfg.m)
    return TriplesTable(target_neighbors(train, cfg.k), impostor_neighbors(train, cfg.m))
