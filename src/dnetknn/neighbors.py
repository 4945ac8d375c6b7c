"""Pixel-space neighbor selection: same-class target neighbors, per-foreign-
class impostor neighbors, and the (anchor, target, impostor) triples table.

Neighbors are chosen once in the original feature space by squared
Euclidean distance and are never refreshed while the codes move.  `nearest`
selects an index-ordered set; kNN in `classify` ranks its k.  Ties break
toward the smaller index.

Pixel rows on the 1/255 byte grid (IDX images, the synthetic digits) are
compared exactly: `pixel_rows` tests the grid once per table build and
`pixel_dists` computes the integer squared distances of the bytes, so a tie
is an exact tie and no table depends on the BLAS build or its thread count.
Off the grid `pixel_dists` is `sq_dists` of float64 rows, and a tie means
equal computed distances: points equally far in exact arithmetic can compute
unequal distances, and then the smaller one wins.  On and off the grid, a pair's
distance is one computed number, used in both directions.  `sq_dists`
refuses non-finite distances, so no selection sees a NaN.

The table stays factored: row i holds anchor i's k targets and its
M = m * (c-1) impostors, n * (k + M) indices in all.  Its n * k * M rows
are that per-anchor cross product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import CapacityError, ConfigError, ConsistencyError, DivergenceError

# distance-block cells per step of `sq_dists` and `nearest`: bounds their temporaries
_CHUNK_CELLS = 1 << 20
# cells per step of the grid test: its two float64 temporaries stay at 1 MB
_GRID_CHUNK_CELLS = 1 << 17
# (2^24)^2: the bound on a grid row's squared norm, and on |a|^2 |b|^2 for a
# float32 Gram product, which is exact while |a| |b| < 2^24 because every
# partial sum of an integer dot product is at most |a| |b| in magnitude
_LIMIT_SQ = 2 ** 48


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
    np.maximum(d, 0.0, out=d)  # a NaN survives the clamp, so the max below sees it
    if not np.isfinite(d.max(initial=0.0)):
        raise DivergenceError("squared distances overflow: the features or codes "
                              "are too large to compare")
    return d


class PixelRows(NamedTuple):
    """Feature rows as `pixel_dists` reads them.  On the byte grid `rows`
    holds the grid integers, features * 255, as float32 and `norms` their
    exact int64 squared norms; off it `rows` is the features in float64 and
    `norms` is None."""

    rows: np.ndarray
    norms: np.ndarray | None

    def take(self, idx) -> PixelRows:
        return PixelRows(self.rows[idx], None if self.norms is None else self.norms[idx])


def _byte_grid(features: np.ndarray) -> PixelRows | None:
    """features on the byte grid, or None unless every feature lies on the
    1/255 grid (`rint(f * 255) / 255 == f`) and every row's grid integers
    have a squared norm below 2^48.  Then each integer fits float32, and
    every norm, dot product and distance (at most 4 * 2^48) is an integer
    that float64 holds exactly.  Scanned in row chunks; it stops at the
    first chunk that fails."""
    n, dim = features.shape
    rows = np.empty((n, dim), dtype=np.float32)
    norms = np.empty(n)
    step = max(1, _GRID_CHUNK_CELLS // max(1, dim))
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        f = features[chunk]
        with np.errstate(over="ignore", invalid="ignore"):  # huge rows fail below
            q = f * 255.0
            np.rint(q, out=q)
            if not (q / 255.0 == f).all():
                return None
            norms[chunk] = np.einsum("ij,ij->i", q, q)
        if norms[chunk].max(initial=0.0) >= _LIMIT_SQ:
            return None
        rows[chunk] = q
    return PixelRows(rows, norms.astype(np.int64))


def pixel_rows(*features: np.ndarray) -> list[PixelRows]:
    """Each array as `pixel_dists` reads it: all on the byte grid, or all in
    float64 when any one is off it.  This is the grid test, once per array."""
    grids = []
    for f in features:
        grid = _byte_grid(f)
        if grid is None:
            return [PixelRows(f.astype(np.float64, copy=False), None) for f in features]
        grids.append(grid)
    return grids


def pixel_dists(a: PixelRows, b: PixelRows) -> np.ndarray:
    """Squared distances between the rows of a and b, from `pixel_rows`.

    Off the grid this is `sq_dists`.  On it every value is the exact integer
    squared distance of the bytes, |a|^2 + |b|^2 - 2 a b^T in integers: int32
    while 2 (max|a|^2 + max|b|^2), which bounds every term and sum, is below
    2^31 (always, for rows of up to 8256 bytes in [0, 255]), else int64.  The
    Gram product a b^T is formed in float32 when max|a| max|b| < 2^24, where
    it is exact in any summation order, with or without FMA, and in float64
    otherwise, where every partial sum stays below 2^48.
    """
    if a.norms is None:
        return sq_dists(a.rows, b.rows)
    top_a, top_b = int(a.norms.max(initial=0)), int(b.norms.max(initial=0))
    if top_a * top_b < _LIMIT_SQ:
        gram = a.rows @ b.rows.T
    else:
        gram = a.rows.astype(np.float64) @ b.rows.T.astype(np.float64)
    d = gram.astype(np.int32 if 2 * (top_a + top_b) < 2 ** 31 else np.int64)
    d *= -2
    d += a.norms.astype(d.dtype)[:, None]
    d += b.norms.astype(d.dtype)
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


def target_neighbors(train: Dataset, k: int, pixels: PixelRows | None = None) -> np.ndarray:
    """The k nearest same-class points of every anchor, self excluded.

    Returns an (n, k) array of global indices, each row sorted ascending.
    `pixels` is `pixel_rows(train.features)` when the caller already has it.
    """
    check_capacity(train.labels, train.num_classes, k + 1, 0)
    if pixels is None:
        (pixels,) = pixel_rows(train.features)
    out = np.empty((len(train), k), dtype=np.int64)
    for cls in range(train.num_classes):
        idx = train.class_indices(cls)
        rows = pixels.take(idx)
        d = pixel_dists(rows, rows)
        # above every distance: int32 grid distances stay below 2^31 - 1
        np.fill_diagonal(d, np.iinfo(d.dtype).max if d.dtype.kind == "i" else np.inf)
        out[idx] = idx[nearest(d, k)]
    return out


def impostor_neighbors(train: Dataset, m: int, pixels: PixelRows | None = None) -> np.ndarray:
    """The m nearest points from each foreign class, per anchor.

    Returns an (n, m*(c-1)) array of global indices, rows sorted ascending.
    `pixels` is `pixel_rows(train.features)` when the caller already has it.
    Each unordered class pair gets one `pixel_dists` block, and both
    directions select from it and its transpose, on the byte grid and off
    it, so a pair's distance is one computed number in both directions.
    """
    check_capacity(train.labels, train.num_classes, 0, m)
    if pixels is None:
        (pixels,) = pixel_rows(train.features)
    c = train.num_classes
    per_class = [train.class_indices(cls) for cls in range(c)]
    out = np.empty((len(train), m * (c - 1)), dtype=np.int64)
    for a in range(c):
        anchors = pixels.take(per_class[a])
        for b in range(a + 1, c):
            d = pixel_dists(anchors, pixels.take(per_class[b]))
            # class b takes slot b - 1 of class a's rows, class a slot a of b's
            out[per_class[a], (b - 1) * m : b * m] = per_class[b][nearest(d, m)]
            out[per_class[b], a * m : (a + 1) * m] = per_class[a][nearest(d.T, m)]
    # each slot is ascending, but the classes' indices interleave
    out.sort(axis=1)
    return out


def build_triples(train: Dataset, cfg: NeighborConfig) -> TriplesTable:
    """Cross product, per anchor, of its targets and its impostors.

    Row order is anchor-major, then target index ascending, then impostor
    index ascending; the row count is n * k * (c-1) * m.  Class sizes are
    checked by `check_capacity` before any distance block is formed, and
    the byte-grid test runs once for both selections.
    """
    check_capacity(train.labels, train.num_classes, cfg.k + 1, cfg.m)
    (pixels,) = pixel_rows(train.features)
    return TriplesTable(target_neighbors(train, cfg.k, pixels),
                        impostor_neighbors(train, cfg.m, pixels))
