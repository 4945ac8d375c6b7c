"""Labeled vector datasets: IDX and CSV ingestion, splitting, batching.

The IDX reader/writer follows the public MNIST layout bit for bit:
big-endian 32-bit magic (2051 for images, 2049 for labels), big-endian
dimension sizes, unsigned-byte payload.  The CSV fallback is header-free
with an integer label in the first column and D real features after it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, ConsistencyError, FormatError

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
# features per chunk of save_idx's rounding: an 8 MB float64 temporary
_CHUNK_CELLS = 1 << 20


def all_finite(x: np.ndarray) -> bool:
    """Whether x holds no NaN or infinity, found without a mask over x: either
    one reaches its `min` or its `max`."""
    return x.size == 0 or bool(np.isfinite(x.min()) and np.isfinite(x.max()))


@dataclass(frozen=True)
class SplitSpec:
    """Per-class train/test counts, optionally preceded by a seeded shuffle."""

    per_class_train: int
    per_class_test: int
    shuffle_seed: int | None = None

    def __post_init__(self):
        if self.per_class_train < 0 or self.per_class_test < 0:
            raise ConfigError("split counts must be nonnegative")


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of labeled feature vectors.

    ``features`` is an (n, dim) float array, ``labels`` an (n,) integer array
    with every value in [0, num_classes).  Instances are treated as immutable
    after construction; the arrays are exposed as read-only views.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ConsistencyError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ConsistencyError(
                f"{labs.shape[0] if labs.ndim == 1 else labs.shape} labels "
                f"for {feats.shape[0]} feature rows"
            )
        if not all_finite(feats):
            raise ConsistencyError("features contain non-finite values")
        if self.num_classes < 1:
            raise ConsistencyError("num_classes must be positive")
        if labs.size and (labs.min() < 0 or labs.max() >= self.num_classes):
            raise ConsistencyError(
                f"labels must lie in [0, {self.num_classes}), "
                f"found range [{labs.min()}, {labs.max()}]"
            )
        feats = feats.view()
        feats.setflags(write=False)
        labs = labs.view()
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "Dataset":
        """New Dataset holding the given rows; num_classes is preserved."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


def _read_idx(path, magic: int, kind: str, dims: int) -> tuple[list[int], bytes]:
    """The `dims` sizes and the payload of an IDX file, after checking the
    header's length, its magic and that the payload holds their product."""
    size = 4 * (dims + 1)
    with open(path, "rb") as f:
        header = f.read(size)
        if len(header) < size:
            raise FormatError(f"{path}: {kind} header shorter than {size} bytes")
        found, *sizes = struct.unpack(f">{dims + 1}I", header)
        if found != magic:
            raise FormatError(f"{path}: bad {kind} magic {found} (expected {magic})")
        payload = f.read()
    expected = math.prod(sizes)  # Python ints: a product of 32-bit sizes cannot wrap
    if len(payload) != expected:
        raise ConsistencyError(
            f"{path}: payload holds {len(payload)} bytes, header promises {expected}"
        )
    return sizes, payload


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label file pair into a Dataset.

    Pixel bytes are scaled by 1/255 so features land in [0, 1].  Row order
    is preserved from the files.
    """
    (count, rows, cols), payload = _read_idx(images_path, IMAGE_MAGIC, "image", 3)
    (label_count,), label_payload = _read_idx(labels_path, LABEL_MAGIC, "label", 1)
    if label_count != count:
        raise ConsistencyError(
            f"image file has {count} items but label file has {label_count}"
        )

    features = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    del payload  # freed before Dataset's finiteness check makes a mask of its size
    features /= 255.0
    labels = np.frombuffer(label_payload, dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if count else 1
    return Dataset(features.reshape(count, rows * cols), labels, num_classes)


def save_idx(data: Dataset, images_path, labels_path) -> None:
    """Write a Dataset as an IDX pair of square images (inverse of
    :func:`load_idx`).

    Features are scaled back by 255 and rounded to bytes, so the round trip
    is exact only for data that originated as 8-bit pixels.  The feature
    length must be a perfect square and every label must fit in a byte.
    """
    n = len(data)
    side = int(round(data.dim ** 0.5))
    if side * side != data.dim:
        raise ConfigError(f"feature length {data.dim} is not square")
    if n and data.labels.max() > 255:
        raise ConfigError(f"label {data.labels.max()} does not fit in an IDX label byte")
    pixels = np.empty((n, data.dim), dtype=np.uint8)
    step = max(1, _CHUNK_CELLS // max(1, data.dim))
    for start in range(0, n, step):
        scaled = data.features[start : start + step] * 255.0
        np.round(scaled, out=scaled)
        pixels[start : start + step] = np.clip(scaled, 0, 255, out=scaled)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, side, side))
        f.write(pixels)
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, n))
        f.write(data.labels.astype(np.uint8))


def load_csv(path) -> Dataset:
    """Read a header-free CSV with an integer label column followed by features."""
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: not parseable as numeric CSV: {exc}") from exc
    if table.size == 0:
        raise FormatError(f"{path}: empty CSV")
    if table.shape[1] < 2:
        raise FormatError(f"{path}: need a label column plus at least one feature")
    raw_labels = table[:, 0]
    # before the cast, which has no value (and warns) for nan, inf or |x| >= 2**63
    if not np.all((raw_labels == np.floor(raw_labels)) & (np.abs(raw_labels) < 2.0**63)):
        raise FormatError(f"{path}: first column must hold integer labels")
    labels = raw_labels.astype(np.int64)
    if labels.min() < 0:
        raise FormatError(f"{path}: labels must be nonnegative")
    features = np.ascontiguousarray(table[:, 1:])
    return Dataset(features, labels, int(labels.max()) + 1)


def save_csv(data: Dataset, path) -> None:
    """Write a Dataset in the CSV fallback layout (label, then features)."""
    with open(path, "w") as f:
        for row, label in zip(data.features, data.labels):
            f.write("%d,%s\n" % (label, ",".join("%.17g" % v for v in row)))


def fixed_split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split per class: the first per_class_train examples of each class go to
    train, the next per_class_test to test.

    Without a seed, per-class order of appearance is used; with a seed, a
    seeded per-class shuffle precedes the split, so the same seed always
    reproduces the same split.
    """
    rng = None
    if spec.shuffle_seed is not None:
        rng = np.random.default_rng(spec.shuffle_seed)
    need = spec.per_class_train + spec.per_class_test
    if need == 0:  # nothing to take, so no class id is visited (ids may be sparse)
        empty = data.subset([])
        return empty, empty
    train_parts, test_parts = [], []
    for cls in range(data.num_classes):
        idx = data.class_indices(cls)
        if idx.size < need:
            raise CapacityError(
                f"class {cls} has {idx.size} examples, "
                f"need {need} for the requested split"
            )
        if rng is not None:
            idx = rng.permutation(idx)
        train_parts.append(idx[: spec.per_class_train])
        test_parts.append(idx[spec.per_class_train : need])
    return data.subset(np.concatenate(train_parts)), data.subset(np.concatenate(test_parts))


def make_batches(labels: np.ndarray, batch_size: int, seed: int) -> list[np.ndarray]:
    """Seeded class-stratified partition of range(len(labels)) into
    max(1, n // batch_size) sorted index batches.

    Each class's members are shuffled with the seed, the classes are laid
    end to end in class order and dealt round-robin.  So the remainder is
    folded in (sizes differ by at most 1, none below batch_size unless
    batch_size > n), and each batch's class counts depend on the class sizes
    alone, never on the seed.  With batch_size >= n the one batch is arange(n).
    """
    perm = np.random.default_rng(seed).permutation(len(labels))
    order = perm[np.argsort(labels[perm], kind="stable")]
    num_batches = max(1, len(labels) // batch_size)
    return [np.sort(order[b::num_batches]) for b in range(num_batches)]
