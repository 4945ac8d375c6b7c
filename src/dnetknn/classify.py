"""Classifiers: majority-vote kNN and minimum-energy labeling.

Both run one loop, `_predict`, which takes each chunk of test rows'
distances from `neighbors.pixel_dists`.  kNN passes it `pixel_rows`: rows on
the 1/255 byte grid (the pixel baseline) are compared in exact integers and
a tie is an exact tie; off it (codes of any dtype) they are compared in
float64 and a tie means equal computed distances.  Energy always passes
`float_rows`: float64, never grid units.  Either way each array's norms are
computed once, not once per chunk.  `neighbors.nearest` selects an
index-ordered set and kNN ranks its k, ties toward the smaller training
index.  kNN votes over the classes present (ids may be sparse) and breaks
vote ties toward the class of the nearest neighbor among the tied classes.
Energy classification hypothesizes each class in turn for the test point:
its k nearest codes of that class act as targets, its m nearest codes of
every other class act as impostors, and the smallest hinge-energy sum wins
(ties toward the smaller class id); `neighbors.check_capacity` refuses
classes too small for k and m.  Both search the rows given, codes or raw
pixels: a test point has no pixel-table row.  Each returns a `PREDICTION`
record array: one (label, score) per test point.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ConsistencyError, DimensionError
from .neighbors import (NeighborConfig, PixelRows, check_capacity, float_rows, nearest,
                        pixel_dists, pixel_rows)

_CHUNK_ROWS = 256

# score is the vote count for kNN and the negative energy for energy mode
PREDICTION = [("label", np.int64), ("score", np.float64)]


def _checked(train_codes, train_labels, test_codes):
    """Both classifiers' inputs as 2-D codes and int64 labels, checked."""
    train_codes = np.atleast_2d(np.asarray(train_codes))
    test_codes = np.atleast_2d(np.asarray(test_codes))
    train_labels = np.asarray(train_labels, dtype=np.int64)
    n = train_codes.shape[0]
    if n == 0:
        raise CapacityError("classification needs a nonempty training set")
    if train_labels.shape[0] != n:
        raise ConsistencyError(f"{train_labels.shape[0]} labels for {n} training codes")
    if train_labels.min() < 0:
        raise ConsistencyError("training labels must be class ids >= 0")
    if test_codes.shape[1] != train_codes.shape[1]:
        raise DimensionError(f"test codes have width {test_codes.shape[1]}, "
                             f"training codes {train_codes.shape[1]}")
    return train_codes, train_labels, test_codes


def _predict(train: PixelRows, test: PixelRows, rule) -> np.recarray:
    """One PREDICTION record per test row.  `rule` maps each chunk's
    `pixel_dists` block (test rows by training rows) to its (labels, scores)."""
    predictions = np.recarray(test.rows.shape[0], dtype=PREDICTION)
    for start in range(0, len(predictions), _CHUNK_ROWS):
        chunk = slice(start, start + _CHUNK_ROWS)
        dists = pixel_dists(test.take(chunk), train)
        predictions.label[chunk], predictions.score[chunk] = rule(dists)
    return predictions


def check_k(k: int, n: int) -> None:
    """kNN's one bound: k votes need 1 <= k <= n training points."""
    if not 1 <= k <= n:
        raise CapacityError(f"k={k} must lie in [1, {n}]")


def knn_predict(train_codes: np.ndarray, train_labels: np.ndarray,
                test_codes: np.ndarray, k: int) -> np.recarray:
    """Majority vote among the k nearest training codes of each test code."""
    train_codes, train_labels, test_codes = _checked(train_codes, train_labels, test_codes)
    check_k(k, train_codes.shape[0])
    classes, dense = np.unique(train_labels, return_inverse=True)

    def vote(dists):
        chosen = nearest(dists, k)  # (B, k) column sets; rank them nearest first
        order = np.argsort(np.take_along_axis(dists, chosen, axis=1), axis=1, kind="stable")
        labels = dense[np.take_along_axis(chosen, order, axis=1)]
        rows = np.arange(labels.shape[0])
        votes = np.zeros((rows.size, classes.size), dtype=np.int64)
        np.add.at(votes, (rows[:, None], labels), 1)
        counts = votes[rows[:, None], labels]  # the votes of each neighbor's class
        first = counts.argmax(axis=1)  # nearest neighbor among the top-voted classes
        return classes[labels[rows, first]], counts[rows, first]

    # the byte-grid test, once per array of this call
    return _predict(*pixel_rows(train_codes, test_codes), vote)


def energy_predict_all(train_codes, train_labels, test_codes,
                       cfg: NeighborConfig) -> np.recarray:
    """Label each row of test_codes by the hypothesized class of lowest energy."""
    train_codes, train_labels, test_codes = _checked(train_codes, train_labels, test_codes)
    num_classes = int(train_labels.max()) + 1
    # a test point is no member of its hypothesized class: k targets, not k + 1
    check_capacity(train_labels, num_classes, cfg.k, cfg.m)
    need = max(cfg.k, cfg.m)
    per_class = [np.flatnonzero(train_labels == cls) for cls in range(num_classes)]

    def lowest_energy(dists):
        # (B, c, need): each class's smallest distances, ascending
        near = np.stack([np.sort(np.partition(dists[:, i], need - 1, axis=1)[:, :need], axis=1)
                         for i in per_class], axis=1)
        energies = np.empty((near.shape[0], num_classes))
        for hyp in range(num_classes):
            target_d = near[:, hyp, : cfg.k]
            impostor_d = np.delete(near[:, :, : cfg.m], hyp, axis=1).reshape(near.shape[0], -1)
            terms = 1.0 + target_d[:, :, None] - impostor_d[:, None, :]
            energies[:, hyp] = np.maximum(terms, 0.0).sum(axis=(1, 2))
        labels = energies.argmin(axis=1)  # argmin takes the smaller class id on ties
        return labels, -energies[np.arange(labels.size), labels]

    # float64, never grid units: they would scale the hinge's distances by 255^2
    return _predict(float_rows(train_codes), float_rows(test_codes), lowest_energy)


def error_rate(predictions: np.recarray, true_labels) -> float:
    """Fraction of predictions whose label differs from the truth."""
    truth = np.asarray(true_labels, dtype=np.int64)
    if predictions.shape != truth.shape:
        raise ConsistencyError(
            f"{len(predictions)} predictions vs {truth.shape[0]} labels"
        )
    if truth.size == 0:
        raise CapacityError("an error rate needs at least one prediction")
    return float((predictions.label != truth).mean())


def save_predictions(path, predictions, true_labels, header: bool = False) -> None:
    """CSV export: index,true_label,predicted_label,score."""
    truth = np.asarray(true_labels, dtype=np.int64)
    if len(predictions) != truth.shape[0]:
        raise ConsistencyError(
            f"{len(predictions)} predictions vs {truth.shape[0]} labels"
        )
    with open(path, "w") as f:
        if header:
            f.write("index,true_label,predicted_label,score\n")
        for idx, (true, label, score) in enumerate(zip(
                truth.tolist(), predictions.label.tolist(), predictions.score.tolist())):
            f.write(f"{idx},{true},{label},{score:.17g}\n")
