"""Large-margin triplet objective over code vectors and its gradients.

For every table row (i, l, j) the objective adds

    hinge(1 + ||y_i - y_l||^2 - ||y_i - y_j||^2)

where y = f(x) are the code vectors.  The margin constant is fixed at 1 and
the loss is a raw sum (no normalization by row count), so its scale grows
with the table.  Rows whose hinge argument is <= 0 are inactive and
contribute nothing to the value or the gradient; the sub-gradient at the
kink is taken as 0.

The table is never expanded into rows.  A pass walks it in fixed-size
anchor chunks, evaluates each anchor's (k,) target and (M,) impostor
squared distances once, and broadcasts them into the (k, M) block of hinge
arguments.  Each active row contributes three updates to the code
gradient, which is algebraically the per-point pull/push sum:

    row i += 2 (y_i - y_l) - 2 (y_i - y_j)
    row l -= 2 (y_i - y_l)
    row j += 2 (y_i - y_j)

so each (anchor, target) pair is weighted by its active impostors and each
(anchor, impostor) pair by its active targets.  The scatter is a
graph-Laplacian product over those signed pair weights, which keeps the
whole pass vectorized and reproducible.

The gradient entry points return the value and a function that computes the
gradient from the same pass, so testing a point never pays for the scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .encoder import EncoderParams, backward, flatten_gradients, forward_with_cache
from .errors import ConsistencyError
from .neighbors import TriplesTable


@dataclass(frozen=True)
class MarginLoss:
    """Sum of hinge terms plus the number of margin-violating rows."""

    value: float
    active_triples: int


# rows per hinge block; bounds the working set of a pass to a few MB
_CHUNK_ROWS = 1 << 16


def _check_indices(codes: np.ndarray, table: TriplesTable) -> None:
    for indices in (table.anchors, table.targets, table.impostors):
        if indices.size and (indices.min() < 0 or indices.max() >= codes.shape[0]):
            raise ConsistencyError(
                f"triple indices must lie in [0, {codes.shape[0]}), "
                f"found range [{indices.min()}, {indices.max()}]"
            )


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    return (diff * diff).sum(axis=-1)


def _scatter_pair_grad(grad: np.ndarray, codes: np.ndarray, a: np.ndarray,
                       b: np.ndarray, weights: np.ndarray) -> None:
    """Add 2 * w * [(y_a - y_b) into row a, (y_b - y_a) into row b] per pair."""
    n = codes.shape[0]
    w = sparse.csr_matrix((weights.astype(np.float64), (a, b)), shape=(n, n))
    deg = np.asarray(w.sum(axis=1)).ravel() + np.asarray(w.sum(axis=0)).ravel()
    grad += 2.0 * (deg[:, None] * codes - w @ codes - w.T @ codes)


def _hinge_pass(codes: np.ndarray, table: TriplesTable,
                target_w: np.ndarray | None = None,
                impostor_w: np.ndarray | None = None) -> MarginLoss:
    """Value and active-row count, scanned in anchor chunks.  When given,
    target_w (A, k) and impostor_w (A, M) receive each pair's active rows."""
    _check_indices(codes, table)
    value, active = 0.0, 0
    step = max(1, _CHUNK_ROWS // max(1, table.targets.shape[1] * table.impostors.shape[1]))
    for start in range(0, table.anchors.shape[0], step):
        chunk = slice(start, start + step)
        anchor = codes[table.anchors[chunk]][:, None, :]
        d_target = _sq_norms(codes[table.targets[chunk]] - anchor)
        d_impostor = _sq_norms(codes[table.impostors[chunk]] - anchor)
        z = 1.0 + d_target[:, :, None] - d_impostor[:, None, :]
        viol = z > 0.0
        value += float(z.sum(dtype=np.float64, where=viol))
        active += int(np.count_nonzero(viol))
        if target_w is not None:
            target_w[chunk] = np.count_nonzero(viol, axis=2)
            impostor_w[chunk] = np.count_nonzero(viol, axis=1)
    return MarginLoss(value, active)


def loss(codes: np.ndarray, table: TriplesTable) -> MarginLoss:
    """Objective value and active-row count without the gradient."""
    return _hinge_pass(np.atleast_2d(np.asarray(codes)), table)


def loss_and_code_grad(codes: np.ndarray,
                       table: TriplesTable) -> tuple[MarginLoss, Callable]:
    """Objective value plus a function of no arguments that returns its
    gradient with respect to every code row by scattering this call's
    per-pair active counts; it repeats no hinge pass."""
    codes = np.atleast_2d(np.asarray(codes))
    target_w = np.empty(table.targets.shape, dtype=np.int64)
    impostor_w = np.empty(table.impostors.shape, dtype=np.int64)
    result = _hinge_pass(codes, table, target_w, impostor_w)

    def gradient() -> np.ndarray:
        grad = np.zeros_like(codes)
        if result.active_triples:
            for others, weights in ((table.targets, target_w), (table.impostors, -impostor_w)):
                used = weights != 0
                anchors = np.broadcast_to(table.anchors[:, None], others.shape)
                _scatter_pair_grad(grad, codes, anchors[used], others[used], weights[used])
        return grad
    return result, gradient


def loss_and_param_grad(params: EncoderParams, batch: np.ndarray,
                        table: TriplesTable) -> tuple[MarginLoss, Callable]:
    """Objective on forward(params, batch) plus a function of no arguments
    that returns the flattened parameter gradient, lined up with
    encoder.flatten(params).  It reuses this call's activations and hinge
    pass, so it runs only the scatter and `backward`."""
    codes, cache = forward_with_cache(params, batch)
    result, code_grad = loss_and_code_grad(codes, table)
    return result, lambda: flatten_gradients(backward(params, cache, code_grad()))
