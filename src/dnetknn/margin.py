"""Large-margin triplet objective over code vectors and its gradients.

For every table row (i, l, j) the objective adds

    hinge(1 + ||y_i - y_l||^2 - ||y_i - y_j||^2)

where y = f(x) are the code vectors.  The margin constant is fixed at 1 and
the loss is a raw sum (no normalization by row count), so its scale grows
with the table.  Rows whose hinge argument is <= 0 are inactive and
contribute nothing to the value or the gradient; the sub-gradient at the
kink is taken as 0.

The table comes from `neighbors`, where a neighbor tie is exact on the
1/255 byte grid and off it means equal computed distances.  It is never
expanded into rows.  A pass walks it in fixed-size anchor chunks, evaluates
each anchor's (k,) target and (M,) impostor squared distances once (each
gathered block less its anchor, in place, reduced by one fused square-sum),
and broadcasts them into the (k, M) block of hinge arguments, clamped at 0
in place.  Each active row contributes three updates to the code
gradient, which is algebraically the per-point pull/push sum:

    row i += 2 (y_i - y_l) - 2 (y_i - y_j)
    row l -= 2 (y_i - y_l)
    row j += 2 (y_i - y_j)

so each (anchor, target) pair is weighted by its active impostors and each
(anchor, impostor) pair by its active targets.  The scatter is a
graph-Laplacian product over those signed pair weights, which keeps the
whole pass vectorized and reproducible.  Row i of the table is anchor i, so
the weights of each neighbor kind form a CSR matrix straight from the
table's rows.

The gradient entry points return the value and a function that computes the
gradient from the same pass, so testing a point never pays for the scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .encoder import EncoderParams, backward, forward_with_cache
from .errors import ConsistencyError
from .neighbors import TriplesTable


@dataclass(frozen=True)
class MarginLoss:
    """Sum of hinge terms plus the number of margin-violating rows; its float
    is the value, so CG can minimize it as it is."""

    value: float
    active_triples: int

    def __float__(self) -> float:
        return self.value


# rows per hinge block; bounds the working set of a pass to a few MB
_CHUNK_ROWS = 1 << 16


def _sq_dists_to(codes: np.ndarray, neighbors: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """(a, r) squared distances from each anchor row to its r neighbor codes:
    the gathered block has the anchor subtracted in place, then one fused
    square-sum reduces it."""
    diff = codes[neighbors]
    diff -= anchor
    return np.einsum("amd,amd->am", diff, diff)


def _hinge_pass(codes: np.ndarray, table: TriplesTable,
                target_w: np.ndarray | None = None,
                impostor_w: np.ndarray | None = None) -> MarginLoss:
    """Value and active-row count, scanned in anchor chunks.  When given,
    target_w (n, k) and impostor_w (n, M) receive each pair's active rows."""
    n, k = table.targets.shape
    if codes.shape[0] != n:
        raise ConsistencyError(f"{codes.shape[0]} code rows for a table of {n} anchors")
    value, active = 0.0, 0
    step = max(1, _CHUNK_ROWS // max(1, k * table.impostors.shape[1]))
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        anchor = codes[chunk][:, None, :]
        d_target = _sq_dists_to(codes, table.targets[chunk], anchor)
        d_impostor = _sq_dists_to(codes, table.impostors[chunk], anchor)
        z = 1.0 + d_target[:, :, None] - d_impostor[:, None, :]
        viol = z > 0.0
        # clamped rows add 0, as masked-out rows would
        value += float(np.maximum(z, 0.0, out=z).sum(dtype=np.float64))
        if target_w is None:
            active += int(np.count_nonzero(viol))
        else:
            # integer sums over the mask's bytes: 0 or 1 each, so a count
            # is at most M and int32 holds it
            ones = viol.view(np.uint8)
            target_w[chunk] = ones.sum(axis=2, dtype=np.int32)
            impostor_w[chunk] = ones.sum(axis=1, dtype=np.int32)
            active += int(target_w[chunk].sum())
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
    target_w = np.empty(table.targets.shape, dtype=np.int32)
    impostor_w = np.empty(table.impostors.shape, dtype=np.int32)
    result = _hinge_pass(codes, table, target_w, impostor_w)

    def gradient() -> np.ndarray:
        grad = np.zeros_like(codes)
        if result.active_triples:
            n = codes.shape[0]
            for others, weights in ((table.targets, target_w), (table.impostors, -impostor_w)):
                used = weights != 0
                indptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(np.count_nonzero(used, axis=1), out=indptr[1:])
                w = sparse.csr_matrix((weights[used].astype(np.float64), others[used], indptr),
                                      shape=(n, n))
                # 2 w_ab [(y_a - y_b) into row a, (y_b - y_a) into row b] per pair
                deg = np.asarray(w.sum(axis=1)).ravel() + np.asarray(w.sum(axis=0)).ravel()
                grad += 2.0 * (deg[:, None] * codes - w @ codes - w.T @ codes)
        return grad
    return result, gradient


def loss_and_param_grad(params: EncoderParams, batch: np.ndarray,
                        table: TriplesTable) -> tuple[MarginLoss, Callable]:
    """Objective on forward(params, batch) plus a function of no arguments
    that returns the parameter gradient, lined up with `params.vector`.  It
    reuses this call's activations and hinge pass, so it runs only the
    scatter and `backward`."""
    codes, acts = forward_with_cache(params, batch)
    result, code_grad = loss_and_code_grad(codes, table)
    return result, lambda: backward(params, acts, code_grad())
