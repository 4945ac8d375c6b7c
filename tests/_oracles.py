"""Slow, obvious references that only the tests use.

`log_prob_visible` and `exact_log_likelihood` enumerate every joint
configuration of a tiny binary RBM, so they cost 2^(V+H) and suit machines
of a few units.  `triple_rows` expands a factored triples table into its
(T, 3) row array.
"""

import itertools

import numpy as np
from scipy.special import logsumexp


def _binary_configs(k: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=k)), dtype=np.float64)


def log_prob_visible(rbm, rows: np.ndarray) -> np.ndarray:
    """log p(v) for each row, by full enumeration of the joint distribution."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    vs = _binary_configs(rbm.num_visible)
    hs = _binary_configs(rbm.num_hidden)
    # -E over the full grid of (v, h) pairs
    neg_energy_all = vs @ rbm.weights @ hs.T + (vs @ rbm.visible_bias)[:, None] \
        + (hs @ rbm.hidden_bias)[None, :]
    log_z = logsumexp(neg_energy_all)
    neg_energy_rows = rows @ rbm.weights @ hs.T + (rows @ rbm.visible_bias)[:, None] \
        + (hs @ rbm.hidden_bias)[None, :]
    return logsumexp(neg_energy_rows, axis=1) - log_z


def exact_log_likelihood(rbm, rows: np.ndarray) -> float:
    """Mean log p(v) over the given rows."""
    return float(log_prob_visible(rbm, rows).mean())


def triple_rows(table) -> np.ndarray:
    """The table's (T, 3) rows (anchor, target, impostor): anchor-major, then
    target column, then impostor column."""
    n, k = table.targets.shape
    m = table.impostors.shape[1]
    return np.column_stack((
        np.repeat(np.arange(n, dtype=np.int64), k * m),
        np.repeat(table.targets, m, axis=1).ravel(),
        np.tile(table.impostors, (1, k)).ravel(),
    ))
