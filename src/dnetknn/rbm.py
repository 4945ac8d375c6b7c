"""Restricted Boltzmann machines: one-step contrastive divergence training
and greedy stacking.

The model is binary-binary: real-valued inputs in [0, 1] are treated as
Bernoulli probabilities on the visible units.  The one-step sampling policy
is fixed: the data-phase hidden states are sampled binary; the reconstructed
visible layer and the reconstruction-phase hidden layer both use
probabilities.  Each mini-batch updates the weights by momentum

    V_W = momentum * V_W + lr * (<v h>_data - <v h>_recon - weight_decay * W)
    W   = W + V_W

with the analogous probability-difference updates for both bias vectors
(no decay on biases).  A step runs `hidden_given_visible` twice and
`visible_given_hidden` once, the conditionals the tests check against an
enumerated joint distribution, then updates the machine's arrays in place;
it allocates nothing weight-sized.

Every logistic unit goes through `sigmoid`, which evaluates 1/(1+exp(-z))
with numpy ufuncs, in place when asked.  It saturates to exactly 0 and 1
without an overflow warning, and stays within 4 ulp of scipy's `expit`,
which the tests keep as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, all_finite
from .errors import ConfigError, ConsistencyError, DimensionError, DivergenceError

WEIGHT_SCALE = 0.01  # std of the initial weights
MOMENTUM_SWITCH_EPOCH = 5  # epochs trained at initial_momentum before momentum


def sigmoid(z, out=None):
    """Logistic function 1/(1+exp(-z)), written to `out` when given.

    `out` may be `z` itself.  Non-float input is promoted to float64.  For
    large |z|, exp(-z) overflows to inf or underflows to 0, so the result
    saturates to exactly 0 or 1; the overflow is expected and not warned
    about.  Agrees with scipy.special.expit to within 4 ulp.  A scalar
    argument gives a Python float.
    """
    z = np.asarray(z)
    if not np.issubdtype(z.dtype, np.floating):
        z = z.astype(np.float64)
    if out is None:
        out = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.negative(z, out=out)
        np.exp(out, out=out)
        out += 1
        np.reciprocal(out, out=out)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Rbm:
    """Weights (num_visible x num_hidden) plus visible and hidden biases."""

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray

    def __post_init__(self):
        w, b, c = self.weights, self.visible_bias, self.hidden_bias
        if w.ndim != 2 or b.ndim != 1 or c.ndim != 1:
            raise DimensionError("weights must be a matrix and biases vectors")
        if b.shape[0] != w.shape[0] or c.shape[0] != w.shape[1]:
            raise DimensionError(
                f"bias lengths {b.shape[0]}/{c.shape[0]} do not match "
                f"weight shape {w.shape}"
            )
        if not (all_finite(w) and all_finite(b) and all_finite(c)):
            raise DivergenceError("rbm parameters contain non-finite values")

    @property
    def num_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def num_hidden(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class CdConfig:
    """Hyperparameters for contrastive-divergence training.

    Momentum follows the usual pretraining schedule: initial_momentum for
    the first MOMENTUM_SWITCH_EPOCH epochs, then momentum.
    """

    learning_rate: float = 0.1
    momentum: float = 0.9
    initial_momentum: float = 0.5
    weight_decay: float = 2e-4
    epochs: int = 10
    mini_batch: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and nonnegative")
        if not (0 <= self.momentum < 1 and 0 <= self.initial_momentum < 1):
            raise ConfigError("momentum values must lie in [0, 1)")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError("weight_decay must be finite and nonnegative")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.mini_batch < 1:
            raise ConfigError("mini_batch must be >= 1")


def init_rbm(num_visible: int, num_hidden: int, rng: np.random.Generator,
             dtype=np.float64) -> Rbm:
    """Zero-mean Gaussian weights (std WEIGHT_SCALE), zero biases."""
    w = (rng.standard_normal((num_visible, num_hidden)) * WEIGHT_SCALE).astype(dtype)
    return Rbm(w, np.zeros(num_visible, dtype), np.zeros(num_hidden, dtype))


def hidden_given_visible(rbm: Rbm, v: np.ndarray) -> np.ndarray:
    """p(h_j = 1 | v) for a single vector or a batch of rows."""
    v = np.asarray(v)
    if v.shape[-1] != rbm.num_visible:
        raise DimensionError(
            f"visible width {v.shape[-1]} != {rbm.num_visible}"
        )
    z = v @ rbm.weights
    z += rbm.hidden_bias
    return sigmoid(z, out=z)


def visible_given_hidden(rbm: Rbm, h: np.ndarray) -> np.ndarray:
    """p(v_i = 1 | h) for a single vector or a batch of rows."""
    h = np.asarray(h)
    if h.shape[-1] != rbm.num_hidden:
        raise DimensionError(
            f"hidden width {h.shape[-1]} != {rbm.num_hidden}"
        )
    z = h @ rbm.weights.T
    z += rbm.visible_bias
    return sigmoid(z, out=z)


def train_rbm(data: np.ndarray, num_hidden: int, cfg: CdConfig,
              rng: np.random.Generator | None = None) -> tuple[Rbm, list[float]]:
    """Train a single machine with CD-1 over shuffled mini-batches.

    Each mini-batch consumes exactly one rng.random draw of shape (rows,
    num_hidden), which binarizes the data-phase hidden layer.  Returns the
    machine it updated in place and the per-epoch mean squared
    reconstruction error.
    """
    data = np.asarray(data)
    if not np.issubdtype(data.dtype, np.floating):
        data = data.astype(np.float64)
    if data.ndim != 2:
        raise DimensionError("training data must be a 2-D matrix")
    if data.shape[0] == 0:
        raise ConsistencyError("rbm training needs at least one row")
    if data.size and (data.min() < 0 or data.max() > 1):
        raise ConsistencyError("rbm training data must lie in [0, 1]")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n, num_visible = data.shape
    rbm = init_rbm(num_visible, num_hidden, rng, dtype=data.dtype)
    w, b, c = rbm.weights, rbm.visible_bias, rbm.hidden_bias
    vel_w, vel_b, vel_c = np.zeros_like(w), np.zeros_like(b), np.zeros_like(c)
    gw, scratch = np.empty_like(w), np.empty_like(w)
    lr, decay = cfg.learning_rate, cfg.weight_decay
    history = []
    for epoch in range(cfg.epochs):
        mom = cfg.initial_momentum if epoch < MOMENTUM_SWITCH_EPOCH else cfg.momentum
        order = rng.permutation(n)
        errs = []
        for start in range(0, n, cfg.mini_batch):
            batch = data[order[start : start + cfg.mini_batch]]
            ph0 = hidden_given_visible(rbm, batch)
            h0 = (rng.random(ph0.shape) < ph0).astype(data.dtype)
            pv1 = visible_given_hidden(rbm, h0)
            ph1 = hidden_given_visible(rbm, pv1)
            np.matmul(batch.T, h0, out=gw)
            gw -= np.matmul(pv1.T, ph1, out=scratch)
            gw /= batch.shape[0]
            diff = np.subtract(batch, pv1, out=pv1)
            gb = diff.mean(axis=0)
            gc = np.subtract(h0, ph1, out=h0).mean(axis=0)
            errs.append(float(np.square(diff, out=diff).mean()))
            gw -= np.multiply(decay, w, out=scratch)
            for param, vel, grad in ((w, vel_w, gw), (b, vel_b, gb), (c, vel_c, gc)):
                grad *= lr  # V = mom * V + lr * grad, then param += V
                vel *= mom
                vel += grad
                param += vel
        if not (all_finite(w) and all_finite(b) and all_finite(c)):
            raise DivergenceError(f"rbm training diverged in epoch {epoch}")
        history.append(float(np.mean(errs)))
    return rbm, history


def train_stack(data: Dataset, layer_sizes, cfg: CdConfig, dtype=None) -> list[Rbm]:
    """Greedy layer-by-layer pretraining.

    Machine t is trained on the hidden activation probabilities of machine
    t-1 applied to the data; the raw features feed the first machine.
    Computation runs in the requested dtype (default: the data's own).
    """
    layer_sizes = list(layer_sizes)
    if len(layer_sizes) < 2:
        raise ConfigError("layer_sizes needs at least an input and an output width")
    if layer_sizes[0] != data.dim:
        raise DimensionError(
            f"layer_sizes[0]={layer_sizes[0]} does not match data dim {data.dim}"
        )
    rng = np.random.default_rng(cfg.seed)
    activations = data.features
    if dtype is not None:
        activations = activations.astype(dtype, copy=False)
    stack = []
    for num_hidden in layer_sizes[1:]:
        if stack:
            activations = hidden_given_visible(stack[-1], activations)
        machine, _ = train_rbm(activations, num_hidden, cfg, rng)
        stack.append(machine)
    return stack
