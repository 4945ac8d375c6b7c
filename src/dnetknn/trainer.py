"""Fine-tuning driver: mini-batch scheduling and nonlinear conjugate-gradient
minimization of the margin objective through the encoder.  CG moves the
encoder's parameter vector itself; each trial point is wrapped, not copied,
as `EncoderParams(widths, vector)`.

Each epoch deals the training set into class-stratified batches with a
derived seed (seed + epoch), rebuilds the neighbor triples inside every batch
(one batch reuses the full set's table), and runs a fixed number of
Polak-Ribiere line searches per batch.  A backtracking (Armijo) line search
accepts only steps that decrease the batch loss and records the exact value
it accepted, so the recorded batch loss never increases.  The returned
parameters are the best-so-far by full-training-set loss, measured at the
end of every epoch against a triples table built once over the whole set;
with one batch that is CG's own evaluation at the point it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import margin
from .dataset import Dataset, all_finite, make_batches
from .encoder import EncoderParams, forward
from .errors import CapacityError, ConfigError, DimensionError, DivergenceError
from .neighbors import NeighborConfig, build_triples, check_capacity

ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
MAX_BACKTRACKS = 30  # step halvings per line search before it gives up


@dataclass(frozen=True)
class TrainConfig:
    layer_sizes: tuple[int, ...]
    k: int = 5
    m: int = 30
    batch_size: int = 10000
    epochs: int = 10
    cg_line_searches: int = 3
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ConfigError("layer_sizes needs at least an input and an output width")
        self.neighbor_config  # raises ConfigError unless k and m are >= 1
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.cg_line_searches < 1:
            raise ConfigError("cg_line_searches must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def neighbor_config(self) -> NeighborConfig:
        return NeighborConfig(self.k, self.m)


@dataclass
class EpochStats:
    loss: float
    active_triples: int
    seconds: float


@dataclass
class TrainReport:
    """Per-epoch training trajectory; one line per epoch when serialized."""

    epochs: list[EpochStats] = field(default_factory=list)

    @property
    def losses(self) -> list[float]:
        return [e.loss for e in self.epochs]

    def save(self, path) -> None:
        with open(path, "w") as f:
            for idx, e in enumerate(self.epochs):
                f.write(f"{idx},{e.loss:.17g},{e.active_triples},{e.seconds:.3f}\n")


def polak_ribiere_minimize(objective, x0: np.ndarray,
                           line_searches: int) -> tuple[np.ndarray, list]:
    """Nonlinear conjugate gradient with PR+ direction updates.

    objective(x) -> (result, gradient_fn): float(result) is the value at x
    and gradient_fn() the gradient there.  Each line search backtracks from
    an adaptive initial step until the Armijo condition holds.  Every trial
    point is a new array, evaluated once, in x0's dtype; no point, x0
    included, is ever written into.  gradient_fn runs only at x0 and at
    accepted points, and is dropped once it has returned.  Beside the
    objective's own arrays, CG holds at most five parameter-sized vectors:
    the point, a trial point or the new gradient, the gradient, the
    direction, and g_new - g for beta.  A trial point is formed in the
    scaled direction's buffer, and the direction is updated in place.
    Returns the final point, the very array objective evaluated there, and
    the results [at x0, after each accepted step]: the last is the result
    at the returned point.  Their values never increase.
    """
    x = x0
    result, gradient = objective(x)
    f0 = float(result)
    g = gradient()
    if not (np.isfinite(f0) and all_finite(g)):
        raise DivergenceError("objective is non-finite at the starting point")
    trajectory = [result]
    direction = -g
    gnorm2 = float(g @ g)
    step = 1.0 / max(1.0, float(np.sqrt(gnorm2)))
    for _ in range(line_searches):
        slope = float(g @ direction)
        if slope >= 0.0:  # lost conjugacy; restart on steepest descent
            direction = -g
            slope = -gnorm2
        alpha = step
        accepted = False
        resolution = 1e-12 * (1.0 + abs(f0))
        for _ in range(MAX_BACKTRACKS):
            if alpha * (-slope) < resolution:
                break  # the demanded decrease is below float resolution of f
            gradient = None  # hold one point's evaluation at a time
            x_try = alpha * direction
            if x_try.dtype == np.result_type(x_try, x):
                x_try += x
            else:  # a gradient narrower than the point: the sum takes x's dtype
                x_try = x + x_try
            result_try, gradient = objective(x_try)
            f_try = float(result_try)
            if np.isfinite(f_try) and f_try <= f0 + ARMIJO * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            direction = -g  # try fresh steepest descent next time
            step = max(step * 0.25, 1e-20)
            trajectory.append(result)
            continue
        x, f0, result = x_try, f_try, result_try
        step = 2.0 * alpha
        g_new = gradient()
        gradient = None  # frees the point's evaluation before the vector updates
        if not all_finite(g_new):
            raise DivergenceError("objective became non-finite after a step")
        beta = max(0.0, float(g_new @ (g_new - g)) / gnorm2)
        direction *= beta  # direction is -g or CG's own update of it
        direction -= g_new
        g = g_new
        gnorm2 = float(g @ g)
        trajectory.append(result)
    return x, trajectory


def _check_batch_capacity(train: Dataset, batches: list[np.ndarray],
                          cfg: TrainConfig) -> None:
    """Refuse a partition whose batches cannot all hold a triples table.

    Every batch must pass `neighbors.check_capacity`, the only batch-size
    rule.  make_batches fixes each batch's class counts whatever the seed,
    so one epoch's partition stands for all of them.
    """
    for batch_idx, idx in enumerate(batches):
        try:
            check_capacity(train.labels[idx], train.num_classes, cfg.k + 1, cfg.m)
        except CapacityError as exc:
            raise CapacityError(f"batch {batch_idx} ({idx.size} rows): {exc}") from None


def finetune(train: Dataset, cfg: TrainConfig,
             init: EncoderParams) -> tuple[EncoderParams, TrainReport]:
    """Minimize the margin objective over the encoder's parameter vector,
    every layer jointly, in the training dtype.

    Returns the best parameters seen (by end-of-epoch loss over the full
    training set) and the per-epoch report.  An encoder whose input width
    is not the data's raises DimensionError, and a batch too small for its
    table fails `neighbors.check_capacity`, both before any table is built.
    """
    if init.widths != tuple(cfg.layer_sizes):
        raise DimensionError(
            f"init widths {init.widths} do not match layer_sizes {tuple(cfg.layer_sizes)}"
        )
    if init.widths[0] != train.dim:
        raise DimensionError(f"encoder input width {init.widths[0]} != data dim {train.dim}")
    dtype = np.dtype(cfg.dtype)
    features = train.features.astype(dtype, copy=False)
    x = init.vector.astype(dtype, copy=False)

    batches = make_batches(train.labels, cfg.batch_size, seed=cfg.seed)
    _check_batch_capacity(train, batches, cfg)
    full_table = build_triples(train, cfg.neighbor_config)
    report = TrainReport()
    best_loss, best_x = np.inf, x
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        if epoch:  # epoch 0 trains on the partition checked above
            batches = make_batches(train.labels, cfg.batch_size, seed=cfg.seed + epoch)
        for batch_idx, idx in enumerate(batches):
            # one batch is arange(n): the full set's features and table
            batch_features, table = (features, full_table) if len(batches) == 1 else (
                features[idx], build_triples(train.subset(idx), cfg.neighbor_config))

            def objective(vec):
                return margin.loss_and_param_grad(
                    EncoderParams(init.widths, vec), batch_features, table)

            try:
                x, trajectory = polak_ribiere_minimize(objective, x, cfg.cg_line_searches)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"epoch {epoch}, batch {batch_idx}: {exc}") from exc

        if len(batches) == 1:  # CG's last result used the full set's table at x
            full = trajectory[-1]
        else:
            full = margin.loss(forward(EncoderParams(init.widths, x), features), full_table)
        if not np.isfinite(full.value):
            raise DivergenceError(f"epoch {epoch}: full training loss is non-finite")
        report.epochs.append(EpochStats(
            loss=full.value,
            active_triples=full.active_triples,
            seconds=time.perf_counter() - started,
        ))
        if full.value < best_loss:
            best_loss, best_x = full.value, x
    return EncoderParams(init.widths, best_x), report
