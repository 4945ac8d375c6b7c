"""Deterministic deep encoder: forward pass, backpropagation, parameter
flattening, and binary checkpoint persistence.

Hidden layers squash with the logistic function; the top (code) layer is
linear so that Euclidean code distances are unbounded.  Checkpoints use a
fixed little-endian binary layout (see save_checkpoint).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConsistencyError, DimensionError, FormatError
from .rbm import Rbm, sigmoid

LOGISTIC = 0
LINEAR = 1

_MAGIC = b"DNKN"
_VERSION = 1


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)
    activation: int  # LOGISTIC or LINEAR

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise DimensionError("layer weights must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weights.shape[1]:
            raise DimensionError(
                f"bias length {self.bias.shape[0]} != output width {self.weights.shape[1]}"
            )
        # forward adds the bias and squashes in the product's own buffer
        if self.bias.dtype != self.weights.dtype or \
                not np.issubdtype(self.weights.dtype, np.floating):
            raise ConfigError(
                f"weights ({self.weights.dtype}) and bias ({self.bias.dtype}) "
                f"need one floating dtype"
            )
        if self.activation not in (LOGISTIC, LINEAR):
            raise ConfigError(f"unknown activation code {self.activation}")


@dataclass(frozen=True)
class EncoderParams:
    """Ordered stack of layers defining the map from inputs to code vectors."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("encoder needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise DimensionError(
                    f"layer widths do not chain: {a.weights.shape} then {b.weights.shape}"
                )
        for layer in self.layers:
            if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
                raise ConsistencyError("encoder parameters contain non-finite values")

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.layers[0].weights.shape[0],) + tuple(
            layer.weights.shape[1] for layer in self.layers
        )

    @property
    def num_params(self) -> int:
        return sum(l.weights.size + l.bias.size for l in self.layers)

    @property
    def dtype(self):
        return self.layers[0].weights.dtype

    def astype(self, dtype) -> "EncoderParams":
        return EncoderParams(tuple(
            Layer(l.weights.astype(dtype), l.bias.astype(dtype), l.activation)
            for l in self.layers
        ))


def standard_activations(num_layers: int) -> tuple[int, ...]:
    """Logistic hidden layers, linear code layer (a single layer is the code layer)."""
    return (LOGISTIC,) * (num_layers - 1) + (LINEAR,)


def init_encoder(layer_sizes, seed: int = 0, weight_scale: float = 0.01) -> EncoderParams:
    """Random float64 encoder: zero-mean Gaussian weights (std weight_scale),
    zero biases."""
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ConfigError("layer_sizes needs at least an input and an output width")
    rng = np.random.default_rng(seed)
    acts = standard_activations(len(sizes) - 1)
    layers = []
    for (n_in, n_out), act in zip(zip(sizes, sizes[1:]), acts):
        w = rng.standard_normal((n_in, n_out)) * weight_scale
        layers.append(Layer(w, np.zeros(n_out), act))
    return EncoderParams(tuple(layers))


def from_rbm_stack(stack: list[Rbm]) -> EncoderParams:
    """Encoder initialized from a greedily trained stack.

    Layer t takes machine t's weights and hidden bias; visible biases (the
    generative direction) are discarded.  The last layer becomes the linear
    code layer.
    """
    if not stack:
        raise ConfigError("cannot build an encoder from an empty stack")
    acts = standard_activations(len(stack))
    layers = []
    for machine, act in zip(stack, acts):
        layers.append(Layer(machine.weights.copy(), machine.hidden_bias.copy(), act))
    return EncoderParams(tuple(layers))


def _input_rows(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != params.widths[0]:
        raise DimensionError(
            f"input width {x.shape[1]} != encoder input width {params.widths[0]}"
        )
    return x


def _apply(layer: Layer, a: np.ndarray) -> np.ndarray:
    """One layer's output, computed in the product's own buffer."""
    z = a @ layer.weights
    z += layer.bias
    return sigmoid(z, out=z) if layer.activation == LOGISTIC else z


def forward(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Map input rows to code rows, holding only the current layer's output."""
    a = _input_rows(params, x)
    for layer in params.layers:
        a = _apply(layer, a)
    return a


def forward_with_cache(params: EncoderParams,
                       x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Codes plus every activation backward() needs: the input, then each
    layer's output."""
    acts = [_input_rows(params, x)]
    for layer in params.layers:
        acts.append(_apply(layer, acts[-1]))
    return acts[-1], tuple(acts)


def backward(params: EncoderParams, acts: tuple[np.ndarray, ...],
             code_grad: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reverse-mode gradients of a scalar loss given its gradient at the codes.

    `acts` are the activations from forward_with_cache.  Returns one
    (dW, dbias) pair per layer, shapes mirroring the parameters.
    """
    if len(acts) != len(params.layers) + 1:
        raise ConsistencyError(
            f"{len(acts)} activations for {len(params.layers)} layers"
        )
    for layer, a_in, a_out in zip(params.layers, acts, acts[1:]):
        if a_in.shape[1] != layer.weights.shape[0] or a_out.shape[1] != layer.weights.shape[1]:
            raise ConsistencyError("activations do not match these parameters")
    code_grad = np.asarray(code_grad)
    if code_grad.shape != acts[-1].shape:
        raise ConsistencyError(
            f"code_grad shape {code_grad.shape} != codes shape {acts[-1].shape}"
        )
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    upstream = code_grad
    for t in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[t]
        out = acts[t + 1]
        if layer.activation == LOGISTIC:
            delta = upstream * out * (1.0 - out)
        else:
            delta = upstream
        grads[t] = (acts[t].T @ delta, delta.sum(axis=0))
        if t:
            upstream = delta @ layer.weights.T
    return grads


def flatten(params: EncoderParams) -> np.ndarray:
    """Parameters as one vector: layer-major, weights (row-major) then bias."""
    pieces = []
    for layer in params.layers:
        pieces.append(layer.weights.ravel())
        pieces.append(layer.bias)
    return np.concatenate(pieces)


def flatten_gradients(grads) -> np.ndarray:
    """Gradient pairs from backward() flattened in the same order as flatten()."""
    pieces = []
    for dw, db in grads:
        pieces.append(dw.ravel())
        pieces.append(db)
    return np.concatenate(pieces)


def unflatten(template: EncoderParams, vec: np.ndarray) -> EncoderParams:
    """Rebuild parameters from a flat vector using template's shapes/activations."""
    vec = np.asarray(vec)
    if vec.shape != (template.num_params,):
        raise DimensionError(
            f"flat vector has length {vec.shape}, expected ({template.num_params},)"
        )
    layers = []
    pos = 0
    for layer in template.layers:
        wsize = layer.weights.size
        w = vec[pos : pos + wsize].reshape(layer.weights.shape)
        pos += wsize
        b = vec[pos : pos + layer.bias.size]
        pos += layer.bias.size
        layers.append(Layer(w.copy(), b.copy(), layer.activation))
    return EncoderParams(tuple(layers))


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write a checkpoint.

    Layout, all little-endian: magic b"DNKN"; uint32 version (=1); uint32
    layer count L; L+1 uint32 layer widths; then per layer one activation
    flag byte (0=logistic, 1=linear) followed by the weights as row-major
    float64 and the bias as float64.
    """
    widths = params.widths
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(params.layers)))
        f.write(struct.pack(f"<{len(widths)}I", *widths))
        for layer in params.layers:
            f.write(struct.pack("<B", layer.activation))
            f.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def _take(buf: bytes, pos: int, n: int, path, what: str) -> tuple[bytes, int]:
    if pos + n > len(buf):
        raise FormatError(f"{path}: truncated checkpoint while reading {what}")
    return buf[pos : pos + n], pos + n


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint written by save_checkpoint (bit-exact round trip)."""
    with open(path, "rb") as f:
        buf = f.read()
    magic, pos = _take(buf, 0, 4, path, "magic")
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} (expected {_MAGIC!r})")
    raw, pos = _take(buf, pos, 4, path, "version")
    version = struct.unpack("<I", raw)[0]
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version} (expected {_VERSION})")
    raw, pos = _take(buf, pos, 4, path, "layer count")
    count = struct.unpack("<I", raw)[0]
    if count == 0:
        raise FormatError(f"{path}: checkpoint declares zero layers")
    raw, pos = _take(buf, pos, 4 * (count + 1), path, "layer widths")
    widths = struct.unpack(f"<{count + 1}I", raw)
    layers = []
    for t in range(count):
        raw, pos = _take(buf, pos, 1, path, f"layer {t} activation flag")
        activation = raw[0]
        n_in, n_out = widths[t], widths[t + 1]
        raw, pos = _take(buf, pos, 8 * n_in * n_out, path, f"layer {t} weights")
        w = np.frombuffer(raw, dtype="<f8").reshape(n_in, n_out).copy()
        raw, pos = _take(buf, pos, 8 * n_out, path, f"layer {t} bias")
        b = np.frombuffer(raw, dtype="<f8").copy()
        layers.append(Layer(w, b, int(activation)))
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes after last layer")
    return EncoderParams(tuple(layers))
