"""Deterministic deep encoder: forward pass, backpropagation, and binary
checkpoint persistence.

The parameters are one vector, the one that conjugate gradient moves, the
gradient lines up with and the checkpoint stores.  Hidden layers squash with
the logistic function; the top (code) layer is linear so that Euclidean
code distances are unbounded.  Checkpoints use a fixed little-endian binary
layout (see save_checkpoint).
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import all_finite
from .errors import ConfigError, ConsistencyError, DimensionError, FormatError
from .rbm import Rbm, sigmoid

_MAGIC = b"DNKN"
_VERSION = 1
# activations of the widest layer per row chunk of `forward`: 8 MB in float64
_CHUNK_CELLS = 1 << 20


def _split(widths: tuple[int, ...], vec: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """(weights, bias) views of each layer's slice of vec: the layout is
    layer by layer, the (n_in, n_out) weights row-major, then the bias."""
    views, pos = [], 0
    for n_in, n_out in zip(widths, widths[1:]):
        end = pos + n_in * n_out
        views.append((vec[pos:end].reshape(n_in, n_out), vec[end : end + n_out]))
        pos = end + n_out
    return tuple(views)


@dataclass(frozen=True)
class EncoderParams:
    """The map from inputs to code vectors: two or more layer widths plus
    one parameter vector, laid out layer by layer, each layer's weights
    (row-major) then its bias.

    Layer t of L is logistic when t < L - 1 and linear otherwise.  The
    vector is held as a read-only view, not copied, so wrapping a
    conjugate-gradient point costs nothing.
    """

    widths: tuple[int, ...]
    vector: np.ndarray

    def __post_init__(self):
        widths = tuple(map(operator.index, self.widths))
        if len(widths) < 2 or min(widths) < 1:
            raise ConfigError(f"encoder needs two or more widths, each >= 1; got {widths}")
        vec = np.asarray(self.vector)
        if not np.issubdtype(vec.dtype, np.floating):
            raise ConfigError(f"encoder parameters need a floating dtype, got {vec.dtype}")
        size = sum(a * b + b for a, b in zip(widths, widths[1:]))
        if vec.shape != (size,):
            raise DimensionError(f"parameter vector has shape {vec.shape}, expected "
                                 f"({size},) for widths {widths}")
        if not all_finite(vec):
            raise ConsistencyError("encoder parameters contain non-finite values")
        view = vec.view()
        view.flags.writeable = False
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "vector", view)

    @classmethod
    def from_layers(cls, layers) -> "EncoderParams":
        """Parameters copied from (weights (n_in, n_out), bias (n_out,)) pairs
        that chain and share one floating dtype."""
        layers = [(np.asarray(w), np.asarray(b)) for w, b in layers]
        if not layers:
            raise ConfigError("encoder needs at least one layer")
        for w, b in layers:
            if w.ndim != 2 or b.ndim != 1:
                raise DimensionError("layer weights must be 2-D and bias 1-D")
            if b.shape[0] != w.shape[1]:
                raise DimensionError(f"bias length {b.shape[0]} != output width {w.shape[1]}")
        for (a, _), (b, _) in zip(layers, layers[1:]):
            if a.shape[1] != b.shape[0]:
                raise DimensionError(f"layer widths do not chain: {a.shape} then {b.shape}")
        dtypes = {a.dtype for pair in layers for a in pair}
        if len(dtypes) != 1:
            raise ConfigError(f"weights and biases need one floating dtype, "
                              f"got {sorted(map(str, dtypes))}")
        widths = (layers[0][0].shape[0],) + tuple(w.shape[1] for w, _ in layers)
        return cls(widths, np.concatenate([a.ravel() for pair in layers for a in pair]))

    @property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(weights, bias) read-only views of the vector, one pair per layer."""
        return _split(self.widths, self.vector)

    @property
    def num_params(self) -> int:
        return self.vector.size

    @property
    def dtype(self):
        return self.vector.dtype


def init_encoder(layer_sizes, seed: int = 0, weight_scale: float = 0.01) -> EncoderParams:
    """Random float64 encoder: zero-mean Gaussian weights (std weight_scale),
    zero biases."""
    sizes = list(layer_sizes)
    rng = np.random.default_rng(seed)
    return EncoderParams.from_layers(
        (rng.standard_normal((n_in, n_out)) * weight_scale, np.zeros(n_out))
        for n_in, n_out in zip(sizes, sizes[1:])
    )


def from_rbm_stack(stack: list[Rbm]) -> EncoderParams:
    """Encoder initialized from a greedily trained stack.

    Layer t takes machine t's weights and hidden bias; visible biases (the
    generative direction) are discarded.  The last layer becomes the linear
    code layer.
    """
    return EncoderParams.from_layers((m.weights, m.hidden_bias) for m in stack)


def _input_rows(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != params.widths[0]:
        raise DimensionError(
            f"input width {x.shape[1]} != encoder input width {params.widths[0]}"
        )
    return x


def _apply(a: np.ndarray, weights: np.ndarray, bias: np.ndarray, hidden: bool) -> np.ndarray:
    """One layer's output, computed in the product's own buffer."""
    z = a @ weights
    z += bias
    return sigmoid(z, out=z) if hidden else z


def forward(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Map input rows to code rows, each chunk of rows by forward_with_cache.

    A chunk holds at most _CHUNK_CELLS activations of the widest layer, and
    its activations are dropped before the next chunk starts, so the memory
    beyond the input and the codes does not grow with the row count.  A
    row's code is the one its chunk alone would get.  BLAS may round a row
    of a product differently with the product's row count, so in float64 a
    code can differ in its last bits from forward_with_cache's code for the
    same row among more rows than one chunk.
    """
    x = _input_rows(params, x)
    codes = np.empty((x.shape[0], params.widths[-1]), np.result_type(x, params.vector))
    step = max(1, _CHUNK_CELLS // max(params.widths))
    for start in range(0, x.shape[0], step):
        codes[start : start + step] = forward_with_cache(params, x[start : start + step])[0]
    return codes


def forward_with_cache(params: EncoderParams,
                       x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Codes plus every activation backward() needs: the input, then each
    layer's output."""
    acts = [_input_rows(params, x)]
    layers = params.layers
    for t, (weights, bias) in enumerate(layers):
        acts.append(_apply(acts[-1], weights, bias, t < len(layers) - 1))
    return acts[-1], tuple(acts)


def backward(params: EncoderParams, acts: tuple[np.ndarray, ...],
             code_grad: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of a scalar loss given its gradient at the codes.

    `acts` are the activations from forward_with_cache.  Returns one vector
    lined up with params.vector; each layer's dW and dbias are written
    straight into that layer's slice.

    A hidden layer's delta, (upstream * out) * (1 - out), is formed in the
    buffer of upstream, this function's own product with the layer above,
    with 1 - out taken in row chunks of at most _CHUNK_CELLS cells.  So the
    working set is one delta of the widest layer beside the next one down,
    not three.  It stays in place only when the product keeps upstream's
    dtype; a wider one (float32 upstream, float64 activations) is a new
    array, as the product would be.  code_grad is never written into.
    """
    layers = params.layers
    if len(acts) != len(layers) + 1:
        raise ConsistencyError(f"{len(acts)} activations for {len(layers)} layers")
    for (weights, _), a_in, a_out in zip(layers, acts, acts[1:]):
        if (a_in.shape[1], a_out.shape[1]) != weights.shape:
            raise ConsistencyError("activations do not match these parameters")
    code_grad = np.asarray(code_grad)
    if code_grad.shape != acts[-1].shape:
        raise ConsistencyError(
            f"code_grad shape {code_grad.shape} != codes shape {acts[-1].shape}"
        )
    grad = np.empty(params.num_params, dtype=np.result_type(acts[-1], code_grad))
    grads = _split(params.widths, grad)
    upstream = code_grad
    for t in range(len(layers) - 1, -1, -1):
        out = acts[t + 1]
        delta = upstream
        if t < len(layers) - 1:  # upstream is delta @ W.T from the layer above
            if upstream.dtype == np.result_type(upstream, out):
                delta *= out
            else:
                delta = upstream * out
            step = max(1, _CHUNK_CELLS // out.shape[1])
            for start in range(0, out.shape[0], step):
                delta[start : start + step] *= 1.0 - out[start : start + step]
        dw, db = grads[t]
        np.matmul(acts[t].T, delta, out=dw)
        delta.sum(axis=0, out=db)
        if t:
            upstream = delta @ layers[t][0].T
    return grad


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write a checkpoint.

    Layout, all little-endian: magic b"DNKN"; uint32 version (=1); uint32
    layer count L; L+1 uint32 layer widths; then per layer one activation
    flag byte (0=logistic for the hidden layers, 1=linear for the last)
    followed by the weights as row-major float64 and the bias as float64.
    """
    widths = params.widths
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(widths) - 1))
        f.write(struct.pack(f"<{len(widths)}I", *widths))
        layers = _split(widths, np.asarray(params.vector, dtype="<f8"))
        for t, (weights, bias) in enumerate(layers):
            f.write(struct.pack("<B", t == len(layers) - 1))
            f.write(weights)
            f.write(bias)


def _take(buf: memoryview, pos: int, n: int, path, what: str) -> tuple[memoryview, int]:
    """The n bytes at pos, as a view, and the position after them."""
    if pos + n > len(buf):
        raise FormatError(f"{path}: truncated checkpoint while reading {what}")
    return buf[pos : pos + n], pos + n


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint written by save_checkpoint (bit-exact round trip).

    Refuses widths of 0 and any activation flags but 0 for the hidden layers
    and 1 for the last.
    """
    with open(path, "rb") as f:
        buf = memoryview(f.read())  # so each layer below is a view, not a copy
    magic, pos = _take(buf, 0, 4, path, "magic")
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {bytes(magic)!r} (expected {_MAGIC!r})")
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
    if 0 in widths:
        raise FormatError(f"{path}: checkpoint declares a layer width of 0 in {widths}")
    pieces = []
    for t, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        raw, pos = _take(buf, pos, 1, path, f"layer {t} activation flag")
        if raw[0] != (t == count - 1):
            raise FormatError(f"{path}: layer {t} of {count} has activation flag {raw[0]} "
                              f"(0 for hidden layers, 1 for the last)")
        raw, pos = _take(buf, pos, 8 * (n_in * n_out + n_out), path, f"layer {t} parameters")
        pieces.append(np.frombuffer(raw, dtype="<f8"))
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes after last layer")
    return EncoderParams(widths, np.concatenate(pieces))
