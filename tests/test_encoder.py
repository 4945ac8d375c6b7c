import math
import struct
import tracemalloc

import numpy as np
import pytest

from dnetknn import encoder
from dnetknn.encoder import (
    EncoderParams,
    backward,
    forward,
    forward_with_cache,
    from_rbm_stack,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from dnetknn.errors import ConfigError, ConsistencyError, DimensionError, FormatError
from dnetknn.rbm import CdConfig, Rbm, hidden_given_visible, train_stack

from _synthetic import make_digits


def random_params(sizes, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    return EncoderParams.from_layers(
        (scale * rng.standard_normal((a, b)), scale * rng.standard_normal(b))
        for a, b in zip(sizes, sizes[1:]))


def pack_checkpoint(widths, flags, values) -> bytes:
    """A checkpoint packed by hand: header, then each layer's flag byte and
    its float64 weights and bias taken in order from `values`."""
    out = struct.pack(f"<4sII{len(widths)}I", b"DNKN", 1, len(widths) - 1, *widths)
    pos = 0
    for flag, n_in, n_out in zip(flags, widths, widths[1:]):
        size = n_in * n_out + n_out
        out += struct.pack(f"<B{size}d", flag, *values[pos : pos + size])
        pos += size
    return out


def oracle_forward(params, x):
    """Independent per-row, per-unit evaluation of the encoder map: logistic
    hidden layers, linear last layer."""
    out = []
    last = len(params.layers) - 1
    for row in x:
        a = list(row)
        for t, (weights, bias) in enumerate(params.layers):
            nxt = []
            for j in range(weights.shape[1]):
                z = bias[j]
                for i in range(weights.shape[0]):
                    z += a[i] * weights[i, j]
                if t < last:
                    z = 1.0 / (1.0 + math.exp(-z))
                nxt.append(z)
            a = nxt
        out.append(a)
    return np.array(out)


def max_block_relative_error(analytic, numeric):
    worst = 0.0
    for (da, dba), (dn, dbn) in zip(analytic, numeric):
        for a, n in ((da, dn), (dba, dbn)):
            scale = max(np.abs(a).max(), np.abs(n).max(), 1e-12)
            worst = max(worst, float(np.abs(a - n).max() / scale))
    return worst


class TestForward:
    def test_zero_parameters(self):
        params = EncoderParams.from_layers([
            (np.zeros((3, 4)), np.zeros(4)),
            (np.zeros((4, 2)), np.zeros(2)),
        ])
        codes, acts = forward_with_cache(params, np.ones((5, 3)))
        assert len(acts) == 3 and acts[-1] is codes
        np.testing.assert_array_equal(acts[1], 0.5)
        np.testing.assert_array_equal(codes, 0.0)

    def test_single_linear_layer_is_matrix_product(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 2))
        params = EncoderParams.from_layers([(w, np.zeros(2))])
        x = rng.standard_normal((6, 4))
        np.testing.assert_allclose(forward(params, x), x @ w, atol=1e-14)

    def test_matches_independent_evaluation(self):
        params = random_params([10, 7, 4, 3, 2], seed=5)
        x = np.random.default_rng(6).standard_normal((5, 10))
        np.testing.assert_allclose(forward(params, x), oracle_forward(params, x),
                                   rtol=1e-12, atol=1e-12)

    def test_deterministic(self):
        params = random_params([6, 4, 2], seed=1)
        x = np.random.default_rng(2).standard_normal((3, 6))
        np.testing.assert_array_equal(forward(params, x), forward(params, x))

    def test_width_mismatch(self):
        params = random_params([6, 4, 2], seed=1)
        with pytest.raises(DimensionError):
            forward(params, np.zeros((3, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uncached_forward_matches_cached_bit_for_bit(self, dtype):
        p = random_params([10, 7, 4, 3, 2], seed=5)
        params = EncoderParams(p.widths, p.vector.astype(dtype))
        x = np.random.default_rng(6).standard_normal((9, 10)).astype(dtype)
        got = forward(params, x)
        assert got.dtype == dtype
        assert got.tobytes() == forward_with_cache(params, x)[0].tobytes()

    def test_uncached_forward_peak_does_not_grow_with_rows(self):
        sizes = (784, 500, 500, 2000, 30)
        params = init_encoder(sizes, seed=0)
        chunk_activation = encoder._CHUNK_CELLS * 8  # one chunk of the widest layer
        for rows in (3000, 12000):
            x = np.random.default_rng(1).random((rows, 784))
            tracemalloc.start()
            try:
                codes = forward(params, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert codes.shape == (rows, 30)
            # whole layers would take rows * (500 + 2000) * 8 bytes: 60 MB at 3000 rows
            assert peak - codes.nbytes <= 2 * chunk_activation

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uncached_forward_is_row_wise_across_a_chunk_boundary(self, dtype):
        sizes = (784, 500, 500, 2000, 30)
        p = random_params(sizes, seed=3, scale=0.05)
        params = EncoderParams(p.widths, p.vector.astype(dtype))
        chunk = encoder._CHUNK_CELLS // max(sizes)
        x = np.random.default_rng(4).random((chunk + 1, 784)).astype(dtype)
        got = forward(params, x)
        want = np.concatenate([forward(params, x[:chunk]), forward(params, x[chunk:])])
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert forward(params, x[chunk]).tobytes() == got[chunk:].tobytes()  # a 1-D row
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got, forward_with_cache(params, x)[0], rtol=tol, atol=tol)

    @pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("input_dtype", [np.uint8, np.float32, np.float64])
    def test_uncached_forward_of_no_rows_has_the_promoted_dtype(self, param_dtype,
                                                                input_dtype):
        p = random_params([6, 4, 2], seed=1)
        params = EncoderParams(p.widths, p.vector.astype(param_dtype))
        for rows in (0, 1):
            x = np.zeros((rows, 6), input_dtype)
            got = forward(params, x)
            assert got.shape == (rows, 2)
            assert got.dtype == forward_with_cache(params, x)[0].dtype

    def test_layer_needs_one_floating_dtype(self):
        with pytest.raises(ConfigError):
            EncoderParams.from_layers([(np.zeros((3, 2), np.float32), np.zeros(2))])
        with pytest.raises(ConfigError):
            EncoderParams.from_layers([(np.zeros((3, 2), np.int64), np.zeros(2, np.int64))])
        with pytest.raises(ConfigError):
            EncoderParams.from_layers([(np.zeros((3, 2)), np.zeros(2)),
                                       (np.zeros((2, 1), np.float32), np.zeros(1, np.float32))])
        with pytest.raises(ConfigError):
            EncoderParams((3, 2), np.zeros(8, np.int64))


class TestFromRbmStack:
    def test_single_machine_matches_conditional_pre_activation(self):
        rng = np.random.default_rng(4)
        machine = Rbm(rng.standard_normal((5, 3)), rng.standard_normal(5),
                      rng.standard_normal(3))
        params = from_rbm_stack([machine])  # a single layer is the linear code layer
        v = rng.random((4, 5))
        # pre-activation output: the conditional without the squashing
        expected = v @ machine.weights + machine.hidden_bias
        np.testing.assert_allclose(forward(params, v), expected, atol=1e-14)
        # and squashing it recovers the conditional
        np.testing.assert_allclose(1 / (1 + np.exp(-forward(params, v))),
                                   hidden_given_visible(machine, v), atol=1e-14)

    def test_four_machine_stack(self):
        data = make_digits(per_class=2, side=8, seed=7)
        stack = train_stack(data, [64, 10, 8, 6, 4], CdConfig(epochs=1, seed=0))
        params = from_rbm_stack(stack)
        assert params.widths == (64, 10, 8, 6, 4)
        # logistic hidden layers, linear code layer
        _, acts = forward_with_cache(params, data.features[:5])
        for t, (weights, bias) in enumerate(params.layers):
            pre = acts[t] @ weights + bias
            want = pre if t == 3 else 1.0 / (1.0 + np.exp(-pre))
            np.testing.assert_allclose(acts[t + 1], want, rtol=1e-12, atol=1e-15)

    def test_empty_stack(self):
        with pytest.raises(ConfigError):
            from_rbm_stack([])

    def test_chain_break(self):
        rng = np.random.default_rng(0)
        a = Rbm(rng.standard_normal((4, 3)), np.zeros(4), np.zeros(3))
        b = Rbm(rng.standard_normal((5, 2)), np.zeros(5), np.zeros(2))
        with pytest.raises(DimensionError):
            from_rbm_stack([a, b])


class TestBackward:
    def test_zero_code_grad(self):
        params = random_params([5, 4, 3], seed=9)
        x = np.random.default_rng(10).standard_normal((6, 5))
        codes, cache = forward_with_cache(params, x)
        grad = backward(params, cache, np.zeros_like(codes))
        assert grad.shape == params.vector.shape
        assert not grad.any()

    def test_single_linear_layer_closed_form(self):
        # d/dW of sum(G * (xW + b)) is x^T G; d/db is column sums of G.
        rng = np.random.default_rng(11)
        w = rng.standard_normal((2, 2))
        params = EncoderParams.from_layers([(w, rng.standard_normal(2))])
        x = rng.standard_normal((3, 2))
        g = rng.standard_normal((3, 2))
        codes, cache = forward_with_cache(params, x)
        (dw, db), = EncoderParams(params.widths, backward(params, cache, g)).layers
        np.testing.assert_allclose(dw, x.T @ g, atol=1e-14)
        np.testing.assert_allclose(db, g.sum(axis=0), atol=1e-14)

    def test_matches_finite_differences(self):
        # scalar loss: a fixed linear functional of the codes
        params = random_params([10, 7, 4, 3, 2], seed=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 10))
        weights_on_codes = rng.standard_normal((8, 2))

        def loss_of(vec):
            return float((forward(EncoderParams(params.widths, vec), x)
                          * weights_on_codes).sum())

        codes, cache = forward_with_cache(params, x)
        analytic = EncoderParams(params.widths, backward(params, cache, weights_on_codes))

        flat = params.vector
        h = 1e-5
        numeric_flat = np.empty_like(flat)
        for idx in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[idx] += h
            down[idx] -= h
            numeric_flat[idx] = (loss_of(up) - loss_of(down)) / (2 * h)
        numeric = EncoderParams(params.widths, numeric_flat)
        assert max_block_relative_error(analytic.layers, numeric.layers) < 1e-5

    def test_stale_cache_rejected(self):
        params = random_params([5, 4, 3], seed=14)
        other = random_params([5, 6, 3], seed=15)
        x = np.random.default_rng(16).standard_normal((2, 5))
        _, cache = forward_with_cache(other, x)
        with pytest.raises(ConsistencyError):
            backward(params, cache, np.zeros((2, 3)))
        _, cache = forward_with_cache(params, x)
        with pytest.raises(ConsistencyError, match="2 activations for 2 layers"):
            backward(params, cache[1:], np.zeros((2, 3)))

    def test_code_grad_shape_mismatch(self):
        params = random_params([5, 4, 3], seed=14)
        x = np.random.default_rng(16).standard_normal((2, 5))
        _, cache = forward_with_cache(params, x)
        with pytest.raises(ConsistencyError):
            backward(params, cache, np.zeros((3, 3)))


class TestFlatten:
    """The one parameter vector: layer by layer, weights row-major, then bias."""

    def test_vector_is_a_read_only_view(self):
        params = random_params([6, 5, 4, 3], seed=17)
        vec = params.vector.copy()
        wrapped = EncoderParams(params.widths, vec)
        assert np.shares_memory(wrapped.vector, vec) and vec.flags.writeable
        assert not wrapped.vector.flags.writeable
        for weights, bias in wrapped.layers:
            assert np.shares_memory(weights, vec) and np.shares_memory(bias, vec)
            with pytest.raises(ValueError):
                weights[0, 0] = 1.0

    def test_total_length(self):
        sizes = [6, 5, 4, 3]
        params = random_params(sizes, seed=18)
        expected = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        assert params.vector.size == expected == params.num_params

    def test_short_vector_rejected(self):
        params = random_params([6, 5], seed=19)
        with pytest.raises(DimensionError):
            EncoderParams(params.widths, params.vector[:-1])

    @pytest.mark.parametrize("widths", [(6,), (6, 0), (0, 3), ()])
    def test_bad_widths_rejected(self, widths):
        with pytest.raises(ConfigError):
            EncoderParams(widths, np.zeros(0))
        with pytest.raises(ConfigError):
            init_encoder(widths)

    def test_non_finite_rejected(self):
        params = random_params([4, 3], seed=19)
        vec = params.vector.copy()
        vec[3] = np.nan
        with pytest.raises(ConsistencyError):
            EncoderParams(params.widths, vec)
        for value, at in ((np.inf, 3), (-np.inf, 3), (np.nan, -1)):
            vec = params.vector.copy()
            vec[at] = value
            with pytest.raises(ConsistencyError, match="non-finite"):
                EncoderParams(params.widths, vec)

    def test_finiteness_check_allocates_no_mask(self):
        params = init_encoder([784, 500, 500, 2000, 30], seed=0)
        tracemalloc.start()
        try:
            again = EncoderParams(params.widths, params.vector)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.vector.base is params.vector.base
        # a byte-per-value mask would be nbytes / 8
        assert peak < params.vector.nbytes / 16

    def test_gradient_flattening_matches_parameter_order(self):
        params = random_params([4, 3, 2], seed=20)
        (w0, b0), (w1, b1) = params.layers
        np.testing.assert_array_equal(params.vector,
                                      np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
        rng = np.random.default_rng(21)
        x, g = rng.standard_normal((5, 4)), rng.standard_normal((5, 2))
        _, acts = forward_with_cache(params, x)
        delta = (g @ w1.T) * acts[1] * (1.0 - acts[1])
        want = np.concatenate([(x.T @ delta).ravel(), delta.sum(axis=0),
                               (acts[1].T @ g).ravel(), g.sum(axis=0)])
        np.testing.assert_allclose(backward(params, acts, g), want, rtol=1e-12)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = random_params([6, 5, 4], seed=21)
        path = tmp_path / "model.dnkn"
        save_checkpoint(params, path)
        again = load_checkpoint(path)
        assert again.widths == params.widths
        assert again.vector.tobytes() == params.vector.tobytes()
        x = np.random.default_rng(22).standard_normal((3, 6))
        np.testing.assert_array_equal(forward(params, x), forward(again, x))

    def test_corrupt_magic(self, tmp_path):
        params = random_params([3, 2], seed=23)
        path = tmp_path / "model.dnkn"
        save_checkpoint(params, path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        params = random_params([3, 2], seed=23)
        path = tmp_path / "model.dnkn"
        save_checkpoint(params, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        params = random_params([3, 2], seed=23)
        path = tmp_path / "model.dnkn"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_truncation_inside_each_layer_names_it(self, tmp_path):
        widths = (3, 2, 1)
        path = tmp_path / "model.dnkn"
        save_checkpoint(random_params(widths, seed=23), path)
        raw = path.read_bytes()
        pos = 4 + 4 + 4 + 4 * len(widths)
        for t, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
            for cut, what in ((pos, "activation flag"), (pos + 1 + 8 * n_in, "parameters")):
                path.write_bytes(raw[:cut])
                with pytest.raises(FormatError, match=f"truncated .* layer {t} {what}"):
                    load_checkpoint(path)
            pos += 1 + 8 * (n_in * n_out + n_out)

    def test_load_holds_the_file_and_the_vector(self, tmp_path):
        params = init_encoder([784, 500, 500, 2000, 30], seed=0)
        path = tmp_path / "big.dnkn"
        save_checkpoint(params, path)
        tracemalloc.start()
        try:
            again = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.vector.tobytes() == params.vector.tobytes()
        # the file and the vector; a bytes copy of each layer would add one
        # more file size
        assert peak <= path.stat().st_size + 8 * again.num_params + (1 << 16)

    def test_file_size_of_full_architecture(self, tmp_path):
        sizes = [784, 500, 500, 2000, 30]
        params = init_encoder(sizes, seed=0)
        path = tmp_path / "big.dnkn"
        save_checkpoint(params, path)
        n_layers = len(sizes) - 1
        n_params = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        header = 4 + 4 + 4 + 4 * len(sizes) + n_layers  # magic/version/count/widths/flags
        assert path.stat().st_size == header + 8 * n_params

    def test_golden_bytes(self, tmp_path):
        w0, b0 = np.arange(6.0).reshape(3, 2) / 8.0, np.array([0.5, -1.0])
        w1, b1 = np.array([[1.5], [-2.25]]), np.array([3.0])
        golden = (struct.pack("<4sIIIII", b"DNKN", 1, 2, 3, 2, 1)
                  + struct.pack("<B8d", 0, *w0.ravel(), *b0)
                  + struct.pack("<B3d", 1, *w1.ravel(), *b1))
        values = [*w0.ravel(), *b0, *w1.ravel(), *b1]
        assert golden == pack_checkpoint((3, 2, 1), (0, 1), values)
        path = tmp_path / "golden.dnkn"
        save_checkpoint(EncoderParams.from_layers([(w0, b0), (w1, b1)]), path)
        assert path.read_bytes() == golden
        again = load_checkpoint(path)
        assert again.widths == (3, 2, 1)
        for got, want in zip(again.layers, [(w0, b0), (w1, b1)]):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("widths, flags, match", [
        ((3, 2, 1), (1, 0), "activation flag"),
        ((3, 2, 1), (0, 0), "activation flag"),
        ((3, 2, 1), (1, 1), "activation flag"),
        ((3, 2, 1), (0, 2), "activation flag"),
        ((3, 0, 1), (0, 1), "width of 0"),
    ])
    def test_refuses_bad_flags_and_zero_widths(self, tmp_path, widths, flags, match):
        size = sum(a * b + b for a, b in zip(widths, widths[1:]))
        path = tmp_path / "bad.dnkn"
        path.write_bytes(pack_checkpoint(widths, flags, np.linspace(-1.0, 1.0, size)))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)
