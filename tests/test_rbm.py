import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from dnetknn import rbm
from dnetknn.errors import (
    ConfigError,
    ConsistencyError,
    DimensionError,
    DivergenceError,
)
from dnetknn.rbm import (
    MOMENTUM_SWITCH_EPOCH,
    CdConfig,
    Rbm,
    hidden_given_visible,
    init_rbm,
    sigmoid,
    train_rbm,
    train_stack,
    visible_given_hidden,
)

from _oracles import exact_log_likelihood, log_prob_visible
from _synthetic import make_digits


def random_rbm(num_visible, num_hidden, seed, scale=0.8):
    rng = np.random.default_rng(seed)
    return Rbm(
        scale * rng.standard_normal((num_visible, num_hidden)),
        scale * rng.standard_normal(num_visible),
        scale * rng.standard_normal(num_hidden),
    )


def oracle_energy(machine, v, h):
    """Independent double-loop evaluation of the energy formula."""
    total = 0.0
    for i in range(machine.num_visible):
        for j in range(machine.num_hidden):
            total -= machine.weights[i, j] * v[i] * h[j]
    for i in range(machine.num_visible):
        total -= v[i] * machine.visible_bias[i]
    for j in range(machine.num_hidden):
        total -= h[j] * machine.hidden_bias[j]
    return total


def oracle_joint(machine):
    """Enumerated joint p(v, h) over every binary configuration."""
    vs = list(itertools.product([0, 1], repeat=machine.num_visible))
    hs = list(itertools.product([0, 1], repeat=machine.num_hidden))
    table = {}
    for v in vs:
        for h in hs:
            table[(v, h)] = math.exp(-oracle_energy(machine, v, h))
    z = sum(table.values())
    return {k: val / z for k, val in table.items()}, vs, hs


def ulp_distance(a, b):
    """Units in the last place between two arrays of nonnegative floats."""
    ints = np.int32 if a.dtype == np.float32 else np.int64
    return np.abs(a.view(ints).astype(np.int64) - b.view(ints).astype(np.int64))


def reference_train_rbm(data, num_hidden, cfg, rng):
    """The allocating CD-1 loop that train_rbm replaced, kept as its oracle.

    It forms every intermediate as a new array and rebuilds the machine per
    mini-batch, with the same operations, draws and dtypes as train_rbm.
    """
    n, num_visible = data.shape
    start = init_rbm(num_visible, num_hidden, rng, dtype=data.dtype)
    w, b, c = start.weights.copy(), start.visible_bias.copy(), start.hidden_bias.copy()
    vel_w, vel_b, vel_c = np.zeros_like(w), np.zeros_like(b), np.zeros_like(c)
    lr, decay = cfg.learning_rate, cfg.weight_decay
    history = []
    for epoch in range(cfg.epochs):
        mom = cfg.initial_momentum if epoch < MOMENTUM_SWITCH_EPOCH else cfg.momentum
        order = rng.permutation(n)
        errs = []
        for first in range(0, n, cfg.mini_batch):
            batch = data[order[first : first + cfg.mini_batch]]
            machine = Rbm(w, b, c)
            ph0 = sigmoid(batch @ machine.weights + machine.hidden_bias)
            h0 = (rng.random(ph0.shape) < ph0).astype(batch.dtype)
            pv1 = sigmoid(h0 @ machine.weights.T + machine.visible_bias)
            ph1 = sigmoid(pv1 @ machine.weights + machine.hidden_bias)
            gw = (batch.T @ h0 - pv1.T @ ph1) / batch.shape[0]
            gb = (batch - pv1).mean(axis=0)
            gc = (h0 - ph1).mean(axis=0)
            errs.append(float(((batch - pv1) ** 2).mean()))
            vel_w = mom * vel_w + lr * (gw - decay * w)
            vel_b = mom * vel_b + lr * gb
            vel_c = mom * vel_c + lr * gc
            w = w + vel_w
            b = b + vel_b
            c = c + vel_c
        history.append(float(np.mean(errs)))
    return Rbm(w, b, c), history


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_float32_grid_within_4_ulp_of_expit(self):
        # every 997th float32 bit pattern from 0 up to 104, and its negation
        bits = np.arange(0, np.float32(104.0).view(np.int32), 997, dtype=np.int32)
        z = bits.view(np.float32)
        z = np.concatenate([z, -z])
        got = sigmoid(z)
        assert got.dtype == np.float32
        assert ulp_distance(got, expit(z)).max() <= 4

    def test_float64_draws_within_4_ulp_of_expit(self):
        z = np.random.default_rng(0).uniform(-740.0, 740.0, size=10**6)
        got = sigmoid(z)
        assert got.dtype == np.float64
        assert ulp_distance(got, expit(z)).max() <= 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_values_without_warnings(self, dtype):
        z = np.array([0.0, 800.0, -800.0, 1e4, -1e4], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(z)
            scalars = [sigmoid(v) for v in z]
        np.testing.assert_array_equal(got, np.array([0.5, 1.0, 0.0, 1.0, 0.0], dtype))
        assert scalars == [0.5, 1.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_equals_one_element_array(self, dtype):
        for v in np.random.default_rng(1).uniform(-30, 30, size=50).astype(dtype):
            scalar = sigmoid(v)
            assert isinstance(scalar, float)
            assert scalar == sigmoid(np.array([v]))[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_may_alias_the_input(self, dtype):
        z = np.random.default_rng(2).uniform(-30, 30, size=(7, 5)).astype(dtype)
        expected = sigmoid(z)
        got = sigmoid(z, out=z)
        assert got is z
        assert got.tobytes() == expected.tobytes()

    def test_integers_promote_to_float64(self):
        got = sigmoid(np.array([-3, 0, 3]))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, sigmoid(np.array([-3.0, 0.0, 3.0])))
        assert sigmoid(0) == 0.5

    def test_saturation_no_overflow(self):
        assert sigmoid(800.0) == pytest.approx(1.0, abs=1e-300)
        assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)

    def test_complement(self):
        z = np.random.default_rng(0).uniform(-50, 50, size=1000)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)

    def test_monotone(self):
        z = np.linspace(-20, 20, 500)
        assert np.all(np.diff(sigmoid(z)) > 0)


class TestConditionals:
    def test_zero_parameters_give_half(self):
        machine = Rbm(np.zeros((4, 3)), np.zeros(4), np.zeros(3))
        np.testing.assert_array_equal(hidden_given_visible(machine, np.zeros(4)), 0.5)
        np.testing.assert_array_equal(visible_given_hidden(machine, np.zeros(3)), 0.5)

    def test_hidden_zero_gives_sigmoid_of_visible_bias(self):
        machine = random_rbm(4, 3, seed=2)
        np.testing.assert_allclose(
            visible_given_hidden(machine, np.zeros(3)),
            sigmoid(machine.visible_bias))

    def test_outputs_strictly_inside_unit_interval(self):
        machine = random_rbm(5, 4, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = hidden_given_visible(machine, rng.random(5))
            assert np.all(p > 0) and np.all(p < 1)

    def test_monotone_in_each_visible_unit(self):
        machine = random_rbm(3, 2, seed=5)
        v = np.full(3, 0.5)
        for i in range(3):
            lo, hi = v.copy(), v.copy()
            lo[i], hi[i] = 0.2, 0.8
            dp = hidden_given_visible(machine, hi) - hidden_given_visible(machine, lo)
            expected_sign = np.sign(machine.weights[i])
            assert np.all(np.sign(dp) == expected_sign)

    def test_matches_enumerated_joint(self):
        machine = random_rbm(3, 2, seed=11)
        joint, vs, hs = oracle_joint(machine)
        for v in vs:
            # p(h_j = 1 | v) from the joint
            pv = sum(joint[(v, h)] for h in hs)
            for j in range(2):
                marginal = sum(joint[(v, h)] for h in hs if h[j] == 1)
                got = hidden_given_visible(machine, np.array(v, float))[j]
                assert got == pytest.approx(marginal / pv, abs=1e-10)
        for h in hs:
            ph = sum(joint[(v, h)] for v in vs)
            for i in range(3):
                marginal = sum(joint[(v, h)] for v in vs if v[i] == 1)
                got = visible_given_hidden(machine, np.array(h, float))[i]
                assert got == pytest.approx(marginal / ph, abs=1e-10)


class TestCd1Update:
    """One train_rbm step: no momentum, one epoch, one mini-batch."""

    @staticmethod
    def one_step(batch, num_hidden, seed, **rates):
        cfg = CdConfig(momentum=0.0, initial_momentum=0.0, epochs=1,
                       mini_batch=len(batch), **rates)
        machine, history = train_rbm(batch, num_hidden, cfg, np.random.default_rng(seed))
        return machine, history[0]

    def test_zero_rate_is_identity(self):
        batch = np.random.default_rng(2).random((6, 4))
        updated, err = self.one_step(batch, 3, seed=3, learning_rate=0.0)
        machine = init_rbm(4, 3, np.random.default_rng(3))
        np.testing.assert_array_equal(updated.weights, machine.weights)
        np.testing.assert_array_equal(updated.visible_bias, machine.visible_bias)
        np.testing.assert_array_equal(updated.hidden_bias, machine.hidden_bias)
        assert err > 0.0

    def test_hand_traced_single_step(self):
        # 1 visible, 1 hidden, one data row; replay the documented sampling
        # policy with the same pinned generator and compare to hand algebra.
        v = 0.9
        lr = 0.25
        seed = 123
        updated, err = self.one_step(np.array([[v]]), 1, seed=seed,
                                     learning_rate=lr, weight_decay=0.0)

        rng = np.random.default_rng(seed)
        start = init_rbm(1, 1, rng)  # the generator's first draw: the weights
        w0, b0, c0 = start.weights[0, 0], 0.0, 0.0
        rng.permutation(1)  # then the epoch's row order
        u = rng.random((1, 1))[0, 0]  # then the data-phase hidden sample
        ph0 = 1.0 / (1.0 + math.exp(-(v * w0 + c0)))
        h0 = 1.0 if u < ph0 else 0.0
        pv1 = 1.0 / (1.0 + math.exp(-(h0 * w0 + b0)))
        ph1 = 1.0 / (1.0 + math.exp(-(pv1 * w0 + c0)))
        assert updated.weights[0, 0] == pytest.approx(
            w0 + lr * (v * h0 - pv1 * ph1), abs=1e-14)
        assert updated.visible_bias[0] == pytest.approx(
            b0 + lr * (v - pv1), abs=1e-14)
        assert updated.hidden_bias[0] == pytest.approx(
            c0 + lr * (h0 - ph1), abs=1e-14)
        assert err == pytest.approx((v - pv1) ** 2, abs=1e-14)

    def test_weight_decay_enters_scaled_by_rate(self):
        batch = np.array([[1.0]])
        updated, _ = self.one_step(batch, 1, seed=0, learning_rate=0.0, weight_decay=0.5)
        w0 = init_rbm(1, 1, np.random.default_rng(0)).weights
        np.testing.assert_array_equal(updated.weights, w0)  # lr=0 kills the decay too
        # the same generator draws the same sample, so decay alone separates the two
        decayed, _ = self.one_step(batch, 1, seed=0, learning_rate=0.5, weight_decay=0.5)
        plain, _ = self.one_step(batch, 1, seed=0, learning_rate=0.5, weight_decay=0.0)
        np.testing.assert_allclose(decayed.weights - plain.weights, -0.5 * 0.5 * w0,
                                   rtol=1e-9, atol=1e-17)


class TestTraining:
    def bars_and_stripes(self):
        rows = []
        for bits in itertools.product([0.0, 1.0], repeat=4):
            grid = np.tile(np.array(bits)[:, None], (1, 4))
            rows.append(grid.ravel())
            rows.append(grid.T.ravel())
        return np.unique(np.array(rows), axis=0)

    def test_reconstruction_error_halves_on_bars_and_stripes(self):
        data = self.bars_and_stripes()
        cfg = CdConfig(learning_rate=0.2, epochs=50, mini_batch=10, seed=42)
        _, history = train_rbm(data, 8, cfg)
        assert history[-1] < 0.5 * history[0]

    def test_exact_log_likelihood_improves(self):
        rng = np.random.default_rng(0)
        base = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.float64)
        data = base[rng.integers(0, 2, size=24)]
        machine0 = init_rbm(3, 2, np.random.default_rng(7))
        before = exact_log_likelihood(machine0, data)
        cfg = CdConfig(learning_rate=0.2, epochs=150, mini_batch=8, seed=7)
        trained, _ = train_rbm(data, 2, cfg)
        after = exact_log_likelihood(trained, data)
        assert after > before

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3])
    def test_rates_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CdConfig(**{field: value})

    def test_rejects_out_of_range_data(self):
        with pytest.raises(ConsistencyError, match="must lie in"):
            train_rbm(np.array([[1.5, 0.0]]), 2, CdConfig(epochs=1))

    def test_refuses_zero_rows_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConsistencyError, match="at least one row"):
            train_rbm(np.empty((0, 4)), 2, CdConfig(epochs=1), rng)
        assert rng.bit_generator.state == state  # no weights were initialized

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_allocating_reference_bit_for_bit(self, dtype):
        # 53 rows in mini-batches of 10 leave a ragged last batch; 7 epochs
        # cross the momentum switch after epoch MOMENTUM_SWITCH_EPOCH = 5
        data = make_digits(per_class=6, side=8, seed=4).features[:53].astype(dtype)
        cfg = CdConfig(learning_rate=0.1, momentum=0.9, initial_momentum=0.5,
                       weight_decay=2e-4, epochs=7, mini_batch=10)
        got, got_history = train_rbm(data, 12, cfg, np.random.default_rng(8))
        want, want_history = reference_train_rbm(data, 12, cfg, np.random.default_rng(8))
        for name in ("weights", "visible_bias", "hidden_bias"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes(), name
        assert got_history == want_history

    def test_cd1_steps_run_the_oracle_checked_conditionals(self, monkeypatch):
        # the conditionals TestConditionals checks against the enumerated
        # joint are the ones training runs: two hidden, one visible per step
        calls = {}
        for name in ("hidden_given_visible", "visible_given_hidden"):
            def counting(machine, x, name=name, conditional=getattr(rbm, name)):
                calls[name] = calls.get(name, 0) + 1
                return conditional(machine, x)

            monkeypatch.setattr(rbm, name, counting)
        data = make_digits(per_class=2, side=8, seed=0).features  # 20 rows
        train_rbm(data, 5, CdConfig(epochs=3, mini_batch=7), np.random.default_rng(0))
        steps = 3 * 3  # mini-batches of 7, 7 and 6 rows, three epochs
        assert calls == {"hidden_given_visible": 2 * steps, "visible_given_hidden": steps}

    def test_float32_data_keeps_float32_parameters(self):
        data = make_digits(per_class=2, side=8, seed=0).features.astype(np.float32)
        machine, _ = train_rbm(data, 5, CdConfig(epochs=2, mini_batch=7))
        assert machine.weights.dtype == np.float32
        assert machine.visible_bias.dtype == np.float32
        assert machine.hidden_bias.dtype == np.float32

    def test_divergence_of_a_bias_is_caught(self):
        # with no hidden units W is empty, so only the bias check can see the
        # visible bias run off to infinity under a huge rate and momentum
        data = np.ones((4, 3))
        cfg = CdConfig(learning_rate=1e308, momentum=0.9, initial_momentum=0.9,
                       weight_decay=0.0, epochs=3, mini_batch=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="diverged"):
                train_rbm(data, 0, cfg, np.random.default_rng(0))


class TestTrainStack:
    def test_single_pair_smoke(self):
        data = make_digits(per_class=2, side=8, seed=0)
        stack = train_stack(data, [64, 10], CdConfig(epochs=1, mini_batch=5, seed=1))
        assert len(stack) == 1
        assert stack[0].weights.shape == (64, 10)

    def test_chained_shapes(self):
        data = make_digits(per_class=2, side=8, seed=1)
        stack = train_stack(data, [64, 12, 8, 6, 4],
                            CdConfig(epochs=1, mini_batch=10, seed=2))
        shapes = [m.weights.shape for m in stack]
        assert shapes == [(64, 12), (12, 8), (8, 6), (6, 4)]
        for machine in stack:
            assert np.all(np.isfinite(machine.weights))

    def test_only_machines_below_the_top_propagate_the_full_set(self, monkeypatch):
        # each machine but the top one feeds the next: one full-set pass
        # apiece; every other call is a CD-1 step on at most mini_batch rows
        data = make_digits(per_class=2, side=8, seed=1)  # 20 rows
        full_passes, conditional = [], rbm.hidden_given_visible

        def recording(machine, v):
            if v.shape[0] == len(data):
                full_passes.append(machine)
            return conditional(machine, v)

        monkeypatch.setattr(rbm, "hidden_given_visible", recording)
        stack = train_stack(data, [64, 12, 8, 4], CdConfig(epochs=2, mini_batch=8, seed=2))
        assert len(full_passes) == 2
        assert full_passes[0] is stack[0] and full_passes[1] is stack[1]

    def test_wrong_input_width(self):
        data = make_digits(per_class=1, side=8, seed=0)
        with pytest.raises(DimensionError):
            train_stack(data, [10, 5], CdConfig(epochs=1))

    def test_too_few_layers(self):
        data = make_digits(per_class=1, side=8, seed=0)
        with pytest.raises(ConfigError):
            train_stack(data, [64], CdConfig(epochs=1))


class TestExactLikelihood:
    def test_uniform_model(self):
        machine = Rbm(np.zeros((5, 3)), np.zeros(5), np.zeros(3))
        rows = np.random.default_rng(0).integers(0, 2, size=(4, 5)).astype(float)
        np.testing.assert_allclose(
            log_prob_visible(machine, rows), -5 * np.log(2), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        machine = random_rbm(3, 2, seed=13)
        all_v = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        probs = np.exp(log_prob_visible(machine, all_v))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
