import itertools
import math

import numpy as np
import pytest

from dnetknn.errors import CapacityError, ConfigError, DimensionError
from dnetknn.rbm import (
    CdConfig,
    Rbm,
    exact_log_likelihood,
    hidden_given_visible,
    init_rbm,
    log_prob_visible,
    sigmoid,
    train_rbm,
    train_stack,
    visible_given_hidden,
)

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


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

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

    def test_rejects_out_of_range_data(self):
        with pytest.raises(ConfigError):
            train_rbm(np.array([[1.5, 0.0]]), 2, CdConfig(epochs=1))


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

    def test_size_guard(self):
        machine = Rbm(np.zeros((15, 15)), np.zeros(15), np.zeros(15))
        with pytest.raises(CapacityError):
            exact_log_likelihood(machine, np.zeros((1, 15)))
