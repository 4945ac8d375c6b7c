import tracemalloc

import numpy as np
import pytest

from dnetknn.dataset import Dataset
from dnetknn.encoder import EncoderParams, backward, forward, forward_with_cache
from dnetknn.errors import ConsistencyError
from dnetknn.margin import (
    loss,
    loss_and_code_grad,
    loss_and_param_grad,
)
from dnetknn.neighbors import NeighborConfig, TriplesTable, build_triples

from _synthetic import make_blobs
from test_encoder import random_params
from test_neighbors import integer_dataset


def oracle_loss_and_grad(codes, rows):
    """Naive per-row reference: one Python loop, three scatters per row."""
    grad = np.zeros_like(codes)
    total = 0.0
    active = 0
    for i, l, j in rows:
        pull = codes[i] - codes[l]
        push = codes[i] - codes[j]
        z = 1.0 + float(pull @ pull) - float(push @ push)
        if z > 0.0:
            total += z
            active += 1
            grad[i] += 2.0 * pull - 2.0 * push
            grad[l] -= 2.0 * pull
            grad[j] += 2.0 * push
    return total, active, grad


def random_table(rng, labels, k, impostors):
    """A random complete table: row i holds k same-class targets (never i)
    and `impostors` foreign points, drawn with replacement, so a row may
    repeat an index and its indices are in no particular order."""
    n = labels.size
    targets = np.empty((n, k), dtype=np.int64)
    foreign = np.empty((n, impostors), dtype=np.int64)
    for i in range(n):
        same = np.flatnonzero(labels == labels[i])
        targets[i] = rng.choice(same[same != i], size=k)
        foreign[i] = rng.choice(np.flatnonzero(labels != labels[i]), size=impostors)
    return TriplesTable(targets, foreign)


def norm_relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def fd_gradient(fn, x, h=1e-5):
    grad = np.empty_like(x)
    for idx in range(x.size):
        up, down = x.copy(), x.copy()
        up.flat[idx] += h
        down.flat[idx] -= h
        grad.flat[idx] = (fn(up) - fn(down)) / (2 * h)
    return grad


def code_grad(codes, table):
    """loss_and_code_grad with its gradient function called at once."""
    result, gradient = loss_and_code_grad(codes, table)
    return result, gradient()


def param_grad(params, batch, table):
    """loss_and_param_grad with its gradient function called at once."""
    result, gradient = loss_and_param_grad(params, batch, table)
    return result, gradient()


class TestLossAndCodeGrad:
    def test_inactive_single_triple(self):
        # rows (0, 1, 2), (1, 0, 2) and (2, 1, 0): z = -7, -2 and -4
        codes = np.array([[0.0], [1.0], [3.0]])
        table = TriplesTable([[1], [0], [1]], [[2], [2], [0]])
        result, grad = code_grad(codes, table)
        assert result.value == 0.0
        assert result.active_triples == 0
        assert not grad.any()

    def test_hand_evaluated_single_triple(self):
        # only row (0, 1, 2) is active: anchors 1-3 take themselves as target
        # and a point at least 98 away as impostor
        codes = np.array([[0.0], [1.0], [1.2], [100.0]])
        table = TriplesTable([[1], [1], [2], [3]], [[2], [3], [3], [0]])
        result, grad = code_grad(codes, table)
        assert result.value == pytest.approx(0.56, abs=1e-12)
        assert result.active_triples == 1
        # d/dy0: 2(y0-y1) - 2(y0-y2) = -2 + 2.4 = 0.4
        np.testing.assert_allclose(grad.ravel(), [0.4, 2.0, -2.4, 0.0], atol=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(10, 30))
            labels = rng.integers(0, 3, size=n)
            labels[:6] = [0, 1, 2, 0, 1, 2]
            codes = rng.standard_normal((n, int(rng.integers(1, 5))))
            table = random_table(rng, labels, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
            result, grad = code_grad(codes, table)
            want_value, want_active, want_grad = oracle_loss_and_grad(codes, table.rows)
            assert result.value == pytest.approx(want_value, abs=1e-12)
            assert result.active_triples == want_active
            np.testing.assert_allclose(grad, want_grad, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_codes_match_naive_reference_exactly(self, dtype):
        # integral codes keep every sum exact, so the scatter equals the
        # per-row loop bit for bit: rows on the kink and repeated indices too
        rng = np.random.default_rng(28)
        on_kink = 0
        for _ in range(50):
            n = int(rng.integers(6, 25))
            labels = rng.integers(0, 3, size=n)
            labels[:6] = [0, 1, 2, 0, 1, 2]
            codes = rng.integers(-2, 3, size=(n, int(rng.integers(1, 4)))).astype(dtype)
            table = random_table(rng, labels, int(rng.integers(1, 4)), int(rng.integers(1, 7)))
            i, l, j = table.rows.T
            z = 1 + ((codes[i] - codes[l]) ** 2).sum(1) - ((codes[i] - codes[j]) ** 2).sum(1)
            on_kink += int((z == 0).any())
            result, grad = code_grad(codes, table)
            want_value, want_active, want_grad = oracle_loss_and_grad(codes, table.rows)
            assert (result.value, result.active_triples) == (want_value, want_active)
            assert grad.dtype == codes.dtype
            np.testing.assert_array_equal(grad, want_grad)
        assert on_kink > 10

    def test_matches_naive_reference_on_large_table(self):
        rng = np.random.default_rng(22)
        labels = rng.integers(0, 4, size=60)
        labels[:8] = np.tile(np.arange(4), 2)
        codes = rng.standard_normal((60, 3))
        table = random_table(rng, labels, 5, 40)
        assert len(table) == 12_000
        result, grad = code_grad(codes, table)
        want_value, want_active, want_grad = oracle_loss_and_grad(codes, table.rows)
        assert result.value == pytest.approx(want_value, rel=1e-12)
        assert result.active_triples == want_active
        np.testing.assert_allclose(grad, want_grad, atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        labels = rng.integers(0, 3, size=20)
        labels[:3] = np.arange(3)
        codes = rng.standard_normal((20, 3))
        table = random_table(rng, labels, 1, 3)
        # keep every row away from the hinge kink so differencing is valid
        i, l, j = table.rows.T
        z = 1.0 + ((codes[i] - codes[l]) ** 2).sum(1) - ((codes[i] - codes[j]) ** 2).sum(1)
        assert np.abs(z).min() > 1e-3
        _, grad = code_grad(codes, table)
        numeric = fd_gradient(lambda c: loss(c, table).value, codes)
        assert norm_relative_error(grad, numeric) < 1e-6

    def test_unreferenced_rows_have_exactly_zero_gradient(self):
        # points 6-11 sit 10 apart and far from 0-5; each is its own target
        # and the next one its impostor, so no active row references them
        rng = np.random.default_rng(24)
        codes = rng.standard_normal((12, 2))
        codes[6:, 0] = 10.0 * np.arange(1, 7)
        near = random_table(rng, np.array([0, 1, 0, 1, 0, 1]), 1, 1)
        far = np.arange(6, 12)
        table = TriplesTable(np.concatenate([near.targets, far[:, None]]),
                             np.concatenate([near.impostors, np.roll(far, 1)[:, None]]))
        result, grad = code_grad(codes, table)
        assert result.active_triples > 0 and grad[:6].any()
        assert not grad[6:].any()

    def test_loss_only_agrees_with_loss_and_grad(self):
        rng = np.random.default_rng(25)
        labels = np.tile(np.arange(3), 8)
        codes = rng.standard_normal((24, 4))
        table = random_table(rng, labels, 2, 6)
        a = loss(codes, table)
        b, _ = loss_and_code_grad(codes, table)
        assert a.value == b.value and a.active_triples == b.active_triples

    def test_index_out_of_range(self):
        # indices are checked once, when the table is built
        for targets, impostors in (([[1], [0], [3]], [[2], [2], [0]]),
                                   ([[1], [0], [1]], [[2], [-1], [0]])):
            with pytest.raises(ConsistencyError, match=r"\[0, 3\)"):
                TriplesTable(targets, impostors)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_code_rows_must_match_the_table(self, rows):
        table = TriplesTable([[1], [0], [1]], [[2], [2], [0]])
        for evaluate in (loss, loss_and_code_grad):
            with pytest.raises(ConsistencyError, match="for a table of 3 anchors"):
                evaluate(np.zeros((rows, 2)), table)

    def test_zero_iff_no_active(self):
        rng = np.random.default_rng(26)
        labels = np.tile(np.arange(2), 6)
        for _ in range(20):
            codes = rng.standard_normal((12, 2)) * rng.uniform(0.1, 10)
            table = random_table(rng, labels, 1, 3)
            result = loss(codes, table)
            assert (result.value == 0.0) == (result.active_triples == 0)


class TestFactoredTable:
    """Tables from build_triples, scanned in factored form, against the
    per-row oracle on their materialized rows."""

    # (value rel, gradient norm-relative) per code dtype
    TOLERANCES = {np.float64: (1e-12, 1e-10), np.float32: (1e-5, 1e-5)}

    def check(self, codes, table):
        want_value, want_active, want_grad = oracle_loss_and_grad(codes, table.rows)
        value_tol, grad_tol = self.TOLERANCES[codes.dtype.type]
        only = loss(codes, table)
        result, grad = code_grad(codes, table)
        for got in (only, result):
            assert got.active_triples == want_active
            assert got.value == pytest.approx(want_value, rel=value_tol, abs=value_tol)
        assert grad.dtype == codes.dtype
        assert norm_relative_error(grad, want_grad) < grad_tol
        return want_active

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_integer_codes_with_hinge_ties(self, dtype):
        # integral codes make every hinge argument an exact integer, so many
        # rows sit exactly on the kink at 0
        rng = np.random.default_rng(50)
        checked = 0
        while checked < 6:
            data = integer_dataset(rng)
            cfg = NeighborConfig(k=int(rng.integers(1, 4)), m=int(rng.integers(1, 4)))
            counts = np.bincount(data.labels, minlength=data.num_classes)
            if counts.min() < max(cfg.k + 1, cfg.m):
                continue
            checked += 1
            table = build_triples(data, cfg)
            codes = data.features.astype(dtype)
            i, l, j = table.rows.T
            z = ((codes[i] - codes[l]) ** 2).sum(1) - ((codes[i] - codes[j]) ** 2).sum(1) + 1
            assert (z == 0).any()
            self.check(codes, table)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blob_codes(self, dtype):
        data = make_blobs(per_class=30, num_classes=4, dim=6, seed=51)
        table = build_triples(data, NeighborConfig(k=3, m=4))
        proj = np.random.default_rng(52).standard_normal((6, 3)) * 0.3
        codes = (data.features @ proj).astype(dtype)
        active = self.check(codes, table)
        assert 0 < active < len(table)

    def test_peak_memory_below_materialized_rows(self):
        rng = np.random.default_rng(53)
        n, k, impostors = 4000, 5, 200
        table = TriplesTable(rng.integers(0, n, size=(n, k)),
                             rng.integers(0, n, size=(n, impostors)))
        assert len(table) >= 4_000_000
        codes = rng.standard_normal((n, 10))
        tracemalloc.start()
        try:
            result, _ = code_grad(codes, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < result.active_triples < len(table)
        # materialized (T, 3) int64 rows alone would take 24 bytes a row
        assert peak < 24 * len(table)


class TestInvariance:
    def test_translation_and_rotation(self):
        rng = np.random.default_rng(27)
        labels = np.tile(np.arange(3), 10)
        codes = rng.standard_normal((30, 4))
        table = random_table(rng, labels, 2, 3)
        base = loss(codes, table).value
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        shifted = codes @ q + rng.standard_normal(4)
        assert loss(shifted, table).value == pytest.approx(base, rel=1e-9)


class TestLossAndParamGrad:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_function_matches_eager_chain(self, dtype):
        # the returned function reuses the call's activations and per-pair
        # counts; it must equal the whole chain recomputed at the same point
        data = make_blobs(per_class=12, num_classes=3, dim=6, seed=34)
        table = build_triples(data, NeighborConfig(k=2, m=3))
        params = random_params([6, 5, 3], seed=35).astype(dtype)
        x = data.features.astype(dtype)
        result, gradient = loss_and_param_grad(params, x, table)
        assert 0 < result.active_triples < len(table)
        codes, cache = forward_with_cache(params, x)
        _, eager_code_grad = code_grad(codes, table)
        want = backward(params, cache, eager_code_grad)
        got = gradient()
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert gradient().tobytes() == want.tobytes()

    def test_zero_loss_means_zero_gradient(self):
        params = random_params([3, 2], seed=30)
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [100.0, 0.0, 0.0], [101.0, 0.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        table = build_triples(Dataset(x, labels, 2), NeighborConfig(1, 1))
        result, grad = param_grad(params, x, table)
        if result.value == 0.0:
            assert not grad.any()
        # force well-separated codes to guarantee the zero-loss branch runs
        wide = EncoderParams.from_layers([(np.eye(3, 2) * 50.0, np.zeros(2))])
        result, grad = param_grad(wide, x, table)
        assert result.value == 0.0
        assert not grad.any()

    def test_matches_finite_differences_through_deep_net(self):
        data = make_blobs(per_class=7, num_classes=3, dim=6, seed=31)
        table = build_triples(data, NeighborConfig(k=2, m=2))
        params = random_params([6, 5, 4, 3, 2], seed=32)
        x0 = params.vector

        def value(vec):
            return loss(forward(EncoderParams(params.widths, vec), data.features),
                        table).value

        _, grad = param_grad(params, data.features, table)
        numeric = fd_gradient(value, x0)
        assert norm_relative_error(grad, numeric) < 1e-5

    def test_single_linear_layer_matches_hand_formula(self):
        # margin part only: dW = sum over active rows of
        # 2 [(xi-xl)(xi-xl)^T - (xi-xj)(xi-xj)^T] W
        rng = np.random.default_rng(33)
        x = rng.standard_normal((12, 4))
        labels = np.tile(np.arange(2), 6)
        w = rng.standard_normal((4, 2)) * 0.5
        params = EncoderParams.from_layers([(w, np.zeros(2))])
        table = random_table(rng, labels, 1, 3)
        codes = x @ w
        i, l, j = table.rows.T
        z = 1.0 + ((codes[i] - codes[l]) ** 2).sum(1) - ((codes[i] - codes[j]) ** 2).sum(1)
        act = z > 0
        dw_hand = np.zeros_like(w)
        for ii, ll, jj in table.rows[act]:
            dl = (x[ii] - x[ll])[:, None]
            dj = (x[ii] - x[jj])[:, None]
            dw_hand += 2.0 * (dl @ dl.T - dj @ dj.T) @ w
        _, grad = param_grad(params, x, table)
        got_dw = grad[: w.size].reshape(w.shape)
        np.testing.assert_allclose(got_dw, dw_hand, atol=1e-9)
        # bias cancels in every distance, so its gradient vanishes (up to
        # floating-point cancellation in the scatter)
        np.testing.assert_allclose(grad[w.size :], 0.0, atol=1e-10)
