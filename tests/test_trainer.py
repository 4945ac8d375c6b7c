import weakref

import numpy as np
import pytest

from dnetknn import margin, trainer
from dnetknn.encoder import (
    EncoderParams,
    forward,
    from_rbm_stack,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from dnetknn.errors import CapacityError, ConfigError, DimensionError
from dnetknn.neighbors import NeighborConfig, build_triples
from dnetknn.rbm import CdConfig, train_stack
from dnetknn.trainer import TrainConfig, finetune, polak_ribiere_minimize

from _synthetic import make_blobs, make_digits


def quadratic_problem(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    a = a @ a.T + dim * np.eye(dim)
    b = rng.standard_normal(dim)

    def objective(x):
        return float(0.5 * x @ a @ x - b @ x), lambda: a @ x - b

    return objective


class TestPolakRibiere:
    def test_trajectory_is_non_increasing(self):
        objective = quadratic_problem(8, seed=0)
        x0 = np.random.default_rng(1).standard_normal(8)
        _, trajectory = polak_ribiere_minimize(objective, x0, 10)
        assert len(trajectory) == 11
        assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))

    def test_reaches_quadratic_minimum(self):
        objective = quadratic_problem(5, seed=2)
        x0 = np.zeros(5)
        x, trajectory = polak_ribiere_minimize(objective, x0, 40)
        grad = objective(x)[1]()
        assert np.linalg.norm(grad) < 1e-3 * max(1.0, abs(trajectory[0]))

    def test_zero_gradient_is_stationary(self):
        def flat(x):
            return 1.0, lambda: np.zeros_like(x)

        def peak(x):  # zero gradient at its maximum x = 1 only
            return 1.0 - float((x - 1.0) @ (x - 1.0)), lambda: -2.0 * (x - 1.0)

        for objective in (flat, peak):
            evaluated = []

            def counted(x):
                evaluated.append(x)
                return objective(x)

            x, trajectory = polak_ribiere_minimize(counted, np.ones(4), 3)
            np.testing.assert_array_equal(x, np.ones(4))
            assert trajectory == [1.0, 1.0, 1.0, 1.0]
            assert len(evaluated) == 1  # no trial point along a zero direction

    def test_each_point_evaluated_once_and_differentiated_only_if_accepted(self):
        # from the origin the first trial overshoots the minimum along -g,
        # so the line searches backtrack
        quadratic = quadratic_problem(6, seed=3)
        points, values, differentiated, live = [], [], [], []

        def objective(x):
            # the previous point's gradient function was dropped first
            assert all(ref() is None for ref in live)
            value, gradient = quadratic(x)
            points.append(x.tobytes())
            values.append(value)
            index = len(values) - 1

            def counted():
                differentiated.append(index)
                return gradient()

            live.append(weakref.ref(counted))
            return value, counted

        _, trajectory = polak_ribiere_minimize(objective, np.zeros(6), 6)
        accepted = [b for a, b in zip(trajectory, trajectory[1:]) if b < a]
        assert len(values) > 1 + len(accepted)  # some trials were rejected
        assert len(set(points)) == len(points)
        assert differentiated[0] == 0
        assert [values[i] for i in differentiated] == [trajectory[0]] + accepted


class TestFinetune:
    def test_loss_non_increasing_within_batch_line_searches(self):
        data = make_blobs(per_class=10, num_classes=3, dim=6, seed=4)
        table = build_triples(data, NeighborConfig(k=2, m=2))
        params = init_encoder((6, 5, 2), seed=5, weight_scale=0.5)

        def objective(vec):
            result, gradient = margin.loss_and_param_grad(
                EncoderParams(params.widths, vec), data.features, table)
            return result.value, gradient

        _, trajectory = polak_ribiere_minimize(objective, params.vector, 3)
        assert len(trajectory) == 4
        assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("start", ["pretrained", "random"])
    def test_reused_evaluation_matches_recomputed_gradient(self, monkeypatch,
                                                           start, dtype):
        # each gradient reuses the evaluation that tested its point; a
        # gradient recomputed from scratch must change nothing, bit for bit
        data = make_digits(per_class=12, side=8, seed=12)
        # the pretrained start runs as one batch, the random one in two
        cfg = TrainConfig(layer_sizes=(64, 16, 4), k=2, m=2, epochs=2,
                          batch_size=120 if start == "pretrained" else 60,
                          cg_line_searches=3, seed=0, dtype=dtype)
        if start == "pretrained":
            init = from_rbm_stack(train_stack(data, cfg.layer_sizes,
                                              CdConfig(epochs=3, mini_batch=30, seed=0),
                                              dtype=np.dtype(dtype)))
        else:
            init = init_encoder(cfg.layer_sizes, seed=0)

        def run():
            trajectories = []

            def recording(*args):
                x, trajectory = polak_ribiere_minimize(*args)
                trajectories.append(trajectory)
                return x, trajectory

            monkeypatch.setattr(trainer, "polak_ribiere_minimize", recording)
            params, report = finetune(data, cfg, init)
            stats = [(e.loss, e.active_triples) for e in report.epochs]
            return params.vector.tobytes(), stats, trajectories

        reused = run()
        evaluations, gradients = [], []
        original = margin.loss_and_param_grad

        def recomputing(params, batch, table):
            evaluations.append(None)

            def gradient():
                gradients.append(None)
                return original(params, batch, table)[1]()

            return original(params, batch, table)[0], gradient

        monkeypatch.setattr(margin, "loss_and_param_grad", recomputing)
        assert run() == reused
        if start == "random":
            assert len(evaluations) > len(gradients)  # the line search backtracked

    def test_blobs_loss_collapses(self):
        data = make_blobs(per_class=100, num_classes=3, dim=10, seed=5,
                          center_spread=4.0)
        cfg = TrainConfig(layer_sizes=(10, 8, 2), k=2, m=3, batch_size=300,
                          epochs=10, cg_line_searches=3, seed=0)
        init = init_encoder((10, 8, 2), seed=0, weight_scale=0.5)
        initial = margin.loss(
            forward(init, data.features),
            build_triples(data, cfg.neighbor_config)).value
        params, report = finetune(data, cfg, init)
        assert len(report.losses) == 10
        assert report.losses[-1] < 0.01 * initial

    def test_best_parameters_returned(self):
        data = make_blobs(per_class=20, num_classes=2, dim=5, seed=6)
        cfg = TrainConfig(layer_sizes=(5, 3, 2), k=1, m=2, batch_size=40,
                          epochs=4, cg_line_searches=2, seed=1)
        init = init_encoder((5, 3, 2), seed=2, weight_scale=0.5)
        params, report = finetune(data, cfg, init)
        final = margin.loss(forward(params, data.features),
                            build_triples(data, cfg.neighbor_config)).value
        assert final == pytest.approx(min(report.losses), rel=1e-12)

    def test_init_shape_mismatch(self):
        data = make_blobs(per_class=10, num_classes=2, dim=5, seed=7)
        cfg = TrainConfig(layer_sizes=(5, 3, 2), k=1, m=1, batch_size=20, epochs=1)
        with pytest.raises(DimensionError):
            finetune(data, cfg, init_encoder((5, 4, 2), seed=0))

    @pytest.mark.parametrize("batch_size", [10, 20])
    def test_input_width_mismatch_fails_before_any_table(self, monkeypatch, batch_size):
        built = []

        def counting_build_triples(train, cfg):
            built.append(len(train))
            return build_triples(train, cfg)

        monkeypatch.setattr(trainer, "build_triples", counting_build_triples)
        data = make_blobs(per_class=10, num_classes=2, dim=5, seed=7)
        cfg = TrainConfig(layer_sizes=(6, 3, 2), k=1, m=1, batch_size=batch_size, epochs=1)
        with pytest.raises(DimensionError):
            finetune(data, cfg, init_encoder((6, 3, 2), seed=0))
        assert built == []

    def test_multi_batch_epochs_run(self):
        data = make_digits(per_class=8, side=8, seed=9)
        cfg = TrainConfig(layer_sizes=(64, 8, 2), k=1, m=1, batch_size=40,
                          epochs=2, cg_line_searches=1, seed=3)
        params, report = finetune(data, cfg, init_encoder((64, 8, 2), seed=1,
                                                          weight_scale=0.3))
        assert len(report.losses) == 2
        assert all(np.isfinite(l) for l in report.losses)

    def test_float32_mode(self):
        data = make_blobs(per_class=15, num_classes=2, dim=6, seed=10)
        cfg = TrainConfig(layer_sizes=(6, 4, 2), k=1, m=2, batch_size=30,
                          epochs=2, cg_line_searches=2, seed=4, dtype="float32")
        params, report = finetune(data, cfg, init_encoder((6, 4, 2), seed=5,
                                                          weight_scale=0.5))
        assert params.dtype == np.float32
        assert np.isfinite(report.losses[-1])

    def test_float32_objective_sees_only_float32_points(self, monkeypatch):
        # every point the objective evaluates, line-search trials included,
        # stays in the training dtype
        seen = []

        original = margin.loss_and_param_grad

        def recording(params, batch, table):
            seen.append(params.dtype)
            return original(params, batch, table)

        monkeypatch.setattr(margin, "loss_and_param_grad", recording)
        data = make_blobs(per_class=30, num_classes=3, dim=6, seed=0)
        cfg = TrainConfig(layer_sizes=(6, 4, 2), k=2, m=2, batch_size=90,
                          epochs=2, cg_line_searches=3, seed=0, dtype="float32")
        finetune(data, cfg, init_encoder((6, 4, 2), seed=0, weight_scale=0.5))
        assert len(seen) > 2 * (1 + cfg.cg_line_searches)
        assert set(seen) == {np.dtype(np.float32)}

    def test_ragged_set_trains_in_stratified_batches(self, monkeypatch):
        # 210 rows in batches of 100: two batches of 105, each holding 10 or
        # 11 members of every class, in every epoch
        built = []

        def counting_build_triples(train, cfg):
            built.append(np.bincount(train.labels, minlength=10).min())
            return build_triples(train, cfg)

        monkeypatch.setattr(trainer, "build_triples", counting_build_triples)
        data = make_blobs(per_class=21, num_classes=10, dim=4, seed=0)
        cfg = TrainConfig(layer_sizes=(4, 2), k=2, m=2, batch_size=100, epochs=2,
                          cg_line_searches=1, seed=0)
        _, report = finetune(data, cfg, init_encoder((4, 2), seed=0))
        assert len(report.losses) == 2
        assert built == [21, 10, 10, 10, 10]  # the full set, then 2 batches per epoch

    @pytest.mark.parametrize("case", [
        # class 2 has 3 members, dealt 2 and 1 into the two batches; k + 1 = 3
        dict(per_class=20, num_classes=3, keep=(2, 3), k=2, m=2, batch_size=20,
             message="batch 0 \\(22 rows\\): class 2 has 2 members"),
        # 5 members of each class per batch, fewer than m = 6
        dict(per_class=10, num_classes=3, keep=None, k=1, m=6, batch_size=15,
             message="batch 0 \\(15 rows\\): class 0 has 5 members; >= 6"),
        # 15-row batches cannot hold k + 1 = 2 members of each of 10 classes
        dict(per_class=3, num_classes=10, keep=None, k=1, m=1, batch_size=12,
             message="batch 0 \\(15 rows\\): class 1 has 1 members"),
    ])
    def test_under_filled_batch_fails_before_any_table(self, monkeypatch, case):
        built = []

        def counting_build_triples(*args):
            built.append(args)
            return build_triples(*args)

        monkeypatch.setattr(trainer, "build_triples", counting_build_triples)
        data = make_blobs(per_class=case["per_class"], num_classes=case["num_classes"],
                          dim=4, seed=0)
        if case["keep"] is not None:  # only the first few members of one class
            cls, count = case["keep"]
            data = data.subset(np.concatenate([np.flatnonzero(data.labels != cls),
                                               data.class_indices(cls)[:count]]))
        cfg = TrainConfig(layer_sizes=(4, 2), k=case["k"], m=case["m"],
                          batch_size=case["batch_size"], epochs=3, cg_line_searches=1)
        with pytest.raises(CapacityError, match=case["message"]):
            finetune(data, cfg, init_encoder((4, 2), seed=0))
        assert built == []


class TestPretrainThenFinetune:
    """The CLI pipeline: `pretrain` (train_stack) -> `finetune` from its
    checkpoint, or from a random start."""

    def digits(self):
        return make_digits(per_class=12, side=8, seed=11)

    def pretrained(self, data, cfg, cd):
        stack = train_stack(data, cfg.layer_sizes, cd, dtype=np.dtype(cfg.dtype))
        return finetune(data, cfg, from_rbm_stack(stack))

    def test_pretrained_beats_random_after_five_epochs(self):
        data = self.digits()
        cfg = TrainConfig(layer_sizes=(64, 24, 12, 4), k=2, m=3, batch_size=120,
                          epochs=5, cg_line_searches=3, seed=0)
        _, pretrained = self.pretrained(data, cfg, CdConfig(epochs=8, mini_batch=25, seed=0))
        _, random_start = finetune(data, cfg, init_encoder(cfg.layer_sizes, seed=cfg.seed))
        assert pretrained.losses[-1] < random_start.losses[-1]

    def test_two_layer_linear_pipeline(self):
        # degenerate depth: a single linear layer, the classic linear-map setting
        data = self.digits()
        cfg = TrainConfig(layer_sizes=(64, 4), k=1, m=2, batch_size=120,
                          epochs=2, cg_line_searches=2, seed=1)
        params, report = self.pretrained(data, cfg, CdConfig(epochs=2, mini_batch=30, seed=1))
        assert params.widths == (64, 4)
        assert len(params.layers) == 1
        assert np.isfinite(report.losses[-1])

    def test_checkpoint_round_trip_after_training(self, tmp_path):
        data = self.digits()
        cfg = TrainConfig(layer_sizes=(64, 10, 4), k=1, m=1, batch_size=120,
                          epochs=1, cg_line_searches=1, seed=2)
        params, _ = self.pretrained(data, cfg, CdConfig(epochs=1, mini_batch=30, seed=2))
        save_checkpoint(params, tmp_path / "m.dnkn")
        again = load_checkpoint(tmp_path / "m.dnkn")
        np.testing.assert_array_equal(forward(params, data.features[:5]),
                                      forward(again, data.features[:5]))

    def test_deterministic_repetition(self):
        data = self.digits()
        cfg = TrainConfig(layer_sizes=(64, 10, 4), k=1, m=2, batch_size=60,
                          epochs=3, cg_line_searches=2, seed=7)
        cd = CdConfig(epochs=3, mini_batch=30, seed=7)
        _, r1 = self.pretrained(data, cfg, cd)
        _, r2 = self.pretrained(data, cfg, cd)
        assert r1.losses == r2.losses


class TestTrainReport:
    def test_serialization(self, tmp_path):
        report = trainer.TrainReport()
        report.epochs.append(trainer.EpochStats(12.5, 4, 0.25))
        report.epochs.append(trainer.EpochStats(3.0, 1, 0.5))
        path = tmp_path / "report.csv"
        report.save(path)
        assert path.read_text().splitlines() == ["0,12.5,4,0.250", "1,3,1,0.500"]


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(layer_sizes=(4,))
    with pytest.raises(ConfigError):
        TrainConfig(layer_sizes=(4, 2), epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(layer_sizes=(4, 2), k=0)


@pytest.mark.parametrize("dtype", ["int32", "bool", "complex128", "mystery", "float16",
                                   "longdouble"])
def test_non_real_floating_dtype_rejected(dtype):
    with pytest.raises(ConfigError, match="dtype"):
        TrainConfig(layer_sizes=(4, 2), dtype=dtype)
