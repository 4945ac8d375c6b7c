import numpy as np
import pytest

from dnetknn import classify
from dnetknn.classify import (
    _CHUNK_ROWS,
    PREDICTION,
    energy_predict_all,
    error_rate,
    knn_predict,
    save_predictions,
)
from dnetknn.errors import CapacityError, ConsistencyError, DimensionError
from dnetknn.neighbors import NeighborConfig

from test_neighbors import integer_dataset


def oracle_knn(train_codes, train_labels, test_code, k):
    """Full-sort reference with explicit tie rules."""
    scored = sorted(
        (sum((float(a) - float(b)) ** 2 for a, b in zip(train_codes[j], test_code)), j)
        for j in range(len(train_codes))
    )
    top = [j for _, j in scored[:k]]
    votes = {}
    for j in top:
        votes[train_labels[j]] = votes.get(train_labels[j], 0) + 1
    best = max(votes.values())
    tied = {label for label, v in votes.items() if v == best}
    if len(tied) == 1:
        return tied.pop()
    for j in top:  # nearest neighbor among the tied classes decides
        if train_labels[j] in tied:
            return train_labels[j]


def oracle_energy(train_codes, train_labels, test_code, k, m):
    """Triple-loop reference for the hypothesized-class energies."""
    num_classes = int(max(train_labels)) + 1
    d = [sum((float(a) - float(b)) ** 2 for a, b in zip(row, test_code))
         for row in train_codes]
    by_class = {}
    for cls in range(num_classes):
        idx = [j for j in range(len(train_codes)) if train_labels[j] == cls]
        idx.sort(key=lambda j: (d[j], j))
        by_class[cls] = idx
    energies = []
    for hyp in range(num_classes):
        targets = by_class[hyp][:k]
        impostors = []
        for cls in range(num_classes):
            if cls != hyp:
                impostors.extend(by_class[cls][:m])
        total = 0.0
        for l in targets:
            for j in impostors:
                total += max(0.0, 1.0 + d[l] - d[j])
        energies.append(total)
    best = min(energies)
    label = energies.index(best)  # smaller class id on ties
    return label, energies


class TestKnnPredict:
    def test_single_training_point(self):
        preds = knn_predict(np.array([[1.0, 2.0]]), np.array([4]),
                            np.random.default_rng(0).random((5, 2)), 1)
        assert all(p.label == 4 for p in preds)

    def test_exact_duplicate_wins_at_k1(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        labels = np.array([0, 1, 2])
        preds = knn_predict(train, labels, np.array([[5.0, 5.0]]), 1)
        assert preds[0].label == 1
        assert preds[0].score == 1.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_full_sort_oracle(self, k):
        rng = np.random.default_rng(50)
        train = rng.random((50, 4))
        labels = rng.integers(0, 3, size=50)
        test = rng.random((20, 4))
        cases = [(train, labels, test),
                 (train, labels, rng.random((_CHUNK_ROWS + 45, 4)))]  # two chunks
        for _ in range(3):  # integer grid: many exact distance ties
            data = integer_dataset(rng)
            grid_test = rng.integers(0, 12, size=(30, data.features.shape[1]))
            cases.append((data.features, data.labels, grid_test.astype(np.float64)))
        for train, labels, test in cases:
            preds = knn_predict(train, labels, test, k)
            assert len(preds) == len(test)
            for point, pred in zip(test, preds):
                assert pred.label == oracle_knn(train, labels, point, k)

    def test_distance_tie_breaks_to_smaller_index(self):
        train = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        labels = np.array([2, 1, 0])
        preds = knn_predict(train, labels, np.array([[0.0, 0.0]]), 1)
        assert preds[0].label == 2  # both at distance 1; index 0 wins

    def test_vote_tie_breaks_to_nearest_tied_class(self):
        train = np.array([[1.0], [2.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        preds = knn_predict(train, labels, np.array([[6.4]]), 4)
        # two votes each; nearest neighbor (10.0, class 1) decides
        assert preds[0].label == 1

    def test_empty_training_set(self):
        with pytest.raises(CapacityError):
            knn_predict(np.empty((0, 2)), np.empty(0, np.int64), np.zeros((1, 2)), 1)

    def test_k_too_large(self):
        with pytest.raises(CapacityError):
            knn_predict(np.zeros((3, 2)), np.zeros(3, np.int64), np.zeros((1, 2)), 4)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(51)
        train = rng.standard_normal((30, 3))
        labels = rng.integers(0, 3, size=30)
        test = rng.standard_normal((10, 3))
        before = [p.label for p in knn_predict(train, labels, test, 3)]
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = rng.standard_normal(3)
        after = [p.label for p in knn_predict(train @ q + shift, labels,
                                              test @ q + shift, 3)]
        assert before == after

    @pytest.mark.parametrize("codes", ["int64", "float16"])
    def test_off_grid_codes_are_compared_in_float64(self, codes):
        # integers too large for the byte grid, and float16 codes whose squared
        # distances overflow float16: both vote as their float64 values do
        rng = np.random.default_rng(57)
        if codes == "int64":
            train, test = (rng.integers(-2 ** 30, 2 ** 30, (rows, 3)) for rows in (40, 25))
        else:
            train, test = ((rng.standard_normal((rows, 3)) * 300).astype(np.float16)
                           for rows in (40, 25))
        labels = rng.integers(0, 3, size=40)
        got = knn_predict(train, labels, test, 3)
        want = knn_predict(train.astype(np.float64), labels, test.astype(np.float64), 3)
        assert got.tobytes() == want.tobytes()


class TestEnergyPredict:
    def test_coincident_cluster_has_zero_energy(self):
        rng = np.random.default_rng(52)
        near = rng.normal(0.0, 0.05, size=(5, 2))
        far = rng.normal(50.0, 0.05, size=(5, 2))
        train = np.vstack([near, far])
        labels = np.array([0] * 5 + [1] * 5)
        pred = energy_predict_all(train, labels, [np.zeros(2)], NeighborConfig(k=2, m=2))[0]
        assert pred.label == 0
        assert pred.score == 0.0  # negative energy of an all-slack hypothesis

    def test_symmetric_tie_takes_smaller_class_id(self):
        train = np.array([[-2.0], [-3.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        pred = energy_predict_all(train, labels, [np.zeros(1)], NeighborConfig(k=1, m=1))[0]
        assert pred.label == 0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(53)
        train = rng.standard_normal((30, 3))
        labels = np.concatenate([np.full(10, c) for c in range(3)]).astype(np.int64)
        cfg = NeighborConfig(k=3, m=4)
        for _ in range(10):
            point = rng.standard_normal(3)
            pred = energy_predict_all(train, labels, [point], cfg)[0]
            want_label, want_energies = oracle_energy(train, labels, point, 3, 4)
            assert pred.label == want_label
            assert -pred.score == pytest.approx(want_energies[want_label], rel=1e-10)
        cases = [(train, labels, rng.standard_normal((_CHUNK_ROWS + 45, 3))),  # two chunks
                 (train.astype(np.float32), labels,
                  rng.standard_normal((20, 3)).astype(np.float32))]
        for _ in range(3):  # integer grid: many exact distance ties
            data = integer_dataset(rng, n_range=(40, 60))
            grid_test = rng.integers(0, 12, size=(20, data.features.shape[1]))
            cases.append((data.features, data.labels, grid_test.astype(np.float64)))
        for train, labels, test in cases:
            preds = energy_predict_all(train, labels, test, cfg)
            assert len(preds) == len(test)
            for point, pred in zip(test, preds):
                want_label, want_energies = oracle_energy(train, labels, point, 3, 4)
                assert pred.label == want_label
                assert -pred.score == pytest.approx(want_energies[want_label], rel=1e-10)

    def test_capacity_per_class(self):
        train = np.zeros((4, 2))
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(CapacityError, match="class 1"):
            energy_predict_all(train, labels, [np.zeros(2)], NeighborConfig(k=2, m=2))

    def test_agrees_with_knn_on_well_separated_data(self):
        rng = np.random.default_rng(54)
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        train = np.concatenate([c + rng.normal(0, 0.3, (8, 2)) for c in centers])
        labels = np.repeat(np.arange(3), 8)
        test = np.concatenate([c + rng.normal(0, 0.3, (4, 2)) for c in centers])
        knn_labels = [p.label for p in knn_predict(train, labels, test, 1)]
        energy_labels = [p.label for p in
                         energy_predict_all(train, labels, test, NeighborConfig(1, 2))]
        assert knn_labels == energy_labels

    def test_each_hypothesis_uses_k_m_cminus1_terms(self):
        # all training codes coincide with the test point, so every hinge
        # term equals exactly 1 and each hypothesis energy is k*m*(c-1)
        train = np.zeros((9, 2))
        labels = np.repeat(np.arange(3), 3)
        pred = energy_predict_all(train, labels, [np.zeros(2)], NeighborConfig(k=2, m=3))[0]
        assert pred.label == 0  # three-way tie -> smallest class id
        assert -pred.score == 2 * 3 * (3 - 1)


@pytest.mark.parametrize("predict", [
    lambda train, labels, test: knn_predict(train, labels, test, 1),
    lambda train, labels, test: energy_predict_all(train, labels, test, NeighborConfig(1, 1)),
], ids=["knn", "energy"])
@pytest.mark.parametrize("n_train, labels, width, error", [
    (0, [], 3, CapacityError),
    (20, np.arange(14) % 2, 3, ConsistencyError),
    (20, np.arange(40) % 2, 3, ConsistencyError),
    (20, np.arange(20) % 2 - 1, 3, ConsistencyError),
    (20, np.arange(20) % 2, 4, DimensionError),
], ids=["empty", "few-labels", "many-labels", "negative-label", "width"])
def test_classifiers_check_inputs(predict, n_train, labels, width, error):
    train = np.random.default_rng(55).standard_normal((n_train, 3))
    with pytest.raises(error):
        predict(train, labels, np.zeros((2, width)))


@pytest.mark.parametrize("predict", [
    lambda train, labels, test: knn_predict(train, labels, test, 3),
    lambda train, labels, test: energy_predict_all(train, labels, test, NeighborConfig(2, 3)),
], ids=["knn", "energy"])
def test_classifiers_form_one_distance_block_per_chunk(monkeypatch, predict):
    calls = []
    original = classify.pixel_dists

    def counting(a, b):
        calls.append((a.rows.shape[0], b.rows.shape[0]))
        return original(a, b)

    monkeypatch.setattr(classify, "pixel_dists", counting)
    rng = np.random.default_rng(58)
    predict(rng.standard_normal((30, 3)), np.repeat(np.arange(3), 10),
            rng.standard_normal((_CHUNK_ROWS + 1, 3)))
    assert calls == [(_CHUNK_ROWS, 30), (1, 30)]


def predictions(labels, scores=None):
    """A PREDICTION record array with the given labels (scores default to 1)."""
    out = np.recarray(len(labels), dtype=PREDICTION)
    out.label = labels
    out.score = 1.0 if scores is None else scores
    return out


@pytest.mark.parametrize("predict", [
    lambda train, labels, test: knn_predict(train, labels, test, 3),
    lambda train, labels, test: energy_predict_all(train, labels, test, NeighborConfig(2, 3)),
], ids=["knn", "energy"])
def test_classifiers_return_one_record_per_test_row(predict):
    rng = np.random.default_rng(56)
    train = rng.standard_normal((30, 3))
    labels = np.repeat(np.arange(3), 10)
    for rows in (0, 1, _CHUNK_ROWS, _CHUNK_ROWS + 45):
        preds = predict(train, labels, rng.standard_normal((rows, 3)))
        assert isinstance(preds, np.recarray)
        assert preds.dtype == np.dtype((np.record, PREDICTION))
        assert preds.shape == (rows,)


class TestErrorRate:
    def test_all_correct(self):
        assert error_rate(predictions([1, 0]), [1, 0]) == 0.0

    def test_all_wrong(self):
        assert error_rate(predictions([1, 0]), [0, 1]) == 1.0

    def test_counting(self):
        assert error_rate(predictions([0] * 97 + [1] * 3), [0] * 100) == pytest.approx(0.03)

    def test_length_mismatch(self):
        with pytest.raises(ConsistencyError):
            error_rate(predictions([0]), [0, 1])

    def test_empty_input_refused(self):
        # no prediction is no evidence of a perfect score
        with pytest.raises(CapacityError, match="at least one"):
            error_rate(predictions([]), [])


def test_save_predictions(tmp_path):
    path = tmp_path / "preds.csv"
    save_predictions(path, predictions([3, 1], [2.0, -4.5]), [3, 0], header=True)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,true_label,predicted_label,score"
    assert lines[1] == "0,3,3,2"
    assert lines[2] == "1,0,1,-4.5"
