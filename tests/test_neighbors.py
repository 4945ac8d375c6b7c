import numpy as np
import pytest

from dnetknn import neighbors
from dnetknn.dataset import Dataset
from dnetknn.errors import CapacityError, ConfigError, DivergenceError
from dnetknn.neighbors import (
    _CHUNK_CELLS,
    NeighborConfig,
    build_triples,
    impostor_neighbors,
    nearest,
    sq_dists,
    target_neighbors,
)


def oracle_nearest(dists, count, candidates):
    """Full-row reference: the first `count` columns of a stable argsort."""
    return candidates[np.argsort(dists, axis=1, kind="stable")[:, :count]]


def oracle_sq_dists(a, b):
    """The direct formula sq_dists evaluates in place: |a|^2 + |b|^2 - 2 a b^T,
    clipped at zero, with three block-sized temporaries."""
    with np.errstate(over="ignore", invalid="ignore"):
        aa = (a * a).sum(axis=1)[:, None]
        bb = (b * b).sum(axis=1)[None, :]
        d = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def oracle_target_neighbors(data, k):
    """Quadratic reference: per anchor, same-class points sorted by
    (squared distance, index), exact arithmetic when features are integral."""
    n = len(data)
    out = []
    for i in range(n):
        scored = []
        for j in range(n):
            if j != i and data.labels[j] == data.labels[i]:
                scored.append((_oracle_dist(data.features[i], data.features[j]), j))
        scored.sort()
        out.append(sorted(j for _, j in scored[:k]))
    return np.array(out, dtype=np.int64)


def oracle_impostor_neighbors(data, m):
    n = len(data)
    out = []
    for i in range(n):
        chosen = []
        for cls in range(data.num_classes):
            if cls == data.labels[i]:
                continue
            scored = []
            for j in range(n):
                if data.labels[j] == cls:
                    scored.append((_oracle_dist(data.features[i], data.features[j]), j))
            scored.sort()
            chosen.extend(j for _, j in scored[:m])
        out.append(sorted(chosen))
    return np.array(out, dtype=np.int64)


def _oracle_dist(a, b):
    if np.all(a == np.round(a)) and np.all(b == np.round(b)):
        return sum((int(x) - int(y)) ** 2 for x, y in zip(a, b))
    return sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))


def oracle_triples(data, cfg):
    targets = oracle_target_neighbors(data, cfg.k)
    impostors = oracle_impostor_neighbors(data, cfg.m)
    rows = []
    for i in range(len(data)):
        for l in targets[i]:
            for j in impostors[i]:
                rows.append((i, l, j))
    return np.array(rows, dtype=np.int64)


def integer_dataset(rng, n_range=(20, 60), classes_range=(2, 4), dim_range=(2, 6),
                    grid=12):
    num_classes = int(rng.integers(*classes_range))
    dim = int(rng.integers(*dim_range))
    n = int(rng.integers(*n_range))
    labels = np.concatenate([
        np.arange(num_classes),  # every class at least once
        rng.integers(0, num_classes, size=n - num_classes),
    ]).astype(np.int64)
    feats = rng.integers(0, grid, size=(n, dim)).astype(np.float64)
    return Dataset(feats, labels, num_classes)


class TestNearest:
    def test_matches_stable_argsort_on_tie_heavy_blocks(self):
        rng = np.random.default_rng(9)
        for _ in range(400):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 25))
            dists = rng.integers(0, int(rng.integers(1, 5)), size=(rows, cols))
            dists = dists.astype(np.float64)
            if rng.random() < 0.5:
                dists[rng.random((rows, cols)) < 0.3] = np.inf
            candidates = np.sort(rng.choice(10 * cols, size=cols, replace=False))
            for count in range(1, cols + 1):
                np.testing.assert_array_equal(nearest(dists, count, candidates),
                                              oracle_nearest(dists, count, candidates))

    @pytest.mark.parametrize("dists", [
        [[2.0, 1.0, 1.0, np.inf, 0.0, 1.0]],  # a single row
        [[np.inf] * 4, [3.0, np.inf, 3.0, 3.0]],  # all inf; ties beside inf
        [[5.0] * 6, [0.0] * 6],  # every column tied
    ])
    def test_hand_blocks_every_count(self, dists):
        dists = np.array(dists)
        candidates = np.array([2, 3, 7, 11, 12, 40])[: dists.shape[1]]
        for count in range(1, dists.shape[1] + 1):
            np.testing.assert_array_equal(nearest(dists, count, candidates),
                                          oracle_nearest(dists, count, candidates))

    def test_blocks_larger_than_one_selection_step(self):
        rng = np.random.default_rng(10)
        cols = 1024
        dists = rng.integers(0, 4, size=(_CHUNK_CELLS // cols * 2 + 37, cols))
        dists = dists.astype(np.float64)
        candidates = np.arange(cols) * 3
        for count in (1, 5, 300, cols):
            np.testing.assert_array_equal(nearest(dists, count, candidates),
                                          oracle_nearest(dists, count, candidates))

    def test_overflowing_distances_raise(self):
        big = np.array([[1e200, 0.0], [0.0, 1e200]])
        with pytest.raises(DivergenceError, match="overflow"):
            sq_dists(big, big)


class TestSqDists:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk_cells", [_CHUNK_CELLS, 7])
    def test_matches_direct_formula_bit_for_bit(self, monkeypatch, dtype, chunk_cells):
        monkeypatch.setattr(neighbors, "_CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(12)
        shapes = [(1, 1, 3), (5, 9, 4), (40, 13, 30)]
        if chunk_cells == _CHUNK_CELLS:
            shapes.append((_CHUNK_CELLS // 500 + 3, 500, 8))  # more than one chunk
        for rows, cols, dim in shapes:
            a = (rng.standard_normal((rows, dim)) * 3).astype(dtype)
            b = (rng.standard_normal((cols, dim)) * 3).astype(dtype)
            b[0] = a[0]  # an exact zero distance
            got = sq_dists(a, b)
            assert got.dtype == dtype
            assert got.tobytes() == oracle_sq_dists(a, b).tobytes()

    def test_overflow_in_a_later_chunk_raises(self, monkeypatch):
        monkeypatch.setattr(neighbors, "_CHUNK_CELLS", 4)
        a = np.zeros((9, 2))
        a[7] = [1e200, 0.0]
        assert not np.isfinite(oracle_sq_dists(a, a)).all()
        with pytest.raises(DivergenceError, match="overflow"):
            sq_dists(a, a)


def test_tables_match_full_sort_selection(monkeypatch):
    rng = np.random.default_rng(11)
    cases = []
    while len(cases) < 10:
        data = integer_dataset(rng)
        k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        counts = np.bincount(data.labels, minlength=data.num_classes)
        if counts.min() >= max(k + 1, m):
            cases.append((data, k, m))
    got = [(target_neighbors(d, k), impostor_neighbors(d, m)) for d, k, m in cases]
    monkeypatch.setattr(neighbors, "nearest", oracle_nearest)
    for (data, k, m), (targets, impostors) in zip(cases, got):
        np.testing.assert_array_equal(targets, target_neighbors(data, k))
        np.testing.assert_array_equal(impostors, impostor_neighbors(data, m))


class TestTargetNeighbors:
    def test_collinear_hand_table(self):
        # same-class points at 0, 1, 5 on a line; k=1
        data = Dataset(np.array([[0.0], [1.0], [5.0]]), np.zeros(3, np.int64), 1)
        got = target_neighbors(data, 1)
        assert got.tolist() == [[1], [0], [1]]

    def test_k_exhausts_class(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.random((6, 3)), np.zeros(6, np.int64), 1)
        got = target_neighbors(data, 5)
        for i in range(6):
            assert sorted(got[i]) == [j for j in range(6) if j != i]

    def test_duplicates_resolved_by_index(self):
        feats = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [9.0, 9.0]])
        data = Dataset(feats, np.zeros(4, np.int64), 1)
        got = target_neighbors(data, 1)
        # duplicates of the anchor win; ties go to the smaller index, self excluded
        assert got.tolist() == [[1], [0], [0], [0]]

    def test_undersized_class(self):
        data = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]), 2)
        with pytest.raises(CapacityError, match="class 1"):
            target_neighbors(data, 1)

    def test_matches_oracle_on_random_floats(self):
        rng = np.random.default_rng(33)
        data = Dataset(rng.random((40, 4)), rng.integers(0, 3, 40), 3)
        # make sure capacity holds
        data = Dataset(
            np.vstack([data.features, rng.random((9, 4))]),
            np.concatenate([data.labels, np.tile(np.arange(3), 3)]), 3)
        got = target_neighbors(data, 2)
        np.testing.assert_array_equal(got, oracle_target_neighbors(data, 2))


class TestImpostorNeighbors:
    def test_counts_per_point(self):
        rng = np.random.default_rng(2)
        data = integer_dataset(rng, n_range=(40, 41), classes_range=(3, 4))
        got = impostor_neighbors(data, 2)
        assert got.shape == (len(data), 2 * (data.num_classes - 1))

    def test_two_classes_exhaustion(self):
        feats = np.arange(10, dtype=np.float64)[:, None]
        labels = np.array([0] * 6 + [1] * 4)
        data = Dataset(feats, labels, 2)
        got = impostor_neighbors(data, 4)
        for i in range(6):
            assert got[i].tolist() == [6, 7, 8, 9]  # whole other class
        for i in range(6, 10):
            assert got[i].tolist() == [2, 3, 4, 5]  # the 4 closest of class 0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        data = integer_dataset(rng, n_range=(30, 31), classes_range=(3, 4))
        got = impostor_neighbors(data, 2)
        np.testing.assert_array_equal(got, oracle_impostor_neighbors(data, 2))

    def test_single_class_rejected(self):
        data = Dataset(np.zeros((5, 2)), np.zeros(5, np.int64), 1)
        with pytest.raises(CapacityError):
            impostor_neighbors(data, 1)


class TestBuildTriples:
    def test_hand_enumerated_four_points(self):
        feats = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        data = Dataset(feats, labels, 2)
        table = build_triples(data, NeighborConfig(k=1, m=1))
        assert table.rows.tolist() == [
            [0, 1, 2],
            [1, 0, 2],
            [2, 3, 1],
            [3, 2, 1],
        ]

    def test_row_count_formula(self):
        rng = np.random.default_rng(4)
        data = integer_dataset(rng, n_range=(50, 51), classes_range=(3, 4))
        cfg = NeighborConfig(k=2, m=3)
        table = build_triples(data, cfg)
        assert len(table) == len(data) * cfg.k * (data.num_classes - 1) * cfg.m

    def test_single_class_rejected(self):
        data = Dataset(np.zeros((5, 2)), np.zeros(5, np.int64), 1)
        with pytest.raises(CapacityError):
            build_triples(data, NeighborConfig(k=1, m=1))

    def test_oversized_m_fails_before_any_block(self, monkeypatch):
        blocks = []

        def counting_sq_dists(a, b):
            blocks.append((a.shape, b.shape))
            return sq_dists(a, b)

        monkeypatch.setattr(neighbors, "sq_dists", counting_sq_dists)
        rng = np.random.default_rng(9)
        data = Dataset(rng.random((200, 4)), np.repeat(np.arange(10), 20), 10)
        with pytest.raises(CapacityError, match="class 0 has 20 members"):
            build_triples(data, NeighborConfig(k=5, m=25))
        assert blocks == []

    def test_index_storage_is_linear_in_neighbors(self):
        rng = np.random.default_rng(8)
        data = integer_dataset(rng, n_range=(50, 51), classes_range=(3, 4))
        cfg = NeighborConfig(k=2, m=3)
        table = build_triples(data, cfg)
        n, c = len(data), data.num_classes
        stored = table.targets.nbytes + table.impostors.nbytes
        assert stored == 8 * n * (cfg.k + cfg.m * (c - 1))

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            data = integer_dataset(rng)
            cfg = NeighborConfig(k=int(rng.integers(1, 3)), m=int(rng.integers(1, 3)))
            counts = np.bincount(data.labels, minlength=data.num_classes)
            if counts.min() < max(cfg.k + 1, cfg.m):
                continue
            table = build_triples(data, cfg)
            np.testing.assert_array_equal(table.rows, oracle_triples(data, cfg))

    def test_table_invariants_random_cases(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 25:
            data = integer_dataset(rng)
            cfg = NeighborConfig(k=int(rng.integers(1, 3)), m=int(rng.integers(1, 3)))
            counts = np.bincount(data.labels, minlength=data.num_classes)
            if counts.min() < max(cfg.k + 1, cfg.m):
                continue
            checked += 1
            table = build_triples(data, cfg)
            i, l, j = table.rows.T
            assert np.all(data.labels[i] == data.labels[l])
            assert np.all(i != l)
            assert np.all(data.labels[i] != data.labels[j])
            as_set = set(map(tuple, table.rows.tolist()))
            assert len(as_set) == len(table)
            assert len(table) == len(data) * cfg.k * (data.num_classes - 1) * cfg.m


class TestRigidMotionInvariance:
    def test_signed_permutation_and_shift_preserve_tables(self):
        # exact-arithmetic-safe rigid motions: signed permutation (orthogonal)
        # plus integer translation keep integer coordinates integral
        rng = np.random.default_rng(7)
        for _ in range(10):
            data = integer_dataset(rng)
            cfg = NeighborConfig(k=1, m=1)
            counts = np.bincount(data.labels, minlength=data.num_classes)
            if counts.min() < 2:
                continue
            dim = data.dim
            perm = rng.permutation(dim)
            signs = rng.choice([-1.0, 1.0], size=dim)
            shift = rng.integers(-5, 6, size=dim).astype(np.float64)
            moved = Dataset(data.features[:, perm] * signs + shift,
                            data.labels, data.num_classes)
            before = build_triples(data, cfg)
            after = build_triples(moved, cfg)
            np.testing.assert_array_equal(before.rows, after.rows)


def test_config_validation():
    with pytest.raises(ConfigError):
        NeighborConfig(k=0, m=1)
    with pytest.raises(ConfigError):
        NeighborConfig(k=1, m=0)
