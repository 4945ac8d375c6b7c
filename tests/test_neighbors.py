import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dnetknn import neighbors
from dnetknn.classify import knn_predict
from dnetknn.dataset import Dataset
from dnetknn.errors import CapacityError, ConfigError, DivergenceError
from dnetknn.neighbors import (
    _CHUNK_CELLS,
    NeighborConfig,
    build_triples,
    float_rows,
    impostor_neighbors,
    nearest,
    pixel_dists,
    pixel_rows,
    target_neighbors,
)

from _oracles import triple_rows
from _synthetic import make_blobs, make_digits


def oracle_nearest(dists, count):
    """Full-row reference: the first `count` columns of a stable argsort, as
    an ascending set."""
    return np.sort(np.argsort(dists, axis=1, kind="stable")[:, :count], axis=1)


def oracle_sq_dists(a, b):
    """The direct formula `pixel_dists` evaluates in place off the grid:
    |a|^2 + |b|^2 - 2 a b^T, clipped at zero, with three block-sized
    temporaries."""
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
            for count in range(1, cols + 1):
                got = nearest(dists, count)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, oracle_nearest(dists, count))

    @pytest.mark.parametrize("dists", [
        [[2.0, 1.0, 1.0, np.inf, 0.0, 1.0]],  # a single row
        [[np.inf] * 4, [3.0, np.inf, 3.0, 3.0]],  # all inf; ties beside inf
        [[5.0] * 6, [0.0] * 6],  # every column tied
    ])
    def test_hand_blocks_every_count(self, dists):
        dists = np.array(dists)
        for count in range(1, dists.shape[1] + 1):
            np.testing.assert_array_equal(nearest(dists, count),
                                          oracle_nearest(dists, count))

    def test_blocks_larger_than_one_selection_step(self):
        rng = np.random.default_rng(10)
        cols = 1024
        dists = rng.integers(0, 4, size=(_CHUNK_CELLS // cols * 2 + 37, cols))
        dists = dists.astype(np.float64)
        for count in (1, 5, 300, cols):
            np.testing.assert_array_equal(nearest(dists, count), oracle_nearest(dists, count))

    def test_overflowing_distances_raise(self):
        big = float_rows(np.array([[1e200, 0.0], [0.0, 1e200]]))
        with pytest.raises(DivergenceError, match="overflow"):
            pixel_dists(big, big)


class TestSqDists:
    """`pixel_dists` of `float_rows`, the off-grid block: always float64, so
    float32 input is compared as its float64 values."""

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
            got = pixel_dists(float_rows(a), float_rows(b))
            assert got.dtype == np.float64
            want = oracle_sq_dists(a.astype(np.float64), b.astype(np.float64))
            assert got.tobytes() == want.tobytes()

    def test_overflow_in_a_later_chunk_raises(self, monkeypatch):
        monkeypatch.setattr(neighbors, "_CHUNK_CELLS", 4)
        a = np.zeros((9, 2))
        a[7] = [1e200, 0.0]
        assert not np.isfinite(oracle_sq_dists(a, a)).all()
        rows = float_rows(a)
        with pytest.raises(DivergenceError, match="overflow"):
            pixel_dists(rows, rows)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("idx", [slice(3, 11), [9, 0, 4, 4, 17], [5]],
                             ids=["slice", "fancy", "one-row"])
    def test_take_is_the_rows_alone(self, dtype, idx):
        # the invariant that lets an array's norms be computed once
        x = (np.random.default_rng(13).standard_normal((20, 37)) * 50).astype(dtype)
        got, want = float_rows(x).take(idx), float_rows(x[idx])
        assert got.rows.dtype == got.norms.dtype == np.float64
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.norms.tobytes() == want.norms.tobytes()


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
        assert triple_rows(table).tolist() == [
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

        original = neighbors.pixel_dists

        def counting_pixel_dists(a, b):
            blocks.append((a.rows.shape, b.rows.shape))
            return original(a, b)

        monkeypatch.setattr(neighbors, "pixel_dists", counting_pixel_dists)
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
            np.testing.assert_array_equal(triple_rows(table), oracle_triples(data, cfg))

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
            i, l, j = triple_rows(table).T
            assert np.all(data.labels[i] == data.labels[l])
            assert np.all(i != l)
            assert np.all(data.labels[i] != data.labels[j])
            as_set = set(map(tuple, triple_rows(table).tolist()))
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
            np.testing.assert_array_equal(triple_rows(before), triple_rows(after))


def test_config_validation():
    with pytest.raises(ConfigError):
        NeighborConfig(k=0, m=1)
    with pytest.raises(ConfigError):
        NeighborConfig(k=1, m=0)


def byte_sq_dists(a, b):
    """int64 reference: the exact squared distances of the bytes rint(255 x)."""
    qa = np.rint(np.asarray(a) * 255.0).astype(np.int64)
    qb = np.rint(np.asarray(b) * 255.0).astype(np.int64)
    return np.array([((qb - row) ** 2).sum(axis=1) for row in qa]).reshape(len(qa), len(qb))


def byte_oracle_tables(data, k, m):
    """Targets and impostors by stable argsort of the int64 byte distances."""
    f, c = data.features, data.num_classes
    per_class = [data.class_indices(cls) for cls in range(c)]
    targets = np.empty((len(data), k), dtype=np.int64)
    impostors = np.empty((len(data), m * (c - 1)), dtype=np.int64)
    for a, idx in enumerate(per_class):
        d = byte_sq_dists(f[idx], f[idx])
        np.fill_diagonal(d, np.iinfo(np.int64).max)
        targets[idx] = idx[oracle_nearest(d, k)]
        impostors[idx] = np.sort(np.concatenate(
            [per_class[b][oracle_nearest(byte_sq_dists(f[idx], f[per_class[b]]), m)]
             for b in range(c) if b != a], axis=1), axis=1)
    return targets, impostors


def planted_ties(rng, bases=12, copies=6, dim=784, delta=3, classes=3):
    """Byte-grid rows with exact distance ties everywhere: each base row and
    its copies moved by +-delta bytes in one pixel each, so every copy lies
    delta^2 from its base and 2 delta^2 from its base's other copies."""
    base = rng.integers(delta, 256 - delta, size=(bases, dim))
    moved = np.repeat(base, copies, axis=0)
    pixel = rng.integers(0, dim, size=moved.shape[0])
    moved[np.arange(moved.shape[0]), pixel] += rng.choice([-delta, delta], size=moved.shape[0])
    return base / 255.0, moved / 255.0, rng.integers(0, classes, size=moved.shape[0])


class TestByteGrid:
    """On the 1/255 grid distances are the bytes' exact integers, so an exact
    tie is a tie and the index rule decides it."""

    def test_planted_ties_follow_the_index_rule(self):
        rng = np.random.default_rng(61)
        for _ in range(3):
            base, moved, labels = planted_ties(rng)
            labels[:3] = np.arange(3)
            data = Dataset(moved, labels, 3)
            k, m = 2, 3
            assert np.bincount(labels).min() >= max(k + 1, m)
            want_targets, want_impostors = byte_oracle_tables(data, k, m)
            table = build_triples(data, NeighborConfig(k, m))
            np.testing.assert_array_equal(table.targets, want_targets)
            np.testing.assert_array_equal(table.impostors, want_impostors)
            # pixel kNN: each base's nearest are its tied copies; the first wins
            preds = knn_predict(moved, labels, base, 1)
            nearest_copy = oracle_nearest(byte_sq_dists(base, moved), 1)[:, 0]
            np.testing.assert_array_equal(preds.label, labels[nearest_copy])

    def test_anchor_1531_keeps_the_smaller_of_two_tied_impostors(self):
        data = make_digits(200, seed=1)
        assert byte_sq_dists(data.features[[1531]], data.features[[886, 1916]]).tolist() == [
            [5922839, 5922839]]
        row = impostor_neighbors(data, 30)[1531]
        assert 886 in row and 1916 not in row
        others = np.flatnonzero(data.labels != data.labels[1531])
        per_class = [others[data.labels[others] == cls] for cls in np.unique(data.labels[others])]
        want = np.sort(np.concatenate([
            idx[oracle_nearest(byte_sq_dists(data.features[[1531]], data.features[idx]), 30)[0]]
            for idx in per_class]))
        np.testing.assert_array_equal(row, want)

    def test_saturated_rows_take_the_float64_gram(self):
        # all-255 28x28 rows have |a| = 7140, so |a| |b| >= 2^24 for them;
        # near-saturated rows make products that float32 would round
        rng = np.random.default_rng(62)
        saturated = np.full((3, 784), 255)
        near = rng.integers(250, 256, size=(5, 784))
        faint = rng.integers(0, 40, size=(6, 784))
        for rows in (saturated, near, np.vstack([saturated, faint]),
                     np.vstack([faint, near, saturated]), faint):
            x = rows / 255.0
            y = np.vstack([x[::-1], faint / 255.0])
            a, b = pixel_rows(x, y)
            assert a.norms.dtype == b.norms.dtype == np.int64
            got = pixel_dists(a, b)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, byte_sq_dists(x, y))
        labels = np.repeat(np.arange(2), 7)
        data = Dataset(np.vstack([saturated, near, faint]) / 255.0, labels, 2)
        table = build_triples(data, NeighborConfig(2, 3))
        want_targets, want_impostors = byte_oracle_tables(data, 2, 3)
        np.testing.assert_array_equal(table.targets, want_targets)
        np.testing.assert_array_equal(table.impostors, want_impostors)

    def test_large_grid_integers_give_int64_distances(self):
        # |q| up to 2^20 on 50 pixels: past int32, and past the float32 Gram
        q = np.random.default_rng(64).integers(-2 ** 20, 2 ** 20, size=(6, 50))
        x, y = q / 255.0, q[::-1] / 255.0
        a, b = pixel_rows(x, y)
        got = pixel_dists(a, b)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, byte_sq_dists(x, y))

    @pytest.mark.parametrize("features", [
        np.array([[0.5, 1.0]]),  # 127.5 is no byte
        np.array([[0.1 + 1e-12]]),
        np.array([[1e307]]),  # overflows times 255
        np.array([[2.0 ** 30]]),  # integral, but its squared norm exceeds 2^48
    ])
    def test_off_the_grid_rows_stay_as_they_are(self, features):
        (rows,) = pixel_rows(features)
        assert rows.norms.dtype == np.float64 and rows.rows is features

    def test_off_the_grid_float32_rows_come_back_as_float64(self):
        features = np.array([[0.3, 1.0], [2.5, -7.25]], dtype=np.float32)
        (rows,) = pixel_rows(features)
        assert rows.norms.dtype == rows.rows.dtype == np.float64
        np.testing.assert_array_equal(rows.rows, features)

    def test_one_row_off_the_grid_keeps_every_array_as_it_is(self):
        on, off = np.array([[1 / 255.0]]), np.array([[0.3 + 1e-9]])
        assert all(r.norms.dtype == np.float64 for r in pixel_rows(on, off))
        assert all(r.norms.dtype == np.int64 for r in pixel_rows(on, on))

    def test_off_grid_tables_are_the_sq_dists_tables(self):
        # blobs are off the grid: each unordered class pair is one float64
        # block, and the reverse direction selects from its transpose
        data = make_blobs(per_class=25, num_classes=4, dim=7, seed=63)
        assert pixel_rows(data.features)[0].norms.dtype == np.float64
        k, m, f = 3, 4, data.features
        per_class = [data.class_indices(cls) for cls in range(4)]
        targets = np.empty((len(data), k), dtype=np.int64)
        chosen = [[] for _ in range(4)]
        for a, idx in enumerate(per_class):
            d = oracle_sq_dists(f[idx], f[idx])
            np.fill_diagonal(d, np.inf)
            targets[idx] = idx[nearest(d, k)]
            for b in range(a + 1, 4):
                d = oracle_sq_dists(f[idx], f[per_class[b]])
                chosen[a].append(per_class[b][nearest(d, m)])
                chosen[b].append(idx[nearest(d.T, m)])
        impostors = np.empty((len(data), 3 * m), dtype=np.int64)
        for a, idx in enumerate(per_class):
            impostors[idx] = np.sort(np.concatenate(chosen[a], axis=1), axis=1)
        table = build_triples(data, NeighborConfig(k, m))
        assert table.targets.tobytes() == targets.tobytes()
        assert table.impostors.tobytes() == impostors.tobytes()

    @pytest.mark.parametrize("features", ["blobs", "digits"])
    def test_one_block_per_class_pair(self, monkeypatch, features):
        # 4 classes make 6 unordered pairs, on the grid and off it
        calls = []
        original = neighbors.pixel_dists

        def counting(a, b):
            calls.append(None)
            return original(a, b)

        monkeypatch.setattr(neighbors, "pixel_dists", counting)
        if features == "blobs":
            data = make_blobs(per_class=10, num_classes=4, dim=5, seed=65)
        else:
            digits = make_digits(3, side=8, seed=65)
            keep = np.flatnonzero(digits.labels < 4)
            data = Dataset(digits.features[keep], digits.labels[keep], 4)
        grid = pixel_rows(data.features)[0].norms.dtype == np.int64
        assert grid == (features == "digits")
        impostor_neighbors(data, 2)
        assert len(calls) == 6


def test_pixel_tables_and_knn_do_not_depend_on_blas_threads():
    script = (
        "import hashlib, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from _synthetic import make_digits\n"
        "from dnetknn.classify import knn_predict\n"
        "from dnetknn.neighbors import NeighborConfig, build_triples\n"
        "train, test = make_digits(40, seed=3), make_digits(8, seed=4)\n"
        "table = build_triples(train, NeighborConfig(5, 10))\n"
        "preds = knn_predict(train.features, train.labels, test.features, 5)\n"
        "for arr in (table.targets, table.impostors, preds):\n"
        "    print(hashlib.sha256(arr.tobytes()).hexdigest())\n")
    src = str(Path(neighbors.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 3
