import struct
import tracemalloc

import numpy as np
import pytest

from dnetknn import dataset
from dnetknn.dataset import (
    Dataset,
    SplitSpec,
    fixed_split,
    load_csv,
    load_idx,
    make_batches,
    save_csv,
    save_idx,
)
from dnetknn.errors import CapacityError, ConfigError, ConsistencyError, FormatError

from _synthetic import make_digits


def write_idx_pair(tmp_path, pixels, labels, rows, cols, name="fix",
                   image_magic=2051, label_magic=2049, image_count=None,
                   label_count=None, truncate=0):
    """Hand-built IDX pair, byte by byte, independent of the library writer."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n = pixels.shape[0]
    img_path = tmp_path / f"{name}-images.idx"
    lab_path = tmp_path / f"{name}-labels.idx"
    body = struct.pack(">IIII", image_magic,
                       n if image_count is None else image_count, rows, cols)
    body += pixels.tobytes()
    if truncate:
        body = body[:-truncate]
    img_path.write_bytes(body)
    lab_path.write_bytes(
        struct.pack(">II", label_magic,
                    n if label_count is None else label_count) + labels.tobytes())
    return img_path, lab_path


class TestLoadIdx:
    def test_two_zero_images(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 4), np.uint8), [1, 0], 2, 2)
        data = load_idx(img, lab)
        assert len(data) == 2
        assert data.dim == 4
        assert np.all(data.features == 0.0)
        assert list(data.labels) == [1, 0]

    def test_pixel_scaling_and_order(self, tmp_path):
        pixels = np.array([[0, 255, 51, 102], [255, 0, 0, 255]], np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, [3, 7], 2, 2)
        data = load_idx(img, lab)
        np.testing.assert_allclose(data.features, pixels / 255.0)
        assert data.labels[0] == 3 and data.labels[1] == 7
        assert data.num_classes == 8

    def test_bad_image_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 4), np.uint8), [0], 2, 2,
                                  image_magic=2049)
        with pytest.raises(FormatError, match="magic"):
            load_idx(img, lab)

    def test_bad_label_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 4), np.uint8), [0], 2, 2,
                                  label_magic=123)
        with pytest.raises(FormatError, match="magic"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((3, 4), np.uint8), [0, 1, 2],
                                  2, 2, label_count=2)
        with pytest.raises(ConsistencyError):
            load_idx(img, lab)

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((4, 4), np.uint8),
                                  [0, 1, 2, 3], 2, 2, truncate=1)
        with pytest.raises(ConsistencyError, match="promises 16"):
            load_idx(img, lab)

    def test_header_sizes_multiply_without_wrapping(self, tmp_path):
        # 2^31 * 2^31 * 4 is 2^64, which wraps to 0 in int64 and would
        # match the empty payload
        img, lab = write_idx_pair(tmp_path, np.zeros((0, 4), np.uint8), [], 2**31, 4,
                                  image_count=2**31)
        with pytest.raises(ConsistencyError, match=f"promises {2**64}"):
            load_idx(img, lab)

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">II", 2051, 1))
        with pytest.raises(FormatError, match="header"):
            load_idx(path, path)

    def test_round_trip(self, tmp_path):
        data = make_digits(per_class=3, side=8, seed=5)
        save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")
        again = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        np.testing.assert_array_equal(again.features, data.features)
        np.testing.assert_array_equal(again.labels, data.labels)

    def test_load_peak_is_the_payload_and_one_float_array(self, tmp_path):
        rows, side = 2000, 28
        pixels = np.random.default_rng(2).integers(0, 256, (rows, side * side), np.uint8)
        img, lab = write_idx_pair(tmp_path, pixels, np.arange(rows) % 10, side, side)
        tracemalloc.start()
        try:
            data = load_idx(img, lab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.features.tobytes() == (pixels / 255.0).tobytes()
        # one float64 feature array beside the payload
        assert peak <= pixels.nbytes + data.features.nbytes + (1 << 18)

    def test_save_rounds_chunks_to_the_same_bytes(self, tmp_path):
        side = 28
        step = dataset._CHUNK_CELLS // (side * side)
        rng = np.random.default_rng(3)
        features = rng.uniform(-0.5, 1.5, (2 * step + 5, side * side))
        half_grid = (rng.integers(-2, 257, features.shape) + 0.5) / 255.0
        features[::2] = half_grid[::2]  # values at and around the rounding ties
        data = Dataset(features, np.arange(len(features)) % 10, 10)
        save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")
        want = np.clip(np.round(features * 255.0), 0, 255).astype(np.uint8)
        raw = (tmp_path / "i.idx").read_bytes()
        assert raw[:16] == struct.pack(">IIII", 2051, len(features), side, side)
        assert raw[16:] == want.tobytes()
        assert (tmp_path / "l.idx").read_bytes()[8:] == data.labels.astype(np.uint8).tobytes()

    def test_save_needs_square_images(self, tmp_path):
        data = Dataset(np.zeros((2, 6)), np.array([0, 1]), 2)
        with pytest.raises(ConfigError, match="feature length 6 is not square"):
            save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")

    def test_save_refuses_labels_above_a_byte(self, tmp_path):
        data = Dataset(np.zeros((2, 4)), np.array([0, 300]), 301)
        with pytest.raises(ConfigError, match="label 300 does not fit"):
            save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")
        assert not (tmp_path / "l.idx").exists()
        save_idx(Dataset(np.zeros((2, 4)), np.array([0, 255]), 256),
                 tmp_path / "i.idx", tmp_path / "l.idx")
        assert load_idx(tmp_path / "i.idx", tmp_path / "l.idx").labels.tolist() == [0, 255]


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = make_digits(per_class=2, side=8, seed=2)
        save_csv(data, tmp_path / "d.csv")
        again = load_csv(tmp_path / "d.csv")
        np.testing.assert_array_equal(again.features, data.features)
        np.testing.assert_array_equal(again.labels, data.labels)

    def test_layout(self, tmp_path):
        (tmp_path / "d.csv").write_text("1,0.5,0.25\n0,1,0\n")
        data = load_csv(tmp_path / "d.csv")
        assert data.dim == 2
        assert list(data.labels) == [1, 0]
        np.testing.assert_allclose(data.features, [[0.5, 0.25], [1.0, 0.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_integer_label(self, tmp_path):
        # nan, inf and 1e20 have no int64 value: refused before any cast warns
        for label in ("1.5", "nan", "inf", "-inf", "1e20"):
            (tmp_path / "d.csv").write_text(f"0,0.25\n{label},0.5\n")
            with pytest.raises(FormatError, match="integer"):
                load_csv(tmp_path / "d.csv")

    def test_garbage(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b,c\n")
        with pytest.raises(FormatError):
            load_csv(tmp_path / "d.csv")


class TestDatasetInvariants:
    def test_label_out_of_range(self):
        with pytest.raises(ConsistencyError):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), 2)

    def test_non_finite(self):
        with pytest.raises(ConsistencyError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)
        for value, at in ((np.inf, 0), (-np.inf, 0), (np.nan, -1)):
            features = np.zeros((3, 4))
            features.flat[at] = value
            with pytest.raises(ConsistencyError, match="non-finite"):
                Dataset(features, np.zeros(3, dtype=np.int64), 1)

    def test_finiteness_check_allocates_no_mask(self):
        features = np.random.default_rng(4).random((2000, 784))
        labels = np.arange(2000) % 10
        tracemalloc.start()
        try:
            data = Dataset(features, labels, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.features.base is features
        # a byte-per-value mask would be nbytes / 8
        assert peak < features.nbytes / 16

    def test_length_mismatch(self):
        with pytest.raises(ConsistencyError):
            Dataset(np.zeros((2, 3)), np.array([0]), 1)

    def test_read_only(self):
        data = Dataset(np.zeros((2, 3)), np.zeros(2, np.int64), 1)
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0
        part = data.subset([1, 0])
        assert not (np.shares_memory(part.features, data.features)
                    or np.shares_memory(part.labels, data.labels)
                    or part.features.flags.writeable or part.labels.flags.writeable)


class TestFixedSplit:
    def test_counts_and_order(self):
        # USPS-shaped: first 800 per class to train, next 300 to test
        per_class = 1100
        labels = np.tile(np.arange(10), per_class)
        feats = np.arange(labels.size, dtype=np.float64)[:, None]
        data = Dataset(feats, labels, 10)
        train, test = fixed_split(data, SplitSpec(800, 300))
        assert len(train) == 8000 and len(test) == 3000
        # order of appearance: class 0's first training member is row 0
        cls0 = train.features[train.labels == 0].ravel()
        assert cls0[0] == 0.0 and np.all(np.diff(cls0) > 0)
        # train/test disjoint
        assert not set(train.features.ravel()) & set(test.features.ravel())

    def test_zero_train(self):
        data = Dataset(np.arange(8, dtype=np.float64)[:, None],
                       np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        train, test = fixed_split(data, SplitSpec(0, 2))
        assert len(train) == 0 and len(test) == 4

    def test_seed_determinism(self):
        data = make_digits(per_class=10, side=8, seed=0)
        a1, b1 = fixed_split(data, SplitSpec(5, 3, shuffle_seed=42))
        a2, b2 = fixed_split(data, SplitSpec(5, 3, shuffle_seed=42))
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.features, b2.features)
        a3, _ = fixed_split(data, SplitSpec(5, 3, shuffle_seed=43))
        assert len(a3) == len(a1)
        assert not np.array_equal(a3.features, a1.features)

    def test_capacity_error_names_class(self):
        data = Dataset(np.zeros((5, 2)), np.array([0, 0, 0, 1, 1]), 2)
        with pytest.raises(CapacityError, match="class 1"):
            fixed_split(data, SplitSpec(2, 1))

    def test_capacity_error_names_an_absent_class(self):
        # ids 0 and 2: the loop stops at id 1, so it visits at most n + 1 ids
        data = Dataset(np.zeros((4, 2)), np.array([0, 0, 2, 2]), 3)
        with pytest.raises(CapacityError, match="class 1 has 0 examples"):
            fixed_split(data, SplitSpec(1, 1))


def random_labels(rng):
    """Labels of 2-5 classes with unequal sizes, in shuffled order."""
    sizes = rng.integers(1, 30, size=int(rng.integers(2, 6)))
    return rng.permutation(np.repeat(np.arange(sizes.size), sizes))


class TestMakeBatches:
    cases = [(random_labels(np.random.default_rng(case)), batch_size)
             for case in range(20) for batch_size in (2, 7, 16, 40)]

    def test_partition_sizes(self):
        for labels, batch_size in self.cases:
            sizes = [idx.size for idx in make_batches(labels, batch_size, seed=9)]
            assert len(sizes) == max(1, labels.size // batch_size)
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == labels.size
            if labels.size >= batch_size:
                assert min(sizes) >= batch_size

    def test_partition_is_exact(self):
        # a disjoint union of range(n), each batch sorted
        for labels, batch_size in self.cases:
            batches = make_batches(labels, batch_size, seed=4)
            assert all(np.all(np.diff(idx) > 0) for idx in batches)
            np.testing.assert_array_equal(np.sort(np.concatenate(batches)),
                                          np.arange(labels.size))

    def test_class_counts_do_not_depend_on_seed(self):
        for labels, batch_size in self.cases:
            counts = {seed: [np.bincount(labels[idx], minlength=labels.max() + 1).tolist()
                             for idx in make_batches(labels, batch_size, seed)]
                      for seed in range(5)}
            assert all(c == counts[0] for c in counts.values())
        # while the members themselves do
        labels = np.tile(np.arange(3), 20)
        assert not np.array_equal(make_batches(labels, 10, seed=0)[0],
                                  make_batches(labels, 10, seed=1)[0])

    def test_single_batch_is_permutation(self):
        # batch_size >= n: the identity permutation, whatever the seed
        labels = np.tile(np.arange(3), 4)
        for batch_size, seed in ((12, 0), (12, 1), (50, 1)):
            batches = make_batches(labels, batch_size, seed)
            assert len(batches) == 1
            np.testing.assert_array_equal(batches[0], np.arange(12))

    def test_seeded(self):
        for labels, batch_size in self.cases:
            first = make_batches(labels, batch_size, seed=7)
            again = make_batches(labels, batch_size, seed=7)
            assert len(first) == len(again)
            for x, y in zip(first, again):
                np.testing.assert_array_equal(x, y)


def test_split_properties_random_cases():
    rng = np.random.default_rng(31)
    for _ in range(25):
        num_classes = int(rng.integers(2, 5))
        per_class = int(rng.integers(4, 12))
        labels = np.repeat(np.arange(num_classes), per_class)
        feats = rng.random((labels.size, 3))
        data = Dataset(feats, labels, num_classes)
        tr_n = int(rng.integers(0, per_class))
        te_n = int(rng.integers(0, per_class - tr_n + 1))
        train, test = fixed_split(
            data, SplitSpec(tr_n, te_n, shuffle_seed=int(rng.integers(1000))))
        assert len(train) == tr_n * num_classes
        assert len(test) == te_n * num_classes
        key = lambda ds: set(map(tuple, ds.features))
        assert not key(train) & key(test)
