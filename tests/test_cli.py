import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnetknn
from dnetknn import encoder
from dnetknn.cli import main
from dnetknn.dataset import Dataset, load_csv, load_idx, save_csv, save_idx
from dnetknn.encoder import EncoderParams, load_checkpoint, save_checkpoint

from _synthetic import make_blobs, make_digits
from test_encoder import pack_checkpoint


@pytest.fixture(scope="module")
def digit_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    data = make_digits(per_class=10, side=8, seed=17)
    save_csv(data, root / "train.csv")
    test = make_digits(per_class=4, side=8, seed=18)
    save_csv(test, root / "test.csv")
    save_idx(data, root / "train-images.idx", root / "train-labels.idx")
    return root


@pytest.fixture(scope="module")
def pretrained(digit_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-pre") / "pre.dnkn"
    code = main([
        "pretrain",
        "--train-csv", str(digit_files / "train.csv"),
        "--layers", "64,16,8,4",
        "--epochs", "2",
        "--mini-batch", "20",
        "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def finetuned(digit_files, pretrained, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-fit") / "model.dnkn"
    code = main([
        "finetune",
        "--train-csv", str(digit_files / "train.csv"),
        "--init", str(pretrained),
        "--k", "2", "--m", "2",
        "--batch", "100",
        "--epochs", "2",
        "--cg-iters", "2",
        "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestPretrain:
    def test_checkpoint_and_manifest(self, pretrained):
        params = load_checkpoint(pretrained)
        assert params.widths == (64, 16, 8, 4)
        manifest = (pretrained.parent / (pretrained.name + ".manifest")).read_text()
        assert "command = pretrain" in manifest
        assert "seed = 7" in manifest

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code = main([
            "pretrain", "--train-csv", str(tmp_path / "nope.csv"),
            "--layers", "64,8", "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_feature_outside_unit_interval_exits_3(self, tmp_path, capsys):
        # a data fault, not a configuration one
        (tmp_path / "d.csv").write_text("0,0.5,2.0\n1,0.25,1.0\n")
        code = main([
            "pretrain", "--train-csv", str(tmp_path / "d.csv"),
            "--layers", "2,2", "--epochs", "1", "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 3
        assert "must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "o.dnkn").exists()

    def test_bad_layer_start_exits_2(self, digit_files, tmp_path):
        code = main([
            "pretrain", "--train-csv", str(digit_files / "train.csv"),
            "--layers", "100,8", "--epochs", "1",
            "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 2

    def test_idx_input(self, digit_files, tmp_path):
        code = main([
            "pretrain",
            "--train-images", str(digit_files / "train-images.idx"),
            "--train-labels", str(digit_files / "train-labels.idx"),
            "--layers", "64,8", "--epochs", "1",
            "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 0

    def test_empty_idx_pair_exits_3_and_writes_nothing(self, tmp_path, capsys):
        empty = Dataset(np.empty((0, 64)), np.empty(0, dtype=np.int64), 1)
        save_idx(empty, tmp_path / "images.idx", tmp_path / "labels.idx")
        code = main([
            "pretrain",
            "--train-images", str(tmp_path / "images.idx"),
            "--train-labels", str(tmp_path / "labels.idx"),
            "--layers", "64,8", "--epochs", "1",
            "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 3
        assert "at least one row" in capsys.readouterr().err
        assert not (tmp_path / "o.dnkn").exists()
        assert not (tmp_path / "o.dnkn.manifest").exists()


@pytest.mark.parametrize("argv", [
    ["pretrain", "--layers", "6,-5"],
    ["pretrain", "--layers", "6,0,2"],
    ["finetune", "--init", "random", "--layers", "6,-1"],
])
def test_non_positive_layer_width_exits_2_before_reading_data(tmp_path, argv, capsys):
    code = main(argv + ["--train-csv", str(tmp_path / "absent.csv"),
                        "--out", str(tmp_path / "o.dnkn")])
    assert code == 2  # reading the missing file would exit 3
    assert "every layer width must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["pretrain", "--layers", "6,2", "--lr", "nan"], "learning_rate"),
    (["pretrain", "--layers", "6,2", "--weight-decay", "inf"], "weight_decay"),
    (["finetune", "--init", "random", "--layers", "6,2", "--batch", "1"], "batch_size"),
    (["finetune", "--init", "random", "--layers", "6,2", "--cg-iters", "0"],
     "cg_line_searches"),
])
def test_bad_training_config_exits_2_before_reading_data(tmp_path, argv, field, capsys):
    code = main(argv + ["--train-csv", str(tmp_path / "absent.csv"),
                        "--out", str(tmp_path / "o.dnkn")])
    assert code == 2  # reading the missing file would exit 3
    assert field in capsys.readouterr().err


class TestFinetune:
    def test_report_written(self, finetuned):
        report = (finetuned.parent / (finetuned.name + ".report.csv")).read_text()
        lines = report.strip().splitlines()
        assert len(lines) == 2  # one per epoch
        assert lines[0].startswith("0,")

    def test_k_zero_exits_2(self, digit_files, tmp_path):
        code = main([
            "finetune", "--train-csv", str(digit_files / "train.csv"),
            "--init", "random", "--layers", "64,4", "--k", "0",
            "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 2

    def _finetune_blobs(self, tmp_path, data, batch, k, m):
        csv, out = tmp_path / "blobs.csv", tmp_path / "o.dnkn"
        save_csv(data, csv)
        code = main([
            "finetune", "--train-csv", str(csv),
            "--init", "random", "--layers", "4,2", "--k", str(k), "--m", str(m),
            "--batch", batch, "--epochs", "2", "--cg-iters", "1", "--seed", "0",
            "--out", str(out),
        ])
        return code, out

    def test_ragged_set_trains(self, tmp_path):
        # 210 rows in batches of 100: two stratified batches of 105 rows
        data = make_blobs(per_class=21, num_classes=10, dim=4, seed=0)
        code, out = self._finetune_blobs(tmp_path, data, "100", k=2, m=2)
        assert code == 0
        assert load_checkpoint(out).widths == (4, 2)

    def test_under_filled_batch_exits_3(self, tmp_path, capsys):
        # a rare class (3 members, dealt 2 and 1 into two batches), m above a
        # batch's 5 members per class, and 15-row batches of 10 classes with
        # fewer than k + 1 = 3 members of each
        blobs = make_blobs(per_class=20, num_classes=3, dim=4, seed=0)
        rare = blobs.subset(np.concatenate([np.flatnonzero(blobs.labels != 2),
                                            blobs.class_indices(2)[:3]]))
        for data, batch, m, where in (
                (rare, "20", 2, "batch 0 (22 rows): class 2 has 2 members"),
                (make_blobs(per_class=10, num_classes=3, dim=4, seed=0), "15", 6,
                 "batch 0 (15 rows): class 0 has 5 members"),
                (make_blobs(per_class=3, num_classes=10, dim=4, seed=0), "12", 2,
                 "batch 0 (15 rows)")):
            code, out = self._finetune_blobs(tmp_path, data, batch, k=2, m=m)
            assert code == 3
            assert where in capsys.readouterr().err
            assert not out.exists()

    def test_float32_run_saves_float64_checkpoint(self, digit_files, tmp_path):
        out = tmp_path / "f32.dnkn"
        code = main([
            "finetune", "--train-csv", str(digit_files / "train.csv"),
            "--init", "random", "--layers", "64,8,4", "--dtype", "float32",
            "--k", "1", "--m", "1", "--epochs", "1", "--cg-iters", "1",
            "--out", str(out),
        ])
        assert code == 0
        vector = load_checkpoint(out).vector
        assert vector.dtype == np.float64
        # trained in float32, so every stored value is a float32 value
        assert vector.astype(np.float32).astype(np.float64).tobytes() == vector.tobytes()

    def test_random_init(self, digit_files, tmp_path):
        code = main([
            "finetune", "--train-csv", str(digit_files / "train.csv"),
            "--init", "random", "--layers", "64,8,4",
            "--k", "1", "--m", "1", "--epochs", "1", "--cg-iters", "1",
            "--out", str(tmp_path / "r.dnkn"),
        ])
        assert code == 0
        assert load_checkpoint(tmp_path / "r.dnkn").widths == (64, 8, 4)

    def test_config_file_precedence(self, digit_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("k = 2\nm = 1\nepochs = 1\ncg-iters = 1\n"
                          f"train-csv = {digit_files / 'train.csv'}\n")
        out = tmp_path / "c.dnkn"
        code = main([
            "--config", str(config),
            "finetune", "--init", "random", "--layers", "64,4",
            "--m", "2",  # flag beats the file
            "--out", str(out),
        ])
        assert code == 0
        manifest = (tmp_path / "c.dnkn.manifest").read_text()
        assert "k = 2" in manifest  # from the file
        assert "m = 2" in manifest  # from the flag
        assert "init = random" in manifest  # not a path

    @pytest.mark.parametrize("entry", ["mystery = 4", "mode = knn"])  # mode is eval's
    def test_unknown_config_key_exits_2(self, digit_files, tmp_path, entry, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{entry}\n")
        code = main([
            "--config", str(config),
            "finetune", "--train-csv", str(digit_files / "train.csv"),
            "--init", "random", "--layers", "64,4",
            "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 2
        assert entry.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "o.dnkn").exists()

    def test_layers_other_than_checkpoint_widths_exits_2(self, digit_files, pretrained,
                                                          tmp_path, capsys):
        code = main([
            "finetune", "--train-csv", str(digit_files / "train.csv"),
            "--init", str(pretrained), "--layers", "64,4",  # the checkpoint is 64,16,8,4
            "--epochs", "1", "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 2
        assert "--layers" in capsys.readouterr().err
        assert not (tmp_path / "o.dnkn").exists()

    @pytest.mark.parametrize("dtype", ["int32", "complex128"])
    def test_non_floating_dtype_exits_2(self, digit_files, tmp_path, dtype):
        code = main([
            "finetune", "--train-csv", str(digit_files / "train.csv"),
            "--init", "random", "--layers", "64,4", "--dtype", dtype,
            "--out", str(tmp_path / "o.dnkn"),
        ])
        assert code == 2
        assert not (tmp_path / "o.dnkn").exists()


@pytest.mark.parametrize("command, entry", [
    ("eval", "mode = bogus"),
    ("eval", "baseline = nonsense"),
    ("split", "style = shuffled"),
    ("eval", "k = two"),
    ("split", "per-class-train = many"),
])
def test_config_file_value_outside_choices_exits_2(digit_files, finetuned, tmp_path,
                                                    command, entry, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(f"{entry}\n")
    out = tmp_path / "out.csv"
    args = {
        "eval": ["--train-csv", str(digit_files / "train.csv"),
                 "--test-csv", str(digit_files / "test.csv"),
                 "--model", str(finetuned), "--out", str(out)],
        "split": ["--csv", str(digit_files / "train.csv"),
                  "--out-train", str(out), "--out-test", str(tmp_path / "te.csv")],
    }[command]
    assert main(["--config", str(config), command, *args]) == 2
    assert entry.split()[0] in capsys.readouterr().err
    assert not out.exists()


class TestEval:
    def test_both_modes_and_baseline(self, digit_files, finetuned, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        code = main([
            "eval",
            "--train-csv", str(digit_files / "train.csv"),
            "--test-csv", str(digit_files / "test.csv"),
            "--model", str(finetuned),
            "--mode", "both", "--k", "2", "--m", "2",
            "--baseline", "pixels",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        methods = [line.split(",")[0] for line in printed]
        assert methods == ["dnet-knn", "dnet-knn-e", "knn-pixels"]
        for line in printed:
            pct = float(line.split(",")[2])
            assert 0.0 <= pct <= 100.0
        assert out.read_text().strip().splitlines() == printed

    def test_knn_only_gives_one_row(self, digit_files, finetuned, capsys):
        code = main([
            "eval",
            "--train-csv", str(digit_files / "train.csv"),
            "--test-csv", str(digit_files / "test.csv"),
            "--model", str(finetuned),
            "--mode", "knn", "--k", "1",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_energy_only_dumps_energy_predictions(self, digit_files, finetuned, tmp_path,
                                                  capsys):
        dump = tmp_path / "preds.csv"
        code = main([
            "eval",
            "--train-csv", str(digit_files / "train.csv"),
            "--test-csv", str(digit_files / "test.csv"),
            "--model", str(finetuned),
            "--mode", "energy", "--k", "2", "--m", "2",
            "--dump-predictions", str(dump),
        ])
        assert code == 0
        pct = float(capsys.readouterr().out.strip().split(",")[2])
        rows = [line.split(",") for line in dump.read_text().splitlines()]
        assert [int(r[0]) for r in rows] == list(range(40))  # 4 test digits per class
        assert all(float(r[3]) <= 0.0 for r in rows)  # the negative energy
        wrong = sum(r[1] != r[2] for r in rows)
        assert pct == pytest.approx(100.0 * wrong / len(rows))

    @pytest.mark.parametrize("mode, key", [("knn", "k"), ("energy", "k"), ("both", "k"),
                                           ("knn", "m")])
    def test_k_or_m_below_one_exits_2_before_reading_data(self, tmp_path, mode, key,
                                                          capsys):
        code = main([
            "eval",
            "--train-csv", str(tmp_path / "absent-train.csv"),
            "--test-csv", str(tmp_path / "absent-test.csv"),
            "--model", str(tmp_path / "absent.dnkn"),
            "--mode", mode, f"--{key}", "0",
        ])
        assert code == 2  # a missing file would exit 3
        assert f"{key} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, k, m", [("energy", "15", "2"), ("both", "2", "15")])
    def test_small_class_for_energy_exits_3_before_encoding(self, digit_files, finetuned,
                                                            monkeypatch, capsys, mode, k, m):
        forwards, forward = [], encoder.forward

        def counting_forward(params, x):
            forwards.append(x.shape)
            return forward(params, x)

        monkeypatch.setattr(encoder, "forward", counting_forward)
        code = main([
            "eval",
            "--train-csv", str(digit_files / "train.csv"),  # 10 digits per class
            "--test-csv", str(digit_files / "test.csv"),
            "--model", str(finetuned),
            "--mode", mode, "--k", k, "--m", m,
        ])
        assert code == 3
        assert "class 0 has 10 members" in capsys.readouterr().err
        assert forwards == []

    @pytest.mark.parametrize("mode", ["knn", "both"])
    def test_k_above_training_rows_exits_3_before_encoding(self, digit_files, finetuned,
                                                           monkeypatch, capsys, mode):
        forwards, forward = [], encoder.forward

        def counting_forward(params, x):
            forwards.append(x.shape)
            return forward(params, x)

        monkeypatch.setattr(encoder, "forward", counting_forward)
        code = main([
            "eval",
            "--train-csv", str(digit_files / "train.csv"),  # 10 classes of 10 rows
            "--test-csv", str(digit_files / "test.csv"),
            "--model", str(finetuned),
            "--mode", mode, "--k", "101", "--m", "2",
        ])
        assert code == 3
        assert "k=101 must lie in [1, 100]" in capsys.readouterr().err
        assert forwards == []

    @pytest.mark.parametrize("widths, flags", [((64, 2, 1), (1, 0)), ((64, 0, 1), (0, 1))])
    def test_bad_checkpoint_header_exits_3(self, digit_files, tmp_path, capsys, widths,
                                           flags):
        size = sum(a * b + b for a, b in zip(widths, widths[1:]))
        model = tmp_path / "bad.dnkn"
        model.write_bytes(pack_checkpoint(widths, flags, [0.25] * size))
        code = main([
            "eval",
            "--train-csv", str(digit_files / "train.csv"),
            "--test-csv", str(digit_files / "test.csv"),
            "--model", str(model),
            "--mode", "knn", "--k", "2",
        ])
        assert code == 3
        assert "bad.dnkn" in capsys.readouterr().err

    def test_dump_predictions_alone_writes_manifest(self, digit_files, finetuned,
                                                    tmp_path):
        dump = tmp_path / "preds.csv"
        code = main([
            "eval",
            "--train-csv", str(digit_files / "train.csv"),
            "--test-csv", str(digit_files / "test.csv"),
            "--model", str(finetuned),
            "--mode", "knn", "--k", "2",
            "--dump-predictions", str(dump),
        ])
        assert code == 0
        manifest = tmp_path / "preds.csv.manifest"
        assert "command = eval" in manifest.read_text()
        first = dump.read_bytes()
        dump.unlink()
        assert main(["--config", str(manifest), "eval"]) == 0
        assert dump.read_bytes() == first

    @pytest.mark.parametrize("mode", ["knn", "energy"])
    def test_overflowing_codes_exit_4(self, digit_files, finetuned, tmp_path, mode,
                                      capsys):
        # finite weights whose codes are finite, but whose squared distances are not
        params = load_checkpoint(finetuned)
        *hidden, (weights, bias) = params.layers
        scaled = EncoderParams.from_layers([*hidden, (weights * 1e306, bias)])
        save_checkpoint(scaled, tmp_path / "huge.dnkn")
        out = tmp_path / "errors.csv"
        code = main([
            "eval",
            "--train-csv", str(digit_files / "train.csv"),
            "--test-csv", str(digit_files / "test.csv"),
            "--model", str(tmp_path / "huge.dnkn"),
            "--mode", mode, "--k", "2", "--m", "2", "--out", str(out),
        ])
        assert code == 4
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_dim_mismatch_exits_2(self, digit_files, finetuned, tmp_path):
        wrong = make_digits(per_class=4, side=6, seed=1)  # 36 dims
        save_csv(wrong, tmp_path / "wrong.csv")
        code = main([
            "eval",
            "--train-csv", str(tmp_path / "wrong.csv"),
            "--test-csv", str(tmp_path / "wrong.csv"),
            "--model", str(finetuned),
            "--mode", "knn",
        ])
        assert code == 2


@pytest.mark.parametrize("argv, code, message", [
    (["eval", "--mode", "knn", "--k", "1"], 0, None),
    (["eval", "--mode", "energy", "--k", "1", "--m", "1"], 3, "class 1 has 0 members"),
    (["finetune", "--init", "random", "--layers", "2,2", "--k", "1", "--m", "1"], 3,
     "batch 0 (6 rows): class 1 has 0 members"),
])
def test_sparse_class_ids_allocate_nothing_per_id(tmp_path, capsys, argv, code, message):
    # ids 0 and 10**12: no array may be sized by the largest id
    (tmp_path / "d.csv").write_text("".join(
        f"{label},{x},{x % 2}\n" for x, label in enumerate([0, 0, 0] + [10**12] * 3)))
    save_checkpoint(encoder.init_encoder((2, 2), seed=0), tmp_path / "m.dnkn")
    files = {"eval": ["--train-csv", str(tmp_path / "d.csv"),
                      "--test-csv", str(tmp_path / "d.csv"),
                      "--model", str(tmp_path / "m.dnkn")],
             "finetune": ["--train-csv", str(tmp_path / "d.csv"),
                          "--out", str(tmp_path / "o.dnkn")]}
    assert main(argv + files[argv[0]]) == code
    captured = capsys.readouterr()
    if message is None:
        assert captured.out.startswith("dnet-knn,test,")
    else:
        assert message in captured.err


class TestEmbed:
    def test_embedding_shape(self, digit_files, finetuned, tmp_path):
        out = tmp_path / "embed.csv"
        code = main([
            "embed", "--train-csv", str(digit_files / "test.csv"),
            "--model", str(finetuned), "--out", str(out), "--header",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,label,c1,c2,c3,c4"
        assert len(lines) == 41  # header + 40 test rows
        assert len(lines[1].split(",")) == 6

    def test_two_dimensional_codes_from_pretrain_finetune_embed(self, tmp_path,
                                                                monkeypatch):
        # the paper's supervised 2-D embedding, encoded in row chunks of 32
        monkeypatch.setattr(encoder, "_CHUNK_CELLS", 32 * 784)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        save_idx(make_digits(per_class=10, seed=19), images, labels)
        data = ["--train-images", str(images), "--train-labels", str(labels)]
        pre, model, out = tmp_path / "pre.dnkn", tmp_path / "model.dnkn", tmp_path / "e.csv"
        assert main(["pretrain", *data, "--layers", "784,16,2", "--epochs", "2",
                     "--mini-batch", "20", "--seed", "7", "--out", str(pre)]) == 0
        assert main(["finetune", *data, "--init", str(pre), "--k", "2", "--m", "2",
                     "--epochs", "2", "--cg-iters", "2", "--seed", "7",
                     "--out", str(model)]) == 0
        assert main(["embed", *data, "--model", str(model), "--out", str(out)]) == 0
        params, features = load_checkpoint(model), load_idx(images, labels).features
        codes = encoder.forward(params, features)
        assert codes.shape == (100, 2) and np.all(np.isfinite(codes))
        np.testing.assert_allclose(codes, encoder.forward_with_cache(params, features)[0],
                                   rtol=1e-12, atol=1e-12)
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert [row[2:] for row in rows] == [["%.17g" % v for v in code] for code in codes]

    def test_unreadable_checkpoint_exits_3(self, digit_files, tmp_path):
        code = main([
            "embed", "--train-csv", str(digit_files / "test.csv"),
            "--model", str(tmp_path / "missing.dnkn"), "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3

    def test_corrupt_checkpoint_exits_3(self, digit_files, tmp_path):
        bad = tmp_path / "bad.dnkn"
        bad.write_bytes(b"XXXX garbage")
        code = main([
            "embed", "--train-csv", str(digit_files / "test.csv"),
            "--model", str(bad), "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3


class TestSplit:
    def test_fixed_split_counts(self, digit_files, tmp_path):
        code = main([
            "split", "--csv", str(digit_files / "train.csv"),
            "--style", "fixed", "--per-class-train", "6", "--per-class-test", "3",
            "--out-train", str(tmp_path / "tr.csv"),
            "--out-test", str(tmp_path / "te.csv"),
        ])
        assert code == 0
        assert len(load_csv(tmp_path / "tr.csv")) == 60
        assert len(load_csv(tmp_path / "te.csv")) == 30

    def test_random_split_is_deterministic(self, digit_files, tmp_path):
        args = [
            "split", "--csv", str(digit_files / "train.csv"),
            "--style", "random", "--seed", "3",
            "--per-class-train", "5", "--per-class-test", "2",
        ]
        main(args + ["--out-train", str(tmp_path / "a_tr.csv"),
                     "--out-test", str(tmp_path / "a_te.csv")])
        main(args + ["--out-train", str(tmp_path / "b_tr.csv"),
                     "--out-test", str(tmp_path / "b_te.csv")])
        assert (tmp_path / "a_tr.csv").read_bytes() == (tmp_path / "b_tr.csv").read_bytes()
        assert (tmp_path / "a_te.csv").read_bytes() == (tmp_path / "b_te.csv").read_bytes()

    def test_random_without_seed_exits_2(self, digit_files, tmp_path):
        code = main([
            "split", "--csv", str(digit_files / "train.csv"),
            "--style", "random",
            "--per-class-train", "5", "--per-class-test", "2",
            "--out-train", str(tmp_path / "tr.csv"),
            "--out-test", str(tmp_path / "te.csv"),
        ])
        assert code == 2

    def test_zero_counts_on_sparse_class_ids_finish(self, tmp_path):
        # ids 0 and 10**12 with nothing to take: no loop may visit every id
        (tmp_path / "d.csv").write_text("".join(
            f"{label},{x}\n" for x, label in enumerate([0, 0, 0] + [10**12] * 3)))
        done = subprocess.run(
            [sys.executable, "-m", "dnetknn.cli", "split", "--csv", str(tmp_path / "d.csv"),
             "--per-class-train", "0", "--per-class-test", "0",
             "--out-train", str(tmp_path / "tr.csv"), "--out-test", str(tmp_path / "te.csv")],
            env=_package_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "tr.csv").read_text() == ""
        assert (tmp_path / "te.csv").read_text() == ""


@pytest.mark.parametrize("command", ["split", "pretrain", "finetune"])
def test_rerun_from_manifest_reproduces_outputs(digit_files, tmp_path, command):
    train_csv = str(digit_files / "train.csv")
    model = ["--layers", "64,8,4", "--epochs", "2", "--seed", "11",
             "--out", str(tmp_path / "o.dnkn")]
    args, outputs = {
        "split": (["--csv", train_csv, "--style", "random", "--seed", "11",
                   "--per-class-train", "4", "--per-class-test", "2",
                   "--out-train", str(tmp_path / "tr.csv"),
                   "--out-test", str(tmp_path / "te.csv")], ["tr.csv", "te.csv"]),
        "pretrain": (["--train-csv", train_csv, "--mini-batch", "20", *model], ["o.dnkn"]),
        # the report is not compared: its seconds column varies between runs
        "finetune": (["--train-csv", train_csv, "--init", "random", "--k", "2", "--m", "1",
                      "--cg-iters", "2", *model], ["o.dnkn"]),
    }[command]
    assert main([command, *args]) == 0
    first = {name: (tmp_path / name).read_bytes() for name in outputs}
    for name in outputs:
        (tmp_path / name).unlink()
    manifest = tmp_path / (outputs[0] + ".manifest")
    assert main(["--config", str(manifest), command]) == 0
    assert {name: (tmp_path / name).read_bytes() for name in outputs} == first


def test_rerun_from_manifest_in_another_directory(digit_files, tmp_path, monkeypatch):
    shutil.copy(digit_files / "train.csv", tmp_path / "corpus.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["split", "--csv", "corpus.csv", "--style", "random", "--seed", "5",
                 "--per-class-train", "4", "--per-class-test", "2",
                 "--out-train", "tr.csv", "--out-test", "te.csv"]) == 0
    manifest = (tmp_path / "tr.csv.manifest").read_text()
    assert f"csv = {tmp_path / 'corpus.csv'}" in manifest
    first = {name: (tmp_path / name).read_bytes() for name in ("tr.csv", "te.csv")}
    for name in first:
        (tmp_path / name).unlink()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["--config", str(tmp_path / "tr.csv.manifest"), "split"]) == 0
    assert {name: (tmp_path / name).read_bytes() for name in first} == first
    assert list(elsewhere.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code, message", [
    (["pretrain", "--train-csv", "{train}", "--layers", "64,4", "--seed", "-1",
      "--out", "{out}/o.dnkn"], 2, "--seed"),
    (["finetune", "--train-csv", "{train}", "--init", "random", "--layers", "64,4",
      "--seed", "-1", "--out", "{out}/o.dnkn"], 2, "--seed"),
    (["split", "--csv", "{train}", "--style", "random", "--seed", "-1",
      "--out-train", "{out}/tr.csv", "--out-test", "{out}/te.csv"], 2, "--seed"),
    (["--config", "{latin1}", "split", "--csv", "{train}", "--out-train", "{out}/tr.csv",
      "--out-test", "{out}/te.csv"], 2, "latin1.cfg: not UTF-8"),
    # a repeated key is refused, not settled by its last value
    *[(["--config", f"{{{name}}}", "finetune", "--train-csv", "{train}", "--init", "random",
        "--layers", "64,4", "--out", "{out}/o.dnkn"], 2, message)
      for name, message in (("twice", "twice.cfg:4: epochs was already set on line 1"),
                            ("dashed", "dashed.cfg:3: cg_iters was already set on line 1"))],
    *[(["split", "--csv", f"{{{name}}}", "--out-train", "{out}/tr.csv",
        "--out-test", "{out}/te.csv"], 3, "first column must hold integer labels")
      for name in ("nan", "inf", "huge")],
    (["finetune", "--train-csv", "{train}", "--init", "random", "--layers", "64,4",
      "--k", "2", "--m", "2", "--dtype", "float16", "--out", "{out}/o.dnkn"], 2,
     "float32 or float64"),
    # the missing checkpoint shows that the refusal comes before it is read
    (["eval", "--train-csv", "{train}", "--test-images", "{empty_images}",
      "--test-labels", "{empty_labels}", "--model", "{out}/absent.dnkn",
      "--mode", "both", "--baseline", "pixels", "--k", "1", "--m", "1",
      "--out", "{out}/errors.csv"], 3, "the test set is empty"),
    (["split", "--csv", "{out}/absent.csv", "--per-class-train", "-1",
      "--out-train", "{out}/tr.csv", "--out-test", "{out}/te.csv"], 2,
     "split counts must be nonnegative"),
    # a command-line byte 0xff arrives as the surrogate escape \udcff
    (["split", "--csv", "{train}", "--per-class-train", "2", "--per-class-test", "1",
      "--out-train", "{out}/tr\udcff.csv", "--out-test", "{out}/te.csv"], 2,
     "for --out-train"),
    # an output path whose directory is missing is refused before any training
    (["finetune", "--train-csv", "{train}", "--init", "random", "--layers", "64,4",
      "--k", "2", "--m", "1", "--out", "{out}/o.dnkn", "--report", "{out}/missing/r.csv"],
     2, "for --report"),
    (["split", "--csv", "{train}", "--per-class-train", "2", "--per-class-test", "1",
      "--out-train", "{out}/tr.csv", "--out-test", "{out}/missing/te.csv"], 2,
     "for --out-test"),
    # exit 2, not 3: the output check comes before the absent CSV is read
    (["pretrain", "--train-csv", "{out}/absent.csv", "--layers", "64,4",
      "--out", "{out}/missing/o.dnkn"], 2, "for --out"),
    # a manifest strips trailing whitespace and splits lines: refused up front
    (["pretrain", "--train-csv", "{train}", "--layers", "64,4", "--out", "{out}/m.dnkn "],
     2, "for --out"),
    (["pretrain", "--train-csv", "{out}/a\nb.csv", "--layers", "64,4",
      "--out", "{out}/m.dnkn"], 2, "for --train-csv"),
    # a manifest could not rerun a run whose files collide
    (["finetune", "--train-csv", "{train}", "--init", "random", "--layers", "64,4",
      "--k", "2", "--m", "1", "--out", "{out}/o.dnkn", "--report", "{out}/o.dnkn"],
     2, "--report and --out"),
    (["split", "--csv", "{train}", "--per-class-train", "2", "--per-class-test", "1",
      "--out-train", "{out}/s.csv", "--out-test", "{out}/s.csv"], 2,
     "--out-test and --out-train"),
    (["pretrain", "--train-csv", "{copy}", "--layers", "64,4", "--out", "{copy}"], 2,
     "--out and --train-csv"),
    # only a manifest rerun may write over its --config file
    (["--config", "{style}", "split", "--csv", "{train}", "--per-class-train", "1",
      "--per-class-test", "1", "--out-train", "{style}", "--out-test", "{out}/te.csv"], 2,
     "--out-train and --config"),
    # the default report path, <out>.report.csv, is a directory
    (["finetune", "--train-csv", "{train}", "--init", "random", "--layers", "64,4",
      "--k", "2", "--m", "1", "--out", "{inputs}/taken.dnkn"], 2, "for --report"),
], ids=["pretrain-seed", "finetune-seed", "split-seed", "config-not-utf8",
        "config-key-repeated", "config-key-repeated-with-dash", "label-nan",
        "label-inf", "label-1e20", "dtype-float16", "eval-empty-test",
        "split-negative-count", "split-path-not-utf8", "finetune-report-dir-missing",
        "split-out-test-dir-missing", "pretrain-out-dir-missing",
        "pretrain-out-trailing-space", "pretrain-train-csv-line-break",
        "finetune-report-is-out", "split-out-train-is-out-test", "pretrain-out-is-input",
        "split-out-train-is-config", "finetune-default-report-is-a-directory"])
def test_bad_input_exits_with_one_error_line_and_writes_nothing(
        digit_files, tmp_path, capsys, argv, code, message):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    (inputs / "latin1.cfg").write_bytes("# caf\u00e9\nstyle = fixed\n".encode("latin-1"))
    (inputs / "twice.cfg").write_text("epochs = 1\nk = 2\n\nepochs = 3\n")
    (inputs / "dashed.cfg").write_text("cg-iters = 1\nm = 1\ncg_iters = 2\n")
    (inputs / "style.cfg").write_text("style = fixed\n")
    for name, label in (("nan", "nan"), ("inf", "inf"), ("huge", "1e20")):
        (inputs / f"{name}.csv").write_text(f"0,0.25\n{label},0.5\n")
    empty = Dataset(np.empty((0, 64)), np.empty(0, dtype=np.int64), 1)
    save_idx(empty, inputs / "empty-images.idx", inputs / "empty-labels.idx")
    shutil.copy(digit_files / "train.csv", inputs / "copy.csv")
    (inputs / "taken.dnkn.report.csv").mkdir()
    before = {p: p.read_bytes() if p.is_file() else None for p in inputs.rglob("*")}
    paths = {"train": digit_files / "train.csv", "out": out, "inputs": inputs,
             "copy": inputs / "copy.csv",
             "latin1": inputs / "latin1.cfg", "twice": inputs / "twice.cfg",
             "dashed": inputs / "dashed.cfg", "style": inputs / "style.cfg",
             "nan": inputs / "nan.csv",
             "inf": inputs / "inf.csv", "huge": inputs / "huge.csv",
             "empty_images": inputs / "empty-images.idx",
             "empty_labels": inputs / "empty-labels.idx"}
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert list(out.iterdir()) == []
    assert {p: p.read_bytes() if p.is_file() else None for p in inputs.rglob("*")} == before


def test_usage_error_exits_2():
    assert main(["mystery-command"]) == 2


def test_threads_flag_validated():
    assert main(["--threads", "0", "split", "--csv", "x", "--out-train", "a",
                 "--out-test", "b"]) == 2


def test_threads_refused_once_numpy_is_loaded(tmp_path, capsys):
    # numpy is loaded in this process, so the BLAS caps could not apply;
    # the missing CSV shows that no data is read before the refusal
    assert main(["--threads", "1", "split", "--csv", str(tmp_path / "missing.csv"),
                 "--out-train", str(tmp_path / "a"), "--out-test", str(tmp_path / "b")]) == 2
    assert "OPENBLAS_NUM_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def _package_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(dnetknn.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_threads_applies_in_a_fresh_process(digit_files, tmp_path):
    script = ("import os, sys; from dnetknn.cli import entrypoint\n"
              "assert 'numpy' not in sys.modules\n"
              "try:\n    entrypoint()\n"
              "finally:\n    assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n")
    done = subprocess.run(
        [sys.executable, "-c", script, "--threads", "1", "split",
         "--csv", str(digit_files / "train.csv"), "--per-class-train", "2",
         "--per-class-test", "1", "--out-train", str(tmp_path / "tr.csv"),
         "--out-test", str(tmp_path / "te.csv")],
        env=_package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(load_csv(tmp_path / "tr.csv")) == 20


def test_no_scipy_outside_margin_and_trainer():
    # margin's scipy.sparse is the library's only scipy import, and only
    # trainer imports margin; every other module loads without scipy
    script = ("import sys\n"
              "import dnetknn.cli, dnetknn.classify, dnetknn.dataset, dnetknn.encoder, "
              "dnetknn.neighbors, dnetknn.rbm\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_runs_as_a_module(digit_files, tmp_path):
    # `python -m dnetknn.cli` runs the command, --threads included
    done = subprocess.run(
        [sys.executable, "-m", "dnetknn.cli", "--threads", "1", "split",
         "--csv", str(digit_files / "train.csv"), "--per-class-train", "2",
         "--per-class-test", "1", "--out-train", str(tmp_path / "tr.csv"),
         "--out-test", str(tmp_path / "te.csv")],
        env=_package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "wrote 20 train rows" in done.stdout
    assert len(load_csv(tmp_path / "tr.csv")) == 20
    assert len(load_csv(tmp_path / "te.csv")) == 10
