"""Command line front end.

Subcommands cover the whole pipeline: ``pretrain`` (greedy layer-wise
pretraining to a checkpoint), ``finetune`` (margin fine-tuning from a
checkpoint or a random start), ``eval`` (kNN / energy error rates),
``embed`` (dump code vectors as CSV), and ``split`` (materialize per-class
train/test CSV fixtures).

Configuration precedence: command-line flags beat a ``--config`` file
(line-based ``key = value``, keys matching the long flag names with
underscores) which beats built-in defaults.  Every run writes a
``<output>.manifest`` file recording the resolved values, inputs, and
outputs, so any run can be reproduced from its manifest alone.

Exit codes: 0 ok, 2 configuration error, 3 io/data error, 4 numerical
divergence.

numpy is imported lazily so that ``--threads`` can pin the BLAS thread
pools before they start.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    DivergenceError,
    FormatError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _int(text: str) -> int:
    return int(text)


def _float(text: str) -> float:
    return float(text)


def _str(text: str) -> str:
    return text


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _layers(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"layer spec {text!r} must be comma-separated integers")
    if len(sizes) < 2:
        raise ConfigError("layer spec needs at least two sizes")
    return sizes


# dest -> (converter, default); shared across commands that use the key
_OPTION_TYPES = {
    "train_images": (_str, None),
    "train_labels": (_str, None),
    "train_csv": (_str, None),
    "test_images": (_str, None),
    "test_labels": (_str, None),
    "test_csv": (_str, None),
    "csv": (_str, None),
    "layers": (_layers, None),
    "epochs": (_int, 10),
    "lr": (_float, 0.1),
    "momentum": (_float, 0.9),
    "initial_momentum": (_float, 0.5),
    "weight_decay": (_float, 2e-4),
    "mini_batch": (_int, 100),
    "seed": (_int, None),
    "out": (_str, None),
    "init": (_str, None),
    "k": (_int, 5),
    "m": (_int, 30),
    "batch": (_int, 10000),
    "cg_iters": (_int, 3),
    "dtype": (_str, "float64"),
    "report": (_str, None),
    "model": (_str, None),
    "mode": (_str, "both"),
    "baseline": (_str, None),
    "dump_predictions": (_str, None),
    "style": (_str, "fixed"),
    "per_class_train": (_int, 800),
    "per_class_test": (_int, 300),
    "out_train": (_str, None),
    "out_test": (_str, None),
    "header": (_bool, False),
}

# allowed values of the keys that take one of a fixed set
_CHOICES = {"mode": ("knn", "energy", "both"), "baseline": ("pixels",),
            "style": ("fixed", "random")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnetknn",
        description="Large-margin kNN embeddings from an RBM-pretrained deep encoder",
    )
    parser.add_argument("--config", help="key = value config file (flags override it)")
    parser.add_argument("--threads", type=int,
                        help="cap BLAS/OpenMP worker threads for this process")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_data(p):
        p.add_argument("--train-images", help="IDX image file")
        p.add_argument("--train-labels", help="IDX label file")
        p.add_argument("--train-csv", help="CSV fallback (label,features...)")

    def add_test_data(p):
        p.add_argument("--test-images")
        p.add_argument("--test-labels")
        p.add_argument("--test-csv")

    p = sub.add_parser("pretrain", help="greedy layer-wise pretraining")
    add_train_data(p)
    p.add_argument("--layers", help="comma-separated widths, e.g. 784,500,500,2000,30")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--initial-momentum", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--mini-batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="checkpoint output path")

    p = sub.add_parser("finetune", help="margin fine-tuning of an encoder")
    add_train_data(p)
    p.add_argument("--init", help="checkpoint path, or 'random'")
    p.add_argument("--layers", help="required with --init random")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--cg-iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--dtype")
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--report", help="per-epoch report path (default <out>.report.csv)")

    p = sub.add_parser("eval", help="error rates of a trained encoder")
    add_train_data(p)
    add_test_data(p)
    p.add_argument("--model", help="encoder checkpoint")
    p.add_argument("--mode", choices=_CHOICES["mode"])
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--baseline", choices=_CHOICES["baseline"],
                   help="also report raw-pixel kNN error")
    p.add_argument("--out", help="write method,split,error_percent rows here")
    p.add_argument("--dump-predictions", help="write per-point prediction CSV here")
    p.add_argument("--header", action="store_true", default=None)

    p = sub.add_parser("embed", help="dump code vectors as CSV")
    add_train_data(p)
    p.add_argument("--model", help="encoder checkpoint")
    p.add_argument("--out", help="embedding CSV path")
    p.add_argument("--header", action="store_true", default=None)

    p = sub.add_parser("split", help="materialize per-class train/test CSV fixtures")
    p.add_argument("--csv", help="input CSV (label,features...)")
    p.add_argument("--style", choices=_CHOICES["style"])
    p.add_argument("--seed", type=int)
    p.add_argument("--per-class-train", type=int)
    p.add_argument("--per-class-test", type=int)
    p.add_argument("--out-train")
    p.add_argument("--out-test")
    return parser


def _read_config_file(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _resolve(args, keys: list[str]) -> dict:
    """Merge CLI flags over config-file entries over defaults for the keys."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    # manifests are valid config files; their provenance keys carry no options
    file_cfg.pop("command", None)
    file_cfg.pop("timestamp", None)
    unknown = set(file_cfg) - set(_OPTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for key in keys:
        convert, default = _OPTION_TYPES[key]
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = convert(cli_value) if isinstance(cli_value, str) else cli_value
        elif key in file_cfg:
            resolved[key] = convert(file_cfg[key])
            # argparse checks choices on flags only
            if key in _CHOICES and resolved[key] not in _CHOICES[key]:
                raise ConfigError(f"{key} must be one of {', '.join(_CHOICES[key])}, "
                                  f"got {resolved[key]!r}")
        else:
            resolved[key] = default
    return resolved


def _require(cfg: dict, key: str):
    if cfg[key] is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _load_split(cfg: dict, prefix: str):
    from . import dataset

    images = cfg.get(f"{prefix}_images")
    labels = cfg.get(f"{prefix}_labels")
    csv = cfg.get(f"{prefix}_csv")
    if csv is not None:
        if images is not None or labels is not None:
            raise ConfigError(f"give either --{prefix}-csv or the IDX pair, not both")
        return dataset.load_csv(csv)
    if images is None or labels is None:
        raise ConfigError(
            f"need --{prefix}-images and --{prefix}-labels, or --{prefix}-csv"
        )
    return dataset.load_idx(images, labels)


def _write_manifest(out_path, command: str, cfg: dict) -> str:
    path = str(out_path) + ".manifest"
    with open(path, "w") as f:
        f.write(f"command = {command}\n")
        for key in sorted(cfg):
            value = cfg[key]
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            f.write(f"{key} = {value}\n")
        f.write(f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
    return path


def _cmd_pretrain(args) -> int:
    keys = ["train_images", "train_labels", "train_csv", "layers", "epochs", "lr",
            "momentum", "initial_momentum", "weight_decay", "mini_batch", "seed",
            "out"]
    cfg = _resolve(args, keys)
    _require(cfg, "layers")
    _require(cfg, "out")
    if cfg["seed"] is None:
        cfg["seed"] = 0
    from . import encoder, rbm

    data = _load_split(cfg, "train")
    cd = rbm.CdConfig(
        learning_rate=cfg["lr"],
        momentum=cfg["momentum"],
        initial_momentum=cfg["initial_momentum"],
        weight_decay=cfg["weight_decay"],
        epochs=cfg["epochs"],
        mini_batch=cfg["mini_batch"],
        seed=cfg["seed"],
    )
    stack = rbm.train_stack(data, cfg["layers"], cd)
    params = encoder.from_rbm_stack(stack)
    encoder.save_checkpoint(params, cfg["out"])
    manifest = _write_manifest(cfg["out"], "pretrain", cfg)
    print(f"wrote {cfg['out']} ({params.num_params} parameters), manifest {manifest}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    keys = ["train_images", "train_labels", "train_csv", "init", "layers", "k", "m",
            "batch", "epochs", "cg_iters", "seed", "dtype", "out", "report"]
    cfg = _resolve(args, keys)
    _require(cfg, "init")
    _require(cfg, "out")
    if cfg["seed"] is None:
        cfg["seed"] = 0
    from . import encoder, trainer

    data = _load_split(cfg, "train")
    if cfg["init"] == "random":
        layers = _require(cfg, "layers")
        init_params = encoder.init_encoder(layers, seed=cfg["seed"])
    else:
        init_params = encoder.load_checkpoint(cfg["init"])
    train_cfg = trainer.TrainConfig(
        layer_sizes=init_params.widths,
        k=cfg["k"],
        m=cfg["m"],
        batch_size=cfg["batch"],
        epochs=cfg["epochs"],
        cg_line_searches=cfg["cg_iters"],
        seed=cfg["seed"],
        init_mode=trainer.INIT_RANDOM if cfg["init"] == "random" else trainer.INIT_RBM,
        dtype=cfg["dtype"],
    )
    params, report = trainer.finetune(data, train_cfg, init_params)
    encoder.save_checkpoint(params.astype("float64"), cfg["out"])
    report_path = cfg["report"] or (str(cfg["out"]) + ".report.csv")
    report.checkpoint_path = str(cfg["out"])
    report.save(report_path)
    cfg["report"] = report_path
    manifest = _write_manifest(cfg["out"], "finetune", cfg)
    final = report.losses[-1]
    print(f"wrote {cfg['out']}; final loss {final:.6g}; report {report_path}; "
          f"manifest {manifest}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    keys = ["train_images", "train_labels", "train_csv", "test_images",
            "test_labels", "test_csv", "model", "mode", "k", "m", "baseline",
            "out", "dump_predictions", "header"]
    cfg = _resolve(args, keys)
    _require(cfg, "model")
    from . import classify, encoder
    from .neighbors import NeighborConfig

    train = _load_split(cfg, "train")
    test = _load_split(cfg, "test")
    params = encoder.load_checkpoint(cfg["model"])
    train_codes = encoder.forward(params, train.features)
    test_codes = encoder.forward(params, test.features)

    rows = []
    knn_preds = None
    if cfg["mode"] in ("knn", "both"):
        knn_preds = classify.knn_predict(train_codes, train.labels, test_codes, cfg["k"])
        rows.append(("dnet-knn", "test",
                     100.0 * classify.error_rate(knn_preds, test.labels)))
    if cfg["mode"] in ("energy", "both"):
        preds = classify.energy_predict_all(
            train_codes, train.labels, test_codes, NeighborConfig(cfg["k"], cfg["m"]))
        rows.append(("dnet-knn-e", "test",
                     100.0 * classify.error_rate(preds, test.labels)))
    if cfg["baseline"] == "pixels":
        preds = classify.knn_predict(train.features, train.labels,
                                     test.features, cfg["k"])
        rows.append(("knn-pixels", "test",
                     100.0 * classify.error_rate(preds, test.labels)))

    lines = [f"{method},{split},{pct:.6g}" for method, split, pct in rows]
    for line in lines:
        print(line)
    if cfg["out"]:
        with open(cfg["out"], "w") as f:
            if cfg["header"]:
                f.write("method,split,error_percent\n")
            f.write("\n".join(lines) + "\n")
        _write_manifest(cfg["out"], "eval", cfg)
    if cfg["dump_predictions"] and knn_preds is not None:
        classify.save_predictions(cfg["dump_predictions"], knn_preds, test.labels,
                                  header=cfg["header"])
    return EXIT_OK


def _cmd_embed(args) -> int:
    keys = ["train_images", "train_labels", "train_csv", "model", "out", "header"]
    cfg = _resolve(args, keys)
    _require(cfg, "model")
    _require(cfg, "out")
    from . import encoder

    data = _load_split(cfg, "train")
    params = encoder.load_checkpoint(cfg["model"])
    codes = encoder.forward(params, data.features)
    with open(cfg["out"], "w") as f:
        if cfg["header"]:
            f.write("index,label," + ",".join(
                f"c{i + 1}" for i in range(codes.shape[1])) + "\n")
        for idx, (label, row) in enumerate(zip(data.labels, codes)):
            f.write(f"{idx},{label}," + ",".join("%.17g" % v for v in row) + "\n")
    manifest = _write_manifest(cfg["out"], "embed", cfg)
    print(f"wrote {codes.shape[0]} embeddings to {cfg['out']}, manifest {manifest}")
    return EXIT_OK


def _cmd_split(args) -> int:
    keys = ["csv", "style", "seed", "per_class_train", "per_class_test",
            "out_train", "out_test"]
    cfg = _resolve(args, keys)
    _require(cfg, "csv")
    _require(cfg, "out_train")
    _require(cfg, "out_test")
    if cfg["style"] == "random" and cfg["seed"] is None:
        raise ConfigError("--style random requires --seed")
    from . import dataset

    data = dataset.load_csv(cfg["csv"])
    spec = dataset.SplitSpec(
        per_class_train=cfg["per_class_train"],
        per_class_test=cfg["per_class_test"],
        shuffle_seed=cfg["seed"] if cfg["style"] == "random" else None,
    )
    train, test = dataset.fixed_split(data, spec)
    dataset.save_csv(train, cfg["out_train"])
    dataset.save_csv(test, cfg["out_test"])
    manifest = _write_manifest(cfg["out_train"], "split", cfg)
    print(f"wrote {len(train)} train rows to {cfg['out_train']}, "
          f"{len(test)} test rows to {cfg['out_test']}, manifest {manifest}")
    return EXIT_OK


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "eval": _cmd_eval,
    "embed": _cmd_embed,
    "split": _cmd_split,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, ConsistencyError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
