"""Command line front end.

Subcommands cover the whole pipeline: ``pretrain`` (greedy layer-wise
pretraining to a checkpoint), ``finetune`` (margin fine-tuning from a
checkpoint or a random start), ``eval`` (kNN / energy error rates),
``embed`` (dump code vectors as CSV), and ``split`` (materialize per-class
train/test CSV fixtures).

Each option is declared once in ``_OPTIONS`` (converter, default, choices,
help), each subcommand once in ``_COMMANDS`` (handler, help, its options and
the required ones); they drive the argparse flags, the config-file keys and
``_resolve``, which converts and checks flag and file values alike.
Precedence: flags beat a ``--config`` file (line-based ``key = value``, keys
being the command's option names, each at most once) which beats built-in
defaults.  Every run that writes a file writes a ``<output>.manifest``
beside its first output (for ``eval``: ``--out``, else
``--dump-predictions``; an ``eval`` that only prints writes none).  It
records the resolved values, with paths made absolute, so any run can be
reproduced from its manifest alone, from any working directory.  Output
paths are checked as they are resolved, before any data is read, and a run
is refused when two of its outputs (the manifest included) or an output and
an input are one file.

A handler returns nothing or raises; ``main`` alone turns a run into an exit
status: 0 ok, else the raised error's ``exit_code`` (see `errors`; 2 config, 3
io/data, 4 numerical divergence), or 3 for an ``OSError``.

numpy is imported lazily so that ``--threads`` can pin the BLAS thread
pools before they start; ``main`` refuses ``--threads`` (exit 2) in a
process that has already loaded numpy.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, NamedTuple

from .errors import CapacityError, ConfigError, DnetKnnError

EXIT_OK = 0
EXIT_DATA = 3


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _path(text: str) -> str:
    """Absolute, so that a manifest reruns from any working directory.  A
    name the manifest could not carry is refused: one that is not UTF-8 (kept
    as surrogate escapes; its UnicodeEncodeError is a ValueError), and one
    with a line break or trailing whitespace, which its line-based ``key =
    value`` reading would split or strip into another name."""
    text.encode("utf-8")
    path = os.path.abspath(text)
    if "\n" in path or "\r" in path or path != path.rstrip():
        raise ValueError("a path with a line break or trailing whitespace "
                         "cannot be written into a manifest")
    return path


def _out_path(text: str) -> str:
    """`_path` for a file the run writes, refused before any data is read
    unless its directory exists and it is not a directory itself."""
    path = _path(text)
    parent = os.path.dirname(path)
    if os.path.isdir(path):
        raise ValueError("is a directory")
    if not os.path.isdir(parent):
        raise ValueError(f"directory {parent} does not exist")
    return path


def _init(text: str) -> str:
    return text if text == "random" else _path(text)


def _layers(text: str) -> tuple[int, ...]:
    sizes = tuple(int(part) for part in text.split(","))
    if len(sizes) < 2:
        raise ValueError("a layer spec needs at least two sizes")
    if min(sizes) < 1:
        raise ValueError("every layer width must be >= 1")
    return sizes


class Option(NamedTuple):
    """How one option's text becomes a value; a ``_bool`` option is a bare flag."""

    convert: Callable = str
    default: object = None
    choices: tuple = ()
    help: str | None = None


class Command(NamedTuple):
    handler: Callable
    help: str
    options: tuple
    required: tuple = ()


_OPTIONS = {
    "train_images": Option(_path, help="IDX image file"),
    "train_labels": Option(_path, help="IDX label file"),
    "train_csv": Option(_path, help="CSV fallback (label,features...)"),
    "test_images": Option(_path, help="IDX test image file"),
    "test_labels": Option(_path, help="IDX test label file"),
    "test_csv": Option(_path, help="test CSV fallback (label,features...)"),
    "csv": Option(_path, help="input CSV (label,features...)"),
    "layers": Option(_layers, help="comma-separated widths, e.g. 784,500,500,2000,30"),
    "epochs": Option(int, 10),
    "lr": Option(float, 0.1),
    "momentum": Option(float, 0.9),
    "initial_momentum": Option(float, 0.5),
    "weight_decay": Option(float, 2e-4),
    "mini_batch": Option(int, 100),
    "seed": Option(_nonnegative_int),
    "out": Option(_out_path, help="output path (checkpoint, eval rows or embedding CSV)"),
    "init": Option(_init, help="checkpoint path, or 'random' (then --layers is required)"),
    "k": Option(int, 5),
    "m": Option(int, 30),
    "batch": Option(int, 10000,
                    help="rows per batch; n // batch class-stratified batches"),
    "cg_iters": Option(int, 3),
    "dtype": Option(str, "float64"),
    "report": Option(_out_path, help="per-epoch report path (default <out>.report.csv)"),
    "model": Option(_path, help="encoder checkpoint"),
    "mode": Option(str, "both", ("knn", "energy", "both")),
    "baseline": Option(choices=("pixels",), help="also report raw-pixel kNN error"),
    "dump_predictions": Option(_out_path, help="write per-point prediction CSV here"),
    "style": Option(str, "fixed", ("fixed", "random")),
    "per_class_train": Option(int, 800),
    "per_class_test": Option(int, 300),
    "out_train": Option(_out_path),
    "out_test": Option(_out_path),
    "header": Option(_bool, False),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnetknn",
        description="Large-margin kNN embeddings from an RBM-pretrained deep encoder",
    )
    parser.add_argument("--config", help="key = value config file (flags override it)")
    parser.add_argument("--threads", type=int,
                        help="cap BLAS/OpenMP worker threads for this process")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name in spec.options:
            option = _OPTIONS[name]
            if option.convert is _bool:
                # a bare flag, resolved like the file value "true"
                p.add_argument(_flag(name), action="store_const", const="true",
                               help=option.help)
            else:
                metavar = "{%s}" % ",".join(option.choices) if option.choices else None
                p.add_argument(_flag(name), metavar=metavar, help=option.help)
    return parser


def _read_config_file(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: {key} was already set on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        entries[key] = value.strip()
    return entries


def _convert(name: str, text: str):
    option = _OPTIONS[name]
    try:
        value = option.convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad value {text!r} for {_flag(name)}: {exc}") from None
    if option.choices and value not in option.choices:
        raise ConfigError(f"{_flag(name)} must be one of {', '.join(option.choices)}, "
                          f"got {value!r}")
    return value


def _resolve(args) -> dict:
    """The command's options: flag over config file over default, required ones set."""
    spec = _COMMANDS[args.command]
    file_cfg = _read_config_file(args.config) if args.config else {}
    # manifests are valid config files; their provenance keys carry no options
    unknown = set(file_cfg) - set(spec.options) - {"command", "timestamp"}
    if unknown:
        raise ConfigError(f"config keys that {args.command} does not take: "
                          f"{', '.join(sorted(unknown))}")
    cfg = {}
    for name in spec.options:
        text = getattr(args, name)
        if text is None:
            text = file_cfg.get(name)
        cfg[name] = _OPTIONS[name].default if text is None else _convert(name, text)
    for name in spec.required:
        _require(cfg, name)
    if "report" in cfg and cfg["report"] is None:  # finetune's default report path
        cfg["report"] = _convert("report", cfg["out"] + ".report.csv")
    _check_collisions(spec.options, cfg)
    return cfg


def _check_collisions(options, cfg: dict) -> None:
    """Refuse a run that would write one file twice or overwrite an input;
    its manifest could not rerun it.  The outputs are the ``_out_path``
    options and the manifest beside the first, the inputs the ``_path``
    options and a checkpoint ``--init``.  ``--config`` is no input here:
    rerunning a manifest rewrites it by design."""
    outputs = [(_flag(name), cfg[name]) for name in options
               if _OPTIONS[name].convert is _out_path and cfg[name] is not None]
    if outputs:
        outputs.append((f"the manifest of {outputs[0][0]}", outputs[0][1] + ".manifest"))
    seen = {os.path.realpath(cfg[name]): _flag(name) for name in options
            if _OPTIONS[name].convert in (_path, _init) and cfg[name] not in (None, "random")}
    for flag, path in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{flag} and {seen[real]} name one file, {path}")
        seen[real] = flag


def _require(cfg: dict, key: str):
    if cfg[key] is None:
        raise ConfigError(f"missing required option {_flag(key)}")
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
    with open(path, "w", encoding="utf-8") as f:
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


def _cmd_pretrain(cfg: dict) -> None:
    if cfg["seed"] is None:
        cfg["seed"] = 0
    from . import encoder, rbm

    cd = rbm.CdConfig(
        learning_rate=cfg["lr"],
        momentum=cfg["momentum"],
        initial_momentum=cfg["initial_momentum"],
        weight_decay=cfg["weight_decay"],
        epochs=cfg["epochs"],
        mini_batch=cfg["mini_batch"],
        seed=cfg["seed"],
    )
    data = _load_split(cfg, "train")
    stack = rbm.train_stack(data, cfg["layers"], cd)
    params = encoder.from_rbm_stack(stack)
    encoder.save_checkpoint(params, cfg["out"])
    manifest = _write_manifest(cfg["out"], "pretrain", cfg)
    print(f"wrote {cfg['out']} ({params.num_params} parameters), manifest {manifest}")


def _cmd_finetune(cfg: dict) -> None:
    if cfg["seed"] is None:
        cfg["seed"] = 0
    from . import encoder, trainer

    if cfg["init"] == "random":
        init_params = encoder.init_encoder(_require(cfg, "layers"), seed=cfg["seed"])
    else:
        init_params = encoder.load_checkpoint(cfg["init"])
        if cfg["layers"] is not None and cfg["layers"] != init_params.widths:
            raise ConfigError(f"--layers {cfg['layers']} differs from the widths "
                              f"{init_params.widths} of {cfg['init']}")
    train_cfg = trainer.TrainConfig(
        layer_sizes=init_params.widths,
        k=cfg["k"],
        m=cfg["m"],
        batch_size=cfg["batch"],
        epochs=cfg["epochs"],
        cg_line_searches=cfg["cg_iters"],
        seed=cfg["seed"],
        dtype=cfg["dtype"],
    )
    data = _load_split(cfg, "train")
    params, report = trainer.finetune(data, train_cfg, init_params)
    encoder.save_checkpoint(params, cfg["out"])
    report.save(cfg["report"])
    manifest = _write_manifest(cfg["out"], "finetune", cfg)
    final = report.losses[-1]
    print(f"wrote {cfg['out']}; final loss {final:.6g}; report {cfg['report']}; "
          f"manifest {manifest}")


def _cmd_eval(cfg: dict) -> None:
    from . import classify, encoder
    from .neighbors import NeighborConfig, check_capacity

    # checks k, m >= 1 for every mode before any data is read
    neighbor_cfg = NeighborConfig(cfg["k"], cfg["m"])
    energy = cfg["mode"] in ("energy", "both")
    knn = cfg["mode"] in ("knn", "both")
    train = _load_split(cfg, "train")
    # the classifiers' size rules, before any encoding
    if knn or cfg["baseline"] == "pixels":
        classify.check_k(cfg["k"], len(train))
    if energy:
        check_capacity(train.labels, train.num_classes, cfg["k"], cfg["m"])
    test = _load_split(cfg, "test")
    if len(test) == 0:
        raise CapacityError("the test set is empty; there is nothing to evaluate")
    params = encoder.load_checkpoint(cfg["model"])
    train_codes = encoder.forward(params, train.features)
    test_codes = encoder.forward(params, test.features)

    runs = []  # (row name, predictions), in output order
    if knn:
        runs.append(("dnet-knn", classify.knn_predict(
            train_codes, train.labels, test_codes, cfg["k"])))
    if energy:
        runs.append(("dnet-knn-e", classify.energy_predict_all(
            train_codes, train.labels, test_codes, neighbor_cfg)))
    if cfg["baseline"] == "pixels":
        runs.append(("knn-pixels", classify.knn_predict(
            train.features, train.labels, test.features, cfg["k"])))

    lines = [f"{method},test,{100.0 * classify.error_rate(preds, test.labels):.6g}"
             for method, preds in runs]
    for line in lines:
        print(line)
    if cfg["out"]:
        with open(cfg["out"], "w") as f:
            if cfg["header"]:
                f.write("method,split,error_percent\n")
            f.write("\n".join(lines) + "\n")
    if cfg["dump_predictions"]:  # the first run: kNN when it ran, else energy
        classify.save_predictions(cfg["dump_predictions"], runs[0][1], test.labels,
                                  header=cfg["header"])
    written = cfg["out"] or cfg["dump_predictions"]
    if written:  # beside the first output; a run that writes no file writes none
        _write_manifest(written, "eval", cfg)


def _cmd_embed(cfg: dict) -> None:
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


def _cmd_split(cfg: dict) -> None:
    if cfg["style"] == "random" and cfg["seed"] is None:
        raise ConfigError("--style random requires --seed")
    from . import dataset

    spec = dataset.SplitSpec(
        per_class_train=cfg["per_class_train"],
        per_class_test=cfg["per_class_test"],
        shuffle_seed=cfg["seed"] if cfg["style"] == "random" else None,
    )
    data = dataset.load_csv(cfg["csv"])
    train, test = dataset.fixed_split(data, spec)
    dataset.save_csv(train, cfg["out_train"])
    dataset.save_csv(test, cfg["out_test"])
    manifest = _write_manifest(cfg["out_train"], "split", cfg)
    print(f"wrote {len(train)} train rows to {cfg['out_train']}, "
          f"{len(test)} test rows to {cfg['out_test']}, manifest {manifest}")


_TRAIN_DATA = ("train_images", "train_labels", "train_csv")

_COMMANDS = {
    "pretrain": Command(_cmd_pretrain, "greedy layer-wise pretraining", _TRAIN_DATA + (
        "layers", "epochs", "lr", "momentum", "initial_momentum", "weight_decay",
        "mini_batch", "seed", "out"), required=("layers", "out")),
    "finetune": Command(_cmd_finetune, "margin fine-tuning of an encoder", _TRAIN_DATA + (
        "init", "layers", "k", "m", "batch", "epochs", "cg_iters", "seed", "dtype",
        "out", "report"), required=("init", "out")),
    "eval": Command(_cmd_eval, "error rates of a trained encoder", _TRAIN_DATA + (
        "test_images", "test_labels", "test_csv", "model", "mode", "k", "m",
        "baseline", "out", "dump_predictions", "header"), required=("model",)),
    "embed": Command(_cmd_embed, "dump code vectors as CSV",
                     _TRAIN_DATA + ("model", "out", "header"), required=("model", "out")),
    "split": Command(_cmd_split, "materialize per-class train/test CSV fixtures", (
        "csv", "style", "seed", "per_class_train", "per_class_test", "out_train",
        "out_test"), required=("csv", "out_train", "out_test")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            if "numpy" in sys.modules:  # its BLAS pools have started; caps would be ignored
                raise ConfigError("--threads has no effect once numpy is loaded; set "
                                  "OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS, "
                                  "MKL_NUM_THREADS) in the environment before the "
                                  "process starts")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        _COMMANDS[args.command].handler(_resolve(args))
    except DnetKnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
