"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks on each pass's outputs.

Only the synthetic digit images depend on the seed.  Model seeds (CD-1
sampling, batch partition) are fixed parts of each workload's
configuration, so every seed runs the same configuration on different
data.  The fixture interleaves classes, so a fixed batch seed
also fixes every batch's class counts and no seed can starve a batch.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from _synthetic import make_digits
from dnetknn import classify, cli, encoder, rbm, trainer
from dnetknn.dataset import SplitSpec, fixed_split, save_idx
from dnetknn.neighbors import NeighborConfig

ARCH = (784, 500, 500, 2000, 30)
# desk at half the paper's widths: at full width one pass took 14-20 s on
# 2 cores, too long for several passes in one run, and fewer rows or
# epochs made code kNN lose to pixel kNN on some seeds
DESK_ARCH = (784, 250, 250, 1000, 30)
TINY_ARCH = (784, 100, 100, 200, 16)
OP_TIMEOUT_S = 120.0  # an operation slower than this counts as failed

# "tiny" is for the smoke run only: seconds long, never for timing
SIZES = {
    "desk": {
        "full": dict(train_per_class=200, test_per_class=50, layers=DESK_ARCH,
                     cd_epochs=10, epochs=3, k=5, m=30),
        "tiny": dict(train_per_class=50, test_per_class=10, layers=TINY_ARCH,
                     cd_epochs=5, epochs=10, k=5, m=10),
    },
    "batched": {
        "full": dict(per_class=200, batch_size=500, layers=ARCH, pretrain_rows=500,
                     epochs=1, k=5, m=30),
        "tiny": dict(per_class=20, batch_size=100, layers=TINY_ARCH, pretrain_rows=40,
                     epochs=1, k=2, m=3),
    },
    "classify": {
        "full": dict(train_per_class=600, test_per_class=150, layers=ARCH,
                     pretrain_rows=500, k=5, m=30),
        "tiny": dict(train_per_class=8, test_per_class=3, layers=TINY_ARCH,
                     pretrain_rows=40, k=2, m=3),
    },
}


@dataclass
class PassResult:
    """One timed pass: the start and end of each phase, the outcome of each
    operation (None when it succeeded, else the reason it failed) and
    quality values."""

    bounds: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    epoch_s: list = field(default_factory=list)

    @property
    def phases(self) -> dict:
        """Wall seconds of each phase."""
        return {name: end - start for name, (start, end) in self.bounds.items()}

    def timed(self, op: str, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.finished(op, time.perf_counter() - started)
        return result

    def finished(self, op: str, seconds: float) -> None:
        self.ops[op] = None if seconds <= OP_TIMEOUT_S else f"timeout ({seconds:.0f} s)"

    def fail(self, op: str, reason: str) -> None:
        if self.ops.get(op) is None:
            self.ops[op] = reason


def _error_pct(predictions, labels) -> float:
    return 100.0 * classify.error_rate(predictions, labels)


def check_trajectories(trajectories) -> str | None:
    """None when every CG value trajectory is finite and non-increasing."""
    if not trajectories:
        return "no CG trajectory was recorded"
    for idx, values in enumerate(trajectories):
        arr = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            return f"CG trajectory {idx} is not finite"
        if np.any(np.diff(arr) > 0.0):
            return f"CG trajectory {idx} increases"
    return None


class Desk:
    """Pretrain, fine-tune as one batch, then kNN, energy and pixel kNN."""

    ops = ("pretrain", "finetune", "knn", "energy", "pixel")

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int, workdir: Path):
        s = self.size
        data = make_digits(per_class=s["train_per_class"] + s["test_per_class"], seed=seed)
        train, test = fixed_split(data, SplitSpec(s["train_per_class"], s["test_per_class"]))
        return {"train": train, "test": test,
                "train_x": train.features.astype(np.float32),
                "test_x": test.features.astype(np.float32)}

    def run_pass(self, inputs, res: PassResult) -> None:
        s = self.size
        train, test = inputs["train"], inputs["test"]
        cfg = trainer.TrainConfig(
            layer_sizes=s["layers"], k=s["k"], m=s["m"], batch_size=len(train),
            epochs=s["epochs"], cg_line_searches=3, seed=0, dtype="float32")
        started = time.perf_counter()
        stack = res.timed("pretrain", rbm.train_stack, train, s["layers"],
                          rbm.CdConfig(epochs=s["cd_epochs"], mini_batch=100, seed=0),
                          dtype=np.float32)
        init = encoder.from_rbm_stack(stack)
        params, report = res.timed("finetune", trainer.finetune, train, cfg, init)
        trained = time.perf_counter()
        train_codes = encoder.forward(params, inputs["train_x"])
        test_codes = encoder.forward(params, inputs["test_x"])
        knn = res.timed("knn", classify.knn_predict, train_codes, train.labels,
                        test_codes, s["k"])
        energy = res.timed("energy", classify.energy_predict_all, train_codes,
                           train.labels, test_codes, NeighborConfig(s["k"], s["m"]))
        pixels = res.timed("pixel", classify.knn_predict, train.features, train.labels,
                           test.features, s["k"])
        res.bounds = {"train": (started, trained), "eval": (trained, time.perf_counter())}
        res.epoch_s = [e.seconds for e in report.epochs]
        q = res.quality
        q["final_loss"] = report.losses[-1]
        q["knn_error_pct"] = _error_pct(knn, test.labels)
        q["energy_error_pct"] = _error_pct(energy, test.labels)
        q["pixel_error_pct"] = _error_pct(pixels, test.labels)
        if not q["knn_error_pct"] < q["pixel_error_pct"]:
            res.fail("knn", "code kNN does not beat pixel kNN")
        if not q["energy_error_pct"] < q["pixel_error_pct"]:
            res.fail("energy", "energy classifier does not beat pixel kNN")


def _short_pretraining(train, size: dict, dtype=None):
    """One CD epoch on the first rows: a fixed start, not a good one."""
    stack = rbm.train_stack(train.subset(np.arange(size["pretrain_rows"])), size["layers"],
                            rbm.CdConfig(epochs=1, mini_batch=100, seed=0), dtype=dtype)
    return encoder.from_rbm_stack(stack)


class Batched:
    """Fine-tuning over batches smaller than the set, with triples rebuilt
    for each batch.

    It starts from a short pretraining made in setup, so the line search
    does not backtrack and this workload does not cover that regime.  From
    a random start the backtracking count varied with the data (40 to 50
    value evaluations per epoch over five seeds), a spread between seeds on
    top of the machine's own run-to-run noise.
    """

    ops = ("finetune",)

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int, workdir: Path):
        train = make_digits(per_class=self.size["per_class"], seed=seed)
        return {"train": train, "init": _short_pretraining(train, self.size, np.float32)}

    def run_pass(self, inputs, res: PassResult) -> None:
        s = self.size
        train = inputs["train"]
        cfg = trainer.TrainConfig(
            layer_sizes=s["layers"], k=s["k"], m=s["m"], batch_size=s["batch_size"],
            epochs=s["epochs"], cg_line_searches=3, seed=0, dtype="float32")
        started = time.perf_counter()
        _, report = res.timed("finetune", trainer.finetune, train, cfg, inputs["init"])
        res.bounds = {"train": (started, time.perf_counter())}
        res.epoch_s = [e.seconds for e in report.epochs]
        res.quality["final_loss"] = report.losses[-1]


class Classify:
    """`dnetknn eval --mode both --baseline pixels`, in-process, on IDX files."""

    methods = {"dnet-knn": "knn", "dnet-knn-e": "energy", "knn-pixels": "pixel"}
    ops = tuple(methods.values())

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int, workdir: Path):
        s = self.size
        data = make_digits(per_class=s["train_per_class"] + s["test_per_class"], seed=seed)
        train, test = fixed_split(data, SplitSpec(s["train_per_class"], s["test_per_class"]))
        paths = {name: str(workdir / name) for name in
                 ("train-images", "train-labels", "test-images", "test-labels", "model.dnkn")}
        save_idx(train, paths["train-images"], paths["train-labels"])
        save_idx(test, paths["test-images"], paths["test-labels"])
        encoder.save_checkpoint(_short_pretraining(train, s), paths["model.dnkn"])
        argv = ["eval", "--mode", "both", "--baseline", "pixels",
                "--k", str(s["k"]), "--m", str(s["m"]), "--model", paths["model.dnkn"]]
        for split in ("train", "test"):
            argv += [f"--{split}-images", paths[f"{split}-images"],
                     f"--{split}-labels", paths[f"{split}-labels"]]
        return {"argv": argv}

    def run_pass(self, inputs, res: PassResult) -> None:
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(inputs["argv"])
        res.bounds = {"eval": (started, time.perf_counter())}
        seconds = res.phases["eval"]
        rows = dict(line.split(",", 1) for line in out.getvalue().splitlines() if "," in line)
        for method, op in self.methods.items():
            res.finished(op, seconds)
            split, _, pct = rows.get(method, "").partition(",")
            try:
                value = float(pct)
            except ValueError:
                value = None
            if code != 0:
                res.fail(op, f"eval exited with code {code}")
            elif split != "test" or value is None or not 0.0 <= value <= 100.0:
                res.fail(op, f"no valid {method} row in the eval output")
            else:
                res.quality[f"{op}_error_pct"] = value


WORKLOADS = {"desk": Desk, "batched": Batched, "classify": Classify}


def run_passes(workload, inputs, tracer, seconds: float, passes: list) -> float:
    """Timed passes under `tracer` for at most `seconds` (at least one pass):
    another pass starts only if one more like the last would still end in
    time.  Each is appended to `passes` as (PassResult, its spans).  Returns
    the seconds taken."""
    started = time.perf_counter()
    with tracer:
        while True:
            pass_started = time.perf_counter()
            first = len(tracer.spans)
            res = PassResult()
            try:
                workload.run_pass(inputs, res)
            except Exception as exc:  # a raise is a failed operation, not a crash
                for op in workload.ops:
                    if op not in res.ops:
                        res.ops[op] = f"{type(exc).__name__}: {exc}"
            spans = tracer.spans[first:]
            if "finetune" in workload.ops:
                bad = check_trajectories([s.counts["trajectory"] for s in spans
                                          if s.name == "trainer.polak_ribiere_minimize"])
                if bad or not np.isfinite(res.quality.get("final_loss", np.nan)):
                    res.fail("finetune", bad or "final loss is not finite")
            passes.append((res, spans))
            now = time.perf_counter()
            if now - started + (now - pass_started) > seconds:
                return now - started
