"""Which dnetknn functions the traced run wraps, what it counts at each,
and how the per-layer metrics of BENCHMARK.json follow from the spans.

Layers are the package's modules.  Functions are wrapped at the module
attribute their callers look up: `trainer` imported `forward` and
`build_triples` by name, and `margin` imported `forward_with_cache` and
`backward`, so those are wrapped in the importing module.  Operation
counts (GFLOP, table megabytes) are computed from shapes, not measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from dnetknn import classify, cli, dataset, encoder, margin, neighbors, rbm, trainer

CG = "trainer.polak_ribiere_minimize"
CG_TARGETS = [(trainer, "polak_ribiere_minimize")]
MEMORY_SPANS = ("neighbors.build_triples", "margin.loss", "margin.loss_and_code_grad")
MB = 1024.0 * 1024.0
# operation counts from shapes, and rates that divide them by measured time
COMPUTED = ("rbm.gflop", "rbm.gflop_per_s", "encoder.gflop", "encoder.gflop_per_s",
            "neighbors.triples.mb")

TARGETS = (
    [(trainer, name) for name in ("build_triples", "forward", "make_batches",
                                  "polak_ribiere_minimize", "finetune")]
    + [(margin, name) for name in ("loss", "loss_and_code_grad", "loss_and_param_grad",
                                   "forward_with_cache", "backward")]
    + [(rbm, "train_stack"), (rbm, "train_rbm"), (rbm, "hidden_given_visible"),
       (neighbors, "target_neighbors"), (neighbors, "impostor_neighbors"),
       (encoder, "forward"), (encoder, "load_checkpoint"), (encoder, "from_rbm_stack"),
       (dataset, "load_idx"), (cli, "main")]
    # not energy_predict: one span per test point would inflate the trace
    + [(classify, name) for name in ("knn_predict", "energy_predict_all", "error_rate")]
)


def rename(pixel_dim: int) -> dict:
    """kNN over raw pixels is its own span, apart from kNN over codes."""
    def knn(args):
        return "classify.knn_pixels" if args[0].shape[-1] == pixel_dim else None
    return {"classify.knn_predict": knn}


def _gemm_weights(widths) -> int:
    return sum(a * b for a, b in zip(widths, widths[1:]))


def _forward_counts(args, kwargs, result):
    params, x = args[0], args[1]
    rows = x.shape[0] if x.ndim == 2 else 1
    return {"rows": rows, "flop": 2 * rows * _gemm_weights(params.widths)}


def _backward_counts(args, kwargs, result):
    params, code_grad = args[0], args[2]
    widths = params.widths
    rows = code_grad.shape[0]
    # dW for every layer, upstream gradient for every layer but the first
    return {"flop": 2 * rows * (2 * _gemm_weights(widths) - widths[0] * widths[1])}


def _train_rbm_counts(args, kwargs, result):
    data, num_hidden, cfg = args[0], args[1], args[2]
    n, visible = data.shape
    # per mini-batch: two hidden, one visible conditional and two correlations
    return {"flop": 10 * n * visible * num_hidden * cfg.epochs}


def _hidden_counts(args, kwargs, result):
    machine, v = args[0], args[1]
    rows = v.shape[0] if v.ndim == 2 else 1
    return {"flop": 2 * rows * machine.num_visible * machine.num_hidden}


MEASURE = {
    CG: lambda a, k, r: {"trajectory": [float(v) for v in r[1]]},
    "encoder.forward": _forward_counts,
    "encoder.forward_with_cache": _forward_counts,
    "encoder.backward": _backward_counts,
    "rbm.train_rbm": _train_rbm_counts,
    "rbm.hidden_given_visible": _hidden_counts,
    "neighbors.build_triples": lambda a, k, r: {"rows": len(r)},
    "margin.loss": lambda a, k, r: {"rows": len(a[1]), "active": r.active_triples},
    "margin.loss_and_code_grad":
        lambda a, k, r: {"rows": len(a[1]), "active": r[0].active_triples},
    "classify.knn_predict": lambda a, k, r: {"points": len(r)},
    "classify.energy_predict_all": lambda a, k, r: {"points": len(r)},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans, epoch_s) -> dict:
    """Per-layer metrics of one traced pass."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {s.id: s.name for s in spans}

    def sec(name):
        return sum(s.seconds for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def total(names_, key):
        return sum(s.counts.get(key, 0) for n in names_ for s in by_name[n])

    def under(name, parent):
        return [s for s in by_name[name] if names.get(s.parent) == parent]

    def mean_points(name):
        return _ratio(total([name], "points"), calls(name))

    margin_calls = ("margin.loss", "margin.loss_and_code_grad")
    encoder_calls = ("encoder.forward", "encoder.forward_with_cache", "encoder.backward")
    rbm_flop = total(["rbm.train_rbm"], "flop") + sum(
        s.counts["flop"] for s in under("rbm.hidden_given_visible", "rbm.train_stack"))
    encoder_flop = total(encoder_calls, "flop")
    value_evals = len(under("margin.loss", CG))
    grad_evals = len(under("margin.loss_and_param_grad", CG))
    table_rows = [s.counts["rows"] for s in by_name["neighbors.build_triples"]]
    full_loss = under("margin.loss", "trainer.finetune") + \
        under("encoder.forward", "trainer.finetune")
    return {
        "rbm.train_rbm.s": sec("rbm.train_rbm"),
        "rbm.train_rbm.calls": calls("rbm.train_rbm"),
        "rbm.hidden_given_visible.s": sec("rbm.hidden_given_visible"),
        "rbm.gflop": rbm_flop / 1e9,
        "rbm.gflop_per_s": _ratio(rbm_flop / 1e9, sec("rbm.train_stack")),
        "neighbors.build_triples.s": sec("neighbors.build_triples"),
        "neighbors.build_triples.calls": calls("neighbors.build_triples"),
        "neighbors.build_triples.peak_mb":
            max((s.peak_bytes for s in by_name["neighbors.build_triples"]), default=0) / MB,
        "neighbors.target_neighbors.s": sec("neighbors.target_neighbors"),
        "neighbors.impostor_neighbors.s": sec("neighbors.impostor_neighbors"),
        "neighbors.triples.rows": sum(table_rows),
        "neighbors.triples.mb": max(table_rows, default=0) * 3 * 8 / MB,
        "margin.loss.s": sec("margin.loss"),
        "margin.loss.calls": calls("margin.loss"),
        "margin.loss.rows": total(["margin.loss"], "rows"),
        "margin.loss_and_code_grad.s": sec("margin.loss_and_code_grad"),
        "margin.loss_and_code_grad.calls": calls("margin.loss_and_code_grad"),
        "margin.active_share":
            _ratio(total(margin_calls, "active"), total(margin_calls, "rows")),
        "margin.peak_mb":
            max((s.peak_bytes for n in margin_calls for s in by_name[n]), default=0) / MB,
        "encoder.forward.s": sec("encoder.forward"),
        "encoder.forward.rows": total(["encoder.forward"], "rows"),
        "encoder.forward_with_cache.s": sec("encoder.forward_with_cache"),
        "encoder.backward.s": sec("encoder.backward"),
        "encoder.gflop": encoder_flop / 1e9,
        "encoder.gflop_per_s":
            _ratio(encoder_flop / 1e9, sum(sec(n) for n in encoder_calls)),
        "encoder.load_checkpoint.s": sec("encoder.load_checkpoint"),
        "trainer.cg.s": sec(CG),
        "trainer.cg.self_s": sum(s.self_s for s in by_name[CG]),
        "trainer.value_evals": value_evals,
        "trainer.grad_evals": grad_evals,
        # accepted steps are value+gradient calls beyond each CG call's first
        "trainer.accepted_share": _ratio(grad_evals - calls(CG), value_evals),
        "trainer.full_loss.s": sum(s.seconds for s in full_loss),
        "trainer.epoch_s": statistics.median(epoch_s) if epoch_s else 0.0,
        "classify.knn_predict.s": sec("classify.knn_predict"),
        "classify.knn_pixels.s": sec("classify.knn_pixels"),
        "classify.energy_predict_all.s": sec("classify.energy_predict_all"),
        "classify.knn_predict.points": mean_points("classify.knn_predict"),
        "classify.knn_pixels.points": mean_points("classify.knn_pixels"),
        "classify.energy_predict_all.points": mean_points("classify.energy_predict_all"),
        "dataset.make_batches.s": sec("dataset.make_batches"),
        "dataset.load_idx.s": sec("dataset.load_idx"),
        "cli.main.self_s": sum(s.self_s for s in by_name["cli.main"]),
    }


def per_pass_medians(spans_per_pass, epoch_s_per_pass) -> dict:
    """Each per-layer metric as its median over the traced passes."""
    per_pass = [pass_metrics(spans, epoch_s)
                for spans, epoch_s in zip(spans_per_pass, epoch_s_per_pass)]
    return {name: float(statistics.median(p[name] for p in per_pass))
            for name in per_pass[0]}
