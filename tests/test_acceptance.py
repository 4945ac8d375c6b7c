"""End-to-end acceptance suite.

One test per criterion; each prints a single ``[acceptance] ... PASS/FAIL``
line (run with ``pytest -s`` to watch them live).  The two training-scale
criteria use a deterministic synthetic digit-image fixture by default; set
DNETKNN_MNIST_DIR to a directory holding the standard IDX files
(train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte,
t10k-labels-idx1-ubyte) to run them on real MNIST instead.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from dnetknn import classify, margin
from dnetknn.dataset import SplitSpec, fixed_split, load_idx
from dnetknn.encoder import (
    EncoderParams,
    forward,
    from_rbm_stack,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from dnetknn.neighbors import NeighborConfig, build_triples
from dnetknn.rbm import (
    CdConfig,
    hidden_given_visible,
    init_rbm,
    train_rbm,
    train_stack,
    visible_given_hidden,
)
from dnetknn.trainer import TrainConfig, finetune

from _oracles import exact_log_likelihood, log_prob_visible, triple_rows
from _synthetic import make_blobs, make_digits
from test_margin import fd_gradient, norm_relative_error, random_table
from test_neighbors import integer_dataset, oracle_triples
from test_rbm import oracle_joint, random_rbm

ARCH = (784, 500, 500, 2000, 30)
KNN_K = 5


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {number} ({name}): {status}  {detail}",
          flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def knn_error(train_codes, train_labels, test_codes, test_labels, k=KNN_K):
    preds = classify.knn_predict(train_codes, train_labels, test_codes, k)
    return classify.error_rate(preds, test_labels)


def loo_knn_error(codes, labels, k=KNN_K):
    """Leave-one-out kNN error on a training set (self never votes)."""
    wrong = 0
    n = len(labels)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        mask[i] = False
        pred = classify.knn_predict(codes[mask], labels[mask], codes[i], k)[0]
        wrong += pred.label != labels[i]
        mask[i] = True
    return wrong / n


# ---------------------------------------------------------------------------
# shared training-scale fixtures
# ---------------------------------------------------------------------------

def finetune_config(seed, epochs, layer_sizes=ARCH):
    return TrainConfig(
        layer_sizes=layer_sizes, k=5, m=30, batch_size=10000, epochs=epochs,
        cg_line_searches=3, seed=seed, dtype="float32",
    )


@pytest.fixture(scope="module")
def digit_subset():
    """5,000 train / 1,000 test, 784 features, 10 classes."""
    mnist_dir = os.environ.get("DNETKNN_MNIST_DIR")
    if mnist_dir:
        full_train = load_idx(os.path.join(mnist_dir, "train-images-idx3-ubyte"),
                              os.path.join(mnist_dir, "train-labels-idx1-ubyte"))
        full_test = load_idx(os.path.join(mnist_dir, "t10k-images-idx3-ubyte"),
                             os.path.join(mnist_dir, "t10k-labels-idx1-ubyte"))
        train, _ = fixed_split(full_train, SplitSpec(500, 0, shuffle_seed=4242))
        test, _ = fixed_split(full_test, SplitSpec(100, 0, shuffle_seed=4242))
        return train, test
    data = make_digits(per_class=600, side=28, seed=42)
    return fixed_split(data, SplitSpec(500, 100))


@pytest.fixture(scope="module")
def desk_run(digit_subset):
    """Pretrain + fine-tune once at desk scale; shared by criteria 4, 5, 7."""
    train, test = digit_subset
    started = time.perf_counter()
    stack = train_stack(train, ARCH, CdConfig(epochs=10, mini_batch=100, seed=0),
                        dtype=np.float32)
    pretrained = from_rbm_stack(stack)
    params, train_report = finetune(train, finetune_config(seed=0, epochs=12),
                                    pretrained)
    elapsed = time.perf_counter() - started

    f32 = lambda a: a.astype(np.float32)
    pre_train_codes = forward(pretrained, f32(train.features))
    pre_test_codes = forward(pretrained, f32(test.features))
    dnet_train_codes = forward(params, f32(train.features))
    dnet_test_codes = forward(params, f32(test.features))
    return {
        "train": train,
        "test": test,
        "seconds": elapsed,
        "report": train_report,
        "err_pixels": knn_error(train.features, train.labels,
                                test.features, test.labels),
        "err_pretrained": knn_error(pre_train_codes, train.labels,
                                    pre_test_codes, test.labels),
        "err_dnet": knn_error(dnet_train_codes, train.labels,
                              dnet_test_codes, test.labels),
        "dnet_train_codes": dnet_train_codes,
        "dnet_test_codes": dnet_test_codes,
    }


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    data = make_blobs(per_class=10, num_classes=3, dim=10, seed=101)
    table = build_triples(data, NeighborConfig(k=2, m=2))
    params = init_encoder((10, 7, 4, 3, 2), seed=102, weight_scale=0.7)
    # randomize biases as well so no gradient block is structurally trivial
    rng = np.random.default_rng(103)
    params = EncoderParams(params.widths,
                           params.vector + 0.3 * rng.standard_normal(params.num_params))

    _, gradient = margin.loss_and_param_grad(params, data.features, table)
    analytic = gradient()

    def value(vec):
        return margin.loss(forward(EncoderParams(params.widths, vec), data.features),
                           table).value

    numeric = fd_gradient(value, params.vector, h=1e-5)
    rel = norm_relative_error(analytic, numeric)
    elapsed = time.perf_counter() - started
    report(1, "gradient correctness", rel < 1e-5 and elapsed < 10.0,
           f"max relative error {rel:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. triples exactness
# ---------------------------------------------------------------------------

def test_criterion_2_triples_exactness():
    rng = np.random.default_rng(202)
    checked = 0
    worst = ""
    ok = True
    while checked < 20:
        data = integer_dataset(rng, n_range=(30, 201), classes_range=(2, 5),
                               dim_range=(2, 8), grid=16)
        cfg = NeighborConfig(k=int(rng.integers(1, 4)), m=int(rng.integers(1, 4)))
        counts = np.bincount(data.labels, minlength=data.num_classes)
        if counts.min() < max(cfg.k + 1, cfg.m):
            continue
        checked += 1
        table = build_triples(data, cfg)
        expected_rows = len(data) * cfg.k * (data.num_classes - 1) * cfg.m
        if len(table) != expected_rows:
            ok, worst = False, f"row count {len(table)} != {expected_rows}"
            break
        if not np.array_equal(triple_rows(table), oracle_triples(data, cfg)):
            ok, worst = False, f"mismatch vs oracle on config {checked}"
            break
    report(2, "triples exactness", ok,
           worst or f"20 configurations matched the quadratic oracle exactly")


# ---------------------------------------------------------------------------
# 3. rbm oracle
# ---------------------------------------------------------------------------

def test_criterion_3_rbm_oracle():
    machine = random_rbm(3, 2, seed=303)
    joint, vs, hs = oracle_joint(machine)

    cond_err = 0.0
    for v in vs:
        pv = sum(joint[(v, h)] for h in hs)
        got = hidden_given_visible(machine, np.array(v, float))
        for j in range(2):
            marginal = sum(joint[(v, h)] for h in hs if h[j] == 1)
            cond_err = max(cond_err, abs(got[j] - marginal / pv))
    for h in hs:
        ph = sum(joint[(v, h)] for v in vs)
        got = visible_given_hidden(machine, np.array(h, float))
        for i in range(3):
            marginal = sum(joint[(v, h)] for v in vs if v[i] == 1)
            cond_err = max(cond_err, abs(got[i] - marginal / ph))

    all_v = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    prob_sum = float(np.exp(log_prob_visible(machine, all_v)).sum())

    patterns = np.array([
        [0, 0, 0], [0, 0, 0], [0, 0, 0],
        [1, 1, 1], [1, 1, 1], [1, 1, 1],
        [1, 1, 0], [0, 1, 1],
    ], dtype=np.float64)
    before = exact_log_likelihood(init_rbm(3, 2, np.random.default_rng(7)), patterns)
    trained, _ = train_rbm(patterns, 2,
                           CdConfig(learning_rate=0.2, epochs=200, mini_batch=8,
                                    seed=7))
    after = exact_log_likelihood(trained, patterns)

    ok = cond_err < 1e-10 and abs(prob_sum - 1.0) < 1e-12 and after > before
    report(3, "rbm oracle", ok,
           f"conditional err {cond_err:.2e}, prob sum dev {abs(prob_sum - 1.0):.2e}, "
           f"log-likelihood {before:.4f} -> {after:.4f}")


# ---------------------------------------------------------------------------
# 4. desk-scale classification
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_desk_scale_classification(desk_run):
    ok = (desk_run["err_dnet"] < desk_run["err_pixels"]
          and desk_run["err_dnet"] < desk_run["err_pretrained"]
          and desk_run["seconds"] < 1800.0)
    report(4, "desk-scale classification", ok,
           f"dnet {desk_run['err_dnet']:.4f} vs pixels {desk_run['err_pixels']:.4f} "
           f"vs pretrained-codes {desk_run['err_pretrained']:.4f}, "
           f"{desk_run['seconds']:.0f}s")


# ---------------------------------------------------------------------------
# 5. pretraining effect
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_pretraining_effect(desk_run):
    train = desk_run["train"]
    wins = 0
    pairs = []
    for seed in range(5):
        if seed == 0:
            # the criterion-4 run used seed 0 with the same configuration, so
            # its epoch-wise trajectory prefix is this run's trajectory
            loss_rbm = desk_run["report"].losses[4]
        else:
            stack = train_stack(train, ARCH,
                                CdConfig(epochs=10, mini_batch=100, seed=seed),
                                dtype=np.float32)
            _, rep = finetune(train, finetune_config(seed=seed, epochs=5),
                              from_rbm_stack(stack))
            loss_rbm = rep.losses[4]
        _, rep = finetune(train, finetune_config(seed=seed, epochs=5),
                          init_encoder(ARCH, seed=seed))
        loss_random = rep.losses[4]
        pairs.append((loss_rbm, loss_random))
        wins += loss_rbm < loss_random
        print(f"  seed {seed}: pretrained {loss_rbm:.4g} vs random {loss_random:.4g}",
              flush=True)
    report(5, "pretraining effect", wins >= 4,
           f"pretrained start won {wins}/5 seeds "
           + " ".join(f"({a:.3g} vs {b:.3g})" for a, b in pairs))


# ---------------------------------------------------------------------------
# 6. training-error collapse
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_training_error_collapse():
    arch = (256, 500, 500, 2000, 30)
    train = make_digits(per_class=100, side=16, seed=606)
    stack = train_stack(train, arch, CdConfig(epochs=10, mini_batch=100, seed=0),
                        dtype=np.float32)
    cfg = finetune_config(seed=0, epochs=20, layer_sizes=arch)
    params, _ = finetune(train, cfg, from_rbm_stack(stack))
    codes = forward(params, train.features.astype(np.float32))
    err = loo_knn_error(codes, train.labels)
    report(6, "training-error collapse", err <= 0.005,
           f"leave-one-out training error {100 * err:.2f}%")


# ---------------------------------------------------------------------------
# 7. energy-classifier sanity
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_energy_classifier(desk_run):
    preds = classify.energy_predict_all(
        desk_run["dnet_train_codes"], desk_run["train"].labels,
        desk_run["dnet_test_codes"], NeighborConfig(k=5, m=30))
    err_energy = classify.error_rate(preds, desk_run["test"].labels)
    report(7, "energy-classifier sanity", err_energy < desk_run["err_pixels"],
           f"energy {err_energy:.4f} vs pixel knn {desk_run['err_pixels']:.4f}")


# ---------------------------------------------------------------------------
# 8. invariance suite
# ---------------------------------------------------------------------------

def test_criterion_8_invariance_suite(tmp_path):
    rng = np.random.default_rng(808)
    failures = []

    # loss invariance under joint translation + orthogonal rotation
    for case in range(100):
        n, d = int(rng.integers(8, 24)), int(rng.integers(2, 5))
        labels = rng.integers(0, 2, size=n)
        labels[:4] = [0, 1, 0, 1]
        codes = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0)
        table = random_table(rng, labels, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        base = margin.loss(codes, table)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        moved = codes @ q + rng.standard_normal(d)
        after = margin.loss(moved, table)
        if not math.isclose(base.value, after.value,
                            rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"loss invariance case {case}")
            break

    # kNN prediction invariance under the same joint motions
    for case in range(100):
        d = int(rng.integers(2, 5))
        train_codes = rng.standard_normal((30, d))
        train_labels = rng.integers(0, 3, size=30)
        test_codes = rng.standard_normal((8, d))
        k = int(rng.integers(1, 6))
        before = [p.label for p in classify.knn_predict(
            train_codes, train_labels, test_codes, k)]
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        shift = rng.standard_normal(d)
        after = [p.label for p in classify.knn_predict(
            train_codes @ q + shift, train_labels, test_codes @ q + shift, k)]
        if before != after:
            failures.append(f"knn invariance case {case}")
            break

    # loss is zero exactly when no triple is active
    for case in range(100):
        n = int(rng.integers(6, 20))
        labels = rng.integers(0, 2, size=n)
        labels[:4] = [0, 1, 0, 1]
        codes = rng.standard_normal((n, 3)) * rng.uniform(0.05, 5.0)
        table = random_table(rng, labels, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        result = margin.loss(codes, table)
        if (result.value == 0.0) != (result.active_triples == 0):
            failures.append(f"zero-iff-inactive case {case}")
            break

    # checkpoint round trips are bit-exact
    for case in range(100):
        sizes = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 5)))]
        params = init_encoder(sizes, seed=int(rng.integers(1 << 30)),
                              weight_scale=float(rng.uniform(0.01, 2.0)))
        path = tmp_path / f"case{case}.dnkn"
        save_checkpoint(params, path)
        again = load_checkpoint(path)
        same = (again.widths == params.widths
                and again.vector.tobytes() == params.vector.tobytes())
        if not same:
            failures.append(f"checkpoint case {case}")
            break

    report(8, "invariance suite", not failures,
           "; ".join(failures) or "4 property families x 100 cases")
