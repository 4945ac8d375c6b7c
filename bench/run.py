"""dnetknn benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

The run builds its inputs from --seed, sets them up several times (the
median is setup_s), then repeats timed passes of the workload until
--seconds have gone by, checks every pass's outputs, and prints the
metrics.  With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it times untraced passes for half the
time, then traces the public functions of every dnetknn module for the
other half and prints the per-layer metrics.  The last line of stdout is
one JSON object; the full record goes to bench/out/.  See bench/README.md
for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# one fixed BLAS thread count, no higher than the cores this process may use
THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 5
# top-level spans must cover this share of each traced phase, or the pass's
# "trace" operation fails: the harness's own steps between them are small
MIN_COVERAGE = 0.98
# fewer passes than this on either side give no overhead: one pass can fall
# in a slow phase of the machine
MIN_OVERHEAD_PASSES = 3
SUMMARY_UNITS = {"train_s": "s", "eval_s": "s", "pipeline_s": "s", "passes": "count",
                 "failed_ops_share": "share", "final_loss": "-", "knn_error_pct": "%",
                 "energy_error_pct": "%", "pixel_error_pct": "%", "traced_passes": "count",
                 "train_overhead_share": "share", "eval_overhead_share": "share"}


def pin_threads() -> None:
    """Must run before numpy is imported: OpenBLAS reads these at load."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)


def openblas_info() -> dict:
    """Effective thread count and build string of each loaded OpenBLAS.

    Asks the libraries themselves, since the environment variables take
    effect only if they were set before the library was loaded.  A library
    that offers neither query is recorded without a thread count.
    """
    import ctypes

    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    info = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {}
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry = {"threads": threads(), "config": config().decode()}
        info[Path(path).name] = entry
    return info


def environment(workload: str, seed: int, size: dict) -> dict:
    import numpy
    import scipy

    import dnetknn

    return {
        "dnetknn": dnetknn.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "threads_requested": THREADS,
        "openblas": openblas_info(),
        "workload": workload,
        "seed": seed,
        "size": size,
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def top_level_s(spans, start: float, end: float) -> float:
    """Summed durations of the top-level spans between start and end."""
    return sum(s.seconds for s in spans
               if s.parent is None and start <= s.start and s.end <= end)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke run; not for timing")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, traced and untraced, "
                             "and check the output schema")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dnetknn" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "_synthetic.py").is_file():
        print(f"error: {ROOT} holds no dnetknn checkout (src/dnetknn, "
              "tests/_synthetic.py)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()

    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import layers
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS, run_passes

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    size = SIZES[args.workload]["tiny" if args.tiny else "full"]
    workload = WORKLOADS[args.workload](size)
    env = environment(args.workload, args.seed, size)
    run_id = f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}"

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{run_id}"
    workdir.mkdir()
    try:
        setup_s, untraced, traced = [], [], []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_s.append(time.perf_counter() - started)
        plain = Tracer(run_id, layers.CG_TARGETS, layers.MEASURE)
        elapsed = run_passes(workload, inputs, plain,
                             args.seconds / 2 if args.trace else args.seconds, untraced)
        if args.trace:
            full = Tracer(run_id, layers.TARGETS, layers.MEASURE,
                          layers.rename(size["layers"][0]), layers.MEMORY_SPANS)
            run_passes(workload, inputs, full, args.seconds - elapsed, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    failures = [(i, op, why) for i, (res, _) in enumerate(passes)
                for op, why in res.ops.items() if why is not None]
    coverage = []
    for i, (res, spans) in enumerate(traced, len(untraced)):
        covered = {name: top_level_s(spans, *bounds) for name, bounds in res.bounds.items()}
        phase = res.phases
        coverage.append(sum(covered.values()) / sum(phase.values()) if phase else 0.0)
        worst = min((covered[name] / phase[name] for name in phase), default=0.0)
        if worst < MIN_COVERAGE:
            failures.append((i, "trace", f"top-level spans cover {worst:.3f} of a phase, "
                                         f"below {MIN_COVERAGE}"))
    attempted = sum(len(workload.ops) for _ in passes) + len(traced)
    quality = passes[0][0].quality
    for i, (res, _) in enumerate(passes[1:], 1):
        if res.quality != quality:
            failures.append((i, "repeat", f"pass {i} quality {res.quality} != {quality}"))
    bad_threads = {name: lib["threads"] for name, lib in env["openblas"].items()
                   if lib.get("threads", THREADS) != THREADS}
    if bad_threads:
        failures.append((None, "threads", f"effective BLAS threads {bad_threads} "
                                          f"!= requested {THREADS}"))
    failed = attempted if bad_threads else min(attempted, len(failures))

    def phase_s(runs, name):
        return [res.phases[name] for res, _ in runs if name in res.phases]

    pass_s = [sum(res.phases.values()) for res, _ in untraced if res.phases]
    phases = sorted({name for res, _ in untraced for name in res.phases})
    summary = {
        **{f"{name}_s": median(phase_s(untraced, name)) for name in phases},
        "pipeline_s": median(pass_s),
        "passes": len(untraced),
        "failed_ops_share": failed / attempted,
        **quality,
    }
    if args.trace:
        metrics = layers.per_pass_medians([spans for _, spans in traced],
                                          [res.epoch_s for res, _ in traced])
        metrics["trace.coverage_share"] = median(coverage)
        summary["traced_passes"] = len(traced)
        for name in phases:
            plain_s, traced_s = phase_s(untraced, name), phase_s(traced, name)
            enough = min(len(plain_s), len(traced_s)) >= MIN_OVERHEAD_PASSES
            summary[f"{name}_overhead_share"] = \
                median(traced_s) / median(plain_s) - 1.0 if enough else None
        wanted = "per_layer"
    else:
        metrics = {
            "setup_s": median(setup_s),
            "pipeline_s": summary["pipeline_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = "end_to_end"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[wanted]},
    }

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"run": run_id, "environment": env, "summary": summary,
              "setup_s": setup_s, "failures": failures, "result": result,
              "passes": [{"phases": res.phases, "ops": res.ops, "quality": res.quality,
                          "epoch_s": res.epoch_s, "traced": i >= len(untraced)}
                         for i, (res, _) in enumerate(passes)]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        full.write_jsonl(stem.with_suffix(".spans.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced, {len(traced)} traced")
    print(f"environment {json.dumps(env)}")
    for name, value in summary.items():
        if value is None:
            value = f"n/a (fewer than {MIN_OVERHEAD_PASSES} passes on a side)"
        print(f"  {name:34s} {value} {SUMMARY_UNITS[name]}")
    for name, entry in result["metrics"].items():
        computed = " (computed)" if name in layers.COMPUTED else ""
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}{computed}")
    for failure in failures[:10]:
        print(f"  FAILED pass {failure[0]} {failure[1]}: {failure[2]}")
    if len(failures) > 10:
        print(f"  ... and {len(failures) - 10} more failures in the record")
    print(f"record {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced: the last stdout
    line must match the contract's schema and BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            problems = schema_problems(proc, expected[trace])
            ok = ok and not problems
            status = "FAIL " + "; ".join(problems) if problems else \
                "schema ok, " + proc.stdout.strip().splitlines()[-1][:60]
            print(f"smoke {workload:8s} trace {trace}: {status} "
                  f"({time.perf_counter() - started:.1f} s)")
    return 0 if ok else 1


def schema_problems(proc, expected: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON ({exc})"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not whole numbers")
    if set(result["metrics"]) != set(expected):
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(expected))}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry.get("value"), (int, float)) or \
                entry.get("unit") != expected.get(name):
            problems.append(f"bad entry {name}: {entry}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
