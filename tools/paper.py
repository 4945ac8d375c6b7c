"""Paper-scale memory and time of the command line, one fresh process each.

    python3 tools/paper.py --label head
    python3 tools/paper.py --label quick --rows 6000 --workdir /tmp/paper-quick

The fixture is the one of README "Memory at paper scale": `make_digits`
from tests/_synthetic.py at seed 1, the first `--rows` rows (60000) for
training and the next rows / 6 (10000) for test, written with `save_idx`,
plus a random `init_encoder((784, 500, 500, 2000, 30), seed=1)`
checkpoint.  Then, each in a fresh process with the BLAS threads pinned:

    dnetknn finetune --batch 10000 --epochs 1 --seed 1    (float64, CLI defaults)
    dnetknn eval --mode both --baseline pixels            (on the fine-tuned model)

The record goes to BENCH_paper-<label>.json at the repo root: per command
its wall seconds, the child's own peak RSS (`ru_maxrss`), its output lines
and the sha256 of every file it wrote, with the work directory's path
written as <workdir>; the report's seconds column varies
between runs, so the report is recorded without it.  A `--workdir` that
already holds the fixture for these rows reuses it; its files' sha256 are
recorded, so two records can be checked to share their inputs.  The code under test is the
src/ of this checkout.  This tool is no benchmark workload and no test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIDTHS = (784, 500, 500, 2000, 30)
SEED = 1
# one fixed BLAS thread count, as bench/run.py pins it
THREADS = min(2, len(os.sched_getaffinity(0)))
FIXTURE = ("train-images", "train-labels", "test-images", "test-labels", "init.dnkn")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def make_fixture(fixture: Path, rows: int) -> float | None:
    """Write the fixture unless its directory holds it; returns the seconds
    taken, None when it was there."""
    if all((fixture / name).is_file() for name in FIXTURE):
        return None
    fixture.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    from _synthetic import make_digits

    from dnetknn.dataset import save_idx
    from dnetknn.encoder import init_encoder, save_checkpoint

    test_rows = rows // 6
    data = make_digits(-(-(rows + test_rows) // 10), seed=SEED)  # interleaved by class
    save_idx(data.subset(np.arange(rows)), fixture / "train-images", fixture / "train-labels")
    save_idx(data.subset(np.arange(rows, rows + test_rows)),
             fixture / "test-images", fixture / "test-labels")
    save_checkpoint(init_encoder(WIDTHS, seed=SEED), fixture / "init.dnkn")
    return time.perf_counter() - started


def run(argv: list[str], env: dict, workdir: Path, outputs: list[Path]) -> dict:
    """One CLI command in a fresh process: wall time, the child's own peak
    RSS, its output lines and the sha256 of the files it wrote."""
    log = workdir / "command.log"
    with open(log, "w") as out:
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "dnetknn.cli", *argv], env=env,
                                 stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    def portable(text: str) -> str:  # records compare across hosts
        return text.replace(str(workdir), "<workdir>")

    return {"argv": [portable(arg) for arg in argv], "exit_code": child.returncode,
            "wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "output": [portable(line) for line in log.read_text().splitlines()],
            "sha256": {p.name: sha256(p) for p in outputs if p.is_file()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--rows", type=int, default=60000,
                        help="training rows; the test set has rows // 6")
    parser.add_argument("--workdir", help="fixture and outputs (default: a temporary "
                                          "directory, removed at the end)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(args.workdir or tmp).resolve()
        fixture = workdir / f"digits-{args.rows}"
        fixture_s = make_fixture(fixture, args.rows)
        train = ["--train-images", str(fixture / "train-images"),
                 "--train-labels", str(fixture / "train-labels")]
        model, errors = workdir / "model.dnkn", workdir / "errors.csv"
        for stale in (model, errors):
            stale.unlink(missing_ok=True)
        finetune = run(["finetune", *train, "--init", str(fixture / "init.dnkn"),
                        "--batch", "10000", "--epochs", "1", "--seed", str(SEED),
                        "--out", str(model)], env, workdir, [model])
        report = workdir / "model.dnkn.report.csv"
        if report.is_file():  # epoch, loss, active triples; not the seconds
            finetune["report"] = [line.rsplit(",", 1)[0]
                                  for line in report.read_text().splitlines()]
        commands = [finetune]
        if finetune["exit_code"] == 0:
            commands.append(run(["eval", *train,
                                 "--test-images", str(fixture / "test-images"),
                                 "--test-labels", str(fixture / "test-labels"),
                                 "--model", str(model), "--mode", "both",
                                 "--baseline", "pixels", "--out", str(errors)],
                                env, workdir, [errors]))
        inputs = {name: sha256(fixture / name) for name in FIXTURE}

    # "-dirty" when the checkout has uncommitted changes
    commit = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                             "--abbrev=40"], capture_output=True, text=True).stdout.strip()
    record = {"label": args.label, "commit": commit or None, "rows": args.rows,
              "test_rows": args.rows // 6, "threads": THREADS,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count(), "fixture_s": fixture_s,
              "fixture_sha256": inputs, "commands": commands}
    path = ROOT / f"BENCH_paper-{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for c in commands:
        print(f"{c['argv'][0]}: exit {c['exit_code']}, {c['wall_s']:.1f} s, "
              f"{c['peak_rss_mb']:.0f} MB")
    print(f"wrote {path}")
    return max(c["exit_code"] for c in commands) != 0


if __name__ == "__main__":
    sys.exit(main())
