#!/usr/bin/env python3
"""Benchmark for `sbmchroma experiment`.

    python3 perfbench/run.py --workload gnp-exact --seed 20260810 \\
        --seconds 40 --trace 0

Runs one workload (see workloads.py) as an experiment config, one round per
fresh process (worker.py), for about --seconds seconds, then checks the
report (checks.py) and prints one JSON object as its last line of standard
output.  With --trace 0 the metrics are the end-to-end ones: medians over
rounds of setup, wall and CPU time (stated at a fixed host speed, gauged by
reference.py) and peak RSS, and the report's mean colours, summed chi
prediction and mean alpha_h.  With --trace 1 untraced and traced rounds
alternate, and the metrics are per-layer calls, total and self time from the
traced rounds, four counts, and the tracing overhead.

The seed becomes the config's base_seed, so runs with one seed do identical
work; every round's report must be byte-identical.  Exits non-zero without
a result when the program cannot be run or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import check_report, quality_metrics, read_report
from reference import NOMINAL_S
from tracing import COUNTS, LAYERS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 8     # setup-only processes per run, on top of the rounds
MIN_ROUNDS = 3       # untraced rounds per run, however long they take
HARD_LIMIT_S = 170   # every worker is killed past this point of the run
# One BLAS thread: numpy's pool would otherwise put a second thread of the
# w* search on the other CPU, and a round's time would then depend on what
# else runs there.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

END_TO_END_UNITS = {
    "setup_s": "s", "experiment_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "colours_mean": "colours", "pred_chi_qstar_sum": "colours",
    "alpha_h_mean": "nats",
}


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _spawn(args: list[str], deadline: float) -> dict:
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              env=WORKER_ENV, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the {HARD_LIMIT_S} s limit") from exc
    end = time.monotonic()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    out["wall_s"] = end - start
    return out


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _median(values) -> float:
    return float(statistics.median(values))


def _at_nominal(r: dict, key: str) -> float:
    """A process's time `key` stated at the host speed at which one chunk of
    the reference computation takes NOMINAL_S: setup by the chunks timed
    right after it, the experiment's wall and CPU time by the chunks' wall
    and CPU time during (or around) it."""
    ref = {"setup_s": "setup_ref_s", "cpu_s": "ref_cpu_s"}.get(key, "ref_wall_s")
    return r[key] * NOMINAL_S / r[ref]


def run(workload: str, seed: int, seconds: float, trace: bool,
        work_dir: str) -> tuple[dict, int, int, bool]:
    """(metrics, attempted, failed, correct) for one run."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    probes = [_spawn(base, deadline) for _ in range(SETUP_PROBES)]

    plain: list[dict] = []
    traced: list[dict] = []
    reports: list[str] = []
    while True:
        use_trace = trace and len(plain) > len(traced)
        path = os.path.join(work_dir, f"round-{len(reports)}.csv")
        args = base + ["--out", path] + (["--trace"] if use_trace else [])
        result = _spawn(args, deadline)
        (traced if use_trace else plain).append(result)
        reports.append(path)
        longest = max(r["wall_s"] for r in plain + traced)
        done = len(plain) >= MIN_ROUNDS and (bool(traced) or not trace)
        if done and time.monotonic() + longest > start + seconds:
            break

    backend = probes[0]["backend"]
    digests = {_sha256(p) for p in reports}
    correct = len(digests) == 1
    rows = read_report(reports[0])
    config = WORKLOADS[workload](seed)
    failed_rows = check_report(config, rows)
    for r in traced:
        for row, problems in r["failed"]:
            keys = ([tuple(row)] if row is not None else
                    [(int(x["point"]), int(x["replicate"])) for x in rows])
            for key in keys:
                failed_rows.setdefault(key, []).extend(problems)
    ok_rows = {(int(x["point"]), int(x["replicate"]))
               for x in rows if x["status"] == "ok"}
    if any(key in ok_rows for key in failed_rows):
        correct = False

    print(f"workload {workload} seed {seed} backend {backend} "
          f"rounds {len(plain)} untraced + {len(traced)} traced, "
          f"{len(rows)} report rows each")
    print(f"report sha256 {' '.join(sorted(digests))}")
    print("round experiment_s (raw / reference) " + " ".join(
        f"{r['experiment_s']:.3f}/{r['ref_wall_s'] * 1000:.3f}ms"
        f"{'(traced)' if 'layers' in r else ''}"
        for r in sorted(plain + traced, key=lambda r: r["ready"])))
    for key, problems in sorted(failed_rows.items())[:20]:
        print(f"FAILED row {key}: {'; '.join(problems[:3])}")

    if not trace:
        metrics = {
            "setup_s": _median([_at_nominal(r, "setup_s")
                                for r in probes + plain]),
            "experiment_s": _median([_at_nominal(r, "experiment_s")
                                     for r in plain]),
            "cpu_s": _median([_at_nominal(r, "cpu_s") for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            **quality_metrics(rows),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
    else:
        metrics, steady = _trace_metrics(plain, traced)
        correct = correct and steady
    rounds = len(plain) + len(traced)
    return metrics, len(rows) * rounds, len(failed_rows) * rounds, correct


def _trace_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics (medians over traced rounds) and whether the traced
    rounds agree on every count and their self times add up."""
    steady = True
    for r in traced:
        gap = abs(r["self_sum_s"] - r["root_s"])
        print(f"traced experiment_s {r['experiment_s']:.6f}, root span "
              f"{r['root_s']:.6f}, sum of self times {r['self_sum_s']:.6f}")
        if gap > 1e-6 * max(1.0, r["root_s"]):
            steady = False
        same_calls = all(r["layers"][n][0] == traced[0]["layers"][n][0]
                         for n in LAYERS)
        if not same_calls or r["counts"] != traced[0]["counts"]:
            steady = False
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (traced[0]["layers"][name][0], "count")
        for i, stat in ((1, "total_s"), (2, "self_s")):
            metrics[f"{name}.{stat}"] = (_median(
                [r["layers"][name][i] * NOMINAL_S / r["ref_wall_s"]
                 for r in traced]), "s")
    for name in COUNTS:
        metrics[name] = (traced[0]["counts"][name], "count")
    metrics["trace.overhead_s"] = (
        _median([_at_nominal(r, "experiment_s") for r in traced])
        - _median([_at_nominal(r, "experiment_s") for r in plain]), "s")
    return {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "sbmchroma")):
        print(f"no sbmchroma sources under {ROOT}/src", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        metrics, attempted, failed, correct = run(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
