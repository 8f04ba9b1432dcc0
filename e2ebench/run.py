#!/usr/bin/env python3
"""End-to-end benchmark of the tie-breaking Datalog library.

Usage (from the root of a checkout):

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                          [--size full|smoke]

NAME is batch_winmove_serial, batch_transfer_par4, serve_mixed, or `all`
(the three in turn). The first run builds the library sources under src/
and the harness under e2ebench/harness/ into .bench_build/e2ebench.

An untraced run (--trace 0) starts P harness processes one after another
(P = 2 for the batch workloads, 8 for serve_mixed). Each sets up once,
which gives a set-up sample, runs one unmeasured warm-up operation, then
measures S/P seconds of operations. The gated metrics are medians over the
processes. A traced run (--trace 1) starts one process that measures S/2
seconds untraced and S/2 traced, then times the per-layer calls; it reports
the per-layer metrics and writes its spans to .bench_build/e2ebench/spans/.

Output: one JSON line per workload with every metric by name and unit plus
the machine stamp, then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. Exit code 0 when every
answer matched its oracle; 1 on a wrong or failed answer; 2 when the
benchmark cannot build or run.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("batch_winmove_serial", "batch_transfer_par4", "serve_mixed")
TIME_LIMIT_S = 170  # every harness process of one run ends within this
BUILD_TYPE = "RelWithDebInfo"
# Harness processes of one untraced run. A serve_mixed process sets up in
# a third of a second, so its run is cut into more, shorter processes: the
# median over them is less moved by a slow spell of the machine.
PROCESSES = {"batch_winmove_serial": 2, "batch_transfer_par4": 2,
             "serve_mixed": 8}


class BenchError(Exception):
    """The benchmark could not build or run (exit code 2)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    """The metric names and units, from BENCHMARK.json at the root."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read BENCHMARK.json: {error}")


def build():
    """Configures once and builds; returns the harness binary."""
    if not (ROOT / "src" / "lang" / "parser.h").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError("build failed: " + " ".join(step))
    return BUILD_DIR / "e2e_bench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR / "harness"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_process(binary, args, deadline):
    """Runs one harness process; returns (exit code, its JSON report)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before all processes ran")
    try:
        done = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("harness process exceeded the time limit")
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"harness exited with code {done.returncode}")
    return done.returncode, json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit, **extra):
    return dict(value=value, unit=unit, **extra)


def measure(binary, args, spec, deadline):
    """One untraced run: PROCESSES[workload] processes."""
    reports, codes = [], []
    processes = PROCESSES[args.workload]
    per_process = args.seconds / processes
    for _ in range(processes):
        code, report = run_process(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(per_process), "--trace", "0",
            "--size", args.size, "--scratch", str(BUILD_DIR)] +
            (["--corrupt-one-answer"] if args.corrupt_one_answer else []),
            deadline)
        reports.append(report)
        codes.append(code)

    latencies = {}
    for report in reports:
        for name, values in report["latencies"].items():
            latencies.setdefault(name, []).extend(values)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    setup_s = statistics.median(r["setup_s"] for r in reports)
    # Peak memory of one cold operation (its set-up); the process peak after
    # many operations also holds allocator slack that varies run to run.
    peak_rss_mb = statistics.median(r["setup_rss_kb"] for r in reports) / 1024
    process_peak_rss_mb = max(r["peak_rss_kb"] for r in reports) / 1024

    # Per process, the geometric mean of the median latency of each
    # operation class: the pipeline on batch_*; sg and win queries on
    # serve_mixed, which so weigh the same although sg queries are four times
    # as many.
    op_p50_s = statistics.median(
        statistics.geometric_mean(statistics.median(v)
                                  for v in r["latencies"].values())
        for r in reports)
    values = {
        "setup_s": setup_s,
        "op_p50_ms": 1e3 * op_p50_s,
        "peak_rss_mb": peak_rss_mb,
    }
    gated = {m["name"]: metric(values[m["name"]], m["unit"])
             for m in spec["end_to_end"]}
    # The workload-specific end-to-end metrics, by the names of README.md.
    named = {
        "setup_s": metric(setup_s, "s", n=len(reports)),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "process_peak_rss_mb": metric(process_peak_rss_mb, "MB"),
        "fail_rate": metric(failed / attempted if attempted else 1.0,
                            "ratio"),
    }
    if "pipeline" in latencies:
        named["pipeline_s"] = metric(statistics.median(latencies["pipeline"]),
                                     "s", n=len(latencies["pipeline"]))
    if args.workload == "batch_transfer_par4":
        named["snapshot_mb"] = metric(reports[-1]["snapshot_bytes"] / 1e6,
                                      "MB")
    if args.workload == "serve_mixed":
        named["queries_per_s"] = metric(
            sum(map(len, latencies.values())) /
            sum(r["measured_s"] for r in reports), "1/s")
        for kind in ("sg", "win"):
            samples = latencies.get(kind, [])
            for q, label in ((0.5, "p50"), (0.9, "p90")):
                named[f"{kind}_query_{label}_ms"] = metric(
                    1e3 * percentile(samples, q) if samples else None, "ms",
                    n=len(samples))
    correct = failed == 0 and all(code == 0 for code in codes)
    errors = [e for r in reports for e in r["errors"]]
    return reports[0], correct, attempted, failed, gated, named, errors


def trace(binary, args, spec, deadline):
    """One traced run: per-layer metrics from a single process."""
    spans = BUILD_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    code, report = run_process(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", "1",
        "--size", args.size, "--scratch", str(BUILD_DIR),
        "--spans", str(spans)], deadline)
    layers = report["layers"]
    # A layer the workload never calls reads 0 (see README.md).
    metrics = {m["name"]: metric(layers.get(m["name"], 0.0), m["unit"])
               for m in spec["per_layer"]}
    absent = sorted(set(metrics) - set(layers))
    correct = code == 0 and report["failed"] == 0
    traced_ops = sum(len(v) for v in report["traced_latencies"].values())
    self_s = {layer: seconds / traced_ops
              for layer, seconds in report["self_s"].items()}
    return (report, correct, report["attempted"], report["failed"], metrics,
            dict(absent_layers=absent, self_s_per_op=self_s,
                 spans=str(spans.relative_to(ROOT))),
            report["errors"])


def run_workload(binary, args, spec, deadline):
    runner = trace if args.trace else measure
    first, correct, attempted, failed, metrics, named, errors = runner(
        binary, args, spec, deadline)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "processes": 1 if args.trace else PROCESSES[args.workload],
        "threads": first["threads"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": first["compiler"],
        "build_type": first["build_type"],
        "revision": source_revision(),
    }
    print(json.dumps({"stamp": stamp, "metrics": named, "errors": errors[:5]}),
          flush=True)
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--corrupt-one-answer", action="store_true",
                        help="drop one answer, so the oracle must fail")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive, --seed nonnegative")

    start = time.monotonic()
    try:
        spec = load_spec()
        binary = build()
        # The build may take long on a first run; the runs get their own
        # limit from the moment the build ends.
        deadline = time.monotonic() + TIME_LIMIT_S
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.workload == "all":
            deadline += TIME_LIMIT_S * (len(names) - 1)
        results = {}
        for name in names:
            args.workload = name
            results[name] = run_workload(binary, args, spec, deadline)
    except BenchError as error:
        log(f"e2ebench: {error}")
        return 2
    log(f"e2ebench: done in {time.monotonic() - start:.1f} s")

    correct = all(r[0] for r in results.values())
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))[3]
    else:
        metrics = {name: r[3] for name, r in results.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
