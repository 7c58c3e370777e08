#!/usr/bin/env python3
"""Benchmark of the uztranslit toolkit: one workload per run.

    python3 bench/run.py --workload grid-5k --seed 1 --seconds 30 --trace 0

Workloads (see README.md next to this file): grid-5k, train-20k,
translit-lex. ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs the workload once with every layer traced and reports
the per-layer metrics. The metric names and units are those of
BENCHMARK.json at the repository root.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A readable report, the
environment record and the calibration-loop times go to stderr. Exit
status: 0 when every output check passes, 1 when one fails, 2 when the
program under test is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

# A fresh interpreter made ready for the first timed call: the package
# import plus the models the workload loads (the first call per model
# also loads the script spec). Prints when it is ready.
PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from uztranslit import cli, dtree, pipeline
for path in sys.argv[2:]:
    pipeline.transliterate_word(dtree.load_model(path), "a")
print(time.monotonic())
"""


def setup_probe(models) -> float:
    """Seconds from spawning a fresh interpreter to its being ready.
    time.monotonic is CLOCK_MONOTONIC, shared by all processes."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), *models],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1]) - start


def calibration_s() -> float:
    """A fixed pure-Python loop, timed to record how fast the host ran.
    It is only recorded, never used to scale a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """Counts of timed operations and the output checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes = []

    def op(self, workload, op, *args):
        """One timed operation; returns (seconds, completed)."""
        start = time.perf_counter()
        try:
            result = op(*args)
        except Exception:
            elapsed = time.perf_counter() - start
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{workload.name}: operation raised:\n{traceback.format_exc()}")
            return elapsed, False
        elapsed = time.perf_counter() - start
        if result is None:
            self.attempted += 1
        else:
            if self.passes:
                result.outputs = None
            self.passes.append(result)
            self.attempted += result.words
            self.failed += result.failed
        return elapsed, True

    def check(self, workload):
        try:
            scores, failures = workload.check(self.passes)
        except Exception:
            self.failures.append(f"{workload.name}: check raised:\n{traceback.format_exc()}")
            return {}
        self.failures += failures
        return scores


def measure(workload, seconds: float, probes: int, run: Run) -> dict:
    """End-to-end metrics, untraced: for about ``seconds``, cycles of one
    task repetition followed by per-word read passes, so that both sample
    the whole run, with the set-up probes in between."""
    from workloads import timed_pass

    workload.setup()
    setup_times, task_times, cycles, jobs = [], [], [], None
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        elapsed, ok = run.op(workload, workload.task)
        task_times.append(elapsed)
        if not ok:
            return {}
        if workload.read_share:
            jobs = jobs or workload.read_jobs()
            share = workload.read_share / (1 - workload.read_share)
            burst_end = time.perf_counter() + elapsed * share
            while True:
                run.op(workload, timed_pass, jobs, workload.latency)
                if time.perf_counter() >= burst_end:
                    break
        # The set-up probes are spread over the run, like the repetitions.
        due = min(probes, math.ceil(probes * (time.perf_counter() - start) / seconds))
        while len(setup_times) < due:
            setup_times.append(setup_probe(workload.probe_models()))
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        # Start another cycle while half of a typical one still fits.
        if now - start + statistics.median(cycles) / 2 > seconds:
            break
    while len(setup_times) < probes:
        setup_times.append(setup_probe(workload.probe_models()))
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "task_s": min(task_times),
        "words_per_s": workload.latency.words_per_s(),
        "word_p50_us": workload.latency.quantile_us(0.50),
        "word_p99_us": workload.latency.quantile_us(0.99),
    }
    values.update(run.check(workload))
    values.update(
        task_times_s=task_times,
        setup_times_s=setup_times,
        pass_words_per_s=[p.words / p.wall_s for p in run.passes],
        words_timed=len(workload.latency.best_ns),
        word_samples=workload.latency.samples,
    )
    return values


def measure_traced(workload, run: Run) -> dict:
    """Per-layer metrics: set-up, one task repetition, one read pass and
    the checks, all traced. One untraced repetition first gives the
    tracing overhead."""
    from tracing import Tracer, layer_metrics
    from workloads import timed_pass

    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        workload.setup()
    plain_s, ok = run.op(workload, workload.task)
    if not ok:
        return {}
    with tracer.installed():
        with tracer.span("bench.task") as task_span:
            _, ok = run.op(workload, workload.task)
        if not ok:
            return {}
        if workload.read_share:
            with tracer.span("bench.read"):
                run.op(workload, timed_pass, workload.read_jobs(), workload.latency)
        with tracer.span("bench.check"):
            run.check(workload)
    values, unmeasured, phases = layer_metrics(tracer)
    values["trace.overhead_s"] = tracer.duration_s(task_span) - plain_s
    values["trace.unmeasured"] = unmeasured
    values["trace.phase_self_s"] = phases
    return values


def report(name: str, spec: list, values: dict, run: Run, record: dict) -> dict:
    """Print the readable report and the record to stderr; return the
    metrics object for stdout."""
    metrics = {}
    print(f"== {name} ==", file=sys.stderr)
    for entry in spec:
        metric = entry["name"]
        if metric in values:
            metrics[metric] = {"value": values[metric], "unit": entry["unit"]}
            print(f"  {metric:26} {values[metric]!r:>24} {entry['unit']:6}"
                  f" ({entry['better']} is better)", file=sys.stderr)
        else:
            print(f"  {metric:26} {'unmeasured':>24}", file=sys.stderr)
    failed_frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_frac':26} {failed_frac!r:>24} ({run.failed}/{run.attempted})", file=sys.stderr)
    if "licensed_frac" in values:
        print(f"  {'unlicensed_frac':26} {1 - values['licensed_frac']!r:>24}"
              f" ({values['unlicensed_segments']} segments)", file=sys.stderr)
    if "word_samples" in values:
        print(f"  word latency percentiles over {values['words_timed']} words,"
              f" each its fastest of {values['word_samples'] // values['words_timed']} calls",
              file=sys.stderr)
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    record.update(failed_frac=failed_frac, failures=run.failures, values=values)
    print("bench-record " + json.dumps(record, ensure_ascii=False), file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--mini", action="store_true", help="shrink every input, for the smoke test"
    )
    args = parser.parse_args(argv)

    if not (SRC / "uztranslit" / "__init__.py").is_file():
        print(f"bench: no uztranslit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uztranslit

    if Path(uztranslit.__file__).resolve().parent != (SRC / "uztranslit").resolve():
        print(f"bench: imported uztranslit from {uztranslit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    spec = benchmark["per_layer" if args.trace else "end_to_end"]
    # The CLI lets TRANSLIT_SEED override --seed; inputs come from --seed alone.
    os.environ.pop("TRANSLIT_SEED", None)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "mini": args.mini, "env": environment(),
              "calibration_s": {"start": calibration_s()}}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    run = Run()
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.mini)
        if args.trace:
            values = measure_traced(workload, run)
        else:
            probes = 3 if args.mini else SETUP_PROBES
            values = measure(workload, args.seconds, probes, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Another run may still be using the directory.
        with contextlib.suppress(OSError):
            work_root.rmdir()
    record["calibration_s"]["end"] = calibration_s()

    if not args.trace and not all(entry["name"] in values for entry in spec):
        run.failures.append("some end-to-end metrics were not measured")
    metrics = report(args.workload, spec, values, run, record)
    correct = not run.failures and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
