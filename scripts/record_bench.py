#!/usr/bin/env python3
"""Record one run of the benchmark as a committed JSON file.

Runs ``bench/run.py`` on each of its three workloads at seed 42, first
untraced (the end-to-end metrics) and then traced (the per-layer
metrics), for the ``run_seconds`` that BENCHMARK.json fixes. From each
run's ``bench-record`` stderr line it keeps every metric, the calibration
times and the failed checks, and it writes them, with the git SHA, the
Python version and ``nproc``, to one JSON file:

    python3 scripts/record_bench.py BENCH_10.json

``worktree_clean`` is false when the checkout had changes that the SHA
does not hold. The exit status is 1 when any run failed a check or an
operation; the file is written either way.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid-5k", "train-20k", "translit-lex")
SEED = 42
RECORD_PREFIX = "bench-record "


def bench_run(workload: str, trace: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its stdout result and its stderr record."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    records = [
        line[len(RECORD_PREFIX):] for line in done.stderr.splitlines()
        if line.startswith(RECORD_PREFIX)
    ]
    lines = done.stdout.strip().splitlines()
    if len(records) != 1 or not lines:
        raise RuntimeError(
            f"bench/run.py --workload {workload} --trace {trace} exited {done.returncode}"
            f" without its result:\n{done.stderr[-2000:]}"
        )
    return {"result": json.loads(lines[-1]), "record": json.loads(records[0])}


def worktree_clean() -> bool:
    done = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain"],
        capture_output=True, text=True, check=True,
    )
    return not done.stdout.strip()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    names = {
        "end_to_end": [entry["name"] for entry in benchmark["end_to_end"]],
        "per_layer": [entry["name"] for entry in benchmark["per_layer"]],
    }
    clean = worktree_clean()
    env = None
    workloads = {}
    correct = True
    for workload in WORKLOADS:
        entry = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = bench_run(workload, trace, seconds)
            result, record = run["result"], run["record"]
            env = env or record["env"]
            values = record["values"]
            entry[kind] = {name: values[name] for name in names[kind] if name in values}
            entry[f"{kind}_run"] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failed_frac": record["failed_frac"],
                "failures": record["failures"],
                "calibration_s": record["calibration_s"],
                # per-repetition times, unmeasured metrics, phase self times
                "detail": {k: v for k, v in values.items() if k not in entry[kind]},
            }
            correct = correct and result["correct"]
            print(f"{workload} trace={trace}: correct={result['correct']}", file=sys.stderr)
        workloads[workload] = entry
    document = {
        "benchmark": "bench/run.py",
        "seed": SEED,
        "seconds": seconds,
        "git_sha": env["git_sha"],
        "worktree_clean": clean,
        "python": env["python"],
        "nproc": env["nproc"],
        "platform": env["platform"],
        "correct": correct,
        "workloads": workloads,
    }
    out.write_text(json.dumps(document, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
