"""Smoke test of the benchmark itself: every workload at miniature size.

Run with ``python3 -m pytest -q bench``. It checks that BENCHMARK.json
lists every metric with its unit and direction, that each run reports all
of them and passes its output checks, that the exact per-layer counts
repeat, and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("grid-5k", "train-20k", "translit-lex")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "task_s": ("s", "lower"),
    "words_per_s": ("1/s", "higher"),
    "word_p50_us": ("us", "lower"),
    "word_p99_us": ("us", "lower"),
    "char_f1": ("ratio", "higher"),
    "word_acc": ("ratio", "higher"),
    "lex_char_f1": ("ratio", "higher"),
    "lex_word_acc": ("ratio", "higher"),
    "licensed_frac": ("ratio", "higher"),
}

EXACT_COUNTS = {
    "aligner.pairs": ("count", "higher"),
    "aligner.failed": ("count", "lower"),
    "featurizer.windows": ("count", "lower"),
    "featurizer.kept_ratio": ("ratio", "higher"),
    "featurizer.window_calls": ("count", "lower"),
    "dtree.train_calls": ("count", "lower"),
    "dtree.train_samples": ("count", "lower"),
    "dtree.predict_calls": ("count", "lower"),
    "dtree.model_bytes": ("bytes", "lower"),
}

PER_LAYER = {
    **{
        name: ("s", "lower")
        for name in (
            "aligner.align_s",
            "featurizer.extract_s",
            "featurizer.dedup_s",
            "dtree.train_s",
            "dtree.predict_s",
            "dtree.deserialize_s",
            "dtree.serialize_s",
            "pipeline.load_corpus_s",
            "pipeline.evaluate_s",
            "alphabets.normalize_s",
            "alphabets.table_load_s",
            "trace.overhead_s",
        )
    },
    **{
        f"{layer}.self_s": ("s", "lower")
        for layer in ("aligner", "featurizer", "dtree", "pipeline", "alphabets", "cli")
    },
    **EXACT_COUNTS,
    "trace.spans": ("count", "lower"),
}


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--mini"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_reported(workload):
    metrics = result_of(run_bench(workload, trace=0))
    assert {name: m["unit"] for name, m in metrics.items()} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first, second = (result_of(run_bench(workload, trace=1)) for _ in range(2))
    assert {name: m["unit"] for name, m in first.items()} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("grid-5k", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
