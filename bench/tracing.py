"""Span tracing of the uztranslit layers, driven from outside the package.

The tracer replaces each layer's public functions, under the names their
callers bind (``pipeline.align_corpus``, ``pipeline.dtree.train``,
``pipeline.predict``, ...), with wrappers that record one span per call:
name, start, end and parent, kept in memory in flat arrays. The spans
therefore follow whatever the program actually calls. Self time is a
span's duration minus what its children cover.

Nothing under ``src/`` knows about tracing; leaving ``Tracer.installed``
puts every original function back.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

from uztranslit import aligner, alphabets, cli, dtree, pipeline

LAYERS = ("alphabets", "aligner", "featurizer", "dtree", "pipeline", "cli")


def _add(counts, key, n):
    counts[key] = counts.get(key, 0) + n


def _count_align(counts, args, result):
    alignments, failures = result
    _add(counts, "aligner.pairs", len(alignments) + len(failures))
    _add(counts, "aligner.failed", len(failures))


def _count_extract(counts, args, result):
    _add(counts, "featurizer.windows", len(result))


def _count_dedup(counts, args, result):
    _add(counts, "featurizer.dedup_in", len(args[0]))
    _add(counts, "featurizer.dedup_out", len(result))


def _count_train(counts, args, result):
    _add(counts, "dtree.train_samples", len(args[0]))


def _count_serialize(counts, args, result):
    _add(counts, "dtree.model_bytes", len(result))


# (module, attribute its callers bind, span name, counter). A function
# bound under several names gets one wrapper per binding and one span name.
_PIPELINE_OWN = (
    "load_corpus",
    "save_corpus",
    "split_corpus",
    "train_direction",
    "grid_search",
    "format_grid_tsv",
    "evaluate",
    "predict_segments",
    "transliterate_word",
)
INSTRUMENTS = (
    (alphabets, "bundled_mapping_table", "alphabets.bundled_mapping_table", None),
    (cli, "bundled_mapping_table", "alphabets.bundled_mapping_table", None),
    (alphabets, "load_mapping_table", "alphabets.load_mapping_table", None),
    (cli, "load_mapping_table", "alphabets.load_mapping_table", None),
    (pipeline, "bundled_script_spec", "alphabets.bundled_script_spec", None),
    (pipeline, "normalize_word", "alphabets.normalize_word", None),
    (cli, "normalize_word", "alphabets.normalize_word", None),
    (aligner, "align_corpus", "aligner.align_corpus", _count_align),
    (pipeline, "align_corpus", "aligner.align_corpus", _count_align),
    (cli, "align_corpus", "aligner.align_corpus", _count_align),
    (pipeline, "extract_samples", "featurizer.extract_samples", _count_extract),
    (pipeline, "dedup_samples", "featurizer.dedup_samples", _count_dedup),
    (pipeline, "window_features", "featurizer.window_features", None),
    (dtree, "train", "dtree.train", _count_train),
    (pipeline, "predict", "dtree.predict", None),
    (dtree, "serialize", "dtree.serialize", _count_serialize),
    (dtree, "deserialize", "dtree.deserialize", None),
    (dtree, "load_model", "dtree.load_model", None),
    (dtree, "tree_depth", "dtree.tree_depth", None),
    *((pipeline, name, f"pipeline.{name}", None) for name in _PIPELINE_OWN),
    (cli, "main", "cli.main", None),
)

# Per-layer time metrics: the inclusive time of the named spans, counting a
# span only when its parent is not itself one of them.
TIME_METRICS = {
    "aligner.align_s": ("aligner.align_corpus",),
    "featurizer.extract_s": ("featurizer.extract_samples",),
    "featurizer.dedup_s": ("featurizer.dedup_samples",),
    "dtree.train_s": ("dtree.train",),
    "dtree.predict_s": ("dtree.predict",),
    "dtree.deserialize_s": ("dtree.deserialize",),
    "dtree.serialize_s": ("dtree.serialize",),
    "pipeline.load_corpus_s": ("pipeline.load_corpus",),
    "pipeline.evaluate_s": ("pipeline.evaluate",),
    "alphabets.normalize_s": ("alphabets.normalize_word",),
    "alphabets.table_load_s": (
        "alphabets.bundled_mapping_table",
        "alphabets.load_mapping_table",
        "alphabets.bundled_script_spec",
    ),
}

# Per-layer counts, each with the spans whose calls it depends on. The
# counts are deterministic for a given seed and code version.
COUNT_METRICS = {
    "aligner.pairs": ("aligner.align_corpus",),
    "aligner.failed": ("aligner.align_corpus",),
    "featurizer.windows": ("featurizer.extract_samples",),
    "featurizer.kept_ratio": ("featurizer.dedup_samples",),
    "featurizer.window_calls": ("featurizer.window_features",),
    "dtree.train_calls": ("dtree.train",),
    "dtree.train_samples": ("dtree.train",),
    "dtree.predict_calls": ("dtree.predict",),
    "dtree.model_bytes": ("dtree.serialize",),
}


class Tracer:
    """In-memory spans: parallel arrays indexed by span number. Spans are
    numbered when they open, so a parent always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: dict[str, int] = {}
        self._open = [-1]
        self._saved: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, count):
        name_id = self._intern(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        open_spans, counts, clock = self._open, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1])
            ends.append(0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every instrumented binding for the duration of the block."""
        for module, attr, name, count in INSTRUMENTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as a phase root;
        yields its index."""
        index = len(self.starts)
        self.name_ids.append(self._intern(name))
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._open.pop()

    def duration_s(self, index: int) -> float:
        return (self.ends[index] - self.starts[index]) / 1e9


def layer_metrics(tracer: Tracer):
    """Per-layer metrics from the recorded spans.

    Returns ``(values, unmeasured, phases)``: metric name to value; the
    names whose spans saw no call (reported as unmeasured, never as zero
    time); and per root span (phase), each layer's self time in seconds.
    """
    names = tracer.names
    n = len(tracer.starts)
    name_ids, parents = tracer.name_ids, tracer.parents
    layer_of = [name.split(".", 1)[0] for name in names]
    group_of = [None] * len(names)
    for metric, group in TIME_METRICS.items():
        for name in group:
            if name in tracer._name_ids:
                group_of[tracer._name_ids[name]] = metric

    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    covered = [0] * n
    roots = [0] * n
    calls = [0] * len(names)
    for i in range(n):
        parent = parents[i]
        calls[name_ids[i]] += 1
        if parent >= 0:
            covered[parent] += durations[i]
            roots[i] = roots[parent]
        else:
            roots[i] = i

    inclusive: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    phases: dict[str, dict[str, float]] = {}
    for i in range(n):
        name_id = name_ids[i]
        metric = group_of[name_id]
        parent = parents[i]
        if metric is not None and (parent < 0 or group_of[name_ids[parent]] != metric):
            inclusive[metric] = inclusive.get(metric, 0) + durations[i]
        layer = layer_of[name_id]
        own = durations[i] - covered[i]
        self_ns[layer] = self_ns.get(layer, 0) + own
        phase = phases.setdefault(names[name_ids[roots[i]]], {})
        phase[layer] = phase.get(layer, 0.0) + own / 1e9

    def called(span_names):
        return any(
            name in tracer._name_ids and calls[tracer._name_ids[name]] for name in span_names
        )

    values: dict[str, float] = {}
    unmeasured: list[str] = []
    for metric, group in TIME_METRICS.items():
        if called(group):
            values[metric] = inclusive[metric] / 1e9
        else:
            unmeasured.append(metric)
    for layer in LAYERS:
        if layer in self_ns:
            values[f"{layer}.self_s"] = self_ns[layer] / 1e9
        else:
            unmeasured.append(f"{layer}.self_s")
    counts = tracer.counts
    for metric, group in COUNT_METRICS.items():
        if not called(group):
            unmeasured.append(metric)
        elif metric == "featurizer.kept_ratio":
            built = counts.get("featurizer.dedup_in", 0)
            if built:
                values[metric] = counts.get("featurizer.dedup_out", 0) / built
            else:
                unmeasured.append(metric)
        elif metric.endswith("_calls"):
            values[metric] = sum(calls[tracer._name_ids[name]] for name in group)
        else:
            values[metric] = counts.get(metric, 0)
    values["trace.spans"] = n
    return values, unmeasured, phases
