"""The benchmark workloads: grid-5k, train-20k and translit-lex.

Each is a closed loop, one caller in one process with no threads. A
workload's inputs come from its seed alone. The program is driven through
its public functions only: ``cli.main``, ``pipeline.*`` and ``dtree.*``.
Why each workload exists is recorded in README.md next to this file.

Life cycle, as driven by run.py:
  __init__     make the inputs (gen_corpus, lexicon split); never timed or traced
  setup()      in-process set-up before the first timed call
  task()       one timed repetition; returns a Pass when it transliterates words
  read_jobs()  (model, words) jobs whose per-word latency is timed after the task
  check()      verify outputs and score quality; returns (scores, failed checks)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass
from importlib import resources

from uztranslit import aligner, alphabets, cli, dtree, gencorpus, pipeline
from uztranslit.alphabets import CYR2LAT, LAT2CYR
from uztranslit.pipeline import Corpus, SplitConfig

# The lexicon split is the fixed 70/15/15 seed-42 split of the ROADMAP
# baselines, so lexicon quality stays comparable between runs; the
# workload seed varies the synthetic inputs.
LEXICON_SPLIT = SplitConfig(0.70, 0.15, 0.15, seed=42)
LEXICON = resources.files("uztranslit").joinpath("data", "lexicon.tsv")
# The README defaults, trained on the lexicon's 70% split.
LEXICON_WINDOWS = {CYR2LAT: ("cyr2lat", "2", "3"), LAT2CYR: ("lat2cyr", "4", "3")}


@dataclass
class Pass:
    """One timed pass over a workload's jobs. Only the first pass of a run
    keeps its outputs (in job order); later ones keep their digest."""

    wall_s: float
    words: int
    failed: int
    digest: str
    outputs: list | None


class Latency:
    """Per-word latency: each word's fastest call over all timed passes.

    On a shared host the same pass runs up to twice as slow from one
    second to the next while the fastest call of a word repeats within a
    few percent, so each word keeps its minimum; the percentiles are then
    taken over the words."""

    def __init__(self):
        self.best_ns: list[int] = []
        self.samples = 0

    def add(self, times_ns: list[int]) -> None:
        self.best_ns = list(map(min, self.best_ns, times_ns)) if self.best_ns else times_ns
        self.samples += len(times_ns)

    def quantile_us(self, q: float) -> float:
        """Nearest-rank quantile over the words, in microseconds."""
        ordered = sorted(self.best_ns)
        return ordered[max(1, round(q * len(ordered))) - 1] / 1000

    def words_per_s(self) -> float:
        return len(self.best_ns) / (sum(self.best_ns) / 1e9)


def timed_pass(jobs, latency: Latency) -> Pass:
    """Transliterate every word, timing each pipeline.transliterate_word
    call on its own. A call that raises counts as a failed operation."""
    outputs = []
    times = []
    failed = 0
    clock = time.perf_counter_ns
    start = clock()
    for model, words in jobs:
        for word in words:
            t0 = clock()
            try:
                out = pipeline.transliterate_word(model, word)
            except Exception:
                out = None
                failed += 1
            times.append(clock() - t0)
            outputs.append(out)
    wall = (clock() - start) / 1e9
    latency.add(times)
    digest = hashlib.sha256("\n".join(map(str, outputs)).encode("utf-8")).hexdigest()
    return Pass(wall, len(outputs), failed, digest, outputs)


@dataclass
class Score:
    """Character-level micro counts as pipeline.evaluate defines them, the
    predicted segments the mapping table licenses, and the words whose
    timed output differs from the scored prediction."""

    correct: int = 0
    total: int = 0
    words_right: int = 0
    words: int = 0
    licensed: int = 0
    licensable: int = 0
    mismatched: int = 0

    def __iadd__(self, other: "Score") -> "Score":
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    @property
    def char_f1(self) -> float:
        return self.correct / self.total if self.total else 1.0

    @property
    def word_acc(self) -> float:
        return self.words_right / self.words if self.words else 1.0

    @property
    def licensed_frac(self) -> float:
        return self.licensed / self.licensable if self.licensable else 1.0


def score(model, corpus: Corpus, table, timed: dict | None) -> Score:
    """Score ``model`` on ``corpus`` the way pipeline.evaluate does (an
    unalignable pair counts every character wrong), count segments outside
    ``table.candidates(ch)``, and compare with the ``timed`` outputs."""
    alignments, failures = aligner.align_corpus(corpus.oriented(model.direction), table)
    words = [(p.source, p.target_segments) for p in alignments]
    words += [(f.source, None) for f in failures]
    result = Score()
    for source, gold in words:
        predicted = pipeline.predict_segments(model, source)
        right = sum(g == p for g, p in zip(gold, predicted)) if gold else 0
        result.correct += right
        result.total += len(source)
        result.words += 1
        result.words_right += right == len(source)
        if timed is not None:
            result.mismatched += timed.get((id(model), source)) != "".join(predicted)
        for ch, segment in zip(source, predicted):
            candidates = table.candidates(ch)
            if candidates is not None:
                result.licensable += 1
                result.licensed += segment in candidates
    return result


def run_cli(argv) -> None:
    """``translit ...`` in process; its stderr chatter is discarded."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"translit {argv[0]} exited {code}: {err.getvalue().strip()}")


class Workload:
    name = ""
    # Share of the measured seconds given to read passes after the task.
    read_share = 0.1

    def __init__(self, work_dir: str, seed: int, mini: bool):
        self.work_dir = work_dir
        self.seed = seed
        self.latency = Latency()
        self.jobs = []
        lexicon = pipeline.load_corpus(LEXICON)
        lexicon_train, _, self.lex_test = pipeline.split_corpus(lexicon, LEXICON_SPLIT)
        pipeline.save_corpus(lexicon_train, self.path("lexicon-train.tsv"))
        self.tables = {d: alphabets.bundled_mapping_table(d) for d in LEXICON_WINDOWS}

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def probe_models(self) -> list[str]:
        """Model files the set-up probe loads before it is ready."""
        return []

    def setup(self) -> None:
        pass

    def task(self) -> Pass | None:
        raise NotImplementedError

    def read_jobs(self):
        return self.jobs

    def check(self, passes) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def lexicon_model_paths(self) -> list[str]:
        return [self.path(f"{name}.json") for name, _, _ in LEXICON_WINDOWS.values()]

    def train_lexicon_models(self) -> dict:
        """`translit train` the README-default models on the lexicon's 70%
        split and load them. Every workload reports their lexicon quality,
        which depends on the code alone, never on the seed."""
        models = {}
        for (direction, (name, x, y)), path in zip(
            LEXICON_WINDOWS.items(), self.lexicon_model_paths()
        ):
            run_cli(["train", "--dir", name, "-x", x, "-y", y,
                     "--corpus", self.path("lexicon-train.tsv"), "--out", path])
            models[direction] = dtree.load_model(path)
        return models

    def score_lexicon(self, models, timed=None):
        """Both directions on the lexicon test split, micro-averaged."""
        total, scored = Score(), []
        for direction, model in models.items():
            part = score(model, self.lex_test, self.tables[direction], timed)
            scored.append((model, self.lex_test, self.tables[direction], part))
            total += part
        return total, scored

    def _common_checks(self, passes, scored) -> list[str]:
        """Timed passes agree with each other; each ``scored`` entry
        (model, corpus, table, Score) agrees with pipeline.evaluate and
        with the timed outputs."""
        if not passes:
            return ["no timed pass ran"]
        failures = []
        if len({p.digest for p in passes}) != 1:
            failures.append("repeated passes gave different outputs")
        for model, corpus, table, result in scored:
            report = pipeline.evaluate(model, corpus, table)
            if (report.char_f1, report.word_accuracy) != (result.char_f1, result.word_acc):
                failures.append(
                    f"{corpus.provenance}: benchmark scores {result.char_f1}/{result.word_acc},"
                    f" pipeline.evaluate {report.char_f1}/{report.word_accuracy}"
                )
            if result.mismatched:
                failures.append(
                    f"{corpus.provenance}: {result.mismatched} timed outputs differ from the scored ones"
                )
        return failures

    def timed_outputs(self, passes) -> dict:
        outputs = iter(passes[0].outputs) if passes else iter(())
        return {
            (id(model), word): next(outputs, None) for model, words in self.jobs for word in words
        }


class Grid5k(Workload):
    """`translit grid-search` cyr2lat over x, y in 0..4 on gen_corpus(5000):
    70/15/15 split by seed, 25 cells, best cell retrained and scored on test."""

    name = "grid-5k"
    # One repetition takes about 9 s; a small read share leaves room for a
    # fourth repetition, and 1,500 words read 100 times are plenty.
    read_share = 0.05

    def __init__(self, work_dir, seed, mini):
        super().__init__(work_dir, seed, mini)
        self.corpus = gencorpus.gen_corpus(5000, seed)
        # The miniature run keeps the corpus, whose size criterion 5's
        # checks assume, and searches x, y in 0..1 only.
        self.window_max = 1 if mini else 4
        pipeline.save_corpus(self.corpus, self.path("corpus.tsv"))
        _, self.validation, self.test = pipeline.split_corpus(
            self.corpus, SplitConfig(0.70, 0.15, 0.15, seed)
        )
        self.table = self.tables[CYR2LAT]
        self.lex_models = self.train_lexicon_models()
        self.outputs = set()

    def task(self):
        run_cli(
            ["grid-search", "--dir", "cyr2lat", "--corpus", self.path("corpus.tsv"),
             "--x-max", str(self.window_max), "--y-max", str(self.window_max),
             "--seed", str(self.seed),
             "--out", self.path("grid.tsv"), "--best-model", self.path("best.json")]
        )
        with open(self.path("grid.tsv"), encoding="utf-8") as grid, open(
            self.path("best.json"), "rb"
        ) as model:
            self.outputs.add((grid.read(), model.read()))

    def read_jobs(self):
        self.model = dtree.load_model(self.path("best.json"))
        # Validation and test words: enough words for a p99 with ten beyond it.
        words = _source_words(self.validation, CYR2LAT) + _source_words(self.test, CYR2LAT)
        self.jobs = [(self.model, words)]
        return self.jobs

    def check(self, passes):
        failures = []
        if len(self.outputs) != 1:
            failures.append("grid search repetitions wrote different outputs")
        grid_text = next(iter(self.outputs))[0]
        cells = [line.split("\t") for line in grid_text.splitlines()[1:]]
        best_f1 = max(float(cell[2]) for cell in cells)
        if len(cells) != (self.window_max + 1) ** 2:
            failures.append(f"grid has {len(cells)} cells, want {(self.window_max + 1) ** 2}")
        if best_f1 < 0.999:
            failures.append(f"best validation F1 {best_f1} < 0.999")
        test = score(self.model, self.test, self.table, self.timed_outputs(passes))
        if abs(test.char_f1 - best_f1) > 0.002:
            failures.append(f"test F1 {test.char_f1} not within 0.002 of {best_f1}")
        lex, scored = self.score_lexicon(self.lex_models)
        failures += self._common_checks(passes, [(self.model, self.test, self.table, test)] + scored)
        return _scores(test, lex, test), failures


class Train20k(Workload):
    """`translit train --dir lat2cyr -x 4 -y 3` on a TSV of gen_corpus(20000)."""

    name = "train-20k"

    def __init__(self, work_dir, seed, mini):
        super().__init__(work_dir, seed, mini)
        size, held = (5000, 500) if mini else (20000, 2000)
        # gen_corpus draws one word stream per seed, so the words past the
        # first `size` are held out from training.
        stream = gencorpus.gen_corpus(size + held, seed)
        train = Corpus(stream.pairs[:size], f"gen_corpus({size}, {seed})")
        pipeline.save_corpus(train, self.path("corpus.tsv"))
        self.heldout = Corpus(stream.pairs[size:], f"held-out synthetic ({held})")
        self.table = self.tables[LAT2CYR]
        self.lex_models = self.train_lexicon_models()
        self.models = set()

    def task(self):
        run_cli(
            ["train", "--dir", "lat2cyr", "-x", "4", "-y", "3",
             "--corpus", self.path("corpus.tsv"), "--out", self.path("model.json")]
        )
        with open(self.path("model.json"), "rb") as handle:
            self.models.add(handle.read())

    def read_jobs(self):
        self.model = dtree.load_model(self.path("model.json"))
        self.jobs = [(self.model, _source_words(self.heldout, LAT2CYR))]
        return self.jobs

    def check(self, passes):
        failures = []
        if len(self.models) != 1:
            failures.append("train repetitions wrote different models")
        held = score(self.model, self.heldout, self.table, self.timed_outputs(passes))
        if held.char_f1 < 0.999:
            failures.append(f"held-out F1 {held.char_f1} < 0.999 (pure-fit oracle)")
        lex, scored = self.score_lexicon(self.lex_models)
        failures += self._common_checks(passes, [(self.model, self.heldout, self.table, held)] + scored)
        return _scores(held, lex, held), failures


class TranslitLex(Workload):
    """The read path: the lexicon models transliterate every word of
    gen_corpus(20000) in both directions, plus the lexicon test split."""

    name = "translit-lex"
    read_share = 0.0

    def __init__(self, work_dir, seed, mini):
        super().__init__(work_dir, seed, mini)
        self.stream = gencorpus.gen_corpus(400 if mini else 20000, seed)

    def probe_models(self):
        return self.lexicon_model_paths()

    def setup(self):
        """Train the lexicon models (benchmark input), then load them and
        make the first call of each, as the set-up probe does."""
        self.models = self.train_lexicon_models()
        for model in self.models.values():
            pipeline.transliterate_word(model, "a")
        self.jobs = [
            (model, _source_words(self.stream, d) + _source_words(self.lex_test, d))
            for d, model in self.models.items()
        ]

    def task(self):
        return timed_pass(self.jobs, self.latency)

    def check(self, passes):
        timed = self.timed_outputs(passes)
        stream, scored = Score(), []
        for direction, model in self.models.items():
            part = score(model, self.stream, self.tables[direction], timed)
            scored.append((model, self.stream, self.tables[direction], part))
            stream += part
        lex, lex_scored = self.score_lexicon(self.models, timed)
        licensed = Score()
        licensed += stream
        licensed += lex
        return _scores(stream, lex, licensed), self._common_checks(passes, scored + lex_scored)


def _source_words(corpus: Corpus, direction):
    return [source for source, _ in corpus.oriented(direction)]


def _scores(quality: Score, lex: Score, licensed: Score) -> dict:
    return {
        "char_f1": quality.char_f1,
        "word_acc": quality.word_acc,
        "lex_char_f1": lex.char_f1,
        "lex_word_acc": lex.word_acc,
        "licensed_frac": licensed.licensed_frac,
        "unlicensed_segments": licensed.licensable - licensed.licensed,
    }


WORKLOADS = {w.name: w for w in (Grid5k, Train20k, TranslitLex)}
