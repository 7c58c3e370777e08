"""End-to-end orchestration: corpus IO, splitting, training, inference,
evaluation, and hyperparameter grid search.

Scoring is character level and micro-averaged: each aligned source
character contributes exactly one (gold segment, predicted segment)
decision, so summed TP/FP/FN give precision = recall = F1 exactly.
Word pairs the table cannot align are not dropped from evaluation; they
count as whole-word errors with every character wrong, because dropping
them would inflate scores invisibly.

Training aligns under a mapping table, and the model carries that table:
its direction is the model's, and its keys are the characters the model
classifies, from the same windows training extracts. Every other
character passes through unchanged.
"""

from __future__ import annotations

import logging
import math
import random
import unicodedata
from dataclasses import dataclass, field

from . import dtree
from .alphabets import CYRILLIC, Direction, MappingTable, normalize_word
# Unused here, but bench/tracing.py wraps pipeline.bundled_script_spec by name.
from .alphabets import bundled_script_spec  # noqa: F401
from .aligner import align_corpus
from .dtree import TranslitModel, predict
from .featurizer import WindowSpec, dedup_samples, extract_samples, window_features

log = logging.getLogger(__name__)

# Exact proportions behind the reference 9,499 / 1,677 / 1,242 split of
# 12,418 dictionary words.
REFERENCE_FRACTIONS = (9499 / 12418, 1677 / 12418, 1242 / 12418)


class AllPairsUnalignableError(ValueError):
    pass


@dataclass
class Corpus:
    """A parallel word list; pairs are always (cyrillic, latin)."""

    pairs: list[tuple[str, str]]
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.pairs)

    def oriented(self, direction: Direction) -> list[tuple[str, str]]:
        """Pairs as (source, target) for the given direction."""
        if direction[0] == CYRILLIC:
            return list(self.pairs)
        return [(lat, cyr) for cyr, lat in self.pairs]


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float
    validation_fraction: float
    test_fraction: float
    seed: int = 42

    def __post_init__(self):
        fractions = (self.train_fraction, self.validation_fraction, self.test_fraction)
        if any(not (0.0 < f < 1.0) for f in fractions):
            raise ValueError(f"fractions must lie in (0, 1): {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1: {fractions}")


@dataclass
class EvalReport:
    char_precision: float
    char_recall: float
    char_f1: float
    word_accuracy: float
    errors: list[tuple[str, str, str]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "char_precision": self.char_precision,
            "char_recall": self.char_recall,
            "char_f1": self.char_f1,
            "word_accuracy": self.word_accuracy,
            "errors": [list(triple) for triple in self.errors],
        }

    def to_tsv(self) -> str:
        lines = [
            f"char_precision\t{self.char_precision}",
            f"char_recall\t{self.char_recall}",
            f"char_f1\t{self.char_f1}",
            f"word_accuracy\t{self.word_accuracy}",
        ]
        for inp, out, expected in self.errors:
            lines.append(f"error\t{inp}\t{out}\t{expected}")
        return "\n".join(lines) + "\n"


@dataclass
class GridCell:
    x: int
    y: int
    validation_f1: float


@dataclass
class RoundTripReport:
    fraction: float
    failures: list[tuple[str, str, str]]  # (word, forward, back)


def _entry_ok(word: str) -> bool:
    if not word:
        return False
    for ch in word:
        if ch in "-'":
            continue
        if ch.isspace() or unicodedata.category(ch).startswith("P"):
            return False
    return True


def load_corpus(path) -> Corpus:
    """Read a ``cyrillic<TAB>latin`` TSV, normalize both sides, and drop
    multi-word or punctuation-bearing entries (hyphen and apostrophe stay)."""
    pairs = []
    dropped = 0
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cyr, _, lat = line.partition("\t")
            cyr = normalize_word(cyr.strip())
            lat = normalize_word(lat.strip())
            if _entry_ok(cyr) and _entry_ok(lat):
                pairs.append((cyr, lat))
            else:
                dropped += 1
    if dropped:
        log.warning("dropped %d multi-word/punctuation entries from %s", dropped, path)
    return Corpus(pairs=pairs, provenance=f"{path} ({len(pairs)} pairs, {dropped} dropped)")


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        if corpus.provenance:
            handle.write(f"# {corpus.provenance}\n")
        for cyr, lat in corpus.pairs:
            handle.write(f"{cyr}\t{lat}\n")


def split_sizes(n: int, config: SplitConfig) -> tuple[int, int, int]:
    """floor(fraction * n) per part, remainders handed out in order
    train, validation, test."""
    sizes = [
        math.floor(config.train_fraction * n),
        math.floor(config.validation_fraction * n),
        math.floor(config.test_fraction * n),
    ]
    for k in range(n - sum(sizes)):
        sizes[k] += 1
    return sizes[0], sizes[1], sizes[2]


def split_corpus(corpus: Corpus, config: SplitConfig) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic shuffle (MT19937 Fisher-Yates via random.Random(seed))
    followed by a contiguous partition."""
    if not corpus.pairs:
        raise ValueError("cannot split an empty corpus")
    n_train, n_val, n_test = split_sizes(len(corpus.pairs), config)
    if min(n_train, n_val, n_test) == 0:
        raise ValueError(
            f"degenerate fractions: split sizes {(n_train, n_val, n_test)} include an empty part"
        )
    order = list(corpus.pairs)
    random.Random(config.seed).shuffle(order)
    parts = (
        order[:n_train],
        order[n_train : n_train + n_val],
        order[n_train + n_val :],
    )
    names = ("train", "validation", "test")
    return tuple(
        Corpus(pairs=part, provenance=f"{corpus.provenance} [{name} seed={config.seed}]")
        for part, name in zip(parts, names)
    )


def _align_training(train_part: Corpus, table: MappingTable):
    """Align the training part in the table's direction. Unalignable
    pairs are logged and left out; a part with no alignable pair at all
    is an error."""
    alignments, failures = align_corpus(train_part.oriented(table.direction), table)
    if failures:
        log.warning(
            "%d of %d training pairs not alignable; excluded (run discover to fix the table)",
            len(failures),
            len(train_part.pairs),
        )
    if not alignments:
        raise AllPairsUnalignableError(
            "no training pair could be aligned under the mapping table"
        )
    return alignments


def _train_window(alignments, window: WindowSpec, table: MappingTable) -> TranslitModel:
    """extract -> dedup -> train; the model carries the window and table."""
    samples = []
    for pair in alignments:
        samples.extend(extract_samples(pair, window))
    return dtree.train(dedup_samples(samples), window, table)


def train_direction(train_part: Corpus, window: WindowSpec, table: MappingTable) -> TranslitModel:
    """align -> extract -> dedup -> train at one window, in the table's
    direction."""
    return _train_window(_align_training(train_part, table), window, table)


def predict_segments(model: TranslitModel, word: str) -> list[str]:
    """Per-character predicted target segments; characters without a row
    in the model's table contribute themselves unchanged."""
    alphabet = model.table.entries
    return [
        predict(model, features) if ch in alphabet else ch
        for ch, features in zip(word, window_features(word, model.window))
    ]


def transliterate_word(model: TranslitModel, word: str) -> str:
    """Total on normalized text: predictions concatenated, unknown
    characters passed through."""
    return "".join(predict_segments(model, word))


def apply_case_pattern(original: str, text: str) -> str:
    """Word-level case restoration: all-caps in, all-caps out;
    initial capital in, initial capital out; otherwise unchanged."""
    letters = [ch for ch in original if ch.isalpha()]
    if letters and all(ch.isupper() for ch in letters):
        return text.upper()
    if letters and original and original[0].isupper():
        return text[:1].upper() + text[1:]
    return text


def _report_from_alignments(model, alignments, unalignable) -> EvalReport:
    correct = 0
    total = 0
    words_right = 0
    errors: list[tuple[str, str, str]] = []
    for pair in alignments:
        predicted = predict_segments(model, pair.source)
        word_ok = True
        for gold, pred in zip(pair.target_segments, predicted):
            total += 1
            if gold == pred:
                correct += 1
            else:
                word_ok = False
        if word_ok:
            words_right += 1
        else:
            errors.append((pair.source, "".join(predicted), pair.target))
    for source, target in unalignable:
        total += len(source)
        errors.append((source, transliterate_word(model, source), target))
    n_words = len(alignments) + len(unalignable)
    score = correct / total if total else 1.0
    return EvalReport(
        char_precision=score,
        char_recall=score,
        char_f1=score,
        word_accuracy=words_right / n_words if n_words else 1.0,
        errors=errors,
    )


def evaluate(model: TranslitModel, heldout: Corpus, table: MappingTable) -> EvalReport:
    """Character-level micro-averaged scores plus exact-word accuracy, with
    the gold segments aligned under ``table``, normally ``model.table``."""
    oriented = heldout.oriented(model.direction)
    alignments, failures = align_corpus(oriented, table)
    unalignable = [(f.source, f.target) for f in failures]
    return _report_from_alignments(model, alignments, unalignable)


def grid_search(
    train_part: Corpus,
    validation_part: Corpus,
    table: MappingTable,
    x_values=range(0, 11),
    y_values=range(0, 11),
) -> tuple[TranslitModel, list[GridCell]]:
    """Train one model per (x, y) cell; return the model of the cell with
    the best validation F1 (ties go to the smallest x+y, then the
    smallest x) and every cell's score. An empty grid is a ValueError."""
    grid = [(x, y) for x in x_values for y in y_values]
    if not grid:
        raise ValueError("the window grid is empty")
    train_alignments = _align_training(train_part, table)
    val_alignments, val_failures = align_corpus(
        validation_part.oriented(table.direction), table
    )
    val_unalignable = [(f.source, f.target) for f in val_failures]

    cells: list[GridCell] = []
    best_key = best_model = None
    for x, y in grid:
        model = _train_window(train_alignments, WindowSpec(x, y), table)
        report = _report_from_alignments(model, val_alignments, val_unalignable)
        cells.append(GridCell(x=x, y=y, validation_f1=report.char_f1))
        key = (-report.char_f1, x + y, x)
        if best_model is None or key < best_key:
            best_key, best_model = key, model
    return best_model, cells


def format_grid_tsv(cells) -> str:
    lines = ["x\ty\tvalidation_f1"]
    lines += [f"{c.x}\t{c.y}\t{c.validation_f1}" for c in cells]
    return "\n".join(lines) + "\n"


def round_trip_check(
    model_ab: TranslitModel, model_ba: TranslitModel, words
) -> RoundTripReport:
    """Fraction of words with back(forward(word)) == word, plus failures."""
    if model_ab.direction != (model_ba.direction[1], model_ba.direction[0]):
        raise ValueError(
            f"models do not have opposite directions: {model_ab.direction} vs {model_ba.direction}"
        )
    words = list(words)
    failures = []
    for word in words:
        forward = transliterate_word(model_ab, word)
        back = transliterate_word(model_ba, forward)
        if back != word:
            failures.append((word, forward, back))
    fraction = 1.0 - len(failures) / len(words) if words else 1.0
    return RoundTripReport(fraction=fraction, failures=failures)
