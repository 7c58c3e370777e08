"""End-to-end orchestration: corpus IO, splitting, training, inference,
evaluation, and hyperparameter grid search.

Scoring is character level and micro-averaged. A report holds integer
counts, and every float it gives is derived from them by one division
(1.0 when nothing was scored): source characters predicted right over
source characters, and words with every character right over words.
Each source character makes exactly one (gold segment, predicted
segment) decision, so precision = recall = F1 exactly: all three are
the one ratio. Word pairs the table cannot align are not dropped from
evaluation; they count as whole-word errors with every character wrong,
because dropping them would inflate scores invisibly.

Training aligns under a mapping table, and the model carries that table:
its direction is the model's, and its keys are the characters the model
classifies, each with its own tree, from the same windows training
extracts. Every other character passes through unchanged.
"""

from __future__ import annotations

import logging
import math
import random
import unicodedata
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

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


def _ratio(part: int, whole: int) -> float:
    """Every score's division: ``part / whole``, and 1.0 when nothing was
    scored."""
    return part / whole if whole else 1.0


# The scores an EvalReport writes, in the order its JSON and TSV list them.
_SCORE_NAMES = ("char_precision", "char_recall", "char_f1", "word_accuracy")


@dataclass
class EvalReport:
    """``correct`` of ``chars`` source characters got their gold segment,
    and ``words_right`` of ``words`` words got every one; ``errors`` holds
    (source, predicted, gold) per wrong word. The scores are derived."""

    correct: int
    chars: int
    words_right: int
    words: int
    errors: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def char_f1(self) -> float:
        return _ratio(self.correct, self.chars)

    # one decision per character: precision and recall are the same ratio
    char_precision = char_recall = char_f1

    @property
    def word_accuracy(self) -> float:
        return _ratio(self.words_right, self.words)

    def to_json_dict(self) -> dict:
        scores = {name: getattr(self, name) for name in _SCORE_NAMES}
        return {**scores, "errors": [list(triple) for triple in self.errors]}

    def to_tsv(self) -> str:
        lines = [f"{name}\t{getattr(self, name)}" for name in _SCORE_NAMES]
        lines += [f"error\t{inp}\t{out}\t{expected}" for inp, out, expected in self.errors]
        return "\n".join(lines) + "\n"


@dataclass
class CrossValidation:
    """One out-of-fold report per fold, and their pooled scores: the
    folds' counts summed and divided as ``evaluate`` divides."""

    folds: list[EvalReport]

    @property
    def char_f1(self) -> float:
        return _ratio(sum(f.correct for f in self.folds), sum(f.chars for f in self.folds))

    @property
    def word_accuracy(self) -> float:
        return _ratio(sum(f.words_right for f in self.folds), sum(f.words for f in self.folds))


@dataclass
class GridCell:
    x: int
    y: int
    validation_f1: float


class GridSearch(NamedTuple):
    """A grid search's best model, every cell's score, and the keys whose
    training samples carry two or more labels, in table order."""

    model: TranslitModel
    cells: list[GridCell]
    varying: tuple[str, ...]


@dataclass
class RoundTripReport:
    fraction: float
    failures: list[tuple[str, str, str]]  # (word, forward, back)


class _CharVerdicts(dict):
    """char -> may it appear in a corpus entry: not whitespace and not
    punctuation, except the hyphen and the apostrophe. Each verdict is
    computed once, on first lookup."""

    def __missing__(self, ch: str) -> bool:
        ok = self[ch] = ch in "-'" or not (
            ch.isspace() or unicodedata.category(ch).startswith("P")
        )
        return ok


_ENTRY_CHAR_OK = _CharVerdicts()


def _entry_ok(word: str) -> bool:
    # Most words are letters alone and need no verdict per character.
    return word.isalpha() or (bool(word) and all(map(_ENTRY_CHAR_OK.__getitem__, word)))


# Characters of whole lines that load_corpus normalizes in one call:
# enough to make the per-call cost vanish, and few enough that the file
# is never held as line strings all at once.
_LOAD_BLOCK_CHARS = 1 << 16


def load_corpus(path) -> Corpus:
    """Read a ``cyrillic<TAB>latin`` TSV, normalize both sides, and drop
    multi-word or punctuation-bearing entries (hyphen and apostrophe stay).

    The text is normalized a block of whole lines at a time, which gives
    each field what normalizing it alone would: no whitespace character
    composes with a neighbour under NFC, and the one context rule of
    lowercasing, Greek final sigma, stops at whitespace as at the end of
    a string."""
    pairs = []
    dropped = 0
    with open(path, encoding="utf-8-sig") as handle:  # a leading BOM is not text
        while block := handle.readlines(_LOAD_BLOCK_CHARS):
            for line in normalize_word("".join(block)).split("\n"):
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                cyr, _, lat = line.partition("\t")
                cyr = cyr.strip()
                lat = lat.strip()
                if _entry_ok(cyr) and _entry_ok(lat):
                    pairs.append((cyr, lat))
                else:
                    dropped += 1
    if dropped:
        log.warning("dropped %d multi-word/punctuation entries from %s", dropped, path)
    return Corpus(pairs=pairs, provenance=f"{path} ({len(pairs)} pairs, {dropped} dropped)")


def format_corpus(corpus: Corpus) -> str:
    """The text ``load_corpus`` reads: a ``# provenance`` line when there
    is one, then one ``cyrillic<TAB>latin`` line per pair."""
    head = [f"# {corpus.provenance}\n"] if corpus.provenance else []
    return "".join(head + [f"{cyr}\t{lat}\n" for cyr, lat in corpus.pairs])


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_corpus(corpus))


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
    bounds = (0, n_train, n_train + n_val, len(corpus.pairs))
    return tuple(_cut(corpus, config.seed, bounds, ("train", "validation", "test")))


def _cut(corpus: Corpus, seed: int, bounds, names) -> list[Corpus]:
    """``corpus`` shuffled deterministically (MT19937 Fisher-Yates via
    random.Random(seed)) and cut into the contiguous parts between
    consecutive ``bounds``, one per name, each part's provenance naming
    it and the seed."""
    order = list(corpus.pairs)
    random.Random(seed).shuffle(order)
    return [
        Corpus(order[start:stop], f"{corpus.provenance} [{name} seed={seed}]")
        for name, start, stop in zip(names, bounds, bounds[1:])
    ]


def _align_training(train_part: Corpus, table: MappingTable):
    """Align the training part in the table's direction. Unalignable
    pairs are logged and left out; a part with no alignable pair at all
    is an error."""
    alignments, failures = align_corpus(train_part.oriented(table.direction), table)
    if failures:
        log.warning(
            "%d of %d training pairs not alignable; excluded (align --failures lists them)",
            len(failures),
            len(train_part.pairs),
        )
    if not alignments:
        raise ValueError("no training pair could be aligned under the mapping table")
    return alignments


def train_direction(train_part: Corpus, window: WindowSpec, table: MappingTable) -> TranslitModel:
    """align -> extract -> dedup -> train at one window, in the table's
    direction; the model carries the window and the table."""
    samples = extract_samples(_align_training(train_part, table), window)
    return dtree.train(dedup_samples(samples), table)


def predict_segments(model: TranslitModel, word: str) -> list[str]:
    """Per-character predicted target segments, from one walk over the
    padded word: each table key through its own tree, and every other
    character unchanged."""
    return predict(model, window_features(word, model.window))


def transliterate_word(model: TranslitModel, word: str) -> str:
    """Total on normalized text: predictions concatenated, unknown
    characters passed through."""
    return "".join(predict_segments(model, word))


def apply_case_pattern(original: str, text: str) -> str:
    """Word-level case restoration: all-caps in, all-caps out; a capital
    first letter in, a capital first letter out (digits and punctuation
    before it are skipped on both sides); otherwise the case is unchanged.
    The result is NFC in every case: upper-casing ``i`` + U+0307 gives
    ``I`` + U+0307, which composes to U+0130, and a combining mark the
    model passes through may compose with the segment before it, as
    ``sh`` + U+0308 does to ``s`` + U+1E27."""
    letters = [ch for ch in original if ch.isalpha()]
    if letters and all(ch.isupper() for ch in letters):
        text = text.upper()
    elif letters and letters[0].isupper():
        for i, ch in enumerate(text):
            if ch.isalpha():
                text = text[:i] + ch.upper() + text[i + 1 :]
                break
    return unicodedata.normalize("NFC", text)


def evaluate(model: TranslitModel, heldout: Corpus, table: MappingTable) -> EvalReport:
    """Count, in one pass over ``heldout``, the source characters whose
    predicted segment is the gold one and the words with every segment
    right; the report's scores are derived from these counts. The gold
    segments are aligned under ``table``, normally ``model.table``, and a
    table of the other direction is a ValueError. Every character of a
    pair the table cannot align counts as wrong, and the pair as a wrong
    word."""
    if table.direction != model.direction:
        raise ValueError(
            f"table maps {'->'.join(table.direction)}, the model {'->'.join(model.direction)}"
        )
    alignments, failures = align_corpus(heldout.oriented(model.direction), table)
    correct = chars = words_right = 0
    errors: list[tuple[str, str, str]] = []
    for pair in alignments:
        predicted = predict_segments(model, pair.source)
        right = sum(map(str.__eq__, pair.target_segments, predicted))
        correct += right
        chars += len(predicted)
        if right == len(predicted):
            words_right += 1
        else:
            errors.append((pair.source, "".join(predicted), pair.target))
    for failure in failures:
        chars += len(failure.source)
        errors.append((failure.source, transliterate_word(model, failure.source), failure.target))
    return EvalReport(correct, chars, words_right, len(alignments) + len(failures), errors)


def grid_search(
    train_part: Corpus,
    validation_part: Corpus,
    table: MappingTable,
    x_values,
    y_values,
) -> GridSearch:
    """Score every (x, y) cell by validation F1, as ``evaluate`` scores
    the model ``train_direction`` trains at that window; return the
    model of the best cell (ties go to the smallest x+y, then the
    smallest x), every cell's score and the keys that vary. An empty
    grid is a ValueError.

    The training and the validation alignments are each extracted once, at
    the grid's widest x and y, each coded in its own alphabet; the
    validation labels are the gold segments. Each cell trains on slices of
    the training rows (``Samples.narrowed``) and scores the validation
    rows as they are: ``dtree.count_correct`` reads the cell's window
    inside the widest one in place, decoding each symbol it tests, so the
    validation side is never sliced and no window is predicted alone. A
    key's tree is grown on that key's samples alone, so a key whose
    training samples carry one label, or that training never holds, is one
    leaf with the same label at every window. Only the other keys, the
    *varying* ones, are deduplicated, trained and scored per cell. The
    fixed keys' correct count and the number of validation characters
    (those of unalignable pairs included) are the same in every cell, so
    the cells rank by the varying keys' count alone. The best cell's model
    is then trained on every key, the fixed keys are scored with it once,
    and each cell's F1 is its correct count over the number of characters,
    the division ``evaluate`` makes."""
    grid = list(product(x_values, y_values))
    if not grid:
        raise ValueError("the window grid is empty")
    widest = WindowSpec(max(x for x, _ in grid), max(y for _, y in grid))
    wide = extract_samples(_align_training(train_part, table), widest)
    val_alignments, val_failures = align_corpus(
        validation_part.oriented(table.direction), table
    )
    gold = extract_samples(val_alignments, widest)
    total = len(gold) + sum(len(failure.source) for failure in val_failures)

    varying = tuple(key for key in table.entries if len(wide.blocks.get(key, ())) > 1)
    train_varying, gold_varying = wide.only(varying), gold.only(varying)
    correct = dict.fromkeys(grid, 0)  # cell -> the varying keys' correct count
    if varying:
        for x, y in grid:
            window = WindowSpec(x, y)
            model = dtree.train(dedup_samples(train_varying.narrowed(window)), table)
            correct[x, y] = dtree.count_correct(model, gold_varying)
    # over one total, a larger count divides to a larger F1
    x, y = min(grid, key=lambda cell: (-correct[cell], cell[0] + cell[1], cell[0]))
    best = WindowSpec(x, y)
    model = dtree.train(dedup_samples(wide.narrowed(best)), table)
    fixed = dtree.count_correct(model, gold.only(set(gold.blocks) - set(varying)))
    cells = [
        GridCell(x=x, y=y, validation_f1=_ratio(fixed + correct[x, y], total))
        for x, y in grid
    ]
    return GridSearch(model, cells, varying)


def kfold(corpus: Corpus, k: int, seed: int) -> list[Corpus]:
    """Deterministic shuffle, as in split_corpus, cut into ``k``
    contiguous folds whose sizes differ by at most one."""
    if not 2 <= k <= len(corpus.pairs):
        raise ValueError(f"cannot cut {len(corpus.pairs)} pairs into {k} folds")
    bounds = [len(corpus.pairs) * i // k for i in range(k + 1)]
    return _cut(corpus, seed, bounds, [f"fold {i}/{k}" for i in range(1, k + 1)])


def cross_validate(
    corpus: Corpus, window: WindowSpec, table: MappingTable, k: int = 10, seed: int = 42
) -> CrossValidation:
    """k-fold cross-validation (Kohavi, IJCAI 1995) at one window, in the
    table's direction: each fold is counted by ``evaluate`` with the model
    trained on the other k - 1 folds, so every word is scored once. The
    pooled scores divide the folds' summed integer counts."""
    folds = kfold(corpus, k, seed)
    reports = []
    for i, fold in enumerate(folds):
        rest = Corpus([pair for other in folds[:i] + folds[i + 1 :] for pair in other.pairs])
        reports.append(evaluate(train_direction(rest, window, table), fold, table))
    return CrossValidation(reports)


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
    fraction = _ratio(len(words) - len(failures), len(words))
    return RoundTripReport(fraction=fraction, failures=failures)
