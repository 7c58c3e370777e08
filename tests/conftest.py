from collections import Counter
from typing import NamedTuple

import pytest

from uztranslit import alphabets, gencorpus, pipeline
from uztranslit.aligner import AlignmentError, align_word
from uztranslit.alphabets import CYR2LAT, LAT2CYR, MappingTable
from uztranslit.dtree import _grow
from uztranslit.featurizer import PAD, Samples, WindowSpec, extract_samples


@pytest.fixture(scope="session")
def cyr2lat_table():
    return alphabets.bundled_mapping_table(CYR2LAT)


@pytest.fixture(scope="session")
def lat2cyr_table():
    return alphabets.bundled_mapping_table(LAT2CYR)


@pytest.fixture(scope="session")
def lexicon():
    return pipeline.load_corpus(
        alphabets._data_path("lexicon.tsv")
    )


@pytest.fixture(scope="session")
def synthetic_small():
    return gencorpus.gen_corpus(400, seed=11)


class Row(NamedTuple):
    """One training sample written out as a row: its window and label."""

    features: tuple[str, ...]
    label: str


def by_key(rows, x: int) -> list:
    """``rows`` grouped stably by focus symbol (position ``x``) and then
    by label: focus symbols in order of first occurrence, within each its
    labels in order of first occurrence, and each group's rows in their
    given order. This is the order in which ``Samples`` holds them."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[0][x], {}).setdefault(row[1], []).append(row)
    return [row for labels in groups.values() for group in labels.values() for row in group]


def alphabet_of(rows) -> tuple[str, ...]:
    """The sorted symbols of ``(features, label)`` rows and PAD: code rank
    -> symbol, as ``featurizer.extract_samples`` codes."""
    return tuple(sorted({PAD, *(symbol for features, _ in rows for symbol in features)}))


def decode(row: str, symbols) -> tuple[str, ...]:
    """A coded row as the window of symbols it stands for."""
    return tuple(symbols[ord(code)] for code in row)


def _blocks_of(rows, symbols) -> dict:
    """The label -> rows map of ``(features, label)`` rows, each window
    coded as its symbols' ranks in ``symbols``."""
    grouped: dict = {}
    for features, label in rows:
        grouped.setdefault(label, []).append("".join(chr(symbols.index(s)) for s in features))
    return grouped


def grow_rows(rows, positions) -> list[list]:
    """The node list ``dtree._grow`` grows on ``(features, label)`` rows,
    coded as ``featurizer`` codes them, splitting only on ``positions``."""
    symbols = alphabet_of(rows)
    return _grow(_blocks_of(rows, symbols), positions, symbols)


def samples_of(rows, window: WindowSpec) -> Samples:
    """The key-major ``Samples`` of ``(features, label)`` rows at
    ``window``, each grouped under its symbol at ``window.x`` and coded in
    the rows' sorted symbols and PAD, as ``featurizer`` groups and codes
    the rows it extracts."""
    symbols = alphabet_of(rows)
    grouped: dict = {}
    for row in rows:
        grouped.setdefault(row[0][window.x], []).append(row)
    blocks = {focus: _blocks_of(group, symbols) for focus, group in grouped.items()}
    return Samples(window, blocks, symbols)


def rows_of(samples: Samples) -> list[Row]:
    """``samples`` as one decoded row per sample, focus by focus, label by
    label."""
    return [
        Row(decode(row, samples.symbols), label)
        for labels in samples.blocks.values()
        for label, rows in labels.items()
        for row in rows
    ]


def table7_samples(cyr2lat_table) -> list[Row]:
    """The rows of the paper's Table 7: қўзичоқ -> qo'zichoq at x=2, y=1."""
    pair = align_word("қўзичоқ", "qo'zichoq", cyr2lat_table)
    return rows_of(extract_samples([pair], WindowSpec(x=2, y=1)))


def gini_of(rows) -> float:
    """The Gini impurity of the labels of ``(features, label)`` rows."""
    counts = Counter(row.label for row in rows)
    m = len(rows)
    return 1.0 - sum(c * c for c in counts.values()) / (m * m)


def split_decrease(rows, p: int, symbol: str) -> float:
    """The Gini decrease of splitting ``rows`` on ``features[p] == symbol``."""
    eq = [row for row in rows if row.features[p] == symbol]
    ne = [row for row in rows if row.features[p] != symbol]
    n = len(rows)
    return gini_of(rows) - (len(eq) / n) * gini_of(eq) - (len(ne) / n) * gini_of(ne)


def best_split_decrease(rows):
    """Exhaustive split scorer, the grower's optimality oracle: the best
    decrease over every split that leaves both sides non-empty, or None
    when there is no such split."""
    decreases = [
        split_decrease(rows, p, symbol)
        for p in range(len(rows[0].features))
        for symbol in {row.features[p] for row in rows}
        if any(row.features[p] != symbol for row in rows)
    ]
    return max(decreases, default=None)


def open_table(keys, labels) -> MappingTable:
    """A table that licenses every label in ``labels`` for every key."""
    return MappingTable({key: tuple(labels) for key in keys})


def varying_keys(part: pipeline.Corpus, table: MappingTable) -> tuple[str, ...]:
    """The table keys, in table order, that the pairs of ``part`` align
    to more than one segment, each pair aligned on its own."""
    labels: dict = {}
    for source, target in part.oriented(table.direction):
        pair = align_word(source, target, table)
        for char, segment in zip(pair.source, pair.target_segments):
            labels.setdefault(char, set()).add(segment)
    return tuple(key for key in table.entries if len(labels.get(key, ())) > 1)


def count_by_character(model, corpus: pipeline.Corpus, table: MappingTable):
    """``(correct, chars, words_right)`` of ``model`` on ``corpus``,
    counted apart from ``pipeline.evaluate``: each pair aligned on its own
    under ``table`` and compared with the model's segments one character
    at a time; every character of a pair that does not align is wrong."""
    correct = chars = words_right = 0
    for source, target in corpus.oriented(model.direction):
        try:
            gold = align_word(source, target, table).target_segments
        except AlignmentError:
            gold = ()
        right = sum(g == p for g, p in zip(gold, pipeline.predict_segments(model, source)))
        correct += right
        chars += len(source)
        words_right += right == len(source)
    return correct, chars, words_right
