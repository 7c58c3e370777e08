"""Context-window feature extraction from aligned word pairs.

Every source character becomes one sample: the x characters before it,
the character itself, and the y characters after it, padded with a
sentinel where the word runs out. The label is the aligned target
segment, possibly the empty string (a deletion).

Training and reading build windows the same way: the word is padded
once, and the window of character ``i`` is the ``width``-long run of the
padded word starting at ``i``. Reading pads with ``window_features``, a
tuple of symbols, and walks every window in place (``dtree.predict``),
so a word costs one tuple however long it is.

Training codes every symbol as its rank among the sorted symbols of the
extraction (the source characters and PAD), ``chr(rank)``: a padded word
is one short ``str``, a sample's window is a ``width``-long slice of it,
and ``Samples.symbols`` decodes a code back to its symbol. Codes follow
``sorted()`` order, so comparing or sorting codes compares or sorts
their symbols, and a tree grown on codes and then decoded is the tree
grown on the symbols. This is the binning of histogram tree growers
(LightGBM, Ke et al. 2017; XGBoost, Chen & Guestrin 2016): a window
cell is one character, one shared object below code 256, so a row costs
one small object, and counting a column of cells stays inside a few
cache lines.

Training keeps every sample as its coded row, key-major (``Samples``):
one group per focus character, in order of first occurrence, and in it
one list of rows per label, again in order of first occurrence, each
row one sample's window, in word order. A sample's focus symbol is its
source character at every window, so one grouping serves every window,
and each focus character's label -> rows map is what its own tree
(``dtree.train``) grows from. A smaller window's rows are slices of a
wider window's (``Samples.narrowed``), so a grid search extracts and
groups once, at its widest window. Each cell trains on slices of the
training rows and scores the validation rows unsliced, reading its
window inside the wider one (``dtree.count_correct``). Each cell
deduplicates only the rows of the keys whose samples carry more than one
label (``Samples.only``): every other key's tree is the same one leaf at
every window.

Every ``Samples`` is made here, by ``extract_samples``, ``narrowed``,
``only`` or ``dedup_samples``, and each keeps one row rule: a row is a
``width``-long slice of one padded word, filed under its own symbol at
``x``, in the codes of its ``symbols``. The aligner, which makes every
``AlignedPair``, ties each source character to exactly one segment, so
every slice is full-width.
``dtree.train`` takes ``Samples`` as they are made here and does not
check their rows again.

The padding sentinel is deliberately not "∅": the empty-string class
and out-of-word padding are different roles and must stay distinct in
the feature space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .aligner import AlignedPair

PAD = "∅-PAD"


@dataclass(frozen=True)
class WindowSpec:
    """x preceding and y subsequent characters around the focus character."""

    x: int
    y: int

    def __post_init__(self):
        if type(self.x) is not int or type(self.y) is not int:  # bool is an int subclass
            raise ValueError(f"window bounds are not ints: x={self.x!r}, y={self.y!r}")
        if not (0 <= self.x <= 10 and 0 <= self.y <= 10):
            raise ValueError(f"window bounds out of range: x={self.x}, y={self.y}")

    # width, head and tail are read on every prediction
    @cached_property
    def width(self) -> int:
        return self.x + 1 + self.y

    @cached_property
    def head(self) -> tuple[str, ...]:
        """The x PADs before a padded word."""
        return (PAD,) * self.x

    @cached_property
    def tail(self) -> tuple[str, ...]:
        """The y PADs after a padded word."""
        return (PAD,) * self.y

    def offset_in(self, outer: WindowSpec) -> int:
        """Where this window sits in ``outer``'s rows: its position ``f``
        is ``outer``'s position ``offset + f``. The one check that a
        window fits inside another."""
        offset = outer.x - self.x
        if offset < 0 or self.y > outer.y:
            raise ValueError(f"window {self} does not fit inside {outer}")
        return offset


@dataclass(frozen=True)
class Samples:
    """Training samples, key-major: ``blocks`` maps each focus character,
    in order of first occurrence, to its label -> rows map, labels again
    in order of first occurrence. A row is one sample's window as a
    ``str`` of codes, the symbol of code ``c`` being ``symbols[ord(c)]``,
    and a label's rows are in word order. Every row is ``window.width``
    long and holds its focus at ``window.x``, which ``dtree.train`` relies
    on without checking. ``len()`` is the number of samples."""

    window: WindowSpec
    blocks: dict  # focus -> label -> list of coded rows
    symbols: tuple[str, ...]  # code rank -> symbol, in sorted order

    def __len__(self) -> int:
        return sum(len(rows) for labels in self.blocks.values() for rows in labels.values())

    def narrowed(self, window: WindowSpec) -> Samples:
        """The same samples at ``window``, which must fit inside this
        one: each row is a slice of this one's."""
        skip = window.offset_in(self.window)
        cut = itemgetter(slice(skip, skip + window.width))
        return Samples(window, {
            focus: {label: list(map(cut, rows)) for label, rows in labels.items()}
            for focus, labels in self.blocks.items()
        }, self.symbols)

    def only(self, keys) -> Samples:
        """The samples whose focus character is one of ``keys``."""
        keys = set(keys)
        return Samples(
            self.window,
            {focus: labels for focus, labels in self.blocks.items() if focus in keys},
            self.symbols,
        )


def window_features(chars, window: WindowSpec) -> tuple[str, ...]:
    """``chars`` padded for its windows: x PADs, the characters, y PADs.
    Character ``i``'s window is ``padded[i : i + window.width]``."""
    return (*window.head, *chars, *window.tail)


def extract_samples(alignments: list[AlignedPair], window: WindowSpec) -> Samples:
    """One sample per source character of every pair, grouped by focus
    character and then by label, in word order within each label; each
    row coded in the ranks of the sorted source characters and PAD."""
    width, x = window.width, window.x
    symbols = tuple(sorted({PAD, *"".join(pair.source for pair in alignments)}))
    codes = {ord(symbol): chr(rank) for rank, symbol in enumerate(symbols) if symbol != PAD}
    pad = chr(symbols.index(PAD))
    head, tail = pad * x, pad * window.y
    blocks: dict[str, dict] = {}
    for pair in alignments:
        padded = head + pair.source.translate(codes) + tail
        for i, label in enumerate(pair.target_segments):
            row = padded[i : i + width]
            blocks.setdefault(row[x], {}).setdefault(label, []).append(row)
    # filed by code while extracting, keyed by the focus symbol it decodes to
    return Samples(
        window, {symbols[ord(code)]: labels for code, labels in blocks.items()}, symbols
    )


def dedup_samples(samples: Samples) -> Samples:
    """Drop exact (window, label) duplicates, keeping first occurrence.

    Samples with equal windows but different labels are all kept;
    silently dropping one side would bias the classifier. A duplicate
    always carries the same focus and label, so each label's rows are
    deduplicated on their own, as the keys of one dict.
    """
    return Samples(samples.window, {
        focus: {label: list(dict.fromkeys(rows)) for label, rows in labels.items()}
        for focus, labels in samples.blocks.items()
    }, samples.symbols)
