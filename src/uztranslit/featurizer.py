"""Context-window feature extraction from aligned word pairs.

Every source character becomes one sample: the x characters before it,
the character itself, and the y characters after it, padded with a
sentinel where the word runs out. The label is the aligned target
segment, possibly the empty string (a deletion).

Training and reading build windows the same way: ``window_features``
pads the word once, and the window of character ``i`` is the
``width``-long run of that padded tuple starting at ``i``. Reading walks
every window in place (``dtree.predict``), so a word costs one tuple
however long it is.

Training keeps its samples key-major (``Samples``): one group per focus
character, in order of first occurrence, and in it one block per label,
again in order of first occurrence. A block holds one column per window
position, ``block[p][i]`` being position ``p`` of that label's ``i``-th
sample under that focus, in word order. A sample's focus symbol is its
source character at every window, so one grouping serves every window,
and each focus character's label blocks are what its own tree
(``dtree.train``) starts from. ``extract_samples`` builds every column
of a whole aligned part in C-level passes over one stream of padded
words, with no per-sample tuple, and then groups the columns by focus
and label in one pass. A smaller window's blocks are a slice of a wider
window's (``Samples.narrowed``), so a grid search extracts and groups
once, at its widest window. Each cell deduplicates only the blocks of
the keys whose samples carry more than one label (``Samples.only``):
every other key's tree is the same one leaf at every window.
Extraction also makes every equal symbol one shared string object,
which keeps the grower's histogram counting inside a few cache lines
instead of one str object per window cell.

The padding sentinel is deliberately not "∅": the empty-string class
and out-of-word padding are different roles and must stay distinct in
the feature space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice
from operator import itemgetter

from .aligner import AlignedPair

PAD = "∅-PAD"


@dataclass(frozen=True)
class WindowSpec:
    """x preceding and y subsequent characters around the focus character."""

    x: int
    y: int

    def __post_init__(self):
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


@dataclass(frozen=True)
class Samples:
    """Training samples, key-major: ``blocks`` maps each focus character,
    in order of first occurrence, to its label -> block map, labels again
    in order of first occurrence. A block is a tuple of one column per
    window position; ``block[p][i]`` is position ``p`` of the label's
    ``i``-th sample under that focus. ``len()`` is the number of samples."""

    window: WindowSpec
    blocks: dict  # focus -> label -> one sequence of symbols per window position

    def __len__(self) -> int:
        return sum(len(block[0]) for labels in self.blocks.values() for block in labels.values())

    def narrowed(self, window: WindowSpec) -> Samples:
        """The same samples at ``window``, which must fit inside this
        one: each block is a slice of this one's."""
        skip = self.window.x - window.x
        if skip < 0 or window.y > self.window.y:
            raise ValueError(f"window {window} does not fit inside {self.window}")
        stop = skip + window.width
        return Samples(window, {
            focus: {label: block[skip:stop] for label, block in labels.items()}
            for focus, labels in self.blocks.items()
        })

    def only(self, keys) -> Samples:
        """The samples whose focus character is one of ``keys``."""
        keys = set(keys)
        return Samples(
            self.window, {focus: labels for focus, labels in self.blocks.items() if focus in keys}
        )


def window_features(chars, window: WindowSpec) -> tuple[str, ...]:
    """``chars`` padded for its windows: x PADs, the characters, y PADs.
    Character ``i``'s window is ``padded[i : i + window.width]``."""
    return (*window.head, *chars, *window.tail)


def extract_samples(alignments: list[AlignedPair], window: WindowSpec) -> Samples:
    """One sample per source character of every pair, grouped by focus
    character and then by label, in word order within each block.

    The padded words are laid end to end in one stream, and a mask marks
    where each window starts (one per character; none at the last
    ``width - 1`` symbols of a padded word). Column ``p`` is then the
    stream shifted by ``p`` and compressed by the mask, and each block
    takes its samples out of every column with one ``itemgetter``."""
    stream = list(chain.from_iterable(
        window_features(pair.source_chars, window) for pair in alignments
    ))
    canonical: dict[str, str] = {}
    stream = list(map(canonical.setdefault, stream, stream))
    tail = (0,) * (window.width - 1)
    starts = list(chain.from_iterable(
        (1,) * len(pair.source_chars) + tail for pair in alignments
    ))
    columns = tuple(
        tuple(compress(islice(stream, p, None), starts)) for p in range(window.width)
    )
    # column x holds each sample's focus symbol
    labels = chain.from_iterable(pair.target_segments for pair in alignments)
    groups: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(columns[window.x], labels)):
        groups.setdefault(key, []).append(i)
    blocks: dict[str, dict] = {}
    for (focus, label), group in groups.items():
        if len(group) == 1:
            # an itemgetter of one index returns an item, not a tuple
            i = group[0]
            block = tuple(column[i : i + 1] for column in columns)
        else:
            take = itemgetter(*group)
            block = tuple(map(take, columns))
        blocks.setdefault(focus, {})[label] = block
    return Samples(window, blocks)


def dedup_samples(samples: Samples) -> Samples:
    """Drop exact (window, label) duplicates, keeping first occurrence.

    Samples with equal windows but different labels are all kept;
    silently dropping one side would bias the classifier.

    A duplicate always carries the same focus and label, so each block is
    deduplicated on its own: its rows are hashed once, as the keys of one
    dict, with no label in the key. A block without a duplicate is kept
    as the same object; the others are cut back into columns from the
    surviving rows, in first-occurrence order.
    """
    blocks = {}
    for focus, labels in samples.blocks.items():
        kept = blocks[focus] = {}
        for label, block in labels.items():
            rows = dict.fromkeys(zip(*block))
            kept[label] = block if len(rows) == len(block[0]) else tuple(zip(*rows))
    return Samples(samples.window, blocks)
