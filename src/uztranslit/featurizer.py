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

Training keeps its samples column-major (``Samples``): one column per
window position, ``columns[p][i]`` being position ``p`` of sample ``i``,
which is the layout the tree grower scans. ``extract_samples`` builds
every column of a whole aligned part in C-level passes over one stream
of padded words, with no per-sample tuple. A smaller window's columns
are a slice of a wider window's (``Samples.narrowed``), so a grid search
extracts once, at its widest window. Extraction also makes every equal
symbol one shared string object, which keeps the grower's histogram
counting inside a few cache lines instead of one str object per window
cell.

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

    @cached_property  # read on every prediction
    def width(self) -> int:
        return self.x + 1 + self.y


@dataclass(frozen=True)
class Samples:
    """Training samples, column-major: ``columns[p][i]`` is window
    position ``p`` of sample ``i`` and ``labels[i]`` its target segment.
    ``len()`` is the number of samples."""

    window: WindowSpec
    columns: tuple  # one sequence of symbols per window position
    labels: tuple

    def __len__(self) -> int:
        return len(self.labels)

    def narrowed(self, window: WindowSpec) -> Samples:
        """The same samples at ``window``, which must fit inside this
        one: its columns are a slice of these."""
        skip = self.window.x - window.x
        if skip < 0 or window.y > self.window.y:
            raise ValueError(f"window {window} does not fit inside {self.window}")
        return Samples(window, self.columns[skip : skip + window.width], self.labels)


def window_features(chars, window: WindowSpec) -> tuple[str, ...]:
    """``chars`` padded for its windows: x PADs, the characters, y PADs.
    Character ``i``'s window is ``padded[i : i + window.width]``."""
    return (PAD,) * window.x + tuple(chars) + (PAD,) * window.y


def extract_samples(alignments: list[AlignedPair], window: WindowSpec) -> Samples:
    """One sample per source character of every pair, in word order.

    The padded words are laid end to end in one stream, and a mask marks
    where each window starts (one per character; none at the last
    ``width - 1`` symbols of a padded word). Column ``p`` is then the
    stream shifted by ``p`` and compressed by the mask."""
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
    labels = tuple(chain.from_iterable(pair.target_segments for pair in alignments))
    return Samples(window, columns, labels)


def dedup_samples(samples: Samples) -> Samples:
    """Drop exact (window, label) duplicates, keeping first occurrence.

    Samples with equal windows but different labels are all kept;
    silently dropping one side would bias the classifier.

    Each row is hashed once, as a key of one dict, and the surviving
    rows are cut back into columns one position at a time with
    ``itemgetter``, in first-occurrence order.
    """
    rows = list(dict.fromkeys(zip(*samples.columns, samples.labels)))
    if not rows:
        return samples
    width = len(samples.columns)
    *columns, labels = (tuple(map(itemgetter(p), rows)) for p in range(width + 1))
    return Samples(samples.window, tuple(columns), labels)
