"""Context-window feature extraction from aligned word pairs.

Every source character becomes one sample: the x characters before it,
the character itself, and the y characters after it, padded with a
sentinel where the word runs out. The label is the aligned target
segment, possibly the empty string (a deletion).

Training and reading build windows the same way: ``window_features``
pads the word once, and the window of character ``i`` is the
``width``-long run of that padded tuple starting at ``i``. Training cuts
each window out as a slice; reading walks every window in place
(``dtree.predict``), so a word costs one tuple however long it is.

The padding sentinel is deliberately not "∅": the empty-string class
and out-of-word padding are different roles and must stay distinct in
the feature space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class Sample(NamedTuple):
    features: tuple[str, ...]
    label: str


def window_features(chars, window: WindowSpec) -> tuple[str, ...]:
    """``chars`` padded for its windows: x PADs, the characters, y PADs.
    Character ``i``'s window is ``padded[i : i + window.width]``."""
    return (PAD,) * window.x + tuple(chars) + (PAD,) * window.y


def extract_samples(pair: AlignedPair, window: WindowSpec) -> list[Sample]:
    """One sample per source character, in word order."""
    padded = window_features(pair.source_chars, window)
    width = window.width
    return [
        Sample(padded[i : i + width], label) for i, label in enumerate(pair.target_segments)
    ]


def dedup_samples(samples) -> list[Sample]:
    """Drop exact (features, label) duplicates, keeping first occurrence.

    Samples with equal features but different labels are all kept;
    silently dropping one side would bias the classifier.
    """
    return list(dict.fromkeys(samples))
