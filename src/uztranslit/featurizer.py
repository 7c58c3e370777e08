"""Context-window feature extraction from aligned word pairs.

Every source character becomes one sample: the x characters before it,
the character itself, and the y characters after it, padded with a
sentinel where the word runs out. The label is the aligned target
segment, possibly the empty string (a deletion).

The padding sentinel is deliberately not "∅": the empty-string class
and out-of-word padding are different roles and must stay distinct in
the feature space. PAD renders as ∅ only in debug dumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .aligner import AlignedPair

PAD = "∅-PAD"

_DISPLAY_EMPTY = "∅"


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


def window_features(chars, index: int, window: WindowSpec) -> tuple[str, ...]:
    """The window around ``chars[index]``, PAD where the word is exhausted.
    ``index`` must be a position of ``chars``."""
    lo = index - window.x
    hi = index + window.y + 1
    right_pad = (PAD,) * (hi - len(chars))  # empty unless the word ends before hi
    if lo < 0:
        return (PAD,) * -lo + tuple(chars[:hi]) + right_pad
    return tuple(chars[lo:hi]) + right_pad


def extract_samples(pair: AlignedPair, window: WindowSpec) -> list[Sample]:
    """One sample per source character, in word order: the word is padded
    once and each window is a slice of it, equal to ``window_features``."""
    padded = (PAD,) * window.x + tuple(pair.source_chars) + (PAD,) * window.y
    width = window.width
    return [
        Sample(padded[i : i + width], label)
        for i, label in enumerate(pair.target_segments)
    ]


def dedup_samples(samples) -> list[Sample]:
    """Drop exact (features, label) duplicates, keeping first occurrence.

    Samples with equal features but different labels are all kept;
    silently dropping one side would bias the classifier.
    """
    return list(dict.fromkeys(samples))


def dump_samples_tsv(samples) -> str:
    """Debug dump: features joined by ``|``, TAB, label; ∅ for PAD and
    for the empty label."""
    lines = []
    for sample in samples:
        feats = "|".join(_DISPLAY_EMPTY if f == PAD else f for f in sample.features)
        label = sample.label if sample.label else _DISPLAY_EMPTY
        lines.append(f"{feats}\t{label}\n")
    return "".join(lines)
