"""Character alignment of source words against target words.

Each source character is paired with zero or more characters of the
target word so that the segments tile the target exactly. The search is
a depth-first backtracking walk over the mapping table's candidates,
longest candidate first, and the first complete tiling wins, so the
search is fully deterministic. A (source index, target offset) state
whose candidates have all failed is remembered and never entered again,
so a word costs at most one visit per state, however many empty
candidates the table allows.

The search's first descent is greedy: each character takes its first
candidate that matches the target where the previous ones end. When
that walk ends exactly at the end of the target it is the search's
answer, and ``align_word`` returns it without setting up the search:
the walk reads the source string and the table's rows directly, and
the per-character candidate lists and the unknown-character check are
built only when it fails. On the bundled lexicon it aligns every pair
in both directions. Only the other words pay for the backtracking
search, which starts over from the first character.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabets import MappingTable


class AlignmentError(Exception):
    pass


class UnknownSourceCharError(AlignmentError):
    """A source character has no mapping-table entry at all."""

    def __init__(self, source: str, target: str, char: str, position: int):
        super().__init__(f"no table entry for {char!r} in {source!r} (position {position})")
        self.source = source
        self.target = target
        self.char = char
        self.position = position


class NoAlignmentError(AlignmentError):
    """No candidate assignment tiles the target word."""

    def __init__(self, source: str, target: str, position: int):
        super().__init__(
            f"cannot align {source!r} with {target!r}; stuck at source position {position}"
        )
        self.source = source
        self.target = target
        self.position = position


@dataclass(frozen=True)
class AlignedPair:
    """A source word whose characters are each tied to a target segment."""

    source: str
    target_segments: tuple[str, ...]

    def __post_init__(self):
        if len(self.source) != len(self.target_segments):
            raise ValueError("source and target_segments lengths differ")

    @property
    def target(self) -> str:
        return "".join(self.target_segments)


@dataclass(frozen=True)
class AlignmentFailure:
    source: str
    target: str
    position: int


def align_word(source: str, target: str, table: MappingTable) -> AlignedPair:
    """Align ``source`` against ``target`` under ``table``.

    Raises UnknownSourceCharError when a source character has no table
    row, and NoAlignmentError when no candidate assignment concatenates
    to the target. The error's position is the deepest source position
    the search reached, or the last character when the whole source
    tiles only part of the target; align_corpus records it as the
    failure position, and ``translit align --failures`` reports it.
    """
    if not source:
        raise ValueError("source word is empty")
    entries = table.entries
    target_len = len(target)
    # The greedy walk: the search's first descent, before any state is dead.
    segments: list[str] = []
    j = 0
    for ch in source:
        for candidate in entries.get(ch, ()):
            if target.startswith(candidate, j):
                segments.append(candidate)
                j += len(candidate)
                break
        else:
            break
    if j == target_len and len(segments) == len(source):
        return AlignedPair(source, tuple(segments))

    candidate_lists = list(map(entries.get, source))
    if None in candidate_lists:
        position = candidate_lists.index(None)
        raise UnknownSourceCharError(source, target, source[position], position)

    n = len(source)
    segments = [""] * n
    deepest = 0

    # Depth-first backtracking with an explicit stack; frames hold
    # (source index, target offset, next candidate to try). A state is
    # dead once its frame is exhausted, and is never entered again.
    frames: list[list] = [[0, 0, 0]]
    dead: set[tuple[int, int]] = set()
    while frames:
        frame = frames[-1]
        i, j = frame[0], frame[1]
        if i == n:
            if j == target_len:
                return AlignedPair(source, tuple(segments))
            dead.add((i, j))
            frames.pop()
            continue
        candidates = candidate_lists[i]
        k = frame[2]
        while k < len(candidates) and (
            not target.startswith(candidates[k], j)
            or (i + 1, j + len(candidates[k])) in dead
        ):
            k += 1
        if k == len(candidates):
            dead.add((i, j))
            frames.pop()
            continue
        frame[2] = k + 1
        segments[i] = candidates[k]
        frames.append([i + 1, j + len(candidates[k]), 0])
        deepest = max(deepest, i + 1)
    raise NoAlignmentError(source, target, min(deepest, n - 1))


def align_corpus(pairs, table: MappingTable):
    """Align every (source, target) pair; failures are collected, not raised."""
    alignments: list[AlignedPair] = []
    failures: list[AlignmentFailure] = []
    for source, target in pairs:
        try:
            alignments.append(align_word(source, target, table))
        except AlignmentError as err:
            failures.append(AlignmentFailure(source, target, err.position))
    return alignments, failures


def format_failure_report(failures) -> str:
    """One line per failure: ``<source><TAB><target><TAB><fail-position>``."""
    return "".join(f"{f.source}\t{f.target}\t{f.position}\n" for f in failures)
