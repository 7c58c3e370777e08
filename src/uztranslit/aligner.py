"""Character alignment of source words against target words.

Each source character is paired with zero or more characters of the
target word so that the segments tile the target exactly. The answer is
the tiling a depth-first search over the mapping table's candidates, in
table order, finds first, so alignment is fully deterministic.

``align_corpus`` aligns most words by a greedy walk: each character
takes its first candidate that matches the target where the previous
ones end. When that walk ends exactly at the end of the target it is
the search's first descent and its answer. The walk reads the source
string and the table's rows directly. It aligns all 822 pairs of the
bundled lexicon and all 400,000 pairs of ``gen_corpus(5000)`` for seeds
0-39, both directions each, so only custom tables and failing pairs
reach ``align_word``, the exact search.

Those pay for two passes over sets of target offsets, each at most one
visit per (source index, target offset) state, however many empty
candidates the table allows. A backward pass builds, for each source
index, the offsets from which the rest of the source tiles the rest of
the target. If offset 0 is among them, a forward walk takes at each
character the first candidate that matches and lands on such an offset:
the first candidate whose subtree would complete. Otherwise a forward
pass collects the offsets each prefix of the source can reach. The
failure position is the deepest source index that any offset reaches,
or the last character when the whole source is used up with target
left over. A failing pair, like one with a character that has no table
row, raises the one ``AlignmentError``, which carries that position.

Every ``AlignedPair`` is made by one of these walks, and each gives
exactly one segment per source character; the record itself does not
check it.
"""

from __future__ import annotations

from typing import NamedTuple

from .alphabets import MappingTable


class AlignmentError(Exception):
    """A pair the table cannot align, charged to source index ``position``."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class AlignedPair(NamedTuple):
    """A source word whose characters are each tied to a target segment."""

    source: str
    target_segments: tuple[str, ...]

    @property
    def target(self) -> str:
        return "".join(self.target_segments)


class AlignmentFailure(NamedTuple):
    source: str
    target: str
    position: int


def align_word(source: str, target: str, table: MappingTable) -> AlignedPair:
    """Align ``source`` against ``target`` under ``table`` by the exact
    search; ``align_corpus`` calls it only for the pairs its greedy walk
    does not tile, and gives the same answers as calling it for every
    pair.

    Raises AlignmentError when a source character has no table row, or
    when no candidate assignment concatenates to the target. Its
    position is the unknown character's index in the first case. In the
    second it is the deepest source index the search reaches, or the
    last character when the whole source tiles only part of the target;
    align_corpus records it as the failure position, and ``translit
    align --failures`` reports it.
    """
    if not source:
        raise ValueError("source word is empty")
    candidate_lists = list(map(table.entries.get, source))
    if None in candidate_lists:
        i = candidate_lists.index(None)
        raise AlignmentError(f"no table entry for {source[i]!r} in {source!r} (position {i})", i)

    # tiles[i]: the offsets j from which source[i:] tiles target[j:]. A
    # negative start to startswith counts from the end, hence the guard.
    n = len(source)
    tiles = [set() for _ in range(n)] + [{len(target)}]
    for i in range(n - 1, -1, -1):
        tiles[i] = {
            j - len(c)
            for j in tiles[i + 1]
            for c in candidate_lists[i]
            if len(c) <= j and target.startswith(c, j - len(c))
        }
    if 0 in tiles[0]:
        segments = []
        j = 0
        for candidates, ends in zip(candidate_lists, tiles[1:]):
            segment = next(
                c for c in candidates if target.startswith(c, j) and j + len(c) in ends
            )
            segments.append(segment)
            j += len(segment)
        return AlignedPair(source, tuple(segments))

    # After step k, reach holds the offsets source[:k] reaches. Counting
    # the steps that leave it non-empty gives the deepest index reached,
    # at most n - 1.
    reach, position = {0}, 0
    for candidates in candidate_lists[:-1]:
        reach = {j + len(c) for j in reach for c in candidates if target.startswith(c, j)}
        position += bool(reach)
    raise AlignmentError(
        f"cannot align {source!r} with {target!r}; stuck at source position {position}", position
    )


def align_corpus(pairs, table: MappingTable):
    """Align every (source, target) pair; failures are collected, not raised.

    Each pair first takes the greedy walk. A pair it does not tile, and
    an empty source, goes to ``align_word``, whose ValueError for an
    empty source is raised and whose AlignmentError becomes an
    ``AlignmentFailure`` at the error's position.
    """
    entries = table.entries
    alignments: list[AlignedPair] = []
    failures: list[AlignmentFailure] = []
    for source, target in pairs:
        # The greedy walk: the search's first descent.
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
        if source and j == len(target) and len(segments) == len(source):
            alignments.append(AlignedPair(source, tuple(segments)))
            continue
        try:
            alignments.append(align_word(source, target, table))
        except AlignmentError as err:
            failures.append(AlignmentFailure(source, target, err.position))
    return alignments, failures


def format_failure_report(failures) -> str:
    """One line per failure: ``<source><TAB><target><TAB><fail-position>``."""
    return "".join(f"{f.source}\t{f.target}\t{f.position}\n" for f in failures)
