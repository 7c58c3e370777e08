#!/usr/bin/env python3
"""Rebuild the Latin-to-Cyrillic mapping table from first principles.

Two stages, mirroring how the bundled table was produced:

1. Invert the Cyrillic-to-Latin table. Single-character candidates
   invert directly. For two-character candidates the silent side follows
   the alignment convention visible in the golden alignments: o' and g'
   keep the letter on their first character (o -> ў, ' -> empty), every
   other digraph keeps it on the second (ts: t -> empty, s -> ц).

2. Close the gaps over the bundled lexicon. Words the inverted table
   cannot align (the soft-sign class: oktabr needs р -> рь) are re-aligned
   with a DP that may assign any target substring of length 0..2 to a
   source character at a penalty; the cheapest tiling's penalized
   assignments become new table rows. This automates the add-a-mapping
   loop that was done by hand against the original dictionary.

Writes the result to --out (lat2cyr.rebuilt.tsv in the working
directory by default), diffs it against the bundled file, and exits 1
on any difference.

Usage: python scripts/rebuild_lat2cyr_table.py [--out PATH]
"""

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from uztranslit.alphabets import (
    CYR2LAT,
    LAT2CYR,
    MappingTable,
    bundled_mapping_table,
    _data_path,
)
from uztranslit.aligner import align_corpus
from uztranslit.pipeline import load_corpus

FIRST_CHAR_KEEPS = {"o'", "g'"}  # apostrophe digraphs; everything else is second-char


def invert(table: MappingTable) -> dict[str, set[str]]:
    entries: dict[str, set[str]] = {}

    def add(key, value):
        entries.setdefault(key, set()).add(value)

    for cyr, candidates in table.entries.items():
        for latin in candidates:
            if latin == "":
                continue
            if len(latin) == 1:
                add(latin, cyr)
            elif latin in FIRST_CHAR_KEEPS:
                add(latin[0], cyr)
                add(latin[1], "")
            else:
                add(latin[0], "")
                add(latin[1], cyr)
    return entries


def wildcard_alignments(source: str, target: str, entries: dict[str, set[str]]):
    """Cheapest tiling of target by source characters, where a character
    may take a non-table segment of length 0..2 at cost 1. Returns the
    list of (char, segment) pairs used at a penalty."""

    @lru_cache(maxsize=None)
    def best(i: int, j: int):
        if i == len(source):
            return ([], 0) if j == len(target) else None
        result = None
        known = entries.get(source[i], set())
        for length in (2, 1, 0):
            segment = target[j : j + length]
            if len(segment) != length:
                continue
            rest = best(i + 1, j + length)
            if rest is None:
                continue
            penalty = 0 if segment in known else 1
            cost = rest[1] + penalty
            extras = ([(source[i], segment)] if penalty else []) + rest[0]
            if result is None or cost < result[1]:
                result = (extras, cost)
        return result

    outcome = best(0, 0)
    best.cache_clear()
    return outcome[0] if outcome else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="lat2cyr.rebuilt.tsv")
    args = parser.parse_args(argv)

    forward = bundled_mapping_table(CYR2LAT)
    entries = invert(forward)
    entries.setdefault("-", set()).add("-")

    lexicon = load_corpus(_data_path("lexicon.tsv"))
    reverse_pairs = [(lat, cyr) for cyr, lat in lexicon.pairs]

    for round_no in range(1, 20):
        table = MappingTable({k: tuple(v) for k, v in entries.items()})
        _, failures = align_corpus(reverse_pairs, table)
        if not failures:
            print(f"round {round_no}: table covers all {len(reverse_pairs)} pairs")
            break
        print(f"round {round_no}: {len(failures)} uncovered pairs, discovering rows")
        added = 0
        for failure in failures:
            proposals = wildcard_alignments(failure.source, failure.target, entries)
            if proposals is None:
                print(f"  cannot tile {failure.source} / {failure.target}", file=sys.stderr)
                continue
            for char, segment in proposals:
                if segment not in entries.setdefault(char, set()):
                    print(f"  + {char} -> {segment or '∅'}   (from {failure.source})")
                    entries[char].add(segment)
                    added += 1
        if not added:
            print("no progress; giving up", file=sys.stderr)
            return 1

    rebuilt = MappingTable({k: tuple(v) for k, v in entries.items()})
    Path(args.out).write_text(rebuilt.format(), encoding="utf-8")
    print(f"wrote {args.out}")

    bundled = bundled_mapping_table(LAT2CYR)
    if rebuilt.entries == bundled.entries:
        print("rebuilt table is identical to the bundled lat2cyr.tsv")
        return 0
    print("differences against the bundled table:")
    keys = sorted(set(rebuilt.entries) | set(bundled.entries))
    for key in keys:
        ours = rebuilt.entries.get(key, ())
        theirs = bundled.entries.get(key, ())
        if ours != theirs:
            print(f"  {key}: rebuilt={ours} bundled={theirs}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
