#!/usr/bin/env python3
"""Print one line per grid cell: corpus, direction, x, y, the SHA-256 of
the trees trained at that window (the key -> node list map as JSON, in
table order) and the SHA-256 of that model's transliterations (the list
of ``transliterate_word`` outputs as JSON).

The corpus is ``lexicon`` (the bundled lexicon) or ``synthetic:SIZE:SEED``
(``gen_corpus(SIZE, SEED)``). The models are trained on the 70% part of
its 70/15/15 seed-42 split. They transliterate the source words of the
held-out 30% and a few words with characters outside the table, and the
empty word. Two checkouts that print the same lines train identical
trees and transliterate identically, which is the gate for refactoring
the trainer or the read path. Only the trees are hashed, so the gate
holds across file format changes that keep them.

``tests/data/digests.txt`` holds this script's lines for a fixed set of
cells, and ``tests/test_digests.py`` recomputes every line of it through
``digest_line``.

Usage: PYTHONPATH=src python scripts/model_digests.py --synthetic 5000 42
       PYTHONPATH=src python scripts/model_digests.py --lexicon --dir cyr2lat
       PYTHONPATH=src python scripts/model_digests.py --synthetic 20000 42 \\
           --dir lat2cyr --x-min 4 --x-max 4 --y-min 3 --y-max 3
"""

import argparse
import hashlib
import json
import sys

from uztranslit.alphabets import _data_path, bundled_mapping_table, parse_direction
from uztranslit.featurizer import WindowSpec
from uztranslit.gencorpus import gen_corpus
from uztranslit.pipeline import (
    Corpus,
    SplitConfig,
    load_corpus,
    split_corpus,
    train_direction,
    transliterate_word,
)

# Pass-through, mixed and empty input, appended to the held-out words.
EXTRA_WORDS = ["qo'l-2x!", "w@ena", "ñandu", "123", "§12-бола!", ""]


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, ensure_ascii=False).encode("utf-8")).hexdigest()


def corpus_parts(corpus: str) -> tuple[Corpus, Corpus]:
    """The training part and the held-out words of ``corpus``
    (``lexicon`` or ``synthetic:SIZE:SEED``)."""
    if corpus == "lexicon":
        source = load_corpus(_data_path("lexicon.tsv"))
    else:
        kind, size, seed = corpus.split(":")
        if kind != "synthetic":
            raise ValueError(f"unknown corpus {corpus!r}")
        source = gen_corpus(int(size), int(seed))
    train_part, validation_part, test_part = split_corpus(
        source, SplitConfig(0.70, 0.15, 0.15, seed=42)
    )
    return train_part, Corpus(validation_part.pairs + test_part.pairs)


def digest_line(corpus: str, parts, name: str, x: int, y: int) -> str:
    """``corpus name x y tree-sha outputs-sha`` for the model trained on
    ``parts`` (from corpus_parts) in direction ``name`` at window (x, y)."""
    train_part, heldout = parts
    table = bundled_mapping_table(parse_direction(name))
    words = [word for word, _ in heldout.oriented(table.direction)] + EXTRA_WORDS
    model = train_direction(train_part, WindowSpec(x, y), table)
    outputs = [transliterate_word(model, word) for word in words]
    return f"{corpus} {name} {x} {y} {_sha256(model.trees)} {_sha256(outputs)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--synthetic", nargs=2, type=int, metavar=("SIZE", "SEED"))
    source.add_argument("--lexicon", action="store_true")
    parser.add_argument(
        "--dir", action="append", choices=("cyr2lat", "lat2cyr"),
        help="repeatable (default: both directions)",
    )
    parser.add_argument("--x-min", type=int, default=0)
    parser.add_argument("--x-max", type=int, default=4)
    parser.add_argument("--y-min", type=int, default=0)
    parser.add_argument("--y-max", type=int, default=4)
    args = parser.parse_args(argv)

    corpus = "lexicon" if args.lexicon else "synthetic:{}:{}".format(*args.synthetic)
    parts = corpus_parts(corpus)
    for name in args.dir or ("cyr2lat", "lat2cyr"):
        for x in range(args.x_min, args.x_max + 1):
            for y in range(args.y_min, args.y_max + 1):
                print(digest_line(corpus, parts, name, x, y), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
