#!/usr/bin/env python3
"""Print one line per grid cell: direction, x, y, the SHA-256 of the
tree trained at that window (its node list as JSON) and the SHA-256 of
that model's transliterations (the list of ``transliterate_word``
outputs as JSON).

The models are trained on the 70% part of the 70/15/15 seed-42 split of
a synthetic corpus (``--synthetic SIZE SEED``) or of the bundled lexicon
(``--lexicon``). They transliterate the source words of the held-out
30% and a few words with characters outside the table, and the empty
word. Two checkouts that print the same lines train identical trees and
transliterate identically, which is the gate for refactoring the trainer
or the read path. Only the nodes are hashed, so the gate holds across
file format changes that keep the tree (format 3 added the table,
format 4 dropped the direction).

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    corpus = parser.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--synthetic", nargs=2, type=int, metavar=("SIZE", "SEED"))
    corpus.add_argument("--lexicon", action="store_true")
    parser.add_argument(
        "--dir", action="append", choices=("cyr2lat", "lat2cyr"),
        help="repeatable (default: both directions)",
    )
    parser.add_argument("--x-min", type=int, default=0)
    parser.add_argument("--x-max", type=int, default=4)
    parser.add_argument("--y-min", type=int, default=0)
    parser.add_argument("--y-max", type=int, default=4)
    args = parser.parse_args(argv)

    if args.lexicon:
        source = load_corpus(_data_path("lexicon.tsv"))
    else:
        source = gen_corpus(*args.synthetic)
    train_part, validation_part, test_part = split_corpus(
        source, SplitConfig(0.70, 0.15, 0.15, seed=42)
    )
    heldout = Corpus(validation_part.pairs + test_part.pairs)
    for name in args.dir or ("cyr2lat", "lat2cyr"):
        table = bundled_mapping_table(parse_direction(name))
        words = [word for word, _ in heldout.oriented(table.direction)] + EXTRA_WORDS
        for x in range(args.x_min, args.x_max + 1):
            for y in range(args.y_min, args.y_max + 1):
                model = train_direction(train_part, WindowSpec(x, y), table)
                outputs = [transliterate_word(model, word) for word in words]
                print(f"{name} {x} {y} {_sha256(model.nodes)} {_sha256(outputs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
