#!/usr/bin/env python3
"""Print one line per grid cell: direction, x, y and the SHA-256 of the
tree trained at that window (its node list as JSON).

The models are trained on the 70% part of the 70/15/15 seed-42 split of
a synthetic corpus (``--synthetic SIZE SEED``) or of the bundled lexicon
(``--lexicon``). Two checkouts that print the same lines train
identical trees, which is the gate for refactoring the trainer. Only the
nodes are hashed, so the gate holds across file format changes that
keep the tree (format 3 added the table, format 4 dropped the
direction).

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
from uztranslit.pipeline import SplitConfig, load_corpus, split_corpus, train_direction


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
    train_part, _, _ = split_corpus(source, SplitConfig(0.70, 0.15, 0.15, seed=42))
    for name in args.dir or ("cyr2lat", "lat2cyr"):
        table = bundled_mapping_table(parse_direction(name))
        for x in range(args.x_min, args.x_max + 1):
            for y in range(args.y_min, args.y_max + 1):
                model = train_direction(train_part, WindowSpec(x, y), table)
                tree = json.dumps(model.nodes, ensure_ascii=False).encode("utf-8")
                digest = hashlib.sha256(tree).hexdigest()
                print(f"{name} {x} {y} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
