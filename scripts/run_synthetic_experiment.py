#!/usr/bin/env python3
"""End-to-end experiment on the synthetic rule corpus.

Generates a corpus, splits it 70/15/15, grid-searches the context
window in both directions, scores on the test split the model each
search trained for its best window, and checks the round trip. With
default settings this takes a couple of minutes and should end with
validation and test F1 at or near 1.0 and a perfect round trip;
anything less points at a regression in the aligner, featurizer, or
tree.

Usage: python scripts/run_synthetic_experiment.py [--size 5000] [--seed 42]
       [--max-window 4]
"""

import argparse
import sys
import time

from uztranslit.alphabets import CYR2LAT, LAT2CYR, bundled_mapping_table
from uztranslit.gencorpus import gen_corpus
from uztranslit.pipeline import (
    SplitConfig,
    evaluate,
    grid_search,
    round_trip_check,
    split_corpus,
)


def run_direction(name, direction, parts, max_window):
    table = bundled_mapping_table(direction)
    train_part, val_part, test_part = parts
    started = time.monotonic()
    model, cells = grid_search(
        train_part,
        val_part,
        table,
        x_values=range(0, max_window + 1),
        y_values=range(0, max_window + 1),
    )
    elapsed = time.monotonic() - started
    best = model.window
    print(f"\n== {name} ==")
    print("x\ty\tvalidation_f1")
    for cell in cells:
        marker = "  <- best" if (cell.x, cell.y) == (best.x, best.y) else ""
        print(f"{cell.x}\t{cell.y}\t{cell.validation_f1:.6f}{marker}")
    report = evaluate(model, test_part, table)
    print(
        f"best window x={best.x} y={best.y}; test F1 {report.char_f1:.6f},"
        f" word accuracy {report.word_accuracy:.6f} ({elapsed:.1f}s)"
    )
    if report.errors[:5]:
        print("sample errors:", report.errors[:5])
    return model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-window", type=int, default=4)
    args = parser.parse_args(argv)

    corpus = gen_corpus(args.size, args.seed)
    print(f"corpus: {corpus.provenance}")
    parts = split_corpus(corpus, SplitConfig(0.70, 0.15, 0.15, seed=args.seed))
    print("split sizes:", [len(p.pairs) for p in parts])

    forward = run_direction("cyrillic -> latin", CYR2LAT, parts, args.max_window)
    backward = run_direction("latin -> cyrillic", LAT2CYR, parts, args.max_window)

    words = [cyr for cyr, _ in corpus.pairs]
    trip = round_trip_check(forward, backward, words)
    print(f"\nround trip over {len(words)} words: {trip.fraction:.4f}")
    for word, fwd, back in trip.failures[:10]:
        print(f"  {word} -> {fwd} -> {back}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
