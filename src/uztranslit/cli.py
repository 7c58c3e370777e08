"""Command-line entry point for the transliteration pipeline.

Exit codes: 0 success, 1 usage error (bad flags, missing files),
2 data error (unparseable tables/corpora/models, a table of the other
direction, corpora the table cannot align at all). All output files
are written atomically: a temp file in the target directory is renamed
over the destination, so an interrupted grid search never leaves a
half-written model behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import dtree, gencorpus, pipeline
from .alphabets import (
    TableParseError,
    bundled_mapping_table,
    load_mapping_table,
    normalize_word,
    parse_direction,
)
from .aligner import align_corpus, format_failure_report
from .featurizer import WindowSpec
from .pipeline import AllPairsUnalignableError, SplitConfig

USAGE_ERROR = 1
DATA_ERROR = 2


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract
    # reserves 2 for data errors, so route usage problems through 1.
    def error(self, message):
        raise UsageError(message)


def atomic_write(path, data) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(data, bytes) else "w"
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-translit-")
    try:
        # mkstemp creates the file 0600; give it the mode open(path, "w") would
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, mode, encoding=None if isinstance(data, bytes) else "utf-8") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _require_file(path) -> None:
    if not os.path.exists(path):
        raise UsageError(f"file not found: {path}")


def _direction(text):
    try:
        return parse_direction(text)
    except ValueError as err:
        raise UsageError(str(err))


def _window(args) -> WindowSpec:
    try:
        return WindowSpec(x=args.x, y=args.y)
    except ValueError as err:
        raise UsageError(str(err))


def _load_table(args, direction):
    if not args.table:
        return bundled_mapping_table(direction)
    _require_file(args.table)
    table = load_mapping_table(args.table)  # direction inferred from the keys
    if table.direction != direction:
        raise DataError(
            f"{args.table} maps {'->'.join(table.direction)}, not {'->'.join(direction)}"
        )
    return table


def _load_corpus(args):
    _require_file(args.corpus)
    return pipeline.load_corpus(args.corpus)


def _emit(text: str, out_path) -> None:
    if out_path:
        atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_align(args) -> int:
    direction = _direction(args.dir)
    table = _load_table(args, direction)
    corpus = _load_corpus(args)
    alignments, failures = align_corpus(corpus.oriented(direction), table)
    lines = []
    for pair in alignments:
        segments = "|".join(seg if seg else "∅" for seg in pair.target_segments)
        lines.append(f"{pair.source}\t{pair.target}\t{segments}\n")
    _emit("".join(lines), args.out)
    if failures:
        report = format_failure_report(failures)
        if args.failures:
            atomic_write(args.failures, report)
        else:
            sys.stderr.write(report)
    print(
        f"aligned {len(alignments)} of {len(corpus.pairs)} pairs"
        f" ({len(failures)} failures)",
        file=sys.stderr,
    )
    if corpus.pairs and not alignments:
        raise DataError("no pair could be aligned; the mapping table does not cover this corpus")
    return 0


def cmd_train(args) -> int:
    direction = _direction(args.dir)
    window = _window(args)
    table = _load_table(args, direction)
    corpus = _load_corpus(args)
    try:
        model = pipeline.train_direction(corpus, window, table)
    except AllPairsUnalignableError as err:
        raise DataError(str(err))
    payload = dtree.serialize(model)
    atomic_write(args.out, payload)
    depth = dtree.tree_depth(model.nodes)
    print(
        f"trained {args.dir} model on {len(corpus.pairs)} pairs"
        f" (window x={args.x} y={args.y}, tree depth {depth});"
        f" wrote {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_transliterate(args) -> int:
    _require_file(args.model)
    model = dtree.load_model(args.model)
    for raw in args.word:
        # Case is kept here so its pattern can be restored on output.
        shaped = normalize_word(raw, fold_case=False)
        lowered = shaped.lower()
        result = pipeline.transliterate_word(model, lowered)
        print(pipeline.apply_case_pattern(shaped, result))
    return 0


def cmd_evaluate(args) -> int:
    _require_file(args.model)
    model = dtree.load_model(args.model)
    corpus = _load_corpus(args)
    report = pipeline.evaluate(model, corpus, model.table)
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2) + "\n"
    else:
        text = report.to_tsv()
    _emit(text, args.out)
    return 0


def cmd_grid_search(args) -> int:
    direction = _direction(args.dir)
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
        if len(fractions) != 3:
            raise ValueError("--fractions wants train,validation,test")
        config = SplitConfig(*fractions, seed=args.seed)
        WindowSpec(x=args.x_min, y=args.y_min)
        WindowSpec(x=args.x_max, y=args.y_max)
        if args.x_min > args.x_max or args.y_min > args.y_max:
            raise ValueError(
                f"empty window range: x {args.x_min}..{args.x_max}, y {args.y_min}..{args.y_max}"
            )
    except ValueError as err:
        raise UsageError(str(err))
    table = _load_table(args, direction)
    corpus = _load_corpus(args)
    train_part, val_part, test_part = pipeline.split_corpus(corpus, config)
    try:
        model, cells = pipeline.grid_search(
            train_part,
            val_part,
            table,
            x_values=range(args.x_min, args.x_max + 1),
            y_values=range(args.y_min, args.y_max + 1),
        )
    except AllPairsUnalignableError as err:
        raise DataError(str(err))
    grid_text = pipeline.format_grid_tsv(cells)
    if args.out:
        atomic_write(args.out, grid_text)
    else:
        sys.stdout.write(grid_text)
    best_f1 = max(c.validation_f1 for c in cells)
    best = model.window
    print(f"best window: x={best.x} y={best.y} (validation F1 {best_f1:.6f})", file=sys.stderr)
    if args.best_model:
        atomic_write(args.best_model, dtree.serialize(model))
        test_report = pipeline.evaluate(model, test_part, table)
        print(
            f"test F1 {test_report.char_f1:.6f}, word accuracy {test_report.word_accuracy:.6f};"
            f" wrote {args.best_model}",
            file=sys.stderr,
        )
    return 0


def cmd_gen_corpus(args) -> int:
    if args.size <= 0:
        raise UsageError("--size must be positive")
    corpus = gencorpus.gen_corpus(args.size, args.seed)
    lines = [f"# {corpus.provenance}\n"]
    lines += [f"{cyr}\t{lat}\n" for cyr, lat in corpus.pairs]
    _emit("".join(lines), args.out)
    return 0


def cmd_discover(args) -> int:
    direction = _direction(args.dir)
    table = _load_table(args, direction)
    corpus = _load_corpus(args)
    failures = align_corpus(corpus.oriented(direction), table)[1]
    _emit(format_failure_report(failures), args.out)
    print(f"{len(failures)} uncovered pairs", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="translit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("align", cmd_align, help="align a corpus under a mapping table")
    p.add_argument("--dir", required=True, help="cyr2lat or lat2cyr")
    p.add_argument("--corpus", required=True)
    p.add_argument("--table", help="mapping table file (default: bundled)")
    p.add_argument("--out", help="alignment TSV (default: stdout)")
    p.add_argument("--failures", help="failure report path (default: stderr)")

    p = add("train", cmd_train, help="train a transliteration model")
    p.add_argument("--dir", required=True)
    p.add_argument("-x", type=int, default=2, help="preceding characters (default 2)")
    p.add_argument("-y", type=int, default=3, help="subsequent characters (default 3)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--table")
    p.add_argument("--out", required=True, help="model JSON path")

    p = add("transliterate", cmd_transliterate, help="transliterate words")
    p.add_argument("--model", required=True)
    p.add_argument("--word", action="append", required=True, help="repeatable")

    p = add("evaluate", cmd_evaluate, help="score a model on a held-out corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--out")

    p = add("grid-search", cmd_grid_search, help="search window sizes on a split")
    p.add_argument("--dir", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--table")
    p.add_argument("--x-min", type=int, default=0)
    p.add_argument("--x-max", type=int, default=10)
    p.add_argument("--y-min", type=int, default=0)
    p.add_argument("--y-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--fractions", default="0.7,0.15,0.15")
    p.add_argument("--out", help="grid TSV path (default: stdout)")
    p.add_argument("--best-model", help="also save the best cell's model")

    p = add("gen-corpus", cmd_gen_corpus, help="generate a synthetic rule corpus")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")

    p = add("discover", cmd_discover, help="report pairs the table cannot align")
    p.add_argument("--dir", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--table")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, TableParseError, dtree.ModelFormatError, DataError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return DATA_ERROR
    except OSError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR


def console_main() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    console_main()
