"""Command-line entry point for the transliteration pipeline.

Exit codes: 0 success, 1 usage error (bad flags, any OSError such as a
missing file), 2 data error (any ValueError: unparseable
tables/corpora/models, a table of the other direction, corpora the
table cannot align at all). All output files are written atomically: a
temp file in the target directory is renamed over the destination, so
an interrupted grid search never leaves a half-written model behind.
A command that exits non-zero writes no ``--out`` file, and an output
path that is empty or cannot be written is a usage error before any
input is read. Its directory is ``os.path.dirname(path)``, which the
operating system resolves as the rename will, so ``m.json/``,
``missing/..`` and ``missing/../m.json`` are refused there too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import dtree, gencorpus, pipeline
from .alphabets import (
    EMPTY_MARK,
    bundled_mapping_table,
    load_mapping_table,
    normalize_word,
    parse_direction,
)
from .aligner import align_corpus, format_failure_report
from .featurizer import WindowSpec
from .pipeline import SplitConfig

USAGE_ERROR = 1
DATA_ERROR = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract
    # reserves 2 for data errors, so route usage problems through 1.
    def error(self, message):
        raise UsageError(message)


def atomic_write(path, data) -> None:
    directory = os.path.dirname(path) or os.curdir
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


def _output_path(path: str) -> str:
    """The argparse type of every output flag: ``path``, or a usage error
    naming it as given unless atomic_write can create it: it is not empty
    and no directory, and its directory exists and is writable. Flags are
    parsed before any input is read, so a bad output path fails at once
    rather than after a whole run."""
    if not path:
        raise UsageError("cannot write '': the path is empty")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory) or not os.access(directory, os.W_OK | os.X_OK):
        raise UsageError(f"cannot write {path}: no writable directory {directory}")
    return path


def _flag(parse, *values):
    """``parse(*values)``, with a ValueError turned into a usage error:
    the values came from flags."""
    try:
        return parse(*values)
    except ValueError as err:
        raise UsageError(str(err))


def _corpus(path, purpose: str) -> pipeline.Corpus:
    corpus = pipeline.load_corpus(path)
    if not corpus.pairs:
        raise ValueError(f"{path} has no usable pair to {purpose}")
    return corpus


def _inputs(args, purpose: str):
    """The mapping table of ``--dir`` (``--table``, or the bundled one)
    and the ``--corpus`` to ``purpose``; a data error when the table maps
    the other direction or the corpus has no usable pair."""
    direction = _flag(parse_direction, args.dir)
    if args.table:
        table = load_mapping_table(args.table)  # direction inferred from the keys
        if table.direction != direction:
            raise ValueError(
                f"{args.table} maps {'->'.join(table.direction)}, not {'->'.join(direction)}"
            )
    else:
        table = bundled_mapping_table(direction)
    return table, _corpus(args.corpus, purpose)


def _emit(text: str, out_path) -> None:
    if out_path:
        atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_align(args) -> int:
    table, corpus = _inputs(args, "align")
    alignments, failures = align_corpus(corpus.oriented(table.direction), table)
    report = format_failure_report(failures)
    if args.failures:
        atomic_write(args.failures, report)  # empty when every pair aligns
    else:
        sys.stderr.write(report)
    print(
        f"aligned {len(alignments)} of {len(corpus.pairs)} pairs"
        f" ({len(failures)} failures)",
        file=sys.stderr,
    )
    if not alignments:
        raise ValueError("no pair could be aligned; the mapping table does not cover this corpus")
    lines = []
    for pair in alignments:
        segments = "|".join(seg if seg else EMPTY_MARK for seg in pair.target_segments)
        lines.append(f"{pair.source}\t{pair.target}\t{segments}\n")
    _emit("".join(lines), args.out)
    return 0


def cmd_train(args) -> int:
    window = _flag(WindowSpec, args.x, args.y)
    table, corpus = _inputs(args, "train on")
    model = pipeline.train_direction(corpus, window, table)
    atomic_write(args.out, dtree.serialize(model))
    nodes = sum(map(len, model.trees.values()))
    depth = max(map(dtree.tree_depth, model.trees.values()))
    print(
        f"trained {args.dir} model on {len(corpus.pairs)} pairs"
        f" (window x={args.x} y={args.y}, {len(model.trees)} key trees,"
        f" {nodes} nodes, max depth {depth}); wrote {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_transliterate(args) -> int:
    model = dtree.load_model(args.model)
    for raw in args.word:
        # Case is kept here so its pattern can be restored on output.
        shaped = normalize_word(raw, fold_case=False)
        result = pipeline.transliterate_word(model, normalize_word(shaped))
        print(pipeline.apply_case_pattern(shaped, result))
    return 0


def cmd_evaluate(args) -> int:
    model = dtree.load_model(args.model)
    report = pipeline.evaluate(model, _corpus(args.corpus, "evaluate on"), model.table)
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2) + "\n"
    else:
        text = report.to_tsv()
    _emit(text, args.out)
    return 0


def cmd_grid_search(args) -> int:
    fractions = _flag(lambda text: [float(f) for f in text.split(",")], args.fractions)
    if len(fractions) != 3:
        raise UsageError("--fractions wants train,validation,test")
    config = _flag(SplitConfig, *fractions, args.seed)
    _flag(WindowSpec, args.x_min, args.y_min)
    _flag(WindowSpec, args.x_max, args.y_max)
    if args.x_min > args.x_max or args.y_min > args.y_max:
        raise UsageError(
            f"empty window range: x {args.x_min}..{args.x_max}, y {args.y_min}..{args.y_max}"
        )
    table, corpus = _inputs(args, "search on")
    train_part, val_part, test_part = pipeline.split_corpus(corpus, config)
    model, cells, varying = pipeline.grid_search(
        train_part,
        val_part,
        table,
        x_values=range(args.x_min, args.x_max + 1),
        y_values=range(args.y_min, args.y_max + 1),
    )
    best_f1 = max(c.validation_f1 for c in cells)
    best = model.window
    vary = f"{len(varying)} of {len(table.entries)} keys vary"
    if varying:
        vary += ": " + " ".join(varying)
    print(
        f"best window: x={best.x} y={best.y} (validation F1 {best_f1:.6f}; {vary})",
        file=sys.stderr,
    )
    if args.best_model:
        atomic_write(args.best_model, dtree.serialize(model))
        test_report = pipeline.evaluate(model, test_part, table)
        print(
            f"test F1 {test_report.char_f1:.6f}, word accuracy {test_report.word_accuracy:.6f};"
            f" wrote {args.best_model}",
            file=sys.stderr,
        )
    _emit(pipeline.format_grid_tsv(cells), args.out)
    return 0


def cmd_gen_corpus(args) -> int:
    corpus = _flag(gencorpus.gen_corpus, args.size, args.seed)
    _emit(pipeline.format_corpus(corpus), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="translit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # the flags of every command that reads a corpus under a mapping table
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--dir", required=True, help="cyr2lat or lat2cyr")
    inputs.add_argument("--corpus", required=True)
    inputs.add_argument("--table", help="mapping table file (default: bundled)")

    def add(name, func, *parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("align", cmd_align, inputs, help="align a corpus under a mapping table")
    p.add_argument("--out", type=_output_path, help="alignment TSV (default: stdout)")
    p.add_argument("--failures", type=_output_path, help="failure report path (default: stderr)")

    p = add("train", cmd_train, inputs, help="train a transliteration model")
    p.add_argument("-x", type=int, default=2, help="preceding characters (default 2)")
    p.add_argument("-y", type=int, default=3, help="subsequent characters (default 3)")
    p.add_argument("--out", type=_output_path, required=True, help="model JSON path")

    p = add("transliterate", cmd_transliterate, help="transliterate words")
    p.add_argument("--model", required=True)
    p.add_argument("--word", action="append", required=True, help="repeatable")

    p = add("evaluate", cmd_evaluate, help="score a model on a held-out corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--out", type=_output_path)

    p = add("grid-search", cmd_grid_search, inputs, help="search window sizes on a split")
    p.add_argument("--x-min", type=int, default=0)
    p.add_argument("--x-max", type=int, default=10)
    p.add_argument("--y-min", type=int, default=0)
    p.add_argument("--y-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--fractions", default="0.7,0.15,0.15")
    p.add_argument("--out", type=_output_path, help="grid TSV path (default: stdout)")
    p.add_argument("--best-model", type=_output_path, help="also save the best cell's model")

    p = add("gen-corpus", cmd_gen_corpus, help="generate a synthetic rule corpus")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", type=_output_path)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as err:
        print(f"data error: {err}", file=sys.stderr)
        return DATA_ERROR
    except OSError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR


def console_main() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    console_main()
