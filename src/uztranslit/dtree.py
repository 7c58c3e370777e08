"""From-scratch decision trees over categorical character features.

A model is one tree per key of its mapping table, grown on the samples
whose focus character is that key. The paper grows one tree over every
character; a tree per key never has to separate one focus letter from
the others, which makes growth cheaper, and its leaves carry only
segments that key was aligned to, which the table licenses. A key
training never saw gets the one-leaf tree ``[[first candidate, {}]]``,
whose empty counts say that no sample backs it.

Nodes test equality of one window position against one symbol; the
split chosen at each node is the one with the greatest Gini impurity
decrease, evaluated exhaustively over every (position, symbol) pair
present in the node's data. Growth is unbounded: a node stops only when
pure or indivisible because all its feature vectors are identical. An
impure node whose best split decreases impurity by zero is still split
(XOR-shaped label patterns need this, as in an unlimited-depth CART),
which guarantees a pure fit on conflict-free data. Ties go to the lowest
position, then the lowest symbol. A key's samples share their focus
symbol, so no split on the focus position can leave both children
non-empty, and no tree tests it. Equality tests do not depend on a
character ordering, unlike numeric thresholds over some encoding.

A tree grows from its key's samples (``featurizer.Samples``): per
label, a list of rows, each one sample's window as a ``str`` of symbol
codes. Codes follow symbol order, so the grower splits, counts and
breaks ties on codes, and each test symbol is decoded through
``Samples.symbols`` as its node is emitted. Every open node owns its
samples as such a label -> rows map. A split hands a label the
eq side holds all or none of to that child as it is and cuts a mixed
one in two with ``compress``; the rows are only read. Each split is
checked to leave both children non-empty, so a tree on n samples has at
most n - 1 splits whatever the histograms say.

Growth never rescans a node's rows to score it. Besides its rows, each
open node carries only its histograms: per window position other than
the focus position x, label -> ``Counter``. Every row of a key holds the
key at x, so x is never counted, subtracted or scored. Nor, once a node
is scored, is a position where all its rows hold one symbol: that can
split neither the node nor any node under it, so scoring deletes it from
the histograms the children inherit. Scoring a position sums the
histograms per symbol over the node's labels l, with c_l the symbol's
count in l and N_l the count of l, into n_eq = sum c_l, sq_eq = sum
c_l^2 and cross = sum c_l * N_l, which are all a split's score needs.

One counter and one split step make every histogram. The counter,
``_label_hists``, counts a label a column at a time: its rows joined in
one ``str``, and a column a strided slice of it, so counting makes no
call per cell and no object per row. A root counts all its labels with
it. The split step, ``_split``, walks the node's labels once; a label
one child takes whole goes to it with its histograms, and of the
smaller child only the labels the split cut are counted. The larger
child is the parent minus the smaller (histogram subtraction, as in
LightGBM, Ke et al. 2017): the parent's histograms, shrunk in place by a
loop over the smaller child's counts that deletes each symbol reaching
zero, so every symbol left in a histogram occurs in its rows. Every
score comes from the same integer counts through the same float
expression in the same candidate order, so the trees are bit-identical
to those of a grower that rebuilds every node's histograms over every
position, and depend only on the multiset of samples.

A tree is one flat list of nodes, the same in memory and on disk. An
internal node is ``[f, s, eq, ne]``: window position ``f`` is tested
for equality with symbol ``s``, and ``eq``/``ne`` are the list indices
of the children taken when the test passes or fails. A leaf is
``[label, counts]``, its majority label and label histogram. The list
is in pre-order with the eq subtree first, so the root is node 0, every
child index is greater than its parent's, walking and validating are
plain loops, and JSON nesting stays shallow however deep the tree.

A model file (format 5) holds the mapping table, whose keys fix the
model's direction, and ``trees``, one node list per key. Loading checks
the table as a table file is checked and then constructs the model as
training does. Every model, trained, loaded or assembled, checks its
trees when it is constructed: exactly one per key, each well formed,
none testing the focus position, every leaf label and every key of a
leaf's counts under key ``ch`` in ``table.candidates(ch)``, and no test
symbol holding a lone surrogate. So every model predicts only licensed
segments, and every model serializes.

Prediction walks compiled switches, not node lists. A run of ne tests on
one position is one multiway categorical split, as in C4.5 (Quinlan,
1993) and in compiled trees such as Treelite's (Cho & Li, 2018). The
pass that checks a tree, in reverse list order, compiles it into nested
``(f, {symbol: child}, default)`` switches whose leaves are labels.
``predict`` takes a whole padded word (``featurizer.window_features``),
reads the window at ``i`` in place as ``features[i + f]``, and starts it
at its focus symbol's switches; a focus symbol that is no key (a digit,
punctuation, the other script) labels itself. ``count_correct`` walks
the same switches over labelled samples extracted at a window that holds
the model's, reading and decoding ``row[skip + f]``: a grid search
scores every cell on one extraction of its validation words. On the
README-default models trained on the lexicon's 70% seed-42 split, over
the words of ``gen_corpus(20000, 42)``, a character takes 1.27 dict
lookups (cyr2lat) and 2.78 (lat2cyr), the focus lookup included.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter, not_

from .alphabets import LONE_SURROGATE, Direction, MappingTable
from .featurizer import Samples, WindowSpec

FORMAT_VERSION = 5


class StalledSplitError(RuntimeError):
    """A split left one child empty: the grower's counts are wrong."""


class ModelFormatError(ValueError):
    """A model breaks a model rule: its file is corrupt or of another
    format version, or ``train`` grew a tree from labels the table does
    not license."""


@dataclass
class TranslitModel:
    trees: dict[str, list[list]]  # table key -> its tree's node list
    window: WindowSpec
    table: MappingTable
    # table key -> its tree compiled for predict; never serialized
    switches: dict = field(init=False, repr=False, compare=False)

    @property
    def direction(self) -> Direction:
        return self.table.direction

    def __post_init__(self):
        """Check every tree against the window and table and compile it
        (see _compile): a model is valid however it was made."""
        if not isinstance(self.trees, dict):
            raise ModelFormatError("model trees are not an object")
        keys = self.table.entries.keys()
        if self.trees.keys() != keys:
            raise ModelFormatError(
                f"model trees are not one per table key: {sorted(self.trees.keys() ^ keys)}"
            )
        self.switches = {}
        for key, candidates in self.table.entries.items():
            try:
                self.switches[key] = _compile(self.trees[key], self.window, frozenset(candidates))
            except ModelFormatError as err:
                raise ModelFormatError(f"tree of {key!r}: {err}") from err


def _majority_label(class_counts: dict[str, int]) -> str:
    best_count = max(class_counts.values())
    return min(label for label, count in class_counts.items() if count == best_count)


def _label_hists(blocks, positions) -> dict:
    """Per position of ``positions``, in their order, label -> Counter of
    that label's rows at it, counted a column at a time. A column is a
    strided slice of the label's rows joined into one ``str``, which makes
    no object per row."""
    hists = {p: {} for p in positions}
    for label, rows in blocks.items():
        cells = "".join(rows)
        width = len(rows[0])
        for p, per_label in hists.items():
            per_label[label] = Counter(cells[p::width])
    return hists


def _split(blocks, hists, p, code, n):
    """The eq and ne children of a node split on ``row[p] == code``,
    each a (label -> rows, histograms) pair, given the node's label ->
    rows map, its histograms and its sample count ``n``.

    One walk over the labels builds both children: a label one side
    holds all of goes to that child as it is, and a label the split cuts
    is cut in two with ``compress``, keeping row order. StalledSplitError
    unless both children hold samples, counted from the rows. Of the
    smaller child only the cut labels are counted; a label it takes whole
    brings its histograms from the node. The node's histograms become
    the larger child's in place: the cut counts are taken away symbol by
    symbol, deleting each symbol that reaches zero, so every symbol left
    in a histogram occurs in its rows."""
    # ne, eq: label -> rows, and the same of the labels the split cuts
    children, cut = ({}, {}), ({}, {})
    for label, rows in blocks.items():
        n_eq = hists[p][label][code]
        if n_eq == 0 or n_eq == len(rows):
            children[n_eq > 0][label] = rows
        else:
            is_eq = list(map(code.__eq__, map(itemgetter(p), rows)))
            children[1][label] = cut[1][label] = list(compress(rows, is_eq))
            children[0][label] = cut[0][label] = list(compress(rows, map(not_, is_eq)))
    # Counted from the rows, not the histograms, so that each split
    # provably shrinks both children.
    n_eq = sum(map(len, children[1].values()))
    if not 0 < n_eq < n:
        raise StalledSplitError(
            f"split on position {p} = code {ord(code)} sends {n_eq} of {n} samples to eq"
        )
    small = 2 * n_eq <= n  # index of the smaller child: 1 (eq) or 0 (ne)
    small_hists = _label_hists(cut[small], hists)
    for q, small_per_label in small_hists.items():
        per_label = hists[q]
        for label, hist in small_per_label.items():
            left = per_label[label]
            for symbol, c in hist.items():
                if left[symbol] == c:
                    del left[symbol]
                else:
                    left[symbol] -= c
        for label in children[small]:
            if label not in small_per_label:
                small_per_label[label] = per_label.pop(label)
    eq_hists, ne_hists = (small_hists, hists) if small else (hists, small_hists)
    return (children[1], eq_hists), (children[0], ne_hists)


def _best_split(hists, counts, n):
    """Exhaustively score every equality split on a position the node's
    histograms cover, against each symbol present there.

    A position at which every sample carries one symbol cannot split the
    node or any node below it, so it is deleted from ``hists``, and
    neither child counts, subtracts or scores it again. Returns
    (position, symbol), or None when no position is left. A zero
    impurity decrease does not stop growth; the split decrease is never
    negative, so any valid split is taken when nothing better exists.
    Candidates are scanned position ascending, symbol ascending, and
    only a strictly better decrease replaces the incumbent, which
    implements the tie-break.
    """
    sq = sum(c * c for c in counts.values())
    parent_gini = 1.0 - sq / (n * n)
    best_decrease = -1.0
    best = None
    constant = []
    for p, per_label in hists.items():
        # Per symbol, over the node's labels l, with c the symbol's count
        # in l and N_l the count of l: [n_eq, sq_eq, cross], the sums of
        # c, c * c and c * N_l.
        per_symbol: dict = {}
        for label, hist in per_label.items():
            n_l = counts[label]
            for symbol, c in hist.items():
                total = per_symbol.get(symbol)
                if total is None:
                    per_symbol[symbol] = [c, c * c, c * n_l]
                else:
                    total[0] += c
                    total[1] += c * c
                    total[2] += c * n_l
        if len(per_symbol) == 1:
            constant.append(p)
            continue
        for symbol in sorted(per_symbol):
            n_eq, sq_eq, cross = per_symbol[symbol]
            n_ne = n - n_eq
            # sum((N_l - c_l) ** 2) over the node's labels, expanded into
            # the sums above; the integers are exact, so the floats below
            # are those of the direct sum
            sq_ne = sq - 2 * cross + sq_eq
            weighted = (n_eq - sq_eq / n_eq + n_ne - sq_ne / n_ne) / n
            decrease = parent_gini - weighted
            if decrease > best_decrease:
                best_decrease = decrease
                best = (p, symbol)
    for p in constant:
        del hists[p]
    return best


def _grow(blocks, positions, symbols) -> list[list]:
    """The node list of the tree grown on a label -> coded rows map, whose
    splits test only the window positions ``positions``, ascending, each
    test symbol decoded as ``symbols[ord(code)]``."""
    # Iterative with an explicit stack; equality-split chains get deep
    # enough to threaten the interpreter recursion limit. The stack pops
    # nodes in pre-order, eq subtree first, which is the list order.
    nodes: list[list] = []
    # Each entry names the parent node and the slot that receives the
    # entry's index once it is appended, then the node's label -> rows map
    # and its histograms; a root of one label, which is a leaf, has none.
    stack = [(None, 0, blocks, _label_hists(blocks, positions) if len(blocks) > 1 else None)]
    while stack:
        parent, slot, blocks, hists = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        counts = {label: len(rows) for label, rows in blocks.items()}
        n = sum(counts.values())
        split = _best_split(hists, counts, n) if len(counts) > 1 else None
        if split is None:
            nodes.append([_majority_label(counts), counts])
            continue
        p, code = split
        node = [p, symbols[ord(code)], 0, 0]
        nodes.append(node)
        eq, ne = _split(blocks, hists, p, code, n)
        stack += [(node, 3, *ne), (node, 2, *eq)]
    return nodes


def train(samples: Samples, table: MappingTable) -> TranslitModel:
    """Grow one unbounded-depth tree per table key on that key's samples,
    at their window. A key without samples gets the one-leaf tree
    ``[[first candidate, {}]]``: the empty counts mark a key training
    never saw. Each tree depends on its key's samples, not on their
    order, and ``samples`` is left as it is.

    ValueError unless there are samples, every label has rows and every
    focus is a table key, whose tree would otherwise be dropped. Whether
    the table licenses each label is checked by the model, as for every
    model (ModelFormatError): each label ends up in some leaf's counts.
    Rows are taken as ``featurizer`` makes them, each ``window.width``
    long with its focus at ``x``, and are not checked again."""
    window = samples.window
    if not samples.blocks or not all(
        labels and all(labels.values()) for labels in samples.blocks.values()
    ):
        raise ValueError("cannot train on an empty sample list")
    unknown = samples.blocks.keys() - table.entries.keys()
    if unknown:
        raise ValueError(f"sample foci {sorted(unknown)} are not table keys")
    # Every row of a key holds that key at x, so no split can test x.
    positions = [p for p in range(window.width) if p != window.x]
    trees = {
        key: (
            _grow(samples.blocks[key], positions, samples.symbols)
            if key in samples.blocks
            else [[candidates[0], {}]]
        )
        for key, candidates in table.entries.items()
    }
    return TranslitModel(trees=trees, window=window, table=table)


def predict(model: TranslitModel, features) -> list[str]:
    """The label of every ``width``-long window of ``features``, in
    order: one label for a single window, none for the ``width - 1``
    symbols of a padded empty word. A window whose focus symbol is a
    table key walks that key's tree, in which symbols never seen in
    training fail every equality test and follow the false branch; any
    other focus symbol labels itself."""
    width = model.window.width
    if len(features) < width - 1:
        raise ValueError(f"feature length {len(features)} < model width {width} - 1")
    start = model.switches.get
    x = model.window.x
    labels = []
    for i in range(len(features) - width + 1):
        focus = features[i + x]
        node = start(focus, focus)
        while type(node) is tuple:
            f, cases, default = node
            node = cases.get(features[i + f], default)
        labels.append(node)
    return labels


def count_correct(model: TranslitModel, gold: Samples) -> int:
    """How many of ``gold``'s samples ``model`` gives their label, as
    ``predict`` labels each window. ``gold``'s window must hold the
    model's: its rows are read in place, position ``f`` of the model's
    window as ``row[skip + f]`` with ``skip`` its offset there, so a
    wider extraction serves every smaller window unsliced, and each code
    decoded through ``gold.symbols``: the switches test symbols, and a
    symbol the model never saw fails every test."""
    skip = model.window.offset_in(gold.window)
    start = model.switches.get
    symbols = gold.symbols
    correct = 0
    for focus, labels in gold.blocks.items():
        root = start(focus, focus)
        for label, rows in labels.items():
            for row in rows:
                node = root
                while type(node) is tuple:
                    f, cases, default = node
                    node = cases.get(symbols[ord(row[skip + f])], default)
                correct += node == label
    return correct


def tree_depth(nodes: list[list]) -> int:
    """Nodes on the longest root-to-leaf path. Children point forward, so
    one pass in list order sees every parent before its children."""
    depth = [1] * len(nodes)
    for i, node in enumerate(nodes):
        if len(node) == 4:
            for child in node[2:]:
                depth[child] = max(depth[child], depth[i] + 1)
    return max(depth)


def _compile(nodes, window: WindowSpec, candidates):
    """Check a tree's node list and turn it into nested switches, in one
    pass in reverse list order, which compiles every child before its
    parent. ModelFormatError unless ``nodes`` is a non-empty list of
    well-formed nodes forming one tree rooted at node 0: child indices
    point forward and in range, which makes every walk end at a leaf, and
    every other node is the child of exactly one node. No node tests the
    focus position ``x``, no test symbol holds a lone surrogate, every
    leaf label and every key of its counts is one of ``candidates``, and
    leaf counts are positive, except that a tree of one leaf may have
    none: the tree of a key training never saw.

    A leaf becomes its label; each maximal ne chain that tests one
    position f becomes ``(f, {symbol: eq child}, default)``, where the
    default is the chain's last ne child. A node whose ne child compiled
    to a switch on the same position joins it in place, which is safe
    because its ne child has no other parent; its own symbol is written
    last, so on a symbol the chain tests twice the earlier test wins, as
    in the binary walk."""
    if not isinstance(nodes, list) or not nodes:
        raise ModelFormatError("tree has no nodes")
    n = len(nodes)
    has_parent = bytearray(n)
    compiled: list = [None] * n
    for i in range(n - 1, -1, -1):
        node = nodes[i]
        if not isinstance(node, list) or len(node) not in (2, 4):
            raise ModelFormatError(f"node {i} is not a 2- or 4-element list")
        if len(node) == 2:
            label, counts = node
            if not isinstance(label, str) or label not in candidates:
                raise ModelFormatError(f"node {i}: leaf label {label!r} is not a table candidate")
            # JSON object keys are always strings; only the counts vary.
            if not isinstance(counts, dict) or not (counts or n == 1) or not all(
                type(c) is int and c > 0 for c in counts.values()
            ):
                raise ModelFormatError(f"node {i}: leaf counts are not positive ints")
            if not counts.keys() <= candidates:
                raise ModelFormatError(f"node {i}: leaf counts are not keyed by table candidates")
            compiled[i] = label
            continue
        f, s, eq, ne = node
        if type(f) is not int or not 0 <= f < window.width:
            raise ModelFormatError(
                f"node {i}: feature index {f!r} outside window width {window.width}"
            )
        if f == window.x:
            raise ModelFormatError(f"node {i} tests the focus position {f}")
        if not isinstance(s, str):
            raise ModelFormatError(f"node {i}: test symbol is not a string")
        if LONE_SURROGATE.search(s):
            raise ModelFormatError(f"node {i}: test symbol {s!r} holds a lone surrogate")
        for child in (eq, ne):
            if type(child) is not int or not i < child < n:
                raise ModelFormatError(f"node {i}: child index is not an int in ({i}, {n})")
            if has_parent[child]:
                raise ModelFormatError(f"node {child} has more than one parent")
            has_parent[child] = 1
        rest = compiled[ne]
        if type(rest) is tuple and rest[0] == f:
            rest[1][s] = compiled[eq]
            compiled[i] = rest
        else:
            compiled[i] = (f, {s: compiled[eq]}, rest)
    orphans = n - 1 - sum(has_parent)
    if orphans:
        raise ModelFormatError(f"{orphans} nodes besides node 0 have no parent")
    return compiled[0]


def serialize(model: TranslitModel) -> bytes:
    """Versioned JSON; PAD appears as the literal string "∅-PAD"."""
    obj = {
        "format_version": FORMAT_VERSION,
        "window": {"x": model.window.x, "y": model.window.y},
        "table": model.table.entries,
        "trees": model.trees,
    }
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8")


def deserialize(data: bytes) -> TranslitModel:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ModelFormatError(f"model file is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ModelFormatError("model file is nested too deeply") from err
    if not isinstance(obj, dict):
        raise ModelFormatError("model file is not a JSON object")
    version = obj.get("format_version")
    if not isinstance(version, int) or version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {version!r}; this build reads"
            f" {FORMAT_VERSION}, so retrain the model"
        )
    try:
        x, y = obj["window"]["x"], obj["window"]["y"]
        rows = obj["table"]
        trees = obj["trees"]
    except (KeyError, TypeError) as err:
        raise ModelFormatError(f"model file missing fields: {err}") from err
    try:
        window, table = WindowSpec(x=x, y=y), MappingTable(rows)
    except ValueError as err:
        raise ModelFormatError(f"model file: {err}") from err
    return TranslitModel(trees=trees, window=window, table=table)


def load_model(path) -> TranslitModel:
    with open(path, "rb") as handle:
        return deserialize(handle.read())
