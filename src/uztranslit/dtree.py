"""From-scratch decision tree over categorical character features.

Nodes test equality of one window position against one symbol; the
split chosen at each node is the one with the greatest Gini impurity
decrease, evaluated exhaustively over every (position, symbol) pair
present in the node's data. Growth is unbounded: a node stops only when
pure, smaller than two samples, or indivisible because all its feature
vectors are identical. An impure node whose best split decreases
impurity by zero is still split (XOR-shaped label patterns need this;
it is also what an unlimited-depth CART does), which is what guarantees
a pure fit on conflict-free data. Ties are broken by lowest position,
then lowest symbol, so training is fully deterministic.

Unlike a numeric-threshold tree over some arbitrary character encoding,
equality tests do not depend on a character ordering; the learning task
is unchanged.

Training takes its samples label-major, as extraction lays them out
(``featurizer.Samples``): per label, a block of one column of symbols
per window position, which is what every histogram scans, and the
window the columns were cut at, which becomes the model's. Those blocks
are the root's, and every open node owns its samples as such a label ->
block map. A histogram is ``Counter(block[p])``, a C-level count of one
column rather than a gather of scattered indices. A split hands a block
the eq side holds all or none of to that child as it is and cuts a
mixed block in two with ``compress``; the input columns are only read.
Each split is checked to leave both children non-empty, so a tree on n
samples has at most n - 1 splits whatever the running totals say.

Growth never rescans a node to score it. Each open node carries, per
window position, a label -> ``Counter`` histogram of its blocks and, per
symbol, three running integer totals over the node's labels l, with
c_l the symbol's count in l and N_l the count of l: n_eq = sum c_l,
sq_eq = sum c_l^2 and cross = sum c_l * N_l. They are all a split's
score needs, so scoring a candidate reads three numbers. After a split
only the blocks the split cut in the smaller child are scanned; a block
it takes whole takes its histograms from the parent. The larger child
is the parent minus the smaller (histogram subtraction, as in LightGBM,
Ke et al. 2017), and its histograms and totals are the parent's,
updated in place by walking only the labels the smaller child holds.
Equality splits peel a small eq side off a long ne chain, so a tree
costs about two scans of its samples rather than one per level, and
most updates touch a label or two. Every score comes from the same integer counts through the
same float expression in the same candidate order, so the chosen
splits, and the serialized model, are bit-identical to those of a
grower that rebuilds every node's histograms. The tree depends only on
the multiset of samples, not on their order.

The tree is one flat list of nodes, the same in memory and on disk. An
internal node is ``[f, s, eq, ne]``: window position ``f`` is tested
for equality with symbol ``s``, and ``eq``/``ne`` are the list indices
of the children taken when the test passes or fails. A leaf is
``[label, counts]``, its majority label and label histogram. The list
is in pre-order with the eq subtree first, so the root is node 0 and
every child index is greater than its parent's. Walking and validating
the tree are therefore plain loops, and JSON nesting stays a few levels
deep however deep the tree grows.

A model carries the mapping table it was trained under (format 4): the
table's keys are the characters it classifies and fix its direction,
which is the model's. Loading builds the table through MappingTable's
checks.

Prediction does not walk that list. Equality splits make long ne chains
that test one position against one symbol after another, and such a
chain is one multiway categorical split, as in C4.5 (Quinlan, 1993) and
in compiled trees such as Treelite's (Cho & Li, 2018). On first use a
model compiles its list, in one reverse pass, into nested switches
``(f, {symbol: child}, default)`` whose leaves are labels, so a step is
one dict lookup. Every test of the focus position ``x`` can then be
decided before any window is seen, once per table key: ``by_focus``
maps each key to the switches with those tests resolved for it, a
subtree without such a test being shared rather than copied. A window
whose focus symbol is a key starts there, and any other window at the
root. The walk gives the binary walk's label for every file that loads.
On the README-default lexicon models over the words of
``gen_corpus(20000, 42)``, counting the focus lookup, it takes 1.30
lookups per character (cyr2lat, 76% of characters ending at the focus
lookup) and 3.50 (lat2cyr); the binary walk took 15.05 and 14.83
equality tests. The file and the trainer know nothing of the switches.

``predict`` takes a whole padded word (``featurizer.window_features``)
and labels every ``width``-long window of it in one call: the window
starting at ``i`` is read in place as ``features[i + f]``, so no window
tuple is built and the width is checked once per word, not once per
character.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .alphabets import Direction, MappingTable
from .featurizer import Samples, WindowSpec

FORMAT_VERSION = 4


class EmptyTrainingSetError(ValueError):
    pass


class InconsistentFeatureWidthError(ValueError):
    pass


class WidthMismatchError(ValueError):
    pass


class EmptyCountsError(ValueError):
    pass


class StalledSplitError(RuntimeError):
    """A split left one child empty: the grower's counts are wrong."""


class ModelFormatError(ValueError):
    """Model file is structurally corrupt."""


class ModelVersionError(ModelFormatError):
    """Model file was written by an unknown format version."""


@dataclass
class TranslitModel:
    nodes: list[list]  # [f, s, eq, ne] internals, [label, counts] leaves
    window: WindowSpec
    table: MappingTable

    @property
    def direction(self) -> Direction:
        return self.table.direction

    @cached_property
    def switches(self):
        """The tree compiled for predict (see _compile); built on first
        use and never serialized."""
        return _compile(self.nodes)

    @cached_property
    def by_focus(self) -> dict:
        """Table key -> ``switches`` with every test of the focus position
        resolved for that key (see _by_focus); built on first use and
        never serialized."""
        return _by_focus(self.switches, self.window.x, self.table.entries)

    @cached_property
    def keys(self) -> frozenset:
        """The table's keys: the characters the model classifies."""
        return frozenset(self.table.entries)


def gini(class_counts: dict[str, int]) -> float:
    """Gini impurity 1 - sum(p_c^2) of a label histogram."""
    total = sum(class_counts.values())
    if total <= 0:
        raise EmptyCountsError("gini of empty counts")
    sq = sum(c * c for c in class_counts.values())
    return 1.0 - sq / (total * total)


def _majority_label(class_counts: dict[str, int]) -> str:
    best_count = max(class_counts.values())
    return min(label for label, count in class_counts.items() if count == best_count)


def _label_hists(blocks) -> list[dict]:
    """Per position, label -> Counter of that label's block column."""
    return [
        {label: Counter(column) for label, column in zip(blocks, columns)}
        for columns in zip(*blocks.values())
    ]


def _totals(hists, counts) -> list[dict]:
    """Per position, symbol -> [n_eq, sq_eq, cross]: over the node's labels
    l, with c the symbol's count in l and N_l the count of l, the sums of
    c, c * c and c * N_l, which are all _best_split reads."""
    totals = []
    for per_label in hists:
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
        totals.append(per_symbol)
    return totals


def _subtract(hists, totals, small_hists, counts, small_counts) -> None:
    """Turn a node's histograms and totals into its larger child's, in
    place, given the smaller child's histograms and label counts.

    Only the labels the smaller child holds change. For such a label l,
    every symbol of it moves, since N_l drops to N'_l: with c its count
    and a the smaller child's, n_eq loses a, sq_eq gains c'^2 - c^2 and
    cross gains c' * N'_l - c * N_l, where c' = c - a. Counts and
    symbols that reach zero are deleted, and so is a label the smaller
    child took whole."""
    for per_label, per_symbol, small_per_label in zip(hists, totals, small_hists):
        for label, small_hist in small_per_label.items():
            hist = per_label[label]
            n_l = counts[label]
            left_n_l = n_l - small_counts[label]
            if not left_n_l:
                # a == c for every symbol, so c' and N'_l are zero
                del per_label[label]
                for symbol, c in hist.items():
                    total = per_symbol[symbol]
                    n_eq = total[0] - c
                    if n_eq:
                        total[0] = n_eq
                        total[1] -= c * c
                        total[2] -= c * n_l
                    else:
                        del per_symbol[symbol]
                continue
            emptied = []
            for symbol, c in hist.items():
                a = small_hist.get(symbol, 0)
                left = c - a
                total = per_symbol[symbol]
                if a:
                    if left:
                        hist[symbol] = left  # an existing key: safe mid-iteration
                    else:
                        emptied.append(symbol)
                    n_eq = total[0] - a
                    if not n_eq:
                        del per_symbol[symbol]
                        continue
                    total[0] = n_eq
                    total[1] += left * left - c * c
                total[2] += left * left_n_l - c * n_l
            for symbol in emptied:
                del hist[symbol]


def _partition(blocks, p, symbol, per_label):
    """Split a label -> block map on ``block[p][i] == symbol``, given the
    node's label -> Counter histograms at ``p``. A block the equality
    side holds none or all of goes to that child as it is; a mixed block
    is cut in two, every column keeping its order."""
    eq_blocks = {}
    ne_blocks = {}
    for label, block in blocks.items():
        n_eq = per_label[label][symbol]
        if n_eq == 0:
            ne_blocks[label] = block
        elif n_eq == len(block[p]):
            eq_blocks[label] = block
        else:
            eq_rows = [s == symbol for s in block[p]]
            ne_rows = [not eq for eq in eq_rows]
            eq_blocks[label] = [list(compress(column, eq_rows)) for column in block]
            ne_blocks[label] = [list(compress(column, ne_rows)) for column in block]
    return eq_blocks, ne_blocks


def _best_split(totals, counts, n):
    """Exhaustively score every (position, symbol) equality split.

    Returns (position, symbol), or None when every sample carries the
    same feature vector and no split can separate anything. A zero
    impurity decrease does not stop growth; the split decrease is never
    negative, so any valid split is taken when nothing better exists.
    Candidates are scanned position ascending, symbol ascending, and
    only a strictly better decrease replaces the incumbent, which
    implements the tie-break.
    """
    parent_gini = gini(counts)
    sq = sum(c * c for c in counts.values())
    best_decrease = -1.0
    best = None
    for p, per_symbol in enumerate(totals):
        for symbol in sorted(per_symbol):
            n_eq, sq_eq, cross = per_symbol[symbol]
            if n_eq == n:
                continue  # equality side would swallow the node
            n_ne = n - n_eq
            # sum((N_l - c_l) ** 2) over the node's labels, expanded into
            # the running totals; the integers are exact, so the floats
            # below are those of the direct sum
            sq_ne = sq - 2 * cross + sq_eq
            weighted = (n_eq - sq_eq / n_eq + n_ne - sq_ne / n_ne) / n
            decrease = parent_gini - weighted
            if decrease > best_decrease:
                best_decrease = decrease
                best = (p, symbol)
    return best


def _grow(blocks) -> list[list]:
    # Iterative with an explicit stack; equality-split chains get deep
    # enough to threaten the interpreter recursion limit. The stack pops
    # nodes in pre-order, eq subtree first, which is the list order.
    nodes: list[list] = []
    # Each entry names the parent node and the slot that receives the
    # entry's index once it is appended, then the node's label blocks and
    # the histograms and totals its parent hands down, or None.
    stack = [(None, 0, blocks, None, None)]
    while stack:
        parent, slot, blocks, hists, totals = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        counts = {label: len(block[0]) for label, block in blocks.items()}
        n = sum(counts.values())
        split = None
        if len(counts) > 1:
            if hists is None:
                hists = _label_hists(blocks)
            if totals is None:
                totals = _totals(hists, counts)
            split = _best_split(totals, counts, n)
        if split is None:
            nodes.append([_majority_label(counts), counts])
            continue
        p, symbol = split
        node = [p, symbol, 0, 0]
        nodes.append(node)
        eq_blocks, ne_blocks = _partition(blocks, p, symbol, hists[p])
        # Counted from the blocks, not the totals, so that each split
        # provably shrinks both children.
        n_eq = sum(len(block[0]) for block in eq_blocks.values())
        if not 0 < n_eq < n:
            raise StalledSplitError(
                f"split on position {p} = {symbol!r} sends {n_eq} of {n} samples to eq"
            )

        # Count only the smaller child, and of it only the blocks the split
        # cut: a block it takes whole takes its histograms from the parent,
        # whose _subtract drops them. The larger child's histograms and
        # totals are the parent's, turned into its own by what the smaller
        # one took.
        small_is_eq = 2 * n_eq <= n
        small_blocks = eq_blocks if small_is_eq else ne_blocks
        small_counts = {label: len(block[0]) for label, block in small_blocks.items()}
        small_hists = [
            {
                label: per_label[label] if small_counts[label] == counts[label]
                else Counter(block[q])
                for label, block in small_blocks.items()
            }
            for q, per_label in enumerate(hists)
        ]
        _subtract(hists, totals, small_hists, counts, small_counts)
        if small_is_eq:
            stack.append((node, 3, ne_blocks, hists, totals))
            stack.append((node, 2, eq_blocks, small_hists, None))
        else:
            stack.append((node, 3, ne_blocks, small_hists, None))
            stack.append((node, 2, eq_blocks, hists, totals))
    return nodes


def train(samples: Samples, table: MappingTable) -> TranslitModel:
    """Grow an unbounded-depth tree on ``samples``, at their window. The
    tree depends on the samples, not on their order, and ``samples`` is
    left as it is."""
    window = samples.window
    for label, block in samples.blocks.items():
        lengths = {len(column) for column in block}
        if len(block) != window.width or len(lengths) != 1 or 0 in lengths:
            raise InconsistentFeatureWidthError(
                f"label {label!r}: {len(block)} columns of lengths {sorted(lengths)}"
                f" at window width {window.width}"
            )
    if not samples.blocks:
        raise EmptyTrainingSetError("cannot train on an empty sample list")
    return TranslitModel(nodes=_grow(samples.blocks), window=window, table=table)


def _compile(nodes: list[list]):
    """Turn the node list into nested switches. A leaf becomes its label;
    each maximal ne chain that tests one position f becomes
    ``(f, {symbol: eq child}, default)``, where the default is the chain's
    last ne child. One pass in reverse list order compiles every child
    before its parent. A node whose ne child compiled to a switch on the
    same position joins it in place, which is safe because every node has
    one parent; its own symbol is written last, so on a symbol the chain
    tests twice the earlier test wins, as in the binary walk."""
    compiled: list = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        if len(node) == 2:
            compiled[i] = node[0]
            continue
        f, s, eq, ne = node
        rest = compiled[ne]
        if type(rest) is tuple and rest[0] == f:
            rest[1][s] = compiled[eq]
            compiled[i] = rest
        else:
            compiled[i] = (f, {s: compiled[eq]}, rest)
    return compiled[0]


def _skip_focus(node, x: int, key: str):
    """Follow ``node``'s switches on position ``x`` as a window whose
    focus symbol is ``key`` would, down to a leaf or a switch on another
    position."""
    while type(node) is tuple and node[0] == x:
        node = node[1].get(key, node[2])
    return node


def _by_focus(root, x: int, keys) -> dict:
    """Per key, ``root`` with every switch on the focus position ``x``
    replaced by its case for the key, or its default.

    One pass over the switches finds those that test ``x`` somewhere in
    their subtree; every other subtree is shared with ``root``, not
    copied. Per key, the switches to rebuild are collected from the top
    down and rebuilt from the bottom up, so neither step recurses, and
    only what that key can reach is visited."""
    switches = []
    stack = [root]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            switches.append(node)
            stack.extend(node[1].values())
            stack.append(node[2])
    tests_x = set()
    for node in reversed(switches):  # children before parents
        f, cases, default = node
        if f == x or id(default) in tests_x or not tests_x.isdisjoint(map(id, cases.values())):
            tests_x.add(id(node))

    by_focus = {}
    for key in keys:
        top = _skip_focus(root, x, key)
        rebuild = []
        stack = [top]
        while stack:
            node = stack.pop()
            if id(node) in tests_x:
                f, cases, default = node
                cases = {s: _skip_focus(child, x, key) for s, child in cases.items()}
                default = _skip_focus(default, x, key)
                rebuild.append((node, f, cases, default))
                stack.extend(cases.values())
                stack.append(default)
        built = {}
        for node, f, cases, default in reversed(rebuild):
            for s, child in cases.items():
                cases[s] = built.get(id(child), child)  # an existing key: safe mid-iteration
            built[id(node)] = (f, cases, built.get(id(default), default))
        by_focus[key] = built.get(id(top), top)
    return by_focus


def predict(model: TranslitModel, features) -> list[str]:
    """The leaf label of every ``width``-long window of ``features``, in
    order: one label for a single window, none for the ``width - 1``
    symbols of a padded empty word. Symbols never seen in training fail
    every equality test and follow the false branch. A window whose
    focus symbol is a table key starts at that key's resolved switches
    (``model.by_focus``); any other focus symbol, PAD included, starts
    at the root."""
    width = model.window.width
    if len(features) < width - 1:
        raise WidthMismatchError(f"feature length {len(features)} < model width {width} - 1")
    root = model.switches
    start = model.by_focus.get
    x = model.window.x
    labels = []
    for i in range(len(features) - width + 1):
        node = start(features[i + x], root)
        while type(node) is tuple:
            f, cases, default = node
            node = cases.get(features[i + f], default)
        labels.append(node)
    return labels


def tree_depth(nodes: list[list]) -> int:
    """Nodes on the longest root-to-leaf path. Children point forward, so
    one pass in list order sees every parent before its children."""
    depth = [1] * len(nodes)
    for i, node in enumerate(nodes):
        if len(node) == 4:
            for child in node[2:]:
                depth[child] = max(depth[child], depth[i] + 1)
    return max(depth)


def _check_nodes(nodes, width: int) -> None:
    """Raise ModelFormatError unless ``nodes`` is a non-empty list of
    well-formed nodes forming one tree rooted at node 0: child indices
    point forward and in range, which makes every walk end at a leaf, and
    every other node is the child of exactly one node, which _compile
    relies on."""
    if not isinstance(nodes, list) or not nodes:
        raise ModelFormatError("model has no nodes")
    n = len(nodes)
    has_parent = bytearray(n)
    for i, node in enumerate(nodes):
        if not isinstance(node, list) or len(node) not in (2, 4):
            raise ModelFormatError(f"node {i} is not a 2- or 4-element list")
        if len(node) == 4:
            f, s, eq, ne = node
            if type(f) is not int or not 0 <= f < width:
                raise ModelFormatError(
                    f"node {i}: feature index {f!r} outside window width {width}"
                )
            if not isinstance(s, str):
                raise ModelFormatError(f"node {i}: test symbol is not a string")
            for child in (eq, ne):
                if type(child) is not int or not i < child < n:
                    raise ModelFormatError(f"node {i}: child index is not an int in ({i}, {n})")
                if has_parent[child]:
                    raise ModelFormatError(f"node {child} has more than one parent")
                has_parent[child] = 1
        else:
            label, counts = node
            if not isinstance(label, str):
                raise ModelFormatError(f"node {i}: leaf label is not a string")
            # JSON object keys are always strings; only the counts vary.
            if not isinstance(counts, dict) or not counts or not all(
                type(c) is int and c > 0 for c in counts.values()
            ):
                raise ModelFormatError(f"node {i}: leaf counts are not positive ints")
    orphans = n - 1 - sum(has_parent)
    if orphans:
        raise ModelFormatError(f"{orphans} nodes besides node 0 have no parent")


def _check_table(rows) -> MappingTable:
    """The MappingTable of a file's ``table`` rows; ModelFormatError if
    they do not make one."""
    if not isinstance(rows, dict) or not rows:
        raise ModelFormatError("model table is not an object with rows")
    for key, candidates in rows.items():
        if not isinstance(candidates, list) or not all(isinstance(c, str) for c in candidates):
            raise ModelFormatError(f"table key {key!r}: candidates are not a list of strings")
    try:
        return MappingTable(rows)
    except ValueError as err:
        raise ModelFormatError(f"model table: {err}") from err


def serialize(model: TranslitModel) -> bytes:
    """Versioned JSON; PAD appears as the literal string "∅-PAD"."""
    obj = {
        "format_version": FORMAT_VERSION,
        "window": {"x": model.window.x, "y": model.window.y},
        "table": model.table.entries,
        "nodes": model.nodes,
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
        raise ModelVersionError(
            f"unsupported model format_version {version!r}; this build reads"
            f" {FORMAT_VERSION}, so retrain the model"
        )
    try:
        x, y = obj["window"]["x"], obj["window"]["y"]
        rows = obj["table"]
        nodes = obj["nodes"]
    except (KeyError, TypeError) as err:
        raise ModelFormatError(f"model file missing fields: {err}") from err
    if type(x) is not int or type(y) is not int:
        raise ModelFormatError(f"window bounds are not ints: x={x!r}, y={y!r}")
    try:
        window = WindowSpec(x=x, y=y)
    except ValueError as err:
        raise ModelFormatError(f"model window: {err}") from err
    table = _check_table(rows)
    _check_nodes(nodes, window.width)
    return TranslitModel(nodes=nodes, window=window, table=table)


def load_model(path) -> TranslitModel:
    with open(path, "rb") as handle:
        return deserialize(handle.read())
