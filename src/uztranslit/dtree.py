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
then lowest symbol, so training is fully deterministic given the sample
order.

Unlike a numeric-threshold tree over some arbitrary character encoding,
equality tests do not depend on a character ordering; the learning task
is unchanged.

Growth never rescans a node to score it. Each open node carries its
sample indices grouped by label and, per window position, a
symbol -> label -> count histogram. After a split only the smaller
child is scanned; the larger child's histograms are the parent's minus
the smaller's, updated in place (histogram subtraction, as in LightGBM,
Ke et al. 2017). Equality splits peel a small eq side off a long ne
chain, so a tree costs about two scans of its samples rather than one
per level. Every score comes from the same integer counts through the
same float expression in the same candidate order, so the chosen
splits, and the serialized model, are bit-identical to those of a
grower that rebuilds every node's histograms.

The tree is one flat list of nodes, the same in memory and on disk. An
internal node is ``[f, s, eq, ne]``: window position ``f`` is tested
for equality with symbol ``s``, and ``eq``/``ne`` are the list indices
of the children taken when the test passes or fails. A leaf is
``[label, counts]``, its majority label and label histogram. The list
is in pre-order with the eq subtree first, so the root is node 0 and
every child index is greater than its parent's. Walking and validating
the tree are therefore plain loops, and JSON nesting stays a few levels
deep however deep the tree grows.

A model carries the mapping table it was trained under (format 3): the
table's keys are the characters it classifies, and its direction is the
model's direction. Loading builds the table through MappingTable's
checks and requires its keys to imply that direction, by the rule that
infers a table file's direction.

Prediction does not walk that list. Equality splits make long ne chains
that test one position against one symbol after another, and such a
chain is one multiway categorical split, as in C4.5 (Quinlan, 1993) and
in compiled trees such as Treelite's (Cho & Li, 2018). On first use a
model compiles its list, in one reverse pass, into nested switches
``(f, {symbol: child}, default)`` whose leaves are labels, so a step is
one dict lookup. The walk gives the binary walk's label for every file
that loads. On the README-default lexicon models over the words of
``gen_corpus(20000, 42)`` it takes 1.30 steps per character instead of
15.05 (cyr2lat) and 4.20 instead of 14.83 (lat2cyr). The file and the
trainer know nothing of the switches.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .alphabets import CYR2LAT, LAT2CYR, Direction, MappingTable, infer_direction
from .featurizer import Sample, WindowSpec

FORMAT_VERSION = 3


class EmptyTrainingSetError(ValueError):
    pass


class InconsistentFeatureWidthError(ValueError):
    pass


class WidthMismatchError(ValueError):
    pass


class EmptyCountsError(ValueError):
    pass


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


def _histograms(columns, members) -> list[dict]:
    """Per position, symbol -> label histogram over ``members``, a
    label -> sample indices map."""
    stats = []
    for column in columns:
        symbol_of = column.__getitem__
        per_symbol: dict = {}
        for label, group in members.items():
            for symbol, count in Counter(map(symbol_of, group)).items():
                hist = per_symbol.get(symbol)
                if hist is None:
                    per_symbol[symbol] = {label: count}
                else:
                    hist[label] = count
        stats.append(per_symbol)
    return stats


def _subtract(stats, small) -> None:
    """stats -= small in place, deleting entries that reach zero."""
    for per_symbol, small_per_symbol in zip(stats, small):
        for symbol, small_hist in small_per_symbol.items():
            hist = per_symbol[symbol]
            for label, count in small_hist.items():
                left = hist[label] - count
                if left:
                    hist[label] = left
                else:
                    del hist[label]
            if not hist:
                del per_symbol[symbol]


def _partition(members, column, symbol, eq_counts):
    """Split a label -> indices map on ``column[i] == symbol``. Labels the
    equality side has none or all of move without a scan."""
    eq_members = {}
    ne_members = {}
    for label, group in members.items():
        n_eq = eq_counts.get(label, 0)
        if n_eq == 0:
            ne_members[label] = group
        elif n_eq == len(group):
            eq_members[label] = group
        else:
            eq_group = []
            ne_group = []
            for i in group:
                (eq_group if column[i] == symbol else ne_group).append(i)
            eq_members[label] = eq_group
            ne_members[label] = ne_group
    return eq_members, ne_members


def _best_split(stats, counts, n):
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
    for p, per_symbol in enumerate(stats):
        for symbol in sorted(per_symbol):
            n_eq = sq_eq = cross = 0
            for label, c in per_symbol[symbol].items():
                n_eq += c
                sq_eq += c * c
                cross += c * counts[label]
            if n_eq == n:
                continue  # equality side would swallow the node
            n_ne = n - n_eq
            # sum((counts[l] - hist[l]) ** 2) over the node's labels,
            # expanded so only the symbol's own labels are visited; the
            # integers are exact, so the floats below are unchanged
            sq_ne = sq - 2 * cross + sq_eq
            weighted = (n_eq - sq_eq / n_eq + n_ne - sq_ne / n_ne) / n
            decrease = parent_gini - weighted
            if decrease > best_decrease:
                best_decrease = decrease
                best = (p, symbol)
    return best


def _grow(feats, labs, width) -> list[list]:
    # Iterative with an explicit stack; equality-split chains get deep
    # enough to threaten the interpreter recursion limit. The stack pops
    # nodes in pre-order, eq subtree first, which is the list order.
    nodes: list[list] = []

    # One shared object per distinct symbol keeps the histogram counting
    # inside a few cache lines instead of one str object per window cell.
    canonical: dict[str, str] = {}
    columns = []
    for p in range(width):
        symbols = list(map(itemgetter(p), feats))
        columns.append(list(map(canonical.setdefault, symbols, symbols)))
    members: dict[str, list[int]] = {}
    for i, label in enumerate(labs):
        members.setdefault(label, []).append(i)
    # Each node carries its members grouped by label (so its label
    # counts are the group sizes) and, while impure, its histograms.
    # Pure nodes carry None: they become leaves without a split.
    stats = _histograms(columns, members) if len(members) > 1 else None
    # Each entry names the parent node and the slot that receives the
    # entry's index once it is appended.
    stack = [(None, 0, members, stats)]
    while stack:
        parent, slot, members, stats = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        counts = {label: len(group) for label, group in members.items()}
        n = sum(counts.values())
        split = None if stats is None else _best_split(stats, counts, n)
        if split is None:
            nodes.append([_majority_label(counts), counts])
            continue
        p, symbol = split
        node = [p, symbol, 0, 0]
        nodes.append(node)
        eq_counts = stats[p][symbol]
        eq_members, ne_members = _partition(members, columns[p], symbol, eq_counts)

        # Scan only the smaller child; the larger child's histograms are
        # the parent's minus the smaller's, computed in place.
        eq_child = [node, 2, eq_members, None]
        ne_child = [node, 3, ne_members, None]
        if 2 * sum(eq_counts.values()) <= n:
            small, large = eq_child, ne_child
        else:
            small, large = ne_child, eq_child
        small_grows = len(small[2]) > 1
        large_grows = len(large[2]) > 1
        if small_grows or large_grows:
            small_stats = _histograms(columns, small[2])
            if small_grows:
                small[3] = small_stats
            if large_grows:
                _subtract(stats, small_stats)
                large[3] = stats
        stack.append(tuple(ne_child))
        stack.append(tuple(eq_child))
    return nodes


def train(samples: list[Sample], window: WindowSpec, table: MappingTable) -> TranslitModel:
    """Grow an unbounded-depth tree on ``samples``; deterministic given
    identical input order."""
    if not samples:
        raise EmptyTrainingSetError("cannot train on an empty sample list")
    width = window.width
    for sample in samples:
        if len(sample.features) != width:
            raise InconsistentFeatureWidthError(
                f"sample width {len(sample.features)} != window width {width}"
            )
    feats = [s.features for s in samples]
    labs = [s.label for s in samples]
    return TranslitModel(nodes=_grow(feats, labs, width), window=window, table=table)


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


def predict(model: TranslitModel, features) -> str:
    """Route ``features`` to a leaf. Symbols never seen in training fail
    every equality test and follow the false branch."""
    if len(features) != model.window.width:
        raise WidthMismatchError(
            f"feature width {len(features)} != model width {model.window.width}"
        )
    node = model.switches
    while type(node) is tuple:
        f, cases, default = node
        node = cases.get(features[f], default)
    return node


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


def _check_table(rows, direction: Direction) -> MappingTable:
    """The MappingTable of a file's ``table`` rows, whose keys must imply
    ``direction`` as they would in a table file; ModelFormatError if not."""
    if not isinstance(rows, dict) or not rows:
        raise ModelFormatError("model table is not an object with rows")
    for key, candidates in rows.items():
        if not isinstance(candidates, list) or not all(isinstance(c, str) for c in candidates):
            raise ModelFormatError(f"table key {key!r}: candidates are not a list of strings")
    try:
        table = MappingTable(direction=direction, entries=rows)
    except ValueError as err:
        raise ModelFormatError(f"model table: {err}") from err
    implied = infer_direction(table.entries)
    if implied != direction:
        raise ModelFormatError(
            f"model table maps {'->'.join(implied)}, not {'->'.join(direction)}"
        )
    return table


def serialize(model: TranslitModel) -> bytes:
    """Versioned JSON; PAD appears as the literal string "∅-PAD"."""
    obj = {
        "format_version": FORMAT_VERSION,
        "direction": list(model.direction),
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
        direction = obj["direction"]
        rows = obj["table"]
        nodes = obj["nodes"]
    except (KeyError, TypeError) as err:
        raise ModelFormatError(f"model file missing fields: {err}") from err
    if type(x) is not int or type(y) is not int:
        raise ModelFormatError(f"window bounds are not ints: x={x!r}, y={y!r}")
    window = WindowSpec(x=x, y=y)
    if direction not in ([*CYR2LAT], [*LAT2CYR]):
        raise ModelFormatError(f"direction {direction!r} is neither cyr2lat nor lat2cyr")
    table = _check_table(rows, tuple(direction))
    _check_nodes(nodes, window.width)
    return TranslitModel(nodes=nodes, window=window, table=table)


def load_model(path) -> TranslitModel:
    with open(path, "rb") as handle:
        return deserialize(handle.read())
