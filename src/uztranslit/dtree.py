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
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .alphabets import Direction
from .featurizer import Sample, WindowSpec

FORMAT_VERSION = 1


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
class Leaf:
    class_counts: dict[str, int]
    prediction: str


@dataclass
class Internal:
    feature_index: int
    test_symbol: str
    eq: "TreeNode"
    ne: "TreeNode"


TreeNode = Leaf | Internal


@dataclass
class TranslitModel:
    root: TreeNode
    window: WindowSpec
    direction: Direction
    table_fingerprint: str = ""
    format_version: int = FORMAT_VERSION


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


def _grow(feats, labs, width) -> TreeNode:
    # Iterative with an explicit stack; equality-split chains get deep
    # enough to threaten the interpreter recursion limit.
    placeholder = Leaf({}, "")
    root_box: list[TreeNode] = [placeholder]

    def attach(parent, side, node):
        if parent is None:
            root_box[0] = node
        elif side == "eq":
            parent.eq = node
        else:
            parent.ne = node

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
    stack = [(None, "", members, stats)]
    while stack:
        parent, side, members, stats = stack.pop()
        counts = {label: len(group) for label, group in members.items()}
        n = sum(counts.values())
        split = None if stats is None else _best_split(stats, counts, n)
        if split is None:
            attach(parent, side, Leaf(counts, _majority_label(counts)))
            continue
        p, symbol = split
        node = Internal(p, symbol, placeholder, placeholder)
        attach(parent, side, node)
        eq_counts = stats[p][symbol]
        eq_members, ne_members = _partition(members, columns[p], symbol, eq_counts)

        # Scan only the smaller child; the larger child's histograms are
        # the parent's minus the smaller's, computed in place.
        eq_child = [node, "eq", eq_members, None]
        ne_child = [node, "ne", ne_members, None]
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
    return root_box[0]


def train(
    samples: list[Sample],
    window: WindowSpec,
    direction: Direction = ("", ""),
    table_fingerprint: str = "",
) -> TranslitModel:
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
    root = _grow(feats, labs, width)
    return TranslitModel(
        root=root,
        window=window,
        direction=direction,
        table_fingerprint=table_fingerprint,
    )


def predict(model: TranslitModel, features) -> str:
    """Route ``features`` to a leaf. Symbols never seen in training fail
    every equality test and follow the false branch."""
    if len(features) != model.window.width:
        raise WidthMismatchError(
            f"feature width {len(features)} != model width {model.window.width}"
        )
    node = model.root
    while isinstance(node, Internal):
        node = node.eq if features[node.feature_index] == node.test_symbol else node.ne
    return node.prediction


def tree_depth(root: TreeNode) -> int:
    depth = 0
    stack = [(root, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if isinstance(node, Internal):
            stack.append((node.eq, d + 1))
            stack.append((node.ne, d + 1))
    return depth


def _node_to_obj(root: TreeNode):
    done: dict[int, dict] = {}
    stack: list[tuple[TreeNode, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Leaf):
            done[id(node)] = {
                "leaf": node.prediction,
                "counts": dict(sorted(node.class_counts.items())),
            }
        elif not ready:
            stack.append((node, True))
            stack.append((node.eq, False))
            stack.append((node.ne, False))
        else:
            done[id(node)] = {
                "f": node.feature_index,
                "s": node.test_symbol,
                "t": done[id(node.eq)],
                "e": done[id(node.ne)],
            }
    return done[id(root)]


def _obj_to_node(obj, width: int) -> TreeNode:
    if not isinstance(obj, dict):
        raise ModelFormatError("node is not an object")
    # Iterative conversion, mirroring _node_to_obj.
    done: dict[int, TreeNode] = {}
    stack: list[tuple[dict, bool]] = [(obj, False)]
    while stack:
        node_obj, ready = stack.pop()
        if "leaf" in node_obj:
            counts = node_obj.get("counts")
            if not isinstance(node_obj["leaf"], str) or not isinstance(counts, dict):
                raise ModelFormatError("malformed leaf node")
            done[id(node_obj)] = Leaf(dict(counts), node_obj["leaf"])
        elif not ready:
            for key in ("f", "s", "t", "e"):
                if key not in node_obj:
                    raise ModelFormatError(f"internal node missing field {key!r}")
            stack.append((node_obj, True))
            stack.append((node_obj["t"], False))
            stack.append((node_obj["e"], False))
        else:
            feature_index = node_obj["f"]
            if not isinstance(feature_index, int) or not isinstance(node_obj["s"], str):
                raise ModelFormatError("malformed internal node")
            if isinstance(feature_index, bool) or not 0 <= feature_index < width:
                raise ModelFormatError(
                    f"feature index {feature_index!r} outside window width {width}"
                )
            done[id(node_obj)] = Internal(
                feature_index,
                node_obj["s"],
                done[id(node_obj["t"])],
                done[id(node_obj["e"])],
            )
    return done[id(obj)]


class _recursion_headroom:
    """json both encodes and decodes recursively; deep tree chains need a
    temporarily raised interpreter limit."""

    def __init__(self, depth: int):
        self.wanted = depth * 4 + 1000

    def __enter__(self):
        self.saved = sys.getrecursionlimit()
        if self.wanted > self.saved:
            sys.setrecursionlimit(self.wanted)

    def __exit__(self, *exc):
        sys.setrecursionlimit(self.saved)


def serialize(model: TranslitModel) -> bytes:
    """Versioned JSON; PAD appears as the literal string "∅-PAD"."""
    obj = {
        "format_version": model.format_version,
        "direction": list(model.direction),
        "window": {"x": model.window.x, "y": model.window.y},
        "table_fingerprint": model.table_fingerprint,
        "root": _node_to_obj(model.root),
    }
    with _recursion_headroom(tree_depth(model.root)):
        text = json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return text.encode("utf-8")


def deserialize(data: bytes) -> TranslitModel:
    with _recursion_headroom(data.count(b'"f"')):
        try:
            obj = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ModelFormatError(f"model file is not valid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise ModelFormatError("model file is not a JSON object")
    version = obj.get("format_version")
    if not isinstance(version, int) or version != FORMAT_VERSION:
        raise ModelVersionError(
            f"unsupported model format_version {version!r}; this build reads {FORMAT_VERSION}"
        )
    try:
        window = WindowSpec(x=obj["window"]["x"], y=obj["window"]["y"])
        direction = tuple(obj["direction"])
        fingerprint = obj["table_fingerprint"]
        root = _obj_to_node(obj["root"], window.width)
    except (KeyError, TypeError) as err:
        raise ModelFormatError(f"model file missing fields: {err}") from err
    if len(direction) != 2 or not isinstance(fingerprint, str):
        raise ModelFormatError("malformed direction or fingerprint")
    return TranslitModel(
        root=root,
        window=window,
        direction=direction,  # type: ignore[arg-type]
        table_fingerprint=fingerprint,
        format_version=version,
    )


def save_model(model: TranslitModel, path) -> None:
    with open(path, "wb") as handle:
        handle.write(serialize(model))


def load_model(path) -> TranslitModel:
    with open(path, "rb") as handle:
        return deserialize(handle.read())
