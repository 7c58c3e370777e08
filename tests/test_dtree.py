import copy
import itertools
import json
import math
import random
import signal
import sys
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    Row,
    best_split_decrease,
    decode,
    grow_rows,
    open_table,
    rows_of,
    samples_of,
    split_decrease,
    table7_samples,
)
from uztranslit import dtree
from uztranslit.aligner import AlignedPair, align_corpus
from uztranslit.alphabets import CYR2LAT, LAT2CYR, MappingTable, bundled_mapping_table
from uztranslit.dtree import (
    ModelFormatError,
    _majority_label,
    deserialize,
    predict,
    serialize,
    train,
)
from uztranslit.featurizer import (
    PAD,
    Samples,
    WindowSpec,
    dedup_samples,
    extract_samples,
    window_features,
)
from uztranslit.gencorpus import gen_corpus
from uztranslit.pipeline import SplitConfig, predict_segments, split_corpus, train_direction

CYR2LAT_TABLE = bundled_mapping_table(CYR2LAT)
_LETTERS = ["а", "б", "в"]
_LABELS = ["", "a", "b", "ch"]
# licenses every test label for the letters а to е; PAD is never a key
OPEN_TABLE = open_table("абвгде", _LABELS)


def test_pure_fit_on_table7(cyr2lat_table):
    samples = table7_samples(cyr2lat_table)
    model = train(samples_of(samples, WindowSpec(2, 1)), CYR2LAT_TABLE)
    for sample in samples:
        assert predict(model, sample.features) == [sample.label]
    # the spotlighted row: [қ, ў, з, и] -> z
    assert predict(model, ("қ", "ў", "з", "и")) == ["z"]


def test_single_sample_single_leaf():
    model = train(samples_of([Row(("ф",), "f")], WindowSpec(0, 0)), CYR2LAT_TABLE)
    assert model.trees["ф"] == [["f", {"f": 1}]]
    assert predict(model, ("ф",)) == ["f"]
    # every other key was never seen: one leaf, its first candidate, no counts
    assert set(model.trees) == set(CYR2LAT_TABLE.entries)
    assert model.trees["ю"] == [["yu", {}]]
    assert predict(model, ("ю",)) == ["yu"]
    # a symbol that is no key labels itself
    assert predict(model, ("q",)) == ["q"]


def test_unsplittable_node_majority_vote():
    f = ("х", "у")
    samples = [Row(f, "u"), Row(f, "u"), Row(f, "-u")]
    model = train(samples_of(samples, WindowSpec(1, 0)), CYR2LAT_TABLE)
    assert predict(model, f) == ["u"]


def test_majority_tie_breaks_lexicographically():
    f = ("е",)
    model = train(samples_of([Row(f, "ye"), Row(f, "e")], WindowSpec(0, 0)), CYR2LAT_TABLE)
    assert predict(model, f) == ["e"]


def test_empty_training_set():
    with pytest.raises(ValueError, match="cannot train on an empty sample list"):
        train(samples_of([], WindowSpec(1, 1)), CYR2LAT_TABLE)
    # a key without labels
    with pytest.raises(ValueError, match="cannot train on an empty sample list"):
        train(Samples(WindowSpec(0, 0), {"а": {}}, (PAD, "а")), CYR2LAT_TABLE)
    # a label without rows
    with pytest.raises(ValueError, match="cannot train on an empty sample list"):
        train(Samples(WindowSpec(0, 0), {"а": {"a": []}}, (PAD, "а")), CYR2LAT_TABLE)


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        # the focus is no key, so its tree would be dropped
        ([Row(("q",), "q")], r"sample foci \['q'\] are not table keys"),
        # the label is not a candidate of the focus: the model's tree check
        ([Row(("а",), "b")], r"tree of 'а': node 0: leaf label 'b' is not a table candidate"),
        # an outvoted label still lands in its leaf's counts
        ([Row(("а",), "a"), Row(("а",), "a"), Row(("а",), "b")],
         r"tree of 'а': node 0: leaf counts are not keyed by table candidates"),
    ],
    ids=["focus-not-key", "label-not-candidate", "outvoted-label-not-candidate"],
)
def test_unlicensed_samples_rejected(rows, message):
    with pytest.raises(ValueError, match=message):
        train(samples_of(rows, WindowSpec(0, 0)), CYR2LAT_TABLE)


def test_split_that_leaves_a_child_empty_is_an_error(monkeypatch, synthetic_small, cyr2lat_table):
    # A split step that hands both children their parent's histograms
    # leaves a child that picks a split which moves nothing; growth must
    # stop with an error, and within the time bound rather than by
    # exhausting memory.
    split = dtree._split

    def stale_split(blocks, hists, p, code, n):
        eq_hists, ne_hists = copy.deepcopy(hists), copy.deepcopy(hists)
        (eq_blocks, _), (ne_blocks, _) = split(blocks, hists, p, code, n)
        return (eq_blocks, eq_hists), (ne_blocks, ne_hists)

    monkeypatch.setattr(dtree, "_split", stale_split)
    alignments, _ = align_corpus(synthetic_small.pairs, cyr2lat_table)
    samples = dedup_samples(extract_samples(alignments, WindowSpec(2, 1)))

    def out_of_time(signum, frame):
        raise TimeoutError("growth did not stop within 5 s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(dtree.StalledSplitError, match="sends 0 of"):
            train(samples, CYR2LAT_TABLE)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_predict_width_mismatch(cyr2lat_table):
    model = train(samples_of(table7_samples(cyr2lat_table), WindowSpec(2, 1)), CYR2LAT_TABLE)
    with pytest.raises(ValueError, match="feature length 2 < model width 4 - 1"):
        predict(model, ("қ", "ў"))
    # the width - 1 symbols of a padded empty word hold no window
    assert predict(model, window_features("", model.window)) == []


def test_unseen_symbols_follow_false_branch(synthetic_small, cyr2lat_table):
    model = train_direction(synthetic_small, WindowSpec(2, 1), cyr2lat_table)
    # '9' was never in training; each key's window still lands on a leaf
    # of its own tree, a segment the table licenses for it
    for key, candidates in cyr2lat_table.entries.items():
        assert predict(model, ("9", "9", key, "9"))[0] in candidates


def test_internal_nodes_have_both_sides(lexicon, cyr2lat_table):
    model = train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table)
    splits = 0
    for nodes in model.trees.values():
        children = []
        for i, node in enumerate(nodes):
            if len(node) == 4:
                # pre-order, eq subtree first: eq is the next node, ne follows it
                assert node[2] == i + 1 < node[3] < len(nodes)
                # the focus is the same in all of a key's samples
                assert node[0] != model.window.x
                children += node[2:]
                splits += 1
        # every node but the root is the child of exactly one node
        assert sorted(children) == list(range(1, len(nodes)))
    assert splits > 10


def test_training_deterministic(cyr2lat_table):
    samples = table7_samples(cyr2lat_table)
    a = serialize(train(samples_of(samples, WindowSpec(2, 1)), CYR2LAT_TABLE))
    b = serialize(train(samples_of(samples, WindowSpec(2, 1)), CYR2LAT_TABLE))
    assert a == b


def _random_samples(rng, n, width, n_symbols=6, n_labels=4):
    symbols = [chr(ord("а") + k) for k in range(n_symbols)] + [PAD]
    labels = _LABELS[:n_labels]
    return [
        Row(
            tuple(rng.choice(symbols) for _ in range(width)),
            rng.choice(labels),
        )
        for _ in range(n)
    ]


def _focus_on_letters(samples, x):
    """``samples`` with a PAD at the focus position ``x`` replaced by "в":
    a source character is never PAD, and every letter is a key of
    OPEN_TABLE."""
    return [
        Row(s.features[:x] + ("в",) + s.features[x + 1 :], s.label)
        if s.features[x] == PAD else s
        for s in samples
    ]


def _conflict_free(samples):
    seen = {}
    for s in samples:
        if seen.setdefault(s.features, s.label) != s.label:
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 60))
def test_pure_fit_property(seed, n):
    rng = random.Random(seed)
    samples = _focus_on_letters(_random_samples(rng, n, width=3), 1)
    # keep the first label seen per feature vector: conflict-free by construction
    kept = {}
    for s in samples:
        kept.setdefault(s.features, s)
    samples = list(kept.values())
    assert _conflict_free(samples)
    model = train(samples_of(samples, WindowSpec(1, 1)), OPEN_TABLE)
    assert all(predict(model, s.features) == [s.label] for s in samples)


def _samples_with_constant_columns(rng, n, width):
    """Random samples with two more columns: one that maps another column
    onto two symbols, so it turns constant below a split that fixes that
    column or it, and one that is PAD everywhere."""
    samples = _random_samples(rng, n, width=width)
    source = rng.randrange(width)
    image = {symbol: rng.choice("аб") for symbol in {s.features[source] for s in samples}}
    return [Row(s.features + (image[s.features[source]], PAD), s.label) for s in samples]


def test_split_matches_bruteforce_oracle():
    """At every node of every tree, not only at the root: an internal
    node's split decreases impurity as much as the best split of the
    samples that reach it, and a leaf is pure or has no split at all.
    Below the root a node's histograms come from subtraction, and
    columns turn constant there."""
    rng = random.Random(2024)
    roots = internal = 0
    for _ in range(100):
        n = rng.randint(2, 50)
        width = rng.randint(1, 4)
        samples = _samples_with_constant_columns(rng, n, width)
        nodes = grow_rows(samples, range(width + 2))
        stack = [(0, samples)]
        while stack:
            index, part = stack.pop()
            oracle = best_split_decrease(part)
            node = nodes[index]
            if len(node) == 2:
                assert len({s.label for s in part}) == 1 or oracle is None
                continue
            f, symbol, eq, ne = node
            assert math.isclose(split_decrease(part, f, symbol), oracle, abs_tol=1e-12)
            roots += index == 0
            internal += 1
            stack += [
                (eq, [s for s in part if s.features[f] == symbol]),
                (ne, [s for s in part if s.features[f] != symbol]),
            ]
    assert roots > 50
    assert internal > 4 * roots


def test_serialize_roundtrip_identical_predictions(cyr2lat_table):
    samples = table7_samples(cyr2lat_table)
    model = train(samples_of(samples, WindowSpec(2, 1)), CYR2LAT_TABLE)
    clone = deserialize(serialize(model))
    for sample in samples:
        assert predict(clone, sample.features) == predict(model, sample.features)
    assert clone.window == model.window
    assert clone.direction == model.direction
    assert clone.table == model.table
    assert serialize(clone) == serialize(model)


def test_serialized_pad_literal():
    # PAD carries the whole signal here, so it must become a test symbol
    samples = [
        Row((PAD, "е"), "ye"),
        Row(("б", "е"), "e"),
        Row(("в", "е"), "e"),
    ]
    payload = serialize(train(samples_of(samples, WindowSpec(1, 0)), CYR2LAT_TABLE))
    assert '[0,"∅-PAD",1,2]' in payload.decode("utf-8")


def test_truncated_file_is_corruption(cyr2lat_table):
    samples = samples_of(table7_samples(cyr2lat_table), WindowSpec(2, 1))
    payload = serialize(train(samples, CYR2LAT_TABLE))
    with pytest.raises(ModelFormatError):
        deserialize(payload[: len(payload) // 2])


_RETRAIN = r"unsupported model format_version \d+; this build reads 5, so retrain the model"


def test_future_version_rejected(cyr2lat_table):
    samples = samples_of(table7_samples(cyr2lat_table), WindowSpec(2, 1))
    payload = serialize(train(samples, CYR2LAT_TABLE))
    obj = json.loads(payload)
    # version 1 stored a nested tree, version 2 a table fingerprint,
    # version 3 a direction beside the table and version 4 one tree for
    # every key; such files must be retrained
    for version in (99, 1):
        obj["format_version"] = version
        with pytest.raises(ModelFormatError, match=_RETRAIN):
            deserialize(json.dumps(obj).encode("utf-8"))
    obj["format_version"] = 4
    obj["nodes"] = obj.pop("trees")["з"]
    with pytest.raises(ModelFormatError, match=_RETRAIN):
        deserialize(json.dumps(obj).encode("utf-8"))
    obj["format_version"] = 3
    obj["direction"] = ["cyrillic", "latin"]
    with pytest.raises(ModelFormatError, match=_RETRAIN):
        deserialize(json.dumps(obj).encode("utf-8"))
    obj["format_version"] = 2
    del obj["table"]
    obj["table_fingerprint"] = "0" * 64
    with pytest.raises(ModelFormatError, match=_RETRAIN):
        deserialize(json.dumps(obj).encode("utf-8"))


def test_structural_corruption_rejected():
    with pytest.raises(ModelFormatError):
        deserialize('{"format_version": 5, '
                    '"window": {"x": 1, "y": 1}, "table": {"а": ["a"]}, '
                    '"trees": {"а": [[0, "x", 1]]}}'.encode("utf-8"))


def test_save_load_model(tmp_path, cyr2lat_table):
    model = train(samples_of(table7_samples(cyr2lat_table), WindowSpec(2, 1)), CYR2LAT_TABLE)
    path = tmp_path / "m.json"
    path.write_bytes(serialize(model))
    clone = dtree.load_model(path)
    assert serialize(clone) == serialize(model)


def test_model_direction_follows_table_keys():
    with pytest.raises(TypeError):
        MappingTable(CYR2LAT, {"a": ("а",)})
    table = MappingTable({"a": ("а",)})
    assert table.direction == LAT2CYR
    payload = serialize(train(samples_of([Row(("a",), "а")], WindowSpec(0, 0)), table))
    assert sorted(json.loads(payload)) == ["format_version", "table", "trees", "window"]
    assert deserialize(payload).direction == LAT2CYR


def test_cyrillic_keyed_model_file_loads_as_cyr2lat():
    obj = {
        "format_version": 5,
        "window": {"x": 0, "y": 0},
        "table": {"х": ["x"], "ш": ["sh"]},
        "trees": {"х": [["x", {"x": 1}]], "ш": [["sh", {}]]},
    }
    assert deserialize(json.dumps(obj).encode("utf-8")).direction == CYR2LAT


_LEAVES = [["о", {"о": 1}], ["ў", {"ў": 1}]]
_SPLIT = [0, "x", 1, 2]
_MISSING = object()
_X_TREE = [["х", {}]]  # a key training never saw


@pytest.mark.parametrize(
    ("field", "value"),
    [
        pytest.param("nodes", [[f, "x", 1, 2], *_LEAVES], id=str(f))
        for f in (True, "0", 1.5, 2, -1)
    ]
    + [
        pytest.param("nodes", [], id="no-nodes"),
        pytest.param("nodes", {"0": _LEAVES[0]}, id="nodes-not-list"),
        pytest.param("nodes", ["a", *_LEAVES], id="node-not-list"),
        pytest.param("nodes", [[0, "x", 1], *_LEAVES], id="node-of-3"),
        pytest.param("nodes", [[0, "x", 1, 2, 2], *_LEAVES], id="node-of-5"),
        pytest.param("nodes", [[0, 7, 1, 2], *_LEAVES], id="symbol-not-str"),
        pytest.param("nodes", [[0, "x", "leaf", 2], *_LEAVES], id="child-str"),
        pytest.param("nodes", [[0, "x", 1.0, 2], *_LEAVES], id="child-float"),
        pytest.param("nodes", [[0, "x", True, 2], *_LEAVES], id="child-bool"),
        pytest.param("nodes", [[0, "x", 0, 2], *_LEAVES], id="child-self"),
        pytest.param("nodes", [[0, "x", 1, 3], *_LEAVES], id="child-past-end"),
        pytest.param("nodes", [_SPLIT, [0, "x", 0, 2], _LEAVES[1]], id="child-backward"),
        pytest.param("nodes", [[0, "x", 1, 1], *_LEAVES], id="child-twice"),
        pytest.param("nodes", [[0, "x", 1, 2], [0, "y", 2, 3], *_LEAVES], id="leaf-shared"),
        pytest.param("nodes", [_SPLIT, *_LEAVES, _LEAVES[0]], id="node-orphaned"),
        pytest.param("nodes", [_SPLIT, [1, {"о": 1}], _LEAVES[1]], id="label-not-str"),
        pytest.param("nodes", [_SPLIT, ["х", {"х": 1}], _LEAVES[1]], id="label-unlicensed"),
        pytest.param("nodes", [_SPLIT, ["о", {}], _LEAVES[1]], id="counts-empty"),
        pytest.param("nodes", [_SPLIT, ["о", [["о", 1]]], _LEAVES[1]], id="counts-not-map"),
        pytest.param("nodes", [_SPLIT, ["о", {"о": 0}], _LEAVES[1]], id="count-zero"),
        pytest.param("nodes", [_SPLIT, ["о", {"о": -1}], _LEAVES[1]], id="count-negative"),
        pytest.param("nodes", [_SPLIT, ["о", {"о": True}], _LEAVES[1]], id="count-bool"),
        pytest.param("nodes", [_SPLIT, ["о", {"о": 1.0}], _LEAVES[1]], id="count-float"),
        pytest.param("nodes", [[1, "x", 1, 2], *_LEAVES], id="tests-focus"),
        pytest.param("trees", {"x": _X_TREE}, id="trees-missing-key"),
        pytest.param("trees", {"x": _X_TREE, "o": [_LEAVES[0]], "q": [_LEAVES[0]]},
                     id="trees-non-key"),
        pytest.param("trees", [["x", _X_TREE]], id="trees-not-object"),
        pytest.param("trees", _MISSING, id="trees-missing"),
        pytest.param("window", {"x": 1.0, "y": 0}, id="x-float"),
        pytest.param("window", {"x": True, "y": 0}, id="x-bool"),
        pytest.param("window", {"x": 1, "y": 0.0}, id="y-float"),
        pytest.param("window", {"x": 1, "y": "0"}, id="y-str"),
        pytest.param("window", {"x": -1, "y": 0}, id="x-negative"),
        pytest.param("window", {"x": 1, "y": 11}, id="y-too-large"),
        pytest.param("table", _MISSING, id="table-missing"),
        pytest.param("table", [["x", ["х"]]], id="table-not-object"),
        pytest.param("table", {}, id="table-empty"),
        pytest.param("table", {"sh": ["ш"]}, id="table-two-char-key"),
        pytest.param("table", {"x": []}, id="table-no-candidates"),
        pytest.param("table", {"x": ["х", "х"]}, id="table-duplicate-candidate"),
        pytest.param("table", {"x": ["х", 1]}, id="table-candidate-not-str"),
        pytest.param("table", {"x": "х"}, id="table-candidates-not-list"),
    ],
)
def test_bad_feature_index_rejected(field, value):
    """Bad feature indices, every other malformed node list (as the tree
    of key "o"), a tree set that is not one tree per key, and malformed
    windows and tables, from a base object that loads."""
    obj = {
        "format_version": 5,
        "window": {"x": 1, "y": 0},
        "table": {"x": ["х"], "o": ["о", "ў"]},
        "trees": {"x": _X_TREE, "o": [_SPLIT, *_LEAVES]},
    }
    loaded = deserialize(json.dumps(obj).encode("utf-8"))
    assert loaded.trees == obj["trees"]
    assert loaded.table.entries == {"x": ("х",), "o": ("о", "ў")}
    if field == "nodes":
        obj["trees"]["o"] = value
    elif value is _MISSING:
        del obj[field]
    else:
        obj[field] = value
    with pytest.raises(ModelFormatError):
        deserialize(json.dumps(obj).encode("utf-8"))


# Reference grower: the rescanning implementation that histogram
# subtraction replaced, kept verbatim but for the parent impurity, which
# it computes itself. Every node rebuilds its histograms and label counts
# from its sample indices, which makes it slow but obviously correct;
# _grow must produce the same nodes, and train() the same tree for every
# key.

def _best_split(feats, labs, indices, counts, width):
    """Exhaustively score every (position, symbol) equality split.

    Returns (position, symbol, eq_indices, ne_indices), or None when
    every sample carries the same feature vector and no split can
    separate anything. A zero impurity decrease does not stop growth;
    the split decrease is never negative, so any valid split is taken
    when nothing better exists. Candidates are scanned position
    ascending, symbol ascending, and only a strictly better decrease
    replaces the incumbent, which implements the tie-break.
    """
    n = len(indices)
    parent_gini = 1.0 - sum(c * c for c in counts.values()) / (n * n)
    # stats[p][symbol] -> label histogram of samples whose p-th feature is symbol
    stats: list[dict] = [{} for _ in range(width)]
    for i in indices:
        features = feats[i]
        label = labs[i]
        for p in range(width):
            per_symbol = stats[p]
            hist = per_symbol.get(features[p])
            if hist is None:
                per_symbol[features[p]] = hist = {}
            hist[label] = hist.get(label, 0) + 1

    best_decrease = -1.0
    best = None
    for p in range(width):
        per_symbol = stats[p]
        for symbol in sorted(per_symbol):
            hist = per_symbol[symbol]
            n_eq = sum(hist.values())
            if n_eq == n:
                continue  # equality side would swallow the node
            n_ne = n - n_eq
            sq_eq = sum(c * c for c in hist.values())
            sq_ne = sum(
                (counts[label] - hist.get(label, 0)) ** 2 for label in counts
            )
            weighted = (n_eq - sq_eq / n_eq + n_ne - sq_ne / n_ne) / n
            decrease = parent_gini - weighted
            if decrease > best_decrease:
                best_decrease = decrease
                best = (p, symbol)
    if best is None:
        return None
    p, symbol = best
    eq_idx = [i for i in indices if feats[i][p] == symbol]
    ne_idx = [i for i in indices if feats[i][p] != symbol]
    return p, symbol, eq_idx, ne_idx


def _grow_reference(feats, labs, width) -> list[list]:
    # Iterative with an explicit stack; equality-split chains get deep
    # enough to threaten the interpreter recursion limit. Nodes are
    # appended in pre-order, eq subtree first; a child's index goes into
    # its parent's slot 2 (eq) or 3 (ne).
    nodes: list[list] = []
    stack = [(None, 0, list(range(len(labs))))]
    while stack:
        parent, slot, indices = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        counts: dict[str, int] = {}
        for i in indices:
            label = labs[i]
            counts[label] = counts.get(label, 0) + 1
        if len(counts) == 1 or len(indices) < 2:
            nodes.append([_majority_label(counts), counts])
            continue
        split = _best_split(feats, labs, indices, counts, width)
        if split is None:
            nodes.append([_majority_label(counts), counts])
            continue
        p, symbol, eq_idx, ne_idx = split
        node = [p, symbol, 0, 0]
        nodes.append(node)
        stack.append((node, 3, ne_idx))
        stack.append((node, 2, eq_idx))
    return nodes


def _reference_nodes(samples):
    return _grow_reference(
        [s.features for s in samples], [s.label for s in samples], len(samples[0].features)
    )


_SYMBOLS = [*_LETTERS, PAD]


@st.composite
def _sample_sets(draw):
    """Random windows over a small alphabet with PAD, plus feature vectors
    repeated under another label (conflicts) and an optional XOR block,
    whose first split has zero impurity decrease."""
    width = draw(st.integers(1, 4))
    vector = st.tuples(*[st.sampled_from(_SYMBOLS)] * width)
    samples = [
        Row(features, label)
        for features, label in draw(
            st.lists(st.tuples(vector, st.sampled_from(_LABELS)), min_size=1, max_size=60)
        )
    ]
    for k, label in draw(
        st.lists(st.tuples(st.integers(0, len(samples) - 1), st.sampled_from(_LABELS)), max_size=8)
    ):
        samples.append(Row(samples[k].features, label))
    if width >= 2 and draw(st.booleans()):
        tail = (PAD,) * (width - 2)
        samples += [
            Row((a, b) + tail, "a" if (a == "а") == (b == "а") else "b")
            for a in ("а", "б")
            for b in ("а", "б")
        ]
    return width, draw(st.permutations(samples))


@settings(max_examples=200, deadline=None)
@given(case=_sample_sets())
def test_matches_reference_grower(case):
    width, samples = case
    assert grow_rows(samples, range(width)) == _reference_nodes(samples)


def _plain(hists):
    # Counter == ignores zero counts (Python 3.10+); dict == does not
    return {q: {label: dict(hist) for label, hist in per_label.items()}
            for q, per_label in hists.items()}


@settings(max_examples=200, deadline=None)
@given(case=_sample_sets())
def test_split_hands_each_child_its_own_counts(case):
    # At every split, each child's histograms are those a fresh count of
    # its rows gives on the positions its parent still scores: no label,
    # symbol or zero count too many or too few.
    width, samples = case
    split = dtree._split
    splits = []

    def checked_split(blocks, hists, p, code, n):
        positions = list(hists)
        children = split(blocks, hists, p, code, n)
        for rows, child_hists in children:
            assert list(child_hists) == positions
            assert _plain(child_hists) == _plain(dtree._label_hists(rows, positions))
        splits.append(p)
        return children

    with patch.object(dtree, "_split", checked_split):
        nodes = grow_rows(samples, range(width))
    assert len(splits) == sum(len(node) == 4 for node in nodes)


_MANY_SYMBOLS = ["а", "б", "в", "г", "д", "е", "ж", PAD]
_MANY_LABELS = ["", "a", "b", "ch", "sh", "o'", "g'", "ng", "ye", "yo", "yu", "ya"]


@st.composite
def _many_label_sets(draw):
    """Up to 12 labels over up to 8 symbols, skewed two ways: label
    frequencies fall off, and most samples carry their label's own symbol
    at each position. A split then often moves a whole small label into
    the smaller child, so that the label vanishes from the larger one."""
    width = draw(st.integers(1, 4))
    symbols = _MANY_SYMBOLS[: draw(st.integers(2, len(_MANY_SYMBOLS)))]
    labels = _MANY_LABELS[: draw(st.integers(2, len(_MANY_LABELS)))]
    index = st.integers(0, len(labels) - 1)
    samples = []
    for pair in draw(st.lists(st.tuples(index, index), min_size=2, max_size=80)):
        i = min(pair)  # the smaller of two draws favours the first labels
        own = symbols[i % len(symbols)]
        features = tuple(
            own if draw(st.integers(0, 3)) else draw(st.sampled_from(symbols))
            for _ in range(width)
        )
        samples.append(Row(features, labels[i]))
    return width, samples


@settings(max_examples=200, deadline=None)
@given(case=_many_label_sets())
def test_matches_reference_grower_with_many_labels(case):
    width, samples = case
    assert grow_rows(samples, range(width)) == _reference_nodes(samples)


def _walk(nodes, features):
    """The label of ``features`` under one tree's node list."""
    node = nodes[0]
    while len(node) == 4:
        f, s, eq, ne = node
        node = nodes[eq if features[f] == s else ne]
    return node[0]


def test_xor_block_matches_reference_grower():
    samples = [
        Row((a, b), "a" if a == b else "b") for a in ("а", "б") for b in ("а", "б")
    ]
    nodes = grow_rows(samples, range(2))
    assert len(nodes[0]) == 4  # the root splits
    assert nodes == _reference_nodes(samples)
    assert all(_walk(nodes, s.features) == s.label for s in samples)


@pytest.mark.parametrize(("x", "y"), [(0, 0), (1, 2), (3, 1)])
def test_matches_reference_grower_on_synthetic(synthetic_small, cyr2lat_table, x, y):
    """Each key's tree is the reference grower's on that key's
    deduplicated samples, and a key without samples gets its one leaf."""
    alignments, _ = align_corpus(synthetic_small.pairs, cyr2lat_table)
    window = WindowSpec(x, y)
    samples = dedup_samples(extract_samples(alignments, window))
    model = train(samples, cyr2lat_table)
    assert list(model.trees) == list(cyr2lat_table.entries)
    rows_by_key = {}
    for row in rows_of(samples):
        rows_by_key.setdefault(row.features[x], []).append(row)
    assert len(rows_by_key) > 20
    for key, candidates in cyr2lat_table.entries.items():
        if key in rows_by_key:
            assert model.trees[key] == _reference_nodes(rows_by_key[key]), key
        else:
            assert model.trees[key] == [[candidates[0], {}]]


def _window_rows(alignments, window):
    """Each key's deduplicated ``(features, label)`` rows, cut from
    ``window_features`` of every source word: the symbols themselves,
    never coded."""
    rows_by_key: dict = {}
    for pair in alignments:
        padded = window_features(pair.source, window)
        for i, label in enumerate(pair.target_segments):
            rows_by_key.setdefault(pair.source[i], {})[Row(padded[i : i + window.width], label)] = None
    return {key: list(rows) for key, rows in rows_by_key.items()}


def test_alphabet_past_256_codes_matches_reference_grower():
    """Over 300 symbols, among them "∆" (U+2206), which sorts after PAD
    ("∅-PAD"), and symbols coded at 256 and above: every key's tree is the
    reference grower's on that key's windows of symbols."""
    rng = random.Random(2906)
    letters = [chr(0x430 + i) for i in range(32)] + [chr(0x4E00 + i) for i in range(270)] + ["∆"]
    common = ["∆", "а", "б", letters[40], letters[300]]
    alignments = []
    for _ in range(600):
        word = "".join(
            rng.choice(common) if rng.random() < 0.6 else rng.choice(letters)
            for _ in range(rng.randint(1, 7))
        )
        labels = tuple(
            "a" if word[i + 1 : i + 2] in ("∆", letters[300]) else rng.choice(_LABELS)
            for i in range(len(word))
        )
        alignments.append(AlignedPair(word, labels))
    window = WindowSpec(2, 1)
    samples = dedup_samples(extract_samples(alignments, window))
    symbols = samples.symbols
    assert len(symbols) > 256 and symbols.index("∆") > symbols.index(PAD)
    model = train(samples, open_table(letters, _LABELS))
    tested = set()
    for key, rows in _window_rows(alignments, window).items():
        assert model.trees[key] == _reference_nodes(rows), key
        tested |= {node[1] for node in model.trees[key] if len(node) == 4}
    assert {"∆", PAD} <= tested
    assert any(symbols.index(symbol) >= 256 for symbol in tested)


def test_count_correct_on_symbols_training_never_saw():
    """Validation words hold symbols that training never held, some of
    them keys ("г"), some not ("q", "∆", which sorts after PAD), so the
    two extractions code their symbols differently: ``count_correct``
    counts what ``predict`` gives each padded word."""
    rng = random.Random(29)
    window = WindowSpec(1, 1)

    def words(alphabet, n):
        pairs = []
        for _ in range(n):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            labels = tuple(rng.choice([*_LABELS, "q"]) if ch == "q" else rng.choice(_LABELS)
                           for ch in word)
            pairs.append(AlignedPair(word, labels))
        return pairs

    for _ in range(30):
        model = train(dedup_samples(extract_samples(words("абв", 20), window)), OPEN_TABLE)
        validation = words("абвгq∆", 20)
        gold = extract_samples(validation, WindowSpec(2, 3))
        expected = sum(
            got == label
            for pair in validation
            for got, label in zip(
                predict(model, window_features(pair.source, window)), pair.target_segments
            )
        )
        assert dtree.count_correct(model, gold) == expected


@settings(max_examples=100, deadline=None)
@given(case=_sample_sets(), rng=st.randoms(use_true_random=False))
def test_training_ignores_sample_order(case, rng):
    # A tree depends only on the multiset of (window, label) samples, so
    # neither the key or label order nor the order within a label matters.
    width, samples = case
    window = WindowSpec(0, width - 1)
    samples = _focus_on_letters(samples, 0)
    shuffled = list(samples)
    rng.shuffle(shuffled)
    given_samples = samples_of(samples, window)
    before = rows_of(given_samples)
    got = serialize(train(given_samples, OPEN_TABLE))
    # train leaves its samples as they were, rows and their order
    assert rows_of(given_samples) == before
    assert serialize(train(samples_of(shuffled, window), OPEN_TABLE)) == got


# Reference walk: the binary index walk of the focus symbol's tree, which
# the compiled switches replaced. predict must return the same label for
# every valid file and every feature vector.

def _reference_predict(model, features):
    focus = features[model.window.x]
    if focus not in model.trees:
        return focus
    return _walk(model.trees[focus], features)


def _leaf(label):
    return [label, {label: 1}]


_FILE_TABLE = {"а": [*_LABELS, "d", "w", "x", "z"], "б": _LABELS}


def _model_file(trees, window=WindowSpec(0, 2), table=_FILE_TABLE):
    obj = {
        "format_version": 5,
        "window": {"x": window.x, "y": window.y},
        "table": table,
        "trees": trees,
    }
    return json.dumps(obj, ensure_ascii=False).encode("utf-8")


def test_chain_compiles_to_one_switch_where_the_earlier_test_wins():
    # position 1 is tested for "а" twice; the second test is unreachable
    nodes = [[1, "а", 1, 2], _leaf("x"), [1, "а", 3, 4], _leaf("z"),
             [1, "б", 5, 6], _leaf("w"), _leaf("d")]
    model = deserialize(_model_file({"а": nodes, "б": [_leaf("b")]}, WindowSpec(0, 1)))
    assert model.switches == {"а": (1, {"а": "x", "б": "w"}, "d"), "б": "b"}
    for symbol in ("а", "б", "в"):
        assert predict(model, ("а", symbol)) == [_reference_predict(model, ("а", symbol))]


def _chain(links, default):
    """Nest ``(f, s, eq subtree)`` links into an ne chain ending in default."""
    tree = default
    for f, s, eq in reversed(links):
        tree = (f, s, eq, tree)
    return tree


def _flatten(tree) -> list[list]:
    """Nested ``(f, s, eq, ne)`` tuples and leaf lists to the pre-order
    node list, eq subtree first."""
    nodes: list[list] = []
    stack = [(tree, None, 0)]
    while stack:
        sub, parent, slot = stack.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        if isinstance(sub, list):
            nodes.append(_leaf(sub[0]))
            continue
        f, s, eq, ne = sub
        node = [f, s, 0, 0]
        nodes.append(node)
        stack.append((ne, node, 3))
        stack.append((eq, node, 2))
    return nodes


# Chains of one to six links over the two context positions of the
# window (0, 2) and three symbols, so a chain often repeats a symbol or
# alternates positions, and an eq subtree is often a chain itself.
_hand_made_trees = st.recursive(
    st.sampled_from(_LABELS).map(_leaf),
    lambda sub: st.builds(
        _chain,
        st.lists(
            st.tuples(st.integers(1, 2), st.sampled_from(["а", "б", PAD]), sub),
            min_size=1,
            max_size=6,
        ),
        sub,
    ),
    max_leaves=25,
)
_hand_made_files = st.builds(
    lambda a, b: deserialize(_model_file({"а": _flatten(a), "б": _flatten(b)})),
    _hand_made_trees,
    _hand_made_trees,
)


@settings(max_examples=150, deadline=None)
@given(
    model=_hand_made_files,
    symbols=st.lists(st.sampled_from(["а", "б", PAD, "в"]), min_size=2, max_size=12),
)
def test_walk_over_a_sequence_labels_every_window(model, symbols):
    """One call over a sequence longer than the width, with PAD and the
    unseen symbol "в" anywhere in it, labels each of its windows as the
    reference walk labels that window's slice."""
    width = model.window.width
    expected = [
        _reference_predict(model, symbols[i : i + width])
        for i in range(len(symbols) - width + 1)
    ]
    assert predict(model, symbols) == expected


def _long_chain_file(links, positions):
    """A model file whose key "а" holds an ne chain of ``links`` tests,
    link k testing position ``1 + k % positions`` of the window (0, 2)
    for the symbol ``str(k)`` with leaf ``l<k>`` on eq, ending in the leaf
    ``default``; key "б" holds one leaf."""
    nodes: list[list] = []
    for k in range(links):
        i = len(nodes)
        nodes += [[1 + k % positions, str(k), i + 1, i + 2], _leaf(f"l{k}")]
    nodes.append(_leaf("default"))
    table = {"а": [f"l{k}" for k in range(links)] + ["default"], "б": ["b"]}
    return _model_file({"а": nodes, "б": [_leaf("b")]}, table=table)


def _stack_depth():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@pytest.mark.parametrize("positions", [1, 2], ids=["one-position", "alternating"])
def test_long_chain_file_compiles_in_one_pass(positions):
    """A key whose tree is a 100,001-node ne chain loads and predicts with
    the interpreter's recursion limit barely above the current stack
    depth. On one position it is one switch; alternating positions leave
    50,000 nested switches, which the walk still follows in a loop."""
    links = 50_000
    payload = _long_chain_file(links, positions)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        model = deserialize(payload)
        got = [predict(model, ("а", str(k), str(k))) for k in (0, 1, 25_000, links - 1)]
        unseen = predict(model, ("а", "x", "x"))
    finally:
        sys.setrecursionlimit(limit)
    assert got == [["l0"], ["l1"], ["l25000"], [f"l{links - 1}"]]
    assert unseen == ["default"]
    if positions == 1:
        f, cases, default = model.switches["а"]
        assert (f, len(cases), default) == (1, links, "default")


@pytest.mark.parametrize(
    ("positions", "expected"),
    [(1, ["l0", "0", "l9", "9", "b"]), (2, ["l0", "0", "default", "9", "b"])],
    ids=["one-position", "alternating"],
)
def test_long_chain_file_transliterates_in_one_pass(positions, expected):
    """pipeline.predict_segments on the chain above, under the same
    recursion limit. Each "а" walks the chain and "б" its one leaf; the
    digits are not table keys and pass through."""
    payload = _long_chain_file(50_000, positions)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        model = deserialize(payload)
        got = predict_segments(model, "а0а9б")
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


@pytest.mark.parametrize(("direction", "x", "y"), [(CYR2LAT, 2, 3), (LAT2CYR, 4, 3)])
def test_lexicon_models_match_reference_walk(lexicon, direction, x, y):
    """The README-default windows, trained on the 70% seed-42 lexicon split,
    on 2,000 synthetic words: one call per padded word labels every slice
    of it as the reference walk does."""
    train_part, _, _ = split_corpus(lexicon, SplitConfig(0.7, 0.15, 0.15, seed=42))
    model = train_direction(train_part, WindowSpec(x, y), bundled_mapping_table(direction))
    width = model.window.width
    windows = 0
    mismatched = []
    for source, _ in gen_corpus(2000, 42).oriented(direction):
        padded = window_features(source, model.window)
        expected = [_reference_predict(model, padded[i : i + width]) for i in range(len(source))]
        windows += len(expected)
        if predict(model, padded) != expected:
            mismatched.append(source)
    assert windows > 10_000
    assert mismatched == []


@pytest.mark.parametrize("direction", [CYR2LAT, LAT2CYR])
def test_count_correct_reads_wider_rows_as_predict_reads_narrowed_ones(lexicon, direction):
    """For every window x, y in 0..4, on the lexicon's seed-42 split:
    each validation window, extracted at x = y = 4 and read in place,
    counts as correct under the label predict gives its narrowed row and
    under no other label."""
    table = bundled_mapping_table(direction)
    train_part, val_part, _ = split_corpus(lexicon, SplitConfig(0.7, 0.15, 0.15, seed=42))
    alignments, _ = align_corpus(val_part.oriented(direction), table)
    gold = extract_samples(alignments, WindowSpec(4, 4))
    assert len(gold) > 300
    for x, y in itertools.product(range(5), repeat=2):
        window = WindowSpec(x, y)
        model = train_direction(train_part, window, table)
        narrowed = gold.narrowed(window)
        expected = 0
        for focus, labels in gold.blocks.items():
            for label, rows in labels.items():
                for row, narrow in zip(rows, narrowed.blocks[focus][label]):
                    predicted = predict(model, decode(narrow, gold.symbols))[0]
                    expected += predicted == label
                    for other in {predicted, label}:
                        one = Samples(gold.window, {focus: {other: [row]}}, gold.symbols)
                        assert dtree.count_correct(model, one) == (other == predicted)
        assert dtree.count_correct(model, gold) == expected
        assert dtree.count_correct(model, narrowed) == expected
    # the model's window must fit inside the samples'
    widest = train_direction(train_part, WindowSpec(4, 4), table)
    for smaller in (WindowSpec(3, 4), WindowSpec(4, 3)):
        with pytest.raises(ValueError, match="does not fit inside"):
            dtree.count_correct(widest, gold.narrowed(smaller))


# model.switches holds, per table key, that key's tree compiled for
# predict, and predict starts a window at its focus symbol's entry.

def _reference_compile(nodes, i=0):
    """Reference compilation, recursive: a leaf becomes its label, and a
    test joins the switch its ne child compiled to when that switch tests
    the same position, its own symbol overriding a deeper test of it."""
    node = nodes[i]
    if len(node) == 2:
        return node[0]
    f, s, eq, ne = node
    rest = _reference_compile(nodes, ne)
    if type(rest) is tuple and rest[0] == f:
        return (f, {**rest[1], s: _reference_compile(nodes, eq)}, rest[2])
    return (f, {s: _reference_compile(nodes, eq)}, rest)


def _check_switches_and_walk(model, symbols):
    """switches holds one entry per table key, equal to the reference
    compilation of that key's tree; and predict equals the reference walk
    on every window over ``symbols``, whatever symbol sits at the focus."""
    assert list(model.switches) == list(model.table.entries)
    for key, compiled in model.switches.items():
        assert compiled == _reference_compile(model.trees[key])
    for features in itertools.product(symbols, repeat=model.window.width):
        assert predict(model, features) == [_reference_predict(model, features)]


# x = 0 keeps 100 examples of its own; the focus positions 1 to 3 share
# another 100, each clamped to the drawn window.
@pytest.mark.parametrize("xs", [range(1), range(1, 4)], ids=["x0", "x1-3"])
@settings(max_examples=100, deadline=None)
@given(case=_sample_sets(), data=st.data())
def test_trained_switches_and_walk_match_reference(xs, case, data):
    # "г" is a key training never saw and "q" is no key
    width, samples = case
    x = min(data.draw(st.sampled_from(xs)), width - 1)
    samples = _focus_on_letters(samples, x)
    model = train(samples_of(samples, WindowSpec(x, width - 1 - x)), OPEN_TABLE)
    _check_switches_and_walk(model, [*_SYMBOLS, "г", "q"])


@settings(max_examples=150, deadline=None)
@given(model=_hand_made_files)
def test_hand_made_switches_and_walk_match_reference(model):
    # the focus is position 0; the keys are "а" and "б", and "в" is not one
    _check_switches_and_walk(model, ["а", "б", PAD, "в"])


@pytest.mark.parametrize(
    ("trees", "switches"),
    [
        # a test of the focus below a test of another position: no tree of
        # a key's samples holds one, and loading refuses it
        ({"а": (1, "а", (0, "б", ["a"], ["b"]), ["ch"]), "б": ["b"]}, None),
        # a symbol tested twice in one chain: the first test wins
        ({"а": (1, "а", ["x"], (1, "а", ["z"], (1, "б", ["w"], ["d"]))), "б": ["b"]},
         {"а": (1, {"а": "x", "б": "w"}, "d"), "б": "b"}),
        # "б" was never seen in training: its one leaf, with no counts
        ({"а": (2, PAD, ["a"], ["b"]), "б": [["b", {}]]},
         {"а": (2, {PAD: "a"}, "b"), "б": "b"}),
        # every tree a single leaf
        ({"а": ["a"], "б": [""]}, {"а": "a", "б": ""}),
    ],
    ids=["focus-below-other", "key-tested-twice", "key-never-tested", "single-leaf"],
)
def test_switches_of_hand_made_files(trees, switches):
    payload = _model_file({
        key: tree if isinstance(tree[0], list) else _flatten(tree) for key, tree in trees.items()
    })
    if switches is None:
        with pytest.raises(ModelFormatError, match="tests the focus position 0"):
            deserialize(payload)
        return
    model = deserialize(payload)
    assert model.switches == switches
    _check_switches_and_walk(model, ["а", "б", PAD, "в"])


# A model checks and compiles its trees when it is constructed, whether
# trained, loaded or assembled by hand.

_DIRECT_TABLE = MappingTable({"x": ("х",), "o": ("о", "ў")})


@pytest.mark.parametrize(
    ("trees", "message"),
    [
        ({"x": _X_TREE, "o": [[1, "x", 1, 2], *_LEAVES]},
         "tree of 'o': node 0 tests the focus position 1"),
        ({"x": _X_TREE, "o": [_SPLIT, ["х", {"х": 1}], _LEAVES[1]]},
         "tree of 'o': node 1: leaf label 'х' is not a table candidate"),
        ({"x": _X_TREE, "o": [[0, "x", 1, 2], [0, "y", 2, 3], *_LEAVES]},
         "tree of 'o': node 2 has more than one parent"),
        ({"x": _X_TREE}, "model trees are not one per table key: ['o']"),
    ],
    ids=["tests-focus", "label-unlicensed", "shared-child", "missing-key"],
)
def test_directly_built_model_is_checked(trees, message):
    window = WindowSpec(1, 0)
    model = dtree.TranslitModel({"x": _X_TREE, "o": [_SPLIT, *_LEAVES]}, window, _DIRECT_TABLE)
    assert model.switches == {"x": "х", "o": (0, {"x": "о"}, "ў")}
    with pytest.raises(ModelFormatError) as raised:
        dtree.TranslitModel(trees, window, _DIRECT_TABLE)
    assert str(raised.value) == message


@pytest.mark.parametrize(("direction", "x", "y"), [(CYR2LAT, 2, 3), (LAT2CYR, 4, 3)])
def test_trained_model_switches_match_reference_compile(lexicon, direction, x, y):
    """dtree.train compiles every key's tree as it builds the model: the
    switches equal the reference compilation of the node lists."""
    model = train_direction(lexicon, WindowSpec(x, y), bundled_mapping_table(direction))
    assert model.switches == {
        key: _reference_compile(nodes) for key, nodes in model.trees.items()
    }


@pytest.mark.parametrize(
    ("table", "tree", "message"),
    [
        ({"a": ["\ud800"]}, [["\ud800", {}]],
         "model file: table key 'a': candidate '\\ud800' cannot be written to a table file"),
        ({"\ud800": ["b"]}, [["b", {}]],
         "model file: table key '\\ud800' cannot be written to a table file"),
        ({"a": ["b"]}, [["b", {"zzz": 1}]],
         "tree of 'a': node 0: leaf counts are not keyed by table candidates"),
        ({"a": ["b"]}, [["b", {"\ud800": 1}]],
         "tree of 'a': node 0: leaf counts are not keyed by table candidates"),
        ({"a": ["b", "c"]}, [[1, "\ud800", 1, 2], ["b", {"b": 1}], ["c", {"c": 1}]],
         "tree of 'a': node 0: test symbol '\\ud800' holds a lone surrogate"),
    ],
    ids=["surrogate-candidate", "surrogate-key", "counts-not-candidate",
         "counts-surrogate", "symbol-surrogate"],
)
def test_model_file_holds_only_what_it_can_write_back(table, tree, message):
    """A model file that loads serializes again: no lone surrogate, which
    UTF-8 cannot encode, and leaf counts keyed by the key's candidates."""
    obj = {"format_version": 5, "window": {"x": 0, "y": 1}, "table": table}
    obj["trees"] = {key: tree for key in table}
    with pytest.raises(ModelFormatError) as raised:
        deserialize(json.dumps(obj).encode("utf-8"))
    assert str(raised.value) == message


@pytest.mark.parametrize("payload", [b"[]", b'"model"', b"5", b"null"])
def test_model_file_that_is_no_object_is_rejected(payload):
    with pytest.raises(ModelFormatError, match="not a JSON object"):
        deserialize(payload)
