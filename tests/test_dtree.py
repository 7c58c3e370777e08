import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from uztranslit import dtree
from uztranslit.aligner import align_word
from uztranslit.alphabets import CYR2LAT, LAT2CYR, bundled_mapping_table
from uztranslit.dtree import (
    EmptyCountsError,
    EmptyTrainingSetError,
    InconsistentFeatureWidthError,
    ModelFormatError,
    ModelVersionError,
    TranslitModel,
    WidthMismatchError,
    _majority_label,
    deserialize,
    gini,
    predict,
    serialize,
    train,
)
from uztranslit.featurizer import (
    PAD,
    Sample,
    WindowSpec,
    dedup_samples,
    extract_samples,
    window_features,
)
from uztranslit.gencorpus import gen_corpus
from uztranslit.pipeline import SplitConfig, split_corpus, train_direction

CYR2LAT_TABLE = bundled_mapping_table(CYR2LAT)


def table7_samples(cyr2lat_table):
    pair = align_word("қўзичоқ", "qo'zichoq", cyr2lat_table)
    return extract_samples(pair, WindowSpec(x=2, y=1))


@pytest.mark.parametrize(
    ("counts", "expected"),
    [
        ({"a": 5}, 0.0),
        ({"a": 1, "b": 1}, 0.5),
        ({"a": 3, "b": 1}, 0.375),
    ],
)
def test_gini_values(counts, expected):
    assert gini(counts) == pytest.approx(expected, abs=1e-15)


def test_gini_empty_counts():
    with pytest.raises(EmptyCountsError):
        gini({})


def test_pure_fit_on_table7(cyr2lat_table):
    samples = table7_samples(cyr2lat_table)
    model = train(samples, WindowSpec(2, 1), CYR2LAT_TABLE)
    for sample in samples:
        assert predict(model, sample.features) == sample.label
    # the spotlighted row: [қ, ў, з, и] -> z
    assert predict(model, ("қ", "ў", "з", "и")) == "z"


def test_single_sample_single_leaf():
    model = train([Sample(("ф",), "b")], WindowSpec(0, 0), CYR2LAT_TABLE)
    assert predict(model, ("ф",)) == "b"
    assert predict(model, ("ю",)) == "b"  # sole leaf catches everything


def test_unsplittable_node_majority_vote():
    f = ("х", "у")
    samples = [Sample(f, "a"), Sample(f, "a"), Sample(f, "b")]
    model = train(samples, WindowSpec(1, 0), CYR2LAT_TABLE)
    assert predict(model, f) == "a"


def test_majority_tie_breaks_lexicographically():
    f = ("х",)
    model = train([Sample(f, "b"), Sample(f, "a")], WindowSpec(0, 0), CYR2LAT_TABLE)
    assert predict(model, f) == "a"


def test_empty_training_set():
    with pytest.raises(EmptyTrainingSetError):
        train([], WindowSpec(1, 1), CYR2LAT_TABLE)


def test_inconsistent_width_rejected():
    samples = [Sample(("а", "б", "в"), "x"), Sample(("а", "б"), "y")]
    with pytest.raises(InconsistentFeatureWidthError):
        train(samples, WindowSpec(1, 1), CYR2LAT_TABLE)


def test_predict_width_mismatch(cyr2lat_table):
    model = train(table7_samples(cyr2lat_table), WindowSpec(2, 1), CYR2LAT_TABLE)
    with pytest.raises(WidthMismatchError):
        predict(model, ("қ", "ў"))


def test_unseen_symbols_follow_false_branch(cyr2lat_table):
    model = train(table7_samples(cyr2lat_table), WindowSpec(2, 1), CYR2LAT_TABLE)
    # '9' was never in training; prediction still lands on some leaf
    label = predict(model, ("9", "9", "9", "9"))
    assert isinstance(label, str)


def test_internal_nodes_have_both_sides(cyr2lat_table):
    model = train(table7_samples(cyr2lat_table), WindowSpec(2, 1), CYR2LAT_TABLE)
    nodes = model.nodes
    children = []
    for i, node in enumerate(nodes):
        if len(node) == 4:
            # pre-order, eq subtree first: eq is the next node, ne follows it
            assert node[2] == i + 1 < node[3] < len(nodes)
            children += node[2:]
    # every node but the root is the child of exactly one node
    assert sorted(children) == list(range(1, len(nodes)))


def test_training_deterministic(cyr2lat_table):
    samples = table7_samples(cyr2lat_table)
    a = serialize(train(samples, WindowSpec(2, 1), CYR2LAT_TABLE))
    b = serialize(train(samples, WindowSpec(2, 1), CYR2LAT_TABLE))
    assert a == b


def _random_samples(rng, n, width, n_symbols=6, n_labels=4):
    symbols = [chr(ord("а") + k) for k in range(n_symbols)] + [PAD]
    labels = ["", "a", "b", "ch"][:n_labels]
    return [
        Sample(
            tuple(rng.choice(symbols) for _ in range(width)),
            rng.choice(labels),
        )
        for _ in range(n)
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
    samples = _random_samples(rng, n, width=3)
    # keep the first label seen per feature vector: conflict-free by construction
    kept = {}
    for s in samples:
        kept.setdefault(s.features, s)
    samples = list(kept.values())
    assert _conflict_free(samples)
    model = train(samples, WindowSpec(1, 1), CYR2LAT_TABLE)
    assert all(predict(model, s.features) == s.label for s in samples)


def _oracle_best_decrease(samples):
    """Independent exhaustive split scorer used as the optimality oracle."""
    n = len(samples)
    totals = {}
    for s in samples:
        totals[s.label] = totals.get(s.label, 0) + 1
    parent = 1.0 - sum(c * c for c in totals.values()) / (n * n)
    best = 0.0
    width = len(samples[0].features)
    for p in range(width):
        for symbol in {s.features[p] for s in samples}:
            eq = [s for s in samples if s.features[p] == symbol]
            ne = [s for s in samples if s.features[p] != symbol]
            if not eq or not ne:
                continue

            def g(part):
                counts = {}
                for s in part:
                    counts[s.label] = counts.get(s.label, 0) + 1
                m = len(part)
                return 1.0 - sum(c * c for c in counts.values()) / (m * m)

            decrease = parent - (len(eq) / n) * g(eq) - (len(ne) / n) * g(ne)
            best = max(best, decrease)
    return best


def _chosen_decrease(samples, model):
    root = model.nodes[0]
    if len(root) != 4:
        return None
    feature_index, test_symbol = root[:2]
    n = len(samples)
    totals = {}
    for s in samples:
        totals[s.label] = totals.get(s.label, 0) + 1
    parent = 1.0 - sum(c * c for c in totals.values()) / (n * n)
    eq = [s for s in samples if s.features[feature_index] == test_symbol]
    ne = [s for s in samples if s.features[feature_index] != test_symbol]

    def g(part):
        counts = {}
        for s in part:
            counts[s.label] = counts.get(s.label, 0) + 1
        m = len(part)
        return 1.0 - sum(c * c for c in counts.values()) / (m * m)

    return parent - (len(eq) / n) * g(eq) - (len(ne) / n) * g(ne)


def test_split_matches_bruteforce_oracle():
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        samples = _random_samples(rng, rng.randint(2, 50), width=rng.randint(1, 4))
        model = train(samples, WindowSpec(0, len(samples[0].features) - 1), CYR2LAT_TABLE)
        oracle = _oracle_best_decrease(samples)
        chosen = _chosen_decrease(samples, model)
        if chosen is None:
            # trainer refused to split; oracle must agree nothing helps
            assert oracle <= 1e-12
        else:
            assert math.isclose(chosen, oracle, abs_tol=1e-12)
            checked += 1
    assert checked > 50


def test_serialize_roundtrip_identical_predictions(cyr2lat_table):
    samples = table7_samples(cyr2lat_table)
    model = train(samples, WindowSpec(2, 1), CYR2LAT_TABLE)
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
        Sample((PAD, "а"), "x"),
        Sample(("б", "а"), "y"),
        Sample(("в", "а"), "y"),
    ]
    payload = serialize(train(samples, WindowSpec(1, 0), CYR2LAT_TABLE))
    assert '[0,"∅-PAD",1,2]' in payload.decode("utf-8")


def test_truncated_file_is_corruption(cyr2lat_table):
    payload = serialize(train(table7_samples(cyr2lat_table), WindowSpec(2, 1), CYR2LAT_TABLE))
    with pytest.raises(ModelFormatError):
        deserialize(payload[: len(payload) // 2])


def test_future_version_rejected(cyr2lat_table):
    payload = serialize(train(table7_samples(cyr2lat_table), WindowSpec(2, 1), CYR2LAT_TABLE))
    obj = json.loads(payload)
    # version 1 stored a nested tree and version 2 a table fingerprint;
    # such files must be retrained
    for version in (99, 1):
        obj["format_version"] = version
        with pytest.raises(ModelVersionError, match="retrain"):
            deserialize(json.dumps(obj).encode("utf-8"))
    obj["format_version"] = 2
    del obj["table"]
    obj["table_fingerprint"] = "0" * 64
    with pytest.raises(ModelVersionError, match="retrain"):
        deserialize(json.dumps(obj).encode("utf-8"))


def test_structural_corruption_rejected():
    with pytest.raises(ModelFormatError):
        deserialize('{"format_version": 3, "direction": ["cyrillic","latin"], '
                    '"window": {"x": 1, "y": 1}, "table": {"а": ["a"]}, '
                    '"nodes": [[0, "x", 1]]}'.encode("utf-8"))
    with pytest.raises(ModelFormatError):
        deserialize('{"format_version": 3, "direction": [1, 2], '
                    '"window": {"x": 0, "y": 0}, "table": {"а": ["a"]}, '
                    '"nodes": [["a", {"a": 1}]]}'.encode("utf-8"))


def test_save_load_model(tmp_path, cyr2lat_table):
    model = train(table7_samples(cyr2lat_table), WindowSpec(2, 1), CYR2LAT_TABLE)
    path = tmp_path / "m.json"
    path.write_bytes(serialize(model))
    clone = dtree.load_model(path)
    assert serialize(clone) == serialize(model)


_LEAVES = [["a", {"a": 1}], ["b", {"b": 1}]]
_SPLIT = [0, "x", 1, 2]
_MISSING = object()


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
        pytest.param("nodes", [_SPLIT, [1, {"a": 1}], _LEAVES[1]], id="label-not-str"),
        pytest.param("nodes", [_SPLIT, ["a", {}], _LEAVES[1]], id="counts-empty"),
        pytest.param("nodes", [_SPLIT, ["a", [["a", 1]]], _LEAVES[1]], id="counts-not-map"),
        pytest.param("nodes", [_SPLIT, ["a", {"a": 0}], _LEAVES[1]], id="count-zero"),
        pytest.param("nodes", [_SPLIT, ["a", {"a": -1}], _LEAVES[1]], id="count-negative"),
        pytest.param("nodes", [_SPLIT, ["a", {"a": True}], _LEAVES[1]], id="count-bool"),
        pytest.param("nodes", [_SPLIT, ["a", {"a": 1.0}], _LEAVES[1]], id="count-float"),
        pytest.param("window", {"x": 1.0, "y": 0}, id="x-float"),
        pytest.param("window", {"x": True, "y": 0}, id="x-bool"),
        pytest.param("window", {"x": 1, "y": 0.0}, id="y-float"),
        pytest.param("window", {"x": 1, "y": "0"}, id="y-str"),
        pytest.param("direction", "ab", id="direction-str"),
        pytest.param("direction", ["a", "b", "c"], id="direction-of-3"),
        pytest.param("direction", ["a", 2], id="direction-not-str"),
        pytest.param("direction", ["latin", "latin"], id="direction-unknown"),
        pytest.param("direction", ["a", "b"], id="direction-not-a-script"),
        pytest.param("table", _MISSING, id="table-missing"),
        pytest.param("table", [["x", ["х"]]], id="table-not-object"),
        pytest.param("table", {}, id="table-empty"),
        pytest.param("table", {"sh": ["ш"]}, id="table-two-char-key"),
        pytest.param("table", {"x": []}, id="table-no-candidates"),
        pytest.param("table", {"x": ["х", "х"]}, id="table-duplicate-candidate"),
        pytest.param("table", {"x": ["х", 1]}, id="table-candidate-not-str"),
        pytest.param("table", {"x": "х"}, id="table-candidates-not-list"),
        pytest.param("table", {"х": ["x"], "ш": ["sh"]}, id="table-cyrillic-keys"),
    ],
)
def test_bad_feature_index_rejected(field, value):
    """Bad feature indices, every other malformed node list, and
    malformed windows, directions and tables, from a base object that
    loads."""
    obj = {
        "format_version": 3,
        "direction": ["latin", "cyrillic"],
        "window": {"x": 1, "y": 0},
        "table": {"x": ["х"], "o": ["о", "ў"]},
        "nodes": [_SPLIT, *_LEAVES],
    }
    loaded = deserialize(json.dumps(obj).encode("utf-8"))
    assert loaded.nodes == obj["nodes"]
    assert loaded.table.entries == {"x": ("х",), "o": ("о", "ў")}
    if value is _MISSING:
        del obj[field]
    else:
        obj[field] = value
    with pytest.raises(ModelFormatError):
        deserialize(json.dumps(obj).encode("utf-8"))


# Reference grower: the rescanning implementation that histogram
# subtraction replaced, kept verbatim. Every node rebuilds its histograms
# and label counts from its sample indices, which makes it slow but
# obviously correct; train() must produce the same bytes.

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
    parent_gini = gini(counts)
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


def _grow(feats, labs, width) -> list[list]:
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


def _reference_bytes(samples, window):
    nodes = _grow([s.features for s in samples], [s.label for s in samples], window.width)
    return serialize(TranslitModel(nodes=nodes, window=window, table=CYR2LAT_TABLE))


_SYMBOLS = ["а", "б", "в", PAD]
_LABELS = ["", "a", "b", "ch"]


@st.composite
def _sample_sets(draw):
    """Random windows over a small alphabet with PAD, plus feature vectors
    repeated under another label (conflicts) and an optional XOR block,
    whose first split has zero impurity decrease."""
    width = draw(st.integers(1, 4))
    vector = st.tuples(*[st.sampled_from(_SYMBOLS)] * width)
    samples = [
        Sample(features, label)
        for features, label in draw(
            st.lists(st.tuples(vector, st.sampled_from(_LABELS)), min_size=1, max_size=60)
        )
    ]
    for k, label in draw(
        st.lists(st.tuples(st.integers(0, len(samples) - 1), st.sampled_from(_LABELS)), max_size=8)
    ):
        samples.append(Sample(samples[k].features, label))
    if width >= 2 and draw(st.booleans()):
        tail = (PAD,) * (width - 2)
        samples += [
            Sample((a, b) + tail, "a" if (a == "а") == (b == "а") else "b")
            for a in ("а", "б")
            for b in ("а", "б")
        ]
    return width, draw(st.permutations(samples))


@settings(max_examples=200, deadline=None)
@given(case=_sample_sets())
def test_matches_reference_grower(case):
    width, samples = case
    window = WindowSpec(0, width - 1)
    got = serialize(train(samples, window, CYR2LAT_TABLE))
    assert got == _reference_bytes(samples, window)


def test_xor_block_matches_reference_grower():
    samples = [
        Sample((a, b), "a" if a == b else "b") for a in ("а", "б") for b in ("а", "б")
    ]
    window = WindowSpec(1, 0)
    model = train(samples, window, CYR2LAT_TABLE)
    assert len(model.nodes[0]) == 4  # the root splits
    assert serialize(model) == _reference_bytes(samples, window)
    assert all(predict(model, s.features) == s.label for s in samples)


@pytest.mark.parametrize(("x", "y"), [(0, 0), (1, 2), (3, 1)])
def test_matches_reference_grower_on_synthetic(synthetic_small, cyr2lat_table, x, y):
    from uztranslit.aligner import align_corpus

    alignments, _ = align_corpus(synthetic_small.pairs, cyr2lat_table)
    window = WindowSpec(x, y)
    samples = dedup_samples(
        [sample for pair in alignments for sample in extract_samples(pair, window)]
    )
    got = serialize(train(samples, window, CYR2LAT_TABLE))
    assert got == _reference_bytes(samples, window)


# Reference walk: the binary index walk that the compiled switches
# replaced. predict must return the same label for every valid file and
# every feature vector.

def _reference_predict(model, features):
    nodes = model.nodes
    node = nodes[0]
    while len(node) == 4:
        f, s, eq, ne = node
        node = nodes[eq if features[f] == s else ne]
    return node[0]


def _leaf(label):
    return [label, {label: 1}]


def _model_file(nodes, window=WindowSpec(1, 0)):
    obj = {
        "format_version": 3,
        "direction": list(CYR2LAT),
        "window": {"x": window.x, "y": window.y},
        "table": {"а": ["a"], "б": ["b"]},
        "nodes": nodes,
    }
    return json.dumps(obj, ensure_ascii=False).encode("utf-8")


def test_chain_compiles_to_one_switch_where_the_earlier_test_wins():
    # position 0 is tested for "а" twice; the second test is unreachable
    nodes = [[0, "а", 1, 2], _leaf("x"), [0, "а", 3, 4], _leaf("z"),
             [0, "б", 5, 6], _leaf("w"), _leaf("d")]
    model = deserialize(_model_file(nodes, WindowSpec(0, 0)))
    assert model.switches == (0, {"а": "x", "б": "w"}, "d")
    for symbol in ("а", "б", "в"):
        assert predict(model, (symbol,)) == _reference_predict(model, (symbol,))


@settings(max_examples=100, deadline=None)
@given(case=_sample_sets())
def test_compiled_walk_matches_reference_on_trained_trees(case):
    width, samples = case
    model = train(samples, WindowSpec(0, width - 1), CYR2LAT_TABLE)
    # every vector over the training symbols and one unseen symbol
    for features in itertools.product([*_SYMBOLS, "г"], repeat=width):
        assert predict(model, features) == _reference_predict(model, features)


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


# Chains of one to six links over two positions and three symbols, so a
# chain often repeats a symbol or alternates positions, and an eq subtree
# is often a chain itself.
_hand_made_trees = st.recursive(
    st.sampled_from(_LABELS).map(_leaf),
    lambda sub: st.builds(
        _chain,
        st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from(["а", "б", PAD]), sub),
            min_size=1,
            max_size=6,
        ),
        sub,
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(tree=_hand_made_trees)
def test_compiled_walk_matches_reference_on_hand_made_files(tree):
    model = deserialize(_model_file(_flatten(tree)))
    for features in itertools.product(["а", "б", PAD, "в"], repeat=2):
        assert predict(model, features) == _reference_predict(model, features)


@pytest.mark.parametrize("positions", [1, 2], ids=["one-position", "alternating"])
def test_long_chain_file_compiles_in_one_pass(positions):
    """A 100,001-node ne chain loads and predicts with the interpreter's
    recursion limit barely above the current stack depth. On one position
    it is one switch; alternating positions leave 50,000 nested switches,
    which the walk still follows in a loop."""
    links = 50_000
    nodes: list[list] = []
    for k in range(links):
        i = len(nodes)
        nodes += [[k % positions, str(k), i + 1, i + 2], _leaf(f"l{k}")]
    nodes.append(_leaf("default"))
    payload = _model_file(nodes)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        model = deserialize(payload)
        got = [predict(model, (str(k), str(k))) for k in (0, 1, 25_000, links - 1)]
        unseen = predict(model, ("x", "x"))
    finally:
        sys.setrecursionlimit(limit)
    assert got == ["l0", "l1", "l25000", f"l{links - 1}"]
    assert unseen == "default"
    if positions == 1:
        f, cases, default = model.switches
        assert (f, len(cases), default) == (0, links, "default")


@pytest.mark.parametrize(("direction", "x", "y"), [(CYR2LAT, 2, 3), (LAT2CYR, 4, 3)])
def test_lexicon_models_match_reference_walk(lexicon, direction, x, y):
    """The README-default windows, trained on the 70% seed-42 lexicon split,
    on every window of 2,000 synthetic words."""
    train_part, _, _ = split_corpus(lexicon, SplitConfig(0.7, 0.15, 0.15, seed=42))
    model = train_direction(train_part, WindowSpec(x, y), bundled_mapping_table(direction))
    windows = [
        features
        for source, _ in gen_corpus(2000, 42).oriented(direction)
        for features in window_features(source, model.window)
    ]
    assert len(windows) > 10_000
    mismatched = [
        f for f in windows if predict(model, f) != _reference_predict(model, f)
    ]
    assert mismatched == []
