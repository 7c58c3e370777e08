import hashlib
import json
import random
import unicodedata
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import count_by_character, varying_keys
from uztranslit import dtree, pipeline
from uztranslit.aligner import align_word
from uztranslit.alphabets import (
    APOSTROPHE_VARIANTS,
    CYR2LAT,
    LAT2CYR,
    MappingTable,
    bundled_mapping_table,
    normalize_word,
)
from uztranslit.featurizer import WindowSpec, window_features
from uztranslit.gencorpus import gen_corpus
from uztranslit.pipeline import (
    REFERENCE_FRACTIONS,
    Corpus,
    GridCell,
    SplitConfig,
    apply_case_pattern,
    cross_validate,
    evaluate,
    grid_search,
    kfold,
    predict_segments,
    round_trip_check,
    split_corpus,
    split_sizes,
    train_direction,
    transliterate_word,
)


def test_reference_split_sizes():
    config = SplitConfig(*REFERENCE_FRACTIONS, seed=42)
    assert split_sizes(12418, config) == (9499, 1677, 1242)


def test_split_three_even():
    config = SplitConfig(1 / 3, 1 / 3, 1 / 3, seed=0)
    corpus = Corpus([("а", "a"), ("б", "b"), ("в", "v")])
    parts = split_corpus(corpus, config)
    assert [len(p.pairs) for p in parts] == [1, 1, 1]


def test_split_deterministic(synthetic_small):
    config = SplitConfig(0.7, 0.15, 0.15, seed=99)
    first = split_corpus(synthetic_small, config)
    second = split_corpus(synthetic_small, config)
    for a, b in zip(first, second):
        assert a.pairs == b.pairs


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 300),
    seed=st.integers(0, 2**31),
    cut=st.tuples(st.integers(1, 98), st.integers(1, 98)),
)
def test_split_partitions_corpus(n, seed, cut):
    a, b = sorted(cut)
    f1, f2, f3 = a / 100, (b - a) / 100 if b > a else 0.01, 0.0
    f3 = 1.0 - f1 - f2
    if min(f1, f2, f3) <= 0:
        return
    config = SplitConfig(f1, f2, f3, seed=seed)
    corpus = Corpus([(f"а{i}", f"a{i}") for i in range(n)])
    try:
        train, val, test = split_corpus(corpus, config)
    except ValueError:
        return  # degenerate empty split for this n
    combined = train.pairs + val.pairs + test.pairs
    assert sorted(combined) == sorted(corpus.pairs)
    assert len(combined) == n
    assert not (set(train.pairs) & set(val.pairs))
    assert not (set(val.pairs) & set(test.pairs))
    assert not (set(train.pairs) & set(test.pairs))


def test_split_empty_corpus_rejected():
    with pytest.raises(ValueError):
        split_corpus(Corpus([]), SplitConfig(0.5, 0.25, 0.25))


def test_degenerate_fractions_rejected():
    corpus = Corpus([("а", "a"), ("б", "b")])
    with pytest.raises(ValueError, match="empty part"):
        split_corpus(corpus, SplitConfig(0.98, 0.01, 0.01))


@pytest.mark.parametrize(
    "fractions",
    [(0.7, 0.2, 0.2), (0.7649, 0.1350, 0.1000), (1.2, -0.1, -0.1), (0.5, 0.5, 0.0)],
)
def test_invalid_fractions_rejected(fractions):
    # the 4-decimal rounding of the reference proportions sums to 0.9999
    with pytest.raises(ValueError):
        SplitConfig(*fractions)


def test_corpus_loading_filters_junk(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text(
        "# header\n"
        "бола\tbola\n"
        "икки суз\tikki so'z\n"  # whitespace inside: dropped
        "сав?ол\tsav?ol\n"  # punctuation: dropped
        "аста-секин\tasta-sekin\n"  # hyphen стays
        "МАЪЛУМ\tMA`LUM\n",  # normalized to lowercase + apostrophe
        encoding="utf-8",
    )
    corpus = pipeline.load_corpus(path)
    assert corpus.pairs == [
        ("бола", "bola"),
        ("аста-секин", "asta-sekin"),
        ("маълум", "ma'lum"),
    ]


def test_load_corpus_regression(tmp_path):
    # One line per apostrophe variant, per punctuation class (Pc Pd Ps Pe
    # Pi Pf Po), inner whitespace, comments and empty sides; the pairs
    # and provenance are the loader's output before its per-character
    # verdict cache and one-pass apostrophe fold.
    variants = "'\u2018\u2019`\u00b4\u02bb\u02bc"
    assert set(variants) == APOSTROPHE_VARIANTS
    path = tmp_path / "c.tsv"
    path.write_text(
        "# comment\n"
        "   # indented comment\tбола\tbola\n"
        "\n"
        "  \t \n"
        + "".join(f"Қўл\tQO{v}L\n" for v in variants)
        + "  бола  \t  Bola \n"
        "и\u0306ил\tyil\n"  # NFD й
        "аста-секин\tasta-sekin\n"
        "2х+$\t2x+$\n"  # digits and symbols stay
        + "".join(f"бо{p}ла\tbo{p}la\n" for p in "_\u2013()\u00ab\u00bb!.")
        + "бола\tbola,\n"
        "икки суз\tikki so'z\n"
        "бир\u00a0бир\tbir\u00a0bir\n"
        "бола\tbola\textra\n"
        "бола\t\n"
        "\tbola\n"
        "бола\n",
        encoding="utf-8",
    )
    corpus = pipeline.load_corpus(path)
    assert corpus.pairs == [("қўл", "qo'l")] * 7 + [
        ("бола", "bola"),
        ("йил", "yil"),
        ("аста-секин", "asta-sekin"),
        ("2х+$", "2x+$"),
    ]
    assert corpus.provenance == f"{path} (11 pairs, 15 dropped)"


def _reference_load_corpus(path) -> Corpus:
    """The loader that normalized each field on its own, line by line,
    and judged each character of each field."""

    def entry_ok(word):
        return bool(word) and all(
            ch in "-'" or not (ch.isspace() or unicodedata.category(ch).startswith("P"))
            for ch in word
        )

    pairs = []
    dropped = 0
    with open(path, encoding="utf-8-sig") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cyr, _, lat = line.partition("\t")
            cyr = normalize_word(cyr.strip())
            lat = normalize_word(lat.strip())
            if entry_ok(cyr) and entry_ok(lat):
                pairs.append((cyr, lat))
            else:
                dropped += 1
    return Corpus(pairs=pairs, provenance=f"{path} ({len(pairs)} pairs, {dropped} dropped)")


# Letters in NFC and NFD, combining marks that may land at a field's
# edge, Greek capital sigma (its lowercase depends on what follows it),
# every apostrophe variant, punctuation, and whitespace besides the
# ASCII space: U+2000 and U+2001, which NFC rewrites, NBSP, and NEL and
# U+2028, which str.splitlines would take for line ends.
_FIELD_CHARS = (
    ["б", "о", "Л", "а", "й", "и\u0306", "е\u0308", "Q", "o", "A", "Σ", "Α", "ς", "2", "-", "#"]
    + ["\u0301", "\u0306", "\u0308", "!", ".", "_", " ", "\u2000"]
    + sorted(APOSTROPHE_VARIANTS)
)
_SPACES = ["", " ", "\u2000", "\u2001", "\u00a0", "\x85", "\u2028", " \u2000"]


@st.composite
def _corpus_texts(draw):
    field = st.lists(st.sampled_from(_FIELD_CHARS), max_size=5).map("".join)
    space = st.sampled_from(_SPACES)
    lines = []
    for kind in draw(st.lists(st.sampled_from("ppppcbsx"), max_size=12)):
        if kind == "p":  # a pair, its fields padded with whitespace
            line = "\t".join(draw(space) + draw(field) + draw(space) for _ in range(2))
        elif kind == "c":
            line = draw(space) + "#" + draw(field) + "\t" + draw(field)
        elif kind == "b":
            line = draw(space)
        elif kind == "s":  # a single field
            line = draw(field)
        else:  # a third field
            line = "\t".join(draw(field) for _ in range(3))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=_corpus_texts(), block=st.sampled_from([1, 7, pipeline._LOAD_BLOCK_CHARS]))
@example(
    text="\ufeffΑΣ\tΣ\r\n  # x\r\u0301б\u0301\t\u2000Qo\u02bbL\u00a0\n\n ΣΑ\u2001\tαΣ'",
    block=7,
)
def test_load_corpus_matches_per_line_reference(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("corpus") / "c.tsv"
    path.write_bytes(text.encode("utf-8"))
    # Small blocks make the loader normalize the file in many pieces.
    saved, pipeline._LOAD_BLOCK_CHARS = pipeline._LOAD_BLOCK_CHARS, block
    try:
        corpus = pipeline.load_corpus(path)
    finally:
        pipeline._LOAD_BLOCK_CHARS = saved
    reference = _reference_load_corpus(path)
    assert corpus.pairs == reference.pairs
    assert corpus.provenance == reference.provenance


def test_corpus_save_load_roundtrip(tmp_path, synthetic_small):
    path = tmp_path / "c.tsv"
    pipeline.save_corpus(synthetic_small, path)
    again = pipeline.load_corpus(path)
    assert again.pairs == synthetic_small.pairs
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert pipeline.load_corpus(path).pairs == synthetic_small.pairs


def test_train_direction_pure_fit(lexicon, cyr2lat_table):
    model = train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table)
    assert model.direction == CYR2LAT
    assert model.window == WindowSpec(2, 3)
    assert model.table == cyr2lat_table
    report = evaluate(model, lexicon, cyr2lat_table)
    assert report.char_f1 == 1.0
    assert report.word_accuracy == 1.0


def test_train_direction_empty_corpus(cyr2lat_table):
    with pytest.raises(ValueError, match="no training pair could be aligned"):
        train_direction(Corpus([]), WindowSpec(1, 1), cyr2lat_table)


def test_train_direction_unalignable_corpus(cyr2lat_table):
    corpus = Corpus([("аб", "xyz")])
    with pytest.raises(ValueError, match="no training pair could be aligned"):
        train_direction(corpus, WindowSpec(1, 1), cyr2lat_table)


@pytest.mark.parametrize(
    ("cyr", "lat"),
    [
        ("октябрь", "oktabr"),
        ("китоб", "kitob"),
        ("2020", "2020"),
        ("цирк", "sirk"),
    ],
)
def test_transliterate_fixtures(lexicon, cyr2lat_table, cyr, lat):
    model = train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table)
    assert transliterate_word(model, cyr) == lat


def test_transliterate_reverse_fixture(lexicon, lat2cyr_table):
    model = train_direction(lexicon, WindowSpec(4, 3), lat2cyr_table)
    assert transliterate_word(model, "sirt") == "сирт"


def test_transliterate_total_on_arbitrary_text(lexicon, cyr2lat_table):
    model = train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table)
    assert transliterate_word(model, "§12-бола!") == "§12-bola!"


def test_transliterate_empty_word(lexicon, cyr2lat_table, lat2cyr_table):
    for table, window in ((cyr2lat_table, WindowSpec(2, 3)), (lat2cyr_table, WindowSpec(4, 3))):
        model = train_direction(lexicon, window, table)
        assert transliterate_word(model, "") == ""


def _overwrite_loop_segments(model, word):
    """The reference for predict_segments: every character is its own
    segment, and then each table key's is overwritten by the leaf its
    window reaches in the binary walk of that key's node list."""
    padded = window_features(word, model.window)
    segments = list(word)
    for i, ch in enumerate(word):
        if ch in model.table.entries:
            nodes = model.trees[ch]
            node = nodes[0]
            while len(node) == 4:
                f, s, eq, ne = node
                node = nodes[eq if padded[i + f] == s else ne]
            segments[i] = node[0]
    return segments


@pytest.fixture(scope="module")
def lexicon_models(lexicon, cyr2lat_table, lat2cyr_table):
    """The README-default windows, trained on the whole lexicon."""
    return [
        train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table),
        train_direction(lexicon, WindowSpec(4, 3), lat2cyr_table),
    ]


# table keys of both directions, digits, apostrophes, the hyphen and
# characters neither table holds
_MIXED_CHARS = "бoлaқ'ʼғg-–0179§!xw ъё"


@settings(max_examples=300, deadline=None)
@given(word=st.text(alphabet=_MIXED_CHARS, max_size=12))
@example(word="")
@example(word="qo'l-2x!")
@example(word="§12-бола!")
@example(word="октябрь-oktabr")
def test_predict_segments_matches_overwrite_loop(lexicon_models, word):
    for model in lexicon_models:
        assert pipeline.predict_segments(model, word) == _overwrite_loop_segments(model, word)


@pytest.fixture(scope="module")
def synthetic_models(cyr2lat_table, lat2cyr_table):
    corpus = gen_corpus(300, seed=8)
    return [train_direction(corpus, WindowSpec(2, 2), t) for t in (cyr2lat_table, lat2cyr_table)]


# every key of both tables, digits, hyphens, apostrophes, and characters
# neither table holds
_LICENSING_CHARS = "".join(
    sorted(set(bundled_mapping_table(CYR2LAT).entries) | set(bundled_mapping_table(LAT2CYR).entries))
) + "0179-–'ʼ§! "


@settings(max_examples=300, deadline=None)
@given(word=st.text(alphabet=_LICENSING_CHARS, max_size=12))
@example(word="")
@example(word="qo'l-2x!")
@example(word="қўл-2х!")
def test_every_segment_is_licensed(synthetic_models, word):
    """Each table key gets a segment the table allows for it, whatever
    its neighbours; every other character passes through."""
    for model in synthetic_models:
        segments = predict_segments(model, word)
        assert len(segments) == len(word)
        for ch, segment in zip(word, segments):
            candidates = model.table.candidates(ch)
            assert segment in candidates if candidates else segment == ch


def test_lexicon_models_keep_the_hyphen(lexicon_models):
    """The single lat2cyr tree of earlier versions dropped this hyphen
    (қўл2х!). Under cyr2lat the hyphen is the only key of qo'l-2x!, and
    its table licenses nothing but "-" for it; the single cyr2lat tree
    trained on the lexicon's 70% split gave qo'ls2x!."""
    cyr2lat, lat2cyr = lexicon_models
    assert transliterate_word(cyr2lat, "qo'l-2x!") == "qo'l-2x!"
    assert transliterate_word(lat2cyr, "qo'l-2x!") == "қўл-2х!"
    assert transliterate_word(cyr2lat, "қўл-2х!") == "qo'l-2x!"


def test_evaluate_hand_computed_counts():
    # toy table: а admits both a and z, so the gold side aligns either way
    table = MappingTable({"б": ("b",), "о": ("o",), "л": ("l",), "а": ("a", "z")})
    trained_on = Corpus([("бола", "bolz")])
    model = train_direction(trained_on, WindowSpec(0, 0), table)
    report = evaluate(model, Corpus([("бола", "bola")]), table)
    assert report.char_f1 == pytest.approx(0.75)
    assert report.word_accuracy == 0.0
    assert report.errors == [("бола", "bolz", "bola")]


def test_evaluate_all_correct(lexicon, cyr2lat_table):
    model = train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table)
    sub = Corpus(lexicon.pairs[:25])
    report = evaluate(model, sub, cyr2lat_table)
    assert report.char_precision == report.char_recall == report.char_f1 == 1.0
    assert report.word_accuracy == 1.0
    assert report.errors == []


def test_evaluate_unalignable_counts_fully_wrong(lexicon, cyr2lat_table):
    model = train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table)
    # one alignable pair predicted perfectly + one unalignable 4-char pair
    heldout = Corpus([lexicon.pairs[0], ("тўрт", "zzz")])
    report = evaluate(model, heldout, cyr2lat_table)
    n_good = len(lexicon.pairs[0][0])
    expected = n_good / (n_good + 4)
    assert report.char_f1 == pytest.approx(expected)
    assert report.word_accuracy == 0.5
    assert ("тўрт", "to'rt", "zzz") in report.errors


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), x=st.integers(0, 3), y=st.integers(0, 3))
def test_micro_identity_property(seed, x, y, cyr2lat_table):
    corpus = gen_corpus(30, seed=seed)
    model = train_direction(corpus, WindowSpec(x, y), cyr2lat_table)
    heldout = gen_corpus(20, seed=seed + 1)
    # an unalignable pair counts too: its characters are all wrong
    heldout.pairs.append(("тўрт", "zzz"))
    report = evaluate(model, heldout, cyr2lat_table)
    assert report.char_precision == report.char_recall == report.char_f1
    counts = count_by_character(model, heldout, cyr2lat_table)
    assert (report.correct, report.chars, report.words_right) == counts
    assert report.words == len(heldout)


def test_grid_search_single_cell(synthetic_small, cyr2lat_table):
    config = SplitConfig(0.7, 0.15, 0.15, seed=1)
    train_part, val_part, _ = split_corpus(synthetic_small, config)
    model, cells, _ = grid_search(
        train_part, val_part, cyr2lat_table, x_values=[2], y_values=[3]
    )
    assert model.window == WindowSpec(2, 3)
    assert len(cells) == 1
    retrained = train_direction(train_part, model.window, cyr2lat_table)
    assert dtree.serialize(model) == dtree.serialize(retrained)


def test_grid_search_tiebreak_prefers_smallest_window(cyr2lat_table):
    # one-to-one letters only: (0, 0) already reaches F1 1.0
    pairs = [("бола", "bola"), ("нон", "non"), ("тил", "til"), ("қиз", "qiz"),
             ("гул", "gul"), ("зар", "zar"), ("мард", "mard"), ("дон", "don")]
    train_part = Corpus(pairs)
    val_part = Corpus(pairs[:4])
    model, cells, _ = grid_search(
        train_part, val_part, cyr2lat_table,
        x_values=range(0, 3), y_values=range(0, 3),
    )
    assert model.window == WindowSpec(0, 0)
    assert all(c.validation_f1 <= 1.0 for c in cells)


def test_grid_search_empty_grid_rejected(cyr2lat_table):
    pairs = Corpus([("бола", "bola")])
    with pytest.raises(ValueError, match="grid is empty"):
        grid_search(pairs, pairs, cyr2lat_table, x_values=range(3, 1), y_values=[0])


def test_grid_search_dominance(synthetic_small, cyr2lat_table):
    config = SplitConfig(0.7, 0.15, 0.15, seed=5)
    train_part, val_part, _ = split_corpus(synthetic_small, config)
    model, cells, _ = grid_search(
        train_part, val_part, cyr2lat_table,
        x_values=range(0, 3), y_values=range(0, 3),
    )
    best = model.window
    best_cell = [c for c in cells if (c.x, c.y) == (best.x, best.y)][0]
    assert all(best_cell.validation_f1 >= c.validation_f1 for c in cells)
    retrained = train_direction(train_part, best, cyr2lat_table)
    assert dtree.serialize(model) == dtree.serialize(retrained)


def test_every_grid_cell_matches_train_direction(synthetic_small, cyr2lat_table, monkeypatch):
    """Each cell scores what ``evaluate`` scores for the model
    ``train_direction`` trains at that window alone. A cell trains only
    the keys whose training samples carry more than one label, and grows
    that model's trees for them; the model returned is that model at the
    best window. The axes are unordered and of unequal length, so the
    widest window is neither the first nor the last cell."""
    config = SplitConfig(0.7, 0.15, 0.15, seed=3)
    train_part, val_part, _ = split_corpus(synthetic_small, config)
    trained = []
    train = dtree.train

    def keep(samples, table):
        trained.append((set(samples.blocks), train(samples, table)))
        return trained[-1][1]

    monkeypatch.setattr(dtree, "train", keep)
    model, cells, varying = grid_search(
        train_part, val_part, cyr2lat_table, x_values=[1, 3, 0], y_values=[2, 0]
    )
    monkeypatch.undo()
    assert [(c.x, c.y) for c in cells] == [(1, 2), (1, 0), (3, 2), (3, 0), (0, 2), (0, 0)]
    assert varying == varying_keys(train_part, cyr2lat_table)
    assert varying
    # one training per cell, then the returned model
    assert len(trained) == len(cells) + 1
    for cell, (keys, per_cell) in zip(cells, trained):
        alone = train_direction(train_part, WindowSpec(cell.x, cell.y), cyr2lat_table)
        assert cell.validation_f1 == evaluate(alone, val_part, cyr2lat_table).char_f1
        assert keys == set(varying)
        assert per_cell.window == alone.window
        assert {key: per_cell.trees[key] for key in varying} == {
            key: alone.trees[key] for key in varying
        }
    assert trained[-1][1] is model
    best = train_direction(train_part, model.window, cyr2lat_table)
    assert dtree.serialize(model) == dtree.serialize(best)


def _reference_grid(train_part, val_part, table, x_values, y_values):
    """Brute force: train_direction and evaluate at every cell, then the
    best cell by (-F1, x + y, x)."""
    cells = []
    for x, y in product(x_values, y_values):
        model = train_direction(train_part, WindowSpec(x, y), table)
        cells.append((GridCell(x, y, evaluate(model, val_part, table).char_f1), model))
    _, best_model = min(
        cells, key=lambda item: (-item[0].validation_f1, item[0].x + item[0].y, item[0].x)
    )
    return best_model, [cell for cell, _ in cells]


@st.composite
def grid_cases(draw):
    """A small training and validation part under one bundled table, with
    the grid axes. Training words use a few keys, mostly ones with more
    than one candidate, each with any of its candidates or with one
    candidate each (then no key varies); a key may be left out of
    training; validation words take any candidate of every key, and may
    end in a pair the table cannot align."""
    table = bundled_mapping_table(draw(st.sampled_from([CYR2LAT, LAT2CYR])))
    several = sorted(key for key, candidates in table.entries.items() if len(candidates) > 1)
    keys = draw(st.lists(st.sampled_from(several), min_size=1, max_size=3, unique=True))
    keys += [key for key in draw(st.lists(st.sampled_from(sorted(table.entries)), max_size=2))
             if key not in keys]
    one_label = draw(st.booleans())
    trained = {
        key: [draw(st.sampled_from(table.entries[key]))] if one_label else table.entries[key]
        for key in keys
    }
    if len(keys) > 1 and draw(st.booleans()):
        del trained[keys[-1]]  # a key training never holds

    rng = random.Random(draw(st.integers(0, 2**32)))

    def words(labels, n):
        pairs = []
        for _ in range(rng.randint(1, n)):
            word = [rng.choice(sorted(labels)) for _ in range(rng.randint(1, 6))]
            segments = [rng.choice(labels[key]) for key in word]
            pairs.append(("".join(word), "".join(segments)))
        return pairs

    train_pairs = words(trained, 12)
    val_pairs = words({key: table.entries[key] for key in keys}, 6)
    if draw(st.booleans()):
        val_pairs.append((keys[0], "#"))  # no candidate writes "#"
    axis = st.lists(st.integers(0, 2), min_size=1, max_size=3)
    return table, train_pairs, val_pairs, draw(axis), draw(axis)


@settings(max_examples=150, deadline=None)
@given(case=grid_cases())
# ц is always ts in training, but s in validation, and ш never trains
@example(case=(bundled_mapping_table(CYR2LAT),
               [("цех", "tsex"), ("ецо", "yetso"), ("бес", "bes")],
               [("цуш", "sush"), ("ец", "ye#")], [0, 1], [0, 2]))
# no key varies: every cell trains nothing and scores the same
@example(case=(bundled_mapping_table(LAT2CYR), [("bola", "бола"), ("non", "нон")],
               [("til", "тил"), ("lola", "лола")], [2, 0], [1, 0]))
def test_grid_search_matches_brute_force(case):
    """grid_search equals the brute-force grid: the same cells and the
    same model. Pairs are written (source, target) in the table's
    direction."""
    table, train_pairs, val_pairs, x_values, y_values = case
    if table.direction == LAT2CYR:
        train_pairs = [(target, source) for source, target in train_pairs]
        val_pairs = [(target, source) for source, target in val_pairs]
    train_part, val_part = Corpus(train_pairs), Corpus(val_pairs)
    model, cells, _ = grid_search(train_part, val_part, table, x_values, y_values)
    reference_model, reference_cells = _reference_grid(
        train_part, val_part, table, x_values, y_values
    )
    assert cells == reference_cells
    assert dtree.serialize(model) == dtree.serialize(reference_model)


def test_grid_search_takes_one_shot_iterables(synthetic_small, cyr2lat_table):
    """Iterators for the axes give the whole grid, as lists do."""
    config = SplitConfig(0.7, 0.15, 0.15, seed=4)
    train_part, val_part, _ = split_corpus(synthetic_small, config)
    from_lists = grid_search(train_part, val_part, cyr2lat_table, [0, 1], [0, 1])
    from_iterators = grid_search(
        train_part, val_part, cyr2lat_table, iter([0, 1]), iter([0, 1])
    )
    assert len(from_lists[1]) == 4
    assert from_iterators[1] == from_lists[1]
    assert dtree.serialize(from_iterators[0]) == dtree.serialize(from_lists[0])


# sha256 of format_grid_tsv(cells) and of the best model's serialize(), for
# x, y in 0..4 on the 70/15/15 seed-42 split; a change to how a grid
# search trains or scores must leave both byte-identical
_GOLDEN_GRIDS = {
    ("lexicon", CYR2LAT): (
        "3a6013df40952874526b22b1d83657472b5f155198ec2e2bc1237b5b0daeaa57",
        "4bc4b1923d4129d7ad0cf51516999dae1cb253acac09a115be69144857df699f",
    ),
    ("lexicon", LAT2CYR): (
        "eee42d845f28d941724e854eb2363670dd2eabde12466d709b5b98f6b2a91bb1",
        "bc26aa3736264d4aac78e85d357e9a49457d1eff97bfbc0f708ed51f2d06f3fc",
    ),
    ("gen_corpus(5000, 42)", CYR2LAT): (
        "c85107494672cfc6aa16b679d47e606e880c5fcaa57604a847ac9b8528aa0ba4",
        "b6802721037f198313896d2ae60655a606cba597919a408cecfbeca73453a2d7",
    ),
}


@pytest.mark.parametrize(("corpus", "direction"), list(_GOLDEN_GRIDS))
def test_grid_search_outputs_match_golden_digests(lexicon, corpus, direction):
    source = lexicon if corpus == "lexicon" else gen_corpus(5000, 42)
    train_part, val_part, _ = split_corpus(source, SplitConfig(0.7, 0.15, 0.15, seed=42))
    model, cells, _ = grid_search(
        train_part, val_part, bundled_mapping_table(direction), range(5), range(5)
    )
    digests = (
        hashlib.sha256(pipeline.format_grid_tsv(cells).encode("utf-8")).hexdigest(),
        hashlib.sha256(dtree.serialize(model)).hexdigest(),
    )
    assert digests == _GOLDEN_GRIDS[corpus, direction]


# sha256 over evaluate's JSON and TSV of the model trained at (x, y) on the
# 70/15/15 seed-42 split, scored on the test part, on the whole corpus, and
# on the other corpus plus one pair the table cannot align; a change to how
# evaluate counts or divides must leave every byte as it is
_GOLDEN_SCORES = {
    ("lexicon", CYR2LAT, 1, 1):
        "2c961a7385de6361619b819833c6cb2a69f0bccfff31299021bc3428eb82d80c",
    ("lexicon", CYR2LAT, 4, 3):
        "4874360c1338d050cbece752b2b8bff1c41f5052ae6561b9419a8963212f22c4",
    ("lexicon", LAT2CYR, 1, 1):
        "46fd860a48db27ce710b6576ff25ad7243c2846c7fc1208118e6af7eb9cc96fd",
    ("lexicon", LAT2CYR, 4, 3):
        "37545b0fb9868fa1286d84e3adb77632cdac6538d85f9049ca356c56e7483d41",
    ("gen_corpus(3000, 42)", CYR2LAT, 1, 1):
        "699d5ef195fe7d9c3b5a37046eaca3d56349bb5b8debe75749c7a818db848f1f",
    ("gen_corpus(3000, 42)", CYR2LAT, 4, 3):
        "699d5ef195fe7d9c3b5a37046eaca3d56349bb5b8debe75749c7a818db848f1f",
    ("gen_corpus(3000, 42)", LAT2CYR, 1, 1):
        "add3f8e7a436488df85362b085b851a4af127122e87099186c98f08a5deb5aac",
    ("gen_corpus(3000, 42)", LAT2CYR, 4, 3):
        "cf21303387693765f394776ddfd720b03d3104c5f8789ab58d96917fc54615fb",
}


@pytest.mark.parametrize(("corpus", "direction", "x", "y"), list(_GOLDEN_SCORES))
def test_evaluate_outputs_match_golden_digests(lexicon, corpus, direction, x, y):
    source, other = lexicon, gen_corpus(3000, 42)
    if corpus != "lexicon":
        source, other = other, source
    table = bundled_mapping_table(direction)
    train_part, _, test_part = split_corpus(source, SplitConfig(0.7, 0.15, 0.15, seed=42))
    model = train_direction(train_part, WindowSpec(x, y), table)
    digest = hashlib.sha256()
    for heldout in (test_part, source, Corpus(other.pairs + [("тўрт", "zzz")])):
        report = evaluate(model, heldout, table)
        digest.update(json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2).encode())
        digest.update(report.to_tsv().encode())
    assert digest.hexdigest() == _GOLDEN_SCORES[corpus, direction, x, y]


# sha256 of the repr of cross_validate's pooled and per-fold scores on the
# lexicon at (2, 3), k=10, seed 42
_GOLDEN_CROSS_VALIDATIONS = {
    CYR2LAT: "747bc5999f2b75dd14901c7c4f7369731c7880bbba9371985d040fe3f9af971c",
    LAT2CYR: "71198acb2f031d3bf995c558f5a165190a651c0a26e5bde07f646e1f613bd77b",
}


@pytest.mark.parametrize("direction", list(_GOLDEN_CROSS_VALIDATIONS))
def test_cross_validate_scores_match_golden_digests(lexicon, direction):
    result = cross_validate(lexicon, WindowSpec(2, 3), bundled_mapping_table(direction), 10, 42)
    scores = (
        result.char_f1,
        result.word_accuracy,
        [(fold.char_f1, fold.word_accuracy) for fold in result.folds],
    )
    digest = hashlib.sha256(repr(scores).encode()).hexdigest()
    assert digest == _GOLDEN_CROSS_VALIDATIONS[direction]


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 60), k=st.integers(2, 12), seed=st.integers(0, 1000))
def test_folds_partition_the_corpus(n, k, seed):
    corpus = Corpus([(f"сўз{i}", f"so'z{i}") for i in range(n)])
    if k > n:
        with pytest.raises(ValueError, match="folds"):
            kfold(corpus, k, seed)
        return
    folds = kfold(corpus, k, seed)
    assert len(folds) == k
    sizes = [len(fold) for fold in folds]
    assert max(sizes) - min(sizes) <= 1
    # contiguous cuts of the shuffle split_corpus makes
    order = list(corpus.pairs)
    random.Random(seed).shuffle(order)
    assert [pair for fold in folds for pair in fold.pairs] == order
    assert kfold(corpus, k, seed) == folds


def test_kfold_needs_two_folds():
    with pytest.raises(ValueError, match="folds"):
        kfold(Corpus([("а", "a"), ("б", "b")]), 1, 42)


def test_cross_validate_scores_every_word_once_out_of_fold(lexicon, cyr2lat_table):
    window = WindowSpec(1, 1)
    result = cross_validate(lexicon, window, cyr2lat_table, k=5, seed=3)
    assert cross_validate(lexicon, window, cyr2lat_table, k=5, seed=3) == result
    assert len(result.folds) == 5
    # an independent count: each fold's words, by the model of the others
    folds = kfold(lexicon, 5, 3)
    correct = chars = words_right = 0
    for i, fold in enumerate(folds):
        rest = Corpus([pair for other in folds[:i] + folds[i + 1 :] for pair in other.pairs])
        model = train_direction(rest, window, cyr2lat_table)
        assert result.folds[i] == evaluate(model, fold, cyr2lat_table)
        for source, target in fold.pairs:
            gold = align_word(source, target, cyr2lat_table).target_segments
            right = sum(map(str.__eq__, gold, predict_segments(model, source)))
            correct += right
            chars += len(source)
            words_right += right == len(source)
    assert result.char_f1 == correct / chars
    assert result.word_accuracy == words_right / len(lexicon)
    # the folds' counts add up to the corpus, and each wrong word is an error
    assert sum(report.chars for report in result.folds) == chars
    assert sum(report.words for report in result.folds) == len(lexicon)
    for report in result.folds:
        assert len(report.errors) == report.words - report.words_right
    assert 0.9 < result.char_f1 < 1.0
    assert cross_validate(lexicon, window, cyr2lat_table, k=5, seed=4) != result


def test_round_trip_synthetic(cyr2lat_table, lat2cyr_table, synthetic_small):
    fwd = train_direction(synthetic_small, WindowSpec(2, 3), cyr2lat_table)
    rev = train_direction(synthetic_small, WindowSpec(2, 3), lat2cyr_table)
    report = round_trip_check(fwd, rev, [cyr for cyr, _ in synthetic_small.pairs])
    assert report.fraction == 1.0
    assert report.failures == []


def test_round_trip_direction_mismatch(cyr2lat_table, synthetic_small):
    fwd = train_direction(synthetic_small, WindowSpec(1, 1), cyr2lat_table)
    with pytest.raises(ValueError, match="opposite"):
        round_trip_check(fwd, fwd, ["бола"])


def test_round_trip_empty_word_list(cyr2lat_table, lat2cyr_table, synthetic_small):
    fwd = train_direction(synthetic_small, WindowSpec(1, 1), cyr2lat_table)
    rev = train_direction(synthetic_small, WindowSpec(1, 1), lat2cyr_table)
    report = round_trip_check(fwd, rev, [])
    assert report.fraction == 1.0
    assert report.failures == []


@pytest.mark.parametrize(
    ("original", "text", "expected"),
    [
        ("ЦИРК", "sirk", "SIRK"),
        ("Цирк", "sirk", "Sirk"),
        ("цирк", "sirk", "sirk"),
        ("O'ZBEK", "ўзбек", "ЎЗБЕК"),
        ("2020", "2020", "2020"),
        ("(Тошкент", "(toshkent", "(Toshkent"),
        ("2-Мактаб", "2-maktab", "2-Maktab"),
        # "i" + U+0307 upper-cases to "I" + U+0307, which NFC composes to U+0130
        ("БОЛАİ", "bolai\u0307", "BOLA\u0130"),
        ("İбола", "i\u0307bola", "\u0130bola"),
        # uncased text is NFC too: "h" + U+0308 composes to U+1E27
        ("ш\u0308", "sh\u0308", "s\u1e27"),
    ],
)
def test_apply_case_pattern(original, text, expected):
    assert apply_case_pattern(original, text) == expected


def test_eval_report_formats():
    report = pipeline.EvalReport(3, 4, 1, 2, [("а", "b", "c")])
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert list(payload) == ["char_precision", "char_recall", "char_f1", "word_accuracy", "errors"]
    assert payload["char_precision"] == payload["char_recall"] == payload["char_f1"] == 0.75
    assert payload["errors"] == [["а", "b", "c"]]
    assert report.to_tsv() == (
        "char_precision\t0.75\nchar_recall\t0.75\nchar_f1\t0.75\nword_accuracy\t0.5\n"
        "error\tа\tb\tc\n"
    )
    # nothing scored reads 1.0
    empty = pipeline.EvalReport(0, 0, 0, 0)
    assert (empty.char_f1, empty.word_accuracy) == (1.0, 1.0)
    assert empty.to_tsv() == (
        "char_precision\t1.0\nchar_recall\t1.0\nchar_f1\t1.0\nword_accuracy\t1.0\n"
    )


def test_training_determinism_end_to_end(cyr2lat_table, synthetic_small):
    config = SplitConfig(0.7, 0.15, 0.15, seed=3)
    models = []
    reports = []
    for _ in range(2):
        train_part, val_part, _ = split_corpus(synthetic_small, config)
        model = train_direction(train_part, WindowSpec(2, 2), cyr2lat_table)
        models.append(dtree.serialize(model))
        reports.append(evaluate(model, val_part, cyr2lat_table))
    assert models[0] == models[1]
    assert reports[0] == reports[1]


def test_evaluate_rejects_table_of_other_direction(lexicon, cyr2lat_table, lat2cyr_table):
    model = train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table)
    with pytest.raises(ValueError, match="table maps latin->cyrillic, the model cyrillic->latin"):
        evaluate(model, lexicon, lat2cyr_table)
