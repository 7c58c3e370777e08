import json

import pytest
from hypothesis import given, settings, strategies as st

from uztranslit import dtree, pipeline
from uztranslit.alphabets import CYR2LAT, LAT2CYR, MappingTable
from uztranslit.featurizer import WindowSpec
from uztranslit.gencorpus import gen_corpus
from uztranslit.pipeline import (
    REFERENCE_FRACTIONS,
    AllPairsUnalignableError,
    Corpus,
    SplitConfig,
    apply_case_pattern,
    evaluate,
    grid_search,
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


def test_corpus_save_load_roundtrip(tmp_path, synthetic_small):
    path = tmp_path / "c.tsv"
    pipeline.save_corpus(synthetic_small, path)
    again = pipeline.load_corpus(path)
    assert again.pairs == synthetic_small.pairs


def test_train_direction_pure_fit(lexicon, cyr2lat_table):
    model = train_direction(lexicon, WindowSpec(2, 3), cyr2lat_table)
    assert model.direction == CYR2LAT
    assert model.window == WindowSpec(2, 3)
    assert model.table == cyr2lat_table
    report = evaluate(model, lexicon, cyr2lat_table)
    assert report.char_f1 == 1.0
    assert report.word_accuracy == 1.0


def test_train_direction_empty_corpus(cyr2lat_table):
    with pytest.raises(AllPairsUnalignableError):
        train_direction(Corpus([]), WindowSpec(1, 1), cyr2lat_table)


def test_train_direction_unalignable_corpus(cyr2lat_table):
    corpus = Corpus([("аб", "xyz")])
    with pytest.raises(AllPairsUnalignableError):
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


def test_evaluate_hand_computed_counts():
    # toy table: а admits both a and z, so the gold side aligns either way
    table = MappingTable(
        CYR2LAT, {"б": ("b",), "о": ("o",), "л": ("l",), "а": ("a", "z")}
    )
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
    report = evaluate(model, heldout, cyr2lat_table)
    assert report.char_precision == report.char_recall == report.char_f1


def test_grid_search_single_cell(synthetic_small, cyr2lat_table):
    config = SplitConfig(0.7, 0.15, 0.15, seed=1)
    train_part, val_part, _ = split_corpus(synthetic_small, config)
    model, cells = grid_search(
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
    model, cells = grid_search(
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
    model, cells = grid_search(
        train_part, val_part, cyr2lat_table,
        x_values=range(0, 3), y_values=range(0, 3),
    )
    best = model.window
    best_cell = [c for c in cells if (c.x, c.y) == (best.x, best.y)][0]
    assert all(best_cell.validation_f1 >= c.validation_f1 for c in cells)
    retrained = train_direction(train_part, best, cyr2lat_table)
    assert dtree.serialize(model) == dtree.serialize(retrained)


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
    ],
)
def test_apply_case_pattern(original, text, expected):
    assert apply_case_pattern(original, text) == expected


def test_eval_report_formats():
    report = pipeline.EvalReport(1.0, 1.0, 1.0, 0.5, [("а", "b", "c")])
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["char_f1"] == 1.0
    assert payload["errors"] == [["а", "b", "c"]]
    tsv = report.to_tsv()
    assert "word_accuracy\t0.5" in tsv
    assert "error\tа\tb\tc" in tsv


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
