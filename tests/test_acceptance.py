"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``).

Dictionary-scale scores would need a full spelling dictionary that
cannot be bundled, so acceptance is golden-example plus property-based,
on the bundled lexicon and the synthetic rule corpus.
"""

import random
import time

import pytest

from conftest import (
    Row,
    best_split_decrease,
    grow_rows,
    by_key,
    count_by_character,
    open_table,
    rows_of,
    samples_of,
    split_decrease,
)
from uztranslit import pipeline
from uztranslit.aligner import align_word
from uztranslit.alphabets import CYR2LAT, LAT2CYR, bundled_mapping_table
from uztranslit.dtree import deserialize, predict, serialize, train
from uztranslit.featurizer import (
    PAD,
    WindowSpec,
    dedup_samples,
    extract_samples,
)
from uztranslit.gencorpus import gen_corpus
from uztranslit.pipeline import (
    REFERENCE_FRACTIONS,
    Corpus,
    SplitConfig,
    evaluate,
    grid_search,
    round_trip_check,
    split_corpus,
    train_direction,
    transliterate_word,
)

CYR2LAT_TABLE = bundled_mapping_table(CYR2LAT)
LAT2CYR_TABLE = bundled_mapping_table(LAT2CYR)

# every EvalReport produced by this suite, with what it scored; checked
# by criterion 6
_REPORTS = []


def _eval(model, corpus, table):
    report = evaluate(model, corpus, table)
    _REPORTS.append((report, model, corpus, table))
    return report


@pytest.fixture(scope="module")
def lexicon():
    from uztranslit.alphabets import _data_path

    return pipeline.load_corpus(_data_path("lexicon.tsv"))


@pytest.fixture(scope="module")
def synthetic_5000():
    return gen_corpus(5000, seed=42)


def test_criterion_1_golden_alignments():
    pair1 = align_word("қўзичоқ", "qo'zichoq", CYR2LAT_TABLE)
    assert pair1.target_segments == ("q", "o'", "z", "i", "ch", "o", "q")
    assert len(pair1.target_segments) == 7

    pair2 = align_word("qo'zichoq", "қўзичоқ", LAT2CYR_TABLE)
    assert len(pair2.target_segments) == 9
    assert [i for i, s in enumerate(pair2.target_segments) if s == ""] == [2, 5]

    loops = 1000
    start = time.perf_counter()
    for _ in range(loops):
        align_word("қўзичоқ", "qo'zichoq", CYR2LAT_TABLE)
        align_word("qo'zichoq", "қўзичоқ", LAT2CYR_TABLE)
    per_word = (time.perf_counter() - start) / (2 * loops)
    assert per_word < 0.001, f"alignment took {per_word * 1000:.3f} ms per word"
    print(f"\nACCEPTANCE 1: golden alignments ({per_word * 1e6:.0f} us/word): PASS")


def test_criterion_2_golden_features():
    pair = align_word("қўзичоқ", "qo'zichoq", CYR2LAT_TABLE)
    samples = rows_of(extract_samples([pair], WindowSpec(x=2, y=1)))
    expected = [
        ((PAD, PAD, "қ", "ў"), "q"),
        ((PAD, "қ", "ў", "з"), "o'"),
        (("қ", "ў", "з", "и"), "z"),
        (("ў", "з", "и", "ч"), "i"),
        (("з", "и", "ч", "о"), "ch"),
        (("и", "ч", "о", "қ"), "o"),
        (("ч", "о", "қ", PAD), "q"),
    ]
    # the seven rows of the word, each character's rows in word order
    assert [(s.features, s.label) for s in samples] == by_key(expected, 2)
    print("ACCEPTANCE 2: context-window features, all 7 rows: PASS")


ORTHOGRAPHY_SUITE = [
    ("октябрь", "oktabr"),
    ("ноябрь", "noyabr"),
    ("бюджет", "budjet"),
    ("цемент", "sement"),
    ("шприц", "shpris"),
    ("доцент", "dotsent"),
    ("лекция", "leksiya"),
]


def test_criterion_3_orthography_rule_suite(lexicon):
    model = train_direction(lexicon, WindowSpec(2, 3), CYR2LAT_TABLE)
    hits = 0
    for cyr, lat in ORTHOGRAPHY_SUITE:
        got = transliterate_word(model, cyr)
        assert got == lat, f"{cyr} -> {got}, expected {lat}"
        hits += 1
    assert hits == 7
    print("ACCEPTANCE 3: orthography rule suite 7/7: PASS")


def test_criterion_4_pure_fit(lexicon, synthetic_5000):
    # the synthetic corpus at x=2, y=3 (conflict-free by construction)
    model = train_direction(synthetic_5000, WindowSpec(2, 3), CYR2LAT_TABLE)
    report = _eval(model, synthetic_5000, CYR2LAT_TABLE)
    assert report.char_f1 == 1.0
    # the bundled lexicon (verified conflict-free at this window)
    model2 = train_direction(lexicon, WindowSpec(2, 3), CYR2LAT_TABLE)
    report2 = _eval(model2, lexicon, CYR2LAT_TABLE)
    assert report2.char_f1 == 1.0
    # random conflict-free sample sets; the focus (position 1) is a
    # letter, as every source character is
    rng = random.Random(7)
    letters = list("абвгдежз")
    symbols = letters + [PAD]
    labels = ["", "a", "b", "ch"]
    for _ in range(25):
        kept = {}
        for _ in range(rng.randint(1, 80)):
            features = (rng.choice(symbols), rng.choice(letters), rng.choice(symbols))
            kept.setdefault(features, Row(features, rng.choice(labels)))
        samples = list(kept.values())
        model3 = train(samples_of(samples, WindowSpec(1, 1)), open_table(letters, labels))
        assert all(predict(model3, s.features) == [s.label] for s in samples)
    print("ACCEPTANCE 4: pure fit on conflict-free samples: PASS")


def test_criterion_5_generalization_at_desk_scale(synthetic_5000):
    start = time.monotonic()
    config = SplitConfig(0.70, 0.15, 0.15, seed=42)
    train_part, val_part, test_part = split_corpus(synthetic_5000, config)
    assert (len(train_part.pairs), len(val_part.pairs), len(test_part.pairs)) == (
        3500,
        750,
        750,
    )
    model, cells, _ = grid_search(
        train_part,
        val_part,
        CYR2LAT_TABLE,
        x_values=range(0, 5),
        y_values=range(0, 5),
    )
    assert len(cells) == 25
    best_f1 = max(c.validation_f1 for c in cells)
    assert best_f1 >= 0.999, f"best validation F1 {best_f1}"

    best = model.window
    test_report = _eval(model, test_part, CYR2LAT_TABLE)
    assert abs(test_report.char_f1 - best_f1) <= 0.002, (
        f"test F1 {test_report.char_f1} vs validation {best_f1}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"grid search took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 5: grid best (x={best.x}, y={best.y}) val F1 {best_f1:.4f},"
        f" test F1 {test_report.char_f1:.4f}, {elapsed:.1f}s: PASS"
    )


def test_criterion_6_micro_identity(lexicon):
    # a deliberately imperfect report joins the pool
    half = Corpus(lexicon.pairs[: len(lexicon.pairs) // 2])
    model = train_direction(half, WindowSpec(1, 1), CYR2LAT_TABLE)
    _eval(model, lexicon, CYR2LAT_TABLE)
    assert _REPORTS, "no EvalReports were produced before this test"
    for report, model, corpus, table in _REPORTS:
        assert report.char_precision == report.char_recall == report.char_f1
        counts = count_by_character(model, corpus, table)
        assert (report.correct, report.chars, report.words_right) == counts
    print(f"ACCEPTANCE 6: micro identity over {len(_REPORTS)} reports: PASS")


def test_criterion_7_split_oracle():
    corpus = Corpus([(f"сўз{i}", f"so'z{i}") for i in range(12418)])
    config = SplitConfig(*REFERENCE_FRACTIONS, seed=42)
    train_part, val_part, test_part = split_corpus(corpus, config)
    counts = (len(train_part.pairs), len(val_part.pairs), len(test_part.pairs))
    assert counts == (9499, 1677, 1242)
    assert sum(counts) == 12418
    seen = set(train_part.pairs) | set(val_part.pairs) | set(test_part.pairs)
    assert len(seen) == 12418
    print("ACCEPTANCE 7: split sizes 9499/1677/1242 for N=12418: PASS")


def test_criterion_8_gini_split_oracle():
    # the grower that every key's tree comes from, on random sample sets
    rng = random.Random(20260810)
    symbols = list("абвгде") + [PAD]
    labels = ["", "a", "b", "sh"]
    splits_checked = 0
    nodes_checked = 0
    for _ in range(100):
        width = rng.randint(1, 4)
        samples = [
            Row(tuple(rng.choice(symbols) for _ in range(width)), rng.choice(labels))
            for _ in range(rng.randint(2, 50))
        ]
        nodes = grow_rows(samples, range(width))
        oracle = best_split_decrease(samples) or 0.0  # no split at all scores 0
        if len(nodes[0]) == 2:  # the root is a leaf
            assert oracle <= 1e-12
            continue
        f, symbol, eq_child, ne_child = nodes[0]
        eq = [s for s in samples if s.features[f] == symbol]
        ne = [s for s in samples if s.features[f] != symbol]
        chosen = split_decrease(samples, f, symbol)
        assert abs(chosen - oracle) < 1e-12
        splits_checked += 1
        # every internal node below the root, on the samples routed to it:
        # these are the nodes whose histograms come from subtraction
        stack = [(eq_child, eq), (ne_child, ne)]
        while stack:
            index, part = stack.pop()
            if len(nodes[index]) == 2:
                continue
            f, symbol, eq_child, ne_child = nodes[index]
            node_eq = [s for s in part if s.features[f] == symbol]
            node_ne = [s for s in part if s.features[f] != symbol]
            node_chosen = split_decrease(part, f, symbol)
            assert abs(node_chosen - best_split_decrease(part)) < 1e-12
            nodes_checked += 1
            stack += [(eq_child, node_eq), (ne_child, node_ne)]
    assert splits_checked >= 80
    assert nodes_checked > splits_checked
    print(
        f"ACCEPTANCE 8: best split == brute-force oracle on {splits_checked} node sets"
        f" and {nodes_checked} nodes below their roots: PASS"
    )


def test_criterion_9_serialization_roundtrip():
    rng = random.Random(4242)
    letters = list("абвгдеёжз")
    symbols = letters + [PAD]
    labels = ["", "a", "b", "ch", "o'"]
    table = open_table(letters, labels)
    for _ in range(100):
        width = rng.randint(1, 5)
        # the focus (position 0) is a letter, as every source character is
        samples = [
            Row(
                (rng.choice(letters), *(rng.choice(symbols) for _ in range(width - 1))),
                rng.choice(labels),
            )
            for _ in range(rng.randint(1, 120))
        ]
        model = train(samples_of(samples, WindowSpec(0, width - 1)), table)
        clone = deserialize(serialize(model))
        for _ in range(1000):
            vector = tuple(rng.choice(symbols) for _ in range(width))
            assert predict(clone, vector) == predict(model, vector)
    print("ACCEPTANCE 9: 100 serialize/deserialize round trips x 1000 vectors: PASS")


# Lexicon words whose Cyrillic form contains the soft sign: its Latin
# form drops ь, so no model that has never seen the word can restore it
# (октябрь -> oktabr -> октабр). The round-trip failure list must be
# exactly this set when the reverse model is trained without them.
SOFT_SIGN_FIXTURE = sorted(
    [
        "октябрь", "ноябрь", "сентябрь", "декабрь", "январь", "февраль",
        "апрель", "июнь", "июль", "фьючерс", "кастрюлька", "спектакль",
        "якорь", "медаль", "конферансье", "монастирь", "фельдмаршал",
        "гольф", "карусель", "диагональ", "поршень", "валерьянка", "роль",
        "пароль", "гастроль", "фестиваль", "автомобиль", "кровать",
        "контроль", "рояль",
    ]
)


def test_criterion_10_round_trip(lexicon, synthetic_5000):
    # synthetic corpus: full recovery
    forward = train_direction(synthetic_5000, WindowSpec(2, 3), CYR2LAT_TABLE)
    backward = train_direction(synthetic_5000, WindowSpec(2, 3), LAT2CYR_TABLE)
    report = round_trip_check(forward, backward, [c for c, _ in synthetic_5000.pairs])
    assert report.fraction == 1.0
    assert report.failures == []

    # bundled lexicon: the reverse model is trained without the soft-sign
    # words, so the failure list is exactly that irrecoverable class
    assert SOFT_SIGN_FIXTURE == sorted(c for c, _ in lexicon.pairs if "ь" in c)
    fwd_lex = train_direction(lexicon, WindowSpec(2, 3), CYR2LAT_TABLE)
    no_soft = Corpus([p for p in lexicon.pairs if "ь" not in p[0]])
    rev_lex = train_direction(no_soft, WindowSpec(4, 3), LAT2CYR_TABLE)
    lex_report = round_trip_check(fwd_lex, rev_lex, [c for c, _ in lexicon.pairs])
    failed = sorted(word for word, _, _ in lex_report.failures)
    assert failed == SOFT_SIGN_FIXTURE
    oktabr = [f for f in lex_report.failures if f[0] == "октябрь"]
    assert oktabr and oktabr[0][1] == "oktabr" and "ь" not in oktabr[0][2]
    print(
        f"ACCEPTANCE 10: synthetic round trip 100%, lexicon failures =="
        f" {len(SOFT_SIGN_FIXTURE)} soft-sign words: PASS"
    )
