import pytest
from hypothesis import given, settings, strategies as st

from conftest import rows_of
from uztranslit.aligner import align_corpus
from uztranslit.alphabets import CYR2LAT, LAT2CYR
from uztranslit.featurizer import WindowSpec, extract_samples
from uztranslit.gencorpus import gen_corpus, latinize_char, latinize_word, valid_word


def test_size_and_seed_determinism():
    a = gen_corpus(50, seed=3)
    b = gen_corpus(50, seed=3)
    c = gen_corpus(50, seed=4)
    assert a.pairs == b.pairs
    assert a.pairs != c.pairs
    assert len(a.pairs) == 50


def test_words_distinct_and_valid():
    corpus = gen_corpus(300, seed=17)
    words = [cyr for cyr, _ in corpus.pairs]
    assert len(set(words)) == len(words)
    assert all(valid_word(w) for w in words)
    assert all(lat == latinize_word(cyr) for cyr, lat in corpus.pairs)


def test_size_zero_rejected():
    with pytest.raises(ValueError):
        gen_corpus(0, seed=1)


@pytest.mark.parametrize(
    ("prev", "char", "nxt", "expected"),
    [
        (None, "ц", "е", "s"),   # word-initial
        ("а", "ц", None, "s"),   # word-final
        ("о", "ц", "е", "ts"),   # post-vowel, mid-word
        ("к", "ц", "и", "s"),    # post-consonant
        (None, "е", "р", "ye"),
        ("о", "е", None, "ye"),
        ("д", "е", "р", "e"),
        (None, "я", "н", "ya"),
        ("т", "я", "б", "a"),
        (None, "ю", "з", "yu"),
        ("б", "ю", "д", "u"),
        ("л", "ё", "н", "yo"),
    ],
)
def test_orthography_rules(prev, char, nxt, expected):
    assert latinize_char(prev, char, nxt) == expected


def test_rule_cases_occur_in_output():
    corpus = gen_corpus(2000, seed=42)
    assert any(cyr.startswith("ц") and lat.startswith("s") for cyr, lat in corpus.pairs)
    assert any("ts" in lat for _, lat in corpus.pairs)
    assert any(cyr.endswith("ц") and lat.endswith("s") for cyr, lat in corpus.pairs)


def test_alignable_under_bundled_tables(cyr2lat_table, lat2cyr_table, synthetic_small):
    _, failures = align_corpus(synthetic_small.oriented(CYR2LAT), cyr2lat_table)
    assert failures == []
    _, failures = align_corpus(synthetic_small.oriented(LAT2CYR), lat2cyr_table)
    assert failures == []


def _assert_conflict_free(alignments, window):
    seen = {}
    for sample in rows_of(extract_samples(alignments, window)):
        previous = seen.setdefault(sample.features, sample.label)
        assert previous == sample.label, (
            f"window {sample.features} labeled both {previous!r} and {sample.label!r}"
        )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_conflict_free_both_directions(seed, cyr2lat_table, lat2cyr_table):
    corpus = gen_corpus(150, seed=seed)
    fwd, _ = align_corpus(corpus.oriented(CYR2LAT), cyr2lat_table)
    rev, _ = align_corpus(corpus.oriented(LAT2CYR), lat2cyr_table)
    # conflict-freedom at (1, 1) implies it for every larger window
    _assert_conflict_free(fwd, WindowSpec(1, 1))
    _assert_conflict_free(rev, WindowSpec(1, 1))
    _assert_conflict_free(fwd, WindowSpec(2, 3))
    _assert_conflict_free(rev, WindowSpec(2, 3))


def test_invalid_words_rejected_by_validator():
    assert not valid_word("бя")      # я after consonant
    assert not valid_word("ктцо")    # ц after consonant
    assert not valid_word("йол")     # й word-initial
    assert not valid_word("айа")     # й before а
    assert not valid_word("тшо")     # тш cluster
    assert valid_word("ойи")         # й before и is fine
    assert valid_word("доцент")      # vowel + ц + vowel


@pytest.mark.parametrize(
    "word",
    ["ц", "цб", "ацб", "бца"],
    ids=["initial-and-final", "initial-before-consonant", "after-vowel-before-consonant",
         "after-consonant"],
)
def test_misplaced_ts_rejected_by_validator(word):
    assert not valid_word(word)
