import pytest
from hypothesis import given, strategies as st

from uztranslit.aligner import AlignedPair, align_word
from uztranslit.featurizer import (
    PAD,
    Sample,
    WindowSpec,
    dedup_samples,
    extract_samples,
    window_features,
)

TABLE7 = [
    ((PAD, PAD, "қ", "ў"), "q"),
    ((PAD, "қ", "ў", "з"), "o'"),
    (("қ", "ў", "з", "и"), "z"),
    (("ў", "з", "и", "ч"), "i"),
    (("з", "и", "ч", "о"), "ch"),
    (("и", "ч", "о", "қ"), "o"),
    (("ч", "о", "қ", PAD), "q"),
]


def table7_samples(cyr2lat_table):
    pair = align_word("қўзичоқ", "qo'zichoq", cyr2lat_table)
    return extract_samples(pair, WindowSpec(x=2, y=1))


def test_table7_reproduced_exactly(cyr2lat_table):
    samples = table7_samples(cyr2lat_table)
    assert [(s.features, s.label) for s in samples] == TABLE7


def test_single_letter_word_padded_both_sides():
    pair = AlignedPair(("а",), ("a",))
    samples = extract_samples(pair, WindowSpec(x=2, y=1))
    assert samples == [Sample((PAD, PAD, "а", PAD), "a")]


def test_degenerate_window_is_focus_only():
    pair = AlignedPair(tuple("бола"), ("b", "o", "l", "a"))
    samples = extract_samples(pair, WindowSpec(x=0, y=0))
    assert [s.features for s in samples] == [("б",), ("о",), ("л",), ("а",)]


def test_sample_count_equals_char_count(cyr2lat_table):
    pair = align_word("қўзичоқ", "qo'zichoq", cyr2lat_table)
    for window in (WindowSpec(0, 0), WindowSpec(2, 1), WindowSpec(10, 10)):
        samples = extract_samples(pair, window)
        assert len(samples) == len(pair.source_chars)
        for sample in samples:
            assert len(sample.features) == window.width
            assert sample.features[window.x] != PAD


def test_pad_never_interior():
    pair = AlignedPair(tuple("бола"), ("b", "o", "l", "a"))
    for sample in extract_samples(pair, WindowSpec(3, 3)):
        feats = sample.features
        left = feats[:3]
        right = feats[4:]
        # PAD only at the outer ends of each side
        assert list(left) == sorted(left, key=lambda s: s != PAD)
        assert list(right) == sorted(right, key=lambda s: s == PAD)


def _window_at(chars, index, window):
    """Per-index oracle: the characters from index - x to index + y, PAD
    wherever that range leaves the word."""
    return tuple(
        chars[j] if 0 <= j < len(chars) else PAD
        for j in range(index - window.x, index + window.y + 1)
    )


@given(
    word=st.text(alphabet="абв", max_size=8),
    x=st.integers(0, 10),
    y=st.integers(0, 10),
)
def test_extracted_windows_equal_window_features(word, x, y):
    window = WindowSpec(x, y)
    expected = [_window_at(word, i, window) for i in range(len(word))]
    padded = window_features(word, window)  # a str, as the read path passes
    assert padded == window_features(tuple(word), window)
    assert len(padded) == len(word) + window.width - 1
    assert [padded[i : i + window.width] for i in range(len(word))] == expected
    labels = tuple(str(i) for i in range(len(word)))
    samples = extract_samples(AlignedPair(tuple(word), labels), window)
    assert samples == [Sample(f, label) for f, label in zip(expected, labels)]


def test_dedup_keeps_first_occurrence_order():
    a, b = ("а",), ("б",)
    samples = [Sample(b, "x"), Sample(a, "x"), Sample(b, "x"), Sample(a, "y")]
    assert dedup_samples(samples) == [Sample(b, "x"), Sample(a, "x"), Sample(a, "y")]


def test_window_bounds_validated():
    with pytest.raises(ValueError):
        WindowSpec(x=11, y=0)
    with pytest.raises(ValueError):
        WindowSpec(x=0, y=-1)


def test_dedup_examples():
    f = ("а", "б")
    assert dedup_samples([Sample(f, "a"), Sample(f, "a")]) == [Sample(f, "a")]
    both = [Sample(f, "a"), Sample(f, "b")]
    assert dedup_samples(both) == both
    assert dedup_samples([]) == []


@given(
    st.lists(
        st.tuples(
            st.tuples(st.sampled_from("аб"), st.sampled_from("аб")),
            st.sampled_from(["a", "b", ""]),
        ),
        max_size=30,
    )
)
def test_dedup_idempotent(raw):
    samples = [Sample(features, label) for features, label in raw]
    once = dedup_samples(samples)
    assert dedup_samples(once) == once


def test_pad_distinct_from_alphabet_and_empty():
    assert PAD != ""
    assert len(PAD) > 1  # can never collide with a single character feature
