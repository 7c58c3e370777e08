import pytest
from hypothesis import given, strategies as st

from conftest import Row, by_key, decode, rows_of, samples_of, table7_samples
from uztranslit.aligner import AlignedPair, align_word
from uztranslit.featurizer import (
    PAD,
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


def test_table7_reproduced_exactly(cyr2lat_table):
    samples = table7_samples(cyr2lat_table)
    # both "қ" rows come first, then the others in word order
    assert [(s.features, s.label) for s in samples] == by_key(TABLE7, 2)


def test_single_letter_word_padded_both_sides():
    pair = AlignedPair("а", ("a",))
    samples = rows_of(extract_samples([pair], WindowSpec(x=2, y=1)))
    assert samples == [Row((PAD, PAD, "а", PAD), "a")]


def test_degenerate_window_is_focus_only():
    pair = AlignedPair("бола", ("b", "o", "l", "a"))
    samples = rows_of(extract_samples([pair], WindowSpec(x=0, y=0)))
    assert [s.features for s in samples] == [("б",), ("о",), ("л",), ("а",)]


def test_sample_count_equals_char_count(cyr2lat_table):
    pair = align_word("қўзичоқ", "qo'zichoq", cyr2lat_table)
    for window in (WindowSpec(0, 0), WindowSpec(2, 1), WindowSpec(10, 10)):
        samples = rows_of(extract_samples([pair], window))
        assert len(samples) == len(pair.source)
        for sample in samples:
            assert len(sample.features) == window.width
            assert sample.features[window.x] != PAD


def test_pad_never_interior():
    pair = AlignedPair("бола", ("b", "o", "l", "a"))
    for sample in rows_of(extract_samples([pair], WindowSpec(3, 3))):
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
    samples = rows_of(extract_samples([AlignedPair(word, labels)], window))
    assert samples == by_key([Row(f, label) for f, label in zip(expected, labels)], x)


def _reference_rows(alignments, window):
    """Row-wise reference for extraction: per word, each character's
    window sliced out of ``window_features``, in word order."""
    rows = []
    for pair in alignments:
        padded = window_features(pair.source, window)
        rows += [
            Row(padded[i : i + window.width], label)
            for i, label in enumerate(pair.target_segments)
        ]
    return rows


def _assert_rows_are_windows(samples):
    """Every row of ``samples`` is a window-wide ``str`` of codes and
    holds its focus at x, which ``dtree.train`` takes on trust."""
    window = samples.window
    for focus, labels in samples.blocks.items():
        for rows in labels.values():
            for row in rows:
                assert type(row) is str and len(row) == window.width, (focus, row)
                assert decode(row, samples.symbols)[window.x] == focus, (focus, row)


_aligned_words = st.lists(
    st.lists(st.tuples(st.sampled_from("абв"), st.sampled_from(["", "a", "b"])), max_size=6),
    max_size=8,
)


@given(
    words=_aligned_words,
    x=st.integers(0, 4),
    y=st.integers(0, 4),
    wider_x=st.integers(0, 3),
    wider_y=st.integers(0, 3),
)
def test_extraction_matches_row_wise_reference(words, x, y, wider_x, wider_y):
    alignments = [
        AlignedPair("".join(ch for ch, _ in word), tuple(label for _, label in word))
        for word in words
    ]
    window = WindowSpec(x, y)
    extracted = extract_samples(alignments, window)
    _assert_rows_are_windows(extracted)
    reference = _reference_rows(alignments, window)
    assert rows_of(extracted) == by_key(reference, x)
    assert len(extracted) == sum(len(word) for word in words)
    kept = dedup_samples(extracted)
    # the first occurrence of every (window, label) row
    kept_reference = by_key(dict.fromkeys(reference), x)
    assert kept.window == window
    _assert_rows_are_windows(kept)
    assert rows_of(kept) == kept_reference
    assert len(kept) == len(kept_reference)
    wide = extract_samples(alignments, WindowSpec(x + wider_x, y + wider_y))
    narrowed = wide.narrowed(window)
    _assert_rows_are_windows(narrowed)
    assert narrowed == extracted
    assert [(focus, list(labels)) for focus, labels in narrowed.blocks.items()] == [
        (focus, list(labels)) for focus, labels in extracted.blocks.items()
    ]


def test_labels_in_first_occurrence_order_samples_in_word_order():
    pairs = [
        AlignedPair("аба", ("a", "b", "a")),
        AlignedPair("ева", ("ye", "v", "a")),
        AlignedPair("бе", ("b", "e")),
    ]
    samples = extract_samples(pairs, WindowSpec(1, 0))
    # focus characters, and each one's labels, in order of first occurrence
    assert [(focus, list(labels)) for focus, labels in samples.blocks.items()] == [
        ("а", ["a"]), ("б", ["b"]), ("е", ["ye", "e"]), ("в", ["v"]),
    ]

    def rows(focus, label):
        return [decode(row, samples.symbols) for row in samples.blocks[focus][label]]

    assert rows("а", "a") == [(PAD, "а"), ("б", "а"), ("в", "а")]
    assert rows("б", "b") == [("а", "б"), (PAD, "б")]
    assert rows("е", "ye") == [(PAD, "е")]
    assert rows("е", "e") == [("б", "е")]
    assert len(samples) == 8


def test_narrowed_rejects_a_wider_window():
    wide = extract_samples([AlignedPair("а", ("a",))], WindowSpec(2, 1))
    for window in (WindowSpec(3, 0), WindowSpec(0, 2)):
        with pytest.raises(ValueError, match="does not fit"):
            wide.narrowed(window)


def test_dedup_keeps_first_occurrence_order():
    a, b = ("а",), ("б",)
    samples = samples_of([Row(b, "x"), Row(a, "x"), Row(b, "x"), Row(a, "y")], WindowSpec(0, 0))
    kept = dedup_samples(samples)
    assert rows_of(kept) == [Row(b, "x"), Row(a, "x"), Row(a, "y")]


def test_window_bounds_validated():
    with pytest.raises(ValueError):
        WindowSpec(x=11, y=0)
    with pytest.raises(ValueError):
        WindowSpec(x=0, y=-1)


def test_dedup_examples():
    f = ("а", "б")
    window = WindowSpec(1, 0)
    assert rows_of(dedup_samples(samples_of([Row(f, "a"), Row(f, "a")], window))) == [Row(f, "a")]
    both = [Row(f, "a"), Row(f, "b")]
    assert rows_of(dedup_samples(samples_of(both, window))) == both
    assert rows_of(dedup_samples(samples_of([], window))) == []


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
    samples = samples_of(raw, WindowSpec(1, 0))
    once = rows_of(dedup_samples(samples))
    assert rows_of(dedup_samples(samples_of(once, WindowSpec(1, 0)))) == once


def test_pad_distinct_from_alphabet_and_empty():
    assert PAD != ""
    assert len(PAD) > 1  # can never collide with a single character feature


@pytest.mark.parametrize(("x", "y"), [(1.5, 2), (True, 0), (0, False), (2, "3")])
def test_window_bounds_must_be_ints(x, y):
    with pytest.raises(ValueError, match="window bounds are not ints"):
        WindowSpec(x, y)
