import pytest
from hypothesis import given, settings, strategies as st

from uztranslit.aligner import (
    AlignedPair,
    AlignmentError,
    AlignmentFailure,
    align_corpus,
    align_word,
    format_failure_report,
)
from uztranslit.alphabets import CYR2LAT, LAT2CYR, MappingTable
from uztranslit.gencorpus import gen_corpus


def test_table1_alignment(cyr2lat_table):
    pair = align_word("қўзичоқ", "qo'zichoq", cyr2lat_table)
    assert pair.target_segments == ("q", "o'", "z", "i", "ch", "o", "q")
    assert pair.source == "қўзичоқ"


def test_table2_alignment_empty_segments(lat2cyr_table):
    pair = align_word("qo'zichoq", "қўзичоқ", lat2cyr_table)
    assert len(pair.target_segments) == 9
    assert pair.target_segments == ("қ", "ў", "", "з", "и", "", "ч", "о", "қ")
    empties = [i for i, seg in enumerate(pair.target_segments) if seg == ""]
    assert empties == [2, 5]


def test_table4_alignment_combining_characters(lat2cyr_table):
    pair = align_word("quyosh", "қуёш", lat2cyr_table)
    assert pair.target_segments == ("қ", "у", "", "ё", "", "ш")
    assert pair.target_segments[2] == ""
    assert pair.target_segments[3] == "ё"


def test_table3_alignment(lat2cyr_table):
    pair = align_word("rayon", "район", lat2cyr_table)
    assert pair.target_segments == ("р", "а", "й", "о", "н")


def test_untileable_target(cyr2lat_table):
    with pytest.raises(AlignmentError):
        align_word("аб", "xyz", cyr2lat_table)


def test_search_backtracks_where_the_greedy_walk_dead_ends():
    # а takes "ab" first, which leaves "c" for б; only а -> "a" tiles
    table = MappingTable({"а": ("ab", "a"), "б": ("bc",)})
    assert align_word("аб", "abc", table).target_segments == ("a", "bc")
    assert align_corpus([("аб", "abc")], table) == ([AlignedPair("аб", ("a", "bc"))], [])


@pytest.mark.parametrize(
    ("source", "target"),
    [
        ("аw", "aw"),
        # the greedy walk dead-ends at б, before it reaches w
        ("бw", "xw"),
    ],
    ids=["walk-reaches-it", "walk-dead-ends-first"],
)
def test_unknown_source_char(cyr2lat_table, source, target):
    with pytest.raises(AlignmentError, match="no table entry for 'w'") as excinfo:
        align_word(source, target, cyr2lat_table)
    assert source[excinfo.value.position] == "w"
    assert excinfo.value.position == 1
    failures = align_corpus([(source, target)], cyr2lat_table)[1]
    assert failures == [AlignmentFailure(source, target, 1)]


def test_leftover_target_fails(cyr2lat_table):
    with pytest.raises(AlignmentError) as excinfo:
        align_word("б", "bola", cyr2lat_table)
    assert excinfo.value.position == 0


class _CountingStr(str):
    calls = 0

    def startswith(self, *args):
        type(self).calls += 1
        return super().startswith(*args)


@pytest.mark.parametrize(
    ("char", "segment", "table"),
    [("s", "с", "lat2cyr_table"), ("ъ", "'", "cyr2lat_table")],
    ids=["lat2cyr", "cyr2lat"],
)
def test_empty_candidates_cost_polynomial_time(request, char, segment, table):
    # each source char may take its segment or nothing, so a target with
    # one stray character at the end has 2**n dead ends to backtrack over
    n = 20
    target = _CountingStr(segment * n + "x")
    _CountingStr.calls = 0
    with pytest.raises(AlignmentError) as excinfo:
        align_word(char * n, target, request.getfixturevalue(table))
    assert excinfo.value.position == n - 1
    assert _CountingStr.calls <= 4 * (n + 1) * (len(target) + 1)


def test_empty_source_rejected(cyr2lat_table):
    with pytest.raises(ValueError):
        align_word("", "a", cyr2lat_table)
    # the greedy walk "tiles" an empty target with no segments; the pair
    # still goes to align_word
    with pytest.raises(ValueError):
        align_corpus([("", "")], cyr2lat_table)


def test_align_corpus_mixed(cyr2lat_table):
    alignments, failures = align_corpus(
        [("қўзичоқ", "qo'zichoq"), ("аб", "xyz")], cyr2lat_table
    )
    assert len(alignments) == 1
    assert len(failures) == 1
    assert failures[0].source == "аб"


def test_align_corpus_empty(cyr2lat_table):
    assert align_corpus([], cyr2lat_table) == ([], [])


def test_align_corpus_single_valued(cyr2lat_table):
    alignments, failures = align_corpus([("бола", "bola")], cyr2lat_table)
    assert len(alignments) == 1 and failures == []
    assert alignments[0].target_segments == ("b", "o", "l", "a")


def test_align_corpus_reports_pair_a_truncated_table_cannot_align(cyr2lat_table):
    entries = dict(cyr2lat_table.entries)
    entries["ц"] = ("ts",)  # drop the ц -> s rule
    truncated = MappingTable(entries)
    report = align_corpus([("цирк", "sirk")], truncated)[1]
    assert len(report) == 1
    assert (report[0].source, report[0].target, report[0].position) == ("цирк", "sirk", 0)


def test_bundled_lexicon_aligns_in_both_directions(lexicon, cyr2lat_table, lat2cyr_table):
    assert align_corpus(lexicon.oriented(CYR2LAT), cyr2lat_table)[1] == []
    assert align_corpus(lexicon.oriented(LAT2CYR), lat2cyr_table)[1] == []


def test_failure_report_format():
    report = format_failure_report(
        [AlignmentFailure("цирк", "sirk", 0), AlignmentFailure("аб", "xyz", 1)]
    )
    assert report == "цирк\tsirk\t0\nаб\txyz\t1\n"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_tiling_and_licensing_properties(seed, cyr2lat_table, lat2cyr_table):
    corpus = gen_corpus(12, seed=seed)
    for table, pairs in (
        (cyr2lat_table, corpus.pairs),
        (lat2cyr_table, [(lat, cyr) for cyr, lat in corpus.pairs]),
    ):
        for source, target in pairs:
            pair = align_word(source, target, table)
            assert "".join(pair.target_segments) == target
            assert len(pair.target_segments) == len(source)
            for char, segment in zip(pair.source, pair.target_segments):
                assert segment in table.entries[char]
            again = align_word(source, target, table)
            assert again == pair


def _reference_align(source, target, table):
    """Plain depth-first backtracking with no memory of dead states:
    ``("aligned", segments)``, ``("unknown", position)`` or
    ``("stuck", position)``, the furthest source position where no
    candidate matched (the last one when the target is left over)."""
    for position, char in enumerate(source):
        if table.candidates(char) is None:
            return "unknown", position
    fail = 0

    def walk(i, j):
        nonlocal fail
        if i == len(source):
            if j == len(target):
                return ()
            fail = max(fail, i - 1)
            return None
        matched = False
        for candidate in table.candidates(source[i]):
            if target.startswith(candidate, j):
                matched = True
                rest = walk(i + 1, j + len(candidate))
                if rest is not None:
                    return (candidate, *rest)
        if not matched:
            fail = max(fail, i)
        return None

    segments = walk(0, 0)
    return ("stuck", fail) if segments is None else ("aligned", segments)


_KEYS = "абвг"


@st.composite
def _words_and_tables(draw):
    """A table over some of _KEYS whose candidates include the empty
    string and multi-character strings, a source word that may hold a
    character outside it, and a target that is often a tiling of the
    source, sometimes with one character changed, added or dropped."""
    # over one letter, candidates overlap and the greedy walk often fails
    letters = draw(st.sampled_from(["x", "xy"]))
    candidates = st.lists(st.text(letters, max_size=3), min_size=1, max_size=3, unique=True)
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4, unique=True))
    table = MappingTable({key: draw(candidates) for key in keys})
    source = draw(st.text(st.sampled_from(keys + ["г"]), min_size=1, max_size=8))
    if draw(st.booleans()):
        target = "".join(
            draw(st.sampled_from(table.candidates(ch) or ("",))) for ch in source
        )
        cut = draw(st.integers(0, len(target)))
        end = cut + draw(st.integers(0, 1))
        target = target[:cut] + draw(st.sampled_from(["", "x", "y"])) + target[end:]
    else:
        target = draw(st.text(letters, max_size=10))
    return source, target, table


@settings(max_examples=250, deadline=None)
@given(case=_words_and_tables())
def test_align_word_matches_reference_search(case):
    source, target, table = case
    expected = _reference_align(source, target, table)
    try:
        got = ("aligned", align_word(source, target, table).target_segments)
    except AlignmentError as err:
        known = table.candidates(source[err.position]) is not None
        got = ("stuck" if known else "unknown", err.position)
    assert got == expected
    # align_corpus runs its greedy walk first, and the search only where
    # the walk does not tile the target
    alignments, failures = align_corpus([(source, target)], table)
    if expected[0] == "aligned":
        assert (alignments, failures) == ([AlignedPair(source, expected[1])], [])
    else:
        assert (alignments, failures) == ([], [AlignmentFailure(source, target, expected[1])])
