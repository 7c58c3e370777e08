import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from uztranslit import alphabets
from uztranslit.alphabets import (
    CYR2LAT,
    CYRILLIC,
    LAT2CYR,
    LATIN,
    MappingTable,
    TableParseError,
    bundled_script_spec,
    load_mapping_table,
    normalize_word,
)
from uztranslit.featurizer import WindowSpec
from uztranslit.pipeline import predict_segments, train_direction


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("o`zbek", "o'zbek"),
        ("КЎЗИЧОҚ", "кўзичоқ"),
        ("sirk", "sirk"),
        ("o‘zbek", "o'zbek"),
        ("maʼlum", "ma'lum"),
    ],
)
def test_normalize_examples(raw, expected):
    assert normalize_word(raw) == expected


def test_normalize_keeps_case_when_folding_off():
    assert normalize_word("Цирк", fold_case=False) == "Цирк"


@given(st.text(min_size=1, max_size=40))
def test_normalize_idempotent(word):
    once = normalize_word(word)
    assert normalize_word(once) == once


_TRANSLATE_FOLD = str.maketrans(dict.fromkeys(alphabets.APOSTROPHE_VARIANTS, "'"))


def _reference_normalize(word, fold_case):
    out = unicodedata.normalize("NFC", word).translate(_TRANSLATE_FOLD)
    if fold_case:
        out = out.lower()
    return unicodedata.normalize("NFC", out)


@given(
    st.text(
        st.one_of(
            st.sampled_from(sorted(alphabets.APOSTROPHE_VARIANTS)),
            st.characters(min_codepoint=0x400, max_codepoint=0x4FF),  # Cyrillic
            st.characters(min_codepoint=0x41, max_codepoint=0x7A),  # Latin, ASCII
            st.sampled_from("\u0301\u0306 -"),  # combining acute and breve
        ),
        max_size=40,
    ),
    st.booleans(),
)
def test_apostrophe_fold_matches_translate(word, fold_case):
    assert normalize_word(word, fold_case) == _reference_normalize(word, fold_case)


def test_bundled_alphabet_sizes(lexicon, cyr2lat_table, lat2cyr_table):
    """A model trained under a bundled table classifies that table's keys
    and passes every other character through."""
    for script, table, size, outside in (
        (CYRILLIC, cyr2lat_table, 36, "Бwѣ§1 "),
        (LATIN, lat2cyr_table, 27, "Bwш§1 "),
    ):
        alphabet = bundled_script_spec(script)
        assert alphabet == frozenset(table.entries)
        assert len(alphabet) == size and "-" in alphabet
        model = train_direction(lexicon, WindowSpec(0, 0), table)
        letters = sorted(alphabet - {"-", "'"})
        segments = predict_segments(model, "".join(letters) + outside)
        # every letter becomes the other script (or nothing), never itself
        assert all(seg != ch for ch, seg in zip(letters, segments))
        assert segments[len(letters) :] == list(outside)


def test_load_table_rows(tmp_path, cyr2lat_table):
    path = tmp_path / "t.tsv"
    path.write_text("# comment\nч\tch,∅\nб\tb\n", encoding="utf-8")
    table = load_mapping_table(path)
    assert table.entries["ч"] == ("ch", "")
    assert table.entries["б"] == ("b",)
    assert table.direction == CYR2LAT
    # the same rows as bundled
    assert cyr2lat_table.entries["ч"] == ("ch", "")
    assert cyr2lat_table.entries["б"] == ("b",)


def test_load_table_duplicate_key(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("а\ta\nа\tb\n", encoding="utf-8")
    with pytest.raises(TableParseError, match="duplicate key"):
        load_mapping_table(path)


def test_load_table_multichar_key(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("аб\tab\n", encoding="utf-8")
    with pytest.raises(TableParseError, match="single character"):
        load_mapping_table(path)


def test_load_table_reports_line_numbers(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("а\ta\nnonsense-line\n", encoding="utf-8")
    with pytest.raises(TableParseError, match=":2:"):
        load_mapping_table(path)


def test_candidate_order_longest_first_then_codepoint():
    table = MappingTable({"е": ("e", "ye"), "о": ("yo", "o")})
    assert table.entries["е"] == ("ye", "e")
    assert table.entries["о"] == ("yo", "o")
    rev = MappingTable({"o": ("ў", "о", "ё")})
    assert rev.entries["o"] == ("о", "ё", "ў")


def test_bundled_cyr2lat_shape(cyr2lat_table):
    assert len(cyr2lat_table.entries) == 36  # 35 letters plus hyphen
    single = [k for k, v in cyr2lat_table.entries.items() if len(v) == 1]
    assert len(single) == 25
    assert cyr2lat_table.entries["ь"] == ("",)
    assert cyr2lat_table.entries["-"] == ("-",)


def test_bundled_tables_roundtrip_format(tmp_path, cyr2lat_table, lat2cyr_table):
    for table in (cyr2lat_table, lat2cyr_table):
        for bom in ("", "\ufeff"):
            path = tmp_path / "dump.tsv"
            path.write_text(bom + table.format(), encoding="utf-8")
            again = load_mapping_table(path)
            assert again.direction == table.direction
            assert again.entries == table.entries


def test_parse_direction():
    assert alphabets.parse_direction("cyr2lat") == CYR2LAT
    assert alphabets.parse_direction("LAT2CYR") == LAT2CYR
    with pytest.raises(ValueError):
        alphabets.parse_direction("latin2greek")


@pytest.mark.parametrize(
    ("row", "message"),
    [("б\tb,,p\n", "empty candidate field"), ("б\tb, \n", "empty candidate field"),
     ("б\tb,p,b\n", "duplicate candidate for 'б'")],
)
def test_load_table_bad_candidates(tmp_path, row, message):
    path = tmp_path / "t.tsv"
    path.write_text("а\ta\n" + row, encoding="utf-8")
    with pytest.raises(TableParseError, match=f":2: {message}"):
        load_mapping_table(path)


@pytest.mark.parametrize(
    ("entries", "message"),
    [({}, "table is not a mapping with rows"),
     ({"а": "ab"}, "table key 'а': candidates are not a list of strings"),
     ({"а": ["a", 1]}, "table key 'а': candidates are not a list of strings"),
     ({"а": ()}, "table key 'а' has no candidates"),
     ({"аб": ("ab",)}, "table key 'аб' is not a single character"),
     ({"б": ("b", "p", "b")}, "duplicate candidate for 'б'"),
     # rows that a table file cannot hold
     ({"a": ["b,c", " d"]}, "table key 'a': candidate 'b,c' cannot be written to a table file"),
     ({"a": ["∅"]}, "table key 'a': candidate '∅' cannot be written to a table file"),
     ({"a": [" b"]}, "table key 'a': candidate ' b' cannot be written to a table file"),
     ({"a": ["b "]}, "table key 'a': candidate 'b ' cannot be written to a table file"),
     ({"a": ["\xa0b"]}, "table key 'a': candidate '\\xa0b' cannot be written to a table file"),
     ({"a": ["b\nc"]}, "table key 'a': candidate 'b\\nc' cannot be written to a table file"),
     ({"\n": ["b"]}, "table key '\\n' cannot be written to a table file"),
     ({"#": ["b"]}, "table key '#' cannot be written to a table file"),
     ({"\ud800": ["b"]}, "table key '\\ud800' cannot be written to a table file"),
     ({"a": ["b\udfff"]},
      "table key 'a': candidate 'b\\udfff' cannot be written to a table file")],
    ids=["empty", "str-candidates", "int-candidate", "no-candidates", "two-char-key",
         "duplicate-candidate", "comma", "empty-mark", "leading-space", "trailing-space",
         "leading-nbsp", "line-break", "line-break-key", "comment-key", "surrogate-key",
         "surrogate-candidate"],
)
def test_mapping_table_rejects_bad_rows(entries, message):
    with pytest.raises(ValueError) as raised:
        MappingTable(entries)
    assert str(raised.value) == message


# Keys and candidates over the characters that mean something in a table
# file: the field and candidate separators, whitespace that a line strip
# removes, line breaks, the comment mark, the empty mark and a lone
# surrogate, which UTF-8 cannot encode.
_FILE_CHARS = st.sampled_from("abцд") | st.sampled_from(", \t\n\r#∅\xa0\ud800")
_CANDIDATES = st.text(_FILE_CHARS, max_size=3) | st.builds(
    "{}{}{}".format, st.sampled_from("abцд"), st.text(_FILE_CHARS, max_size=2),
    st.sampled_from("abцд"),
)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.dictionaries(
        _FILE_CHARS, st.lists(_CANDIDATES, min_size=1, max_size=3, unique=True), max_size=3
    )
)
def test_every_accepted_table_reads_back_from_its_format(tmp_path_factory, entries):
    try:
        table = MappingTable(entries)
    except ValueError:
        return
    path = tmp_path_factory.mktemp("table") / "t.tsv"
    path.write_text(table.format(), encoding="utf-8")
    assert load_mapping_table(path) == table


def test_load_table_reports_shared_row_check_with_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# keys\nа\ta\nаб\tab\n", encoding="utf-8")
    with pytest.raises(TableParseError) as raised:
        load_mapping_table(path)
    assert str(raised.value) == f"{path}:3: table key 'аб' is not a single character"
    assert raised.value.line_no == 3
