import pytest
from hypothesis import given, strategies as st

from uztranslit import alphabets
from uztranslit.aligner import align_corpus
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
    table = MappingTable(CYR2LAT, {"е": ("e", "ye"), "о": ("yo", "o")})
    assert table.entries["е"] == ("ye", "e")
    assert table.entries["о"] == ("yo", "o")
    rev = MappingTable(LAT2CYR, {"o": ("ў", "о", "ё")})
    assert rev.entries["o"] == ("о", "ё", "ў")


def test_bundled_cyr2lat_shape(cyr2lat_table):
    assert len(cyr2lat_table.entries) == 36  # 35 letters plus hyphen
    single = [k for k, v in cyr2lat_table.entries.items() if len(v) == 1]
    assert len(single) == 25
    assert cyr2lat_table.entries["ь"] == ("",)
    assert cyr2lat_table.entries["-"] == ("-",)


def test_bundled_tables_roundtrip_format(tmp_path, cyr2lat_table, lat2cyr_table):
    for table in (cyr2lat_table, lat2cyr_table):
        path = tmp_path / "dump.tsv"
        path.write_text(table.format(), encoding="utf-8")
        again = load_mapping_table(path)
        assert again.direction == table.direction
        assert again.entries == table.entries


def test_discover_unmapped_truncated_table(cyr2lat_table):
    entries = dict(cyr2lat_table.entries)
    entries["ц"] = ("ts",)  # drop the ц -> s rule
    truncated = MappingTable(CYR2LAT, entries)
    report = align_corpus([("цирк", "sirk")], truncated)[1]
    assert len(report) == 1
    assert (report[0].source, report[0].target, report[0].position) == ("цирк", "sirk", 0)


def test_discover_unmapped_covered_and_empty(cyr2lat_table):
    assert align_corpus([("бола", "bola")], cyr2lat_table)[1] == []
    assert align_corpus([], cyr2lat_table)[1] == []


def test_discover_unmapped_empty_on_bundled_lexicon(lexicon, cyr2lat_table, lat2cyr_table):
    assert align_corpus(lexicon.oriented(CYR2LAT), cyr2lat_table)[1] == []
    assert align_corpus(lexicon.oriented(LAT2CYR), lat2cyr_table)[1] == []


def test_parse_direction():
    assert alphabets.parse_direction("cyr2lat") == CYR2LAT
    assert alphabets.parse_direction("LAT2CYR") == LAT2CYR
    with pytest.raises(ValueError):
        alphabets.parse_direction("latin2greek")
