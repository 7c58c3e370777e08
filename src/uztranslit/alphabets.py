"""Alphabets, Unicode normalization, and character mapping tables.

The toolkit converts between the two scripts of Uzbek: Cyrillic
(35 letters) and Latin (30 letters, counting the digraphs o', g', sh,
ch, ng and the apostrophe). A MappingTable lists, for every single
source-script character, the candidate target strings it may align
with, including the empty string (written ``∅`` in table files).

A table's keys fix its direction: a table with a Cyrillic key maps
Cyrillic to Latin, any other Latin to Cyrillic.

MappingTable owns the row rules, whoever builds the table: at least
one row, each key one character, its candidates a list or tuple of one
or more distinct strings, and every row one a table file can hold, so
that ``format()`` reads back as the same table. ``load_mapping_table``
checks only the file syntax and reports a row that breaks a rule as
``path:line``; a model file's table rows go through the same check.

A model carries the table it was trained under, and its keys are the
model's alphabet. The bundled tables have 36 Cyrillic keys (35 letters
and the hyphen) and 27 Latin ones (25 letters, the apostrophe and the
hyphen; digraphs are spelled with these).
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping

CANONICAL_APOSTROPHE = "'"

# U+0027 ' | U+2018 LEFT QUOTE | U+2019 RIGHT QUOTE | U+0060 GRAVE |
# U+00B4 ACUTE | U+02BB TURNED COMMA | U+02BC MODIFIER APOSTROPHE
APOSTROPHE_VARIANTS = frozenset("'‘’`´ʻʼ")

# One compiled character class: on Cyrillic text ``re.sub`` finds the
# rare variant faster than ``str.translate`` maps every character.
_APOSTROPHE_FOLD = re.compile(
    "[" + re.escape("".join(sorted(APOSTROPHE_VARIANTS - {CANONICAL_APOSTROPHE}))) + "]"
)

# In table files U+2205 stands for the empty target string.
EMPTY_MARK = "∅"

# A lone surrogate code point has no UTF-8 encoding: no file can hold it.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")

CYRILLIC = "cyrillic"
LATIN = "latin"

Direction = tuple[str, str]

CYR2LAT: Direction = (CYRILLIC, LATIN)
LAT2CYR: Direction = (LATIN, CYRILLIC)


class TableParseError(ValueError):
    """Raised when a mapping-table file is malformed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def normalize_word(word: str, fold_case: bool = True) -> str:
    """Return ``word`` in canonical form: NFC, one apostrophe code point,
    and lowercase unless ``fold_case`` is off. Idempotent and total."""
    out = _APOSTROPHE_FOLD.sub(CANONICAL_APOSTROPHE, unicodedata.normalize("NFC", word))
    if fold_case:
        out = out.lower()
    return unicodedata.normalize("NFC", out)


def _canonical_candidates(candidates: Iterable[str]) -> tuple[str, ...]:
    # Longest first so the alignment search prefers digraphs; ties by
    # code point order for determinism.
    return tuple(sorted(candidates, key=lambda c: (-len(c), c)))


@dataclass(frozen=True)
class MappingTable:
    """Per source character, the admissible target strings, in search order.
    ``direction`` is inferred from the keys (see infer_direction)."""

    entries: Mapping[str, tuple[str, ...]]
    direction: Direction = field(init=False)

    def __post_init__(self):
        """ValueError unless the table has rows and every row passes
        ``check_row``."""
        if not isinstance(self.entries, Mapping) or not self.entries:
            raise ValueError("table is not a mapping with rows")
        canon = {key: self.check_row(key, candidates) for key, candidates in self.entries.items()}
        object.__setattr__(self, "entries", canon)
        object.__setattr__(self, "direction", infer_direction(canon))

    @staticmethod
    def check_row(key, candidates) -> tuple[str, ...]:
        """The canonical candidates of one table row; ValueError unless
        ``key`` is one character and ``candidates`` a list or tuple of
        distinct strings, at least one, and a table file can hold the
        row: the key is no whitespace, no ``#`` and no lone surrogate, and
        no candidate is ``∅``, holds a comma, a line break or a lone
        surrogate, or starts or ends with whitespace."""
        if not isinstance(key, str) or len(key) != 1:
            raise ValueError(f"table key {key!r} is not a single character")
        if key.isspace() or key == "#" or LONE_SURROGATE.match(key):
            raise ValueError(f"table key {key!r} cannot be written to a table file")
        if not isinstance(candidates, (list, tuple)) or not all(
            isinstance(c, str) for c in candidates
        ):
            raise ValueError(f"table key {key!r}: candidates are not a list of strings")
        if not candidates:
            raise ValueError(f"table key {key!r} has no candidates")
        if len(set(candidates)) != len(candidates):
            raise ValueError(f"duplicate candidate for {key!r}")
        for c in candidates:
            if c != c.strip() or c == EMPTY_MARK or LONE_SURROGATE.search(c) or any(
                ch in c for ch in ",\n\r"
            ):
                raise ValueError(
                    f"table key {key!r}: candidate {c!r} cannot be written to a table file"
                )
        return _canonical_candidates(candidates)

    def candidates(self, char: str) -> tuple[str, ...] | None:
        return self.entries.get(char)

    def format(self) -> str:
        """Render in the table file format (``∅`` for the empty string)."""
        lines = [f"# mapping table: {self.direction[0]} -> {self.direction[1]}"]
        for key in sorted(self.entries):
            cands = ",".join(c if c else EMPTY_MARK for c in self.entries[key])
            lines.append(f"{key}\t{cands}")
        return "\n".join(lines) + "\n"


def infer_direction(keys: Iterable[str]) -> Direction:
    """cyr2lat if any key is a Cyrillic code point, else lat2cyr."""
    for key in keys:
        if "Ѐ" <= key <= "ӿ":
            return CYR2LAT
    return LAT2CYR


def load_mapping_table(path) -> MappingTable:
    """Parse a mapping-table file.

    One entry per line: ``<source-char><TAB><candidate>{,<candidate>}``,
    ``∅`` denoting the empty string, ``#`` starting a comment.
    """
    entries: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8-sig") as handle:  # a leading BOM is not text
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                raise TableParseError(path, line_no, "expected <char><TAB><candidates>")
            key, _, cand_text = line.partition("\t")
            if key in entries:
                raise TableParseError(path, line_no, f"duplicate key {key!r}")
            candidates = []
            for item in cand_text.split(","):
                item = item.strip()
                if not item:
                    raise TableParseError(path, line_no, "empty candidate field")
                candidates.append("" if item == EMPTY_MARK else item)
            try:
                entries[key] = MappingTable.check_row(key, candidates)
            except ValueError as err:
                raise TableParseError(path, line_no, str(err)) from err
    if not entries:
        raise TableParseError(path, 0, "table file has no entries")
    return MappingTable(entries)


def _data_path(filename: str):
    return resources.files(__package__).joinpath("data", filename)


def bundled_mapping_table(direction: Direction) -> MappingTable:
    if direction == CYR2LAT:
        return load_mapping_table(_data_path("cyr2lat.tsv"))
    if direction == LAT2CYR:
        return load_mapping_table(_data_path("lat2cyr.tsv"))
    raise ValueError(f"unknown direction {direction!r}")


def bundled_script_spec(script: str) -> frozenset[str]:
    """The source characters of the bundled table that maps from
    ``script``."""
    for direction in (CYR2LAT, LAT2CYR):
        if direction[0] == script:
            return frozenset(bundled_mapping_table(direction).entries)
    raise ValueError(f"unknown script {script!r}")


def parse_direction(text: str) -> Direction:
    directions = {"cyr2lat": CYR2LAT, "lat2cyr": LAT2CYR}
    try:
        return directions[text.lower()]
    except KeyError:
        raise ValueError(f"unknown direction {text!r}; use cyr2lat or lat2cyr")
