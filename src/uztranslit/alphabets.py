"""Alphabets, Unicode normalization, and character mapping tables.

The toolkit converts between the two scripts of Uzbek: Cyrillic
(35 letters) and Latin (30 letters, counting the digraphs o', g', sh,
ch, ng and the apostrophe). A MappingTable lists, for every single
source-script character, the candidate target strings it may align
with, including the empty string (written ``∅`` in table files).

A model carries the table it was trained under, and its keys are the
model's alphabet. The bundled tables have 36 Cyrillic keys (35 letters
and the hyphen) and 27 Latin ones (25 letters, the apostrophe and the
hyphen; digraphs are spelled with these).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping

CANONICAL_APOSTROPHE = "'"

# U+0027 ' | U+2018 LEFT QUOTE | U+2019 RIGHT QUOTE | U+0060 GRAVE |
# U+00B4 ACUTE | U+02BB TURNED COMMA | U+02BC MODIFIER APOSTROPHE
APOSTROPHE_VARIANTS = frozenset("'‘’`´ʻʼ")

# In table files U+2205 stands for the empty target string.
EMPTY_MARK = "∅"

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
    out = unicodedata.normalize("NFC", word)
    out = "".join(CANONICAL_APOSTROPHE if ch in APOSTROPHE_VARIANTS else ch for ch in out)
    if fold_case:
        out = out.lower()
    return unicodedata.normalize("NFC", out)


def _canonical_candidates(candidates: Iterable[str]) -> tuple[str, ...]:
    # Longest first so the alignment search prefers digraphs; ties by
    # code point order for determinism.
    return tuple(sorted(candidates, key=lambda c: (-len(c), c)))


@dataclass(frozen=True)
class MappingTable:
    """Per source character, the admissible target strings, in search order."""

    direction: Direction
    entries: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        canon = {}
        for key, candidates in self.entries.items():
            if len(key) != 1:
                raise ValueError(f"table key {key!r} is not a single code point")
            cands = _canonical_candidates(candidates)
            if not cands:
                raise ValueError(f"table key {key!r} has no candidates")
            if len(set(cands)) != len(cands):
                raise ValueError(f"table key {key!r} has duplicate candidates")
            canon[key] = cands
        object.__setattr__(self, "entries", canon)

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
    ``∅`` denoting the empty string, ``#`` starting a comment. The
    direction is inferred from the script of the keys.
    """
    entries: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                raise TableParseError(path, line_no, "expected <char><TAB><candidates>")
            key, _, cand_text = line.partition("\t")
            if len(key) != 1:
                raise TableParseError(
                    path, line_no, f"key {key!r} is not a single character"
                )
            if key in entries:
                raise TableParseError(path, line_no, f"duplicate key {key!r}")
            candidates = []
            for item in cand_text.split(","):
                item = item.strip()
                if not item:
                    raise TableParseError(path, line_no, "empty candidate field")
                candidates.append("" if item == EMPTY_MARK else item)
            if len(set(candidates)) != len(candidates):
                raise TableParseError(path, line_no, f"duplicate candidate for {key!r}")
            entries[key] = tuple(candidates)
    if not entries:
        raise TableParseError(path, 0, "table file has no entries")
    return MappingTable(direction=infer_direction(entries), entries=entries)


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
    aliases = {
        "cyr2lat": CYR2LAT,
        "lat2cyr": LAT2CYR,
        "cyrillic-latin": CYR2LAT,
        "latin-cyrillic": LAT2CYR,
    }
    try:
        return aliases[text.lower()]
    except KeyError:
        raise ValueError(f"unknown direction {text!r}; use cyr2lat or lat2cyr")
