"""Rule-based synthetic corpus generator, the oracle for property tests.

Pseudo-words are built from Cyrillic letters whose Latin mapping is
single-valued, plus a controlled set of context-rule letters (ц, е, я,
ю, ё) whose Latin form follows the deterministic orthography rules:
word-initial or word-final ц is s, post-vowel ц is ts, post-consonant ц
is s; е is ye word-initially and after vowels, e after consonants; я and
ю likewise turn into a/u after consonants.

Placement of the tricky letters is restricted so that, in both
directions, the target segment of a character is a function of its
immediate neighbours. Consequences, relied on by the test suite:
  - samples extracted at any window with x >= 1 and y >= 1 are
    conflict-free (identical features imply identical label), and
  - the Latin form determines the Cyrillic form, so a pure-fit model
    pair round-trips 100% of generated words.
The placement rules are the alternatives of ``_MISPLACED``, one per
rule. The generator also uses no letter with a lossy mapping (ь, ъ),
and neither с nor э, whose Latin forms collide with ц and е.
"""

from __future__ import annotations

import random
import re

from .pipeline import Corpus

PLAIN_VOWELS = "аиоу"
IOTATED_VOWELS = "еяюё"
SPECIAL_VOWEL = "ў"
VOWELS = set(PLAIN_VOWELS + IOTATED_VOWELS + SPECIAL_VOWEL)

CONSONANTS = "бвгджзклмнпртфхчшғқҳ"

_SIMPLE = {
    "а": "a", "б": "b", "в": "v", "г": "g", "д": "d", "ж": "j", "з": "z",
    "и": "i", "й": "y", "к": "k", "л": "l", "м": "m", "н": "n", "о": "o",
    "п": "p", "р": "r", "т": "t", "у": "u", "ф": "f", "х": "x", "ч": "ch",
    "ш": "sh", "ё": "yo", "ў": "o'", "ғ": "g'", "қ": "q", "ҳ": "h",
}


def latinize_char(prev: str | None, char: str, nxt: str | None) -> str:
    """Latin form of one Cyrillic character given its neighbours."""
    if char == "ц":
        if prev is None or nxt is None:
            return "s"
        return "ts" if prev in VOWELS else "s"
    if char in "еяю":
        iotated = prev is None or prev in VOWELS
        return {"е": ("ye", "e"), "я": ("ya", "a"), "ю": ("yu", "u")}[char][
            0 if iotated else 1
        ]
    return _SIMPLE[char]


def latinize_word(word: str) -> str:
    n = len(word)
    return "".join(
        latinize_char(word[i - 1] if i else None, word[i], word[i + 1] if i + 1 < n else None)
        for i in range(n)
    )


_V = "".join(sorted(VOWELS))
# One alternative per placement rule; a word is valid when none matches.
_MISPLACED = re.compile(
    f"[^{_V}][яюцй]"  # я, ю, ц or й after a consonant
    "|^й"  # word-initial й
    f"|^ц(?![{_V}])"  # word-initial ц not before a vowel
    f"|[{_V}]ц[^{_V}]"  # post-vowel ц before a consonant
    f"|й[й{_V.replace('и', '')}]"  # й before й, or before a vowel other than и
    "|тш"  # тш, whose Latin tsh collides with the ts of ц at one character of context
)


def valid_word(word: str) -> bool:
    """Whether ``word`` keeps every placement rule of ``_MISPLACED``."""
    return _MISPLACED.search(word) is None


def _random_word(rng: random.Random) -> str:
    chars: list[str] = []
    n_syllables = rng.randint(2, 4)
    for syllable in range(n_syllables):
        last = syllable == n_syllables - 1
        # onset
        if rng.random() < (0.75 if syllable == 0 else 0.85):
            prev = chars[-1] if chars else None
            if rng.random() < 0.08 and (prev is None or prev in VOWELS):
                chars.append("ц")
            else:
                chars.append(rng.choice(CONSONANTS))
        # nucleus
        prev = chars[-1] if chars else None
        roll = rng.random()
        if roll < 0.22 and (prev is None or prev in VOWELS):
            chars.append(rng.choice(IOTATED_VOWELS))
        elif roll < 0.30 and prev not in VOWELS:
            chars.append(rng.choice("её"))  # iotated letters legal after consonants
        elif roll < 0.38:
            chars.append(SPECIAL_VOWEL)
        else:
            chars.append(rng.choice(PLAIN_VOWELS))
        # coda
        roll = rng.random()
        if roll < 0.10:
            chars.append("й")
        elif roll < 0.14 and last:
            chars.append("ц")  # word-final ц, the shpris-style rule case
        elif roll < 0.35:
            chars.append(rng.choice(CONSONANTS))
    return "".join(chars)


def gen_corpus(size: int, seed: int) -> Corpus:
    """Generate ``size`` distinct rule-consistent (cyrillic, latin) pairs."""
    if size <= 0:
        raise ValueError("size must be positive")
    rng = random.Random(seed)
    seen: set[str] = set()
    pairs: list[tuple[str, str]] = []
    while len(pairs) < size:
        word = _random_word(rng)
        if word in seen or not valid_word(word):
            continue
        seen.add(word)
        pairs.append((word, latinize_word(word)))
    return Corpus(
        pairs=pairs, provenance=f"synthetic rule corpus (size={size}, seed={seed})"
    )
