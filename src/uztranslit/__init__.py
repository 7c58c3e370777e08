"""Trainable character-level Uzbek Cyrillic/Latin transliteration toolkit."""

from .alphabets import (
    CYR2LAT,
    LAT2CYR,
    MappingTable,
    NormalizationPolicy,
    ScriptSpec,
    bundled_mapping_table,
    bundled_script_spec,
    load_mapping_table,
    normalize_word,
)
from .aligner import AlignedPair, align_corpus, align_word
from .featurizer import PAD, Sample, WindowSpec, dedup_samples, extract_samples
from .dtree import TranslitModel, deserialize, gini, predict, serialize, train
from .gencorpus import gen_corpus
from .pipeline import (
    Corpus,
    EvalReport,
    SplitConfig,
    evaluate,
    grid_search,
    load_corpus,
    round_trip_check,
    split_corpus,
    train_direction,
    transliterate_word,
)

__version__ = "0.1.0"

__all__ = [
    "CYR2LAT",
    "LAT2CYR",
    "MappingTable",
    "NormalizationPolicy",
    "ScriptSpec",
    "bundled_mapping_table",
    "bundled_script_spec",
    "load_mapping_table",
    "normalize_word",
    "AlignedPair",
    "align_corpus",
    "align_word",
    "PAD",
    "Sample",
    "WindowSpec",
    "dedup_samples",
    "extract_samples",
    "TranslitModel",
    "deserialize",
    "gini",
    "predict",
    "serialize",
    "train",
    "gen_corpus",
    "Corpus",
    "EvalReport",
    "SplitConfig",
    "evaluate",
    "grid_search",
    "load_corpus",
    "round_trip_check",
    "split_corpus",
    "train_direction",
    "transliterate_word",
]
