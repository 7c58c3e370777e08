from typing import NamedTuple

import pytest

from uztranslit import alphabets, gencorpus, pipeline
from uztranslit.alphabets import CYR2LAT, LAT2CYR
from uztranslit.featurizer import Samples, WindowSpec


@pytest.fixture(scope="session")
def cyr2lat_table():
    return alphabets.bundled_mapping_table(CYR2LAT)


@pytest.fixture(scope="session")
def lat2cyr_table():
    return alphabets.bundled_mapping_table(LAT2CYR)


@pytest.fixture(scope="session")
def lexicon():
    return pipeline.load_corpus(
        alphabets._data_path("lexicon.tsv")
    )


@pytest.fixture(scope="session")
def synthetic_small():
    return gencorpus.gen_corpus(400, seed=11)


class Row(NamedTuple):
    """One training sample written out as a row: its window and label."""

    features: tuple[str, ...]
    label: str


def by_label(rows) -> list:
    """``rows`` grouped stably by label: labels in order of first
    occurrence, each label's rows in their given order. This is the
    order in which ``Samples`` holds them."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[1], []).append(row)
    return [row for group in groups.values() for row in group]


def samples_of(rows, window: WindowSpec) -> Samples:
    """The label-major ``Samples`` of ``(features, label)`` rows at
    ``window``; a label whose rows have another width gets a block that
    ``dtree.train`` rejects."""
    grouped: dict = {}
    for features, label in rows:
        grouped.setdefault(label, []).append(features)
    return Samples(window, {label: tuple(zip(*vectors)) for label, vectors in grouped.items()})


def rows_of(samples: Samples) -> list[Row]:
    """``samples`` as one row per sample, label by label."""
    return [
        Row(features, label)
        for label, block in samples.blocks.items()
        for features in zip(*block)
    ]
