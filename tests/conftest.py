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


def samples_of(rows, window: WindowSpec) -> Samples:
    """The column-major ``Samples`` of ``(features, label)`` rows at
    ``window``; rows of another width give a column count or length that
    ``dtree.train`` rejects."""
    rows = list(rows)
    columns = tuple(zip(*(features for features, _ in rows))) if rows else ((),) * window.width
    return Samples(window, columns, tuple(label for _, label in rows))


def rows_of(samples: Samples) -> list[Row]:
    """``samples`` as one row per sample, in order."""
    return [Row(features, label) for features, label in zip(zip(*samples.columns), samples.labels)]
