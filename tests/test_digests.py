"""The committed tree and output digests: every line of
``tests/data/digests.txt`` is recomputed through the digest function of
``scripts/model_digests.py``. A change that moves a tree or an output
fails here; a change meant to do so regenerates the file."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "digests.txt"


def _model_digests():
    spec = importlib.util.spec_from_file_location(
        "model_digests", ROOT / "scripts" / "model_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trees_and_outputs_match_committed_digests():
    model_digests = _model_digests()
    committed = [
        line for line in DIGESTS.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    parts = {}
    regenerated = []
    for line in committed:
        corpus, name, x, y = line.split()[:4]
        if corpus not in parts:
            parts[corpus] = model_digests.corpus_parts(corpus)
        regenerated.append(model_digests.digest_line(corpus, parts[corpus], name, int(x), int(y)))
    assert len(committed) == 74
    assert regenerated == committed
