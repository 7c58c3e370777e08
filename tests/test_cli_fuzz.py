"""The CLI contract under mutated inputs: whatever bytes the corpus,
table and model files hold, ``cli.main`` returns 0, 1 or 2 and raises
nothing, and every segment ``transliterate`` prints is one the model's table
licenses for its source character."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from uztranslit import dtree, pipeline
from uztranslit.alphabets import CYR2LAT, _data_path, bundled_mapping_table
from uztranslit.cli import main
from uztranslit.featurizer import WindowSpec

_CORPUS = (
    "бола\tbola\nцирк\tsirk\nдоцент\tdotsent\nцемент\tsement\n"
    "кўл\tko'l\nшаҳар\tshahar\nюлдуз\tyulduz\nсинф\tsinf\n"
)
_WORDS = [line.split("\t")[0] for line in _CORPUS.splitlines()]
_TABLE = _data_path("cyr2lat.tsv").read_bytes()

# bytes that matter to the file formats, and some that do not
_CHUNKS = st.sampled_from(
    [b"\t", b"\n", b"#", b",", b" ", b"'", b"x", "ц".encode(), "∅".encode(), b"\xef\xbb\xbf"]
) | st.binary(min_size=1, max_size=4)


_EDITS = ["insert", "overwrite", "cut", "duplicate", "flip", "truncate"]


@st.composite
def _mutated_bytes(draw, data: bytes) -> bytes:
    """``data`` after one to three edits: a chunk inserted, overwritten or
    cut, a span duplicated, a bit flipped, or the tail truncated."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(_CHUNKS)
        edit = draw(st.sampled_from(_EDITS))
        if edit == "insert":
            data[at:at] = chunk
        elif edit == "overwrite":
            data[at : at + len(chunk)] = chunk
        elif edit == "cut":
            del data[at : at + len(chunk)]
        elif edit == "duplicate":
            data[at:at] = data[at : at + 8 * len(chunk)]
        elif edit == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        else:
            del data[at:]
    return bytes(data)


def _slots(value):
    """Every (container, key) of a parsed JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


_REPLACEMENTS = st.sampled_from(
    [-1, 0, 1, 2, 3, 99, 1.5, True, None, "", "x", "s", "ts", "∅-PAD", [], {}, [0], {"s": 1}]
)


@st.composite
def _mutated_model(draw, data: bytes) -> bytes:
    """``data``, a model file, with its bytes mutated, a leaf relabelled,
    or one JSON value replaced or deleted (a tree, a tested position, a
    window bound, a count ...)."""
    edit = draw(st.integers(0, 3))
    if edit == 0:
        return draw(_mutated_bytes(data))
    obj = json.loads(data)
    if edit == 1:
        leaves = [node for nodes in obj["trees"].values() for node in nodes if len(node) == 2]
        draw(st.sampled_from(leaves))[0] = draw(st.sampled_from(["", "a", "s", "ts", "x", "ye"]))
    else:
        container, key = draw(st.sampled_from(list(_slots(obj))))
        if draw(st.integers(0, 4)):
            container[key] = draw(_REPLACEMENTS)
        else:
            del container[key]
    return json.dumps(obj, ensure_ascii=False).encode("utf-8")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def model_bytes(fuzz_dir):
    corpus = fuzz_dir / "pristine.tsv"
    corpus.write_text(_CORPUS, encoding="utf-8")
    model = pipeline.train_direction(
        pipeline.load_corpus(corpus), WindowSpec(1, 1), bundled_mapping_table(CYR2LAT)
    )
    return dtree.serialize(model)


def _run(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code, which must be 0, 1 or 2, and stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2)
    return code, stdout.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    corpus=_mutated_bytes(_CORPUS.encode("utf-8")) | st.just(_CORPUS.encode("utf-8")),
    table=_mutated_bytes(_TABLE) | st.just(_TABLE),
)
def test_cli_contract_on_mutated_corpus_and_table(fuzz_dir, model_bytes, corpus, table):
    corpus_path, table_path = fuzz_dir / "corpus.tsv", fuzz_dir / "table.tsv"
    corpus_path.write_bytes(corpus)
    table_path.write_bytes(table)
    model_path, out = fuzz_dir / "model.json", fuzz_dir / "out"
    model_path.write_bytes(model_bytes)
    inputs = ["--dir", "cyr2lat", "--corpus", corpus_path, "--table", table_path]
    _run(["train", *inputs, "-x", "1", "-y", "1", "--out", out])
    _run(["grid-search", *inputs, "--x-max", "1", "--y-max", "1", "--out", out])
    _run(["align", *inputs, "--out", out])
    _run(["evaluate", "--model", model_path, "--corpus", corpus_path, "--out", out])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_contract_on_mutated_model(fuzz_dir, model_bytes, data):
    model_path, out = fuzz_dir / "mutated.json", fuzz_dir / "report"
    model_path.write_bytes(data.draw(_mutated_model(model_bytes)))
    corpus_path = fuzz_dir / "pristine.tsv"
    _run(["evaluate", "--model", model_path, "--corpus", corpus_path, "--out", out])
    argv = ["transliterate", "--model", model_path]
    code, stdout = _run(argv + [arg for word in _WORDS for arg in ("--word", word)])
    if code == 0:
        model = dtree.load_model(model_path)
        outputs = [pipeline.predict_segments(model, word) for word in _WORDS]
        assert stdout == "".join("".join(segments) + "\n" for segments in outputs)
        for word, segments in zip(_WORDS, outputs):
            for char, segment in zip(word, segments):
                assert segment in model.table.entries.get(char, (char,)), (char, segment)
