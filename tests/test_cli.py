import json
import os
import stat

import pytest

from conftest import varying_keys
from uztranslit import cli, dtree, gencorpus, pipeline
from uztranslit.alphabets import _data_path
from uztranslit.cli import main


@pytest.fixture()
def lexicon_path():
    return str(_data_path("lexicon.tsv"))


@pytest.fixture()
def trained_model(tmp_path, lexicon_path):
    out = tmp_path / "m.json"
    code = main(
        ["train", "--dir", "cyr2lat", "-x", "2", "-y", "3",
         "--corpus", lexicon_path, "--out", str(out)]
    )
    assert code == 0
    return out


def test_train_writes_model(trained_model):
    model = dtree.load_model(trained_model)
    assert model.direction == ("cyrillic", "latin")
    assert model.window.x == 2 and model.window.y == 3


def test_transliterate_prints_result(trained_model, capsys):
    code = main(["transliterate", "--model", str(trained_model), "--word", "цирк"])
    assert code == 0
    assert capsys.readouterr().out == "sirk\n"


def test_transliterate_restores_case(trained_model, capsys):
    code = main(
        ["transliterate", "--model", str(trained_model),
         "--word", "ЦИРК", "--word", "Цирк"]
    )
    assert code == 0
    assert capsys.readouterr().out == "SIRK\nSirk\n"


def test_transliterate_prints_pass_through_characters_in_nfc(trained_model, capsys):
    # lowercasing "H" + U+0331 gives "h" + U+0331, which NFC composes to
    # U+1E96; a word whose case is left alone is NFC too: U+0308 passes
    # through after "ш" -> "sh" and composes with its "h" to U+1E27
    code = main(
        ["transliterate", "--model", str(trained_model),
         "--word", "болаH\u0331", "--word", "аJ\u030c", "--word", "БОЛАH\u0331",
         "--word", "ш\u0308"]
    )
    assert code == 0
    assert capsys.readouterr().out == "bola\u1e96\na\u01f0\nBOLAH\u0331\ns\u1e27\n"


def test_transliterate_prints_cased_output_in_nfc(trained_model, capsys):
    # "İ" lowercases to "i" + U+0307, and upper-casing that back composes
    # under NFC to U+0130
    code = main(
        ["transliterate", "--model", str(trained_model), "--word", "БОЛАİ", "--word", "İбола"]
    )
    assert code == 0
    assert capsys.readouterr().out == "BOLA\u0130\n\u0130bola\n"


def test_transliterate_empty_word_prints_empty_line(trained_model, capsys):
    code = main(["transliterate", "--model", str(trained_model), "--word", ""])
    assert code == 0
    assert capsys.readouterr().out == "\n"


def test_out_of_range_feature_index_is_data_error(tmp_path, trained_model, capsys):
    obj = json.loads(trained_model.read_bytes())
    width = obj["window"]["x"] + 1 + obj["window"]["y"]
    nodes = obj["trees"]["ц"]
    assert len(nodes[0]) == 4  # ц: s or ts, by context
    for bad_index in (width, -1):
        nodes[0][0] = bad_index
        broken = tmp_path / f"broken{bad_index}.json"
        broken.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
        code = main(["transliterate", "--model", str(broken), "--word", "цирк"])
        assert code == 2
        assert f"feature index {bad_index} outside window width {width}" in (
            capsys.readouterr().err
        )


def test_float_window_bound_is_data_error(tmp_path, trained_model, capsys):
    obj = json.loads(trained_model.read_bytes())
    obj["window"]["x"] = float(obj["window"]["x"])
    broken = tmp_path / "float-x.json"
    broken.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    code = main(["transliterate", "--model", str(broken), "--word", "цирк"])
    assert code == 2
    assert "window bounds are not ints" in capsys.readouterr().err


def test_v3_model_is_data_error(tmp_path, trained_model, capsys):
    obj = json.loads(trained_model.read_bytes())
    obj["format_version"] = 3
    obj["direction"] = ["cyrillic", "latin"]
    old = tmp_path / "v3.json"
    old.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    code = main(["transliterate", "--model", str(old), "--word", "цирк"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "retrain" in captured.err


def test_model_with_shared_child_is_data_error(tmp_path, capsys):
    # nodes 0 and 1 both point at leaf 2: a DAG, not a tree
    nodes = [[1, "ц", 1, 2], [1, "и", 2, 3], ["s", {"s": 1}], ["ts", {"ts": 1}]]
    broken = tmp_path / "shared.json"
    broken.write_text(
        json.dumps({"format_version": 5,
                    "table": {"ц": ["s", "ts"], "и": ["i"]}, "window": {"x": 0, "y": 1},
                    "trees": {"ц": nodes, "и": [["i", {}]]}},
                   ensure_ascii=False),
        encoding="utf-8",
    )
    code = main(["transliterate", "--model", str(broken), "--word", "цирк"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node 2 has more than one parent" in captured.err


def _break_ts_leaf(obj):
    """Relabel a "ts" leaf of ц's tree as "x", which ц does not license."""
    leaf = next(node for node in obj["trees"]["ц"] if node[0] == "ts")
    leaf[0] = "x"


@pytest.mark.parametrize(
    ("breaks", "message"),
    [
        (_break_ts_leaf, "leaf label 'x' is not a table candidate"),
        (lambda obj: obj["trees"].update(q=[["q", {"q": 1}]]),
         "model trees are not one per table key: ['q']"),
        (lambda obj: obj["trees"].pop("ц"), "model trees are not one per table key: ['ц']"),
        (lambda obj: obj["trees"]["ц"][0].__setitem__(0, 2),
         "tree of 'ц': node 0 tests the focus position 2"),
        (lambda obj: obj.update(format_version=4, nodes=obj.pop("trees")["ц"]),
         "format_version 4; this build reads 5, so retrain the model"),
    ],
    ids=["unlicensed-leaf", "non-key-tree", "missing-key-tree", "tests-focus", "format-4"],
)
def test_invalid_key_trees_are_data_errors(tmp_path, trained_model, capsys, breaks, message):
    obj = json.loads(trained_model.read_bytes())
    breaks(obj)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    code = main(["transliterate", "--model", str(broken), "--word", "цирк"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_deeply_nested_model_is_data_error(tmp_path, capsys):
    depth = 200_000
    broken = tmp_path / "deep.json"
    broken.write_text(
        '{"format_version":5,"table":{"ц":["s"]},'
        '"window":{"x":0,"y":0},"trees":{"ц":' + "[" * depth + "]" * depth + "}}",
        encoding="utf-8",
    )
    code = main(["transliterate", "--model", str(broken), "--word", "цирк"])
    assert code == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_bad_model_table_is_data_error(tmp_path, trained_model, capsys):
    obj = json.loads(trained_model.read_bytes())
    obj["table"]["ц"] = []
    broken = tmp_path / "bad-table.json"
    broken.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    code = main(["transliterate", "--model", str(broken), "--word", "цирк"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "table key 'ц' has no candidates" in captured.err


@pytest.mark.parametrize("missing", ["corpus", "model", "table"])
def test_missing_file_is_usage_error(tmp_path, lexicon_path, capsys, missing):
    absent = str(tmp_path / "absent")
    out = str(tmp_path / "m.json")
    argv = {
        "corpus": ["train", "--dir", "cyr2lat", "--corpus", absent, "--out", out],
        "model": ["transliterate", "--model", absent, "--word", "цирк"],
        "table": ["train", "--dir", "cyr2lat", "--corpus", lexicon_path,
                  "--table", absent, "--out", out],
    }[missing]
    assert main(argv) == 1
    assert absent in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_unknown_flag_is_usage_error():
    assert main(["train", "--frobnicate"]) == 1


def test_missing_required_flag_is_usage_error():
    assert main(["train", "--dir", "cyr2lat"]) == 1


def test_bad_direction_is_usage_error(tmp_path, lexicon_path):
    code = main(
        ["train", "--dir", "cyr2klingon", "--corpus", lexicon_path,
         "--out", str(tmp_path / "m.json")]
    )
    assert code == 1


def test_unalignable_corpus_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "bad.tsv"
    corpus.write_text("аб\txyz\n" * 10, encoding="utf-8")
    for argv in (["train", "--out", str(tmp_path / "m.json")],
                 ["grid-search", "--x-max", "1", "--y-max", "1",
                  "--best-model", str(tmp_path / "m.json")]):
        code = main(argv + ["--dir", "cyr2lat", "--corpus", str(corpus)])
        assert code == 2
        assert "no training pair could be aligned" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def test_training_without_usable_pair_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("икки суз\tikki so'z\n", encoding="utf-8")  # multi-word: dropped
    for argv, purpose in ((["train", "--out", str(tmp_path / "m.json")], "train on"),
                          (["grid-search", "--x-max", "1", "--y-max", "1",
                            "--best-model", str(tmp_path / "m.json")], "search on")):
        code = main(argv + ["--dir", "cyr2lat", "--corpus", str(corpus)])
        assert code == 2
        assert f"{corpus} has no usable pair to {purpose}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


def test_align_without_usable_pair_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("икки суз\tikki so'z\n", encoding="utf-8")  # multi-word: dropped
    out = tmp_path / "out.tsv"
    code = main(["align", "--dir", "cyr2lat", "--corpus", str(corpus), "--out", str(out)])
    assert code == 2
    assert f"{corpus} has no usable pair to align" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_table_is_data_error(tmp_path, lexicon_path):
    table = tmp_path / "t.tsv"
    table.write_text("а\ta\nа\tb\n", encoding="utf-8")
    code = main(
        ["train", "--dir", "cyr2lat", "--corpus", lexicon_path,
         "--table", str(table), "--out", str(tmp_path / "m.json")]
    )
    assert code == 2


def test_table_file_without_rows_is_data_error(tmp_path, lexicon_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("# no rows\n\n   \n# still none\n", encoding="utf-8")
    out = tmp_path / "m.json"
    code = main(
        ["train", "--dir", "cyr2lat", "--corpus", lexicon_path,
         "--table", str(table), "--out", str(out)]
    )
    assert code == 2
    assert f"{table}:0: table file has no entries" in capsys.readouterr().err
    assert not out.exists()


def test_align_writes_alignments_and_failures(tmp_path, lexicon_path):
    out = tmp_path / "al.tsv"
    fails = tmp_path / "fails.tsv"
    corpus = tmp_path / "c.tsv"
    corpus.write_text("бола\tbola\nаб\txyz\n", encoding="utf-8")
    code = main(
        ["align", "--dir", "cyr2lat", "--corpus", str(corpus),
         "--out", str(out), "--failures", str(fails)]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == "бола\tbola\tb|o|l|a\n"
    assert fails.read_text(encoding="utf-8") == "аб\txyz\t0\n"


def test_align_empty_segment_rendering(tmp_path):
    out = tmp_path / "al.tsv"
    corpus = tmp_path / "c.tsv"
    corpus.write_text("ось\tos\n", encoding="utf-8")
    code = main(["align", "--dir", "cyr2lat", "--corpus", str(corpus), "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == "ось\tos\to|s|∅\n"


def test_align_hopeless_corpus_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("аб\txyz\n", encoding="utf-8")
    code = main(["align", "--dir", "cyr2lat", "--corpus", str(corpus),
                 "--out", str(tmp_path / "al.tsv")])
    assert code == 2
    assert not (tmp_path / "al.tsv").exists()
    err = capsys.readouterr().err
    assert "аб\txyz\t0\n" in err
    assert "aligned 0 of 1 pairs (1 failures)" in err


def test_gen_corpus_deterministic(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert main(["gen-corpus", "--size", "40", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen-corpus", "--size", "40", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")


def test_gen_corpus_size_zero_usage_error(tmp_path):
    assert main(["gen-corpus", "--size", "0", "--out", str(tmp_path / "x.tsv")]) == 1


def test_evaluate_json_and_tsv(tmp_path, trained_model, lexicon_path):
    out = tmp_path / "report.json"
    code = main(
        ["evaluate", "--model", str(trained_model), "--corpus", lexicon_path,
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["char_precision"] == payload["char_recall"] == payload["char_f1"] == 1.0
    assert payload["word_accuracy"] == 1.0

    out_tsv = tmp_path / "report.tsv"
    code = main(
        ["evaluate", "--model", str(trained_model), "--corpus", lexicon_path,
         "--format", "tsv", "--out", str(out_tsv)]
    )
    assert code == 0
    assert "char_f1\t1.0" in out_tsv.read_text(encoding="utf-8")


def test_evaluate_without_usable_pair_is_data_error(tmp_path, trained_model, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("икки суз\tikki so'z\n", encoding="utf-8")  # multi-word: dropped
    out = tmp_path / "report.json"
    code = main(
        ["evaluate", "--model", str(trained_model), "--corpus", str(corpus), "--out", str(out)]
    )
    assert code == 2
    assert "no usable pair" in capsys.readouterr().err
    assert not out.exists()


def test_table_of_other_direction_is_data_error(tmp_path, lexicon_path, capsys):
    lat2cyr = str(_data_path("lat2cyr.tsv"))
    code = main(
        ["train", "--dir", "cyr2lat", "--corpus", lexicon_path,
         "--table", lat2cyr, "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "maps latin->cyrillic, not cyrillic->latin" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def _lat2cyr_table(tmp_path, old_row, new_row):
    text = _data_path("lat2cyr.tsv").read_text(encoding="utf-8")
    assert old_row in text
    table = tmp_path / "lat2cyr.tsv"
    table.write_text(text.replace(old_row, new_row), encoding="utf-8")
    return str(table)


_W_CORPUS = "вена\twena\nбола\tbola\nнон\tnon\nтил\ttil\n" * 2


@pytest.mark.parametrize("subcommand", ["train", "grid-search"])
def test_table_with_extra_source_character_trains(tmp_path, capsys, subcommand):
    # "w" has no row in the bundled table; the model carries the new row
    table = _lat2cyr_table(tmp_path, "x\tх\n", "x\tх\nw\tв\n")
    corpus = tmp_path / "c.tsv"
    corpus.write_text(_W_CORPUS, encoding="utf-8")
    model = tmp_path / "m.json"
    args = {
        "train": ["train", "-x", "1", "-y", "1", "--out", str(model)],
        "grid-search": ["grid-search", "--x-max", "1", "--y-max", "1",
                        "--out", str(tmp_path / "grid.tsv"), "--best-model", str(model)],
    }[subcommand]
    code = main(args + ["--dir", "lat2cyr", "--corpus", str(corpus), "--table", table])
    assert code == 0
    assert dtree.load_model(model).table.candidates("w") == ("в",)
    capsys.readouterr()
    assert main(["transliterate", "--model", str(model), "--word", "wena"]) == 0
    assert capsys.readouterr().out == "вена\n"


def test_table_with_extra_candidate_trains(tmp_path, capsys):
    table = _lat2cyr_table(tmp_path, "b\tб\n", "b\tб,п\n")
    corpus = tmp_path / "c.tsv"
    corpus.write_text(_W_CORPUS.replace("в", "б").replace("w", "b"), encoding="utf-8")
    model = tmp_path / "m.json"
    code = main(["train", "--dir", "lat2cyr", "-x", "1", "-y", "1", "--corpus", str(corpus),
                 "--table", table, "--out", str(model)])
    assert code == 0
    assert main(["transliterate", "--model", str(model), "--word", "bena"]) == 0
    assert capsys.readouterr().out == "бена\n"


def test_align_failure_report_is_written_whenever_the_corpus_loads(tmp_path, lexicon_path):
    """--failures is written whatever align's exit status: over a stale
    report and at a fresh path, it is empty when every pair aligns, and
    it lists the pairs when none aligns."""
    stale, fresh = tmp_path / "stale.tsv", tmp_path / "fresh.tsv"
    stale.write_text("stale\n", encoding="utf-8")
    for report in (stale, fresh):
        argv = ["align", "--dir", "cyr2lat", "--corpus", lexicon_path, "--failures", str(report)]
        assert main([*argv, "--out", str(tmp_path / "al.tsv")]) == 0
        assert report.read_text(encoding="utf-8") == ""
    corpus = tmp_path / "c.tsv"
    corpus.write_text("аб\txyz\n", encoding="utf-8")
    code = main(["align", "--dir", "cyr2lat", "--corpus", str(corpus), "--failures", str(stale)])
    assert code == 2
    assert stale.read_text(encoding="utf-8") == "аб\txyz\t0\n"


def test_model_with_lone_surrogate_is_data_error(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(
        '{"format_version":5,"window":{"x":0,"y":0},'
        '"table":{"a":["\\ud800"]},"trees":{"a":[["\\ud800",{}]]}}',
        encoding="utf-8",
    )
    assert main(["transliterate", "--model", str(model), "--word", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "table key 'a': candidate '\\ud800' cannot be written to a table file" in captured.err


def test_removed_discover_subcommand_is_usage_error(lexicon_path, capsys):
    # align --failures writes the report discover used to print
    assert main(["discover", "--dir", "cyr2lat", "--corpus", lexicon_path]) == 1
    assert "invalid choice: 'discover'" in capsys.readouterr().err


def test_grid_search_small(tmp_path, capsys):
    corpus_path = tmp_path / "c.tsv"
    assert main(["gen-corpus", "--size", "220", "--seed", "5", "--out", str(corpus_path)]) == 0
    grid = tmp_path / "grid.tsv"
    model = tmp_path / "best.json"
    code = main(
        ["grid-search", "--dir", "cyr2lat", "--corpus", str(corpus_path),
         "--x-min", "1", "--x-max", "2", "--y-min", "1", "--y-max", "2",
         "--seed", "42", "--out", str(grid), "--best-model", str(model)]
    )
    assert code == 0
    lines = grid.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x\ty\tvalidation_f1"
    assert len(lines) == 5
    assert model.exists()
    loaded = dtree.load_model(model)
    assert loaded.direction == ("cyrillic", "latin")
    x, y = loaded.window.x, loaded.window.y
    err = capsys.readouterr().err
    assert f"best window: x={x} y={y} " in err
    # the keys whose training samples carry more than one label
    config = pipeline.SplitConfig(0.7, 0.15, 0.15, seed=42)
    train_part = pipeline.split_corpus(pipeline.load_corpus(corpus_path), config)[0]
    varying = varying_keys(train_part, loaded.table)
    assert varying
    vary = f"; {len(varying)} of {len(loaded.table.entries)} keys vary: {' '.join(varying)})"
    assert vary in err


@pytest.mark.parametrize(
    "bounds", [["--x-min", "3", "--x-max", "1"], ["--y-min", "2", "--y-max", "0"]]
)
def test_empty_grid_range_is_usage_error(tmp_path, lexicon_path, monkeypatch, capsys, bounds):
    monkeypatch.setattr(pipeline, "align_corpus", lambda *args: pytest.fail("aligned"))
    grid = tmp_path / "grid.tsv"
    code = main(["grid-search", "--dir", "cyr2lat", "--corpus", lexicon_path, *bounds,
                 "--out", str(grid)])
    assert code == 1
    assert "empty window range" in capsys.readouterr().err
    assert not grid.exists()


def test_grid_search_failing_best_model_writes_no_grid(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("бола\tbola\nнон\tnon\nтил\ttil\n" * 3, encoding="utf-8")
    grid = tmp_path / "grid.tsv"
    code = main(["grid-search", "--dir", "cyr2lat", "--corpus", str(corpus),
                 "--x-max", "0", "--y-max", "0", "--out", str(grid),
                 "--best-model", str(tmp_path / "absent" / "m.json")])
    assert code == 1
    assert "absent" in capsys.readouterr().err
    assert not grid.exists()


def test_output_files_get_the_umask_mode(tmp_path):
    old_umask = os.umask(0o022)
    try:
        out = tmp_path / "c.tsv"
        assert main(["gen-corpus", "--size", "5", "--out", str(out)]) == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o644
    finally:
        os.umask(old_umask)


def test_no_stray_temp_files(tmp_path, lexicon_path):
    out = tmp_path / "m.json"
    assert main(["train", "--dir", "cyr2lat", "--corpus", lexicon_path,
                 "--out", str(out)]) == 0
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".tmp-translit")]
    assert leftovers == []


def _fail(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return fail


@pytest.mark.parametrize(
    "argv",
    [
        ["grid-search", "--dir", "lat2cyr", "--best-model", "{tmp}/absent/b.json",
         "--out", "{tmp}/g.tsv"],
        ["train", "--dir", "lat2cyr", "--out", "{tmp}/absent/m.json"],
        ["train", "--dir", "lat2cyr", "--out", "{tmp}"],
        ["align", "--dir", "lat2cyr", "--failures", "{tmp}/absent/f.tsv",
         "--out", "{tmp}/g.tsv"],
        ["train", "--dir", "lat2cyr", "--out", ""],
        ["grid-search", "--dir", "lat2cyr", "--best-model", "", "--out", "{tmp}/g.tsv"],
        ["align", "--dir", "lat2cyr", "--failures", "", "--out", "{tmp}/g.tsv"],
        # the OS resolves each of these through a missing directory, which
        # a lexical normalization of the path would not
        ["train", "--dir", "lat2cyr", "--out", "{tmp}/absent.json/"],
        ["align", "--dir", "lat2cyr", "--failures", "{tmp}/absent/..",
         "--out", "{tmp}/g.tsv"],
        ["grid-search", "--dir", "lat2cyr", "--best-model", "{tmp}/absent/../b.json",
         "--out", "{tmp}/g.tsv"],
    ],
    ids=[
        "grid-search-best-model",
        "train-out",
        "train-out-directory",
        "align-failures",
        "train-out-empty",
        "grid-search-best-model-empty",
        "align-failures-empty",
        "train-out-trailing-slash",
        "align-failures-up-from-absent",
        "grid-search-best-model-through-absent",
    ],
)
def test_unwritable_output_fails_before_any_input_is_read(
    tmp_path, lexicon_path, monkeypatch, capsys, argv
):
    for name in ("load_corpus", "train_direction", "grid_search"):
        monkeypatch.setattr(pipeline, name, _fail(f"pipeline.{name}"))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main([*argv, "--corpus", lexicon_path]) == 1
    err = capsys.readouterr().err
    bad = next(arg for arg in argv if "absent" in arg or arg in (str(tmp_path), ""))
    assert err.startswith(f"usage error: cannot write {bad or repr(bad)}: ")
    assert sorted(os.listdir(tmp_path)) == []


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise PermissionError(f"cannot rename onto {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "c.tsv"
    assert main(["gen-corpus", "--size", "5", "--out", str(out)]) == 1
    assert "cannot rename onto" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_commands_without_out_write_stdout(tmp_path, trained_model, lexicon_path, capsys):
    assert main(["gen-corpus", "--size", "5", "--seed", "1"]) == 0
    assert capsys.readouterr().out == pipeline.format_corpus(gencorpus.gen_corpus(5, 1))
    out = tmp_path / "report.json"
    evaluate = ["evaluate", "--model", str(trained_model), "--corpus", lexicon_path]
    assert main([*evaluate, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(evaluate) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("fractions", ["0.5,0.5", "0.5,0.2,0.2,0.1"])
def test_fractions_of_wrong_arity_are_usage_errors(lexicon_path, monkeypatch, capsys, fractions):
    monkeypatch.setattr(pipeline, "load_corpus", _fail("pipeline.load_corpus"))
    code = main(["grid-search", "--dir", "cyr2lat", "--corpus", lexicon_path,
                 "--fractions", fractions])
    assert code == 1
    assert "--fractions wants train,validation,test" in capsys.readouterr().err


# Each subcommand's minimal argv and the namespace it parses to: every
# flag, its destination and its default. Nothing may be added, removed
# or renamed without changing this table.
_SURFACE = {
    "align": (
        ["--dir", "cyr2lat", "--corpus", "c.tsv"],
        {"dir": "cyr2lat", "corpus": "c.tsv", "table": None, "out": None, "failures": None},
    ),
    "train": (
        ["--dir", "cyr2lat", "--corpus", "c.tsv", "--out", "m.json"],
        {"dir": "cyr2lat", "corpus": "c.tsv", "table": None, "x": 2, "y": 3, "out": "m.json"},
    ),
    "transliterate": (
        ["--model", "m.json", "--word", "цирк"],
        {"model": "m.json", "word": ["цирк"]},
    ),
    "evaluate": (
        ["--model", "m.json", "--corpus", "c.tsv"],
        {"model": "m.json", "corpus": "c.tsv", "format": "json", "out": None},
    ),
    "grid-search": (
        ["--dir", "cyr2lat", "--corpus", "c.tsv"],
        {"dir": "cyr2lat", "corpus": "c.tsv", "table": None,
         "x_min": 0, "x_max": 10, "y_min": 0, "y_max": 10, "seed": 42,
         "fractions": "0.7,0.15,0.15", "out": None, "best_model": None},
    ),
    "gen-corpus": (
        ["--size", "10"],
        {"size": 10, "seed": 42, "out": None},
    ),
}


@pytest.mark.parametrize("subcommand", sorted(_SURFACE))
def test_cli_surface(subcommand, capsys):
    argv, expected = _SURFACE[subcommand]
    args = vars(cli.build_parser().parse_args([subcommand, *argv]))
    assert args.pop("func").__name__ == "cmd_" + subcommand.replace("-", "_")
    assert args == {"subcommand": subcommand, **expected}
    # every flag of the minimal argv is required
    for i in range(0, len(argv), 2):
        with pytest.raises(cli.UsageError, match="required"):
            cli.build_parser().parse_args([subcommand, *argv[:i], *argv[i + 2 :]])
    with pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args([subcommand, "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: translit {subcommand} ")
