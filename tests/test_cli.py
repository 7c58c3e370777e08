import json
import os
import stat

import pytest

from uztranslit import dtree, pipeline
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


def test_out_of_range_feature_index_is_data_error(tmp_path, trained_model, capsys):
    obj = json.loads(trained_model.read_bytes())
    width = obj["window"]["x"] + 1 + obj["window"]["y"]
    for bad_index in (width, -1):
        obj["nodes"][0][0] = bad_index
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


def test_unknown_model_direction_is_data_error(tmp_path, trained_model, capsys):
    obj = json.loads(trained_model.read_bytes())
    obj["direction"] = ["latin", "latin"]
    broken = tmp_path / "latin-latin.json"
    broken.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    code = main(["transliterate", "--model", str(broken), "--word", "abc"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "neither cyr2lat nor lat2cyr" in captured.err


def test_model_with_shared_child_is_data_error(tmp_path, capsys):
    # nodes 0 and 1 both point at leaf 2: a DAG, not a tree
    nodes = [[0, "ц", 1, 2], [0, "и", 2, 3], ["s", {"s": 1}], ["i", {"i": 1}]]
    broken = tmp_path / "shared.json"
    broken.write_text(
        json.dumps({"format_version": 3, "direction": ["cyrillic", "latin"],
                    "table": {"ц": ["s"], "и": ["i"]}, "window": {"x": 0, "y": 0},
                    "nodes": nodes},
                   ensure_ascii=False),
        encoding="utf-8",
    )
    code = main(["transliterate", "--model", str(broken), "--word", "цирк"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node 2 has more than one parent" in captured.err


def test_deeply_nested_model_is_data_error(tmp_path, capsys):
    depth = 200_000
    broken = tmp_path / "deep.json"
    broken.write_text(
        '{"format_version":3,"direction":["cyrillic","latin"],"table":{"ц":["s"]},'
        '"window":{"x":0,"y":0},"nodes":' + "[" * depth + "]" * depth + "}",
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


def test_missing_corpus_is_usage_error(tmp_path):
    code = main(
        ["train", "--dir", "cyr2lat", "--corpus", str(tmp_path / "absent.tsv"),
         "--out", str(tmp_path / "m.json")]
    )
    assert code == 1


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


def test_unalignable_corpus_is_data_error(tmp_path):
    corpus = tmp_path / "bad.tsv"
    corpus.write_text("аб\txyz\n", encoding="utf-8")
    code = main(
        ["train", "--dir", "cyr2lat", "--corpus", str(corpus),
         "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert not (tmp_path / "m.json").exists()


def test_malformed_table_is_data_error(tmp_path, lexicon_path):
    table = tmp_path / "t.tsv"
    table.write_text("а\ta\nа\tb\n", encoding="utf-8")
    code = main(
        ["train", "--dir", "cyr2lat", "--corpus", lexicon_path,
         "--table", str(table), "--out", str(tmp_path / "m.json")]
    )
    assert code == 2


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


def test_align_hopeless_corpus_is_data_error(tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("аб\txyz\n", encoding="utf-8")
    code = main(["align", "--dir", "cyr2lat", "--corpus", str(corpus),
                 "--out", str(tmp_path / "al.tsv")])
    assert code == 2


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


def test_discover_empty_on_bundled_lexicon(tmp_path, lexicon_path, capsys):
    out = tmp_path / "report.tsv"
    code = main(
        ["discover", "--dir", "cyr2lat", "--corpus", lexicon_path, "--out", str(out)]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == ""


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
    assert f"best window: x={x} y={y} " in capsys.readouterr().err


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
