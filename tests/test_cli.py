from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itemknn_bench.cli import main
from itemknn_bench.ingest import (
    load_interactions,
    save_interactions,
)
from itemknn_bench.knn import build_matrix, cosine_similarity, truncate_topk
from itemknn_bench.metrics import evaluate
from itemknn_bench.recommend import PRESETS, recommend_all

from conftest import (
    Interaction,
    brute_ndcg,
    brute_precision,
    brute_recall,
    dataset_from_rows,
    pair_set,
)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    rng = random.Random(77)
    rows = []
    for u in range(20):
        for i in rng.sample(range(14), rng.randint(4, 11)):
            rows.append(
                Interaction(f"u{u}", f"m{i}", float(rng.randint(1, 5)), float(rng.randint(0, 900)))
            )
    ds = dataset_from_rows(rows)
    return save_interactions(ds, tmp_path_factory.mktemp("cli-data") / "toy.inter")


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_stats_before_and_after(data_file, capsys):
    assert run_cli("stats", "--data", data_file, "--threshold", "3", "--threshold-mode", "gt") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dataset"] == "toy"
    assert payload["before"]["n_users"] == 20
    assert payload["after"]["n_interactions"] < payload["before"]["n_interactions"]
    assert payload["threshold"] == {"cutoff": 3.0, "mode": "gt"}


def test_stats_threshold_mode_needs_threshold(data_file, capsys):
    # The mode was dropped, and only the "before" stats printed.
    assert run_cli("stats", "--data", data_file, "--threshold-mode", "ge") == 2
    captured = capsys.readouterr()
    assert "error [stats] --threshold-mode needs --threshold" in captured.err
    assert captured.out == ""


def test_stats_missing_file_exits_nonzero(tmp_path, capsys):
    rc = run_cli("stats", "--data", tmp_path / "ghost.inter")
    assert rc == 2
    assert "error [stats]" in capsys.readouterr().err


def test_pipeline_chain(data_file, tmp_path, capsys):
    out = tmp_path / "work"

    assert run_cli("preprocess", "--data", data_file, "--threshold", "3", "--out", out) == 0
    implicit_path = capsys.readouterr().out.strip()
    implicit = load_interactions(implicit_path)
    assert implicit.is_implicit()

    assert run_cli("split", "--data", implicit_path, "--seeds", "42", "--out", out) == 0
    train_path, test_path = capsys.readouterr().out.split()
    train = load_interactions(train_path)
    test = load_interactions(test_path)
    assert pair_set(train) | pair_set(test) == pair_set(implicit)
    assert not (pair_set(train) & pair_set(test))

    assert run_cli("train", "--data", train_path, "--strategy", "topk", "--k", "3", "--out", out) == 0
    matrix_path = capsys.readouterr().out.strip()
    assert "strategy=topk k=3" in Path(matrix_path).read_text(encoding="utf-8").splitlines()[0]

    assert run_cli(
        "recommend", "--train", train_path, "--test", test_path,
        "--preset", "recbole", "--k", "3", "--topn", "5", "--out", out,
    ) == 0
    recs_path = capsys.readouterr().out.strip()
    lines = Path(recs_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "user\trank\titem\tscore"
    assert len(lines) > 1

    assert run_cli(
        "evaluate", "--recs", recs_path, "--test", test_path,
        "--topn", "5", "--idcg", "both",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"truncated", "fixed-k"}
    for rep in payload.values():
        assert 0.0 <= rep["mean_ndcg"] <= 1.0
    assert payload["fixed-k"]["mean_ndcg"] <= payload["truncated"]["mean_ndcg"]


def test_recommend_accepts_pretrained_matrix(data_file, tmp_path, capsys):
    out = tmp_path / "m"
    run_cli("preprocess", "--data", data_file, "--threshold", "3", "--out", out)
    implicit_path = capsys.readouterr().out.strip()
    run_cli("split", "--data", implicit_path, "--seeds", "21", "--out", out)
    train_path, test_path = capsys.readouterr().out.split()
    run_cli("train", "--data", train_path, "--strategy", "topk", "--k", "3", "--out", out)
    matrix_path = capsys.readouterr().out.strip()
    assert run_cli(
        "recommend", "--train", train_path, "--test", test_path, "--matrix", matrix_path,
        "--preset", "recbole", "--k", "3", "--topn", "5", "--out", out,
    ) == 0


PRESET_MATRICES = {  # preset: the train strategy whose matrix fits it
    "lenskit-original": "full", "lenskit-adjusted": "topk", "recbole": "topk",
}


def recommend_with_and_without_matrix(train_path, test_path, matrices, out, k, topn):
    """Per preset, the dump bytes of recommend without and with --matrix."""
    dumps = {}
    for preset, strategy in PRESET_MATRICES.items():
        for label, extra in (("fresh", []), ("matrix", ["--matrix", matrices[strategy]])):
            assert run_cli(
                "recommend", "--train", train_path, "--test", test_path, *extra,
                "--preset", preset, "--k", k, "--topn", topn, "--out", out / label,
            ) == 0
        name = f"{Path(train_path).stem}.{preset}.recs.tsv"
        dumps[preset] = [(out / label / name).read_bytes() for label in ("fresh", "matrix")]
    return dumps


def test_recommend_matrix_with_test_only_item_and_user(tmp_path, capsys):
    # The test file holds an item (z) and a user (ghost) that train lacks,
    # and lists them first.  A matrix from train fits recommend's universe,
    # the train file's own, so --matrix gives the fresh matrix's bytes.
    train = [("u1", "a"), ("u1", "b"), ("u2", "b"), ("u2", "c"), ("u3", "a"), ("u3", "c"),
             ("u3", "d"), ("u4", "c"), ("u4", "d"), ("u4", "e"), ("u1", "e")]
    test = [("ghost", "a"), ("u1", "z"), ("u1", "c"), ("u2", "a"), ("u4", "b")]
    train_path = save_interactions(
        dataset_from_rows(Interaction(u, i, 1.0, float(t)) for t, (u, i) in enumerate(train)),
        tmp_path / "hand.train.inter",
    )
    test_path = save_interactions(
        dataset_from_rows(Interaction(u, i, 1.0, float(t)) for t, (u, i) in enumerate(test)),
        tmp_path / "hand.test.inter",
    )
    matrices = {}
    for strategy in ("topk", "full"):
        assert run_cli("train", "--data", train_path, "--strategy", strategy, "--k", 2,
                       "--out", tmp_path) == 0
        matrices[strategy] = capsys.readouterr().out.strip()
    dumps = recommend_with_and_without_matrix(train_path, test_path, matrices, tmp_path, 2, 3)
    for preset, (fresh, from_matrix) in dumps.items():
        assert from_matrix == fresh, preset
        lines = fresh.decode("utf-8").splitlines()
        assert lines[0] == "user\trank\titem\tscore"
        assert {line.split("\t")[0] for line in lines[1:]} == {"u1", "u2", "u4"}, preset
    # A matrix from another file, with another item count, does not fit: its
    # header's item-id digest is not the train file's.
    capsys.readouterr()
    assert run_cli("train", "--data", test_path, "--strategy", "full", "--out", tmp_path) == 0
    other = capsys.readouterr().out.strip()
    assert run_cli("recommend", "--train", train_path, "--test", test_path, "--matrix", other,
                   "--preset", "lenskit-original", "--out", tmp_path / "other") == 2
    err = capsys.readouterr().err
    assert f"error [recommend] {other} was trained on other items: its 4 items have ids=" in err
    assert "the train file's 5 have ids=" in err
    assert not (tmp_path / "other").exists()


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 7), st.integers(1, 5), st.integers(0, 9)),
        max_size=50,
    ),
    seed=st.integers(0, 2**32),
    k=st.integers(1, 4),
)
def test_property_readme_chain(tmp_path_factory, rows, seed, k):
    # preprocess -> split -> train -> recommend, with and without --matrix ->
    # evaluate.  User x rates two items above the threshold, so that at ratio
    # 0.5 the test file is never empty.
    work = tmp_path_factory.mktemp("chain")
    raw = [("x", "i0", 5.0, 0.0), ("x", "i1", 4.0, 1.0)]
    raw += [(f"u{u}", f"i{i}", float(r), float(t)) for u, i, r, t in rows]
    data = save_interactions(dataset_from_rows(Interaction(*row) for row in raw),
                             work / "raw.inter")
    assert run_cli("preprocess", "--data", data, "--threshold", "3", "--out", work) == 0
    assert run_cli("split", "--data", work / "raw.implicit.inter", "--ratio", "0.5",
                   "--seeds", seed, "--out", work) == 0
    train_path = work / f"raw.implicit.seed{seed}.train.inter"
    test_path = work / f"raw.implicit.seed{seed}.test.inter"
    for strategy in ("topk", "full"):
        assert run_cli("train", "--data", train_path, "--strategy", strategy, "--k", k,
                       "--out", work) == 0
    matrices = {strategy: work / f"{train_path.stem}.{strategy}.sim.tsv"
                for strategy in ("topk", "full")}
    dumps = recommend_with_and_without_matrix(train_path, test_path, matrices, work, k, 3)
    for preset, (fresh, from_matrix) in dumps.items():
        assert from_matrix == fresh, preset
        recs = work / "matrix" / f"{train_path.stem}.{preset}.recs.tsv"
        assert run_cli("evaluate", "--recs", recs, "--test", test_path, "--topn", 3,
                       "--idcg", "both") == 0


def test_experiment_and_report(data_file, tmp_path, capsys):
    out = tmp_path / "exp"
    rc = run_cli(
        "experiment", "--data", data_file, "--threshold", "3", "--threshold-mode", "gt",
        "--seeds", "21,42", "--k", "3", "--topn", "5",
        "--preset", "lenskit-original,recbole", "--idcg", "truncated",
        "--out", out, "--emit", "json,csv,md",
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert (out / "report.json").exists()
    assert (out / "report.csv").exists()
    assert (out / "report.md").exists()
    assert (out / "figure_toy.csv").exists()
    assert "preset=recbole seed=42" in stdout

    payload = json.loads((out / "report.json").read_text())
    assert set(payload["results"]) == {"lenskit-original", "recbole"}

    re_out = tmp_path / "re"
    assert run_cli("report", "--input", out / "report.json", "--emit", "md", "--out", re_out) == 0
    capsys.readouterr()
    assert (re_out / "report.md").read_bytes() == (out / "report.md").read_bytes()


@pytest.fixture(scope="module")
def experiment_out(data_file, tmp_path_factory):
    """The output directory of a two-seed, two-preset, both-IDCG experiment."""
    out = tmp_path_factory.mktemp("exp") / "out"
    assert run_cli(
        "experiment", "--data", data_file, "--threshold", "3", "--seeds", "21,42", "--k", "3",
        "--topn", "5", "--preset", "lenskit-original,recbole", "--idcg", "both",
        "--out", out, "--emit", "json,csv,md",
    ) == 0
    return out


REPORT_FILES = ("report.json", "report.csv", "report.md", "figure_toy.csv")


def test_report_re_emits_experiment_bytes(experiment_out, tmp_path, capsys):
    capsys.readouterr()
    re_out = tmp_path / "re"
    assert run_cli("report", "--input", experiment_out / "report.json",
                   "--emit", "json,csv,md", "--out", re_out) == 0
    assert capsys.readouterr().out.split() == [str(re_out / name) for name in (
        "report.json", "report.csv", "figure_toy.csv", "report.md")]
    for name in REPORT_FILES:
        assert (re_out / name).read_bytes() == (experiment_out / name).read_bytes(), name
    assert not (re_out / "timings.json").exists()  # a stored report has no timings


def _drop_stats_field(payload):
    del payload["stats_before"]["sparsity"]
    return payload


def _config(payload, **values):
    return {**payload, "config": {**payload["config"], **values}}


def _text_mean(payload):
    payload["results"]["recbole"]["42"]["fixed-k"]["mean_ndcg"] = "0.5"
    return payload


def _renamed(payload, name, old, new):
    """``payload`` with ``old`` renamed ``new`` in config list ``name`` and in results."""
    results = payload["results"]
    if name == "presets":
        results = {new if p == old else p: by_seed for p, by_seed in results.items()}
    else:
        results = {p: {s: {new if m == old else m: c for m, c in by_mode.items()}
                       for s, by_mode in by_seed.items()} for p, by_seed in results.items()}
    return {**_config(payload, **{name: [new if v == old else v for v in payload["config"][name]]}),
            "results": results}


@pytest.mark.parametrize(
    "edit, message",
    [
        # Each of these was a traceback: AttributeError, TypeError, TypeError.
        (lambda p: {**p, "results": []}, "results does not hold exactly the keys"),
        (lambda p: [p], "the top level does not hold exactly the keys"),
        (_drop_stats_field, "stats_before does not hold exactly the keys"),
        (lambda p: {**p, "config": {**p["config"], "seeds": [21]}},
         "results.lenskit-original does not hold exactly the keys ['21']"),
        (lambda p: {**p, "config": {**p["config"], "dataset": "../toy"}},
         "config.dataset is not the stem of data"),
        (lambda p: {**p, "config": {**p["config"], "seeds": [[21], 42]}},
         "config.seeds is not a non-empty list of distinct ints"),
        (_text_mean, "a mean of results.recbole.42.fixed-k is not a float"),
        # Each of these re-emitted a report that prints a value no experiment writes.
        (lambda p: _config(p, k="twenty"), "config.k is not an int >= 1"),
        (lambda p: _config(p, k=True), "config.k is not an int >= 1"),
        (lambda p: _config(p, n=0), "config.n is not an int >= 1"),
        (lambda p: _config(p, n=10.0), "config.n is not an int >= 1"),
        (lambda p: _config(p, train_ratio=1.5), "config.train_ratio is not a float in (0, 1]"),
        (lambda p: _config(p, train_ratio=1), "config.train_ratio is not a float in (0, 1]"),
        (lambda p: _config(p, train_ratio="0.8"), "config.train_ratio is not a float in (0, 1]"),
        (lambda p: _config(p, format="parquet"), "config.format is not 'atomic' or 'csv'"),
        (lambda p: _config(p, column_map={"user": 7}),
         "config.column_map is not null or a dict of strs to strs"),
        (lambda p: _config(p, column_map=["user=u"]),
         "config.column_map is not null or a dict of strs to strs"),
        (lambda p: _config(p, threshold={"cutoff": "3", "mode": "gt"}),
         "config.threshold.cutoff is not a number"),
        (lambda p: _config(p, threshold={"cutoff": None, "mode": "ge"}),
         "config.threshold.cutoff is not a number"),
        # Each of these rendered, with results laid out to match, a run no experiment makes.
        (lambda p: _renamed(p, "presets", "recbole", "mystery"),
         "config.presets is not a non-empty list of distinct presets: unknown preset 'mystery'"),
        (lambda p: _renamed(p, "idcg_modes", "fixed-k", "bogus"),
         "config.idcg_modes is not a non-empty list of distinct IDCG modes: "
         "unknown IDCG mode 'bogus'"),
        (lambda p: _config(p, threshold={"cutoff": float("nan"), "mode": "gt"}),
         "config.threshold.cutoff is not a number"),
        (lambda p: _config(p, threshold={"cutoff": 3, "mode": "above"}),
         "config.threshold.mode is not 'gt' or 'ge'"),
        # Written as -Infinity, which Python's json reads and RFC 8259 has not.
        (lambda p: _config(p, threshold={"cutoff": float("-inf"), "mode": "gt"}),
         "config.threshold.cutoff is not a number with a finite value"),
        (lambda p: _config(p, column_map={"usr": "uid"}),
         "config.column_map is not null or a dict of strs to strs, its keys among user, item, "
         "rating, timestamp"),
    ],
    ids=["results-list", "top-level-list", "stats-field-missing", "seed-not-in-results",
         "dataset-not-data-stem", "unhashable-seed", "text-mean", "text-k", "bool-k", "zero-n",
         "float-n", "ratio-above-one", "int-ratio", "text-ratio", "unknown-format",
         "int-column", "list-column-map", "text-cutoff", "null-cutoff", "unknown-preset",
         "unknown-idcg-mode", "nan-cutoff", "unknown-threshold-mode", "infinite-cutoff",
         "unknown-column-field"],
)
def test_report_refuses_malformed_report(experiment_out, tmp_path, capsys, edit, message):
    payload = json.loads((experiment_out / "report.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(payload)), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("report", "--input", bad, "--emit", "json,csv,md", "--out", tmp_path / "re") == 2
    err = capsys.readouterr().err
    assert f"error [report] {bad}: not an experiment report: {message}" in err
    assert not (tmp_path / "re").exists()


def test_report_refuses_text_that_is_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"config": ', encoding="utf-8")
    assert run_cli("report", "--input", bad, "--out", tmp_path / "re") == 2
    assert f"error [report] {bad}: not an experiment report: not JSON:" in capsys.readouterr().err
    assert not (tmp_path / "re").exists()


@pytest.mark.parametrize("where", ["flag", "config-file", "report"])
def test_unknown_report_format_refused_before_any_work(data_file, experiment_out, tmp_path,
                                                        capsys, where):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"data = {data_file}\nthreshold = 3\nemit = json,yaml\n", encoding="utf-8")
    # A data file that does not exist: a run that reached its first seed
    # would fail in [load] instead.
    argv = {
        "flag": ["experiment", "--data", tmp_path / "ghost.inter", "--threshold", "3",
                 "--emit", "json,yaml"],
        "config-file": ["experiment", "--config", cfg],
        "report": ["report", "--input", experiment_out / "report.json", "--emit", "md,yaml"],
    }[where]
    capsys.readouterr()
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "unknown report format 'yaml'" in err and "[load]" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "config-file"])
@pytest.mark.parametrize(
    "setting, text, message",
    [
        ("k", "abc", "bad k 'abc': invalid literal for int()"),
        ("topn", "0", "n is not an int >= 1"),
        ("seeds", "21,x", "bad seeds '21,x'"),
        ("column-map", "user", "bad column-map 'user': entry 'user' is not field=column"),
        ("format", "tsv", "format is not 'atomic' or 'csv'"),
        ("threshold-mode", "xx", "threshold mode must be 'gt' or 'ge', got 'xx'"),
        ("threshold", "high", "bad threshold 'high'"),
        ("threshold", "nan", "threshold.cutoff is not a number"),
        ("preset", "mystery", "unknown preset 'mystery'"),
    ],
)
def test_bad_experiment_setting_refused_before_any_work(data_file, tmp_path, capsys, where,
                                                        setting, text, message):
    # A flag's text and its config-file twin go through one parser: --k abc
    # was argparse's untagged usage error, k = abc a tagged one that did not
    # name k, and format = tsv failed only in [load].
    cfg = tmp_path / "exp.cfg"
    settings = {"data": tmp_path / "ghost.inter", "threshold": "3", setting: text}
    if where == "flag":
        argv = [x for flag, value in settings.items() for x in (f"--{flag}", value)]
    else:
        cfg.write_text("".join(f"{flag} = {value}\n" for flag, value in settings.items()),
                       encoding="utf-8")
        argv = ["--config", cfg]
    capsys.readouterr()
    assert run_cli("experiment", *argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error [experiment] ") and message in err and "[load]" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "config-file"])
@pytest.mark.parametrize("text", ["inf", "-inf", "Infinity", "-infinity"])
def test_infinite_threshold_refused_before_any_work(tmp_path, capsys, where, text):
    # --threshold=-inf ran, and report.json held "cutoff": -Infinity, which is not JSON.
    if where == "flag":
        argv = ["--data", tmp_path / "ghost.inter", f"--threshold={text}"]
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data = {tmp_path / 'ghost.inter'}\nthreshold = {text}\n", encoding="utf-8")
        argv = ["--config", cfg]
    capsys.readouterr()
    assert run_cli("experiment", *argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error [experiment] ") and "[load]" not in err
    assert "threshold.cutoff is not a number with a finite value" in err
    assert not (tmp_path / "out").exists()


def test_experiment_config_file_and_precedence(data_file, tmp_path, capsys):
    out = tmp_path / "cfg-out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# replication config\n"
        f"data = {data_file}\n"
        "threshold = 3\n"
        "threshold-mode = gt\n"
        "seeds = 21,42\n"
        "k = 3\n"
        "topn = 5\n"
        "preset = recbole\n"
        "idcg = truncated\n"
        f"out = {out}\n"
        "emit = json\n",
        encoding="utf-8",
    )
    # --seeds on the command line overrides the config file's two seeds
    assert run_cli("experiment", "--config", cfg, "--seeds", "84") == 0
    capsys.readouterr()
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["seeds"] == [84]
    assert payload["config"]["k"] == 3


@pytest.mark.parametrize(
    "line, message",
    [
        ("seed = 1", "unknown key 'seed'"),
        ("topN = 5", "unknown key 'topN'"),
        ("column_map = user=u", "unknown key 'column_map'"),
        ("config = x", "unknown key 'config'"),
        ("threshold = 4", "key 'threshold' is repeated"),
    ],
)
def test_experiment_config_file_refuses_bad_key(data_file, tmp_path, capsys, line, message):
    # Unknown keys were ignored (seed=1 and topN=5 ran the default seeds and
    # N), and a repeated key silently replaced the first.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"data = {data_file}\nthreshold = 3\n{line}\n", encoding="utf-8")
    assert run_cli("experiment", "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "error [experiment]" in err and f"exp.cfg: line 3: {message}" in err
    assert not (tmp_path / "out").exists()


def test_experiment_requires_data(capsys):
    assert run_cli("experiment", "--threshold", "3") == 2
    assert "requires --data" in capsys.readouterr().err


def test_experiment_missing_data_file_tagged(tmp_path, capsys):
    rc = run_cli("experiment", "--data", tmp_path / "ghost.inter", "--threshold", "3")
    assert rc == 2
    assert "[load]" in capsys.readouterr().err


def test_experiment_unknown_preset(data_file, capsys):
    rc = run_cli(
        "experiment", "--data", data_file, "--threshold", "3", "--preset", "mystery"
    )
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_experiment_ratio_one_exits_tagged(data_file, tmp_path, capsys):
    rc = run_cli(
        "experiment", "--data", data_file, "--threshold", "3", "--ratio", "1.0",
        "--out", tmp_path / "exp",
    )
    assert rc == 2
    assert "error [split]" in capsys.readouterr().err
    assert not (tmp_path / "exp" / "report.json").exists()


def test_non_finite_timestamp_exits_tagged(tmp_path, capsys):
    path = tmp_path / "nan.inter"
    path.write_text(
        "user_id:token\titem_id:token\trating:float\ttimestamp:float\n"
        "a\tx\t4.0\t1\nb\ty\t4.0\tnan\n",
        encoding="utf-8",
    )
    assert run_cli("stats", "--data", path) == 2
    err = capsys.readouterr().err
    assert "error [stats]" in err and "line 3" in err
    assert run_cli("experiment", "--data", path, "--threshold", "3") == 2
    assert "[load]" in capsys.readouterr().err


def test_short_row_exits_tagged(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("rating,user_id,item_id\n4,u,i\n4\n", encoding="utf-8")
    assert run_cli("stats", "--data", path, "--format", "csv") == 2
    err = capsys.readouterr().err
    assert "error [stats]" in err and "line 3" in err


def test_extra_field_exits_tagged(tmp_path, capsys):
    path = tmp_path / "extra.inter"
    path.write_text(
        "user_id:token\titem_id:token\trating:float\ttimestamp:float\n"
        "a\tx\t4.0\t1\nb\ty\t4.0\t2\tsurplus\n",
        encoding="utf-8",
    )
    assert run_cli("stats", "--data", path) == 2
    err = capsys.readouterr().err
    assert "error [stats]" in err and "line 3: 5 fields, want 4" in err


def test_preprocess_refuses_id_with_tab(tmp_path, capsys):
    # A csv id may hold a tab; written into the atomic file, it was refused
    # only by the next step ("line 2: 5 fields, want 4").
    path = tmp_path / "tab.csv"
    path.write_text("user_id,item_id,rating\nu,a\tb,4\n", encoding="utf-8")
    assert run_cli("preprocess", "--data", path, "--format", "csv", "--threshold", "3",
                   "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "error [preprocess]" in err and "tab.implicit.inter: id 'a\\tb' holds a tab" in err
    assert not (tmp_path / "out" / "tab.implicit.inter").exists()


@pytest.fixture
def chain_split(data_file, tmp_path, capsys):
    """The work directory and the seed-42 train and test files."""
    out = tmp_path / "chain"
    run_cli("preprocess", "--data", data_file, "--threshold", "3", "--out", out)
    implicit_path = capsys.readouterr().out.strip()
    run_cli("split", "--data", implicit_path, "--seeds", "42", "--out", out)
    train_path, test_path = capsys.readouterr().out.split()
    return out, train_path, test_path


def test_evaluate_empty_recs_file_exits_tagged(chain_split, capsys):
    out, _, test_path = chain_split
    empty = out / "empty.recs.tsv"
    empty.write_text("", encoding="utf-8")
    assert run_cli("evaluate", "--recs", empty, "--test", test_path) == 2
    assert "error [evaluate]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recommend", "evaluate"])
def test_empty_test_file_exits_tagged(chain_split, command, capsys):
    out, train_path, _ = chain_split
    empty_test = out / "empty.test.inter"
    empty_test.write_text(
        "user_id:token\titem_id:token\trating:float\ttimestamp:float\n", encoding="utf-8"
    )
    # The dump that recommend would make from this test file: header only.
    no_lists = out / "no-lists.recs.tsv"
    no_lists.write_text("user\trank\titem\tscore\n", encoding="utf-8")
    first = ["--train", train_path] if command == "recommend" else ["--recs", no_lists]
    assert run_cli(command, *first, "--test", empty_test, "--out", out / "empty") == 2
    err = capsys.readouterr().err
    assert f"error [{command}]" in err and "no test interactions" in err
    assert not (out / "empty").exists()


def trained_matrix(chain_split, capsys, strategy, k=3):
    out, train_path, _ = chain_split
    run_cli("train", "--data", train_path, "--strategy", strategy, "--k", k, "--out", out)
    return capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "strategy, preset, k",
    [("full", "recbole", 1), ("full", "lenskit-adjusted", 3), ("topk", "lenskit-original", 3),
     ("topk", "recbole", 2)],
)
def test_recommend_refuses_matrix_that_does_not_fit_preset(chain_split, capsys, strategy, preset, k):
    out, train_path, test_path = chain_split
    matrix_path = trained_matrix(chain_split, capsys, strategy)
    rc = run_cli(
        "recommend", "--train", train_path, "--test", test_path, "--matrix", matrix_path,
        "--preset", preset, "--k", k, "--out", out / "misfit",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [recommend]" in err and f"preset {preset} with --k {k} needs" in err
    assert not (out / "misfit").exists()


def test_recommend_accepts_fitting_full_matrix(chain_split, capsys):
    out, train_path, test_path = chain_split
    matrix_path = trained_matrix(chain_split, capsys, "full")
    assert run_cli(
        "recommend", "--train", train_path, "--test", test_path, "--matrix", matrix_path,
        "--preset", "lenskit-original", "--k", "3", "--out", out / "fit",
    ) == 0


def save_pairs(pairs, path):
    rows = (Interaction(u, i, 1.0, float(t)) for t, (u, i) in enumerate(pairs))
    return save_interactions(dataset_from_rows(rows), path)


def test_recommend_refuses_same_sized_matrix_of_another_train_file(tmp_path, capsys):
    # The other train file holds the same three items in another order, so a
    # matrix from it has the train file's item count but numbers other items.
    pairs = [("u1", "a"), ("u1", "b"), ("u2", "b"), ("u2", "c"), ("u3", "a"), ("u3", "c")]
    train_path = save_pairs(pairs, tmp_path / "own.train.inter")
    other_path = save_pairs(pairs[::-1], tmp_path / "other.train.inter")
    test_path = save_pairs([("u1", "c"), ("u2", "a")], tmp_path / "own.test.inter")
    matrices = {}
    for path in (train_path, other_path):
        assert run_cli("train", "--data", path, "--strategy", "full", "--out", tmp_path) == 0
        matrices[path] = capsys.readouterr().out.strip()
    argv = ["recommend", "--train", train_path, "--test", test_path, "--preset",
            "lenskit-original", "--k", 2]
    assert run_cli(*argv, "--matrix", matrices[other_path], "--out", tmp_path / "other") == 2
    err = capsys.readouterr().err
    assert f"error [recommend] {matrices[other_path]} was trained on other items: its 3 items" in err
    assert not (tmp_path / "other").exists()
    assert run_cli(*argv, "--matrix", matrices[train_path], "--out", tmp_path / "own") == 0


def test_recommend_refuses_test_file_sharing_a_pair_with_train(chain_split, tmp_path, capsys):
    out, train_path, test_path = chain_split
    pairs = [("u1", "a"), ("u1", "b"), ("u2", "b")]
    hand_train = save_pairs(pairs, tmp_path / "hand.train.inter")
    hand_test = save_pairs([("u2", "a"), ("u9", "b"), ("u1", "b")], tmp_path / "hand.test.inter")
    assert run_cli("recommend", "--train", hand_train, "--test", hand_test,
                   "--out", tmp_path / "shared") == 2
    err = capsys.readouterr().err
    assert (f"error [recommend] {hand_test}: line 4: pair (u1, b) is also in train file "
            f"{hand_train}, but the two files of a holdout split share no pair") in err
    assert not (tmp_path / "shared").exists()
    # The test file of another split seed shares pairs with this seed's train file.
    run_cli("split", "--data", out / "toy.implicit.inter", "--seeds", "21", "--out", out)
    _, other_test = capsys.readouterr().out.split()
    assert run_cli("recommend", "--train", train_path, "--test", other_test,
                   "--out", out / "mixed") == 2
    assert "is also in train file" in capsys.readouterr().err
    assert not (out / "mixed").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines + ["999\t0\t1"], "line {n}: entry (999, 0)"),  # row past items
        (lambda lines: lines + [lines[-1]], "line {n}: entry"),  # duplicate last entry
        (lambda lines: lines[:1] + lines[2:3] + lines[1:2] + lines[3:], "line 3: entry"),  # unsorted
    ],
    ids=["row-past-items", "duplicate", "unsorted"],
)
def test_recommend_refuses_malformed_matrix(chain_split, capsys, edit, message):
    out, train_path, test_path = chain_split
    matrix_path = trained_matrix(chain_split, capsys, "full")
    lines = edit(Path(matrix_path).read_text(encoding="utf-8").splitlines())
    with open(matrix_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = run_cli(
        "recommend", "--train", train_path, "--test", test_path, "--matrix", matrix_path,
        "--preset", "lenskit-original", "--k", "3", "--out", out / "bad",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [recommend]" in err and message.format(n=len(lines)) in err


def _field(line, at, value):
    fields = line.split("\t")
    fields[at] = value
    return "\t".join(fields)


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda lines: lines[:2] + [lines[2].rsplit("\t", 1)[0]] + lines[3:], 3),  # 3 fields
        (lambda lines: lines[:2] + [lines[2] + "\textra"] + lines[3:], 3),  # 5 fields
        (lambda lines: lines[:2] + [_field(lines[2], 1, "3")] + lines[3:], 3),  # rank skips 2
        (lambda lines: lines[:1] + [_field(lines[1], 1, "0")] + lines[2:], 2),  # rank 0
        (lambda lines: lines[:1] + [_field(lines[1], 1, "01")] + lines[2:], 2),  # rank text 01
        (lambda lines: lines[:2] + [_field(lines[2], 3, "nan")] + lines[3:], 3),  # not finite
        (lambda lines: lines[:2] + [_field(lines[2], 3, "high")] + lines[3:], 3),  # not a number
        # The first user's second row repeats the first row's item.
        (lambda lines: lines[:2] + [_field(lines[2], 2, lines[1].split("\t")[2])] + lines[3:], 3),
    ],
    ids=["short-row", "long-row", "rank-gap", "rank-zero", "rank-leading-zero", "nan-score",
         "text-score", "repeated-item"],
)
def test_evaluate_refuses_malformed_recs(chain_split, capsys, edit, line):
    out, train_path, test_path = chain_split
    run_cli(
        "recommend", "--train", train_path, "--test", test_path,
        "--preset", "recbole", "--k", "3", "--topn", "5", "--out", out,
    )
    recs_path = capsys.readouterr().out.strip()
    lines = Path(recs_path).read_text(encoding="utf-8").splitlines()
    assert lines[1].split("\t")[:2] == lines[2].split("\t")[:1] + ["1"]  # one user's ranks 1, 2
    with open(recs_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    assert run_cli("evaluate", "--recs", recs_path, "--test", test_path) == 2
    err = capsys.readouterr().err
    assert "error [evaluate]" in err and f"line {line}:" in err


def test_evaluate_refuses_headerless_dump(chain_split, capsys):
    # Without the header check, line 1 was skipped as the header: the first
    # user's only row was lost and evaluate exited 0.
    out, _, test_path = chain_split
    headerless = out / "headerless.recs.tsv"
    headerless.write_text("u1\t1\tm1\t0.5\nu2\t1\tm2\t0.25\n", encoding="utf-8")
    assert run_cli("evaluate", "--recs", headerless, "--test", test_path) == 2
    err = capsys.readouterr().err
    assert "error [evaluate]" in err and "line 1: header" in err


def evaluate_files(tmp_path, test_rows, lists):
    """A test file of (user, item) rows and a dump of {user: [item, ...]} lists."""
    test_path = save_interactions(
        dataset_from_rows(Interaction(user, item, 1.0) for user, item in test_rows),
        tmp_path / "hand.test.inter",
    )
    lines = ["user\trank\titem\tscore"]
    for user, items in lists.items():
        lines += [f"{user}\t{rank}\t{item}\t{1.0 / rank!r}" for rank, item in enumerate(items, 1)]
    recs_path = tmp_path / "hand.recs.tsv"
    recs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return recs_path, test_path


def test_evaluate_refuses_list_longer_than_topn(tmp_path, capsys):
    lists = {user: [f"i{j}" for j in range(10)] for user in ("a", "b")}
    recs, test = evaluate_files(tmp_path, [("a", "i0"), ("b", "i5")], lists)
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--recs", recs, "--test", test, "--topn", 3, "--out", out) == 2
    err = capsys.readouterr().err
    assert "error [evaluate]" in err and "10 items is longer than the cutoff 3" in err
    assert not (out / "evaluation.json").exists()


def test_evaluate_refuses_dump_user_absent_from_test(tmp_path, capsys):
    lists = {"a": ["i0"], "ghost": ["i1"]}
    recs, test = evaluate_files(tmp_path, [("a", "i0"), ("b", "i1")], lists)
    assert run_cli("evaluate", "--recs", recs, "--test", test, "--topn", 3) == 2
    err = capsys.readouterr().err
    assert "error [evaluate]" in err and "user 'ghost'" in err


def test_evaluate_scores_every_test_user(tmp_path, capsys):
    # Items c and d share no train user with another item, so u3 and u4 get
    # empty lists and no dump rows.  The mean covers all three test users,
    # as in the experiment; it was 1.0 over the one user with dump rows.
    train_rows = [("u1", "a"), ("u2", "a"), ("u2", "b"), ("u3", "c"), ("u4", "d")]
    test_rows = [("u1", "b"), ("u3", "a"), ("u4", "a")]
    ds = dataset_from_rows(Interaction(u, i, 1.0, float(t))
                           for t, (u, i) in enumerate(train_rows + test_rows))
    in_train = np.arange(ds.n_interactions) < len(train_rows)
    train, test = ds.take(in_train), ds.take(~in_train)
    x = build_matrix(train)
    recs = recommend_all(truncate_topk(cosine_similarity(x), 2), x,
                         PRESETS["recbole"].scoring_mode(2), 3, np.unique(test.users))
    assert [len(rl.entries) for rl in recs] == [1, 0, 0]
    in_memory = evaluate(recs, test, 3, "truncated")
    assert in_memory.mean_ndcg == 1 / 3
    train_path = save_interactions(train, tmp_path / "hand.train.inter")
    test_path = save_interactions(test, tmp_path / "hand.test.inter")
    assert run_cli("recommend", "--train", train_path, "--test", test_path, "--preset", "recbole",
                   "--k", 2, "--topn", 3, "--out", tmp_path) == 0
    recs_path = capsys.readouterr().out.strip()
    assert run_cli("evaluate", "--recs", recs_path, "--test", test_path, "--topn", 3) == 0
    report = json.loads(capsys.readouterr().out)["truncated"]
    assert report["n_users"] == 3
    assert report["mean_ndcg"] == in_memory.mean_ndcg
    assert report["per_user"] == {u: list(m) for u, m in in_memory.per_user.items()}


def test_evaluate_counts_item_absent_from_test_as_miss(tmp_path, capsys):
    # Test codes: users a=0, b=1; items x=0, y=1, z=2.  Item w is absent from
    # the test file; a key b * 3 + (-1) == 2 would be the pair (a, z), a hit.
    test_rows = [("a", "x"), ("b", "y"), ("a", "z")]
    recs, test = evaluate_files(tmp_path, test_rows, {"a": ["x"], "b": ["w", "y"]})
    assert run_cli("evaluate", "--recs", recs, "--test", test, "--topn", 3) == 0
    per_user = json.loads(capsys.readouterr().out)["truncated"]["per_user"]
    assert per_user["b"] == [
        brute_ndcg([0, 1], 1, 3, "truncated"), brute_precision([0, 1], 3), brute_recall([0, 1], 1)
    ]
    assert per_user["a"] == [brute_ndcg([1], 2, 3, "truncated"), 1 / 3, 0.5]
