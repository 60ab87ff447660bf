from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from itemknn_bench.cli import main
from itemknn_bench.ingest import (
    Interaction,
    InteractionDataset,
    load_interactions,
    save_interactions,
)

from conftest import pair_set


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    rng = random.Random(77)
    rows = []
    for u in range(20):
        for i in rng.sample(range(14), rng.randint(4, 11)):
            rows.append(
                Interaction(f"u{u}", f"m{i}", float(rng.randint(1, 5)), float(rng.randint(0, 900)))
            )
    ds = InteractionDataset.from_interactions(rows)
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines + ["999\t0\t0.5"], "line {n}: entry (999, 0)"),  # row past items
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
