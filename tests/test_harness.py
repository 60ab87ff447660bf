from __future__ import annotations

import csv
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itemknn_bench.errors import ExperimentError, SchemaError
from itemknn_bench.harness import (
    REPORT_FORMATS,
    ExperimentConfig,
    check_formats,
    emit_report,
    load_report,
    run_experiment,
)
from itemknn_bench.ingest import (
    ImplicitThreshold,
    load_interactions,
    save_interactions,
    to_implicit,
)
from itemknn_bench.knn import STRATEGY_TOPK, build_matrix, cosine_similarity, truncate_topk
from itemknn_bench.metrics import evaluate
from itemknn_bench.recommend import PRESETS
from itemknn_bench.split import split_holdout

from conftest import Interaction, dataset_from_rows, item_sets, recommend_split


@pytest.fixture(scope="module")
def ratings_file(tmp_path_factory):
    rng = random.Random(1234)
    rows = []
    for u in range(15):
        for i in rng.sample(range(12), rng.randint(3, 10)):
            rows.append(
                Interaction(f"u{u}", f"m{i}", float(rng.randint(1, 5)), float(rng.randint(0, 500)))
            )
    ds = dataset_from_rows(rows)
    return save_interactions(ds, tmp_path_factory.mktemp("data") / "toy.inter")


def toy_config(ratings_file, **overrides):
    defaults = dict(
        data=str(ratings_file),
        threshold=ImplicitThreshold(3, "gt"),
        seeds=(21, 42, 84),
        k=3,
        n=5,
        presets=("lenskit-original", "lenskit-adjusted", "recbole"),
        idcg_modes=("truncated", "fixed-k"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def emit(res, out_dir, formats=REPORT_FORMATS):
    """Every report file of ``res``, ``run_experiment``'s result, as ``experiment`` writes them."""
    payload, timings = res
    return emit_report(payload, formats, out_dir, timings)


def cells_of(payload):
    """Every cell of a ``report.json`` payload, keyed by (preset, seed, IDCG mode)."""
    return {(preset, int(seed), mode): cell for preset, by_seed in payload["results"].items()
            for seed, by_mode in by_seed.items() for mode, cell in by_mode.items()}


def test_cell_cardinality(ratings_file, tmp_path):
    cfg = toy_config(ratings_file)
    payload, _ = run_experiment(cfg)
    assert len(cells_of(payload)) == 3 * 3 * 2
    for preset in cfg.presets:
        for seed in cfg.seeds:
            for mode in cfg.idcg_modes:
                assert (preset, seed, mode) in cells_of(payload)


def test_reuse_safety_matches_from_scratch(ratings_file, tmp_path):
    cfg = toy_config(ratings_file, seeds=(42,))
    payload, _ = run_experiment(cfg)
    implicit = to_implicit(load_interactions(cfg.data), cfg.threshold)
    train, test = split_holdout(implicit, cfg.train_ratio, 42)
    for preset_name in cfg.presets:
        preset = PRESETS[preset_name]
        s = cosine_similarity(build_matrix(train))  # fresh full matrix per preset
        if preset.matrix_strategy == STRATEGY_TOPK:
            s = truncate_topk(s, cfg.k)
        recs = recommend_split(s, train, test, preset.scoring_mode(cfg.k), cfg.n)
        for mode in cfg.idcg_modes:
            fresh = evaluate(recs, test, cfg.n, mode, preset=preset_name, seed=42)
            assert fresh.as_dict() == payload["results"][preset_name]["42"][mode]


def test_evaluated_users_are_the_test_users(ratings_file, tmp_path):
    # Users whose interactions all land in train get no list and no metrics.
    cfg = toy_config(ratings_file)
    payload, _ = run_experiment(cfg)
    implicit = to_implicit(load_interactions(cfg.data), cfg.threshold)
    for seed in cfg.seeds:
        test = split_holdout(implicit, cfg.train_ratio, seed)[1]
        tested = {test.user_ids[u] for u in test.users.tolist()}
        assert tested < set(implicit.user_ids)
        for preset in cfg.presets:
            for mode in cfg.idcg_modes:
                assert set(payload["results"][preset][str(seed)][mode]["per_user"]) == tested


def test_adjusted_and_recbole_reports_identical(tmp_path):
    rng = random.Random(5150)
    rows = []
    for u in range(5):
        for i in rng.sample(range(12), rng.randint(7, 12)):
            rows.append(Interaction(f"u{u}", f"m{i}", float(rng.randint(1, 5)), float(rng.randint(0, 99))))
    path = save_interactions(dataset_from_rows(rows), tmp_path / "five.inter")
    cfg = ExperimentConfig(
        data=str(path),
        threshold=ImplicitThreshold(2, "gt"),
        seeds=(21, 42, 84),
        k=2,
        n=4,
        presets=("lenskit-adjusted", "recbole"),
        idcg_modes=("truncated", "fixed-k"),
    )
    results = run_experiment(cfg)[0]["results"]
    for seed in cfg.seeds:
        for mode in cfg.idcg_modes:
            adjusted = results["lenskit-adjusted"][str(seed)][mode]
            recbole = results["recbole"][str(seed)][mode]
            assert adjusted["n_users"] > 0
            assert adjusted["per_user"] == recbole["per_user"]
            assert adjusted["mean_ndcg"] == recbole["mean_ndcg"]


def test_csv_row_cardinality_two_presets(ratings_file, tmp_path):
    cfg = toy_config(
        ratings_file, presets=("lenskit-original", "recbole"), idcg_modes=("truncated",)
    )
    emit(run_experiment(cfg), tmp_path, ("csv",))
    with (tmp_path / "report.csv").open() as fh:
        assert len(list(csv.DictReader(fh))) == 6  # 2 presets x 3 seeds x 1 mode


def test_determinism_byte_identical_json(ratings_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = toy_config(ratings_file)
    cfg_b = toy_config(ratings_file)
    emit(run_experiment(cfg_a), out_a)
    emit(run_experiment(cfg_b), out_b)
    report_a = (out_a / "report.json").read_bytes()
    report_b = (out_b / "report.json").read_bytes()
    assert report_a == report_b
    # the full csv/md artifacts are deterministic too
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "report.md").read_bytes() == (out_b / "report.md").read_bytes()


def test_json_round_trip(ratings_file, tmp_path):
    # report.json reads back as the payload itself, and the files re-emitted
    # from what was read back are the bytes the experiment wrote.
    res = run_experiment(toy_config(ratings_file, seeds=(21,)))
    paths = emit(res, tmp_path / "run")
    report_path = next(p for p in paths if p.name == "report.json")
    payload = json.loads(report_path.read_text())
    assert payload == json.loads(json.dumps(res[0]))  # per-user tuples as JSON lists
    again = emit_report(payload, REPORT_FORMATS, tmp_path / "again")
    assert [p.name for p in again] == [p.name for p in paths if p.name != "timings.json"]
    for path in again:
        assert path.read_bytes() == (tmp_path / "run" / path.name).read_bytes()


def test_cross_format_consistency(ratings_file, tmp_path):
    res = run_experiment(toy_config(ratings_file))
    emit(res, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    with (tmp_path / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cells_of(res[0]))
    for row in rows:
        cell = payload["results"][row["preset"]][row["seed"]][row["idcg_mode"]]
        assert float(row["ndcg"]) == cell["mean_ndcg"]
        assert float(row["precision"]) == cell["mean_precision"]
        assert float(row["recall"]) == cell["mean_recall"]
    # figure csv values mirror the same numbers
    with (tmp_path / "figure_toy.csv").open() as fh:
        for row in csv.DictReader(fh):
            cell = payload["results"][row["preset"]][row["seed"]][row["idcg_mode"]]
            assert float(row["ndcg"]) == cell["mean_ndcg"]
    # markdown shows the same values at 4 decimals
    md = (tmp_path / "report.md").read_text()
    for rep in cells_of(res[0]).values():
        assert f"{rep['mean_ndcg']:.4f}" in md


def test_markdown_seed_columns_and_average(ratings_file, tmp_path):
    cfg = toy_config(ratings_file, idcg_modes=("truncated",))
    res = run_experiment(cfg)
    emit(res, tmp_path)
    results = res[0]["results"]
    lines = (tmp_path / "report.md").read_text().splitlines()
    header = next(l for l in lines if l.startswith("| "))
    assert [c.strip() for c in header.strip("|").split("|")] == ["", "21", "42", "84", "Avg."]
    for preset in cfg.presets:
        row = next(l for l in lines if l.startswith(f"| {preset} "))
        cells = [c.strip() for c in row.strip("|").split("|")]
        values = [results[preset][str(seed)]["truncated"]["mean_ndcg"] for seed in cfg.seeds]
        assert cells[1:4] == [f"{v:.4f}" for v in values]
        assert cells[4] == f"{sum(values) / 3:.4f}"


def test_timings_written_separately(ratings_file, tmp_path):
    res = run_experiment(toy_config(ratings_file, seeds=(21,)))
    emit(res, tmp_path)
    timings = json.loads((tmp_path / "timings.json").read_text())["seconds_per_phase"]
    assert set(timings) == {"load", "preprocess", "split", "similarity", "recommend", "evaluate"}
    assert "timings" not in json.loads((tmp_path / "report.json").read_text())


def test_empty_after_threshold_is_config_error(ratings_file, tmp_path):
    cfg = toy_config(ratings_file, threshold=ImplicitThreshold(99, "gt"))
    with pytest.raises(ExperimentError, match=r"\[preprocess\]"):
        run_experiment(cfg)


def test_split_without_test_users_is_error(ratings_file, tmp_path):
    # ratio 1.0 keeps every interaction in train: there is nothing to evaluate,
    # and a mean nDCG of 0.0 over 0 users must not come out as a result.
    cfg = toy_config(ratings_file, train_ratio=1.0)
    with pytest.raises(ExperimentError, match=r"\[split\].*nothing to evaluate"):
        run_experiment(cfg)


def test_missing_file_tagged_load(tmp_path):
    cfg = ExperimentConfig(data=str(tmp_path / "ghost.inter"), threshold=ImplicitThreshold(3, "gt"))
    with pytest.raises(ExperimentError, match=r"\[load\]"):
        run_experiment(cfg)


def test_config_validation(ratings_file, tmp_path):
    with pytest.raises(ValueError, match="preset"):
        toy_config(ratings_file, presets=("nope",)).validate()
    with pytest.raises(ValueError, match="seed"):
        toy_config(ratings_file, seeds=()).validate()
    with pytest.raises(ValueError, match="IDCG"):
        toy_config(ratings_file, idcg_modes=("bogus",)).validate()
    with pytest.raises(ValueError, match="k is not an int >= 1"):
        toy_config(ratings_file, k=0).validate()
    # A repeated seed was run and averaged twice.
    with pytest.raises(ValueError, match="seed 42 is repeated"):
        toy_config(ratings_file, seeds=(21, 42, 42)).validate()
    with pytest.raises(ValueError, match="preset 'recbole' is repeated"):
        toy_config(ratings_file, presets=("recbole", "recbole")).validate()
    with pytest.raises(ValueError, match="IDCG mode 'truncated' is repeated"):
        toy_config(ratings_file, idcg_modes=("truncated", "truncated")).validate()
    with pytest.raises(ValueError, match="format is not 'atomic' or 'csv'"):
        toy_config(ratings_file, format="tsv").validate()
    # A column-map key that names no field was ignored, and the column it meant went unread.
    with pytest.raises(ValueError, match="column_map is not .*, its keys among user, item"):
        toy_config(ratings_file, column_map={"usr": "uid"}).validate()
    # An int ratio ran, but its report.json was one that report refused.
    with pytest.raises(ValueError, match=re.escape("train_ratio is not a float in (0, 1]")):
        toy_config(ratings_file, train_ratio=1).validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"k": 0}, {"n": True}, {"train_ratio": 1}, {"train_ratio": 1.5}, {"format": "tsv"},
        {"column_map": {"usr": "uid"}}, {"column_map": {"user": 7}},
        {"threshold": ImplicitThreshold("3")}, {"threshold": ImplicitThreshold(float("nan"))},
        {"threshold": ImplicitThreshold(float("-inf"))},
        {"threshold": ImplicitThreshold(float("inf"))},
        {"seeds": ()}, {"seeds": (21, 21)},
        {"presets": ("mystery",)}, {"idcg_modes": ("bogus",)},
        {"k": 2**31}, {"n": 2**63}, {"seeds": (-1,)}, {"seeds": (21, 2**64 + 21)},
    ],
    ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()),
)
def test_report_refuses_what_validate_refuses(ratings_file, tmp_path, overrides):
    # One checker: a stored report whose config validate refuses is refused
    # by load_report too, with the same message about the config field.
    bad = toy_config(ratings_file, **overrides)
    with pytest.raises(ValueError) as refused:
        bad.validate()
    payload, _ = run_experiment(toy_config(ratings_file, seeds=(21,), presets=("recbole",)))
    path = tmp_path / "report.json"
    path.write_text(json.dumps({**payload, "config": bad.as_dict()}))
    message = f"not an experiment report: config.{refused.value}"
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_report(path)


def test_report_json_refuses_non_finite_numbers(ratings_file, tmp_path):
    # json's default writes -Infinity, which RFC 8259 has not: no file is written.
    payload, _ = run_experiment(toy_config(ratings_file, seeds=(21,), presets=("recbole",)))
    payload["config"]["threshold"]["cutoff"] = float("-inf")
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_report(payload, ("json",), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_emit_rejects_unknown_format(ratings_file, tmp_path):
    with pytest.raises(ValueError, match="unknown report format 'pdf'"):
        check_formats(("json", "pdf"))
    res = run_experiment(toy_config(ratings_file, seeds=(21,)))
    with pytest.raises(ValueError, match="unknown report format 'yaml'"):
        emit(res, tmp_path / "out", ("md", "yaml"))
    assert not (tmp_path / "out").exists()


@settings(max_examples=40, deadline=None)
@given(
    profiles=st.lists(st.sets(st.integers(0, 7), min_size=2), min_size=1, max_size=8),
    seed=st.integers(0, 2**64 - 1),
    k=st.integers(1, 4),
    n=st.integers(1, 6),
)
def test_property_experiment_metrics_in_unit_range(tmp_path_factory, profiles, seed, k, n):
    """Every per-user metric an experiment writes lies in [0, 1]; a list whose hits
    fill ranks 1..min(R, n), for R test items, has nDCG exactly 1.0 (under fixed-k
    IDCG only when R >= n); and load_report accepts the report emit_report writes."""
    # At least two items per user and ratio 0.5: every user has a test side.
    rows = [Interaction(f"u{u}", f"i{i}", 1.0, float(u * i % 3))
            for u, items in enumerate(profiles) for i in sorted(items)]
    work = tmp_path_factory.mktemp("experiment")
    path = save_interactions(dataset_from_rows(rows), work / "random.inter")
    cfg = ExperimentConfig(data=str(path), threshold=ImplicitThreshold(0, "gt"), train_ratio=0.5,
                           seeds=(seed,), k=k, n=n, idcg_modes=("truncated", "fixed-k"))
    payload, _ = run_experiment(cfg)
    cells = cells_of(payload)
    for cell in cells.values():
        assert all(0.0 <= x <= 1.0 for metrics in cell["per_user"].values() for x in metrics)

    implicit = to_implicit(load_interactions(cfg.data), cfg.threshold)
    train, test = split_holdout(implicit, cfg.train_ratio, seed)
    relevant = item_sets(test)
    s_full = cosine_similarity(build_matrix(train))
    for preset_name in cfg.presets:
        preset = PRESETS[preset_name]
        s = truncate_topk(s_full, k) if preset.matrix_strategy == STRATEGY_TOPK else s_full
        for rl in recommend_split(s, train, test, preset.scoring_mode(k), n):
            ideal = min(len(relevant[rl.user]), n)
            hits = [r for r, (item, _) in enumerate(rl.entries, 1) if item in relevant[rl.user]]
            if hits == list(range(1, ideal + 1)):
                user = implicit.user_ids[rl.user]
                assert cells[preset_name, seed, "truncated"]["per_user"][user][0] == 1.0
                fixed = cells[preset_name, seed, "fixed-k"]["per_user"][user][0]
                assert (fixed == 1.0) == (ideal == n)

    emit_report(payload, ("json",), work / "out")
    load_report(work / "out" / "report.json")  # SchemaError if refused
