"""Acceptance suite: every criterion as one test, printing a pass/fail line.

Run ``pytest -s tests/test_acceptance.py`` to see the lines as they print.
Criteria 1 and 6 need the real MovieLens-100K interactions (not shipped, not
auto-downloaded); they skip with instructions when the file is absent.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from itemknn_bench.harness import ExperimentConfig, emit_report, run_experiment
from itemknn_bench.ingest import (
    ImplicitThreshold,
    load_interactions,
    save_interactions,
    stats,
    to_implicit,
)
from itemknn_bench.knn import STRATEGY_TOPK, build_matrix, cosine_similarity, truncate_topk
from itemknn_bench.metrics import IDCG_FIXED_K, IDCG_TRUNCATED, evaluate
from itemknn_bench.recommend import PRESETS, score_user
from itemknn_bench.split import SplitConfig, split_holdout

from conftest import (
    Interaction,
    brute_dcg,
    brute_ndcg,
    brute_scores,
    dataset_from_rows,
    dense_cosine_oracle,
    item_sets,
    make_implicit_dataset,
    recommend_split,
)
from test_knn import to_dense


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {title}")
        raise
    else:
        print(f"[criterion {number}] PASS  {title}")


def preset_lists(preset_name: str, s_full, pair, k: int, n: int):
    preset = PRESETS[preset_name]
    s = truncate_topk(s_full, k) if preset.matrix_strategy == STRATEGY_TOPK else s_full
    return recommend_split(s, pair, preset.scoring_mode(k), n)


def random_suite(count: int = 200):
    """The shared random-instance suite: <=30 users, <=20 items, k in {1,2,5}."""
    rng = random.Random(20240601)
    for trial in range(count):
        ds = make_implicit_dataset(rng, max_users=30, max_items=20)
        pair = split_holdout(ds, SplitConfig(0.8, rng.randint(0, 2**31)))
        k = (1, 2, 5)[trial % 3]
        yield trial, ds, pair, k


# --- criterion 1 --------------------------------------------------------------


def test_criterion_1_ml100k_preprocessing(ml100k_path):
    with criterion(1, "ML-100K preprocessing replication (exact counts, < 5 s)"):
        start = time.perf_counter()
        raw = load_interactions(ml100k_path, "atomic")
        implicit = to_implicit(raw, ImplicitThreshold(3, "gt"))
        s = stats(implicit)
        elapsed = time.perf_counter() - start

        assert raw.n_interactions == 100_000
        assert s.n_users == 942
        assert s.n_items == 1447
        assert s.n_interactions == 55_375
        assert abs(s.sparsity * 100 - 95.94) <= 0.01  # percentage points
        assert elapsed < 5.0, f"preprocessing took {elapsed:.2f}s"


# --- criterion 2 --------------------------------------------------------------


def test_criterion_2_alignment_equivalence():
    with criterion(2, "lenskit-adjusted == recbole on 200 random instances (exact)"):
        for trial, ds, pair, k in random_suite(200):
            s_full = cosine_similarity(build_matrix(pair.train))
            adjusted = preset_lists("lenskit-adjusted", s_full, pair, k, 10)
            recbole = preset_lists("recbole", s_full, pair, k, 10)
            assert adjusted == recbole, f"lists diverge on trial {trial} (k={k})"
            for mode in (IDCG_TRUNCATED, IDCG_FIXED_K):
                rep_a = evaluate(adjusted, pair.test, 10, mode)
                rep_r = evaluate(recbole, pair.test, 10, mode)
                assert rep_a.per_user == rep_r.per_user, f"metrics diverge on trial {trial}"


# --- criterion 3 --------------------------------------------------------------


def test_criterion_3_degenerate_equality():
    with criterion(3, "lenskit-original == recbole when k >= n_items - 1 (exact)"):
        for trial, ds, pair, _ in random_suite(200):
            k = max(ds.n_items - 1, 1)
            s_full = cosine_similarity(build_matrix(pair.train))
            original = preset_lists("lenskit-original", s_full, pair, k, 10)
            recbole = preset_lists("recbole", s_full, pair, k, 10)
            assert original == recbole, f"lists diverge on trial {trial}"


# --- criterion 4 --------------------------------------------------------------


def test_criterion_4_oracle_equivalence():
    with criterion(4, "cosine, both scoring modes, metrics match brute force (1e-12)"):
        rng = random.Random(7777)
        for trial, ds, pair, k in random_suite(200):
            s_full = cosine_similarity(build_matrix(pair.train))
            dense = to_dense(s_full)

            expected = dense_cosine_oracle(pair.train)
            for i in range(ds.n_items):
                for j in range(ds.n_items):
                    assert abs(dense[i][j] - expected[i][j]) <= 1e-12

            profile = set(rng.sample(range(ds.n_items), rng.randint(0, min(8, ds.n_items))))
            from itemknn_bench.recommend import ScoringMode

            got_sum = score_user(s_full, profile, ScoringMode("sum-all"))
            got_topk = score_user(s_full, profile, ScoringMode("profile-topk", k))
            want_sum = brute_scores(dense, profile, "sum-all")
            want_topk = brute_scores(dense, profile, "profile-topk", k)
            for i in range(ds.n_items):
                assert abs(got_sum[i] - want_sum[i]) <= 1e-12
                assert abs(got_topk[i] - want_topk[i]) <= 1e-12

            recs = preset_lists("recbole", s_full, pair, k, 10)
            test_sets = item_sets(pair.test)
            for mode in (IDCG_TRUNCATED, IDCG_FIXED_K):
                rep = evaluate(recs, pair.test, 10, mode)
                for rl in recs:
                    n_relevant = len(test_sets[rl.user])
                    gains = [1.0 if i in test_sets[rl.user] else 0.0 for i, _ in rl.entries]
                    got = rep.per_user[ds.user_ids[rl.user]]
                    assert abs(got.ndcg - brute_ndcg(gains, n_relevant, 10, mode)) <= 1e-12
                    hits = sum(gains)
                    assert abs(got.precision - hits / 10) <= 1e-12
                    assert abs(got.recall - min(hits / n_relevant, 1.0)) <= 1e-12


# --- criterion 5 --------------------------------------------------------------


def test_criterion_5_idcg_mode_ordering():
    # The stated equality condition ("exactly when the user has >= N test
    # items") cannot hold verbatim for users with zero hits: 0/IDCG is 0 in
    # both modes.  Checked here in its strongest true form: equality holds
    # iff n_relevant >= N or DCG == 0, strict inequality otherwise.
    with criterion(5, "ndcg(fixed-k) <= ndcg(truncated) per user; equality iff >= N test items (or zero hits)"):
        n = 10
        checked_equal, checked_strict = 0, 0
        for trial, ds, pair, k in random_suite(200):
            s_full = cosine_similarity(build_matrix(pair.train))
            recs = preset_lists("recbole", s_full, pair, k, n)
            fixed = evaluate(recs, pair.test, n, IDCG_FIXED_K)
            trunc = evaluate(recs, pair.test, n, IDCG_TRUNCATED)
            test_counts = Counter(pair.test.users.tolist())
            test_sets = item_sets(pair.test)
            for rl in recs:
                ext = ds.user_ids[rl.user]
                f, t = fixed.per_user[ext].ndcg, trunc.per_user[ext].ndcg
                assert f <= t
                gains = [1.0 if i in test_sets[rl.user] else 0.0 for i, _ in rl.entries]
                if test_counts[rl.user] >= n or brute_dcg(gains) == 0.0:
                    assert f == t
                    checked_equal += 1
                else:
                    assert f < t
                    checked_strict += 1
        assert checked_equal > 0 and checked_strict > 0  # both branches exercised


# --- criterion 6 --------------------------------------------------------------


def test_criterion_6_ml100k_deviation(ml100k_path):
    with criterion(6, "ML-100K: recbole beats lenskit-original by >= 0.001 mean nDCG@10; both in [0.22, 0.30]; < 60 s/seed"):
        means = {"lenskit-original": [], "recbole": []}
        for seed in (21, 42, 84):
            cfg = ExperimentConfig(
                data=str(ml100k_path),
                threshold=ImplicitThreshold(3, "gt"),
                seeds=(seed,),
                k=20,
                n=10,
                presets=("lenskit-original", "recbole"),
                idcg_modes=(IDCG_TRUNCATED,),
            )
            start = time.perf_counter()
            res = run_experiment(cfg)
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"
            for preset in means:
                means[preset].append(res.cells[(preset, seed, IDCG_TRUNCATED)].mean_ndcg)

        avg = {p: sum(v) / len(v) for p, v in means.items()}
        print(f"    mean nDCG@10: lenskit-original={avg['lenskit-original']:.4f} "
              f"recbole={avg['recbole']:.4f} (per seed: {means})")
        assert avg["recbole"] - avg["lenskit-original"] >= 0.001
        for preset, value in avg.items():
            assert 0.22 <= value <= 0.30, f"{preset} mean nDCG {value:.4f} outside [0.22, 0.30]"


# --- criteria 7 and 8 ---------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_file(tmp_path_factory):
    rng = random.Random(99)
    rows = []
    for u in range(25):
        for i in rng.sample(range(18), rng.randint(4, 14)):
            rows.append(
                Interaction(f"u{u}", f"m{i}", float(rng.randint(1, 5)), float(rng.randint(0, 999)))
            )
    ds = dataset_from_rows(rows)
    return save_interactions(ds, tmp_path_factory.mktemp("accept") / "synthetic.inter")


def test_criterion_7_determinism(synthetic_file, tmp_path):
    with criterion(7, "same experiment config twice -> byte-identical report.json"):
        reports = []
        for run in ("one", "two"):
            cfg = ExperimentConfig(
                data=str(synthetic_file),
                threshold=ImplicitThreshold(3, "gt"),
                k=4,
                n=5,
                idcg_modes=(IDCG_TRUNCATED, IDCG_FIXED_K),
            )
            emit_report(run_experiment(cfg).to_json_dict(), ("json",), tmp_path / run)
            reports.append((tmp_path / run / "report.json").read_bytes())
        assert reports[0] == reports[1]


def test_criterion_8_seed_table_shape(synthetic_file, tmp_path):
    with criterion(8, "markdown table has seed columns 21/42/84 plus Avg. == row mean at 4 decimals"):
        cfg = ExperimentConfig(
            data=str(synthetic_file),
            threshold=ImplicitThreshold(3, "gt"),
            seeds=(21, 42, 84),
            k=4,
            n=5,
            idcg_modes=(IDCG_TRUNCATED,),
        )
        res = run_experiment(cfg)
        emit_report(res.to_json_dict(), ("md",), tmp_path / "md")
        lines = (tmp_path / "md" / "report.md").read_text().splitlines()
        header = next(l for l in lines if l.startswith("| "))
        assert [c.strip() for c in header.strip("|").split("|")] == ["", "21", "42", "84", "Avg."]
        for preset in cfg.presets:
            row = next(l for l in lines if l.startswith(f"| {preset} "))
            cells = [c.strip() for c in row.strip("|").split("|")]
            values = [res.cells[(preset, seed, IDCG_TRUNCATED)].mean_ndcg for seed in cfg.seeds]
            assert cells[1:4] == [f"{v:.4f}" for v in values]
            assert cells[4] == f"{sum(values) / 3:.4f}"
