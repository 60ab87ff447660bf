from __future__ import annotations

import math
import random

import numpy as np
import pytest

from itemknn_bench.errors import ContractError
from itemknn_bench.ingest import InteractionDataset
from itemknn_bench.metrics import (
    IDCG_FIXED_K,
    IDCG_TRUNCATED,
    MetricReport,
    dcg,
    evaluate,
    ndcg_at_n,
    precision_at_n,
    recall_at_n,
    report_from_gains,
)
from itemknn_bench.recommend import RecommendationList

from conftest import brute_idcg, brute_ndcg


def test_dcg_examples():
    assert dcg([1]) == 1.0
    assert dcg([1, 0, 1]) == pytest.approx(1.5, abs=1e-15)  # 1 + 0 + 1/log2(4)
    assert dcg([]) == 0.0


def test_dcg_general_gain():
    # non-binary grade exercises the 2**rel - 1 numerator
    assert dcg([2]) == pytest.approx(3.0, abs=1e-15)


def test_ndcg_truncated_perfect_single():
    assert ndcg_at_n([1], 1, 10, IDCG_TRUNCATED) == 1.0


def test_ndcg_truncated_perfect_pair():
    assert ndcg_at_n([1, 1], 2, 10, IDCG_TRUNCATED) == 1.0


def test_ndcg_fixed_k_penalizes_short_relevance():
    got = ndcg_at_n([1, 1], 2, 10, IDCG_FIXED_K)
    want = (1.0 + 1.0 / math.log2(3)) / brute_idcg(10)
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.35895, abs=1e-5)


def test_ndcg_truncated_hit_at_three():
    assert ndcg_at_n([0, 0, 1], 1, 10, IDCG_TRUNCATED) == pytest.approx(0.5, abs=1e-15)


def test_ndcg_contract_errors():
    with pytest.raises(ContractError):
        ndcg_at_n([1], 0, 10, IDCG_TRUNCATED)
    with pytest.raises(ContractError):
        ndcg_at_n([1] * 11, 3, 10, IDCG_TRUNCATED)
    with pytest.raises(ValueError):
        ndcg_at_n([1], 1, 10, "other")


def test_precision_examples():
    assert precision_at_n([1, 0, 1, 0, 0, 1, 0, 0, 0, 0], 10) == pytest.approx(0.3)
    assert precision_at_n([], 10) == 0.0
    assert precision_at_n([1] * 10, 10) == 1.0
    # denominator stays n for short lists
    assert precision_at_n([1, 1], 10) == pytest.approx(0.2)


def test_recall_examples():
    assert recall_at_n([1, 1, 1, 0, 0], 5) == pytest.approx(0.6)
    assert recall_at_n([1, 1], 2) == 1.0
    assert recall_at_n([0, 0], 7) == 0.0
    with pytest.raises(ContractError):
        recall_at_n([1], 0)


def three_user_fixture():
    # A universe of 10 items, most of them absent from the test rows.
    test = InteractionDataset(
        users=np.array([0, 1, 1, 2]),
        items=np.array([1, 1, 2, 9]),
        ratings=np.ones(4),
        timestamps=np.zeros(4),
        user_ids=["a", "b", "c"],
        item_ids=[f"i{j}" for j in range(10)],
    )
    recs = [
        RecommendationList(0, [(1, 0.9), (5, 0.5)]),            # hit at 1
        RecommendationList(1, [(3, 0.7), (1, 0.6), (2, 0.5)]),  # hits at 2, 3
        RecommendationList(2, []),                              # nothing recommendable
    ]
    return recs, test


def test_evaluate_three_user_fixture():
    recs, test = three_user_fixture()
    rep = evaluate(recs, test, 3, IDCG_TRUNCATED, preset="recbole", seed=42)
    assert rep.n_users == 3
    a, b, c = rep.per_user["a"], rep.per_user["b"], rep.per_user["c"]
    assert a.ndcg == pytest.approx(brute_ndcg([1, 0], 1, 3, "truncated"), abs=1e-15)
    assert a.ndcg == 1.0
    assert b.ndcg == pytest.approx(brute_ndcg([0, 1, 1], 2, 3, "truncated"), abs=1e-15)
    assert b.precision == pytest.approx(2 / 3, abs=1e-15)
    assert b.recall == 1.0
    assert c == (0.0, 0.0, 0.0)
    assert rep.mean_ndcg == pytest.approx((a.ndcg + b.ndcg) / 3, abs=1e-15)
    assert rep.preset == "recbole"
    assert rep.seed == 42


def test_evaluate_mean_of_two():
    rep = report_from_gains(
        [("a", [1], 1), ("b", [0, 0, 1], 1)], 3, IDCG_TRUNCATED
    )
    assert rep.per_user["a"].ndcg == 1.0
    assert rep.per_user["b"].ndcg == 0.5
    assert rep.mean_ndcg == 0.75


def test_evaluate_all_empty_lists():
    recs, test = three_user_fixture()
    empty = [RecommendationList(rl.user, []) for rl in recs]
    rep = evaluate(empty, test, 3, IDCG_TRUNCATED)
    assert rep.mean_ndcg == 0.0
    assert rep.mean_precision == 0.0
    assert rep.mean_recall == 0.0


def test_evaluate_rejects_user_without_test_rows():
    recs, test = three_user_fixture()
    recs = recs + [RecommendationList(3, [(0, 0.5)])]  # no such user in test
    with pytest.raises(ContractError):
        evaluate(recs, test, 3, IDCG_TRUNCATED)


def random_gain_cases(rng, count):
    for _ in range(count):
        n = rng.randint(1, 10)
        n_relevant = rng.randint(1, 12)
        length = rng.randint(0, n)
        max_hits = min(length, n_relevant)
        hits = rng.randint(0, max_hits)
        gains = [1.0] * hits + [0.0] * (length - hits)
        rng.shuffle(gains)
        yield gains, n_relevant, n


def test_metrics_match_literal_series_oracle():
    rng = random.Random(90)
    for gains, n_relevant, n in random_gain_cases(rng, 300):
        for mode in (IDCG_TRUNCATED, IDCG_FIXED_K):
            got = ndcg_at_n(gains, n_relevant, n, mode)
            assert got == pytest.approx(brute_ndcg(gains, n_relevant, n, mode), abs=1e-12)
        hits = sum(gains)
        assert precision_at_n(gains, n) * n == pytest.approx(hits, abs=1e-12)
        assert recall_at_n(gains, n_relevant) == pytest.approx(
            min(hits / n_relevant, 1.0), abs=1e-12
        )


def test_idcg_mode_ordering():
    # fixed-k <= truncated always; equal iff the user has >= n relevant items
    # or scored no hits at all (0/x == 0/y).
    rng = random.Random(91)
    for gains, n_relevant, n in random_gain_cases(rng, 300):
        fixed = ndcg_at_n(gains, n_relevant, n, IDCG_FIXED_K)
        trunc = ndcg_at_n(gains, n_relevant, n, IDCG_TRUNCATED)
        assert fixed <= trunc
        if n_relevant >= n or dcg(gains) == 0.0:
            assert fixed == trunc
        else:
            assert fixed < trunc


def test_ndcg_truncated_tops_out_on_ideal_prefix():
    rng = random.Random(92)
    for _ in range(100):
        n = rng.randint(1, 10)
        n_relevant = rng.randint(1, 12)
        best = min(n, n_relevant)
        gains = [1.0] * best + [0.0] * (n - best)
        assert ndcg_at_n(gains, n_relevant, n, IDCG_TRUNCATED) == pytest.approx(
            1.0, abs=1e-12
        )


def test_evaluate_permutation_invariant():
    recs, test = three_user_fixture()
    forward = evaluate(recs, test, 3, IDCG_TRUNCATED)
    backward = evaluate(list(reversed(recs)), test, 3, IDCG_TRUNCATED)
    assert forward.per_user == backward.per_user
    assert forward.mean_ndcg == backward.mean_ndcg
    assert forward.mean_precision == backward.mean_precision
    assert forward.mean_recall == backward.mean_recall


def test_metric_report_round_trip():
    recs, test = three_user_fixture()
    rep = evaluate(recs, test, 3, IDCG_FIXED_K, preset="lenskit-original", seed=21)
    assert MetricReport.from_dict(rep.as_dict()) == rep
