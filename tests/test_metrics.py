from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from itemknn_bench.errors import ContractError
from itemknn_bench.ingest import InteractionDataset
from itemknn_bench.metrics import (
    IDCG_FIXED_K,
    IDCG_TRUNCATED,
    MetricReport,
    evaluate,
    report_from_gains,
)
from itemknn_bench.recommend import RecommendationList

from conftest import (
    as_recommendations,
    brute_dcg,
    brute_idcg,
    brute_ndcg,
    brute_precision,
    brute_recall,
)


def gain_report(cases, n, mode=IDCG_TRUNCATED) -> MetricReport:
    """One report_from_gains call over (gains, n_relevant) cases; users "0", "1", ...

    User r's test items are codes 0, 1, ..., n_relevant - 1.  Its list names
    a hit as the next of them it has not listed yet (the first again once
    all are listed, as a list with more hits than relevant items needs; -1
    when there are none), and a miss as -1, an item the test lacks.
    """
    relevant = [n_relevant for _, n_relevant in cases]
    test = InteractionDataset(
        users=np.repeat(np.arange(len(cases)), relevant),
        items=np.concatenate([np.arange(count) for count in relevant]),
        ratings=np.ones(sum(relevant)), timestamps=np.zeros(sum(relevant)),
        user_ids=[str(r) for r in range(len(cases))],
        item_ids=[f"i{j}" for j in range(max(relevant))],
    )
    items = []
    for gains, n_relevant in cases:
        unlisted = itertools.cycle(range(n_relevant))
        items += [next(unlisted, -1) if g > 0 else -1 for g in gains]
    sizes = np.array([len(gains) for gains, _ in cases], dtype=np.int64)
    return report_from_gains(test, np.arange(len(cases)), np.array(items, dtype=np.int64),
                             sizes, n, mode)


def one_user(gains, n_relevant, n, mode=IDCG_TRUNCATED):
    return gain_report([(gains, n_relevant)], n, mode).per_user["0"]


def test_dcg_examples():
    # With one relevant item the truncated IDCG is 1/log2(2) == 1.0, so nDCG is the DCG.
    assert one_user([1], 1, 1).ndcg == 1.0
    assert one_user([1, 0, 1], 1, 3).ndcg == brute_dcg([1, 0, 1])
    assert one_user([1, 0, 1], 1, 3).ndcg == pytest.approx(1.5, abs=1e-15)  # 1 + 0 + 1/log2(4)
    assert one_user([], 1, 3).ndcg == 0.0


def test_ndcg_truncated_perfect_single():
    assert one_user([1], 1, 10).ndcg == 1.0


def test_ndcg_truncated_perfect_pair():
    assert one_user([1, 1], 2, 10).ndcg == 1.0


def test_ndcg_fixed_k_penalizes_short_relevance():
    got = one_user([1, 1], 2, 10, IDCG_FIXED_K).ndcg
    want = (1.0 + 1.0 / math.log2(3)) / brute_idcg(10)
    assert got == want
    assert got == pytest.approx(0.35895, abs=1e-5)


def test_ndcg_truncated_hit_at_three():
    assert one_user([0, 0, 1], 1, 10).ndcg == 0.5


def test_ndcg_contract_errors():
    # User "d" is in the universe but holds no test row.
    test = InteractionDataset(
        users=np.array([0, 1, 2]), items=np.array([0, 1, 2]), ratings=np.ones(3),
        timestamps=np.zeros(3), user_ids=["a", "b", "c", "d"], item_ids=["x", "y", "z"],
    )

    def gains(users, sizes, n=10, mode=IDCG_TRUNCATED):
        users, sizes = np.array(users), np.array(sizes)
        items = np.zeros(sizes.sum(), dtype=np.int64)
        return report_from_gains(test, users, items, sizes, n, mode)

    with pytest.raises(ContractError, match="longer than the cutoff 10"):
        gains([0], [11])
    with pytest.raises(ContractError, match="user 'd' has a recommendation list but no test"):
        gains([0, 3], [1, 1])
    with pytest.raises(ContractError, match="user 7 has"):
        gains([7], [1])
    with pytest.raises(ContractError, match="n must be >= 1"):
        gains([0], [0], n=0)
    assert gains([0, 1], [1, 0]).n_users == 2
    with pytest.raises(ValueError, match="unknown IDCG mode"):
        gains([0, 1], [1, 0], mode="other")


def test_hits_keyed_by_pair():
    # Items x, y, z are codes 0, 1, 2.  User b's first item is one the test
    # lacks (-1): its key must not be b * 3 - 1 == 2, the pair (a, z).
    test = InteractionDataset(
        users=np.array([0, 1, 0, 0]), items=np.array([0, 1, 2, 2]), ratings=np.ones(4),
        timestamps=np.zeros(4), user_ids=["a", "b"], item_ids=["x", "y", "z"],
    )
    rep = report_from_gains(
        test, np.array([0, 1]), np.array([1, 2, -1, 1]), np.array([2, 2]), 3, IDCG_TRUNCATED
    )
    # Each list hits at rank 2 only; the repeated pair (a, z) counts once, so a
    # holds 2 relevant items and b 1.
    for user, n_relevant in (("a", 2), ("b", 1)):
        want = (brute_ndcg([0, 1], n_relevant, 3, IDCG_TRUNCATED),
                brute_precision([0, 1], 3), brute_recall([0, 1], n_relevant))
        assert rep.per_user[user] == want


def test_precision_examples():
    assert one_user([1, 0, 1, 0, 0, 1, 0, 0, 0, 0], 3, 10).precision == pytest.approx(0.3)
    assert one_user([], 3, 10).precision == 0.0
    assert one_user([1] * 10, 10, 10).precision == 1.0
    # denominator stays n for short lists
    assert one_user([1, 1], 2, 10).precision == pytest.approx(0.2)


def test_recall_examples():
    assert one_user([1, 1, 1, 0, 0], 5, 5).recall == pytest.approx(0.6)
    assert one_user([1, 1], 2, 2).recall == 1.0
    assert one_user([0, 0], 7, 2).recall == 0.0
    with pytest.raises(ContractError):
        gain_report([([1], 0)], 1)


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
    rep = evaluate(as_recommendations(recs), test, 3, IDCG_TRUNCATED, preset="recbole", seed=42)
    assert rep.n_users == 3
    a, b, c = rep.per_user["a"], rep.per_user["b"], rep.per_user["c"]
    assert a.ndcg == brute_ndcg([1, 0], 1, 3, "truncated")
    assert a.ndcg == 1.0
    assert b.ndcg == brute_ndcg([0, 1, 1], 2, 3, "truncated")
    assert b.precision == pytest.approx(2 / 3, abs=1e-15)
    assert b.recall == 1.0
    assert c == (0.0, 0.0, 0.0)
    assert rep.mean_ndcg == pytest.approx((a.ndcg + b.ndcg) / 3, abs=1e-15)
    assert rep.preset == "recbole"
    assert rep.seed == 42


def test_evaluate_mean_of_two():
    rep = gain_report([([1], 1), ([0, 0, 1], 1)], 3)
    assert rep.per_user["0"].ndcg == 1.0
    assert rep.per_user["1"].ndcg == 0.5
    assert rep.mean_ndcg == 0.75


def test_evaluate_all_empty_lists():
    recs, test = three_user_fixture()
    empty = [RecommendationList(rl.user, []) for rl in recs]
    rep = evaluate(as_recommendations(empty), test, 3, IDCG_TRUNCATED)
    assert rep.mean_ndcg == 0.0
    assert rep.mean_precision == 0.0
    assert rep.mean_recall == 0.0


def test_evaluate_rejects_user_without_test_rows():
    recs, test = three_user_fixture()
    recs = recs + [RecommendationList(3, [(0, 0.5)])]  # no such user in test
    with pytest.raises(ContractError):
        evaluate(as_recommendations(recs), test, 3, IDCG_TRUNCATED)


def random_gain_cases(rng, count):
    # n reaches past 8, where a pairwise sum would stop matching the series.
    for _ in range(count):
        n = rng.randint(1, 25)
        n_relevant = rng.randint(1, 30)
        length = rng.randint(0, n)
        max_hits = min(length, n_relevant)
        hits = rng.randint(0, max_hits)
        gains = [1.0] * hits + [0.0] * (length - hits)
        rng.shuffle(gains)
        yield gains, n_relevant, n


def case_metrics(cases, mode):
    """Each (gains, n_relevant, n) case's metrics, from one report per cutoff n."""
    out = [None] * len(cases)
    for n in {case[2] for case in cases}:
        at = [k for k, case in enumerate(cases) if case[2] == n]
        rep = gain_report([cases[k][:2] for k in at], n, mode)
        for k, metrics in zip(at, rep.per_user.values()):
            out[k] = metrics
    return out


def test_metrics_match_literal_series_oracle():
    cases = list(random_gain_cases(random.Random(90), 300))
    for mode in (IDCG_TRUNCATED, IDCG_FIXED_K):
        for (gains, n_relevant, n), got in zip(cases, case_metrics(cases, mode)):
            assert got.ndcg == brute_ndcg(gains, n_relevant, n, mode)
            assert got.precision == brute_precision(gains, n)
            assert got.recall == brute_recall(gains, n_relevant)


def test_idcg_mode_ordering():
    # fixed-k <= truncated always; equal iff the user has >= n relevant items
    # or scored no hits at all (0/x == 0/y).
    cases = list(random_gain_cases(random.Random(91), 300))
    both = zip(cases, case_metrics(cases, IDCG_FIXED_K), case_metrics(cases, IDCG_TRUNCATED))
    for (gains, n_relevant, n), fixed, trunc in both:
        assert fixed.ndcg <= trunc.ndcg
        if n_relevant >= n or brute_dcg(gains) == 0.0:
            assert fixed.ndcg == trunc.ndcg
        else:
            assert fixed.ndcg < trunc.ndcg


def test_ndcg_truncated_tops_out_on_ideal_prefix():
    rng = random.Random(92)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 25)
        n_relevant = rng.randint(1, 30)
        best = min(n, n_relevant)
        cases.append(([1.0] * best + [0.0] * (n - best), n_relevant, n))
    assert all(m.ndcg == 1.0 for m in case_metrics(cases, IDCG_TRUNCATED))


def test_evaluate_permutation_invariant():
    recs, test = three_user_fixture()
    forward = evaluate(as_recommendations(recs), test, 3, IDCG_TRUNCATED)
    backward = evaluate(as_recommendations(reversed(recs)), test, 3, IDCG_TRUNCATED)
    assert forward.per_user == backward.per_user
    assert forward.mean_ndcg == backward.mean_ndcg
    assert forward.mean_precision == backward.mean_precision
    assert forward.mean_recall == backward.mean_recall


@pytest.mark.parametrize("mode", [IDCG_TRUNCATED, IDCG_FIXED_K])
def test_memory_does_not_grow_with_cutoff(mode):
    # Short lists at a cutoff of 2**20: one bool per rank of one list alone is 1 MiB.
    cases = [([1, 0, 1], 2), ([0, 0, 0, 1], 5), ([], 1)]
    n = 2**20
    tracemalloc.start()
    try:
        rep = gain_report(cases, n, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for (gains, n_relevant), got in zip(cases, rep.per_user.values()):
        assert got == (brute_ndcg(gains, n_relevant, n, mode), brute_precision(gains, n),
                       brute_recall(gains, n_relevant))
