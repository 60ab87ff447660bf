from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from hypothesis import given, settings
from hypothesis import strategies as st

from itemknn_bench import ingest, recommend
from itemknn_bench.errors import ContractError
from itemknn_bench.ingest import InteractionDataset
from itemknn_bench.knn import STRATEGY_FULL, STRATEGY_TOPK, cosine_similarity, build_matrix, truncate_topk
from itemknn_bench.recommend import (
    PRESETS,
    RecommendationList,
    ScoringMode,
    load_recommendations,
    recommend_all,
    recommend_topn,
    save_recommendations,
    score_user,
)
from itemknn_bench.split import SplitConfig, SplitPair, split_holdout

from conftest import (
    Interaction,
    brute_top_n,
    dataset_from_rows,
    in_order_scores,
    item_sets,
    make_implicit_dataset,
    recommend_split,
)
from test_ingest import FLOATS, IDS
from test_knn import row, sim_from_dense, to_dense

SUM_ALL = ScoringMode("sum-all")


def topk_mode(k):
    return ScoringMode("profile-topk", k)


def test_scoring_mode_validation():
    with pytest.raises(ValueError):
        ScoringMode("profile-topk")
    with pytest.raises(ValueError):
        ScoringMode("bogus")


def test_presets_table():
    assert PRESETS["lenskit-original"].matrix_strategy == STRATEGY_FULL
    assert PRESETS["lenskit-original"].scoring_kind == "profile-topk"
    assert PRESETS["recbole"].matrix_strategy == STRATEGY_TOPK
    assert PRESETS["recbole"].scoring_kind == "sum-all"
    assert PRESETS["lenskit-adjusted"].matrix_strategy == STRATEGY_TOPK
    assert PRESETS["lenskit-adjusted"].scoring_kind == "profile-topk"


def test_score_user_empty_profile():
    s = sim_from_dense([[0.0, 0.5], [0.5, 0.0]])
    assert score_user(s, [], SUM_ALL).tolist() == [0.0, 0.0]


def test_score_user_single_profile_item_is_column():
    s = sim_from_dense([[0.0, 0.8, 0.1], [0.8, 0.0, 0.4], [0.1, 0.4, 0.0]])
    for mode in (SUM_ALL, topk_mode(1), topk_mode(5)):
        assert score_user(s, [1], mode).tolist() == [0.8, 0.0, 0.4]


def test_score_user_sum_all_adds_gathered():
    s = sim_from_dense([[0.0, 0.4, 0.3], [0.4, 0.0, 0.0], [0.3, 0.0, 0.0]])
    scores = score_user(s, [1, 2], SUM_ALL)
    assert scores[0] == pytest.approx(0.7, abs=1e-15)


def test_score_user_profile_topk_sums_k_largest():
    dense = [
        [0.0, 0.4, 0.3, 0.1],
        [0.4, 0.0, 0.0, 0.0],
        [0.3, 0.0, 0.0, 0.0],
        [0.1, 0.0, 0.0, 0.0],
    ]
    s = sim_from_dense(dense)
    scores = score_user(s, [1, 2, 3], topk_mode(2))
    assert scores[0] == pytest.approx(0.7, abs=1e-15)  # 0.4 + 0.3, drops 0.1


def test_score_user_rejects_bad_profile():
    s = sim_from_dense([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ContractError):
        score_user(s, [2], SUM_ALL)
    with pytest.raises(ContractError):
        score_user(s, [-1], SUM_ALL)


def test_recommend_topn_excludes_seen():
    rl = recommend_topn(np.array([0.9, 0.4]), seen=[0], n=10)
    assert rl.entries == [(1, 0.4)]


def test_recommend_topn_tie_breaks_by_index():
    rl = recommend_topn(np.array([0.5, 0.5]), seen=[], n=1)
    assert rl.entries == [(0, 0.5)]


def test_recommend_topn_short_list_and_positive_only():
    rl = recommend_topn(np.array([0.1, 0.0, 0.3, 0.2, 0.4]), seen=[], n=10)
    assert [item for item, _ in rl.entries] == [4, 2, 3, 0]
    with pytest.raises(ContractError):
        recommend_topn(np.array([0.1]), seen=[], n=0)


SEEN_FORMS = {
    "list": list,
    "int32": lambda seen: np.array(seen, dtype=np.int32),
    "int64": lambda seen: np.array(seen, dtype=np.int64),
    "generator": lambda seen: (item for item in seen),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), form=st.sampled_from(sorted(SEEN_FORMS)))
def test_property_recommend_topn_matches_oracle(data, form):
    """recommend_topn == the positive unseen items sorted by (-score, item),
    first n, on tie-heavy scores, for n to past the candidate count and
    every form of the seen set."""
    m = data.draw(st.integers(0, 40), label="m")
    scores = data.draw(st.lists(st.sampled_from((-0.2, 0.0, 0.4, 0.4, 0.9)), min_size=m, max_size=m))
    seen = data.draw(st.lists(st.integers(0, m - 1), unique=True) if m else st.just([]))
    candidates = [i for i in range(m) if scores[i] > 0.0 and i not in seen]
    n = data.draw(st.integers(1, len(candidates) + 2), label="n")
    want = sorted(candidates, key=lambda i: (-scores[i], i))[:n]
    rl = recommend_topn(np.array(scores, dtype=np.float64), SEEN_FORMS[form](seen), n, user=3)
    assert rl.user == 3
    assert rl.entries == [(i, scores[i]) for i in want]
    assert all(type(i) is int and type(v) is float for i, v in rl.entries)


def worked_split():
    # i2 occurs in neither side but belongs to the shared universe.
    universe = ["i0", "i1", "i2"]
    train = InteractionDataset(np.array([0]), np.array([0]), np.ones(1), np.zeros(1), ["u"], universe)
    test = InteractionDataset(np.array([0]), np.array([1]), np.ones(1), np.ones(1), ["u"], universe)
    return SplitPair(train, test)


def test_recommend_all_worked_example():
    s = sim_from_dense([[0.0, 0.8, 0.1], [0.8, 0.0, 0.4], [0.1, 0.4, 0.0]])
    pair = worked_split()
    recs = recommend_all(s, build_matrix(pair.train), SUM_ALL, 10, np.array([0]))
    assert len(recs) == 1
    assert recs[0].user == 0
    assert recs[0].entries == [(1, 0.8), (2, 0.1)]


def test_recommend_all_scores_exactly_the_given_users():
    # Rows 0 and 2 of x, in that order; row 1 holds a profile but is not asked
    # for, and row 3 is asked for with an empty profile, so its list is empty.
    s = sim_from_dense([[0.0, 0.8, 0.1], [0.8, 0.0, 0.4], [0.1, 0.4, 0.0]])
    x = build_matrix(InteractionDataset(
        np.array([0, 1, 2]), np.array([0, 1, 2]), np.ones(3), np.zeros(3),
        ["a", "b", "c", "d"], ["i0", "i1", "i2"],
    ))
    recs = recommend_all(s, x, SUM_ALL, 10, np.array([0, 2, 3]))
    assert recs == [
        RecommendationList(0, [(1, 0.8), (2, 0.1)]),
        RecommendationList(2, [(1, 0.4), (0, 0.1)]),
        RecommendationList(3, []),
    ]


def test_recommend_all_deterministic():
    ds = make_implicit_dataset(random.Random(55))
    pair = split_holdout(ds, SplitConfig(0.8, 21))
    s = truncate_topk(cosine_similarity(build_matrix(pair.train)), 3)
    a = recommend_split(s, pair, topk_mode(3), 10)
    b = recommend_split(s, pair, topk_mode(3), 10)
    assert a == b


def test_recommend_all_checks_matrix_size():
    x = build_matrix(worked_split().train)
    with pytest.raises(ContractError, match="matrix has 1 items but the train matrix has 3"):
        recommend_all(sim_from_dense([[0.0]]), x, SUM_ALL, 5, np.array([0]))


@pytest.mark.parametrize("item", [7, 3, -1])
@pytest.mark.parametrize("mode", [SUM_ALL, topk_mode(1)], ids=["sum-all", "profile-topk"])
def test_recommend_all_refuses_item_index_out_of_range(item, mode):
    # The CSR of a caller, not of build_matrix: scipy does not check its indices.
    s = sim_from_dense([[0.0, 0.8, 0.1], [0.8, 0.0, 0.4], [0.1, 0.4, 0.0]])
    x = sp.csr_matrix((np.ones(2), np.array([0, item]), np.array([0, 0, 2])), shape=(2, 3))
    with pytest.raises(ContractError, match=r"item indices outside \[0, 3\)"):
        recommend_all(s, x, mode, 5, np.array([0]))  # also when the user is another row


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_column_gather_is_scipy_indexing(data):
    """The compiled-kernel gather == scipy's public ``m[:, cols]`` and ``toarray``, bit for bit.

    Float64 and uint16 data, int32 and int64 index arrays, empty column
    lists, repeated and unsorted columns, and columns without entries.
    """
    n_rows = data.draw(st.integers(1, 8), label="n_rows")
    n_cols = data.draw(st.integers(1, 8), label="n_cols")
    dtype = data.draw(st.sampled_from([np.float64, np.uint16]), label="dtype")
    cells = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 7, 65535]),
                               min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    dense = np.array(cells, dtype=dtype).reshape(n_rows, n_cols)
    if dtype is np.float64:
        dense /= 10  # 0.1, 0.7, 6553.5: values that are not integers
    m = sp.csc_matrix(dense)
    index = data.draw(st.sampled_from([np.int32, np.int64]), label="index dtype")
    m.indptr, m.indices = m.indptr.astype(index), m.indices.astype(index)
    other = (m.data * 3).astype(dtype)  # other data laid out like m.data
    cols = np.array(
        data.draw(st.lists(st.integers(0, n_cols - 1), max_size=2 * n_cols), label="cols"),
        dtype=data.draw(st.sampled_from([np.int32, np.int64]), label="cols dtype"),
    )

    got = recommend._ColumnGather(m, cols)
    want = m[:, cols]
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()
    block = got.dense(got.data, 0, len(cols))
    assert block.flags.c_contiguous and block.dtype == dtype
    assert block.tobytes() == want.toarray().tobytes()
    want_other = sp.csc_matrix((other, m.indices, m.indptr), shape=m.shape)[:, cols]
    assert got.gather(other).tobytes() == want_other.data.tobytes()
    assert got.indices.tolist() == want.indices.tolist()  # gather writes the same rows again
    lo = data.draw(st.integers(0, len(cols)), label="lo")
    hi = data.draw(st.integers(lo, len(cols)), label="hi")
    assert got.dense(got.data, lo, hi).tobytes() == m[:, cols[lo:hi]].toarray().tobytes()
    if dtype is np.float64:  # sums: runs of columns, each slot added in column order from 0.0
        bounds = np.array(sorted(data.draw(st.lists(st.integers(0, len(cols)), min_size=1),
                                           label="bounds")))
        want_sums = []
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            slots = [0.0] * n_rows
            for c in cols[a:b].tolist():
                for i in range(n_rows):
                    slots[i] += dense[i][c]
            want_sums.append(slots)
        assert got.sums(got.data, bounds).tolist() == want_sums


def test_scoring_matches_dense_oracle_both_modes():
    rng = random.Random(77)
    for _ in range(30):
        ds = make_implicit_dataset(rng)
        s_full = cosine_similarity(build_matrix(ds))
        k = rng.choice([1, 2, 5])
        s_topk = truncate_topk(s_full, k)
        profile = set(
            rng.sample(range(ds.n_items), rng.randint(0, min(ds.n_items, 8)))
        )
        for s in (s_full, s_topk):
            dense = to_dense(s)
            got_sum = score_user(s, profile, SUM_ALL)
            got_topk = score_user(s, profile, topk_mode(k))
            assert got_sum.tolist() == in_order_scores(dense, profile, "sum-all")
            assert got_topk.tolist() == in_order_scores(dense, profile, "profile-topk", k)


def test_sum_all_adds_in_ascending_j():
    # (0.1 + 0.2) + 0.3 differs from 0.3 + 0.2 + 0.1 in the last bit: both
    # modes must add in ascending j, as the contract says.
    s = sim_from_dense(
        [[0.0, 0.1, 0.2, 0.3], [0.0] * 4, [0.0] * 4, [0.0] * 4], strategy=STRATEGY_TOPK, k=4
    )
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert score_user(s, [1, 2, 3], SUM_ALL)[0] == (0.1 + 0.2) + 0.3
    assert score_user(s, [1, 2, 3], topk_mode(3))[0] == (0.1 + 0.2) + 0.3


def tie_heavy_matrix(rng, n):
    """Rows drawn from a few values whose sums depend on the addition order."""
    values = (0.0, 0.1, 0.2, 0.3, 0.3, 0.7, 0.7)
    return [[rng.choice(values) for _ in range(n)] for _ in range(n)]


def test_score_user_tie_heavy_exact():
    rng = random.Random(909)
    order_matters = False
    for _ in range(40):
        n = rng.randint(3, 12)
        dense = tie_heavy_matrix(rng, n)
        s = sim_from_dense(dense, strategy=STRATEGY_TOPK, k=n)  # asymmetric
        profile = set(rng.sample(range(n), rng.randint(1, n)))
        for k in range(1, len(profile) + 3):  # k < |P|, k = |P| and k > |P|
            got = score_user(s, profile, topk_mode(k))
            assert got.tolist() == in_order_scores(dense, profile, "profile-topk", k)
        got = score_user(s, profile, SUM_ALL)
        want = in_order_scores(dense, profile, "sum-all")
        assert got.tolist() == want
        descending = [sum(sorted((row[j] for j in profile), reverse=True)) for row in dense]
        order_matters |= want != descending
    assert order_matters  # the oracle's summation order is actually exercised


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_profile_topk_tie_heavy(data):
    """Profile-topk == the in-order oracle on tie-heavy matrices, every k to past |P|.

    Symmetric matrices are scored as full ones, through the CSC view of their
    CSR arrays; the others as top-k matrices.  The k range puts the longest
    matrix row both above and at or below k, so selection runs and is skipped.
    """
    n = data.draw(st.integers(1, 9), label="n")
    values = (0.0, 0.0, 0.1, 0.2, 0.3, 0.3, 0.7, 0.7)
    flat = data.draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n))
    dense = [flat[i * n : (i + 1) * n] for i in range(n)]
    if data.draw(st.booleans(), label="symmetric"):
        dense = [[dense[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        s = sim_from_dense(dense)
    else:
        s = sim_from_dense(dense, strategy=STRATEGY_TOPK, k=n)
    profile = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="profile")
    for k in range(1, len(profile) + 3):
        got = score_user(s, profile, topk_mode(k))
        assert got.tolist() == in_order_scores(dense, profile, "profile-topk", k)
    for j in range(n):  # single-item profiles: the column itself
        assert score_user(s, [j], topk_mode(1)).tolist() == [row[j] for row in dense]


def oracle_lists(s, pair, mode, n):
    """Reference for recommend_all: the in-order oracle's scores and a brute top-N per test user."""
    dense = to_dense(s)
    profiles = item_sets(pair.train)
    return [
        RecommendationList(u, brute_top_n(
            in_order_scores(dense, profiles.get(u, set()), mode.kind, mode.k),
            profiles.get(u, set()), n,
        ))
        for u in sorted(item_sets(pair.test))
    ]


def counting_chunks(mp):
    """Patch the chunk kernel to record each call's user count; returns that list."""
    sizes = []
    kernel = recommend._score_chunk

    def counted(s, profiles, bounds, k):
        sizes.append(len(bounds) - 1)
        return kernel(s, profiles, bounds, k)

    mp.setattr(recommend, "_score_chunk", counted)
    return sizes


def test_recommend_all_crosses_user_blocks():
    rng = random.Random(606)
    rows = [
        Interaction(f"u{u}", f"i{i}", 1.0, float(rng.randint(0, 50)))
        for u in range(137)
        for i in rng.sample(range(25), rng.randint(5, 12))  # >= 5: one test row
    ]
    pair = split_holdout(dataset_from_rows(rows), SplitConfig(0.8, 7))
    s_full = cosine_similarity(build_matrix(pair.train))
    for s in (s_full, truncate_topk(s_full, 3)):
        for mode in (SUM_ALL, topk_mode(3)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recommend, "CHUNK_CELLS", 1000)
                chunks = counting_chunks(mp)
                assert recommend_split(s, pair, mode, 5) == oracle_lists(s, pair, mode, 5)
            assert 2 < len(chunks) < len(np.unique(pair.test.users))  # chunks of several users


def test_recommend_all_chunk_edge_cases():
    """An empty profile, users whose cells alone exceed the budget, and one chunk
    mixing profiles of at most k and of more than k items under selection."""
    rng = random.Random(4242)
    n_items = 12
    dense = [[0.0 if i == j else rng.choice((0.0, 0.1, 0.3, 0.3, 0.7)) for j in range(n_items)]
             for i in range(n_items)]
    dense = [[dense[min(i, j)][max(i, j)] for j in range(n_items)] for i in range(n_items)]
    s = sim_from_dense(dense)  # full: rows of more than k = 2 entries, so profile-topk selects
    assert max(len(row(s, i)[0]) for i in range(n_items)) > 2
    profiles = [[], [3], [1, 5], [0, 2, 4, 6, 8], list(range(n_items)), [7, 9, 11]]
    indices = np.array([j for p in profiles for j in p], dtype=np.int64)
    indptr = np.cumsum([0] + [len(p) for p in profiles])
    x = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(profiles), n_items))
    users = np.arange(len(profiles))
    for mode in (SUM_ALL, topk_mode(2)):
        want = [
            RecommendationList(u, brute_top_n(
                in_order_scores(dense, set(profiles[u]), mode.kind, mode.k), set(profiles[u]), 4))
            for u in users.tolist()
        ]
        # Budget s.nnz: user 4 gathers every column, s.nnz cells, so it is a chunk alone.
        for budget in (1, s.nnz, 2**62):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recommend, "CHUNK_CELLS", budget)
                chunks = counting_chunks(mp)
                assert recommend_all(s, x, mode, 4, users) == want
            if budget == 1:
                assert chunks == [1] * len(profiles)
            elif budget == s.nnz:
                assert {4, 5} <= set(np.cumsum([0] + chunks).tolist())  # user 4 alone
            else:
                assert chunks == [len(profiles)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_blocked_kernel_matches_oracles(data):
    """recommend_all == the in-order oracle and a brute top-N, with the chunk
    budget at its smallest (a user per chunk), drawn, or huge (one chunk)."""
    n_users = data.draw(st.integers(2, 14), label="n_users")
    n_items = data.draw(st.integers(2, 9), label="n_items")
    cells = data.draw(
        st.sets(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
            min_size=2,
            max_size=n_users * n_items,
        ),
        label="cells",
    )
    k = data.draw(st.integers(1, n_items), label="k")
    n = data.draw(st.integers(1, n_items + 1), label="n")
    budget = data.draw(st.sampled_from([1, 2**62]) | st.integers(1, 60), label="budget")
    seed = data.draw(st.integers(0, 999), label="seed")
    ds = dataset_from_rows(
        Interaction(f"u{u}", f"i{i}", 1.0, float(u * i % 7)) for u, i in sorted(cells)
    )
    pair = split_holdout(ds, SplitConfig(0.6, seed))
    s_full = cosine_similarity(build_matrix(pair.train))
    for s in (s_full, truncate_topk(s_full, k)):
        dense = to_dense(s)
        for mode in (SUM_ALL, topk_mode(k)):
            want = oracle_lists(s, pair, mode, n)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recommend, "CHUNK_CELLS", budget)
                assert recommend_split(s, pair, mode, n) == want
            for profile in item_sets(pair.train).values():
                assert score_user(s, profile, mode).tolist() == in_order_scores(
                    dense, profile, mode.kind, mode.k
                )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_property_rank_matches_brute(data):
    """The block ranker == a brute top-N of every row: tie-heavy rows, all-zero
    and negative entries, rows with fewer than n positives, n past the width."""
    rows = data.draw(st.integers(0, 6), label="rows")
    width = data.draw(st.integers(1, 12), label="width")
    cells = data.draw(st.lists(st.sampled_from((-0.2, 0.0, 0.0, 0.4, 0.4, 0.9, 5e-324)),
                               min_size=rows * width, max_size=rows * width))
    block = np.array(cells, dtype=np.float64).reshape(rows, width)
    if rows and data.draw(st.booleans(), label="a zero row"):
        block[0] = 0.0
    n = data.draw(st.integers(1, width + 2), label="n")
    sizes, items, scores = recommend._rank(block.copy(), n)
    want = [brute_top_n(row_values, set(), n) for row_values in block.tolist()]
    assert sizes.tolist() == [len(entries) for entries in want]
    assert list(zip(items.tolist(), scores.tolist())) == [e for entries in want for e in entries]


def test_csr_todense_adds_repeated_cells_in_array_order():
    # Scores rest on csr_todense adding cells into their slot in array order:
    # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit.
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    for cells in ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1]):
        out = np.zeros((1, 2))
        _sparsetools.csr_todense(1, 2, np.array([0, 3]), np.array([1, 1, 1]), np.array(cells), out)
        assert out.tolist() == [[0.0, (0.0 + cells[0] + cells[1]) + cells[2]]]


def run_preset(preset_name, s_full, pair, k, n):
    preset = PRESETS[preset_name]
    s = truncate_topk(s_full, k) if preset.matrix_strategy == STRATEGY_TOPK else s_full
    return recommend_split(s, pair, preset.scoring_mode(k), n)


def test_alignment_equivalence_exact():
    # On the truncated matrix the profile-topk filter is a no-op, and the two
    # modes accumulate identical addends in identical order: lists must match
    # exactly, scores included.
    rng = random.Random(101)
    for trial in range(60):
        ds = make_implicit_dataset(rng)
        pair = split_holdout(ds, SplitConfig(0.8, rng.randint(0, 999)))
        s_full = cosine_similarity(build_matrix(pair.train))
        k = (1, 2, 5)[trial % 3]
        adjusted = run_preset("lenskit-adjusted", s_full, pair, k, 10)
        recbole = run_preset("recbole", s_full, pair, k, 10)
        assert adjusted == recbole


def test_degenerate_equality_with_large_k():
    rng = random.Random(202)
    for _ in range(30):
        ds = make_implicit_dataset(rng)
        pair = split_holdout(ds, SplitConfig(0.8, rng.randint(0, 999)))
        s_full = cosine_similarity(build_matrix(pair.train))
        k = max(ds.n_items - 1, 1)
        original = run_preset("lenskit-original", s_full, pair, k, 10)
        recbole = run_preset("recbole", s_full, pair, k, 10)
        assert original == recbole


def test_exclusion_and_order_soundness():
    rng = random.Random(303)
    for _ in range(25):
        ds = make_implicit_dataset(rng)
        pair = split_holdout(ds, SplitConfig(0.8, rng.randint(0, 999)))
        s = truncate_topk(cosine_similarity(build_matrix(pair.train)), 5)
        train_items = item_sets(pair.train)
        for rl in recommend_split(s, pair, SUM_ALL, 10):
            items = [item for item, _ in rl.entries]
            scores = [score for _, score in rl.entries]
            assert not (set(items) & train_items[rl.user])
            assert all(v > 0 for v in scores)
            for (i1, v1), (i2, v2) in zip(rl.entries, rl.entries[1:]):
                assert v1 > v2 or (v1 == v2 and i1 < i2)


def loaded_lists(path) -> dict[str, list[tuple[str, float]]]:
    """The lists of a dump, by user id, from the columns ``load_recommendations`` returns."""
    (users, user_ids), (items, item_ids), scores = load_recommendations(path)
    assert (np.diff(users) >= 0).all()  # grouped by user, in first-appearance order
    lists: dict[str, list[tuple[str, float]]] = {}
    for user, item, score in zip(users.tolist(), items.tolist(), scores.tolist()):
        lists.setdefault(user_ids[user], []).append((item_ids[item], score))
    return lists


def test_save_load_recommendations(tmp_path):
    ds = make_implicit_dataset(random.Random(404))
    pair = split_holdout(ds, SplitConfig(0.8, 84))
    s = truncate_topk(cosine_similarity(build_matrix(pair.train)), 3)
    recs = recommend_split(s, pair, SUM_ALL, 5)
    path = save_recommendations(recs, pair.train, tmp_path / "recs.tsv")
    loaded = loaded_lists(path)
    assert len(loaded) == len([rl for rl in recs if rl.entries])
    for rl in recs:
        if not rl.entries:
            continue
        ext_user = ds.user_ids[rl.user]
        assert [item for item, _ in loaded[ext_user]] == [
            ds.item_ids[item] for item, _ in rl.entries
        ]
        for (_, got), (_, want) in zip(loaded[ext_user], rl.entries):
            assert got == want  # 17 significant digits round-trip


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6), chunk=st.integers(1, 5),
       chars=st.integers(1, 64))
def test_property_save_load_recommendations_in_chunks(tmp_path_factory, seed, n, chunk, chars):
    ds = make_implicit_dataset(random.Random(seed), 12, 9)
    pair = split_holdout(ds, SplitConfig(0.6, seed))
    recs = recommend_split(cosine_similarity(build_matrix(pair.train)), pair, SUM_ALL, n)
    want = {
        ds.user_ids[rl.user]: [(ds.item_ids[item], score) for item, score in rl.entries]
        for rl in recs
        if rl.entries
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "CHUNK_LINES", chunk)
        mp.setattr(ingest, "CHUNK_CHARS", chars)
        path = save_recommendations(recs, pair.train, tmp_path_factory.mktemp("recs") / "r.tsv")
        assert loaded_lists(path) == want


def oracle_recs_text(recs: list[RecommendationList], ds: InteractionDataset) -> str:
    """The dump as the per-line f-string writer before write_table made it."""
    lines = ["user\trank\titem\tscore\n"]
    for rl in recs:
        user = ds.user_ids[rl.user]
        for rank, (item, score) in enumerate(rl.entries, start=1):
            lines.append(f"{user}\t{rank}\t{ds.item_ids[item]}\t{score:.17g}\n")
    return "".join(lines)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), user_ids=st.lists(IDS, min_size=1, max_size=5, unique=True),
       item_ids=st.lists(IDS, min_size=1, max_size=6, unique=True))
def test_property_save_recommendations_bytes_match_oracle(
    tmp_path_factory, data, user_ids, item_ids
):
    users = data.draw(st.lists(st.integers(0, len(user_ids) - 1), unique=True), label="users")
    recs = [
        RecommendationList(user, data.draw(st.lists(
            st.tuples(st.integers(0, len(item_ids) - 1), FLOATS), max_size=4
        ), label="entries"))
        for user in users
    ]
    recs += data.draw(st.sampled_from([[], [RecommendationList(0, [])]]), label="empty list")
    ds = InteractionDataset(
        *(np.zeros(0, dtype=t) for t in (np.int64, np.int64, np.float64, np.float64)),
        user_ids, item_ids,
    )
    path = save_recommendations(recs, ds, tmp_path_factory.mktemp("recs") / "r.tsv")
    assert path.read_bytes() == oracle_recs_text(recs, ds).encode("utf-8")
