from __future__ import annotations

import gc
import hashlib
import random
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from itemknn_bench import ingest, knn
from itemknn_bench.errors import ContractError, RowParseError, SchemaError
from itemknn_bench.ingest import InteractionDataset
from itemknn_bench.knn import (
    STRATEGY_FULL,
    STRATEGY_TOPK,
    SimilarityMatrix,
    build_matrix,
    cosine_similarity,
    first_k,
    load_similarity,
    save_similarity,
    truncate_topk,
)
from itemknn_bench.split import split_holdout

from conftest import (
    Interaction,
    dataset_from_rows,
    dense_cosine_oracle,
    dense_priority_oracle,
    dense_truncate_oracle,
    entries_equal,
    make_implicit_dataset,
    users_per_item,
)


def ds_from_pairs(pairs):
    return dataset_from_rows([Interaction(u, i, 1.0, 0.0) for u, i in pairs])


def sim_from_dense(dense, k=None) -> SimilarityMatrix:
    indptr = [0]
    cols, vals = [], []
    for row in dense:
        for j, v in enumerate(row):
            if v != 0.0:
                cols.append(j)
                vals.append(v)
        indptr.append(len(cols))
    return SimilarityMatrix(
        indptr=np.array(indptr, dtype=np.int32),
        cols=np.array(cols, dtype=np.int32),
        vals=np.array(vals, dtype=np.float64),
        k=k,
    )


def row(s: SimilarityMatrix, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i's stored columns and values."""
    lo, hi = s.indptr[i], s.indptr[i + 1]
    return s.cols[lo:hi], s.vals[lo:hi]


def to_dense(s: SimilarityMatrix) -> list[list[float]]:
    dense = [[0.0] * s.n_items for _ in range(s.n_items)]
    for i in range(s.n_items):
        cols, vals = row(s, i)
        for c, v in zip(cols, vals):
            dense[i][c] = v
    return dense


def test_build_matrix_rows_sorted():
    # u1 meets i2 before i0, so its row must be sorted, not kept in file order.
    ds = ds_from_pairs([("u0", "i0"), ("u1", "i1"), ("u1", "i2"), ("u1", "i0")])
    m = build_matrix(ds)
    assert m.shape == (2, 3)
    assert m.indices[m.indptr[0] : m.indptr[1]].tolist() == [0]
    assert m.indices[m.indptr[1] : m.indptr[2]].tolist() == [0, 1, 2]
    assert m.data.tolist() == [1, 1, 1, 1]


def test_build_matrix_empty():
    m = build_matrix(ds_from_pairs([]))
    assert m.shape == (0, 0)
    assert m.nnz == 0


def test_cosine_identical_single_user():
    # i and j interacted with by exactly the same one user
    s = cosine_similarity(build_matrix(ds_from_pairs([("u", "i"), ("u", "j")])))
    dense = to_dense(s)
    assert dense[0][1] == 1.0
    assert dense[1][0] == 1.0
    assert dense[0][0] == 0.0  # diagonal excluded


def test_cosine_disjoint_users_not_stored():
    s = cosine_similarity(build_matrix(ds_from_pairs([("a", "i"), ("b", "j")])))
    assert s.nnz == 0


def test_cosine_half_overlap():
    # U_i = {u1, u2}, U_j = {u2, u3} -> 1 / (sqrt(2) * sqrt(2)) = 0.5
    s = cosine_similarity(
        build_matrix(ds_from_pairs([("u1", "i"), ("u2", "i"), ("u2", "j"), ("u3", "j")]))
    )
    assert to_dense(s)[0][1] == 0.5


def test_cosine_requires_items():
    with pytest.raises(ContractError):
        cosine_similarity(build_matrix(ds_from_pairs([])))


def with_unused_items(rng: random.Random) -> list[InteractionDataset]:
    """A random dataset and a split train of it, whose test-only items have no users."""
    ds = make_implicit_dataset(rng)
    return [ds, split_holdout(ds, 0.5, rng.randint(0, 99))[0]]


def test_cosine_matches_dense_oracle():
    rng = random.Random(42)
    for _ in range(30):
        for ds in with_unused_items(rng):
            # The same expression, shared / sqrt(n_i * n_j), so equal bits.
            assert to_dense(cosine_similarity(build_matrix(ds))) == dense_cosine_oracle(ds)


@pytest.mark.parametrize("chunk", [1, 7])
def test_cosine_chunk_boundaries(monkeypatch, chunk):
    rng = random.Random(53)
    datasets = [ds for _ in range(10) for ds in with_unused_items(rng)]
    default = [cosine_similarity(build_matrix(ds)) for ds in datasets]
    monkeypatch.setattr(knn, "COSINE_CHUNK", chunk)
    for ds, expected in zip(datasets, default):
        assert entries_equal(cosine_similarity(build_matrix(ds)), expected)


def test_index_dtype_is_int32():
    s = cosine_similarity(build_matrix(make_implicit_dataset(random.Random(59))))
    assert (s.cols.dtype, s.indptr.dtype) == (np.int32, np.int32)
    wide = SimilarityMatrix(s.indptr.astype(np.int64), s.cols.astype(np.int64), s.vals)
    for topk in (truncate_topk(s, 2), truncate_topk(wide, 2)):
        assert (topk.cols.dtype, topk.indptr.dtype) == (np.int32, np.int32)
    assert knn.index_dtype(2**31 - 1) == np.int32
    assert knn.index_dtype(2**31) == np.int64


def test_cosine_symmetry_and_range():
    rng = random.Random(9)
    for _ in range(10):
        s = cosine_similarity(build_matrix(make_implicit_dataset(rng)))
        assert np.all(s.vals > 0.0)  # zeros never stored
        assert np.all(s.vals <= 1.0)
        dense = np.array(to_dense(s))
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)


def test_truncate_examples():
    full = sim_from_dense([[0.0, 0.9, 0.5, 0.2]] + [[0.0] * 4] * 3)
    out = truncate_topk(full, 2)
    assert to_dense(out)[0] == [0.0, 0.9, 0.5, 0.0]
    assert out.strategy == STRATEGY_TOPK
    assert out.k == 2


def test_truncate_tie_break_smaller_column():
    full = sim_from_dense([[0.0, 0.5, 0.5, 0.5]] + [[0.0] * 4] * 3)
    out = truncate_topk(full, 2)
    assert to_dense(out)[0] == [0.0, 0.5, 0.5, 0.0]


def test_truncate_noop_when_k_large():
    rng = random.Random(17)
    s = cosine_similarity(build_matrix(make_implicit_dataset(rng)))
    out = truncate_topk(s, s.n_items - 1 if s.n_items > 1 else 1)
    assert entries_equal(out, s)


def test_truncate_soundness_and_oracle():
    rng = random.Random(23)
    for _ in range(25):
        ds = make_implicit_dataset(rng)
        s = cosine_similarity(build_matrix(ds))
        k = rng.choice([1, 2, 5])
        out = truncate_topk(s, k)
        # matches the dense oracle exactly (values unchanged, same kept set)
        assert to_dense(out) == dense_truncate_oracle(to_dense(s), k)
        for i in range(s.n_items):
            _, full_vals = row(s, i)
            kept_cols, kept_vals = row(out, i)
            assert len(kept_cols) <= k
            removed = sorted(full_vals.tolist())
            for v in kept_vals:
                removed.remove(v)
            if len(kept_vals) and removed:
                assert kept_vals.min() >= max(removed)


def test_truncate_idempotent_and_monotone():
    rng = random.Random(31)
    for _ in range(10):
        s = cosine_similarity(build_matrix(make_implicit_dataset(rng)))
        k = rng.choice([1, 2, 5])
        once = truncate_topk(s, k)
        assert entries_equal(truncate_topk(once, k), once)
        kept_k = {(i, c) for i in range(s.n_items) for c in row(once, i)[0]}
        bigger = truncate_topk(s, k + 1)
        kept_k1 = {(i, c) for i in range(s.n_items) for c in row(bigger, i)[0]}
        assert kept_k <= kept_k1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_truncate_tie_heavy(data):
    """truncate_topk == the dense oracle for every k to past the longest row,
    and re-truncating the top-k matrix at any k2 <= k equals truncating the
    full matrix at k2."""
    n = data.draw(st.integers(1, 9), label="n")
    values = (0.0, 0.0, 0.1, 0.3, 0.3, 0.7)
    upper = data.draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n))
    # Symmetric with a zero diagonal, as a full matrix is.
    dense = [[upper[min(i, j) * n + max(i, j)] if i != j else 0.0 for j in range(n)]
             for i in range(n)]
    s = sim_from_dense(dense)
    for k in range(1, int(np.diff(s.indptr).max()) + 2):
        topk = truncate_topk(s, k)
        assert entries_equal(topk, sim_from_dense(dense_truncate_oracle(dense, k)))
        for k2 in range(1, k + 1):
            assert entries_equal(truncate_topk(topk, k2), truncate_topk(s, k2))


def assert_first_k(values: list[float], k: int) -> None:
    want = sorted(range(len(values)), key=lambda p: (-values[p], p))[:k]
    assert first_k(np.array(values, dtype=np.float64), k).tolist() == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_first_k_is_the_sorted_prefix(data):
    """first_k == the first k positions by (-value, position) on tie-heavy
    rows, for every k from 0 to past the length."""
    values = data.draw(st.lists(st.sampled_from((0.1, 0.3, 0.3, 0.7)), max_size=40))
    assert_first_k(values, data.draw(st.integers(0, len(values) + 2)))


@pytest.mark.parametrize("values, k", [
    ([], 0), ([], 1),  # m = 0
    ([0.3] * 20, 1), ([0.3] * 20, 7), ([0.3] * 20, 20), ([0.3] * 20, 21),  # one value
    ([0.1, 0.7, 0.3, 0.7], 1), ([0.1, 0.7, 0.3, 0.7], 4), ([0.1, 0.7, 0.3, 0.7], 9),
])
def test_first_k_edges(values, k):
    assert_first_k(values, k)


def test_truncate_rejects_widening():
    s = cosine_similarity(build_matrix(make_implicit_dataset(random.Random(37))))
    out = truncate_topk(s, 2)
    with pytest.raises(ContractError):
        truncate_topk(out, 3)
    with pytest.raises(ContractError):
        truncate_topk(s, 0)


def digest(item_ids) -> str:
    return hashlib.sha256("\n".join(item_ids).encode("utf-8")).hexdigest()


def assert_loaded_equal(back: SimilarityMatrix, mat: SimilarityMatrix) -> None:
    assert (back.n_items, back.strategy, back.k) == (mat.n_items, mat.strategy, mat.k)
    assert entries_equal(back, mat)
    assert np.array_equal(back.n_i, mat.n_i)


def test_save_load_round_trip_exact(tmp_path):
    ds = make_implicit_dataset(random.Random(41))
    s = cosine_similarity(build_matrix(ds))
    for mat in (s, truncate_topk(s, 3)):
        path = save_similarity(mat, tmp_path / f"{mat.strategy}.sim.tsv", ds.item_ids)
        back = load_similarity(path, ds.item_ids)
        assert_loaded_equal(back, mat)  # the same counts through the same division
        assert (back.cols.dtype, back.indptr.dtype) == (np.int32, np.int32)


@st.composite
def count_datasets(draw):
    """Small implicit datasets whose train universe may hold items without
    users (test-only items of a split) and items without neighbours (the
    only item of their users)."""
    n_users, n_items = draw(st.integers(1, 8), label="users"), draw(st.integers(1, 7), label="items")
    pairs = draw(st.sets(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
                         min_size=1))
    pairs |= {(n_users + u, n_items + u) for u in range(draw(st.integers(0, 2)))}  # loners
    ds = ds_from_pairs((f"u{u}", f"i{i}") for u, i in sorted(pairs))
    if draw(st.booleans(), label="split"):
        ds = split_holdout(ds, 0.5, draw(st.integers(0, 99)))[0]
    return ds


@settings(max_examples=60, deadline=None)
@given(ds=count_datasets(), k=st.integers(1, 4), lines=st.integers(1, 5),
       chars=st.integers(1, 64), chunk=st.integers(1, 5))
def test_property_save_load_round_trip_in_chunks(tmp_path_factory, ds, k, lines, chars, chunk):
    """Saved and loaded with small CHUNK_LINES, CHUNK_CHARS and COSINE_CHUNK,
    a full and a top-k matrix come back with ``==`` indptr, cols, vals and n_i."""
    out = tmp_path_factory.mktemp("sim")
    s = cosine_similarity(build_matrix(ds))
    for mat in (s, truncate_topk(s, k)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "CHUNK_LINES", lines)
            mp.setattr(ingest, "CHUNK_CHARS", chars)
            mp.setattr(knn, "COSINE_CHUNK", chunk)
            back = load_similarity(save_similarity(mat, out / "m.tsv", ds.item_ids), ds.item_ids)
        assert_loaded_equal(back, mat)


@settings(max_examples=60, deadline=None)
@given(ds=count_datasets())
def test_property_full_matrices_are_their_own_transposes(tmp_path_factory, ds):
    """The two builders of a full matrix: the cosine and the mirroring loader."""
    s = cosine_similarity(build_matrix(ds))
    path = save_similarity(s, tmp_path_factory.mktemp("sim") / "m.tsv", ds.item_ids)
    for mat in (s, load_similarity(path, ds.item_ids)):
        # csc() reads these CSR arrays as the CSR arrays of the transpose.
        t = sp.csr_matrix((mat.vals, mat.cols, mat.indptr), shape=(mat.n_items,) * 2).T.tocsr()
        t.sort_indices()
        assert np.array_equal(t.indptr, mat.indptr)
        assert np.array_equal(t.indices, mat.cols)
        assert np.array_equal(t.data, mat.vals)


def test_save_header_format(tmp_path):
    ds = ds_from_pairs([("u", "i"), ("u", "j")])
    s = cosine_similarity(build_matrix(ds))
    path = save_similarity(truncate_topk(s, 1), tmp_path / "m.tsv", ds.item_ids)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == f"items=2 strategy=topk k=1 ids={digest(['i', 'j'])}"


def oracle_similarity_text(ds: InteractionDataset, k: int | None) -> str:
    """The count file of a dataset's matrix, line by line from user sets.

    n_i and c_ij are set sizes; a top-k file keeps the cells of the dense
    truncation oracle, a full file the nonzero cells above the diagonal.
    """
    by_item = users_per_item(ds)
    ids = "\n".join(ds.item_ids).encode("utf-8")
    kept = dense_cosine_oracle(ds) if k is None else dense_truncate_oracle(dense_cosine_oracle(ds), k)
    lines = [f"items={ds.n_items} strategy={'full' if k is None else 'topk'} k={k or 0} "
             f"ids={hashlib.sha256(ids).hexdigest()}\n"]
    lines += [f"{i}\t{i}\t{len(by_item[i])}\n" for i in range(ds.n_items) if by_item[i]]
    for i in range(ds.n_items):
        for j in range(i + 1 if k is None else 0, ds.n_items):
            if kept[i][j] != 0.0:
                lines.append(f"{i}\t{j}\t{len(by_item[i] & by_item[j])}\n")
    return "".join(lines)


@settings(max_examples=100, deadline=None)
@given(ds=count_datasets(), k=st.one_of(st.none(), st.integers(1, 4)))
def test_property_save_similarity_bytes_match_oracle(tmp_path_factory, ds, k):
    s = cosine_similarity(build_matrix(ds))
    mat = s if k is None else truncate_topk(s, k)
    path = save_similarity(mat, tmp_path_factory.mktemp("sim") / "m.tsv", ds.item_ids)
    assert path.read_bytes() == oracle_similarity_text(ds, k).encode("utf-8")


def test_save_refuses_values_that_are_no_cosines_of_counts(tmp_path):
    ds = make_implicit_dataset(random.Random(45))
    s = cosine_similarity(build_matrix(ds))
    with pytest.raises(ContractError, match="without user counts"):
        save_similarity(sim_from_dense(to_dense(s)), tmp_path / "values.tsv", ds.item_ids)
    right = s.vals[-1]
    for wrong in (np.nextafter(right, 0.0), 1.5, -right):  # one ulp off, c > n_i, c < 0
        s.vals[-1] = wrong
        with pytest.raises(ContractError, match=r"is no count 1 <= c <= min\(n_i, n_j\)"):
            save_similarity(s, tmp_path / "wrong.tsv", ds.item_ids)
    s.vals[-1] = right
    with pytest.raises(ContractError, match="item ids for a matrix of"):
        save_similarity(s, tmp_path / "ids.tsv", ds.item_ids[1:])
    assert list(tmp_path.iterdir()) == []  # a refused write leaves no file


def test_load_refuses_a_same_sized_matrix_of_other_items(tmp_path):
    ds = ds_from_pairs([("u", "a"), ("u", "b"), ("v", "b")])
    s = cosine_similarity(build_matrix(ds))
    path = save_similarity(s, tmp_path / "m.tsv", ds.item_ids)
    for ids in (["b", "a"], ["a", "c"]):
        with pytest.raises(ContractError, match="was trained on other items: its 2 items"):
            load_similarity(path, ids)
    assert_loaded_equal(load_similarity(path, ["a", "b"]), s)


def test_full_csc_is_a_view_of_the_csr_arrays():
    s = cosine_similarity(build_matrix(make_implicit_dataset(random.Random(43))))
    assert s.strategy == STRATEGY_FULL
    assert np.shares_memory(s.csc().data, s.vals)
    assert np.shares_memory(s.csc().indices, s.cols)
    assert np.shares_memory(s.csc().indptr, s.indptr)
    assert np.shares_memory(s.priorities().indices, s.cols)
    assert np.array_equal(s.csc().toarray(), np.array(to_dense(s)))
    topk = truncate_topk(s, 2)
    assert np.array_equal(topk.csc().toarray(), np.array(to_dense(topk)))


def test_priorities_rank_each_row():
    # Row 0 in (-value, j) order: col 3 (0.9), col 1, col 2 (0.5 tie, smaller j first).
    s = sim_from_dense(
        [[0.0, 0.5, 0.5, 0.9], [0.5, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.2], [0.9, 0.0, 0.2, 0.0]]
    )
    prio = s.priorities()
    assert prio.dtype == np.uint8
    assert prio.toarray().tolist() == [[0, 2, 1, 3], [1, 0, 0, 0], [2, 0, 0, 1], [2, 0, 1, 0]]
    assert np.shares_memory(prio.indices, s.csc().indices)
    assert s.priorities() is prio  # cached


def test_priorities_dtype_holds_n_items():
    s = sim_from_dense([[0.0] * 300 for _ in range(300)], k=1)
    assert s.priorities().dtype == np.uint16


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_priorities_match_dense_oracle(seed):
    rng = random.Random(seed)
    values = (0.1, 0.3, 0.3, 0.7)
    cell = lambda: rng.choice(values) if rng.random() < 0.6 else 0.0  # noqa: E731
    dense = [[cell() for _ in range(9)] for _ in range(9)]
    dense[4] = [0.0] * 9  # an empty row
    got = sim_from_dense(dense, k=9).priorities().toarray()
    assert got.tolist() == dense_priority_oracle(dense)


def test_priorities_refuse_asymmetric_full_matrix():
    s = sim_from_dense([[0.0, 0.5], [0.0, 0.0]])  # labelled full, but not symmetric
    with pytest.raises(ContractError):
        s.priorities()


def test_priority_cache_dies_with_its_matrix():
    s = cosine_similarity(build_matrix(make_implicit_dataset(random.Random(47))))
    s.priorities()
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


IDS3 = ["a", "b", "c"]
FULL3 = f"items=3 strategy=full k=0 ids={digest(IDS3)}"
TOPK3 = f"items=3 strategy=topk k=2 ids={digest(IDS3)}"
COUNTS3 = "0\t0\t2\n1\t1\t2\n2\t2\t2\n"  # lines 2-4; the entries start on line 5


@pytest.mark.parametrize(
    "header, body, line, reason",
    [
        pytest.param(FULL3, COUNTS3 + "0\t1\t1\n3\t0\t1\n", 6, "outside", id="row-past-items"),
        pytest.param(TOPK3, COUNTS3 + "0\t3\t1\n", 5, "outside", id="col-past-items"),
        pytest.param(TOPK3, COUNTS3 + "-1\t0\t1\n", 5, "outside", id="negative-row"),
        pytest.param(TOPK3, COUNTS3 + "0\t1\t1\n0\t1\t1\n", 6, "does not follow",
                     id="duplicate"),
        pytest.param(TOPK3, COUNTS3 + "0\t2\t1\n0\t1\t1\n", 6, "does not follow",
                     id="unsorted-cols"),
        pytest.param(TOPK3, COUNTS3 + "1\t0\t1\n0\t1\t1\n", 6, "does not follow",
                     id="unsorted-rows"),
        pytest.param(TOPK3, "1\t1\t2\n0\t0\t2\n", 3, "does not follow", id="unsorted-counts"),
        pytest.param(TOPK3, COUNTS3 + "0\t1\t0\n", 5, "not a positive count", id="zero"),
        pytest.param(TOPK3, COUNTS3 + "0\t1\t1\n0\t2\t-1\n", 6, "not a positive count",
                     id="negative"),
        pytest.param(TOPK3, "0\t0\t0\n", 2, "not a positive count", id="zero-users"),
        pytest.param(TOPK3, COUNTS3 + "0\t1\t0.5\n", 5, "bad count", id="fractional-count"),
        pytest.param(TOPK3, "0\t0\t2.0\n", 2, "bad count", id="float-count"),
        pytest.param(TOPK3, COUNTS3 + "0\t1\tnan\n", 5, "bad count", id="nan"),
        pytest.param(TOPK3, COUNTS3 + "0\t1\tinf\n", 5, "bad count", id="inf"),
        pytest.param(TOPK3, "0\t0\t2\n1\t1\t1\n2\t2\t2\n0\t2\t2\n1\t0\t2\n", 6,
                     r"above min\(n_i, n_j\) = 1", id="count-above-min"),
        pytest.param(TOPK3, "0\t0\t2\n1\t1\t2\n0\t1\t1\n0\t2\t1\n", 5,
                     "names an item without a user count", id="no-user-count"),
        pytest.param(TOPK3, COUNTS3 + "0\t1\t1\n1\t1\t2\n", 6, "user count after the first",
                     id="count-after-entries"),
        pytest.param(
            f"items=3 strategy=topk k=1 ids={digest(IDS3)}", COUNTS3 + "0\t1\t1\n0\t2\t1\n", 6,
            "past the k=1 entries", id="topk-row-past-k",
        ),
        pytest.param(FULL3, COUNTS3 + "0\t1\t1\n1\t0\t2\n", 6, "below the diagonal",
                     id="mirror-differs"),
        pytest.param(FULL3, COUNTS3 + "1\t0\t1\n", 5, "below the diagonal", id="full-lower-entry"),
        pytest.param(FULL3, "0\t1\n", 2, "2 fields, want 3", id="short-row"),
        pytest.param(TOPK3, "0\t1\t1\t7\n", 2, "4 fields, want 3", id="long-row"),
        pytest.param(TOPK3, COUNTS3 + "0\t1\t1\n\n", 6, "1 fields, want 3", id="blank-line"),
        pytest.param(TOPK3, '0\t0\t"2"\n', 2, "not csv-quoted", id="quote"),
        pytest.param(TOPK3, "0\t99999999999999999999\t1\n", 2, "bad col", id="col-past-int64"),
        pytest.param(FULL3, "0\tx\t1\n", 2, "bad col", id="bad-integer"),
        pytest.param(f"items=3 strategy=topk k=0 ids={digest(IDS3)}", "", 1, "bad header",
                     id="topk-k0"),
        pytest.param(f"items=3 strategy=full k=2 ids={digest(IDS3)}", "", 1, "bad header",
                     id="full-with-k"),
        pytest.param(f"items=0 strategy=full k=0 ids={digest(IDS3)}", "", 1, "bad header",
                     id="no-items"),
        pytest.param(f"items=x strategy=full k=0 ids={digest(IDS3)}", "", 1, "bad header",
                     id="bad-items"),
        pytest.param(f"items=3 strategy=dense k=0 ids={digest(IDS3)}", "", 1, "bad header",
                     id="bad-strategy"),
        pytest.param("items=3 strategy=full k=0", COUNTS3, 1, "bad header", id="no-ids"),
        pytest.param(f"items=3 strategy=full k=0 ids={digest(IDS3)[:-1]}", COUNTS3, 1,
                     "bad header", id="short-ids"),
        pytest.param(f"items=3 strategy=full k=0 ids={digest(IDS3).upper()}", COUNTS3, 1,
                     "bad header", id="upper-case-ids"),
        pytest.param("items=3 strategy=full k=0", "0\t1\t0.5\n1\t0\t0.5\n", 1,
                     "predates count files", id="float-file"),
        pytest.param("", "", 1, "bad header", id="empty-file"),
    ],
)
def test_load_similarity_refuses_malformed_files(tmp_path, header, body, line, reason):
    path = tmp_path / "m.sim.tsv"
    path.write_text(header + "\n" + body, encoding="utf-8")
    with pytest.raises(SchemaError, match=f"line {line}: .*{reason}"):
        load_similarity(path, IDS3)


def test_load_similarity_header_k_defaults_to_zero(tmp_path):
    path = tmp_path / "m.sim.tsv"
    path.write_text(f"items=2 strategy=full ids={digest(['a', 'b'])}\n0\t0\t1\n1\t1\t1\n0\t1\t1\n",
                    encoding="utf-8")
    s = load_similarity(path, ["a", "b"])
    assert (s.n_items, s.strategy, s.k, s.nnz) == (2, STRATEGY_FULL, None, 2)
    assert s.vals.tolist() == [1.0, 1.0]


def test_load_similarity_message_shows_plain_numbers(tmp_path):
    path = tmp_path / "m.sim.tsv"
    path.write_text(FULL3 + "\n" + COUNTS3 + "0\t1\t3\n", encoding="utf-8")
    with pytest.raises(RowParseError) as e:
        load_similarity(path, IDS3)
    assert str(e.value) == f"{path}: line 5: entry (0, 1) = 3 is above min(n_i, n_j) = 2"
    assert (e.value.path, e.value.line_no) == (path, 5)
