from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itemknn_bench import ingest
from itemknn_bench.errors import ContractError, RowParseError, SchemaError
from itemknn_bench.ingest import Interaction, InteractionDataset
from itemknn_bench.knn import (
    STRATEGY_FULL,
    STRATEGY_TOPK,
    SimilarityMatrix,
    build_matrix,
    cosine_similarity,
    load_similarity,
    save_similarity,
    truncate_topk,
)

from conftest import (
    dense_cosine_oracle,
    dense_priority_oracle,
    dense_truncate_oracle,
    make_implicit_dataset,
)
from test_ingest import FLOATS


def ds_from_pairs(pairs):
    return InteractionDataset.from_interactions(
        [Interaction(u, i, 1.0, 0.0) for u, i in pairs]
    )


def sim_from_dense(dense, strategy=STRATEGY_FULL, k=None) -> SimilarityMatrix:
    n = len(dense)
    indptr = [0]
    cols, vals = [], []
    for row in dense:
        for j, v in enumerate(row):
            if v != 0.0:
                cols.append(j)
                vals.append(v)
        indptr.append(len(cols))
    return SimilarityMatrix(
        n_items=n,
        indptr=np.array(indptr, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        vals=np.array(vals, dtype=np.float64),
        strategy=strategy,
        k=k,
    )


def to_dense(s: SimilarityMatrix) -> list[list[float]]:
    dense = [[0.0] * s.n_items for _ in range(s.n_items)]
    for i in range(s.n_items):
        cols, vals = s.row(i)
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


def test_cosine_matches_dense_oracle():
    rng = random.Random(42)
    for _ in range(30):
        ds = make_implicit_dataset(rng)
        s = cosine_similarity(build_matrix(ds))
        expected = dense_cosine_oracle(ds)
        got = to_dense(s)
        for i in range(ds.n_items):
            for j in range(ds.n_items):
                assert got[i][j] == pytest.approx(expected[i][j], abs=1e-12)


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
    assert out.entries_equal(s)


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
            _, full_vals = s.row(i)
            kept_cols, kept_vals = out.row(i)
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
        assert truncate_topk(once, k).entries_equal(once)
        kept_k = {(i, c) for i in range(s.n_items) for c in once.row(i)[0]}
        bigger = truncate_topk(s, k + 1)
        kept_k1 = {(i, c) for i in range(s.n_items) for c in bigger.row(i)[0]}
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
        assert topk.entries_equal(sim_from_dense(dense_truncate_oracle(dense, k)))
        for k2 in range(1, k + 1):
            assert truncate_topk(topk, k2).entries_equal(truncate_topk(s, k2))


def test_truncate_rejects_widening():
    s = cosine_similarity(build_matrix(make_implicit_dataset(random.Random(37))))
    out = truncate_topk(s, 2)
    with pytest.raises(ContractError):
        truncate_topk(out, 3)
    with pytest.raises(ContractError):
        truncate_topk(s, 0)


def test_save_load_round_trip_exact(tmp_path):
    s = cosine_similarity(build_matrix(make_implicit_dataset(random.Random(41))))
    for mat in (s, truncate_topk(s, 3)):
        path = save_similarity(mat, tmp_path / f"{mat.strategy}.sim.tsv")
        back = load_similarity(path)
        assert back.strategy == mat.strategy
        assert back.k == mat.k
        assert back.n_items == mat.n_items
        assert back.entries_equal(mat)  # 17 significant digits round-trip doubles


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 4), chunk=st.integers(1, 5))
def test_property_save_load_round_trip_in_chunks(tmp_path_factory, seed, k, chunk):
    s = cosine_similarity(build_matrix(make_implicit_dataset(random.Random(seed), 8, 7)))
    out = tmp_path_factory.mktemp("sim")
    for mat in (s, truncate_topk(s, k)):
        path = save_similarity(mat, out / f"{mat.strategy}.sim.tsv")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "CHUNK_LINES", chunk)
            back = load_similarity(path)
        assert (back.strategy, back.k) == (mat.strategy, mat.k)
        assert back.entries_equal(mat)


def test_save_header_format(tmp_path):
    s = cosine_similarity(build_matrix(ds_from_pairs([("u", "i"), ("u", "j")])))
    path = save_similarity(truncate_topk(s, 1), tmp_path / "m.tsv")
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "items=2 strategy=topk k=1"


def oracle_similarity_text(s: SimilarityMatrix) -> str:
    """The matrix file as the per-line f-string writer before write_table made it."""
    lines = [f"items={s.n_items} strategy={s.strategy} k={s.k or 0}\n"]
    for i in range(s.n_items):
        lo, hi = s.indptr[i], s.indptr[i + 1]
        for j, v in zip(s.cols[lo:hi].tolist(), s.vals[lo:hi].tolist()):
            lines.append(f"{i}\t{j}\t{v:.17g}\n")
    return "".join(lines)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), topk=st.booleans())
def test_property_save_similarity_bytes_match_oracle(tmp_path_factory, data, n, topk):
    rows = [sorted(data.draw(st.sets(st.integers(0, n - 1)))) for _ in range(n)]
    cols = [j for row in rows for j in row]
    vals = data.draw(st.lists(FLOATS, min_size=len(cols), max_size=len(cols)))
    s = SimilarityMatrix(
        n_items=n,
        indptr=np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        vals=np.array(vals, dtype=np.float64),
        strategy=STRATEGY_TOPK if topk else STRATEGY_FULL,
        k=n if topk else None,
    )
    path = save_similarity(s, tmp_path_factory.mktemp("sim") / "m.tsv")
    assert path.read_bytes() == oracle_similarity_text(s).encode("utf-8")


def test_full_csc_is_a_view_of_the_csr_arrays():
    s = cosine_similarity(build_matrix(make_implicit_dataset(random.Random(43))))
    assert s.strategy == STRATEGY_FULL
    assert np.shares_memory(s.csc().data, s.vals)
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
    s = sim_from_dense([[0.0] * 300 for _ in range(300)], strategy=STRATEGY_TOPK, k=1)
    assert s.priorities().dtype == np.uint16


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_priorities_match_dense_oracle(seed):
    rng = random.Random(seed)
    values = (0.1, 0.3, 0.3, 0.7)
    cell = lambda: rng.choice(values) if rng.random() < 0.6 else 0.0  # noqa: E731
    dense = [[cell() for _ in range(9)] for _ in range(9)]
    dense[4] = [0.0] * 9  # an empty row
    got = sim_from_dense(dense, strategy=STRATEGY_TOPK, k=9).priorities().toarray()
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


FULL3, TOPK3 = "items=3 strategy=full k=0", "items=3 strategy=topk k=2"


@pytest.mark.parametrize(
    "header, body, line",
    [
        pytest.param(FULL3, "0\t1\t0.5\n1\t0\t0.5\n3\t0\t0.5\n", 4, id="row-past-items"),
        pytest.param(TOPK3, "0\t3\t0.5\n", 2, id="col-past-items"),
        pytest.param(TOPK3, "-1\t0\t0.5\n", 2, id="negative-row"),
        pytest.param(TOPK3, "0\t1\t0.5\n0\t1\t0.5\n", 3, id="duplicate"),
        pytest.param(TOPK3, "0\t2\t0.5\n0\t1\t0.4\n", 3, id="unsorted-cols"),
        pytest.param(TOPK3, "1\t0\t0.5\n0\t1\t0.4\n", 3, id="unsorted-rows"),
        pytest.param(TOPK3, "0\t1\t0\n", 2, id="zero"),
        pytest.param(TOPK3, "0\t1\t0.5\n0\t2\t-0.5\n", 3, id="negative"),
        pytest.param(TOPK3, "0\t1\tnan\n", 2, id="nan"),
        pytest.param(TOPK3, "0\t1\tinf\n", 2, id="inf"),
        pytest.param(
            "items=3 strategy=topk k=1", "0\t1\t0.5\n0\t2\t0.4\n", 3, id="topk-row-past-k"
        ),
        pytest.param(FULL3, "0\t1\t0.5\n1\t0\t0.25\n", 2, id="mirror-differs"),
        pytest.param(FULL3, "0\t1\t0.5\n1\t0\t0.5\n1\t2\t0.5\n", 4, id="no-mirror"),
        pytest.param(FULL3, "0\t1\n", 2, id="short-row"),
        pytest.param(TOPK3, "0\t1\t0.5\t7\n", 2, id="long-row"),
        pytest.param(TOPK3, "0\t1\t0.5\n\n", 3, id="blank-line"),
        pytest.param(TOPK3, '0\t1\t"0.5"\n', 2, id="quote"),
        pytest.param(TOPK3, "0\t99999999999999999999\t0.5\n", 2, id="col-past-int64"),
        pytest.param(FULL3, "0\tx\t0.5\n", 2, id="bad-integer"),
        pytest.param("items=3 strategy=topk k=0", "", 1, id="topk-k0"),
        pytest.param("items=3 strategy=full k=2", "", 1, id="full-with-k"),
        pytest.param("items=0 strategy=full k=0", "", 1, id="no-items"),
        pytest.param("items=x strategy=full k=0", "", 1, id="bad-items"),
        pytest.param("items=3 strategy=dense k=0", "", 1, id="bad-strategy"),
        pytest.param("", "", 1, id="empty-file"),
    ],
)
def test_load_similarity_refuses_malformed_files(tmp_path, header, body, line):
    path = tmp_path / "m.sim.tsv"
    path.write_text(header + "\n" + body, encoding="utf-8")
    with pytest.raises(SchemaError, match=f"line {line}:"):
        load_similarity(path)


def test_load_similarity_header_k_defaults_to_zero(tmp_path):
    path = tmp_path / "m.sim.tsv"
    path.write_text("items=2 strategy=full\n0\t1\t0.5\n1\t0\t0.5\n", encoding="utf-8")
    s = load_similarity(path)
    assert (s.n_items, s.strategy, s.k, s.nnz) == (2, STRATEGY_FULL, None, 2)


def test_load_similarity_message_shows_plain_numbers(tmp_path):
    path = tmp_path / "m.sim.tsv"
    path.write_text(FULL3 + "\n0\t1\t0.5\n1\t0\t0.25\n", encoding="utf-8")
    with pytest.raises(RowParseError) as e:
        load_similarity(path)
    assert str(e.value) == (
        f"{path}: line 2: entry (0, 1) = 0.5 has no equal entry (1, 0): a full matrix is symmetric"
    )
    assert (e.value.path, e.value.line_no) == (path, 2)
