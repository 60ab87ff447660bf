from __future__ import annotations

import random

import numpy as np
import pytest

from itemknn_bench.errors import RowParseError, SchemaError
from itemknn_bench.ingest import (
    ImplicitThreshold,
    Interaction,
    InteractionDataset,
    load_interactions,
    save_interactions,
    stats,
    to_implicit,
)

from conftest import as_rows, pair_set

ATOMIC_HEADER = "user_id:token\titem_id:token\trating:float\ttimestamp:float\n"


def write_atomic(path, rows):
    path.write_text(ATOMIC_HEADER + "".join(rows), encoding="utf-8")
    return path


def test_load_atomic_three_rows(tmp_path):
    path = write_atomic(
        tmp_path / "t.inter",
        ["a\tx\t4.0\t10\n", "b\ty\t2.0\t20\n", "a\tz\t5.0\t30\n"],
    )
    ds = load_interactions(path, "atomic")
    assert ds.n_interactions == 3
    assert ds.n_users == 2
    assert ds.n_items == 3
    # row order preserved, indices in first-appearance order
    assert as_rows(ds)[0] == Interaction("a", "x", 4.0, 10.0)
    assert ds.user_ids == ["a", "b"]
    assert ds.item_ids == ["x", "y", "z"]
    assert ds.users.tolist() == [0, 1, 0]
    for column in (ds.users, ds.items):
        assert column.dtype == np.int64
    for column in (ds.ratings, ds.timestamps):
        assert column.dtype == np.float64


def test_load_empty_file_with_header(tmp_path):
    ds = load_interactions(write_atomic(tmp_path / "e.inter", []))
    assert ds.n_interactions == 0
    assert ds.n_users == 0
    assert ds.n_items == 0


def test_load_csv_with_column_map(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("uid,movie,stars\n7,101,4.5\n8,102,1.0\n", encoding="utf-8")
    ds = load_interactions(
        path, "csv", {"user": "uid", "item": "movie", "rating": "stars"}
    )
    assert ds.n_interactions == 2
    # no timestamp column -> 0.0 everywhere
    assert ds.timestamps.tolist() == [0.0, 0.0]


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_interactions(tmp_path / "nope.inter")


def test_load_missing_column(tmp_path):
    path = tmp_path / "bad.inter"
    path.write_text("user_id:token\trating:float\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="item_id"):
        load_interactions(path)


def test_load_bad_rating_reports_line(tmp_path):
    path = write_atomic(tmp_path / "bad.inter", ["a\tx\t4.0\t1\n", "b\ty\tNOPE\t2\n"])
    with pytest.raises(RowParseError, match="line 3"):
        load_interactions(path)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "NaN"])
def test_load_non_finite_timestamp_reports_line(tmp_path, stamp):
    path = write_atomic(tmp_path / "bad.inter", ["a\tx\t4.0\t1\n", f"b\ty\t4.0\t{stamp}\n"])
    with pytest.raises(RowParseError, match="line 3.*non-finite timestamp"):
        load_interactions(path)


@pytest.mark.parametrize("line", ["4", "4,7"])
def test_load_short_row_reports_line(tmp_path, line):
    path = tmp_path / "short.csv"
    path.write_text(f"rating,user_id,item_id\n4,7,9\n{line}\n", encoding="utf-8")
    with pytest.raises(RowParseError, match="line 3.*user or item"):
        load_interactions(path, "csv")


def test_load_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        load_interactions(tmp_path / "x", "parquet")


def make_ds(rows):
    return InteractionDataset.from_interactions([Interaction(*r) for r in rows])


def test_threshold_semantics():
    gt3 = ImplicitThreshold(3, "gt")
    assert gt3.passes(4)
    assert not gt3.passes(3)
    ge6 = ImplicitThreshold(6, "ge")
    assert ge6.passes(6)
    assert not ge6.passes(-1)  # unrated marker in the anime scale
    with pytest.raises(ValueError):
        ImplicitThreshold(3, "above")


def test_to_implicit_filters_and_rewrites():
    ds = make_ds(
        [("a", "x", 4.0, 1.0), ("a", "y", 3.0, 2.0), ("b", "x", 5.0, 3.0), ("c", "y", 1.0, 4.0)]
    )
    out = to_implicit(ds, ImplicitThreshold(3, "gt"))
    assert [(r[0], r[1]) for r in as_rows(out)] == [("a", "x"), ("b", "x")]
    assert out.ratings.tolist() == [1.0, 1.0]
    # user c and item y had no survivors: indices rebuilt without them
    assert out.user_ids == ["a", "b"]
    assert out.item_ids == ["x"]


def test_to_implicit_collapses_duplicates_keeping_earliest():
    ds = make_ds(
        [("a", "x", 4.0, 9.0), ("a", "y", 5.0, 1.0), ("a", "x", 5.0, 2.0)]
    )
    out = to_implicit(ds, ImplicitThreshold(3, "gt"))
    assert out.n_interactions == 2
    assert as_rows(out) == [("a", "x", 1.0, 2.0), ("a", "y", 1.0, 1.0)]


def test_to_implicit_idempotent_for_admissible_thresholds():
    # Idempotence requires a threshold that rating 1 itself passes; a cutoff
    # above 1 empties the dataset on the second application by construction.
    rng = random.Random(11)
    for _ in range(20):
        rows = [
            (f"u{rng.randint(0, 5)}", f"i{rng.randint(0, 5)}",
             float(rng.randint(0, 5)), float(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 40))
        ]
        ds = make_ds(rows)
        for t in (ImplicitThreshold(2, "gt"), ImplicitThreshold(4, "ge")):
            once = to_implicit(ds, t)
            keep_ones = ImplicitThreshold(1, "ge")
            assert to_implicit(once, keep_ones) == once
        # and directly: on an already-implicit dataset any 1-admitting threshold is a no-op
        implicit = to_implicit(ds, ImplicitThreshold(0, "gt"))
        assert to_implicit(implicit, ImplicitThreshold(0, "gt")) == implicit


def test_to_implicit_exhaustive_predicate():
    rng = random.Random(5)
    for _ in range(30):
        rows = [
            (f"u{rng.randint(0, 4)}", f"i{rng.randint(0, 4)}",
             float(rng.choice([-1, 0, 1, 2, 3, 4, 5, 6])), float(rng.randint(0, 9)))
            for _ in range(rng.randint(0, 25))
        ]
        ds = make_ds(rows)
        t = ImplicitThreshold(rng.choice([1, 3, 6]), rng.choice(["gt", "ge"]))
        out = to_implicit(ds, t)
        kept = pair_set(out)
        for user, item, rating, _ in as_rows(ds):
            if t.passes(rating):
                assert (user, item) in kept
        for u, i in kept:
            assert any(
                user == u and item == i and t.passes(rating) for user, item, rating, _ in as_rows(ds)
            )


def test_stats_single_cell():
    ds = make_ds([("a", "x", 1.0, 0.0)])
    s = stats(ds)
    assert s.sparsity == 0.0
    assert s.avg_per_user == 1.0
    assert s.avg_per_item == 1.0


def test_stats_half_dense():
    ds = make_ds([("a", "x", 1.0, 0.0), ("b", "y", 1.0, 0.0)])
    assert stats(ds).sparsity == 0.5  # 1 - 2/4


def test_stats_empty():
    s = stats(make_ds([]))
    assert (s.n_users, s.n_items, s.n_interactions) == (0, 0, 0)
    assert s.avg_per_user == 0.0
    assert s.sparsity == 0.0


def test_stats_matches_brute_force_recount():
    rng = random.Random(3)
    for _ in range(20):
        rows = [
            (f"u{rng.randint(0, 9)}", f"i{rng.randint(0, 9)}",
             float(rng.randint(1, 5)), float(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 50))
        ]
        ds = to_implicit(make_ds(rows), ImplicitThreshold(2, "gt"))
        s = stats(ds)
        data = as_rows(ds)
        users = {r[0] for r in data}
        items = {r[1] for r in data}
        assert s.n_users == len(users)
        assert s.n_items == len(items)
        assert s.n_interactions == len(data)
        assert 0.0 <= s.sparsity <= 1.0
        if users:
            assert s.avg_per_user == len(data) / len(users)
            assert s.sparsity == 1.0 - len(data) / (len(users) * len(items))


def test_index_bijectivity():
    rng = random.Random(8)
    rows = [
        (f"user-{rng.randint(0, 30)}", f"item-{rng.randint(0, 30)}", 1.0, 0.0)
        for _ in range(100)
    ]
    ds = make_ds(rows)
    for ids, codes, column in ((ds.user_ids, ds.users, 0), (ds.item_ids, ds.items, 1)):
        assert len(set(ids)) == len(ids)
        assert [ids[c] for c in codes.tolist()] == [r[column] for r in rows]
        assert ids == list(dict.fromkeys(r[column] for r in rows))


def test_save_load_round_trip(tmp_path):
    ds = make_ds([("a", "x", 1.0, 5.0), ("b", "y", 1.0, 0.0), ("a", "y", 1.0, 2.5)])
    path = save_interactions(ds, tmp_path / "rt.inter")
    back = load_interactions(path, "atomic")
    assert back == ds
