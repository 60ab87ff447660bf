from __future__ import annotations

import random
from pathlib import Path
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itemknn_bench import ingest
from itemknn_bench.errors import RowParseError, SchemaError
from itemknn_bench.knn import item_digest, load_similarity
from itemknn_bench.ingest import (
    ImplicitThreshold,
    load_interactions,
    save_interactions,
    stats,
    to_implicit,
)

from conftest import (
    Interaction,
    OracleLineError,
    as_rows,
    dataset_from_rows,
    oracle_load_interactions,
    oracle_to_implicit,
    pair_set,
)

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


def test_load_column_mapped_twice(tmp_path):
    path = write_atomic(tmp_path / "twice.inter", ["a\tx\t4.0\t1\n"])
    with pytest.raises(SchemaError, match="'user_id' is mapped twice"):
        load_interactions(path, "atomic", {"item": "user_id"})


def test_load_bad_rating_reports_line(tmp_path):
    path = write_atomic(tmp_path / "bad.inter", ["a\tx\t4.0\t1\n", "b\ty\tNOPE\t2\n"])
    with pytest.raises(RowParseError, match="line 3"):
        load_interactions(path)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "NaN"])
def test_load_non_finite_timestamp_reports_line(tmp_path, stamp):
    path = write_atomic(tmp_path / "bad.inter", ["a\tx\t4.0\t1\n", f"b\ty\t4.0\t{stamp}\n"])
    with pytest.raises(RowParseError, match="line 3.*non-finite timestamp"):
        load_interactions(path)


NOT_WRITTEN_IN_FULL = ["+9", " 10", "10 ", "1_0", "\x0c7", "\u0663", "+inf"]


# The user id "a b" makes the chunk's text hold a space, so the number
# columns are checked one by one, not only through the whole chunk.
@pytest.mark.parametrize("user", ["a", "a b"])
@pytest.mark.parametrize("column", ["rating", "timestamp"])
@pytest.mark.parametrize("field", NOT_WRITTEN_IN_FULL)
def test_load_refuses_number_not_written_in_full(tmp_path, user, column, field):
    # float() takes each of these: "+9", " 10" and "1_0" loaded as 9, 10 and 10.
    row = {"rating": f"{user}\ty\t{field}\t2\n", "timestamp": f"{user}\ty\t4.0\t{field}\n"}
    path = write_atomic(tmp_path / "bad.inter", [f"{user}\tx\t4.0\t1\n", row[column]])
    with pytest.raises(RowParseError, match=re.escape(f"line 3: bad {column} {field!r}")):
        load_interactions(path)


@pytest.mark.parametrize("user", ["a", "a b", "+a"])
def test_load_keeps_exponent_sign_and_signed_ids(tmp_path, user):
    # write_table writes 1e20 as "1e+20"; a "+" that leads an id is no number's.
    path = write_atomic(tmp_path / "ok.inter", [f"{user}\tx\t1e+20\t-1e-05\n"])
    ds = load_interactions(path)
    assert (ds.user_ids, ds.ratings.tolist(), ds.timestamps.tolist()) == ([user], [1e20], [-1e-05])


@pytest.mark.parametrize("field", NOT_WRITTEN_IN_FULL[:-1])  # int() refuses "+inf"
def test_load_similarity_refuses_count_not_written_in_full(tmp_path, field):
    path = tmp_path / "m.sim.tsv"
    path.write_text(f"items=2 strategy=full k=0 ids={item_digest(['a', 'b'])}\n"
                    f"0\t0\t2\n1\t1\t{field}\n0\t1\t1\n", encoding="utf-8")
    with pytest.raises(RowParseError, match=re.escape(f"line 3: bad count {field!r}")):
        load_similarity(path, ["a", "b"])


@pytest.mark.parametrize("line", ["4", "4,7"])
def test_load_short_row_reports_line(tmp_path, line):
    path = tmp_path / "short.csv"
    path.write_text(f"rating,user_id,item_id\n4,7,9\n{line}\n", encoding="utf-8")
    with pytest.raises(RowParseError, match="line 3: .*fields, want 3"):
        load_interactions(path, "csv")


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(["a\tx\t4.0\t1\n", "b\ty\t2.0\t2\textra\n"], id="extra-field"),
        pytest.param(["a\tx\t4.0\t1\n", '"c"\ty\t2.0\t2\n'], id="quote"),
        pytest.param(["a\tx\t4.0\t1\n", "\n", "b\ty\t2.0\t2\n"], id="blank-line"),
        # A short and a long row whose fields would parse as two full rows.
        pytest.param(["a\tx\t4.0\t1\n", "b\ty\t2.0\n", "3\tc\tz\t1.0\t9\n"], id="short-long"),
    ],
)
def test_load_refuses_rows_it_would_otherwise_reinterpret(tmp_path, rows):
    # csv.reader used to drop the extra field, unquote "c" and skip the blank line.
    with pytest.raises(RowParseError, match="line 3: ") as e:
        load_interactions(write_atomic(tmp_path / "bad.inter", rows))
    assert e.value.line_no == 3


def test_crlf_and_unterminated_files_load_equal(tmp_path):
    text = "uid,item_id,rating\nu1,x,4.0\nu2,y,2.5\nu1,y,1\n"
    variants = {"lf": text, "crlf": text.replace("\n", "\r\n"), "bare": text[:-1]}
    loaded = {}
    for name, body in variants.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(body.encode("utf-8"))
        loaded[name] = load_interactions(path, "csv", {"user": "uid"})
    assert loaded["lf"].n_interactions == 3
    assert loaded["crlf"] == loaded["lf"]
    assert loaded["bare"] == loaded["lf"]


@pytest.mark.parametrize(
    "last, fault",
    [
        ("u2\tz\t1.0\t4", None),
        ("u2\tz\t1.0\r\n", "3 fields"),
        ('u2\t"z"\t1.0\t4\r\n', "csv-quoted"),
        ("u2\tz\tfour\t4\r\n", "bad rating"),
    ],
    ids=["unterminated", "ragged", "quote", "bad-number"],
)
def test_every_read_chunk_boundary(tmp_path, monkeypatch, last, fault):
    # Each size ends a chunk at another character: inside a multi-byte id, at a
    # separator, on a CRLF.  The rows and the line of the fault do not move.
    body = "u1\tx\t4.0\t1\r\nü日\ty\t2.5\t2\r\nu1\tü\t1\t3\r\n" + last
    path = tmp_path / "t.inter"
    path.write_bytes((ATOMIC_HEADER.replace("\n", "\r\n") + body).encode("utf-8"))
    want = dataset_from_rows([("u1", "x", 4.0, 1.0), ("ü日", "y", 2.5, 2.0),
                              ("u1", "ü", 1.0, 3.0), ("u2", "z", 1.0, 4.0)])
    for chars in range(1, len(body) + 2):
        monkeypatch.setattr(ingest, "CHUNK_CHARS", chars)
        if fault is None:
            assert load_interactions(path) == want
        else:
            with pytest.raises(RowParseError, match=f"line 5: .*{fault}"):
                load_interactions(path)



@pytest.mark.parametrize("rows", [3, 7, 1], ids=["grows-by-one", "grows-by-five", "shrinks"])
def test_file_that_changes_between_passes_refused(tmp_path, monkeypatch, rows):
    # read_table counts the rows, seeks back and reads them: a file another
    # writer changes in between does not fit the columns counted for it.
    path = write_atomic(tmp_path / "t.inter", ["u\ti\t1\t1\n"] * 2)
    real_open = Path.open

    def open_then_rewrite(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        seek = fh.seek

        def rewrite_then_seek(position):
            write_atomic(path, ["v\tj\t2\t2\n"] * rows)
            return seek(position)

        fh.seek = rewrite_then_seek
        return fh

    monkeypatch.setattr(Path, "open", open_then_rewrite)
    monkeypatch.setattr(ingest, "CHUNK_CHARS", 4)
    with pytest.raises(SchemaError, match="the file changed while it was read"):
        load_interactions(path)

ID_TEXT = st.text(alphabet="abz09:_-. éü日本", max_size=4)
NUMBER_TEXT = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "0", ".5", "5.", "1e3", "1e+20", "2.5E-3", "-7e-310"]),
)
BAD_NUMBERS = {
    "bad-number": st.sampled_from(["four", "", "1.2.3", "0x10"]),
    # float() takes each of these; a number written in full holds none of them.
    "not-plain": st.sampled_from(["+4", " 5", "5 ", "1_0", "\x0c7", "\u0663", "+inf"]),
    "non-finite": st.sampled_from(["nan", "inf", "-Infinity", "1e999"]),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_load_interactions_matches_oracle(tmp_path_factory, data):
    atomic = data.draw(st.booleans(), label="atomic")
    sep = "\t" if atomic else ","
    logical = ["user", "item", "rating"] + (["timestamp"] if data.draw(st.booleans()) else [])
    renamed = data.draw(st.booleans(), label="renamed")
    names = {f: (f"my{f}" if renamed else ingest.DEFAULT_COLUMNS[f]) for f in logical}
    extras = [f"extra{e}" for e in range(data.draw(st.integers(0, 2), label="extras"))]
    fields = data.draw(st.permutations(logical + extras), label="fields")
    kinds = {"user": ID_TEXT, "item": ID_TEXT, "rating": NUMBER_TEXT, "timestamp": NUMBER_TEXT}
    rows = [
        [data.draw(kinds.get(f, ID_TEXT)) for f in fields]
        for _ in range(data.draw(st.integers(0, 12), label="n_rows"))
    ]
    suffix = {"user": ":token", "item": ":token", "rating": ":float", "timestamp": ":float"}
    header = [
        names.get(f, f) + (suffix.get(f, ":token") if atomic else "") for f in fields
    ]
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    final = data.draw(st.booleans(), label="final newline")
    column_map = {f: names[f] for f in logical} if renamed else None
    # Reads of a few characters put rows, line ends and the fault across chunk boundaries.
    chars = data.draw(st.integers(1, 64), label="read chunk chars")

    # At most one fault, planted in row r: the oracle names its line, r + 2.
    fault = data.draw(
        st.sampled_from([None, "ragged", "blank", "quote", *BAD_NUMBERS]), label="fault"
    )
    lines = [sep.join(row) for row in rows]
    if fault and rows:
        r = data.draw(st.integers(0, len(rows) - 1), label="faulty row")
        if fault == "ragged":
            lines[r] = sep.join(rows[r] + ["x"] if data.draw(st.booleans()) else rows[r][:-1])
        elif fault == "blank":
            lines.insert(r, "")
        else:
            numbers = [f for f in logical if f in ("rating", "timestamp")]
            at = fields.index(data.draw(st.sampled_from(logical if fault == "quote" else numbers)))
            row = list(rows[r])
            row[at] = f'"{row[at]}"' if fault == "quote" else data.draw(BAD_NUMBERS[fault])
            lines[r] = sep.join(row)
    text = newline.join([sep.join(header), *lines]) + (newline if final else "")
    path = tmp_path_factory.mktemp("prop") / ("t.inter" if atomic else "t.csv")
    path.write_bytes(text.encode("utf-8"))

    fmt = "atomic" if atomic else "csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "CHUNK_CHARS", chars)
        if fault and rows:
            with pytest.raises(OracleLineError) as want:
                oracle_load_interactions(path, fmt, column_map)
            assert want.value.line_no == r + 2
            with pytest.raises(RowParseError) as got:
                load_interactions(path, fmt, column_map)
            assert got.value.line_no == want.value.line_no
        else:
            ds = load_interactions(path, fmt, column_map)
            want = oracle_load_interactions(path, fmt, column_map)
            assert (as_rows(ds), ds.user_ids, ds.item_ids) == want


def test_load_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        load_interactions(tmp_path / "x", "parquet")


def make_ds(rows):
    return dataset_from_rows(rows)


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


TIE_ROWS = st.lists(st.tuples(
    st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y", "z"]),
    st.sampled_from([1.0, 3.0, 4.0, 5.0]), st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.0, 1e300]),
), max_size=30)


@settings(max_examples=200, deadline=None)
@given(rows=TIE_ROWS,
       threshold=st.sampled_from([ImplicitThreshold(3, "gt"), ImplicitThreshold(1, "ge")]))
def test_property_to_implicit_matches_oracle_on_ties(rows, threshold):
    """Heavy timestamp ties (-0.0 ties with 0.0) and duplicate pairs: the rows,
    each pair's earliest timestamp (its first row of them on ties) at the
    pair's first position, and the ids, as the per-row oracle keeps them."""
    out = to_implicit(make_ds(rows), threshold)
    want_rows, want_users, want_items = oracle_to_implicit(rows, threshold.passes)
    assert repr(as_rows(out)) == repr(want_rows)  # repr tells -0.0 from 0.0
    assert (out.user_ids, out.item_ids) == (want_users, want_items)


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


IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='\t\n\r"'))
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308, 1e308, 0.1 + 0.2, 1 / 3]),
)


@st.composite
def tables(draw):
    """Columns for write_table: (codes, ids) id columns, int64 and float64 arrays."""
    n = draw(st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from([str, int, float]), min_size=1, max_size=4)):
        if kind is str:
            ids = draw(st.lists(IDS | st.sampled_from(["a:b", "a,b", "é\x85 ", ""]),
                                min_size=1, max_size=5, unique=True))
            codes = draw(st.lists(st.integers(0, len(ids) - 1), min_size=n, max_size=n))
            columns.append((np.array(codes, dtype=np.int64), ids))
        else:
            values = st.integers(-(2**63), 2**63 - 1) if kind is int else FLOATS
            dtype = np.int64 if kind is int else np.float64
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    return columns


@settings(max_examples=200, deadline=None)
@given(columns=tables(), chunk=st.integers(1, 5), chars=st.integers(1, 64))
def test_property_write_table_read_table_round_trip(tmp_path_factory, columns, chunk, chars):
    kinds = [str if isinstance(c, tuple) else {"i": int, "f": float}[c.dtype.kind] for c in columns]
    header = "\t".join(f"c{i}" for i in range(len(columns)))
    path = tmp_path_factory.mktemp("table") / "t.tsv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "CHUNK_LINES", chunk)
        mp.setattr(ingest, "CHUNK_CHARS", chars)
        ingest.write_table(path, header, columns)
        back = ingest.read_table(path, "\t", lambda line: [
            (name, kind) for name, kind in zip(line.split("\t"), kinds)
        ])
    assert list(back) == header.split("\t")
    for want, got in zip(columns, back.values()):
        if isinstance(want, tuple):
            assert [got[1][c] for c in got[0].tolist()] == [want[1][c] for c in want[0].tolist()]
        else:
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit
