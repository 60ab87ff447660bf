"""Interaction data loading, implicit-feedback conversion, and dataset statistics.

Input files are UTF-8 text with a header row.  Two layouts are supported:

* ``atomic``: tab-separated, headers carry type suffixes (``user_id:token``,
  ``rating:float``, ...) which are stripped to base names before the column
  map is applied.
* ``csv``: comma-separated, plain headers.

A dataset is columnar: row r is the event (``user_ids[users[r]]``,
``item_ids[items[r]]``, ``ratings[r]``, ``timestamps[r]``).  ``users`` and
``items`` are int64 dense codes, ``ratings`` and ``timestamps`` float64, and
the external-id lists give each dense code its id, in first-appearance
order.  No per-interaction Python object is kept.  Columns are never
modified after construction, so datasets are safe to share across threads,
and the train/test sides of a split share their source's id lists.
"""

from __future__ import annotations

from array import array
from contextlib import suppress
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .errors import RowParseError, SchemaError

DEFAULT_COLUMNS = {
    "user": "user_id",
    "item": "item_id",
    "rating": "rating",
    "timestamp": "timestamp",
}

ATOMIC_HEADER = "user_id:token\titem_id:token\trating:float\ttimestamp:float"
FORMATS = ("atomic", "csv")
THRESHOLD_MODES = ("gt", "ge")
# read_table reads this many characters at a time, completed to a line end, and
# write_table formats this many lines at a time, which bounds their transient
# memory: a chunk of text and its fields, not a file's.
CHUNK_CHARS = 1 << 16
CHUNK_LINES = 4096
# The ASCII characters that int() and float() strip, less the line ends, and "_".
_SPACE_OR_UNDERSCORE = " \t\x0b\x0c\x1c\x1d\x1e\x1f_"


@dataclass(frozen=True, slots=True)
class ImplicitThreshold:
    """Rule for binarizing explicit ratings.

    ``mode`` is ``"gt"`` (keep ratings strictly greater than ``cutoff``), the
    default, or ``"ge"`` (keep ratings greater than or equal to ``cutoff``).
    ``passes`` takes a scalar or a numpy array of ratings.
    """

    cutoff: float
    mode: str = "gt"

    def __post_init__(self):
        if self.mode not in THRESHOLD_MODES:
            raise ValueError(f"threshold mode must be 'gt' or 'ge', got {self.mode!r}")

    def passes(self, rating):
        if self.mode == "gt":
            return rating > self.cutoff
        return rating >= self.cutoff


@dataclass(frozen=True)
class InteractionDataset:
    """Interaction columns plus the external ids of the dense codes.

    The id lists define the id universe; train/test partitions derived from
    a dataset share its lists so dense indices stay comparable downstream.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray
    user_ids: list[str]
    item_ids: list[str]

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.users, self.items, self.ratings, self.timestamps

    def take(self, rows) -> "InteractionDataset":
        """The selected rows, in the order given, on this dataset's id universe."""
        return InteractionDataset(*(c[rows] for c in self.columns), self.user_ids, self.item_ids)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_interactions(self) -> int:
        return len(self.users)

    def is_implicit(self) -> bool:
        return bool(np.all(self.ratings == 1.0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InteractionDataset)
            and self.user_ids == other.user_ids
            and self.item_ids == other.item_ids
            and all(map(np.array_equal, self.columns, other.columns))
        )


def _recode(codes: np.ndarray, ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """Renumber ``codes``, which index ``ids``, densely in first-appearance order.

    Ids that no row uses leave the universe.  O(n), with no sort: each id's
    first row comes from ``np.minimum.at``, and the codes at the first rows,
    in row order, are the used ids in first-appearance order.
    """
    n = len(codes)
    first = np.full(len(ids), n)
    np.minimum.at(first, codes, np.arange(n))
    is_first = np.zeros(n, dtype=bool)
    is_first[first[first < n]] = True
    used = codes[is_first]
    rank = np.empty(len(ids), dtype=np.int64)
    rank[used] = np.arange(len(used))
    return rank[codes], [ids[c] for c in used.tolist()]


@dataclass(frozen=True, slots=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    avg_per_user: float
    avg_per_item: float
    sparsity: float

    def as_dict(self) -> dict:
        return asdict(self)


def read_table(path: str | Path, sep: str, header: Callable[[str], list]) -> dict:
    """Read a header line, then one row of ``sep``-separated fields per line.

    The one reader of interaction files, similarity matrices and dumps.
    ``header(first_line)`` checks the header and returns one ``(name, type)``,
    or ``None`` to skip, per field; the type is ``str`` (an id), ``int`` or
    ``float``.  Returns by name, in field order, an id column as (int64
    first-appearance codes, ids) and a number column as an int64 or float64
    array.  Fields are verbatim (no quoting or trimming), every line after the
    header is a row, and lines end in LF, CRLF or, the last, nothing.  Raises
    ``SchemaError`` for an empty file and ``RowParseError`` for a row without
    one field per header entry (a blank line too), a ``"``, and a number that
    does not parse, is not finite, or holds whitespace, ``_``, a non-ASCII
    character or a leading ``+``.

    The file is read twice, ``CHUNK_CHARS`` characters at a time: once to
    count the rows, so that each column is allocated once at its size, then
    in chunks completed to a line end.  numpy checks a chunk's field counts on
    its UTF-8 bytes and parses its number fields, and a dict codes its ids, so
    no Python object is made per line; a chunk is split into lines only to
    name a faulty one.  So the file must be seekable, and a file that changes
    between the passes is a ``SchemaError``.  ``sep`` is one ASCII character.
    """
    with Path(path).open(encoding="utf-8") as fh:  # universal newlines: CRLF reads as LF
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: line 1: empty file, header row required")
        spec = header(first.rstrip("\n"))
        n, line = len(spec), 2  # line: the first line of the chunk
        read = [(c, *field) for c, field in enumerate(spec) if field]
        codes = {name: _Codes() for _, name, kind in read if kind is str}
        # A first pass counts the rows, so that each column is allocated once.
        start, total, text = fh.tell(), 0, "\n"
        for text in iter(partial(fh.read, CHUNK_CHARS), ""):
            total += text.count("\n")
        total += not text.endswith("\n")  # the last line ends in nothing
        fh.seek(start)
        table = {name: np.empty(total, np.float64 if kind is float else np.int64)
                 for _, name, kind in read}
        while text := fh.read(CHUNK_CHARS) + fh.readline():  # to a line end
            if not text.endswith("\n"):  # the last line ends in nothing
                text += "\n"
            # Line ends and separators are single bytes that no other UTF-8
            # character holds: line r ends after (r + 1) * (n - 1) separators.
            raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
            ends = np.flatnonzero(raw == 10)
            seps = np.searchsorted(np.flatnonzero(raw == ord(sep)), ends)
            rows = len(ends)
            if line - 2 + rows > total:
                raise SchemaError(f"{path}: the file changed while it was read")
            if '"' in text or np.any(seps != (n - 1) * np.arange(1, rows + 1)):
                _row_fault(path, line, text, sep, n)
            fields = text.replace("\n", sep).split(sep)
            plain = _plain(text, sep)
            at = slice(line - 2, line - 2 + rows)
            for c, name, kind in read:
                column = fields[c : n * rows : n]
                if kind is str:
                    table[name][at] = np.fromiter(map(codes[name].__getitem__, column), int, rows)
                    continue
                # A number is written in full: kind() alone would take "+9", " 9" and "9_0".
                # The chunk holds ids too; a column that is not plain holds a field _strict refuses.
                try:
                    if not (plain or _plain("|".join(column), "|")):
                        raise ValueError(name)
                    table[name][at] = np.array(column, dtype=table[name].dtype)  # parses as kind()
                except (ValueError, OverflowError):  # numpy does not say which field failed
                    good = array("d" if kind is float else "q")
                    with suppress(ValueError, OverflowError):
                        good.extend(map(partial(_strict, kind), column))  # stops at the bad one
                    bad = column[len(good)]
                    raise RowParseError(path, line + len(good), f"bad {name} {bad!r}") from None
            line += rows
        if line - 2 != total:
            raise SchemaError(f"{path}: the file changed while it was read")

    for name, values in table.items():
        if values.dtype == np.float64:
            check_rows(path, ~np.isfinite(values), lambda t: f"non-finite {name} {values[t]}")
    table.update((name, (table[name], list(ids))) for name, ids in codes.items())
    return table


class _Codes(dict):
    """Id -> dense code, in first-appearance order: an unseen id takes the next code."""

    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code


def _row_fault(path, line: int, text: str, sep: str, n: int):
    """Raise ``RowParseError`` at the first line of ``text``, which starts at
    line ``line``, that holds a ``"`` or not ``n`` fields."""
    for j, row in enumerate(text.split("\n"), start=line):
        if (seps := row.count(sep)) != n - 1:
            raise RowParseError(path, j, f"{seps + 1} fields, want {n}")
        if '"' in row:
            raise RowParseError(path, j, 'a ": fields are not csv-quoted')


def _plain(text: str, sep: str) -> bool:
    """Whether the number fields that ``text`` holds, joined by ``sep`` or a
    line end, hold no whitespace, ``_``, non-ASCII character or leading ``+``."""
    return (text.isascii() and not any(c in text for c in _SPACE_OR_UNDERSCORE if c != sep)
            and ("+" not in text or not (text[:1] == "+" or sep + "+" in text or "\n+" in text)))


def _strict(kind: type, field: str):
    """``kind(field)``, or ``ValueError`` for a field that is not :func:`_plain`."""
    if not _plain(field, "|"):
        raise ValueError(field)
    return kind(field)


def write_table(path: str | Path, header: str, columns) -> Path:
    """Write ``header``, then one tab-separated line per row of ``columns``.

    The one writer of interaction files, similarity matrices and dumps, and
    the inverse of :func:`read_table`: a column is an id column as (int64
    codes, ids), written as the ids, or an integer or float64 array.
    ``columns`` is a list of columns, or an iterator of such lists that
    hold the rows block by block, all laid out like the first, so a caller
    can make its rows a block at a time.  Ints are written in full and floats
    with 17 significant digits, which round-trips every double.  Lines end in
    LF and the file is UTF-8.  Rows are formatted ``CHUNK_LINES`` at a time,
    so no whole column becomes a Python list.  Creates the file's directory.
    Raises ``SchemaError``, naming the path and the id, for an id holding a
    tab, which would read back as two fields.  A write that raises removes
    its file.
    """
    path = Path(path)
    blocks = iter([columns] if isinstance(columns, list) else columns)
    as_pairs = lambda block: [c if isinstance(c, tuple) else (c, None) for c in block]  # noqa: E731
    pairs = as_pairs(next(blocks))
    for _, ids in pairs:
        tabbed = [x for x in ids or () if "\t" in x]
        if tabbed:
            raise SchemaError(f"{path}: id {tabbed[0]!r} holds a tab, the field separator")
    path.parent.mkdir(parents=True, exist_ok=True)
    # Each column's text: its ids, or the number written in full.
    text = [ids.__getitem__ if ids is not None else "{:.17g}".format if values.dtype.kind == "f"
            else str for values, ids in pairs]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        try:
            fh.write(header + "\n")
            for pairs in chain([pairs], map(as_pairs, blocks)):
                for lo in range(0, len(pairs[0][0]), CHUNK_LINES):
                    fields = [map(f, values[lo : lo + CHUNK_LINES].tolist())
                              for (values, _), f in zip(pairs, text)]
                    fh.write("\n".join(map("\t".join, zip(*fields))))
                    fh.write("\n")
        except BaseException:
            path.unlink()
            raise
    return path


def check_rows(path: str | Path, bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise ``RowParseError`` at the first row of a table that ``bad`` marks."""
    (at,) = np.nonzero(bad)
    if len(at):
        raise RowParseError(path, int(at[0]) + 2, message(int(at[0])))


def load_interactions(
    path: str | Path,
    format: str = "atomic",
    column_map: Mapping[str, str] | None = None,
) -> InteractionDataset:
    """Load an interaction file into a dataset.

    ``format`` is ``"atomic"`` or ``"csv"``.
    ``column_map`` maps the logical fields ``user``, ``item``, ``rating``,
    ``timestamp`` to actual column names; unmapped fields use the defaults
    (``user_id``, ``item_id``, ``rating``, ``timestamp``).  A missing
    default timestamp column yields timestamp 0.0 for every row; a column
    that ``column_map`` names must exist.

    Raises ``FileNotFoundError``, ``SchemaError`` for a missing or twice
    mapped column, and the row faults of :func:`read_table`.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r} (expected 'atomic' or 'csv')")
    atomic = format == "atomic"
    sep = "\t" if atomic else ","
    columns = {**DEFAULT_COLUMNS, **(column_map or {})}

    def header(line: str) -> list:
        pos = {(h.split(":", 1)[0] if atomic else h): c for c, h in enumerate(line.split(sep))}
        spec = [None] * (line.count(sep) + 1)
        for logical, kind in zip(("user", "item", "rating", "timestamp"), (str, str, float, float)):
            c = pos.get(name := columns[logical])
            if c is None and (logical != "timestamp" or logical in (column_map or {})):
                raise SchemaError(f"{path}: missing column {name!r} (for {logical!r})")
            if c is not None:
                if spec[c]:
                    raise SchemaError(f"{path}: column {name!r} is mapped twice")
                spec[c] = (logical, kind)
        return spec

    table = read_table(path, sep, header)
    (users, user_ids), (items, item_ids) = table["user"], table["item"]
    timestamps = table["timestamp"] if "timestamp" in table else np.zeros(len(users))
    return InteractionDataset(users, items, table["rating"], timestamps, user_ids, item_ids)


def _implicit_rows(ds: InteractionDataset, t: ImplicitThreshold) -> np.ndarray:
    """The rows :func:`to_implicit` keeps, in first-seen order of their pairs.

    Integer keys only: one stable sort of the (user, item) keys groups each
    pair's rows in file order.  The temporaries are gone before
    :func:`to_implicit` allocates its result, so they leave no hole below
    the result in the heap.
    """
    kept = np.flatnonzero(t.passes(ds.ratings))
    n = len(kept)
    pair = ds.users[kept] * ds.n_items + ds.items[kept]
    order = np.argsort(pair, kind="stable")  # each pair's rows, in file order
    starts = np.flatnonzero(np.diff(pair[order], prepend=-1))
    sizes = np.diff(starts, append=n)
    del pair
    # Each pair's earliest timestamp (NaN last, as a sort puts it; -0.0 == 0.0)
    # and the first of its rows holding it; a pair of NaNs keeps its first row.
    timestamps = ds.timestamps[kept[order]]
    low = np.repeat(np.fmin.reduceat(timestamps, starts), sizes)
    earliest = np.minimum.reduceat(np.where(timestamps == low, np.arange(n), n), starts)
    del timestamps, low
    earliest = np.where(earliest < n, earliest, starts)
    # The pairs in first-seen order, O(n): a pair's first row is order[its start].
    pair_of = np.empty(n, dtype=np.int64)
    pair_of[order] = np.repeat(np.arange(len(starts)), sizes)
    is_first = np.zeros(n, dtype=bool)
    is_first[order[starts]] = True
    return kept[order[earliest[pair_of[is_first]]]]


def to_implicit(ds: InteractionDataset, t: ImplicitThreshold) -> InteractionDataset:
    """Binarize a dataset: keep interactions passing ``t``, rating becomes 1.

    Duplicate (user, item) pairs among the survivors collapse to a single
    record at the first occurrence's position, keeping the earliest timestamp
    (the first occurrence of it on equal timestamps).  Indices are rebuilt,
    so users and items with no surviving interactions disappear from the id
    universe.
    """
    rows = _implicit_rows(ds, t)
    users, user_ids = _recode(ds.users[rows], ds.user_ids)
    items, item_ids = _recode(ds.items[rows], ds.item_ids)
    return InteractionDataset(users, items, np.ones(len(rows)), ds.timestamps[rows],
                              user_ids, item_ids)


def stats(ds: InteractionDataset) -> DatasetStats:
    """Counts and derived ratios; averages and sparsity are 0 for an empty dataset."""
    n_u, n_i, n_x = ds.n_users, ds.n_items, ds.n_interactions
    if n_u == 0 or n_i == 0:
        return DatasetStats(n_u, n_i, n_x, 0.0, 0.0, 0.0)
    return DatasetStats(
        n_users=n_u,
        n_items=n_i,
        n_interactions=n_x,
        avg_per_user=n_x / n_u,
        avg_per_item=n_x / n_i,
        sparsity=1.0 - n_x / (n_u * n_i),
    )


def save_interactions(ds: InteractionDataset, path: str | Path) -> Path:
    """Write a dataset as an atomic-format TSV (typed headers, external ids)."""
    columns = [(ds.users, ds.user_ids), (ds.items, ds.item_ids), ds.ratings, ds.timestamps]
    return write_table(path, ATOMIC_HEADER, columns)
