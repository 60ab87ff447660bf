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
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, count, islice, repeat
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
# read_table splits and write_table formats this many lines at a time, which
# bounds their transient memory.
CHUNK_LINES = 4096
# The ASCII characters that int() and float() strip, less the line ends, and "_".
_SPACE_OR_UNDERSCORE = " \t\x0b\x0c\x1c\x1d\x1e\x1f_"


@dataclass(frozen=True, slots=True)
class ImplicitThreshold:
    """Rule for binarizing explicit ratings.

    ``mode`` is ``"gt"`` (keep ratings strictly greater than ``cutoff``) or
    ``"ge"`` (keep ratings greater than or equal to ``cutoff``).  ``passes``
    takes a scalar or a numpy array of ratings.
    """

    cutoff: float
    mode: str

    def __post_init__(self):
        if self.mode not in ("gt", "ge"):
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

    Ids that no row uses leave the universe.
    """
    used, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse], [ids[c] for c in used[order].tolist()]


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
    """
    with Path(path).open(encoding="utf-8") as fh:  # universal newlines: CRLF reads as LF
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: line 1: empty file, header row required")
        spec = header(first.rstrip("\n"))
        n, line = len(spec), 2  # line: the first line of the chunk
        read = [(c, *field) for c, field in enumerate(spec) if field]
        codes = {name: {} for _, name, kind in read if kind is str}
        out = {name: array("d" if kind is float else "q") for _, name, kind in read}
        while lines := list(islice(fh, CHUNK_LINES)):
            seps = list(map(str.count, lines, repeat(sep)))
            text = "".join(lines)
            if seps.count(n - 1) != len(lines) or '"' in text:
                j = next(j for j, s in enumerate(seps) if s != n - 1 or '"' in lines[j])
                raise RowParseError(path, line + j, f"{seps[j] + 1} fields, want {n}"
                                    if seps[j] != n - 1 else 'a ": fields are not csv-quoted')
            fields = text.replace("\n", sep).split(sep)
            plain = _plain(text, sep)
            for c, name, kind in read:
                column = fields[c : n * len(lines) : n]
                if kind is str:
                    ids = codes[name]
                    fresh = [x for x in dict.fromkeys(column) if x not in ids]
                    ids.update(zip(fresh, count(len(ids))))
                    out[name].extend(map(ids.__getitem__, column))
                    continue
                # A number is written in full: kind() alone would take "+9", " 9" and "9_0".
                # The chunk holds ids too, so a chunk that is not plain needs a closer look.
                parse = kind if plain or _plain("|".join(column), "|") else partial(_strict, kind)
                try:
                    out[name].extend(map(parse, column))
                except (ValueError, OverflowError):  # extend stops at the bad field
                    at = len(out[name]) + 2
                    raise RowParseError(path, at, f"bad {name} {column[at - line]!r}") from None
            line += len(lines)

    table = {name: np.asarray(out[name]) for _, name, _ in read}  # no copy
    for name, values in table.items():
        if values.dtype == np.float64:
            check_rows(path, ~np.isfinite(values), lambda t: f"non-finite {name} {values[t]}")
    table.update((name, (table[name], list(ids))) for name, ids in codes.items())
    return table


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
    timestamp column yields timestamp 0.0 for every row.

    Raises ``FileNotFoundError``, ``SchemaError`` for a missing or twice
    mapped column, and the row faults of :func:`read_table`.
    """
    atomic = format == "atomic"
    if not atomic and format != "csv":
        raise ValueError(f"unknown format {format!r} (expected 'atomic' or 'csv')")
    sep = "\t" if atomic else ","
    columns = {**DEFAULT_COLUMNS, **(column_map or {})}

    def header(line: str) -> list:
        pos = {(h.split(":", 1)[0] if atomic else h): c for c, h in enumerate(line.split(sep))}
        spec = [None] * (line.count(sep) + 1)
        for logical, kind in zip(("user", "item", "rating", "timestamp"), (str, str, float, float)):
            c = pos.get(name := columns[logical])
            if c is None and logical != "timestamp":
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


def to_implicit(ds: InteractionDataset, t: ImplicitThreshold) -> InteractionDataset:
    """Binarize a dataset: keep interactions passing ``t``, rating becomes 1.

    Duplicate (user, item) pairs among the survivors collapse to a single
    record at the first occurrence's position, keeping the earliest timestamp
    (the first occurrence of it on equal timestamps).  Indices are rebuilt,
    so users and items with no surviving interactions disappear from the id
    universe.
    """
    kept = np.flatnonzero(t.passes(ds.ratings))
    pair = ds.users[kept] * ds.n_items + ds.items[kept]
    # Stable: each pair's rows in ascending timestamp, then file position.
    order = np.lexsort((ds.timestamps[kept], pair))
    starts = np.flatnonzero(np.diff(pair[order], prepend=-1))
    by_first_seen = np.argsort(np.minimum.reduceat(order, starts))
    rows = kept[order[starts][by_first_seen]]
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
