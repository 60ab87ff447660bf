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

import csv
import math
from array import array
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import RowParseError, SchemaError

DEFAULT_COLUMNS = {
    "user": "user_id",
    "item": "item_id",
    "rating": "rating",
    "timestamp": "timestamp",
}

ATOMIC_HEADER = "user_id:token\titem_id:token\trating:float\ttimestamp:float"


class Interaction(NamedTuple):
    """One input row for :meth:`InteractionDataset.from_interactions`."""

    user: str
    item: str
    rating: float
    timestamp: float = 0.0


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

    @classmethod
    def from_interactions(cls, interactions: Iterable[Interaction]) -> "InteractionDataset":
        """Build a dataset from (user, item, rating, timestamp) rows.

        Dense codes are assigned in first-appearance order.
        """
        user_codes: dict[str, int] = {}
        item_codes: dict[str, int] = {}
        users, items, ratings, timestamps = array("q"), array("q"), array("d"), array("d")
        for user, item, rating, timestamp in interactions:
            users.append(user_codes.setdefault(user, len(user_codes)))
            items.append(item_codes.setdefault(item, len(item_codes)))
            ratings.append(rating)
            timestamps.append(timestamp)
        columns = map(np.asarray, (users, items, ratings, timestamps))  # no copy
        return cls(*columns, list(user_codes), list(item_codes))

    @classmethod
    def concat(cls, parts: Iterable["InteractionDataset"]) -> "InteractionDataset":
        """The rows of ``parts`` in order, codes rebuilt in first-appearance order.

        Ids that are equal by value share one code, and ids that no row uses
        leave the universe.
        """
        parts = list(parts)
        users, user_ids = _recode([p.users for p in parts], [p.user_ids for p in parts])
        items, item_ids = _recode([p.items for p in parts], [p.item_ids for p in parts])
        ratings = np.concatenate([p.ratings for p in parts])
        timestamps = np.concatenate([p.timestamps for p in parts])
        return cls(users, items, ratings, timestamps, user_ids, item_ids)

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


def _recode(codes: list[np.ndarray], ids: list[list[str]]) -> tuple[np.ndarray, list[str]]:
    """Concatenate code columns, each indexing its own id list, and renumber
    the result densely in first-appearance order; equal ids share a code."""
    canon: dict[str, int] = {}
    to_canon = [
        np.array([canon.setdefault(x, len(canon)) for x in part], dtype=np.int64)
        for part in ids
    ]
    merged = np.concatenate([m[c] for m, c in zip(to_canon, codes)])
    names = list(canon)
    used, first, inverse = np.unique(merged, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse], [names[c] for c in used[order]]


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


def _number(row: list[str], col: int, name: str, line_no: int) -> float:
    try:
        value = float(row[col])
    except (ValueError, IndexError) as e:
        raise RowParseError(line_no, f"bad {name} field: {e}") from None
    if not math.isfinite(value):
        raise RowParseError(line_no, f"non-finite {name} {row[col]!r}")
    return value


def _parse_rows(reader, u_col: int, i_col: int, r_col: int, t_col: int | None) -> Iterator[tuple]:
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) <= max(u_col, i_col):
            raise RowParseError(line_no, f"{len(row)} fields, no user or item field")
        rating = _number(row, r_col, "rating", line_no)
        timestamp = 0.0 if t_col is None else _number(row, t_col, "timestamp", line_no)
        yield row[u_col], row[i_col], rating, timestamp


def load_interactions(
    path: str | Path,
    format: str = "atomic",
    column_map: Mapping[str, str] | None = None,
) -> InteractionDataset:
    """Load an interaction file into a dataset.

    ``format`` is ``"atomic"`` (alias ``"atomic-tsv"``) or ``"csv"``.
    ``column_map`` maps the logical fields ``user``, ``item``, ``rating``,
    ``timestamp`` to actual column names; unmapped fields use the defaults
    (``user_id``, ``item_id``, ``rating``, ``timestamp``).  A missing
    timestamp column yields timestamp 0.0 for every row.

    Raises ``FileNotFoundError``, ``SchemaError`` for missing mapped columns,
    and ``RowParseError`` (with the 1-based file line number) for rows that
    lack the user or item field, or whose rating or timestamp does not parse
    as a finite number.
    """
    atomic = format in ("atomic", "atomic-tsv")
    if not atomic and format != "csv":
        raise ValueError(f"unknown format {format!r} (expected 'atomic' or 'csv')")

    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        columns.update(column_map)

    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t" if atomic else ",")
        try:
            raw_header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        header = [h.split(":", 1)[0] if atomic else h for h in raw_header]
        pos = {name: i for i, name in enumerate(header)}

        for logical in ("user", "item", "rating"):
            if columns[logical] not in pos:
                raise SchemaError(
                    f"{path}: missing column {columns[logical]!r} (for {logical!r})"
                )
        return InteractionDataset.from_interactions(_parse_rows(
            reader,
            pos[columns["user"]],
            pos[columns["item"]],
            pos[columns["rating"]],
            pos.get(columns["timestamp"]),
        ))


def to_implicit(ds: InteractionDataset, t: ImplicitThreshold) -> InteractionDataset:
    """Binarize a dataset: keep interactions passing ``t``, rating becomes 1.

    Duplicate (user, item) pairs among the survivors collapse to a single
    record at the first occurrence's position, keeping the earliest timestamp
    (the first occurrence of it on equal timestamps).  Indices are rebuilt,
    so users and items with no surviving interactions disappear from the id
    universe.
    """
    kept = ds.take(np.flatnonzero(t.passes(ds.ratings)))
    pair = kept.users * kept.n_items + kept.items
    # Stable: each pair's rows in ascending timestamp, then file position.
    order = np.lexsort((kept.timestamps, pair))
    starts = np.flatnonzero(np.diff(pair[order], prepend=-1))
    by_first_seen = np.argsort(np.minimum.reduceat(order, starts))
    out = kept.take(order[starts][by_first_seen])
    return InteractionDataset.concat([replace(out, ratings=np.ones(out.n_interactions))])


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
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(ATOMIC_HEADER + "\n")
        # tolist() gives Python floats, whose repr is the shortest round trip.
        fh.writelines(map(
            "{}\t{}\t{!r}\t{!r}\n".format,
            (ds.user_ids[u] for u in ds.users.tolist()),
            (ds.item_ids[i] for i in ds.items.tolist()),
            ds.ratings.tolist(),
            ds.timestamps.tolist(),
        ))
    return path
