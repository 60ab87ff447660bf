"""Interaction data loading, implicit-feedback conversion, and dataset statistics.

Input files are UTF-8 text with a header row.  Two layouts are supported:

* ``atomic``: tab-separated, headers carry type suffixes (``user_id:token``,
  ``rating:float``, ...) which are stripped to base names before the column
  map is applied.
* ``csv``: comma-separated, plain headers.

Datasets are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import RowParseError, SchemaError

DEFAULT_COLUMNS = {
    "user": "user_id",
    "item": "item_id",
    "rating": "rating",
    "timestamp": "timestamp",
}

ATOMIC_HEADER = "user_id:token\titem_id:token\trating:float\ttimestamp:float"


@dataclass(frozen=True, slots=True)
class Interaction:
    """One user-item event with the dataset-native rating scale."""

    user: str
    item: str
    rating: float
    timestamp: float = 0.0


@dataclass(frozen=True, slots=True)
class ImplicitThreshold:
    """Rule for binarizing explicit ratings.

    ``mode`` is ``"gt"`` (keep ratings strictly greater than ``cutoff``) or
    ``"ge"`` (keep ratings greater than or equal to ``cutoff``).
    """

    cutoff: float
    mode: str

    def __post_init__(self):
        if self.mode not in ("gt", "ge"):
            raise ValueError(f"threshold mode must be 'gt' or 'ge', got {self.mode!r}")

    def passes(self, rating: float) -> bool:
        if self.mode == "gt":
            return rating > self.cutoff
        return rating >= self.cutoff


class IdIndex:
    """Bijection between external string ids and dense integers [0, n)."""

    __slots__ = ("_to_dense", "_to_ext")

    def __init__(self, ids: Iterable[str] = ()):
        self._to_dense: dict[str, int] = {}
        self._to_ext: list[str] = []
        for ext in ids:
            self.add(ext)

    def add(self, ext: str) -> int:
        """Return the dense index for ``ext``, inserting it if new."""
        dense = self._to_dense.get(ext)
        if dense is None:
            dense = len(self._to_ext)
            self._to_dense[ext] = dense
            self._to_ext.append(ext)
        return dense

    def dense(self, ext: str) -> int:
        return self._to_dense[ext]

    def ext(self, dense: int) -> str:
        return self._to_ext[dense]

    def __contains__(self, ext: str) -> bool:
        return ext in self._to_dense

    def __len__(self) -> int:
        return len(self._to_ext)

    def __eq__(self, other) -> bool:
        return isinstance(other, IdIndex) and self._to_ext == other._to_ext

    def __repr__(self) -> str:
        return f"IdIndex({len(self)} ids)"


@dataclass(frozen=True)
class InteractionDataset:
    """Ordered interactions plus dense index maps for users and items.

    The index maps define the id universe; train/test partitions derived from
    a dataset share its maps so dense indices stay comparable downstream.
    """

    interactions: list[Interaction]
    user_index: IdIndex
    item_index: IdIndex

    @classmethod
    def from_interactions(cls, interactions: Iterable[Interaction]) -> "InteractionDataset":
        """Build a dataset with indices assigned in first-appearance order."""
        rows = list(interactions)
        users = IdIndex()
        items = IdIndex()
        for r in rows:
            users.add(r.user)
            items.add(r.item)
        return cls(rows, users, items)

    @property
    def n_users(self) -> int:
        return len(self.user_index)

    @property
    def n_items(self) -> int:
        return len(self.item_index)

    @property
    def n_interactions(self) -> int:
        return len(self.interactions)

    def is_implicit(self) -> bool:
        return all(r.rating == 1.0 for r in self.interactions)

    def pair_set(self) -> set[tuple[str, str]]:
        return {(r.user, r.item) for r in self.interactions}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InteractionDataset)
            and self.interactions == other.interactions
            and self.user_index == other.user_index
            and self.item_index == other.item_index
        )


@dataclass(frozen=True, slots=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    avg_per_user: float
    avg_per_item: float
    sparsity: float

    def as_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "n_interactions": self.n_interactions,
            "avg_per_user": self.avg_per_user,
            "avg_per_item": self.avg_per_item,
            "sparsity": self.sparsity,
        }


def _strip_type_suffix(name: str) -> str:
    return name.split(":", 1)[0]


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
    and ``RowParseError`` (with the 1-based file line number) for rows whose
    rating or timestamp does not parse as a finite number.
    """
    if format in ("atomic", "atomic-tsv"):
        delimiter = "\t"
        atomic = True
    elif format == "csv":
        delimiter = ","
        atomic = False
    else:
        raise ValueError(f"unknown format {format!r} (expected 'atomic' or 'csv')")

    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        columns.update(column_map)

    path = Path(path)
    interactions: list[Interaction] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            raw_header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        header = [_strip_type_suffix(h) if atomic else h for h in raw_header]
        pos = {name: i for i, name in enumerate(header)}

        for logical in ("user", "item", "rating"):
            if columns[logical] not in pos:
                raise SchemaError(
                    f"{path}: missing column {columns[logical]!r} (for {logical!r})"
                )
        u_col = pos[columns["user"]]
        i_col = pos[columns["item"]]
        r_col = pos[columns["rating"]]
        t_col = pos.get(columns["timestamp"])

        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rating = float(row[r_col])
            except (ValueError, IndexError) as e:
                raise RowParseError(line_no, f"bad rating field: {e}") from None
            if not math.isfinite(rating):
                raise RowParseError(line_no, f"non-finite rating {row[r_col]!r}")
            timestamp = 0.0
            if t_col is not None:
                try:
                    timestamp = float(row[t_col])
                except (ValueError, IndexError) as e:
                    raise RowParseError(line_no, f"bad timestamp field: {e}") from None
                if not math.isfinite(timestamp):
                    raise RowParseError(line_no, f"non-finite timestamp {row[t_col]!r}")
            interactions.append(Interaction(row[u_col], row[i_col], rating, timestamp))

    return InteractionDataset.from_interactions(interactions)


def to_implicit(ds: InteractionDataset, t: ImplicitThreshold) -> InteractionDataset:
    """Binarize a dataset: keep interactions passing ``t``, rating becomes 1.

    Duplicate (user, item) pairs among the survivors collapse to a single
    record at the first occurrence's position, keeping the earliest timestamp.
    Indices are rebuilt, so users and items with no surviving interactions
    disappear from the id universe.
    """
    kept: list[Interaction] = []
    seen: dict[tuple[str, str], int] = {}
    for r in ds.interactions:
        if not t.passes(r.rating):
            continue
        key = (r.user, r.item)
        at = seen.get(key)
        if at is None:
            seen[key] = len(kept)
            kept.append(Interaction(r.user, r.item, 1.0, r.timestamp))
        elif r.timestamp < kept[at].timestamp:
            kept[at] = Interaction(r.user, r.item, 1.0, r.timestamp)
    return InteractionDataset.from_interactions(kept)


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
        for r in ds.interactions:
            fh.write(f"{r.user}\t{r.item}\t{r.rating!r}\t{r.timestamp!r}\n")
    return path
