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
from dataclasses import dataclass
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
# The keys of stats(): three int counts, then three float ratios.
STATS_KEYS = ("n_users", "n_items", "n_interactions", "avg_per_user", "avg_per_item", "sparsity")
# read_table reads this many characters at a time, completed to a line end, and
# write_table formats this many lines at a time, which bounds their transient
# memory: a chunk of text and its fields, not a file's.
CHUNK_CHARS = 1 << 16
CHUNK_LINES = 4096
# read_table codes an id written as a number below this through a table of its
# codes, of at most this many entries; any other id through a dict.
NUMBERED_IDS = 1 << 20
# The ASCII characters that int() and float() strip, less the line ends, and "_".
_SPACE_OR_UNDERSCORE = " \t\x0b\x0c\x1c\x1d\x1e\x1f_"
# 10**1, ..., 10**19: a uint64 m has 1 + (the number of these <= m) decimal digits.
_POWERS = 10 ** np.arange(1, 20, dtype=np.uint64)


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
    in chunks completed to a line end.  So the file must be seekable, and a
    file that changes between the passes is a ``SchemaError``.  ``sep`` is
    one ASCII character.  numpy checks a chunk's field counts on its UTF-8
    bytes, and finds each field's bounds from the separators and line ends,
    so no Python object is made per line; a chunk is split into lines only
    to name a faulty one.  Per chunk and column:

    * a number column whose fields are all 1 to 15 ASCII digits is parsed
      from the chunk's bytes by :func:`_digit_fields`: such a field is
      plain, finite and exact in float64;
    * any other number column, such as one holding a sign, a point, an
      exponent or a fault, falls back to numpy's ``kind()`` parse of the
      column's fields, after the plain-field check, which names the first
      faulty line;
    * an id column whose fields are all such digits, below ``NUMBERED_IDS``
      and with no leading 0, is coded by a numpy gather from number to
      code, which :meth:`_Codes.numbered` fills in first-appearance order;
    * any other id column is coded by a dict, one lookup per field.

    The chunk is split into fields only for a column off these paths, so a
    table of integers or of numbered ids, such as a matrix file or the
    interaction files of the benchmark, is never split.
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
            stops = np.flatnonzero(raw == ord(sep))
            seps = np.searchsorted(stops, ends)
            rows = len(ends)
            if line - 2 + rows > total:
                raise SchemaError(f"{path}: the file changed while it was read")
            if '"' in text or np.any(seps != (n - 1) * np.arange(1, rows + 1)):
                _row_fault(path, line, text, sep, n)
            # Field c of row r is raw[lo:hi]: it starts after the row's separator
            # c - 1, or the line end before the row, and ends at its separator c,
            # or its line end.
            stops = stops.reshape(rows, n - 1)
            fields = None  # split only for an id column or a number column off the digit path
            at = slice(line - 2, line - 2 + rows)
            for c, name, kind in read:
                lo = stops[:, c - 1] + 1 if c else np.concatenate(([0], ends[:-1] + 1))
                hi = stops[:, c] if c < n - 1 else ends
                values = _digit_fields(raw, lo, hi)
                if values is not None and kind is str:
                    values = codes[name].numbered(values, raw, lo, hi)
                if values is not None:
                    table[name][at] = values
                    continue
                if fields is None:
                    fields = text.replace("\n", sep).split(sep)
                    plain = _plain(text, sep)
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
    """Id -> dense code, in first-appearance order: an unseen id takes the next code.

    ``by_number[v]`` is the code of the id ``str(v)``, or -1 where it is not
    filled in yet: :meth:`numbered` fills it from the dict, so an id has one
    code whichever way a chunk codes it.
    """

    def __init__(self):
        super().__init__()
        self.by_number = np.empty(0, np.int64)

    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code

    def numbered(self, values: np.ndarray, raw: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray | None:
        """The codes of the ids ``raw[lo:hi]``, the digit fields of the
        numbers ``values``, or ``None`` unless each is below
        ``NUMBERED_IDS`` and has no leading 0, so that it is ``str`` of its
        value."""
        top = int(values.max())
        if top >= NUMBERED_IDS or ((raw[lo] == ord("0")) & (hi - lo > 1)).any():
            return None
        if top >= len(self.by_number):
            grown = np.full(min(max(top + 1, 2 * len(self.by_number)), NUMBERED_IDS), -1, np.int64)
            grown[: len(self.by_number)] = self.by_number
            self.by_number = grown
        unseen = np.flatnonzero(self.by_number[values] < 0)
        _, first = np.unique(values[unseen], return_index=True)
        for t in unseen[np.sort(first)].tolist():  # in first-appearance order
            self.by_number[values[t]] = self[raw[lo[t] : hi[t]].tobytes().decode()]
        return self.by_number[values]


def _row_fault(path, line: int, text: str, sep: str, n: int):
    """Raise ``RowParseError`` at the first line of ``text``, which starts at
    line ``line``, that holds a ``"`` or not ``n`` fields."""
    for j, row in enumerate(text.split("\n"), start=line):
        if (seps := row.count(sep)) != n - 1:
            raise RowParseError(path, j, f"{seps + 1} fields, want {n}")
        if '"' in row:
            raise RowParseError(path, j, 'a ": fields are not csv-quoted')


def _digit_fields(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The int64 values of the fields ``raw[lo:hi]`` if each is 1 to 15 ASCII
    digits, else ``None``.

    The fields are read right-aligned, one digit position of all of them at a
    time, from the widest field's first: each value is multiplied by ten and
    its field's digit there added, a byte before a field's start counting as
    0.  So a leading 0 adds nothing, as ``int`` and ``float`` read it, and 15
    digits stay below 2**53, so the values are exact as float64 too.  Each
    step's arrays hold one entry per field, not one per byte.
    """
    sizes = hi - lo
    if sizes.min() < 1 or (width := int(sizes.max())) > 15:
        return None
    values = np.zeros(len(hi), np.int64)
    for back in range(width, 0, -1):
        at = hi - back
        digit = raw[np.maximum(at, 0)] - np.uint8(48)  # a byte that is no digit wraps above 9
        digit[at < lo] = 0
        if (digit > 9).any():
            return None
        values *= 10
        values += digit
    return values


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
    can make its rows a block at a time.  Lines end in LF and the file is
    UTF-8.  Creates the file's directory.  Raises ``SchemaError``, naming the
    path and the id, for an id holding a tab, which would read back as two
    fields.  A write that raises removes its file.

    Rows are rendered ``CHUNK_LINES`` at a time into one byte buffer by
    numpy, so no Python object is made per field:

    * an id column is gathered from its ids' UTF-8 bytes, encoded once per
      write into one buffer;
    * an integer column is written in full, its digits by repeated division
      by 10 of its magnitude as uint64, so int64's minimum is exact;
    * a float chunk whose values are all integral, below 2**53 in magnitude
      and not -0.0 is written as those integers, the text ``"{:.17g}"``
      gives them.

    A chunk with any other float, such as a dump's scores, falls back to
    one string per field, floats by ``"{:.17g}"``: 17 significant digits,
    which round-trip every double.  Such floats are long, and the int64
    byte indices of a copy into the buffer would take eight times their
    text: in the step-by-step chain, those raised the next steps' peak RSS.
    """
    path = Path(path)
    blocks = iter([columns] if isinstance(columns, list) else columns)
    as_pairs = lambda block: [c if isinstance(c, tuple) else (c, None) for c in block]  # noqa: E731
    pairs = as_pairs(next(blocks))
    for _, ids in pairs:
        tabbed = [x for x in ids or () if "\t" in x]
        if tabbed:
            raise SchemaError(f"{path}: id {tabbed[0]!r} holds a tab, the field separator")
    packed = [None if ids is None else _packed(ids) for _, ids in pairs]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        try:
            fh.write(header.encode("utf-8") + b"\n")
            for pairs in chain([pairs], map(as_pairs, blocks)):
                for lo in range(0, len(pairs[0][0]), CHUNK_LINES):
                    fh.write(_lines([(values[lo : lo + CHUNK_LINES], ids) for values, ids in pairs],
                                    packed))
        except BaseException:
            path.unlink()
            raise
    return path


def _packed(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``texts`` as one UTF-8 byte buffer, and each text's start and length in it."""
    joined = "".join(texts)
    flat = joined.encode("utf-8")
    sizes = map(len, texts if len(flat) == len(joined) else (x.encode("utf-8") for x in texts))
    lengths = np.fromiter(sizes, np.int64, len(texts))
    return np.frombuffer(flat, np.uint8), np.cumsum(lengths) - lengths, lengths


def _lines(columns: list[tuple], packed: list) -> bytes | np.ndarray:
    """The bytes of the rows of ``columns``, (values, ids) per column as
    :func:`write_table` takes them, tab-separated and LF-ended.

    ``packed`` holds, per column, ``None`` for a number column, or the id
    column's :func:`_packed` ids.
    """
    if not all(ids is not None or _integral(values) for values, ids in columns):
        text = [ids.__getitem__ if ids is not None else "{:.17g}".format
                if values.dtype.kind == "f" else str for values, ids in columns]
        fields = [map(f, values.tolist()) for (values, _), f in zip(columns, text)]
        return ("\n".join(map("\t".join, zip(*fields))) + "\n").encode("utf-8")
    fields = [_field(values, ids) for (values, _), ids in zip(columns, packed)]
    line = sum(lengths for lengths, _ in fields) + len(fields)  # each field, then a tab or LF
    ends = np.cumsum(line)
    buf = np.full(ends[-1], ord("\t"), np.uint8)
    buf[ends - 1] = ord("\n")
    at = ends - line
    for lengths, fill in fields:
        fill(buf, at)
        at = at + lengths + 1
    return buf


def _integral(values: np.ndarray) -> bool:
    """Whether a number column's ``"{:.17g}"`` or ``str`` text is that of its
    values as int64: every float is integral, below 2**53 in magnitude and
    not -0.0."""
    if values.dtype.kind != "f":
        return True
    integral = (np.trunc(values) == values) & (np.abs(values) < 2.0**53)
    return bool((integral & ~(np.signbit(values) & (values == 0))).all())


def _field(values: np.ndarray, ids: tuple | None) -> tuple[np.ndarray, Callable]:
    """A column's text in a chunk: each field's byte length, and a function
    that writes the fields into a buffer at the given starts.  A float
    column is :func:`_integral`."""
    if ids is not None:
        flat, starts, lengths = ids
        return lengths[values], partial(_copy, flat, starts[values], lengths[values])
    if values.dtype.kind == "f":
        values = values.astype(np.int64)
    negative = values < 0
    u = values.astype(np.uint64)  # a negative value wraps to 2**64 + value
    magnitude = np.where(negative, ~u + np.uint64(1), u)
    lengths = negative + 1
    for power in _POWERS[_POWERS <= magnitude.max()]:
        lengths += magnitude >= power

    def fill(buf: np.ndarray, at: np.ndarray):
        buf[at[negative]] = ord("-")
        m, end = magnitude, at + lengths - 1
        while len(m):  # the last digit of each number with digits left
            q = m // np.uint64(10)
            buf[end] = (m - q * np.uint64(10)).astype(np.uint8) + np.uint8(48)
            left = np.flatnonzero(q)
            m, end = q[left], end[left] - 1

    return lengths, fill


def _copy(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray, buf: np.ndarray,
          at: np.ndarray):
    """Copy the byte strings ``flat[starts:starts + lengths]`` into ``buf`` at ``at``."""
    within = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    buf[np.repeat(at, lengths) + within] = flat[np.repeat(starts, lengths) + within]


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


def stats(ds: InteractionDataset) -> dict:
    """:func:`stats_of` of the dataset's counts, as ``report.json`` stores them."""
    return stats_of(ds.n_users, ds.n_items, ds.n_interactions)


def stats_of(n_u: int, n_i: int, n_x: int) -> dict:
    """The counts and their derived ratios, keyed by ``STATS_KEYS``; averages
    and sparsity are 0 without users or items."""
    ratios = (n_x / n_u, n_x / n_i, 1.0 - n_x / (n_u * n_i)) if n_u and n_i else (0.0,) * 3
    return dict(zip(STATS_KEYS, (n_u, n_i, n_x, *ratios)))


def save_interactions(ds: InteractionDataset, path: str | Path) -> Path:
    """Write a dataset as an atomic-format TSV (typed headers, external ids)."""
    columns = [(ds.users, ds.user_ids), (ds.items, ds.item_ids), ds.ratings, ds.timestamps]
    return write_table(path, ATOMIC_HEADER, columns)
