"""User-item matrix assembly and item-item cosine similarity, sparse, two strategies.

On binary (implicit) data the cosine of items i and j reduces to
``c_ij / sqrt(n_i * n_j)``, with c_ij = |U_i ∩ U_j| the co-occurrence count,
n_i = |U_i| the number of users of item i, and U_x the set of users who
interacted with item x.  Co-occurrence counts are float64 sums of ones, exact
below 2**53, so the matrix is bit-deterministic regardless of threading.
:func:`cosine_in_place` is the one code that turns counts into cosines:
:func:`cosine_similarity` calls it on the counts of a fresh product, and
:func:`load_similarity` on the counts of a matrix file.

Storage is row-oriented CSR: row i holds the neighbors of candidate item i,
and scoring reads row i.  The diagonal is dropped before any truncation, so
an item never supports its own score, and exact zeros are never stored.

Matrix files hold what the cosine is computed from, as integers: each
item's n_i, then the c_ij of the stored entries (the upper triangle of a
full matrix), under a header that names the train file's item ids by
digest.  See :func:`save_similarity`.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, SchemaError
from .ingest import InteractionDataset, check_rows, read_table, write_table

STRATEGY_FULL = "full"
STRATEGY_TOPK = "topk"
# Entries per step of the in-place cosine division and of the matrix-file
# writer; it bounds their temporaries.
COSINE_CHUNK = 2**16


@dataclass
class SimilarityMatrix:
    """Item-item similarities in CSR arrays; rows sorted by column index.

    ``strategy`` is ``"full"`` (symmetric, every nonzero cosine stored) when
    ``k`` is None, else ``"topk"`` (row i holds only the first k entries of
    the full row i in :func:`neighbour_orders`); ``n_items`` is the row
    count of ``indptr``.  In the package only :func:`cosine_similarity` and
    :func:`load_similarity`, which mirrors a file's upper triangle, build a
    ``"full"`` matrix, so a full matrix is exactly its own transpose.

    ``n_i`` is the number of users of each item (float64; 0 for an item
    without users): the cosine's own input, which :func:`save_similarity`
    writes.  A matrix assembled from values alone has none and cannot be
    saved.

    ``cols`` and ``indptr`` share one index dtype, :func:`index_dtype` of
    the entry count: int32 below 2**31 entries.

    Scoring reads columns, through :meth:`csc`.  A full matrix is its own
    transpose, so its CSC view reinterprets the CSR arrays in place and
    copies none of them; a top-k matrix is converted once.  The per-row
    neighbour priorities that profile-topk selects by (:meth:`priorities`)
    are built on first use.  Both are cached on the matrix itself, so they
    live exactly as long as it does.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    k: int | None = None
    n_i: np.ndarray | None = field(default=None, repr=False, compare=False)
    _csc: sp.csc_matrix | None = field(default=None, repr=False, compare=False)
    _priorities: sp.csc_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def n_items(self) -> int:
        return len(self.indptr) - 1

    @property
    def strategy(self) -> str:
        return STRATEGY_FULL if self.k is None else STRATEGY_TOPK

    @property
    def nnz(self) -> int:
        return len(self.cols)

    def csc(self) -> sp.csc_matrix:
        """Cached scipy CSC form for fast column gathering during scoring.

        For a full matrix its ``data``, ``indices`` and ``indptr`` are
        ``vals``, ``cols`` and ``indptr`` themselves, shared, not copied.
        """
        if self._csc is None:
            shape = (self.n_items, self.n_items)
            if self.strategy == STRATEGY_FULL:
                # S == S.T: the CSR arrays of S are the CSC arrays of S.
                self._csc = sp.csc_matrix((self.vals, self.cols, self.indptr), shape=shape)
            else:
                self._csc = sp.csr_matrix((self.vals, self.cols, self.indptr), shape=shape).tocsc()
        return self._csc

    def priorities(self) -> sp.csc_matrix:
        """Cached per-row neighbour priorities, laid out like :meth:`csc`.

        Entry (i, j) is ``nnz_i - r``, with r the rank of j in row i's
        :func:`neighbour_orders`: unique within a row, larger is better, at
        least 1 for a stored entry, so an unstored cell (0) ranks below every
        stored one.  The dtype is the smallest unsigned one that holds
        ``n_items`` (uint16 up to 65535 items), and ``indices``/``indptr`` are
        those of :meth:`csc`, shared, not copied.
        """
        if self._priorities is None:
            shape = (self.n_items, self.n_items)
            ranked = np.empty(self.nnz, dtype=np.min_scalar_type(self.n_items))
            descending = np.arange(self.n_items, 0, -1, dtype=ranked.dtype)
            for row, order in neighbour_orders(self):
                ranked[row][order] = descending[self.n_items - len(order) :]  # nnz_i, ..., 1
            by_col = sp.csr_matrix((ranked, self.cols, self.indptr), shape=shape).tocsc()
            values = self.csc()
            if not (
                np.array_equal(by_col.indptr, values.indptr)
                and np.array_equal(by_col.indices, values.indices)
            ):
                raise ContractError("a full matrix must be symmetric")
            self._priorities = sp.csc_matrix(
                (by_col.data, values.indices, values.indptr), shape=shape
            )
        return self._priorities


def first_k(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the first k entries of ``values`` in (-value, position) order.

    Larger values come first, and among equal values the smaller position;
    the positions come back in that order, ``min(k, len(values))`` of them
    (k >= 0).  Matrix rows rank their neighbours by it; top-N lists rank
    their candidates in the same order through ``recommend._rank``.
    When k is below the length, ``np.partition`` finds the k-th largest
    value and only the entries at or above it, ties included, are sorted;
    the sort is stable, so equal values keep ascending position.
    """
    if 0 < k < len(values):
        kth = np.partition(values, len(values) - k)[len(values) - k]
        (positions,) = np.nonzero(values >= kth)
    else:
        positions = np.arange(len(values))
    return positions[np.argsort(-values[positions], kind="stable")][:k]


def neighbour_orders(
    s: SimilarityMatrix, k: int | None = None
) -> Iterator[tuple[slice, np.ndarray]]:
    """Each row's stored entries, best neighbour first: the one neighbour order.

    Row i's neighbours are ranked by (-value, j): larger similarity first,
    and among equal values the smaller column index j first.  Yields, row
    by row, row i's slice of ``s.cols``/``s.vals`` and :func:`first_k` of
    that slice's values: the positions within the slice of its first k
    entries in this order, or of all of them when k is None.  Rows are
    stored in ascending j, so position order is j order.  Top-k truncation
    keeps the first k of each row's order, and profile-topk's priorities are
    ranks in the whole order.
    """
    indptr = s.indptr.tolist()
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        yield slice(lo, hi), first_k(s.vals[lo:hi], hi - lo if k is None else k)


def build_matrix(train: InteractionDataset) -> sp.csr_matrix:
    """The binary users x items matrix of a train dataset, int64 ones as data.

    Row u lists user u's items in ascending item index.  Ratings are ignored
    (upstream guarantees implicit data and no duplicate pairs), only presence
    counts.
    """
    return sp.csr_matrix(
        (np.ones(train.n_interactions, dtype=np.int64), (train.users, train.items)),
        shape=(train.n_users, train.n_items),
    )


def index_dtype(nnz: int) -> type:
    """The ``cols``/``indptr`` dtype of ``nnz`` entries, as scipy picks it: int32 below 2**31."""
    return np.int32 if nnz < 2**31 else np.int64


def _chunks(indptr: np.ndarray, nnz: int) -> Iterator[tuple[slice, np.ndarray]]:
    """``COSINE_CHUNK`` entries at a time: their slice and each entry's row id.

    A chunk's row ids are read off ``indptr`` by repeating each row id once
    per entry of that row inside the chunk, with no search.
    """
    rows = np.arange(len(indptr) - 1)
    for lo in range(0, nnz, COSINE_CHUNK):
        hi = min(lo + COSINE_CHUNK, nnz)
        yield slice(lo, hi), np.repeat(rows, np.diff(np.clip(indptr, lo, hi)))


def _divide(c: np.ndarray, rows: np.ndarray, cols: np.ndarray, n_i: np.ndarray) -> None:
    """Entries (rows, cols) holding counts c become cosines, in place: the one formula."""
    c /= np.sqrt(n_i[rows] * n_i[cols])
    c[cols == rows] = 0.0


def cosine_in_place(vals: np.ndarray, cols: np.ndarray, indptr: np.ndarray,
                    n_i: np.ndarray) -> None:
    """Turn the float64 co-occurrence counts of CSR arrays into cosines, in place.

    Entry (i, j) holding c_ij becomes ``c_ij / sqrt(n_i * n_j)``, and a
    diagonal entry becomes 0.0.  It works ``COSINE_CHUNK`` entries at a time,
    so no full-length temporary is held beside the arrays.
    """
    for at, rows in _chunks(indptr, len(vals)):
        _divide(vals[at], rows, cols[at], n_i)


def cosine_similarity(b: sp.csr_matrix) -> SimilarityMatrix:
    """Full-strategy cosine matrix: symmetric, zero diagonal, zeros unstored.

    The co-occurrence counts are the product of a float64-ones copy of ``b``
    with its transpose; its diagonal is ``n_i``.  :func:`cosine_in_place`
    turns the product's own arrays into cosines, and zeroes the diagonal,
    which is then dropped with the zeros; an item without users has no
    diagonal entry at all.
    """
    if b.shape[1] < 1:
        raise ContractError("cosine_similarity requires at least one item")

    ones = sp.csr_matrix((np.ones(b.nnz), b.indices, b.indptr), shape=b.shape)
    cooc = (ones.T @ ones).tocsr()
    n_i = cooc.diagonal()
    cosine_in_place(cooc.data, cooc.indices, cooc.indptr, n_i)
    cooc.eliminate_zeros()
    cooc.sort_indices()

    return SimilarityMatrix(indptr=cooc.indptr, cols=cooc.indices, vals=cooc.data, n_i=n_i)


def truncate_topk(s: SimilarityMatrix, k: int) -> SimilarityMatrix:
    """Keep the first k entries of each row's :func:`neighbour_orders`.

    Values are unchanged, the kept set is unique, and rows stay in ascending
    column order.  Each row is ranked only as far as :func:`first_k` needs:
    a partition finds its k-th largest value, and only the entries at or
    above it are sorted, so no row longer than k is fully sorted.
    Truncation nests: the top k' of a top-k matrix equals the top k' of the
    full matrix whenever k' <= k, so re-truncating at the same or a smaller
    k is allowed (and idempotent); a larger k is refused because the
    discarded entries are gone.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if s.k is not None and k > s.k:
        raise ContractError(
            f"cannot re-truncate a top-{s.k} matrix at k={k}: entries beyond "
            f"the stored k are no longer available"
        )

    keep = np.zeros(s.nnz, dtype=bool)
    for row, order in neighbour_orders(s, k):
        keep[row][order] = True
    lengths = np.minimum(np.diff(s.indptr), k)
    dtype = index_dtype(int(lengths.sum()))
    indptr = np.zeros(s.n_items + 1, dtype=dtype)
    np.cumsum(lengths, out=indptr[1:])
    return SimilarityMatrix(
        indptr=indptr,
        cols=s.cols[keep].astype(dtype, copy=False),
        vals=s.vals[keep],
        k=k,
        n_i=s.n_i,
    )


def item_digest(item_ids: list[str]) -> str:
    """The sha256 of item ids in code order, joined by newlines, as UTF-8: hex."""
    return hashlib.sha256("\n".join(item_ids).encode("utf-8")).hexdigest()


def _count_blocks(s: SimilarityMatrix) -> Iterator[list[np.ndarray]]:
    """The rows of a matrix file as integer columns: ``(i, i, n_i)``, then
    ``(i, j, c_ij)`` in chunks.

    Each chunk recovers its counts as ``rint(v * sqrt(n_i * n_j))`` and
    divides them back with the cosine's own :func:`_divide`; a value that
    does not come back bit for bit, or whose count is not in
    ``[1, min(n_i, n_j)]``, is no cosine of counts, and is refused.
    """
    users = np.flatnonzero(s.n_i)
    yield [users, users, s.n_i[users].astype(np.int64)]
    for at, rows in _chunks(s.indptr, s.nnz):
        cols, vals = s.cols[at], s.vals[at]
        counts = np.rint(vals * np.sqrt(s.n_i[rows] * s.n_i[cols]))
        back = counts.copy()
        _divide(back, rows, cols, s.n_i)
        bad = (back != vals) | (counts < 1) | (counts > np.minimum(s.n_i[rows], s.n_i[cols]))
        if bad.any():
            t = int(np.argmax(bad))
            raise ContractError(
                f"entry ({rows[t]}, {cols[t]}) = {vals[t]!r} is no count 1 <= c <= min(n_i, n_j) "
                f"over sqrt(n_i * n_j), with n_i = {s.n_i[rows[t]]:g}, n_j = {s.n_i[cols[t]]:g}"
            )
        keep = cols > rows if s.strategy == STRATEGY_FULL else slice(None)
        yield [rows[keep], cols[keep], counts[keep].astype(np.int64)]


def save_similarity(s: SimilarityMatrix, path: str | Path, item_ids: list[str]) -> Path:
    """Write a matrix as the integer counts its cosines come from.

    ``item_ids`` are the ids of the train file the matrix was built from, in
    code order.  The header is ``items=<n> strategy=<full|topk> k=<k>
    ids=<digest>``, with k=0 for a full matrix and the digest from
    :func:`item_digest`.  Then come tab-separated ``row col count`` lines:
    ``(i, i, n_i)`` for every item with users, in ascending i, then
    ``(i, j, c_ij)`` in ascending (i, j): for a full matrix only j > i (the
    loader mirrors them), for a top-k matrix each row's kept entries.
    The counts are recovered ``COSINE_CHUNK`` entries at a time, so no
    full-length temporary is built.  Raises ``ContractError`` for a matrix
    without ``n_i``, ids of another length, or a value that is not a cosine
    of its counts; a refused write leaves no file.
    """
    if s.n_i is None:
        raise ContractError("a matrix without user counts n_i cannot be saved")
    if len(item_ids) != s.n_items:
        raise ContractError(f"{len(item_ids)} item ids for a matrix of {s.n_items} items")
    header = f"items={s.n_items} strategy={s.strategy} k={s.k or 0} ids={item_digest(item_ids)}"
    return write_table(path, header, _count_blocks(s))


def load_similarity(path: str | Path, item_ids: list[str]) -> SimilarityMatrix:
    """Read a matrix written by :func:`save_similarity` for the train file of ``item_ids``.

    The counts are turned into cosines by :func:`cosine_in_place`, as
    :func:`cosine_similarity` turns its own, so the values are bit-equal.  A
    full file's upper triangle is mirrored, so a loaded full matrix is
    symmetric by construction.

    Raises ``SchemaError`` for a bad header, one without ``ids=<sha256 hex>``
    included (files of float values, from before counts, have none), and
    ``ContractError`` when the digest is not that of ``item_ids``.  Raises
    ``RowParseError``, with the 1-based line number, for a row fault of
    :func:`read_table` (a count that is no integer among them), an index
    outside ``[0, items)``, a count below 1, rows out of order or repeated
    (the user counts ascend by item, then the entries by row, then column),
    a user count after the first entry, an entry whose item has no user
    count, a c_ij above min(n_i, n_j), a full-file entry with j <= i and a
    top-k row longer than k.  Scoring relies on each of these.
    """
    n_items = strategy = k = None

    def header(line: str) -> list:
        nonlocal n_items, strategy, k
        fields = dict(part.partition("=")[::2] for part in line.split())
        try:
            n_items, strategy, k = int(fields["items"]), fields["strategy"], int(fields.get("k", 0))
        except (KeyError, ValueError):
            n_items, strategy, k = 0, None, 0
        kinds_ok = (strategy == STRATEGY_FULL and k == 0) or (strategy == STRATEGY_TOPK and k >= 1)
        digest = fields.get("ids", "")
        if not (kinds_ok and 1 <= n_items < 2**31 and re.fullmatch("[0-9a-f]{64}", digest)):
            raise SchemaError(
                f"{path}: line 1: bad header {line!r}, want items=<n> strategy=full k=0 "
                f"or items=<n> strategy=topk k=<k >= 1>, with 1 <= n < 2**31, then "
                f"ids=<sha256 hex of the train file's item ids> (a file of float values, "
                f"without ids=, predates count files: train it again)"
            )
        want = item_digest(item_ids)
        if digest != want:
            raise ContractError(
                f"{path} was trained on other items: its {n_items} items have ids={digest[:12]}..., "
                f"the train file's {len(item_ids)} have ids={want[:12]}..."
            )
        return [("row", int), ("col", int), ("count", int)]

    table = read_table(path, "\t", header)
    rows, cols, counts = table["row"], table["col"], table["count"]

    def check(bad: np.ndarray, message) -> None:
        check_rows(path, bad, lambda t: f"entry ({rows[t]}, {cols[t]}) = {counts[t]} {message(t)}")

    check((rows < 0) | (rows >= n_items) | (cols < 0) | (cols >= n_items),
          lambda t: f"is outside [0, {n_items})")
    check(counts < 1, lambda t: "is not a positive count")
    diagonal = rows == cols
    d = len(rows) if diagonal.all() else int(np.argmin(diagonal))  # the user counts come first
    key = rows * n_items + cols  # int64, below 2**62
    ascending = np.ones(len(key), dtype=bool)
    np.greater(key[1:], key[:-1], out=ascending[1:])
    ascending[d : d + 1] = True  # the entries start over at their own first row
    del key
    check(~ascending,
          lambda t: f"does not follow ({rows[t - 1]}, {cols[t - 1]}): the user counts (i, i, n_i) "
                    f"ascend by i, then the entries by row, then column, without repeats")
    diagonal[:d] = False
    check(diagonal, lambda t: "is a user count after the first entry")
    n_i = np.zeros(n_items)
    n_i[rows[:d]] = counts[:d]
    least = n_i[rows]
    np.minimum(least, n_i[cols], out=least)  # min(n_i, n_j), 0 for an item without users
    check(least == 0, lambda t: "names an item without a user count")
    check(counts > least, lambda t: f"is above min(n_i, n_j) = {least[t]:g}")
    if strategy == STRATEGY_FULL:
        check(cols < rows, lambda t: "is below the diagonal: a full file stores j > i only")

    lengths = np.bincount(rows[d:], minlength=n_items)
    dtype = index_dtype(len(rows) - d)
    indptr = np.zeros(n_items + 1, dtype=dtype)
    np.cumsum(lengths, out=indptr[1:])
    if strategy == STRATEGY_TOPK:
        past_k = np.zeros(len(rows), dtype=bool)
        past_k[d + indptr[:-1][lengths > k] + k] = True
        check(past_k, lambda t: f"is past the k={k} entries a topk row may hold")
    m = sp.csr_matrix((counts[d:].astype(np.float64), cols[d:].astype(dtype), indptr),
                      shape=(n_items, n_items))
    del table, rows, cols, counts, least, diagonal, ascending  # freed before the mirroring
    if strategy == STRATEGY_FULL:
        m = (m + m.T).tocsr()  # mirrored: symmetric by construction
        m.sort_indices()
    indptr, cols, vals = m.indptr, m.indices, m.data
    cosine_in_place(vals, cols, indptr, n_i)
    return SimilarityMatrix(indptr=indptr, cols=cols, vals=vals, k=k or None, n_i=n_i)
