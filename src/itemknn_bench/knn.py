"""User-item matrix assembly and item-item cosine similarity, sparse, two strategies.

On binary (implicit) data the cosine of items i and j reduces to
``|U_i ∩ U_j| / (sqrt(|U_i|) * sqrt(|U_j|))`` with U_x the set of users who
interacted with item x.  Co-occurrence counts are float64 sums of ones, exact
below 2**53, so the matrix is bit-deterministic regardless of threading.

Storage is row-oriented CSR: row i holds the neighbors of candidate item i,
and scoring reads row i.  The diagonal is dropped before any truncation, so
an item never supports its own score, and exact zeros are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, SchemaError
from .ingest import InteractionDataset, check_rows, read_table, write_table

STRATEGY_FULL = "full"
STRATEGY_TOPK = "topk"
COSINE_CHUNK = 2**20  # entries per step of the in-place cosine division


@dataclass
class SimilarityMatrix:
    """Item-item similarities in CSR arrays; rows sorted by column index.

    ``strategy`` is ``"full"`` (symmetric, every nonzero cosine stored) or
    ``"topk"`` (row i holds only the first k entries of the full row i in
    :func:`neighbour_orders`).

    ``cols`` and ``indptr`` share one index dtype, :func:`index_dtype` of
    the entry count: int32 below 2**31 entries.

    Scoring reads columns, through :meth:`csc`.  A full matrix is its own
    transpose, so its CSC view reinterprets the CSR arrays in place and
    copies none of them; a top-k matrix is converted once.  The per-row
    neighbour priorities that profile-topk selects by (:meth:`priorities`)
    are built on first use.  Both are cached on the matrix itself, so they
    live exactly as long as it does.
    """

    n_items: int
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    strategy: str
    k: int | None = None
    _csc: sp.csc_matrix | None = field(default=None, repr=False, compare=False)
    _priorities: sp.csc_matrix | None = field(default=None, repr=False, compare=False)

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
    (k >= 0).  This is the one (-value, index) order of the package: matrix
    rows rank their neighbours by it, and top-N lists their candidates.
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


def cosine_similarity(b: sp.csr_matrix) -> SimilarityMatrix:
    """Full-strategy cosine matrix: symmetric, zero diagonal, zeros unstored.

    The co-occurrence counts are the product of a float64-ones copy of ``b``
    with its transpose, and the cosine is computed in that product's own
    arrays, ``COSINE_CHUNK`` entries at a time, so no full-length temporary
    is held beside it.  A chunk's row ids are read off ``indptr`` by
    repeating each row id once per entry of that row inside the chunk, with
    no search.  The diagonal is zeroed in the same pass and dropped with the
    zeros; an item without users has no diagonal entry at all.
    """
    n_items = b.shape[1]
    if n_items < 1:
        raise ContractError("cosine_similarity requires at least one item")

    ones = sp.csr_matrix((np.ones(b.nnz), b.indices, b.indptr), shape=b.shape)
    cooc = (ones.T @ ones).tocsr()
    counts = cooc.diagonal()  # n_i, the number of users of item i
    vals, cols, indptr = cooc.data, cooc.indices, cooc.indptr
    rows = np.arange(n_items)
    for lo in range(0, len(vals), COSINE_CHUNK):
        hi = min(lo + COSINE_CHUNK, len(vals))
        row_of = np.repeat(rows, np.diff(np.clip(indptr, lo, hi)))
        chunk = vals[lo:hi]
        chunk /= np.sqrt(counts[row_of] * counts[cols[lo:hi]])
        chunk[cols[lo:hi] == row_of] = 0.0
    cooc.eliminate_zeros()
    cooc.sort_indices()

    return SimilarityMatrix(
        n_items=n_items,
        indptr=cooc.indptr,
        cols=cooc.indices,
        vals=cooc.data,
        strategy=STRATEGY_FULL,
    )


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
    if s.strategy == STRATEGY_TOPK and (s.k is None or k > s.k):
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
        n_items=s.n_items,
        indptr=indptr,
        cols=s.cols[keep].astype(dtype, copy=False),
        vals=s.vals[keep],
        strategy=STRATEGY_TOPK,
        k=k,
    )


def save_similarity(s: SimilarityMatrix, path: str | Path) -> Path:
    """Write the portable text form: header, then ``row<TAB>col<TAB>value`` lines.

    The header is ``items=<n> strategy=<full|topk> k=<k>``; k=0 stands in for
    "no truncation" on full-strategy matrices.  Values carry 17 significant
    digits, enough to round-trip a double exactly.
    """
    rows = np.repeat(np.arange(s.n_items), np.diff(s.indptr))
    header = f"items={s.n_items} strategy={s.strategy} k={s.k or 0}"
    return write_table(path, header, [rows, s.cols, s.vals])


def load_similarity(path: str | Path) -> SimilarityMatrix:
    """Read a matrix written by :func:`save_similarity`, checking what it promises.

    Raises ``SchemaError`` for a bad header and ``RowParseError``, with the
    1-based line number, for a row fault of :func:`read_table`, an index
    outside ``[0, items)``, entries out of ascending (row, column) order or
    repeated, a value that is not positive, a top-k row longer than k, and a
    full matrix that is not symmetric.  Scoring relies on each of these.
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
        if not (kinds_ok and 1 <= n_items < 2**31):
            raise SchemaError(
                f"{path}: line 1: bad header {line!r}, want items=<n> strategy=full k=0 "
                f"or items=<n> strategy=topk k=<k >= 1>, with 1 <= n < 2**31"
            )
        return [("row", int), ("col", int), ("value", float)]

    table = read_table(path, "\t", header)
    rows, cols, vals = table["row"], table["col"], table["value"]

    def check(bad: np.ndarray, message) -> None:
        check_rows(path, bad, lambda t: f"entry ({rows[t]}, {cols[t]}) = {vals[t]} {message(t)}")

    check((rows < 0) | (rows >= n_items) | (cols < 0) | (cols >= n_items),
          lambda t: f"is outside [0, {n_items})")
    check(vals <= 0.0, lambda t: "is not positive")
    key = rows * n_items + cols  # int64, below 2**62
    check(np.diff(key, prepend=-1) <= 0,
          lambda t: f"does not follow ({rows[t - 1]}, {cols[t - 1]}): entries ascend by "
                    f"row, then column, without repeats")

    counts = np.bincount(rows, minlength=n_items)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    if strategy == STRATEGY_TOPK:
        past_k = np.zeros(len(key), dtype=bool)
        past_k[indptr[:-1][counts > k] + k] = True
        check(past_k, lambda t: f"is past the k={k} entries a topk row may hold")
    else:
        mirror = cols * n_items + rows
        at = np.minimum(np.searchsorted(key, mirror), max(len(key) - 1, 0))
        check((key[at] != mirror) | (vals[at] != vals),
              lambda t: f"has no equal entry ({cols[t]}, {rows[t]}): a full matrix is symmetric")

    dtype = index_dtype(len(cols))
    return SimilarityMatrix(
        n_items=n_items,
        indptr=indptr.astype(dtype),
        cols=cols.astype(dtype),
        vals=vals,
        strategy=strategy,
        k=k or None,
    )
