"""User-item matrix assembly and item-item cosine similarity, sparse, two strategies.

On binary (implicit) data the cosine of items i and j reduces to
``|U_i ∩ U_j| / (sqrt(|U_i|) * sqrt(|U_j|))`` with U_x the set of users who
interacted with item x.  Co-occurrence counts are computed exactly in integer
arithmetic, so the matrix is bit-deterministic regardless of threading.

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


@dataclass
class SimilarityMatrix:
    """Item-item similarities in CSR arrays; rows sorted by column index.

    ``strategy`` is ``"full"`` (symmetric, every nonzero cosine stored) or
    ``"topk"`` (row i holds only the first k entries of the full row i in
    :func:`neighbour_orders`).

    Scoring reads columns, through :meth:`csc`.  A full matrix is its own
    transpose, so its CSC view reinterprets the CSR arrays in place and
    copies no values; a top-k matrix is converted once.  The per-row
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

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.cols[lo:hi], self.vals[lo:hi]

    def csc(self) -> sp.csc_matrix:
        """Cached scipy CSC form for fast column gathering during scoring."""
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

    def entries_equal(self, other: "SimilarityMatrix") -> bool:
        return (
            self.n_items == other.n_items
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )


def neighbour_orders(s: SimilarityMatrix) -> Iterator[tuple[slice, np.ndarray]]:
    """Each row's stored entries, best neighbour first: the one neighbour order.

    Row i's neighbours are ranked by (-value, j): larger similarity first,
    and among equal values the smaller column index j first.  Yields, row
    by row, row i's slice of ``s.cols``/``s.vals`` and the positions within
    that slice in this order.  Rows are stored in ascending j, so a stable
    sort on -value alone keeps equal values in ascending j.  Top-k truncation
    keeps the first k of each row's order, and profile-topk's priorities are
    ranks in it.
    """
    indptr = s.indptr.tolist()
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        yield slice(lo, hi), np.argsort(-s.vals[lo:hi], kind="stable")


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


def cosine_similarity(b: sp.csr_matrix) -> SimilarityMatrix:
    """Full-strategy cosine matrix: symmetric, zero diagonal, zeros unstored."""
    n_items = b.shape[1]
    if n_items < 1:
        raise ContractError("cosine_similarity requires at least one item")

    cooc = (b.T @ b).tocoo()  # exact int64 co-occurrence counts
    off_diag = cooc.row != cooc.col
    cooc = sp.csr_matrix(
        (cooc.data[off_diag], (cooc.row[off_diag], cooc.col[off_diag])),
        shape=(n_items, n_items),
    )
    cooc.sort_indices()

    counts = np.asarray(b.sum(axis=0), dtype=np.float64).ravel()
    row_of = np.repeat(np.arange(n_items), np.diff(cooc.indptr))
    vals = cooc.data.astype(np.float64) / np.sqrt(counts[row_of] * counts[cooc.indices])

    return SimilarityMatrix(
        n_items=n_items,
        indptr=cooc.indptr.astype(np.int64),
        cols=cooc.indices.astype(np.int64),
        vals=vals,
        strategy=STRATEGY_FULL,
    )


def truncate_topk(s: SimilarityMatrix, k: int) -> SimilarityMatrix:
    """Keep the first k entries of each row's :func:`neighbour_orders`.

    Values are unchanged, the kept set is unique, and rows stay in ascending
    column order.
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
    for row, order in neighbour_orders(s):
        keep[row][order[:k]] = True
    indptr = np.zeros(s.n_items + 1, dtype=np.int64)
    np.cumsum(np.minimum(np.diff(s.indptr), k), out=indptr[1:])
    return SimilarityMatrix(
        n_items=s.n_items,
        indptr=indptr,
        cols=s.cols[keep],
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
    key = rows * n_items + cols  # below 2**62
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

    return SimilarityMatrix(
        n_items=n_items,
        indptr=indptr.astype(np.int64),
        cols=cols,
        vals=vals,
        strategy=strategy,
        k=k or None,
    )
