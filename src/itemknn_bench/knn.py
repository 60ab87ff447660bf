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

import numpy as np
import scipy.sparse as sp

from .errors import ContractError
from .ingest import InteractionDataset

STRATEGY_FULL = "full"
STRATEGY_TOPK = "topk"


@dataclass
class SimilarityMatrix:
    """Item-item similarities in CSR arrays; rows sorted by column index.

    ``strategy`` is ``"full"`` (symmetric, every nonzero cosine stored) or
    ``"topk"`` (row i holds only the k largest entries of the full row i,
    ties resolved toward the smaller column index).
    """

    n_items: int
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    strategy: str
    k: int | None = None
    _csc: sp.csc_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return len(self.cols)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.cols[lo:hi], self.vals[lo:hi]

    def csc(self) -> sp.csc_matrix:
        """Cached scipy CSC view for fast column gathering during scoring."""
        if self._csc is None:
            m = sp.csr_matrix(
                (self.vals, self.cols, self.indptr), shape=(self.n_items, self.n_items)
            )
            self._csc = m.tocsc()
        return self._csc

    def entries_equal(self, other: "SimilarityMatrix") -> bool:
        return (
            self.n_items == other.n_items
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )


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
    """Keep the k largest entries of every row; values unchanged.

    Value ties are resolved toward the smaller column index, which makes the
    kept set unique.  Truncation nests: the top k' of a top-k matrix equals
    the top k' of the full matrix whenever k' <= k, so re-truncating at the
    same or a smaller k is allowed (and idempotent); a larger k is refused
    because the discarded entries are gone.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if s.strategy == STRATEGY_TOPK and (s.k is None or k > s.k):
        raise ContractError(
            f"cannot re-truncate a top-{s.k} matrix at k={k}: entries beyond "
            f"the stored k are no longer available"
        )

    indptr = np.zeros(s.n_items + 1, dtype=np.int64)
    kept_cols: list[np.ndarray] = []
    kept_vals: list[np.ndarray] = []
    for i in range(s.n_items):
        cols, vals = s.row(i)
        if len(cols) > k:
            # lexsort: primary key last; descending value, then ascending column.
            order = np.lexsort((cols, -vals))[:k]
            order.sort()  # back to ascending column for CSR storage
            cols, vals = cols[order], vals[order]
        kept_cols.append(cols)
        kept_vals.append(vals)
        indptr[i + 1] = indptr[i] + len(cols)

    return SimilarityMatrix(
        n_items=s.n_items,
        indptr=indptr,
        cols=np.concatenate(kept_cols) if kept_cols else np.zeros(0, dtype=np.int64),
        vals=np.concatenate(kept_vals) if kept_vals else np.zeros(0, dtype=np.float64),
        strategy=STRATEGY_TOPK,
        k=k,
    )


def save_similarity(s: SimilarityMatrix, path: str | Path) -> Path:
    """Write the portable text form: header, then ``row<TAB>col<TAB>value`` lines.

    The header is ``items=<n> strategy=<full|topk> k=<k>``; k=0 stands in for
    "no truncation" on full-strategy matrices.  Values carry 17 significant
    digits, enough to round-trip a double exactly.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"items={s.n_items} strategy={s.strategy} k={s.k or 0}\n")
        for i in range(s.n_items):
            cols, vals = s.row(i)
            for c, v in zip(cols, vals):
                fh.write(f"{i}\t{c}\t{v:.17g}\n")
    return path


def load_similarity(path: str | Path) -> SimilarityMatrix:
    """Read a matrix written by :func:`save_similarity`."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = dict(part.split("=", 1) for part in header.split())
        n_items = int(fields["items"])
        strategy = fields["strategy"]
        k = int(fields.get("k", 0)) or None
        if strategy not in (STRATEGY_FULL, STRATEGY_TOPK):
            raise ValueError(f"{path}: unknown strategy {strategy!r}")

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for line in fh:
            r, c, v = line.rstrip("\n").split("\t")
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))

    indptr = np.zeros(n_items + 1, dtype=np.int64)
    np.add.at(indptr, np.asarray(rows, dtype=np.int64) + 1, 1)
    indptr = np.cumsum(indptr)
    return SimilarityMatrix(
        n_items=n_items,
        indptr=indptr.astype(np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        vals=np.asarray(vals, dtype=np.float64),
        strategy=strategy,
        k=k,
    )
