"""Candidate scoring and top-N recommendation under configurable scoring modes.

This docstring is the scoring contract.  For a user profile P (the user's
train items) and a similarity matrix S whose row i holds the neighbours of
candidate item i, every item i gets a score:

* ``sum-all``: score(i) = the sum of S[i, j] over j in P.
* ``profile-topk``: score(i) = the sum of the values S[i, j] of the first
  k items j in P along row i's neighbour order
  (:func:`knn.neighbour_orders`).

In both modes the selected addends are summed left to right in ascending j,
starting from 0.0.  Stored similarities are positive, and adding 0.0 in
place of an unselected or unstored value leaves a sum unchanged, so
whenever the two modes select the same addends (on a top-k truncated
matrix, whose rows hold at most k entries) their scores are bit-identical,
not merely close.  That exactness is what
makes the strategy-alignment equivalence checkable as equality downstream.

How both modes are computed: by one kernel, a chunk of users at a time.

* The profiles' columns S[:, P] are gathered, for every user of the chunk
  at once, by one call of scipy's compiled gather kernel on the CSC arrays
  (:class:`_ColumnGather`; scipy's Python-level indexing costs more than
  the gather it wraps): user after user, each user's columns in ascending
  j, rows ascending within a column.
* Only profile-topk selects, and only for a user with |P| > k on a matrix
  with some row of more than k entries (a top-k matrix has none, so there
  ``recbole`` and ``lenskit-adjusted`` run the same code).  It selects by a
  per-row neighbour priority (:meth:`knn.SimilarityMatrix.priorities`):
  for row i, j's priority is nnz_i minus j's rank in row i's neighbour
  order, an integer that is unique within the row, larger for a better
  neighbour, and 0 for an unstored cell.  The priorities of the chunk's
  cells are gathered by the same kernel; each selecting user's own cells
  are laid out as a dense items x |P| block of small unsigned integers,
  C-ordered, so that ``np.partition`` walks each row's cells contiguously.
  It finds each row's k-th largest priority t, and a cell is kept when its
  priority is at least t (a row with fewer than k stored cells has t = 0
  and keeps them all).  Priorities are unique, so exactly the first k of
  the neighbour order survive: no value ties are left to repair.  The
  other values are multiplied by 0.0.
* scipy's compiled ``csr_todense`` then adds the cells into a zeroed dense
  users x items float64 block, each cell into its (user, candidate) slot in
  array order: per slot, ascending j from 0.0, as the contract says.  The
  tests pin this order against an in-order oracle for both modes, and CI
  checks it on scipy itself with a sum whose value depends on the order.

:func:`recommend_all` scores the users it is given, rows of the caller's
train matrix X whose indices are sorted, as :func:`knn.build_matrix` sorts
them.  It first checks that every item index X holds lies in
``[0, n_items)``: the compiled kernels check no bounds, so this is the
precondition they rest on, and a bad index is a ``ContractError`` in both
modes.  X, S and the users share one id universe, the one X was built in:
the experiment's split shares its source dataset's, and the ``recommend``
subcommand's is the train file's own, in which ``train`` saved its matrix.
The users are cut into chunks of consecutive users whose gathered cells
plus dense block cells (users x n_items) stay within ``CHUNK_CELLS``; a
user whose own cells exceed it is a chunk alone.  A chunk's rows of X are
sliced by their ``indptr``, not by scipy's row indexing, which costs more
per call.  A chunk's arrays take about 16 bytes per cell of the budget (a
dense cell is 8 bytes, and the ranking partitions an 8-byte copy; a
gathered cell is a value and a row index), whatever the number of users,
where the whole users x items block (22M cells, about 180 MB, at 1M
ratings) would not.  Profile-topk's dense priority block is one user's
items x |P|, 2 bytes a cell up to 65535 items.

Top-N zeroes each user's seen items in the block and then ranks the whole
block at once: each row's positive entries in :func:`knn.first_k`'s
(-value, index) order, score descending, item ascending, first n.  Only the
entries at or above a row's n-th largest value (``np.partition``) are
sorted, by one stable ``np.lexsort``.  :func:`score_user` and
:func:`recommend_topn` are the one-row cases of the same kernel and ranker.

Named presets pair a matrix strategy with a scoring mode:

* ``lenskit-original``: full matrix, profile-topk scoring.
* ``recbole``: top-k truncated matrix, sum-all scoring.
* ``lenskit-adjusted``: top-k truncated matrix, profile-topk scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ContractError, SchemaError
from .ingest import InteractionDataset, check_rows, read_table, write_table
from .knn import STRATEGY_FULL, STRATEGY_TOPK, SimilarityMatrix

SCORING_SUM_ALL = "sum-all"
SCORING_PROFILE_TOPK = "profile-topk"
RECS_HEADER = "user\trank\titem\tscore"

# Gathered plus dense cells of one chunk of users; bounds its memory (see above).
CHUNK_CELLS = 2**17


@dataclass(frozen=True, slots=True)
class ScoringMode:
    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in (SCORING_SUM_ALL, SCORING_PROFILE_TOPK):
            raise ValueError(f"unknown scoring kind {self.kind!r}")
        if self.kind == SCORING_PROFILE_TOPK and (self.k is None or self.k < 1):
            raise ValueError("profile-topk scoring requires k >= 1")


@dataclass(frozen=True, slots=True)
class Preset:
    """A named (matrix strategy, scoring mode) combination."""

    name: str
    matrix_strategy: str
    scoring_kind: str

    def scoring_mode(self, k: int) -> ScoringMode:
        if self.scoring_kind == SCORING_PROFILE_TOPK:
            return ScoringMode(SCORING_PROFILE_TOPK, k)
        return ScoringMode(SCORING_SUM_ALL)


PRESETS = {
    "lenskit-original": Preset("lenskit-original", STRATEGY_FULL, SCORING_PROFILE_TOPK),
    "recbole": Preset("recbole", STRATEGY_TOPK, SCORING_SUM_ALL),
    "lenskit-adjusted": Preset("lenskit-adjusted", STRATEGY_TOPK, SCORING_PROFILE_TOPK),
}


@dataclass(frozen=True)
class RecommendationList:
    """Ranked (item, score) entries for one user; scores positive, non-increasing."""

    user: int
    entries: list[tuple[int, float]]


class _ColumnGather:
    """Columns ``cols`` of a CSC matrix ``m``, through scipy's compiled kernels.

    ``indptr``, ``indices`` and ``data`` are the arrays of ``m[:, cols]``:
    column after column in the order of ``cols``, rows ascending within a
    column.  :meth:`gather` takes the same cells out of other data laid out
    like ``m.data``, into the same ``indptr`` and ``indices``; :meth:`dense`
    lays gathered data of a run of the columns out as the dense
    ``m.shape[0] x columns`` block, C-ordered, each row contiguous; and
    :meth:`sums` adds the cells of runs of the columns into dense rows.

    Private dependency: ``scipy.sparse._sparsetools.csr_row_index`` and
    ``csr_todense``, the kernels behind scipy's own ``m[:, cols]`` and
    ``toarray``, called without scipy's Python-level checks.  They check no
    bounds: every column must lie in ``[0, m.shape[1])``.  ``cols``,
    ``m.indptr`` and ``m.indices`` must share one index dtype (``cols`` is
    cast to it here): the kernels refuse mismatched ones, or widen them with
    a copy on every call.
    """

    def __init__(self, m: sp.csc_matrix, cols: np.ndarray):
        self._m = m
        self._cols = cols.astype(m.indptr.dtype, copy=False)
        self.indptr = np.zeros(len(cols) + 1, dtype=m.indptr.dtype)
        np.cumsum(m.indptr[self._cols + 1] - m.indptr[self._cols], out=self.indptr[1:])
        self.indices = np.empty(self.indptr[-1], dtype=m.indices.dtype)
        self.data = self.gather(m.data)

    def gather(self, data: np.ndarray) -> np.ndarray:
        """The gathered cells' entries of ``data``; writes ``indices`` (again, the same)."""
        out = np.empty(self.indptr[-1], dtype=data.dtype)
        m = self._m
        _sparsetools.csr_row_index(
            len(self._cols), self._cols, m.indptr, m.indices, data, self.indices, out
        )
        return out

    def dense(self, data: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Gathered ``data`` of columns ``lo:hi`` as a dense ``m.shape[0] x (hi - lo)`` array.

        The array is C-ordered: each row's cells are contiguous.
        """
        width, height = hi - lo, self._m.shape[0]
        out = np.zeros((width, height), dtype=data.dtype)  # the transpose, C-ordered
        _sparsetools.csr_todense(width, height, self.indptr[lo : hi + 1], self.indices, data, out)
        return out.T.copy()

    def sums(self, data: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Row r: the cells of columns ``bounds[r]:bounds[r + 1]`` added into zeroed slots.

        ``csr_todense`` adds each cell into slot ``(r, its row)`` in gather
        order, so every slot is a left-to-right sum, over the columns in the
        order of ``cols``, starting from 0.
        """
        rows, height = len(bounds) - 1, self._m.shape[0]
        out = np.zeros((rows, height), dtype=data.dtype)
        _sparsetools.csr_todense(rows, height, self.indptr[bounds], self.indices, data, out)
        return out


def _selection_k(s: SimilarityMatrix, mode: ScoringMode) -> int | None:
    """The k that profile-topk selects by on ``s``; None when no row of ``s`` holds more."""
    if mode.kind == SCORING_PROFILE_TOPK and int(np.diff(s.indptr).max(initial=0)) > mode.k:
        return mode.k
    return None


def _score_chunk(
    s: SimilarityMatrix, profiles: np.ndarray, bounds: np.ndarray, k: int | None
) -> np.ndarray:
    """The dense users x items scores of a chunk of users.

    User r's profile is ``profiles[bounds[r]:bounds[r + 1]]``, sorted and
    unique; ``k`` is :func:`_selection_k`'s.
    """
    gathered = _ColumnGather(s.csc(), profiles)  # user after user, each in ascending j
    vals, rows = gathered.data, gathered.indices
    if k is not None:
        priorities = gathered.gather(s.priorities().data)  # the same cells, in the same order
        for r in np.flatnonzero(np.diff(bounds) > k).tolist():
            lo, hi = bounds[r], bounds[r + 1]
            block = gathered.dense(priorities, lo, hi)  # this user's items x |P|
            block.partition(hi - lo - k, axis=1)  # in place: the block is this call's own
            kth = block[:, hi - lo - k]
            cells = slice(gathered.indptr[lo], gathered.indptr[hi])
            vals[cells] *= priorities[cells] >= kth.take(rows[cells])  # x * 1.0, x * 0.0: exact
    return gathered.sums(vals, bounds)


def _rank(block: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's first n positive entries in (-value, column) order.

    Returns ``(sizes, columns, values)``: ``sizes[r]`` entries of row r, row
    after row.  Only the entries at or above a row's n-th largest value are
    sorted.
    """
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    width = block.shape[1]
    floor = np.nextafter(0.0, 1.0)  # the smallest positive float: ">= floor" is "> 0.0"
    if n < width:
        floor = np.maximum(np.partition(block, width - n, axis=1)[:, width - n], floor)[:, None]
    at = np.flatnonzero(block >= floor)  # the flat scan is several times a 2-D nonzero's speed
    rows, cols = np.divmod(at, width)
    vals = block.ravel()[at]
    order = np.lexsort((-vals, rows))  # stable: equal values keep ascending column
    counts = np.bincount(rows, minlength=len(block))
    keep = order[_ranks(counts) <= n]  # ties at the n-th value may leave a row more
    return np.minimum(counts, n), cols[keep], vals[keep]


def _lists(users: Iterable[int], sizes: np.ndarray, items: np.ndarray, scores: np.ndarray
           ) -> list[RecommendationList]:
    """One list per user: ``sizes[r]`` of the (item, score) entries, user after user."""
    entries = list(zip(items.tolist(), scores.tolist()))
    ends = np.cumsum(sizes).tolist()
    return [RecommendationList(user, entries[end - size : end])
            for user, size, end in zip(users, sizes.tolist(), ends)]


def score_user(
    s: SimilarityMatrix, profile: Iterable[int], mode: ScoringMode
) -> np.ndarray:
    """Score every item as a candidate for a user with the given train profile.

    Returns a dense float64 vector over all items.  Candidates sharing no
    stored similarity with the profile score exactly 0.  Items inside the
    profile are scored too; exclusion happens in :func:`recommend_topn`.
    """
    profile = np.unique(np.asarray(list(profile), dtype=np.int64))
    if len(profile) and (profile[0] < 0 or profile[-1] >= s.n_items):
        raise ContractError(
            f"profile indices out of range [0, {s.n_items}): {profile.min()}..{profile.max()}"
        )
    return _score_chunk(s, profile, np.array([0, len(profile)]), _selection_k(s, mode))[0]


def recommend_topn(
    scores: np.ndarray, seen: Iterable[int], n: int, user: int = 0
) -> RecommendationList:
    """Top-n unseen positively scored items, by score descending then item ascending.

    ``seen`` may be any iterable of item indices; an ndarray is used as it is.
    """
    block = np.array(scores, dtype=np.float64, ndmin=2)  # a copy: ``scores`` stays as it is
    if not isinstance(seen, np.ndarray):
        seen = np.fromiter(seen, dtype=np.int64)
    block[0, seen] = 0.0
    return _lists([user], *_rank(block, n))[0]


def recommend_all(
    s: SimilarityMatrix, x: sp.csr_matrix, mode: ScoringMode, n: int, users: np.ndarray
) -> list[RecommendationList]:
    """One recommendation list per user of ``users``, scored from the train matrix ``x``.

    ``x`` is the binary users x items train matrix of :func:`knn.build_matrix`
    on the universe ``s`` was built in; ``users`` are ascending row indices of
    ``x``.  Each user's row is both the scored profile and the excluded seen
    set.  Lists come back in the order of ``users``, so the output is
    independent of the chunk size.
    """
    if s.n_items != x.shape[1]:
        raise ContractError(
            f"matrix has {s.n_items} items but the train matrix has {x.shape[1]}"
        )
    # The compiled kernels check no bounds: this check is theirs.
    if len(x.indices) and (x.indices.min() < 0 or x.indices.max() >= s.n_items):
        raise ContractError(
            f"the train matrix holds item indices outside [0, {s.n_items}): "
            f"{x.indices.min()}..{x.indices.max()}"
        )

    k = _selection_k(s, mode)
    starts, ends = x.indptr[users], x.indptr[users + 1]
    # cost[r]: the gathered cells plus dense cells of users [0, r).
    cells = np.concatenate(([0], np.cumsum(np.diff(s.csc().indptr)[x.indices])))
    cost = np.concatenate(([0], np.cumsum(cells[ends] - cells[starts] + s.n_items)))
    del cells
    out: list[RecommendationList] = []
    lo = 0
    while lo < len(users):
        hi = max(int(np.searchsorted(cost, cost[lo] + CHUNK_CELLS, side="right")) - 1, lo + 1)
        sizes = ends[lo:hi] - starts[lo:hi]
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        profiles = x.indices[np.repeat(starts[lo:hi] - bounds[:-1], sizes) + np.arange(bounds[-1])]
        block = _score_chunk(s, profiles, bounds, k)
        block[np.repeat(np.arange(hi - lo), sizes), profiles] = 0.0  # the seen items
        out += _lists(users[lo:hi].tolist(), *_rank(block, n))
        lo = hi
    return out


def _ranks(sizes: np.ndarray) -> np.ndarray:
    """The ranks 1, 2, ..., size of the entries of lists of ``sizes``, list after list."""
    return np.arange(1, sizes.sum() + 1) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def save_recommendations(
    recs: list[RecommendationList], ds: InteractionDataset, path: str | Path
) -> Path:
    """Dump lists under :data:`RECS_HEADER`, one entry per line, with external ids."""
    sizes = np.array([len(rl.entries) for rl in recs], dtype=np.int64)
    users = np.repeat(np.array([rl.user for rl in recs], dtype=np.int64), sizes)
    entries = [entry for rl in recs for entry in rl.entries]
    items = np.array([item for item, _ in entries], dtype=np.int64)
    scores = np.array([score for _, score in entries], dtype=np.float64)
    columns = [(users, ds.user_ids), _ranks(sizes), (items, ds.item_ids), scores]
    return write_table(path, RECS_HEADER, columns)


def load_recommendations(path: str | Path) -> tuple[tuple, tuple, np.ndarray]:
    """Read a dump back as the columns ``(users, user_ids), (items, item_ids), scores``.

    The columns are :func:`read_table`'s, with their first-appearance codes
    and ids, and the rows grouped by user in first-appearance order, each
    user's in rank order.  Raises ``SchemaError`` for a first line other
    than :data:`RECS_HEADER`, and ``RowParseError``, with the line, for a
    row fault of :func:`read_table` (a score that is not a finite number
    too), a rank that is not the next of its user's list (``1``, ``2``, ...
    as text), and an item repeated within one user's list.  Evaluation
    relies on each of these.
    """

    def header(line: str) -> list:
        if line != RECS_HEADER:
            raise SchemaError(f"{path}: line 1: header {line!r} is not {RECS_HEADER!r}")
        return [("user", str), ("rank", str), ("item", str), ("score", float)]

    table = read_table(path, "\t", header)
    (users, user_ids), (ranks, rank_ids), (items, item_ids), scores = table.values()
    order = np.argsort(users, kind="stable")  # each user's rows, in file order
    sizes = np.bincount(users, minlength=len(user_ids))
    want = np.empty(len(users), dtype=np.int64)
    want[order] = _ranks(sizes)
    number = {str(r): r for r in range(1, sizes.max(initial=0) + 1)}  # the rank texts allowed
    rank_of = np.array([number.get(rank, 0) for rank in rank_ids], dtype=np.int64)
    check_rows(path, rank_of[ranks] != want, lambda t: (
        f"rank {rank_ids[ranks[t]]!r} of user {user_ids[users[t]]!r} is not {want[t]}, "
        f"the next rank of that user's list"))
    repeated = np.ones(len(users), dtype=bool)
    repeated[np.unique(users * len(item_ids) + items, return_index=True)[1]] = False
    check_rows(path, repeated, lambda t: (
        f"item {item_ids[items[t]]!r} is already in user {user_ids[users[t]]!r}'s list"))
    return (users[order], user_ids), (items[order], item_ids), scores[order]
