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

How each mode is computed:

* ``sum-all`` is one sparse product ``X @ S.T``, with X the binary
  users x items train matrix from :func:`knn.build_matrix`.  Scipy's CSR
  product walks each row of X in stored order, which is ascending j, and
  adds ``1.0 * S[i, j]`` into candidate i's accumulator, which starts at
  0.0: the same addends, in the same order, as the contract.  The tests pin
  this against an in-order oracle instead of assuming it.
* ``profile-topk`` gathers the sparse columns S[:, P] (ascending j, rows
  ascending within a column).  It selects by a per-row neighbour priority
  (:meth:`knn.SimilarityMatrix.priorities`): for row i, j's priority is
  nnz_i minus j's rank in row i's neighbour order, an integer that is
  unique within the row, larger for a better neighbour, and 0 for an
  unstored cell.  The priorities of the same cells are laid out as a dense
  items x |P| block of small unsigned integers; ``np.partition`` finds each
  row's k-th largest priority t, and a cell is kept when its priority is at
  least t (a row with fewer than k stored cells has t = 0 and keeps them
  all).  Priorities are unique, so exactly the first k of the neighbour
  order survive: no value ties are left to repair.  The other values are
  multiplied by 0.0.  ``np.bincount`` then adds the cells into the
  candidates' accumulators, which start at 0.0, in gather order: per
  candidate, ascending j, as the contract says.  When every row of S holds
  at most k entries, as on a top-k matrix, there is nothing to select, and
  neither priorities nor the dense block are built; the cells are summed
  as gathered.  So on a top-k matrix the two modes add the same addends by
  two separate code paths, and their equality is observed, not routed.
  The tests pin both accumulation orders against an in-order oracle.

:func:`recommend_all` scores the users it is given, rows of the caller's
train matrix X, in blocks of ``USER_BLOCK`` rows.  X, S and the users share
one id universe, the one X was built in: the experiment's split shares its
source dataset's, and the ``recommend`` subcommand's is the train file's
own, in which ``train`` saved its matrix.  A block's product holds at most
``USER_BLOCK x n_items`` entries whatever the number of users, so memory
stays bounded where the whole users x items product (8.8M entries, about
100 MB, at 1M ratings) would not; no dense users x items array is ever
built.  The one dense array profile-topk builds is one user's items x |P|
priority block, 2 bytes a cell up to 65535 items.

Top-N ranks the positive, unseen candidates by :func:`knn.first_k`, the
same (-value, index) order that ranks a matrix row's neighbours: score
descending, item ascending, first n.  Only the candidates whose score is at
least the n-th largest (``np.partition``) are sorted.

Named presets pair a matrix strategy with a scoring mode:

* ``lenskit-original``: full matrix, profile-topk scoring.
* ``recbole``: top-k truncated matrix, sum-all scoring.
* ``lenskit-adjusted``: top-k truncated matrix, profile-topk scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, SchemaError
from .ingest import InteractionDataset, check_rows, read_table, write_table
from .knn import STRATEGY_FULL, STRATEGY_TOPK, SimilarityMatrix, first_k

SCORING_SUM_ALL = "sum-all"
SCORING_PROFILE_TOPK = "profile-topk"
RECS_HEADER = "user\trank\titem\tscore"

# Evaluated users scored per sparse product; bounds its memory (see above).
USER_BLOCK = 256


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


def _profile_topk(s: SimilarityMatrix, profile: np.ndarray, k: int, select: bool) -> np.ndarray:
    """Profile-topk scores of every item for one sorted, unique profile."""
    gathered = s.csc()[:, profile]  # columns in ascending j
    rows, vals = gathered.indices, gathered.data
    width = len(profile)
    if select and k < width:
        priorities = s.priorities()[:, profile]  # the same cells, in the same order
        kth = np.partition(priorities.toarray(), width - k, axis=1)[:, width - k]
        vals = vals * (priorities.data >= kth.take(rows))  # x * 1.0 and x * 0.0 are exact
    # Adds the cells in gather order: per candidate, ascending j from 0.0.
    return np.bincount(rows, weights=vals, minlength=s.n_items)


def _score_rows(s: SimilarityMatrix, x: sp.csr_matrix, mode: ScoringMode) -> Iterator[np.ndarray]:
    """Yield the dense score vector of each row of ``x``, in row order.

    ``x`` is a binary users x items CSR matrix; its rows are the profiles,
    sorted by item index.
    """
    if mode.kind == SCORING_PROFILE_TOPK:
        # A matrix whose rows all hold <= k entries leaves nothing to select.
        select = int(np.diff(s.indptr).max(initial=0)) > mode.k
        for r in range(x.shape[0]):
            profile = x.indices[x.indptr[r] : x.indptr[r + 1]]
            yield _profile_topk(s, profile, mode.k, select)
        return
    product = x @ s.csc().T
    for r in range(x.shape[0]):
        lo, hi = product.indptr[r], product.indptr[r + 1]
        scores = np.zeros(s.n_items, dtype=np.float64)
        scores[product.indices[lo:hi]] = product.data[lo:hi]
        yield scores


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
    x = sp.csr_matrix(
        (np.ones(len(profile)), profile, [0, len(profile)]), shape=(1, s.n_items)
    )
    return next(_score_rows(s, x, mode))


def recommend_topn(
    scores: np.ndarray, seen: Iterable[int], n: int, user: int = 0
) -> RecommendationList:
    """Top-n unseen positively scored items, by score descending then item ascending.

    ``seen`` may be any iterable of item indices; an ndarray is used as it is.
    """
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    candidates = scores > 0.0
    if not isinstance(seen, np.ndarray):
        seen = np.fromiter(seen, dtype=np.int64)
    candidates[seen] = False
    (items,) = np.nonzero(candidates)
    vals = scores[items]
    order = first_k(vals, n)
    return RecommendationList(
        user=user, entries=list(zip(items[order].tolist(), vals[order].tolist()))
    )


def recommend_all(
    s: SimilarityMatrix, x: sp.csr_matrix, mode: ScoringMode, n: int, users: np.ndarray
) -> list[RecommendationList]:
    """One recommendation list per user of ``users``, scored from the train matrix ``x``.

    ``x`` is the binary users x items train matrix of :func:`knn.build_matrix`
    on the universe ``s`` was built in; ``users`` are ascending row indices of
    ``x``.  Each user's row is both the scored profile and the excluded seen
    set.  Lists come back in the order of ``users``, so the output is
    independent of the block size.
    """
    if s.n_items != x.shape[1]:
        raise ContractError(
            f"matrix has {s.n_items} items but the train matrix has {x.shape[1]}"
        )

    out: list[RecommendationList] = []
    for start in range(0, len(users), USER_BLOCK):
        block_users = users[start : start + USER_BLOCK]
        block = x[block_users]
        for r, scores in enumerate(_score_rows(s, block, mode)):
            seen = block.indices[block.indptr[r] : block.indptr[r + 1]]
            out.append(recommend_topn(scores, seen, n, user=int(block_users[r])))
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
