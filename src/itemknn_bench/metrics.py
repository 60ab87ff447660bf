"""Ranking metrics: nDCG under two IDCG semantics, precision, recall.

The two IDCG semantics reflect a real divergence between evaluation stacks:

* ``truncated``: the ideal list length is min(cutoff, number of relevant
  items), so a user with fewer test items than the cutoff can still reach
  nDCG 1.0.
* ``fixed-k``: the ideal list is always cutoff positions long, which caps
  nDCG below 1.0 whenever the user has fewer relevant items than the cutoff.

Relevance is binary throughout this artifact (implicit feedback): a listed
item is a hit, gain 1, when it is among its user's test items.  Both the
experiment and the ``evaluate`` subcommand go through one function,
:func:`report_from_gains`, which takes all lists at once by their hit ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .ingest import InteractionDataset
from .recommend import Recommendations, _ranks

IDCG_TRUNCATED = "truncated"
IDCG_FIXED_K = "fixed-k"
IDCG_MODES = (IDCG_TRUNCATED, IDCG_FIXED_K)


class UserMetrics(NamedTuple):
    ndcg: float
    precision: float
    recall: float


@dataclass(frozen=True)
class MetricReport:
    """Per-user and mean metric values under one declared configuration."""

    n: int
    idcg_mode: str
    per_user: dict[str, UserMetrics]
    mean_ndcg: float
    mean_precision: float
    mean_recall: float
    preset: str | None = None
    seed: int | None = None

    @property
    def n_users(self) -> int:
        return len(self.per_user)

    def as_dict(self) -> dict:
        return {**vars(self), "n_users": self.n_users}


def report_from_gains(
    test: InteractionDataset, users: np.ndarray, items: np.ndarray, sizes: np.ndarray, n: int,
    mode: str, preset: str | None = None, seed: int | None = None,
) -> MetricReport:
    """The report of ranked lists against ``test``, each list's user keyed by its test id.

    List r belongs to user code ``users[r]`` and holds the next ``sizes[r]``
    codes of ``items``, best first; every code is one of ``test``'s, and an
    item code of -1 is an item ``test`` lacks, which is a miss.  Every
    list's user must hold at least one test interaction and no list may be
    longer than ``n`` (contract).

    A hit is a (list, rank) pair.  DCG is the ``np.bincount`` of the hits'
    discounts ``1 / log2(rank + 1)``, which adds each list's in rank order
    from 0.0, as the series reads; truncated IDCG is a prefix of the
    discounts' cumsum, and fixed-k IDCG one running sum over n discounts.
    Means are arithmetic means over the report's own per-user entries (a
    repeated user keeps its last list; no entries give 0.0), computed with
    exact summation so they are independent of user order.
    """
    if n < 1:
        raise ContractError(f"cutoff n must be >= 1, got {n}")
    if mode not in IDCG_MODES:
        raise ValueError(f"unknown IDCG mode {mode!r} (expected one of {IDCG_MODES})")
    if (longest := sizes.max(initial=0)) > n:
        raise ContractError(f"a list of {longest} items is longer than the cutoff {n}")
    relevant = np.unique(test.users * test.n_items + test.items)  # one key per test pair
    known = (users >= 0) & (users < test.n_users)
    n_relevant = np.zeros(len(users), dtype=np.int64)
    n_relevant[known] = np.bincount(relevant // test.n_items, minlength=test.n_users)[users[known]]
    if not n_relevant.all():
        user = users[np.argmin(n_relevant)]
        name = test.user_ids[user] if 0 <= user < test.n_users else int(user)
        raise ContractError(f"user {name!r} has a recommendation list but no test interactions")
    rows = np.repeat(np.arange(len(users)), sizes)
    # A -1 item gets key -1, which no pair has; user * n_items - 1 would be a
    # pair of the previous user.
    hit = np.isin(np.where(items >= 0, users[rows] * test.n_items + items, -1), relevant)
    rows, ranks = rows[hit], _ranks(sizes)[hit]
    ideal = np.minimum(n_relevant, n)
    # Up to the longest list or truncated ideal, not to n.
    discounts = np.array([1.0 / math.log2(i + 1.0)
                          for i in range(1, max(longest, ideal.max(initial=0)) + 1)])
    # Bit for bit the series over all n ranks, in which a miss adds 0.0.
    dcg = np.bincount(rows, weights=discounts[ranks - 1], minlength=len(users))
    n_hits = np.bincount(rows, minlength=len(users))
    if mode == IDCG_TRUNCATED:
        idcg = np.cumsum(discounts)[ideal - 1]
    else:
        idcg = 0.0
        for i in range(1, n + 1):
            idcg += 1.0 / math.log2(i + 1.0)
    metrics = list(zip((dcg / idcg).tolist(), (n_hits / n).tolist(),
                       np.minimum(n_hits / n_relevant, 1.0).tolist()))
    # Freed before the report's objects are allocated above them on the heap,
    # so that the next seed's cosine reuses this memory: otherwise paper-grid's
    # peak RSS rose by 1-2 MB.
    del relevant, known, n_relevant, rows, hit, ranks, ideal, discounts, dcg, n_hits, idcg
    per_user = {test.user_ids[user]: UserMetrics(*row)
                for user, row in zip(users.tolist(), metrics)}
    means = (mean_of(per_user, field) for field in range(3))
    return MetricReport(n, mode, per_user, *means, preset, seed)


def mean_of(per_user: dict, field: int) -> float:
    """The mean of field ``field`` (0 nDCG, 1 precision, 2 recall) over the
    users of ``per_user``, 0.0 for none.  ``math.fsum`` sums exactly, so the
    users' order does not change the bits."""
    return math.fsum(m[field] for m in per_user.values()) / max(len(per_user), 1)


def evaluate(
    recs: Recommendations,
    test: InteractionDataset,
    n: int,
    mode: str,
    preset: str | None = None,
    seed: int | None = None,
) -> MetricReport:
    """Score recommendation lists against a test dataset on the same id universe.

    Users are keyed by external id in the report; see :func:`report_from_gains`.
    """
    return report_from_gains(test, recs.users, recs.items, recs.sizes, n, mode, preset, seed)
