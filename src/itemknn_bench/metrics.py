"""Ranking metrics: nDCG under two IDCG semantics, precision, recall.

The two IDCG semantics reflect a real divergence between evaluation stacks:

* ``truncated``: the ideal list length is min(cutoff, number of relevant
  items), so a user with fewer test items than the cutoff can still reach
  nDCG 1.0.
* ``fixed-k``: the ideal list is always cutoff positions long, which caps
  nDCG below 1.0 whenever the user has fewer relevant items than the cutoff.

Relevance is binary throughout this artifact (implicit feedback): a listed
item is a hit, gain 1, when it is among its user's test items.  Both the
experiment and the ``evaluate`` subcommand go through :func:`user_gains`
and :func:`report_from_gains`, which work on all lists at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError
from .ingest import InteractionDataset
from .recommend import RecommendationList, _ranks

IDCG_TRUNCATED = "truncated"
IDCG_FIXED_K = "fixed-k"
IDCG_MODES = (IDCG_TRUNCATED, IDCG_FIXED_K)


class UserMetrics(NamedTuple):
    ndcg: float
    precision: float
    recall: float


@dataclass
class MetricReport:
    """Per-user and mean metric values under one declared configuration."""

    n: int
    idcg_mode: str
    preset: str | None = None
    seed: int | None = None
    per_user: dict[str, UserMetrics] = field(default_factory=dict)
    mean_ndcg: float = 0.0
    mean_precision: float = 0.0
    mean_recall: float = 0.0

    @property
    def n_users(self) -> int:
        return len(self.per_user)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "idcg_mode": self.idcg_mode,
            "preset": self.preset,
            "seed": self.seed,
            "mean_ndcg": self.mean_ndcg,
            "mean_precision": self.mean_precision,
            "mean_recall": self.mean_recall,
            "n_users": self.n_users,
            "per_user": {u: list(m) for u, m in self.per_user.items()},
        }


def user_gains(
    test: InteractionDataset, users: np.ndarray, items: np.ndarray, sizes: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The hits of ranked lists against ``test``, and each list's user's relevant count.

    List r belongs to user code ``users[r]`` and holds the next ``sizes[r]``
    codes of ``items``, best first; every code is one of ``test``'s, and an
    item code of -1 is an item ``test`` lacks, which is a miss.  Returns a
    bool ``hits`` block of ``len(users)`` x ``n`` (False past a short list's
    end) and ``n_relevant``, the number of distinct test items of each
    list's user.  Every list's user must hold at least one test interaction
    and no list may be longer than ``n`` (contract).
    """
    if n < 1:
        raise ContractError(f"cutoff n must be >= 1, got {n}")
    if len(sizes) and sizes.max() > n:
        raise ContractError(f"a list of {sizes.max()} items is longer than the cutoff {n}")
    relevant = np.unique(test.users * test.n_items + test.items)  # one key per test pair
    counts = np.bincount(relevant // test.n_items, minlength=test.n_users)
    known = (users >= 0) & (users < test.n_users)
    n_relevant = np.zeros(len(users), dtype=np.int64)
    n_relevant[known] = counts[users[known]]
    if not n_relevant.all():
        user = users[np.argmin(n_relevant)]
        name = test.user_ids[user] if 0 <= user < test.n_users else int(user)
        raise ContractError(f"user {name!r} has a recommendation list but no test interactions")
    rows = np.repeat(np.arange(len(users)), sizes)
    # A -1 item gets key -1, which no pair has; user * n_items - 1 would be a
    # pair of the previous user.
    keys = np.where(items >= 0, users[rows] * test.n_items + items, -1)
    hits = np.zeros((len(users), n), dtype=bool)
    hits[rows, _ranks(sizes) - 1] = np.isin(keys, relevant)
    return hits, n_relevant


def report_from_gains(
    users: Sequence[str], hits: np.ndarray, n_relevant: np.ndarray, n: int, mode: str
) -> MetricReport:
    """Assemble a report from the :func:`user_gains` arrays of the named users.

    DCG is the last column of a row-wise ``np.cumsum`` of the hits times the
    discounts ``1 / log2(i + 1)``, and IDCG a prefix of the discounts'
    cumsum: both add left to right from 0.0, as the series reads.  Means are
    arithmetic means over exactly the evaluated users, computed with exact
    summation so they are independent of user order.
    """
    if mode not in IDCG_MODES:
        raise ValueError(f"unknown IDCG mode {mode!r} (expected one of {IDCG_MODES})")
    if (n_relevant < 1).any():
        raise ContractError("every evaluated user needs n_relevant >= 1")
    discounts = np.array([1.0 / math.log2(i + 1.0) for i in range(1, n + 1)])
    dcg = np.cumsum(hits * discounts, axis=1)[:, -1]
    ideal = np.minimum(n_relevant, n) if mode == IDCG_TRUNCATED else np.full(len(hits), n)
    n_hits = hits.sum(axis=1)
    ndcg = dcg / np.cumsum(discounts)[ideal - 1]
    precision = n_hits / n
    recall = np.minimum(n_hits / n_relevant, 1.0)
    rows = list(zip(ndcg.tolist(), precision.tolist(), recall.tolist()))
    # Freed before the report's objects are allocated above them on the heap,
    # so that the next seed's cosine reuses this memory: otherwise paper-grid's
    # peak RSS rose by 1-2 MB.
    del dcg, ideal, n_hits, ndcg, precision, recall
    report = MetricReport(n=n, idcg_mode=mode)
    report.per_user = {user: UserMetrics(*row) for user, row in zip(users, rows)}
    if report.per_user:
        count = len(report.per_user)
        values = report.per_user.values()
        report.mean_ndcg = math.fsum(m.ndcg for m in values) / count
        report.mean_precision = math.fsum(m.precision for m in values) / count
        report.mean_recall = math.fsum(m.recall for m in values) / count
    return report


def evaluate(
    recs: list[RecommendationList],
    test: InteractionDataset,
    n: int,
    mode: str,
    preset: str | None = None,
    seed: int | None = None,
) -> MetricReport:
    """Score recommendation lists against a test dataset on the same id universe.

    Users are keyed by external id in the report; see :func:`user_gains`.
    """
    users = np.array([rl.user for rl in recs], dtype=np.int64)
    items = np.array([item for rl in recs for item, _ in rl.entries], dtype=np.int64)
    sizes = np.array([len(rl.entries) for rl in recs], dtype=np.int64)
    hits, n_relevant = user_gains(test, users, items, sizes, n)
    names = [test.user_ids[user] for user in users.tolist()]
    report = report_from_gains(names, hits, n_relevant, n, mode)
    report.preset = preset
    report.seed = seed
    return report
