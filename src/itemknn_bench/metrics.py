"""Ranking metrics: DCG, nDCG under two IDCG semantics, precision, recall.

The two IDCG semantics reflect a real divergence between evaluation stacks:

* ``truncated``: the ideal list length is min(cutoff, number of relevant
  items), so a user with fewer test items than the cutoff can still reach
  nDCG 1.0.
* ``fixed-k``: the ideal list is always cutoff positions long, which caps
  nDCG below 1.0 whenever the user has fewer relevant items than the cutoff.

Relevance is binary throughout this artifact (implicit feedback), although
:func:`dcg` implements the general (2**rel - 1) gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ContractError
from .ingest import InteractionDataset
from .knn import build_matrix
from .recommend import RecommendationList

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

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        return cls(
            n=d["n"],
            idcg_mode=d["idcg_mode"],
            preset=d["preset"],
            seed=d["seed"],
            per_user={u: UserMetrics(*vals) for u, vals in d["per_user"].items()},
            mean_ndcg=d["mean_ndcg"],
            mean_precision=d["mean_precision"],
            mean_recall=d["mean_recall"],
        )


def _check_idcg_mode(mode: str) -> None:
    if mode not in IDCG_MODES:
        raise ValueError(f"unknown IDCG mode {mode!r} (expected one of {IDCG_MODES})")


def dcg(gains: Sequence[float]) -> float:
    """Discounted cumulative gain: sum of (2**rel_i - 1) / log2(i + 1), i from 1."""
    return sum(
        (2.0**rel - 1.0) / math.log2(i + 1.0) for i, rel in enumerate(gains, start=1)
    )


def _ideal_dcg(m: int) -> float:
    # Binary ideal: gain 1 at each of the first m positions.
    return sum(1.0 / math.log2(i + 1.0) for i in range(1, m + 1))


def ndcg_at_n(gains: Sequence[float], n_relevant: int, n: int, mode: str) -> float:
    """nDCG at cutoff ``n`` for a gains vector aligned with a ranked list.

    ``n_relevant`` is the user's total number of relevant (test) items and
    must be >= 1; callers exclude users without test items.  The IDCG covers
    min(n, n_relevant) positions in truncated mode and exactly n positions in
    fixed-k mode.
    """
    _check_idcg_mode(mode)
    if n_relevant < 1:
        raise ContractError("ndcg_at_n requires n_relevant >= 1")
    if len(gains) > n:
        raise ContractError(f"gains vector longer ({len(gains)}) than cutoff ({n})")
    m = min(n, n_relevant) if mode == IDCG_TRUNCATED else n
    return dcg(gains) / _ideal_dcg(m)


def precision_at_n(gains: Sequence[float], n: int) -> float:
    """Fraction of the n slots holding a hit; the denominator stays n for short lists."""
    return sum(1 for g in gains if g > 0) / n


def recall_at_n(gains: Sequence[float], n_relevant: int) -> float:
    """Fraction of the user's relevant items retrieved, capped at 1."""
    if n_relevant < 1:
        raise ContractError("recall_at_n requires n_relevant >= 1")
    return min(sum(1 for g in gains if g > 0) / n_relevant, 1.0)


def report_from_gains(
    per_user: Iterable[tuple[str, Sequence[float], int]], n: int, mode: str
) -> MetricReport:
    """Assemble a report from (user, gains, n_relevant) triples.

    Means are arithmetic means over exactly the evaluated users, computed
    with exact summation so they are independent of user order.
    """
    _check_idcg_mode(mode)
    report = MetricReport(n=n, idcg_mode=mode)
    for user, gains, n_relevant in per_user:
        report.per_user[user] = UserMetrics(
            ndcg=ndcg_at_n(gains, n_relevant, n, mode),
            precision=precision_at_n(gains, n),
            recall=recall_at_n(gains, n_relevant),
        )
    if report.per_user:
        count = len(report.per_user)
        values = report.per_user.values()
        report.mean_ndcg = math.fsum(m.ndcg for m in values) / count
        report.mean_precision = math.fsum(m.precision for m in values) / count
        report.mean_recall = math.fsum(m.recall for m in values) / count
    return report


def user_gains(
    test: InteractionDataset, ranked: Iterable[tuple[str, Sequence[str]]]
) -> Iterator[tuple[str, list[float], int]]:
    """Yield (user, gains, n_relevant) for each (user, ranked items) list.

    Users and items are external ids.  A recommended item earns gain 1 when
    it is among that user's test items.  Every list's user must hold at
    least one test interaction (contract).
    """
    x = build_matrix(test)
    test_items = {
        user: {test.item_ids[i] for i in x.indices[x.indptr[k] : x.indptr[k + 1]]}
        for k, user in enumerate(test.user_ids)
    }
    for user, items in ranked:
        relevant = test_items.get(user)
        if not relevant:
            raise ContractError(f"user {user!r} has a recommendation list but no test interactions")
        yield user, [1.0 if item in relevant else 0.0 for item in items], len(relevant)


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
    # A user outside the universe keeps its dense index, which no test row has.
    ranked = (
        (
            test.user_ids[rl.user] if 0 <= rl.user < test.n_users else rl.user,
            [test.item_ids[item] for item, _ in rl.entries],
        )
        for rl in recs
    )
    report = report_from_gains(user_gains(test, ranked), n, mode)
    report.preset = preset
    report.seed = seed
    return report
