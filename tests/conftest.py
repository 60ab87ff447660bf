"""Shared fixtures: random implicit datasets and independent brute-force oracles.

The oracles deliberately avoid the package's sparse code paths: dense double
loops over dict-of-set structures, literal series summation for the metrics.
"""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

import pytest

from itemknn_bench.ingest import Interaction, InteractionDataset


def make_implicit_dataset(
    rng: random.Random, max_users: int = 30, max_items: int = 20
) -> InteractionDataset:
    """Random implicit dataset honoring post-ingest invariants (no dup pairs)."""
    n_users = rng.randint(2, max_users)
    n_items = rng.randint(2, max_items)
    rows = []
    for u in range(n_users):
        size = rng.randint(1, n_items)
        for i in rng.sample(range(n_items), size):
            rows.append(Interaction(f"u{u}", f"i{i}", 1.0, float(rng.randint(0, 50))))
    rng.shuffle(rows)
    return InteractionDataset.from_interactions(rows)


def users_per_item(ds: InteractionDataset) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {i: set() for i in range(ds.n_items)}
    for r in ds.interactions:
        out[ds.item_index.dense(r.item)].add(ds.user_index.dense(r.user))
    return out


def dense_cosine_oracle(ds: InteractionDataset) -> list[list[float]]:
    """Dense item-item cosine by double loop over user sets; zero diagonal."""
    by_item = users_per_item(ds)
    n = ds.n_items
    sim = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or not by_item[i] or not by_item[j]:
                continue
            shared = len(by_item[i] & by_item[j])
            if shared:
                sim[i][j] = shared / math.sqrt(len(by_item[i]) * len(by_item[j]))
    return sim


def dense_truncate_oracle(sim: list[list[float]], k: int) -> list[list[float]]:
    """Keep the k largest per row, ties toward the smaller column."""
    n = len(sim)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        ranked = sorted(
            (j for j in range(n) if sim[i][j] > 0.0), key=lambda j: (-sim[i][j], j)
        )
        for j in ranked[:k]:
            out[i][j] = sim[i][j]
    return out


def brute_scores(
    sim: list[list[float]], profile: set[int], kind: str, k: int | None = None
) -> list[float]:
    """Score all candidates per the declared gather-then-aggregate semantics."""
    n = len(sim)
    scores = []
    for i in range(n):
        gathered = sorted((sim[i][j] for j in profile), reverse=True)
        if kind == "profile-topk":
            gathered = gathered[:k]
        scores.append(sum(gathered))
    return scores


def in_order_scores(
    sim: list[list[float]], profile: set[int], kind: str, k: int | None = None
) -> list[float]:
    """Score all candidates exactly as the scoring contract words it.

    Select the addends by sorted ``(-value, j)`` (all of them for sum-all,
    the first k for profile-topk), then add the selected values left to
    right in ascending j, starting from 0.0.  Unlike :func:`brute_scores`
    this fixes the summation order, so scores can be compared with ``==``.
    """
    scores = []
    for row in sim:
        ranked = sorted(profile, key=lambda j: (-row[j], j))
        if kind == "profile-topk":
            ranked = ranked[:k]
        total = 0.0
        for j in sorted(ranked):
            total += row[j]
        scores.append(total)
    return scores


def brute_dcg(gains) -> float:
    total = 0.0
    for pos, rel in enumerate(gains, start=1):
        total += (2.0**rel - 1.0) / math.log2(pos + 1)
    return total


def brute_idcg(m: int) -> float:
    total = 0.0
    for pos in range(1, m + 1):
        total += 1.0 / math.log2(pos + 1)
    return total


def brute_ndcg(gains, n_relevant: int, n: int, mode: str) -> float:
    m = min(n, n_relevant) if mode == "truncated" else n
    return brute_dcg(gains) / brute_idcg(m)


# --- ML-100K discovery -------------------------------------------------------
#
# The replication criteria need the real MovieLens-100K file, which this
# repository does not ship (and deliberately does not download).  Tests that
# need it look in $ITEMKNN_BENCH_DATA (default: ./data), accepting either the
# atomic ml-100k.inter layout or the classic u.data, and skip when absent.

ML100K_HEADER = "user_id:token\titem_id:token\trating:float\ttimestamp:float\n"


def find_ml100k() -> Path | None:
    root = Path(os.environ.get("ITEMKNN_BENCH_DATA", Path(__file__).parent.parent / "data"))
    for name in ("ml-100k.inter", "ml-100k/ml-100k.inter", "u.data", "ml-100k/u.data"):
        candidate = root / name
        if candidate.exists():
            return candidate
    return None


@pytest.fixture(scope="session")
def ml100k_path(tmp_path_factory) -> Path:
    """Path to an atomic-format ML-100K file; skips the test when unavailable."""
    found = find_ml100k()
    if found is None:
        pytest.skip(
            "ML-100K not available: place ml-100k.inter or u.data under ./data "
            "(or $ITEMKNN_BENCH_DATA); see README"
        )
    if found.name == "u.data":
        # classic layout: headerless TSV with the same four columns
        atomic = tmp_path_factory.mktemp("ml100k") / "ml-100k.inter"
        atomic.write_text(ML100K_HEADER + found.read_text(encoding="utf-8"), encoding="utf-8")
        return atomic
    return found
