"""Pinned synthetic interaction files for the benchmark workloads.

Every random draw comes from the package's own ``SplitMix64``, so a file
depends only on (shape, seed) and never drifts with the numpy version.  User
activity and item popularity follow power laws; ratings follow MovieLens
marginals, so about 55% of rows pass the ``> 3`` threshold.  Why each
workload uses the shape it does is recorded in ``workloads.py``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from itemknn_bench.split import SplitMix64


@dataclass(frozen=True)
class Shape:
    """Size and skew of one synthetic explicit-rating file."""

    name: str
    n_users: int
    n_items: int
    n_ratings: int
    min_per_user: int = 20


ML100K = Shape("synth-100k", n_users=943, n_items=1682, n_ratings=100_000)
ML1M = Shape("synth-1m", n_users=6040, n_items=3706, n_ratings=1_000_209)
SHAPES = {s.name: s for s in (ML100K, ML1M)}

# MovieLens-100K star marginals for 1..5; P(rating > 3) = 0.554.
RATING_PROBS = (0.061, 0.114, 0.271, 0.342, 0.212)
_RATING_BITS = 11
_MAX_USER_FRAC = 0.4  # cap on a user's share of the catalog
_USER_EXPONENT = 0.4  # activity weight of the r-th user: r ** -exponent
_ITEM_EXPONENT = 0.3  # popularity of the r-th item: r ** -exponent ...
_ITEM_TAIL = 0.2  # ... * exp(-r / (tail * n_items)), which leaves rare items
_TIME_ORIGIN = 874_724_710  # first ML-100K timestamp
_TIME_SPREAD = 7 * 30 * 86_400


def _power_weights(n: int, exponent: float, tail: float = math.inf) -> list[float]:
    return [(r + 1) ** -exponent * math.exp(-r / (tail * n)) for r in range(n)]


def _shuffled(n: int, rng: SplitMix64) -> list[int]:
    out = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _user_counts(shape: Shape) -> list[int]:
    """Ratings per activity rank: a floor plus a capped power-law share."""
    cap = int(_MAX_USER_FRAC * shape.n_items)
    if not shape.min_per_user * shape.n_users <= shape.n_ratings <= cap * shape.n_users:
        raise ValueError(f"{shape.name}: {shape.n_ratings} ratings do not fit "
                         f"{shape.min_per_user}..{cap} per user")
    extra = shape.n_ratings - shape.min_per_user * shape.n_users
    weights = _power_weights(shape.n_users, _USER_EXPONENT)
    total = sum(weights)
    counts = [min(cap, shape.min_per_user + int(extra * w / total)) for w in weights]
    short = shape.n_ratings - sum(counts)
    r = 0
    while short > 0:  # hand the rounding and capping remainder out by rank
        if counts[r] < cap:
            counts[r] += 1
            short -= 1
        r = (r + 1) % shape.n_users
    return counts


def generate_rows(shape: Shape, seed: int) -> list[tuple[int, int, int, int]]:
    """(user, item, rating, timestamp) rows, grouped by user in a seeded order.

    Each user draws distinct items by popularity (rejection on repeats); one
    64-bit draw gives both the item (high 53 bits) and the rating (low bits).
    """
    rng = SplitMix64(seed)
    users = _shuffled(shape.n_users, rng)  # activity rank -> user id
    items = _shuffled(shape.n_items, rng)  # popularity rank -> item id
    cum: list[float] = []
    acc = 0.0
    for w in _power_weights(shape.n_items, _ITEM_EXPONENT, _ITEM_TAIL):
        acc += w
        cum.append(acc)
    scale = acc / float(1 << 53)
    rating_cum = []
    acc = 0.0
    for p in RATING_PROBS:
        acc += p
        rating_cum.append(round(acc * (1 << _RATING_BITS)))
    rating_mask = (1 << _RATING_BITS) - 1
    last_rank = shape.n_items - 1

    rows: list[tuple[int, int, int, int]] = []
    for user, count in zip(users, _user_counts(shape)):
        start = _TIME_ORIGIN + rng.next_u64() % _TIME_SPREAD
        taken: set[int] = set()
        while len(taken) < count:
            x = rng.next_u64()
            rank = min(bisect.bisect_right(cum, (x >> _RATING_BITS) * scale), last_rank)
            if rank in taken:
                continue
            taken.add(rank)
            rating = bisect.bisect_right(rating_cum, x & rating_mask) + 1
            rows.append((user, items[rank], rating, start + 60 * len(taken)))
    return rows


def _counts(rows: list[tuple[int, int, int, int]]) -> dict[str, int]:
    return {
        "n_users": len({r[0] for r in rows}),
        "n_items": len({r[1] for r in rows}),
        "n_interactions": len(rows),
    }


def write_dataset(shape: Shape, seed: int, path: Path) -> dict:
    """Write the atomic-format file for (shape, seed).

    Returns its sha256 and the user/item/row counts before and after the
    ``rating > 3`` threshold, counted here independently of the package
    (pairs are distinct by construction, so nothing collapses).
    """
    rows = generate_rows(shape, seed)
    lines = ["user_id:token\titem_id:token\trating:float\ttimestamp:float\n"]
    lines.extend(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows)
    data = "".join(lines).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "before": _counts(rows),
        "after": _counts([r for r in rows if r[2] > 3]),
    }
