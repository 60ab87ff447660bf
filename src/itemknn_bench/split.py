"""Deterministic per-user holdout splitting of an implicit dataset.

The split must be bit-reproducible across platforms and thread counts, so it
uses a fully pinned PRNG instead of any library's seed semantics: each user
gets an independent splitmix64 stream seeded with
``seed XOR (dense_user_index * 0x9E3779B97F4A7C15 mod 2**64)``, and that
stream drives a Fisher-Yates shuffle of the user's interactions in canonical
order (timestamp ascending, ties by dense item index ascending).  The first
``ceil(train_ratio * n)`` shuffled interactions go to train, the rest to test.

The shuffle runs for all users at once.  Draw t of a stream seeded s is
``mix(s + (t+1) * 0x9E3779B97F4A7C15 mod 2**64)``, so step t of every
user's shuffle is one vectorised draw and one vectorised swap.  Only the
steps that fill the test positions are run: Fisher-Yates fixes positions
from the end, and the later steps only permute the train positions, whose
membership is already settled.

The canonical order of all rows (user, timestamp, item ascending, ties by
row) is ``np.lexsort``'s, built by :func:`canonical_order` from two stable
integer sorts, in about a quarter of the lexsort's time at 1M rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError
from .ingest import InteractionDataset, save_interactions

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    """splitmix64's output mix, of a Python int or of a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 PRNG (Steele, Lea & Flood); 64-bit wraparound arithmetic.

    The split draws through :func:`splitmix64_draw`; the scalar stream
    generates the benchmark's input files.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)


def splitmix64_draw(seeds: np.ndarray, t: int) -> np.ndarray:
    """Draw ``t`` (from 0) of the splitmix64 streams seeded ``seeds`` (uint64).

    Equal to the (t+1)-th ``SplitMix64(seed).next_u64()`` of each seed; the
    uint64 arithmetic wraps modulo 2**64 as the scalar masks do.
    """
    step = np.uint64((t + 1) * _GOLDEN & _MASK64)
    with np.errstate(over="ignore"):
        return _mix(np.asarray(seeds, dtype=np.uint64) + step)


@dataclass(frozen=True, slots=True)
class SplitConfig:
    train_ratio: float = 0.8
    seed: int = 42

    def __post_init__(self):
        if not (0.0 < self.train_ratio <= 1.0):
            raise ValueError(f"train_ratio must be in (0, 1], got {self.train_ratio}")


@dataclass(frozen=True)
class SplitPair:
    """Train/test partition sharing the source dataset's id lists."""

    train: InteractionDataset
    test: InteractionDataset


def split_holdout(ds: InteractionDataset, cfg: SplitConfig) -> SplitPair:
    """Split each user's interactions into train/test by ``cfg.train_ratio``.

    For a user with n interactions exactly ``ceil(train_ratio * n)`` go to
    train, so every user keeps at least one training interaction; users whose
    test side is empty simply never show up in the test interactions.  Both
    outputs list their rows in canonical order (user, timestamp, item
    ascending) and share the source id lists.

    Raises ``ContractError`` if the dataset is not implicit.
    """
    if not ds.is_implicit():
        raise ContractError("split_holdout requires an implicit dataset (all ratings 1)")

    canonical = canonical_order(ds)
    owner = ds.users[canonical]
    sizes = np.bincount(owner, minlength=ds.n_users)
    starts = np.cumsum(sizes) - sizes
    n_train = np.ceil(cfg.train_ratio * sizes).astype(np.int64)
    n_test = sizes - n_train
    seeds = np.uint64(cfg.seed & _MASK64) ^ (
        np.arange(ds.n_users, dtype=np.uint64) * np.uint64(_GOLDEN)
    )

    # slot[p]: the canonical row at shuffled position p.  Step t swaps
    # position n-1-t with j = draw mod (n-t).  The modulo draw is biased in
    # general, negligibly at per-user sizes; what matters is that it is pinned.
    slot = np.arange(ds.n_interactions)
    for t in range(n_test.max(initial=0)):
        users = np.flatnonzero(n_test > t)
        i = starts[users] + sizes[users] - 1 - t
        draws = splitmix64_draw(seeds[users], t) % (sizes[users] - t).astype(np.uint64)
        j = starts[users] + draws.astype(np.int64)
        slot[i], slot[j] = slot[j], slot[i]

    in_test = np.zeros(ds.n_interactions, dtype=bool)
    in_test[slot[np.arange(ds.n_interactions) - starts[owner] >= n_train[owner]]] = True
    # Test side first: experiment frees the train side once its matrix is
    # built, and allocated last, it lies at the top of the heap, from where
    # the allocator can hand its pages back instead of keeping them resident.
    test = ds.take(canonical[in_test])
    return SplitPair(ds.take(canonical[~in_test]), test)


def canonical_order(ds: InteractionDataset) -> np.ndarray:
    """The rows by user, timestamp and item ascending, ties by row: the order of
    ``np.lexsort((ds.items, ds.timestamps, ds.users))``, from two stable integer
    sorts.  The first sorts (timestamp rank, item) as one int64 key, the second
    the users as the smallest unsigned type, which numpy radix-sorts when it
    is 16 bits wide or less."""
    _, key = np.unique(ds.timestamps, return_inverse=True)  # -0.0 and 0.0 share a rank
    key *= ds.n_items
    key += ds.items
    canonical = np.argsort(key, kind="stable")
    del key
    users = ds.users[canonical].astype(np.min_scalar_type(ds.n_users))
    return canonical[np.argsort(users, kind="stable")]


def save_split(pair: SplitPair, out_dir: str | Path, stem: str) -> tuple[Path, Path]:
    """Persist a split as ``<stem>.train.inter`` / ``<stem>.test.inter``."""
    out_dir = Path(out_dir)
    train_path = save_interactions(pair.train, out_dir / f"{stem}.train.inter")
    test_path = save_interactions(pair.test, out_dir / f"{stem}.test.inter")
    return train_path, test_path
