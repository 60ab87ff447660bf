from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itemknn_bench.errors import ContractError
from itemknn_bench.ingest import (
    ImplicitThreshold,
    InteractionDataset,
    load_interactions,
    to_implicit,
)
from itemknn_bench.split import (
    canonical_order,
    save_split,
    split_holdout,
    splitmix64_draw,
)

from conftest import (
    Interaction,
    SplitMix64,
    as_rows,
    dataset_from_rows,
    make_implicit_dataset,
    oracle_split,
    oracle_to_implicit,
    pair_set,
)


def single_user_ds(n: int) -> InteractionDataset:
    rows = [Interaction("u", f"i{j}", 1.0, float(j)) for j in range(n)]
    return dataset_from_rows(rows)


# Published outputs of the splitmix64 reference implementation, state 0.
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_reference_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX64_SEED0


def test_splitmix64_draw_reference_vectors():
    seed = np.array([0], dtype=np.uint64)
    assert [int(splitmix64_draw(seed, t)[0]) for t in range(3)] == SPLITMIX64_SEED0


def test_split_holdout_validates_ratio():
    ds = single_user_ds(3)
    with pytest.raises(ValueError, match=r"train_ratio must be in \(0, 1\], got 0.0"):
        split_holdout(ds, 0.0, 1)
    with pytest.raises(ValueError, match=r"train_ratio must be in \(0, 1\], got 1.5"):
        split_holdout(ds, 1.5, 1)


def test_ceiling_rule_ten_interactions():
    train, test = split_holdout(single_user_ds(10), 0.8, 42)
    assert train.n_interactions == 8
    assert test.n_interactions == 2


def test_single_interaction_user_absent_from_test():
    train, test = split_holdout(single_user_ds(1), 0.8, 42)
    assert train.n_interactions == 1
    assert test.n_interactions == 0


def test_requires_implicit():
    ds = dataset_from_rows([Interaction("u", "i", 4.0, 0.0)])
    with pytest.raises(ContractError):
        split_holdout(ds, 0.8, 42)


def test_deterministic_repeat():
    ds = make_implicit_dataset(random.Random(100))
    train, test = split_holdout(ds, 0.8, 21)
    again = split_holdout(ds, 0.8, 21)
    assert again[0] == train
    assert again[1] == test


def test_seeds_produce_different_memberships():
    rng = random.Random(0)
    rows = []
    for u in range(100):
        for i in rng.sample(range(40), 10):
            rows.append(Interaction(f"u{u}", f"i{i}", 1.0, float(rng.randint(0, 99))))
    ds = dataset_from_rows(rows)
    t21 = pair_set(split_holdout(ds, 0.8, 21)[1])
    t42 = pair_set(split_holdout(ds, 0.8, 42)[1])
    assert t21 != t42


def test_partition_and_ceiling_per_user():
    rng = random.Random(1)
    for _ in range(25):
        ds = make_implicit_dataset(rng)
        ratio = rng.choice([0.5, 0.8, 1.0])
        train, test = split_holdout(ds, ratio, rng.randint(0, 2**63))
        train_pairs = pair_set(train)
        test_pairs = pair_set(test)
        assert train_pairs | test_pairs == pair_set(ds)
        assert not (train_pairs & test_pairs)
        # per-user counts: exactly ceil(ratio * n) in train
        totals = Counter(r[0] for r in as_rows(ds))
        trains = Counter(r[0] for r in as_rows(train))
        for user, n in totals.items():
            assert trains[user] == math.ceil(ratio * n)
        # no test-only users
        assert {r[0] for r in as_rows(test)} <= set(trains)


def test_shared_index_universe():
    ds = make_implicit_dataset(random.Random(2))
    train, test = split_holdout(ds, 0.8, 84)
    assert train.user_ids is ds.user_ids
    assert test.item_ids is ds.item_ids


def test_save_split_round_trips(tmp_path):
    ds = make_implicit_dataset(random.Random(3))
    train, test = split_holdout(ds, 0.8, 42)
    train_path, test_path = save_split(train, test, tmp_path, "toy.seed42")
    assert train_path.name == "toy.seed42.train.inter"
    assert test_path.name == "toy.seed42.test.inter"
    assert as_rows(load_interactions(train_path)) == as_rows(train)
    assert as_rows(load_interactions(test_path)) == as_rows(test)


def test_byte_identical_persisted_split(tmp_path):
    ds = make_implicit_dataset(random.Random(4))
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    pa = save_split(*split_holdout(ds, 0.8, 21), a_dir, "x")
    pb = save_split(*split_holdout(ds, 0.8, 21), b_dir, "x")
    for pth_a, pth_b in zip(pa, pb):
        assert pth_a.read_bytes() == pth_b.read_bytes()


def test_vectorised_draws_match_scalar_stream():
    seeds = [0, 1, 42, 2**63 + 5, 2**64 - 1] + [(u * 0x9E3779B97F4A7C15) % 2**64 ^ 84 for u in range(5)]
    streams = [SplitMix64(seed) for seed in seeds]
    as_array = np.array(seeds, dtype=np.uint64)
    for t in range(1000):
        want = [rng.next_u64() for rng in streams]
        assert splitmix64_draw(as_array, t).tolist() == want


def golden_dataset() -> InteractionDataset:
    return dataset_from_rows(
        Interaction(*row)
        for row in [
            ("ann", "m3", 1.0, 5.0), ("bob", "m1", 1.0, 2.0), ("ann", "m1", 1.0, 5.0),
            ("ann", "m7", 1.0, 1.0), ("cat", "m2", 1.0, 9.0), ("bob", "m3", 1.0, 2.0),
            ("ann", "m2", 1.0, 3.0), ("bob", "m7", 1.0, 0.0), ("ann", "m9", 1.0, 5.0),
            ("dan", "m1", 1.0, 4.0), ("bob", "m9", 1.0, 7.0), ("ann", "m4", 1.0, 0.5),
            ("bob", "m2", 1.0, 2.0), ("ann", "m5", 1.0, 8.0), ("ann", "m6", 1.0, 5.0),
            ("bob", "m4", 1.0, 1.0),
        ]
    )


# Recorded with the row-at-a-time implementation this module replaced.
GOLDEN_SPLITS = {
    (42, 0.8): (
        "ann m4 0.5, ann m7 1, ann m2 3, ann m3 5, ann m1 5, ann m6 5, ann m5 8, bob m7 0, "
        "bob m3 2, bob m1 2, bob m2 2, bob m9 7, cat m2 9, dan m1 4",
        "ann m9 5, bob m4 1",
    ),
    (7, 0.5): (
        "ann m7 1, ann m2 3, ann m1 5, ann m9 5, bob m7 0, bob m4 1, bob m1 2, cat m2 9, dan m1 4",
        "ann m4 0.5, ann m3 5, ann m6 5, ann m5 8, bob m3 2, bob m2 2, bob m9 7",
    ),
}


@pytest.mark.parametrize("seed,ratio", sorted(GOLDEN_SPLITS))
def test_golden_split(seed, ratio):
    ds = golden_dataset()
    train, test = split_holdout(ds, ratio, seed)
    for side, want in zip((train, test), GOLDEN_SPLITS[(seed, ratio)]):
        assert ", ".join(f"{u} {i} {t:g}" for u, i, _, t in as_rows(side)) == want
        assert side.user_ids == ["ann", "bob", "cat", "dan"]


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.integers(0, 9),
            st.integers(0, 5),
            st.sampled_from([0.0, -0.0, 1.0, 2.5, 3.0, 100.0]),
        ),
        max_size=60,
    ),
    ratio=st.floats(0.5, 1.0),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    threshold=st.sampled_from([ImplicitThreshold(2, "gt"), ImplicitThreshold(3, "ge")]),
)
def test_property_columnar_layers_match_row_oracles(data, ratio, seeds, threshold):
    # Small id and timestamp ranges give duplicate pairs with differing
    # timestamps, equal timestamps, and single-interaction users.
    # Rows compare by repr, so that -0.0 and 0.0 timestamps differ.
    raw = [(f"u{u}", f"i{i}", float(r), t) for u, i, r, t in data]
    implicit = to_implicit(dataset_from_rows(raw), threshold)
    want_rows, want_users, want_items = oracle_to_implicit(raw, threshold.passes)
    assert repr(as_rows(implicit)) == repr(want_rows)
    assert implicit.user_ids == want_users
    assert implicit.item_ids == want_items
    for seed in seeds:
        train, test = split_holdout(implicit, ratio, seed)
        want_train, want_test = oracle_split(want_rows, want_users, want_items, ratio, seed)
        assert repr(as_rows(train)) == repr(want_train)
        assert repr(as_rows(test)) == repr(want_test)
        assert train.user_ids == test.user_ids == want_users
        assert train.item_ids == test.item_ids == want_items


def tied_dataset(rng: np.random.Generator, n_rows: int, n_users: int, n_items: int,
                 times: list[float]) -> InteractionDataset:
    """Random columns over few timestamps, -0.0 beside 0.0, with repeated
    (user, timestamp, item) rows, so that ties go to the row."""
    return InteractionDataset(
        rng.integers(0, n_users, n_rows), rng.integers(0, n_items, n_rows), np.ones(n_rows),
        rng.choice(np.array(times), n_rows),
        [f"u{k}" for k in range(n_users)], [f"i{k}" for k in range(n_items)],
    )


@pytest.mark.parametrize(
    "n_rows, n_users, n_items, times",
    [
        (2000, 7, 5, [0.0, -0.0, 1.0]),
        (2000, 300, 3, [-0.0, 0.0, -1.5, 2.0, 1e300, -1e300]),
        (5000, 1, 1, [0.0, -0.0]),
        (200_000, 70_000, 40, [float(t) for t in range(-3, 4)] + [-0.0]),  # uint32 user keys
    ],
    ids=["ties", "signed-times", "one-user-one-item", "over-65536-users"],
)
def test_canonical_order_is_lexsort(n_rows, n_users, n_items, times):
    ds = tied_dataset(np.random.default_rng(n_rows + n_users), n_rows, n_users, n_items, times)
    want = np.lexsort((ds.items, ds.timestamps, ds.users))
    assert np.array_equal(canonical_order(ds), want)


def test_split_over_65536_users_matches_oracle():
    rng = random.Random(65537)
    rows = []
    for u in range(70_000):
        items = rng.sample(range(6), 1 if u % 50 else rng.randint(2, 6))
        rows += [(f"u{u}", f"i{i}", 1.0, rng.choice([0.0, -0.0, 1.0])) for i in items]
    rng.shuffle(rows)
    ds = dataset_from_rows(rows)
    train, test = split_holdout(ds, 0.5, 42)
    want_train, want_test = oracle_split(as_rows(ds), ds.user_ids, ds.item_ids, 0.5, 42)
    assert repr(as_rows(train)) == repr(want_train)
    assert repr(as_rows(test)) == repr(want_test)
    assert test.n_interactions > 0
