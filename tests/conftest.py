"""Shared fixtures: random implicit datasets and independent brute-force oracles.

The oracles deliberately avoid the package's sparse and columnar code paths:
dense double loops over dict-of-set structures, a per-line ``str.split``
loader, per-row loops over plain tuples for binarizing and splitting,
literal series summation for the metrics.
"""

from __future__ import annotations

import math
import os
import random
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
import pytest

from itemknn_bench.ingest import InteractionDataset
from itemknn_bench.knn import SimilarityMatrix, build_matrix
from itemknn_bench.recommend import Recommendations, recommend_all


class Interaction(NamedTuple):
    """One (user, item, rating, timestamp) row for :func:`dataset_from_rows`."""

    user: str
    item: str
    rating: float
    timestamp: float = 0.0


class SplitMix64:
    """Scalar splitmix64 PRNG (Steele, Lea & Flood), one Python int of state."""

    def __init__(self, seed: int):
        self.state = seed % 2**64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)


def dataset_from_rows(rows: Iterable[tuple]) -> InteractionDataset:
    """A dataset of (user, item, rating, timestamp) rows, dense codes in first-appearance order."""
    rows = list(rows)
    user_codes: dict[str, int] = {}
    item_codes: dict[str, int] = {}
    users = [user_codes.setdefault(row[0], len(user_codes)) for row in rows]
    items = [item_codes.setdefault(row[1], len(item_codes)) for row in rows]
    return InteractionDataset(
        np.array(users, dtype=np.int64),
        np.array(items, dtype=np.int64),
        np.array([row[2] for row in rows], dtype=np.float64),
        np.array([row[3] for row in rows], dtype=np.float64),
        list(user_codes),
        list(item_codes),
    )


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
    return dataset_from_rows(rows)


def as_rows(ds: InteractionDataset) -> list[tuple[str, str, float, float]]:
    """The dataset's rows as plain (user, item, rating, timestamp) tuples."""
    return [
        (ds.user_ids[u], ds.item_ids[i], rating, timestamp)
        for u, i, rating, timestamp in zip(
            ds.users.tolist(), ds.items.tolist(), ds.ratings.tolist(), ds.timestamps.tolist()
        )
    ]


def pair_set(ds: InteractionDataset) -> set[tuple[str, str]]:
    return {(user, item) for user, item, _, _ in as_rows(ds)}


def item_sets(ds: InteractionDataset) -> dict[int, set[int]]:
    """Dense user -> set of dense items, for every user holding a row."""
    out: dict[int, set[int]] = {}
    for u, i in zip(ds.users.tolist(), ds.items.tolist()):
        out.setdefault(u, set()).add(i)
    return out


def recommend_split(s, train, test, mode, n: int):
    """``recommend_all`` for every test user of a split, scored from its train side."""
    return recommend_all(s, build_matrix(train), mode, n, np.unique(test.users))


def as_recommendations(lists) -> Recommendations:
    """Hand-built ``RecommendationList``s as the columns ``recommend_all`` returns.

    A test input builder, not an oracle: ``list(as_recommendations(lists))``
    gives the lists back.
    """
    lists = list(lists)
    return Recommendations(
        np.array([rl.user for rl in lists], dtype=np.int64),
        np.array([len(rl.entries) for rl in lists], dtype=np.int64),
        np.array([item for rl in lists for item, _ in rl.entries], dtype=np.int64),
        np.array([score for rl in lists for _, score in rl.entries], dtype=np.float64),
    )


def entries_equal(a: SimilarityMatrix, b: SimilarityMatrix) -> bool:
    """The two matrices store the same entries: item count, CSR arrays and values."""
    return (
        a.n_items == b.n_items
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.vals, b.vals)
    )


def users_per_item(ds: InteractionDataset) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {i: set() for i in range(ds.n_items)}
    for u, i in zip(ds.users.tolist(), ds.items.tolist()):
        out[i].add(u)
    return out


def first_appearance(values) -> list:
    return list(dict.fromkeys(values))


class OracleLineError(ValueError):
    """The oracle loader's refusal of a file, at a 1-based line."""

    def __init__(self, line_no: int):
        super().__init__(f"line {line_no}")
        self.line_no = line_no


def oracle_load_interactions(
    path, format: str = "atomic", column_map: dict | None = None
) -> tuple[list[tuple], list[str], list[str]]:
    """Per-line reference loader: (rows, user ids, item ids) of an interaction file.

    Reads line by line with ``str.split``, in universal-newline text mode.
    Every line after the header is a row that must hold exactly one field
    per header field and no ``"``; its rating and timestamp must be ASCII
    without whitespace, ``_`` or a leading ``+``, go through ``float`` and
    be finite.  Raises :class:`OracleLineError` at the first line that
    breaks a rule.
    """
    sep = "\t" if format == "atomic" else ","
    columns = {"user": "user_id", "item": "item_id", "rating": "rating",
               "timestamp": "timestamp", **(column_map or {})}
    with open(path, encoding="utf-8") as fh:
        names = [h.split(":", 1)[0] if format == "atomic" else h
                 for h in fh.readline().rstrip("\n").split(sep)]
        at = {logical: names.index(columns[logical]) for logical in columns
              if columns[logical] in names}
        rows = []
        for line_no, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(sep)
            if len(fields) != len(names) or '"' in line:
                raise OracleLineError(line_no)
            numbers = []
            for logical in ("rating", "timestamp"):
                text = fields[at[logical]] if logical in at else "0"
                if not text.isascii() or text.startswith("+") or any(
                    c.isspace() or c == "_" for c in text
                ):
                    raise OracleLineError(line_no)
                try:
                    value = float(text)
                except ValueError:
                    raise OracleLineError(line_no) from None
                if not math.isfinite(value):
                    raise OracleLineError(line_no)
                numbers.append(value)
            rows.append((fields[at["user"]], fields[at["item"]], *numbers))
    return rows, first_appearance(r[0] for r in rows), first_appearance(r[1] for r in rows)


def oracle_table_bytes(header: str, blocks: Iterable[list]) -> bytes:
    """Reference text of a table: the header, then one tab-joined line per row.

    Each field is one Python string: an id column, (codes, ids), gives
    ``ids[code]``, an integer column ``str(int)`` and a float column
    ``"{:.17g}".format``.  Lines end in LF, and the text is UTF-8.
    """
    lines = [header]
    for block in blocks:
        fields = []
        for column in block:
            if isinstance(column, tuple):
                codes, ids = column
                fields.append([ids[c] for c in codes.tolist()])
            elif column.dtype.kind == "f":
                fields.append(["{:.17g}".format(v) for v in column.tolist()])
            else:
                fields.append([str(int(v)) for v in column.tolist()])
        lines += ["\t".join(row) for row in zip(*fields)]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def oracle_to_implicit(data: list[tuple], passes) -> tuple[list[tuple], list[str], list[str]]:
    """Per-row binarization: (rows, user ids, item ids) of the implicit dataset.

    A passing row is kept at its pair's first position; a later duplicate
    replaces its timestamp only when strictly earlier.
    """
    kept: list[tuple] = []
    seen: dict[tuple[str, str], int] = {}
    for user, item, rating, timestamp in data:
        if not passes(rating):
            continue
        at = seen.get((user, item))
        if at is None:
            seen[(user, item)] = len(kept)
            kept.append((user, item, 1.0, timestamp))
        elif timestamp < kept[at][3]:
            kept[at] = (user, item, 1.0, timestamp)
    return kept, first_appearance(r[0] for r in kept), first_appearance(r[1] for r in kept)


def oracle_split(
    data: list[tuple], user_ids: list[str], item_ids: list[str], ratio: float, seed: int
) -> tuple[list[tuple], list[tuple]]:
    """Per-user Fisher-Yates holdout with one scalar SplitMix64 per user.

    Each user's rows, in (timestamp, dense item) order, are shuffled by a
    stream seeded ``seed ^ (u * golden mod 2**64)``; the first
    ceil(ratio * n) go to train.  Both sides come back in user order, then
    (timestamp, dense item) order.
    """
    user_of = {u: k for k, u in enumerate(user_ids)}
    item_of = {i: k for k, i in enumerate(item_ids)}
    per_user: dict[int, list[tuple]] = {}
    for row in data:
        per_user.setdefault(user_of[row[0]], []).append(row)

    def canonical(row):
        return row[3], item_of[row[1]]

    train: list[tuple] = []
    test: list[tuple] = []
    for u in sorted(per_user):
        shuffled = sorted(per_user[u], key=canonical)
        rng = SplitMix64(seed ^ ((u * 0x9E3779B97F4A7C15) % 2**64))
        for i in range(len(shuffled) - 1, 0, -1):
            j = rng.next_u64() % (i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        n_train = math.ceil(ratio * len(shuffled))
        train += sorted(shuffled[:n_train], key=canonical)
        test += sorted(shuffled[n_train:], key=canonical)
    return train, test


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


def dense_priority_oracle(sim: list[list[float]]) -> list[list[int]]:
    """Per-row neighbour priorities: nnz_i minus j's rank in row i's (-value, j) order.

    An unstored (zero) cell gets 0.
    """
    n = len(sim)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ranked = sorted(
            (j for j in range(n) if sim[i][j] > 0.0), key=lambda j: (-sim[i][j], j)
        )
        for rank, j in enumerate(ranked):
            out[i][j] = len(ranked) - rank
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


def brute_top_n(scores: list[float], seen: set[int], n: int) -> list[tuple[int, float]]:
    """The first n positive candidates outside ``seen``, by score descending, then item."""
    candidates = [i for i, v in enumerate(scores) if v > 0.0 and i not in seen]
    ranked = sorted(candidates, key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in ranked[:n]]


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


def brute_precision(gains, n: int) -> float:
    return sum(1 for g in gains if g > 0) / n


def brute_recall(gains, n_relevant: int) -> float:
    return min(sum(1 for g in gains if g > 0) / n_relevant, 1.0)


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
