"""End-to-end experiment orchestration and report emission.

An experiment loads the data and converts it to implicit feedback once, then
runs, per seed: holdout split -> user-item matrix -> full cosine matrix ->
top-k truncation (once, shared by the top-k presets, and only if one runs) ->
per preset: recommendation and one evaluation per IDCG mode.  Results are
fully deterministic for a fixed config, and the JSON report is canonical
(sorted keys, repr floats), so identical configs emit byte-identical files.

Every report file renders from the ``report.json`` payload, so ``report``
re-emits ``experiment``'s bytes.  Wall-clock timings go to a separate
``timings.json``: they vary run to run and would break the byte-identical
report guarantee.  One check of the config, as ``report.json`` stores it,
runs before an experiment and on a stored report, so ``report`` renders only
what an experiment could have written.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ExperimentError, SchemaError
from .ingest import (
    DEFAULT_COLUMNS,
    FORMATS,
    STATS_KEYS,
    THRESHOLD_MODES,
    ImplicitThreshold,
    load_interactions,
    stats,
    stats_of,
    to_implicit,
)
from .knn import STRATEGY_TOPK, cosine_similarity, build_matrix, truncate_topk
from .metrics import IDCG_MODES, IDCG_TRUNCATED, MetricReport, evaluate, mean_of
from .recommend import PRESETS, recommend_all
from .split import split_holdout

REPORT_FORMATS = ("json", "csv", "md")

DEFAULT_SEEDS = (21, 42, 84)


@dataclass
class ExperimentConfig:
    data: str
    threshold: ImplicitThreshold
    format: str = "atomic"
    column_map: dict[str, str] | None = None
    train_ratio: float = 0.8
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    k: int = 20
    n: int = 10
    presets: tuple[str, ...] = ("lenskit-original", "lenskit-adjusted", "recbole")
    idcg_modes: tuple[str, ...] = (IDCG_TRUNCATED,)

    @property
    def dataset(self) -> str:
        return Path(self.data).stem

    def validate(self) -> None:
        """Raise ``ValueError``, naming the field, for a config no experiment runs."""
        if fault := _config_fault(self.as_dict()):
            raise ValueError(fault)

    def as_dict(self) -> dict:
        """The config as ``report.json`` stores it: the threshold a dict, lists for tuples."""
        fields = asdict(self)
        return {**fields, "dataset": self.dataset,
                **{key: list(fields[key]) for key in ("seeds", "presets", "idcg_modes")}}


def _config_fault(cfg: dict) -> str | None:
    """What, in ``cfg`` as :meth:`ExperimentConfig.as_dict` lays it out, no experiment runs with."""
    columns, threshold, ratio = cfg["column_map"], cfg["threshold"], cfg["train_ratio"]
    for name, ok, what in (
        ("dataset", isinstance(cfg["data"], str) and cfg["dataset"] == Path(cfg["data"]).stem,
         "the stem of data"),
        ("format", cfg["format"] in FORMATS, " or ".join(map(repr, FORMATS))),
        ("column_map", columns is None or isinstance(columns, dict)
         and all(type(s) is str for s in (*columns, *columns.values()))
         and columns.keys() <= DEFAULT_COLUMNS.keys(),
         f"null or a dict of strs to strs, its keys among {', '.join(DEFAULT_COLUMNS)}"),
        ("threshold.mode", threshold["mode"] in THRESHOLD_MODES,
         " or ".join(map(repr, THRESHOLD_MODES))),
        # NaN keeps no rating, and JSON holds no NaN or infinity.
        ("threshold.cutoff", type(threshold["cutoff"]) in (int, float)
         and -math.inf < threshold["cutoff"] < math.inf, "a number with a finite value"),
        ("train_ratio", type(ratio) is float and 0.0 < ratio <= 1.0, "a float in (0, 1]"),
        # k and n meet int32 row lengths and size arrays; a seed is 64 bits, and
        # seeds equal mod 2**64 would run one split under two names.
        ("k", type(cfg["k"]) is int and 1 <= cfg["k"] < 2**31, "an int >= 1 and < 2**31"),
        ("n", type(cfg["n"]) is int and 1 <= cfg["n"] < 2**31, "an int >= 1 and < 2**31"),
    ):
        if not ok:
            return f"{name} is not {what}"
    for name, valid, one, many, known in (
        ("seeds", lambda v: type(v) is int and 0 <= v < 2**64, "seed", "ints in [0, 2**64)", None),
        ("presets", lambda v: type(v) is str, "preset", "presets", PRESETS),
        ("idcg_modes", lambda v: type(v) is str, "IDCG mode", "IDCG modes", IDCG_MODES),
    ):
        values, fault = cfg[name], f"{name} is not a non-empty list of distinct {many}"
        if not (isinstance(values, list) and values and all(map(valid, values))):
            return fault  # before set() hashes them
        if len(set(values)) < len(values):
            repeated = next(v for v in values if values.count(v) > 1)
            return f"{fault}: {one} {repeated!r} is repeated"
        if unknown := [v for v in values if known is not None and v not in known]:
            return f"{fault}: unknown {one} {unknown[0]!r} (known: {', '.join(sorted(known))})"
    return None


def load_report(path: str | Path) -> dict:
    """The payload of a stored ``report.json``, as :func:`emit_report` takes it.

    Raises ``SchemaError`` unless the file is JSON laid out as
    :func:`run_experiment`'s payload: each dict holds exactly its keys, the
    stats' counts are ints >= 0 and their ratios the floats
    :func:`ingest.stats_of` derives from them, ``stats_after`` counts no
    more than ``stats_before`` and no more interactions than user-item
    pairs, the config is one that :meth:`ExperimentConfig.validate`
    accepts, and every cell's metrics are floats in [0, 1], its ``n``, IDCG
    mode, preset, seed and ``n_users`` are those its config, keys and users
    give, and its means are those of its ``per_user`` values.
    So each report format renders, into its output directory, what an
    experiment could have written.
    """

    def fail(what: str):
        raise SchemaError(f"{path}: not an experiment report: {what}")

    def keyed(value, keys, what: str) -> dict:
        keys = set(keys)
        if not isinstance(value, dict) or value.keys() != keys:
            fail(f"{what} does not hold exactly the keys {sorted(keys)}")
        return value

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        fail(f"not JSON: {e}")
    keyed(payload, ("config", "stats_before", "stats_after", "results"), "the top level")
    for name in ("stats_before", "stats_after"):
        values = keyed(payload[name], STATS_KEYS, name)
        for key, (want, what) in zip(STATS_KEYS, [(int, "an int")] * 3 + [(float, "a float")] * 3):
            if type(values[key]) is not want:
                fail(f"{name}.{key} is not {what}")
        counts = [values[key] for key in STATS_KEYS[:3]]
        if min(counts) < 0:
            fail(f"{name} holds a negative count")
        for key, ratio in list(stats_of(*counts).items())[3:]:
            if repr(values[key]) != repr(ratio):  # bit for bit, -0.0 too
                fail(f"{name}.{key} is not {ratio!r}, the ratio its counts give")
    before, after = payload["stats_before"], payload["stats_after"]
    # Raw rows may repeat a pair, implicit ones may not; to_implicit only drops rows.
    if after["n_interactions"] > after["n_users"] * after["n_items"]:
        fail("stats_after.n_interactions is above n_users * n_items, its distinct pairs")
    if bigger := [key for key in STATS_KEYS[:3] if after[key] > before[key]]:
        fail(f"stats_after.{bigger[0]} is above stats_before's")
    cfg = keyed(payload["config"], ExperimentConfig("", ImplicitThreshold(0)).as_dict(), "config")
    keyed(cfg["threshold"], ("cutoff", "mode"), "config.threshold")
    if fault := _config_fault(cfg):
        fail(f"config.{fault}")
    cell_keys = MetricReport(1, IDCG_TRUNCATED, {}, 0.0, 0.0, 0.0).as_dict()
    for preset, by_seed in keyed(payload["results"], cfg["presets"], "results").items():
        for seed, by_mode in keyed(by_seed, map(str, cfg["seeds"]), f"results.{preset}").items():
            for mode, rep in keyed(by_mode, cfg["idcg_modes"], f"results.{preset}.{seed}").items():
                rep = keyed(rep, cell_keys, cell := f"results.{preset}.{seed}.{mode}")
                if not all(type(rep[f"mean_{m}"]) is float for m in ("ndcg", "precision", "recall")):
                    fail(f"a mean of {cell} is not a float")
                per_user = rep["per_user"]
                if not isinstance(per_user, dict) or not all(
                    type(v) is list and len(v) == 3 and all(type(x) is float for x in v)
                    for v in per_user.values()
                ):
                    fail(f"{cell}.per_user is not a dict of three floats per user")
                # NaN and infinities too, which json reads and RFC 8259 has not.
                if not all(0.0 <= x <= 1.0 for v in per_user.values() for x in v):
                    fail(f"{cell}.per_user holds a metric outside [0, 1]")
                # By type too: 10.0 == 10 and True == 1, but an experiment writes neither.
                for key, want in zip(("n", "idcg_mode", "preset", "seed", "n_users"),
                                     (cfg["n"], mode, preset, int(seed), len(per_user))):
                    if (type(rep[key]), rep[key]) != (type(want), want):
                        fail(f"{cell}.{key} is not {want!r}")
                for field, m in enumerate(("ndcg", "precision", "recall")):
                    if rep[f"mean_{m}"] != mean_of(per_user, field):  # bit for bit
                        fail(f"{cell}.mean_{m} is not the mean of its per_user values")
    return payload


@contextmanager
def _phase(name: str, timings: dict[str, float]):
    start = time.perf_counter()
    try:
        yield
    except ExperimentError:
        raise
    except Exception as e:
        raise ExperimentError(name, str(e)) from e
    finally:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start)


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, dict[str, float]]:
    """Run the full preset x seed x IDCG-mode grid for one dataset; returns the
    ``report.json`` payload, as :func:`load_report` returns it, and the seconds per phase."""
    cfg.validate()
    timings: dict[str, float] = {}

    with _phase("load", timings):
        raw = load_interactions(cfg.data, cfg.format, cfg.column_map)
        stats_before = stats(raw)

    with _phase("preprocess", timings):
        implicit = to_implicit(raw, cfg.threshold)
        del raw
        if implicit.n_interactions == 0:
            raise ExperimentError(
                "preprocess",
                f"no interactions left after threshold "
                f"{cfg.threshold.mode} {cfg.threshold.cutoff}; configuration error",
            )
        stats_after = stats(implicit)

    results: dict = {preset: {} for preset in cfg.presets}
    for seed in cfg.seeds:
        _run_seed(cfg, implicit, seed, results, timings)
    return {"config": cfg.as_dict(), "stats_before": stats_before,
            "stats_after": stats_after, "results": results}, timings


def _run_seed(cfg, implicit, seed, results, timings) -> None:
    """One seed's split, matrices and evaluations, freed when it returns.

    The train side goes once its matrix is built: the cosine and the
    scoring after it set a run's peak memory.
    """
    with _phase("split", timings):
        train, test = split_holdout(implicit, cfg.train_ratio, seed)
    if test.n_interactions == 0:
        raise ExperimentError(
            "split",
            f"train ratio {cfg.train_ratio} with seed {seed} leaves no test "
            f"interactions: nothing to evaluate",
        )
    users = np.unique(test.users)  # the evaluated users
    needs_topk = any(PRESETS[p].matrix_strategy == STRATEGY_TOPK for p in cfg.presets)
    with _phase("similarity", timings):
        # Train matrix and full matrix once per seed; truncation shared by
        # the topk presets.
        x = build_matrix(train)
        del train
        s_full = cosine_similarity(x)
        s_topk = truncate_topk(s_full, cfg.k) if needs_topk else None
    for preset_name in cfg.presets:
        preset = PRESETS[preset_name]
        s = s_topk if preset.matrix_strategy == STRATEGY_TOPK else s_full
        with _phase("recommend", timings):
            recs = recommend_all(s, x, preset.scoring_mode(cfg.k), cfg.n, users)
        with _phase("evaluate", timings):
            results[preset_name][str(seed)] = {
                mode: evaluate(recs, test, cfg.n, mode, preset=preset_name, seed=seed).as_dict()
                for mode in cfg.idcg_modes
            }


def _canonical_json(payload: dict) -> bytearray:
    # Encoded chunk by chunk: json.dumps with an indent first lists every chunk,
    # several times the text's size in small strings, and could set a run's peak.
    # RFC 8259 JSON has no NaN or infinity: refuse them rather than write them.
    encoder = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
    out = bytearray()
    for chunk in encoder.iterencode(payload):
        out += chunk.encode("utf-8")
    out += b"\n"
    return out


def _csv(rows) -> bytes:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode("utf-8")


def _markdown(payload: dict) -> bytes:
    cfg = payload["config"]
    threshold = cfg["threshold"]
    lines = [
        f"# ItemKNN experiment report: {cfg['dataset']}", "",
        f"k={cfg['k']}, top-N={cfg['n']}, train ratio={cfg['train_ratio']}, "
        f"threshold: rating {'>' if threshold['mode'] == 'gt' else '>='} {threshold['cutoff']}", "",
    ]
    for mode in cfg["idcg_modes"]:
        header = [""] + [str(s) for s in cfg["seeds"]] + ["Avg."]
        lines += [f"## nDCG@{cfg['n']} ({mode} IDCG)", "",
                  "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for preset in cfg["presets"]:
            values = [payload["results"][preset][str(seed)][mode]["mean_ndcg"]
                      for seed in cfg["seeds"]]
            avg = math.fsum(values) / len(values)
            row = [preset] + [f"{v:.4f}" for v in values] + [f"{avg:.4f}"]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return ("\n".join(lines) + "\n").encode("utf-8")


def check_formats(formats):
    """``formats``; ``ValueError`` for a report format other than those of ``REPORT_FORMATS``."""
    for f in formats:
        if f not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {f!r} (known: {', '.join(REPORT_FORMATS)})")
    return formats


def emit_report(
    payload: dict, formats, out_dir: str | Path, timings: dict[str, float] | None = None
) -> list[Path]:
    """Write the requested report files from a ``report.json`` payload; returns their paths.

    ``payload`` is :func:`run_experiment`'s, or a stored ``report.json``
    read back.  ``json`` emits the canonical ``report.json``,
    plus ``timings.json`` when ``timings`` are given (they vary run to run);
    ``csv`` emits ``report.csv`` and the per-dataset figure-data file; ``md``
    emits the seed-column table.  Every text is rendered before the first
    file is written.
    """
    check_formats(formats)
    cfg = payload["config"]
    cells = [(preset, seed, mode, payload["results"][preset][str(seed)][mode])
             for preset in cfg["presets"] for seed in cfg["seeds"] for mode in cfg["idcg_modes"]]
    texts: dict[str, bytes] = {}
    if "json" in formats:
        texts["report.json"] = _canonical_json(payload)
        if timings is not None:
            texts["timings.json"] = _canonical_json({"seconds_per_phase": timings})
    if "csv" in formats:
        texts["report.csv"] = _csv(
            [["dataset", "preset", "seed", "idcg_mode", "ndcg", "precision", "recall"]]
            + [[cfg["dataset"], preset, seed, mode, repr(rep["mean_ndcg"]),
                repr(rep["mean_precision"]), repr(rep["mean_recall"])]
               for preset, seed, mode, rep in cells]
        )
        texts[f"figure_{cfg['dataset']}.csv"] = _csv(
            [["preset", "seed", "idcg_mode", "ndcg"]]
            + [[preset, seed, mode, repr(rep["mean_ndcg"])] for preset, seed, mode, rep in cells]
        )
    if "md" in formats:
        texts["report.md"] = _markdown(payload)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        Path(out_dir, name).write_bytes(text)
    return [Path(out_dir, name) for name in texts]
