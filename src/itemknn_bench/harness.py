"""End-to-end experiment orchestration and report emission.

An experiment loads the data and converts it to implicit feedback once, then
runs, per seed: holdout split -> user-item matrix -> full cosine matrix ->
top-k truncation (once, shared by the top-k presets, and only if one runs) ->
per preset: recommendation and one evaluation per IDCG mode.  Results are
fully deterministic for a fixed config, and the JSON report is canonical
(sorted keys, repr floats), so identical configs emit byte-identical files.

Wall-clock timings are collected but written to a separate ``timings.json``:
they vary run to run and would break the byte-identical report guarantee.
"""

from __future__ import annotations

import csv
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ExperimentError
from .ingest import (
    DatasetStats,
    ImplicitThreshold,
    load_interactions,
    stats,
    to_implicit,
)
from .knn import STRATEGY_TOPK, cosine_similarity, build_matrix, truncate_topk
from .metrics import IDCG_MODES, MetricReport, evaluate
from .recommend import PRESETS, recommend_all
from .split import SplitConfig, split_holdout

REPORT_FORMATS = ("json", "csv", "md")

DEFAULT_SEEDS = (21, 42, 84)
DEFAULT_PRESETS = ("lenskit-original", "lenskit-adjusted", "recbole")


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
    presets: tuple[str, ...] = DEFAULT_PRESETS
    idcg_modes: tuple[str, ...] = ("truncated",)
    out_dir: str = "out"
    formats: tuple[str, ...] = REPORT_FORMATS

    @property
    def dataset(self) -> str:
        return Path(self.data).stem

    def validate(self) -> None:
        for name, values in (("seed", self.seeds), ("preset", self.presets),
                             ("IDCG mode", self.idcg_modes)):
            if not values:
                raise ValueError(f"at least one {name} required")
            if len(set(values)) < len(values):
                repeated = next(v for v in values if values.count(v) > 1)
                raise ValueError(f"{name} {repeated!r} is repeated")
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be >= 1")
        SplitConfig(self.train_ratio)  # checks the ratio
        for p in self.presets:
            if p not in PRESETS:
                raise ValueError(f"unknown preset {p!r} (known: {sorted(PRESETS)})")
        for m in self.idcg_modes:
            if m not in IDCG_MODES:
                raise ValueError(f"unknown IDCG mode {m!r}")
        for f in self.formats:
            if f not in REPORT_FORMATS:
                raise ValueError(f"unknown report format {f!r}")

    def as_dict(self) -> dict:
        # Emission parameters (out_dir, formats) stay out: they don't affect
        # the experiment's content, and keeping them out means identical
        # experiments emit byte-identical reports into different directories.
        return {
            "data": self.data,
            "dataset": self.dataset,
            "format": self.format,
            "column_map": self.column_map,
            "threshold": {"cutoff": self.threshold.cutoff, "mode": self.threshold.mode},
            "train_ratio": self.train_ratio,
            "seeds": list(self.seeds),
            "k": self.k,
            "n": self.n,
            "presets": list(self.presets),
            "idcg_modes": list(self.idcg_modes),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(
            data=d["data"],
            threshold=ImplicitThreshold(d["threshold"]["cutoff"], d["threshold"]["mode"]),
            format=d["format"],
            column_map=d["column_map"],
            train_ratio=d["train_ratio"],
            seeds=tuple(d["seeds"]),
            k=d["k"],
            n=d["n"],
            presets=tuple(d["presets"]),
            idcg_modes=tuple(d["idcg_modes"]),
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    stats_before: DatasetStats
    stats_after: DatasetStats
    cells: dict[tuple[str, int, str], MetricReport]
    timings: dict[str, float] = field(default_factory=dict)

    def report(self, preset: str, seed: int, idcg_mode: str) -> MetricReport:
        return self.cells[(preset, seed, idcg_mode)]

    def to_json_dict(self) -> dict:
        """Deterministic payload; timings deliberately excluded."""
        results: dict = {}
        for (preset, seed, mode), rep in self.cells.items():
            results.setdefault(preset, {}).setdefault(str(seed), {})[mode] = rep.as_dict()
        return {
            "config": self.config.as_dict(),
            "stats_before": self.stats_before.as_dict(),
            "stats_after": self.stats_after.as_dict(),
            "results": results,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentResult":
        cells: dict[tuple[str, int, str], MetricReport] = {}
        for preset, by_seed in d["results"].items():
            for seed, by_mode in by_seed.items():
                for mode, rep in by_mode.items():
                    cells[(preset, int(seed), mode)] = MetricReport.from_dict(rep)
        return cls(
            config=ExperimentConfig.from_dict(
                {**d["config"], "column_map": d["config"].get("column_map")}
            ),
            stats_before=DatasetStats(**d["stats_before"]),
            stats_after=DatasetStats(**d["stats_after"]),
            cells=cells,
        )


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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full preset x seed x IDCG-mode grid for one dataset."""
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

    cells: dict[tuple[str, int, str], MetricReport] = {}
    for seed in cfg.seeds:
        _run_seed(cfg, implicit, seed, cells, timings)
    return ExperimentResult(cfg, stats_before, stats_after, cells, timings)


def _run_seed(cfg, implicit, seed, cells, timings) -> None:
    """One seed's split, matrices and evaluations, freed when it returns."""
    with _phase("split", timings):
        pair = split_holdout(implicit, SplitConfig(cfg.train_ratio, seed))
    if pair.test.n_interactions == 0:
        raise ExperimentError(
            "split",
            f"train ratio {cfg.train_ratio} with seed {seed} leaves no test "
            f"interactions: nothing to evaluate",
        )
    needs_topk = any(PRESETS[p].matrix_strategy == STRATEGY_TOPK for p in cfg.presets)
    with _phase("similarity", timings):
        # Full matrix once per seed; truncation shared by the topk presets.
        s_full = cosine_similarity(build_matrix(pair.train))
        s_topk = truncate_topk(s_full, cfg.k) if needs_topk else None
    for preset_name in cfg.presets:
        preset = PRESETS[preset_name]
        s = s_topk if preset.matrix_strategy == STRATEGY_TOPK else s_full
        with _phase("recommend", timings):
            recs = recommend_all(s, pair, preset.scoring_mode(cfg.k), cfg.n)
        with _phase("evaluate", timings):
            for mode in cfg.idcg_modes:
                cells[(preset_name, seed, mode)] = evaluate(
                    recs, pair.test, cfg.n, mode, preset=preset_name, seed=seed
                )


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _write_csv(res: ExperimentResult, path: Path) -> None:
    cfg = res.config
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset", "preset", "seed", "idcg_mode", "ndcg", "precision", "recall"])
        for preset in cfg.presets:
            for seed in cfg.seeds:
                for mode in cfg.idcg_modes:
                    rep = res.report(preset, seed, mode)
                    writer.writerow(
                        [cfg.dataset, preset, seed, mode,
                         repr(rep.mean_ndcg), repr(rep.mean_precision), repr(rep.mean_recall)]
                    )


def _write_figure_csv(res: ExperimentResult, path: Path) -> None:
    cfg = res.config
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["preset", "seed", "idcg_mode", "ndcg"])
        for preset in cfg.presets:
            for seed in cfg.seeds:
                for mode in cfg.idcg_modes:
                    writer.writerow([preset, seed, mode, repr(res.report(preset, seed, mode).mean_ndcg)])


def _write_markdown(res: ExperimentResult, path: Path) -> None:
    cfg = res.config
    lines = [f"# ItemKNN experiment report: {cfg.dataset}", ""]
    lines.append(
        f"k={cfg.k}, top-N={cfg.n}, train ratio={cfg.train_ratio}, "
        f"threshold: rating {'>' if cfg.threshold.mode == 'gt' else '>='} {cfg.threshold.cutoff}"
    )
    lines.append("")
    for mode in cfg.idcg_modes:
        lines.append(f"## nDCG@{cfg.n} ({mode} IDCG)")
        lines.append("")
        header = [""] + [str(s) for s in cfg.seeds] + ["Avg."]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for preset in cfg.presets:
            values = [res.report(preset, seed, mode).mean_ndcg for seed in cfg.seeds]
            avg = math.fsum(values) / len(values)
            row = [preset] + [f"{v:.4f}" for v in values] + [f"{avg:.4f}"]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(
    res: ExperimentResult, formats: tuple[str, ...] | None = None, out_dir: str | Path | None = None
) -> list[Path]:
    """Write the requested report files; returns the created paths.

    ``json`` emits the canonical ``report.json`` plus a non-deterministic
    ``timings.json``; ``csv`` emits ``report.csv`` and the per-dataset
    figure-data file; ``md`` emits the seed-column table.
    """
    formats = tuple(formats if formats is not None else res.config.formats)
    for f in formats:
        if f not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {f!r}")
    out = Path(out_dir if out_dir is not None else res.config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    written: list[Path] = []
    if "json" in formats:
        report_path = out / "report.json"
        report_path.write_text(_canonical_json(res.to_json_dict()), encoding="utf-8")
        written.append(report_path)
        timings_path = out / "timings.json"
        timings_path.write_text(_canonical_json({"seconds_per_phase": res.timings}), encoding="utf-8")
        written.append(timings_path)
    if "csv" in formats:
        csv_path = out / "report.csv"
        _write_csv(res, csv_path)
        written.append(csv_path)
        figure_path = out / f"figure_{res.config.dataset}.csv"
        _write_figure_csv(res, figure_path)
        written.append(figure_path)
    if "md" in formats:
        md_path = out / "report.md"
        _write_markdown(res, md_path)
        written.append(md_path)
    return written
