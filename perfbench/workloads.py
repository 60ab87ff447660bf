"""The benchmark's workloads: what each runs, and why it exists.

Each workload is a batch job driven only through ``itemknn_bench.cli.main``
and run in a closed loop by one client: the next job starts when the
previous one has finished.  This module imports nothing from the package, so
a job process can time the package import itself.

* ``paper-grid``: the paper's own table (3 split seeds x 3 presets x both
  IDCG modes, k=20, N=10, every report format) on an ML-100K-shaped file.
  ``recommend`` is most of the run, dominated by ``lenskit-original``'s
  profile-top-k scoring on the full matrix; ingest is a few percent.  A
  scoring-kernel change shows here and a data-layer change does not.
* ``scale-recbole``: one split seed, ``recbole`` only, truncated IDCG, JSON
  only, on an ML-1M-shaped file.  Load, binarize and split are about half
  the run and the full matrix dominates peak memory; there is no
  profile-top-k scoring.  A data-layer or memory change shows here, and a
  ``profile-topk`` kernel change should not.
* ``chain``: the README's step-by-step path on the ``paper-grid`` file, as
  in-process ``cli.main`` calls: preprocess, split (3 seeds), train top-k
  and full (seed 42), then recommend and evaluate for each preset.  The same
  layers run through the text-artifact writers and readers, and writing the
  full matrix is most of ``train --strategy full``.  A change that speeds up
  the in-memory path but slows persistence shows here.

Every ``chain`` job also attempts, untimed, the README's ``recommend
--matrix`` on its own seed-42 top-k matrix.  It fails today (the matrix
lacks items that occur only in test), and the benchmark counts that known
defect in ``ok_ops_frac`` instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

PRESETS = ("lenskit-original", "lenskit-adjusted", "recbole")
EXPERIMENT = "experiment"


CHAIN_STEPS = ("preprocess", "split", "train-topk", "train-full",
               *(f"{verb}-{preset}" for verb in ("recommend", "evaluate") for preset in PRESETS))
# Per-layer metrics of calls that only the step-by-step path makes.
_PERSISTENCE = ("ingest.save_s", "split.save_s", "knn.save_s", "knn.save_bytes",
                "recommend.save_s", "recommend.load_s")
_CHAIN_ONLY = frozenset(_PERSISTENCE + tuple(f"cli.{step}_s" for step in CHAIN_STEPS))


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # name of a ``gen.Shape``
    why: str
    # Per-layer metrics of layer calls this workload never makes: reported as
    # 0.  Any other per-layer metric a traced run does not measure fails it.
    not_called: frozenset[str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-grid", "synth-100k",
                 "the paper's 3-seed x 3-preset table; recommend dominates, ingest is small",
                 _CHAIN_ONLY),
        Workload("scale-recbole", "synth-1m",
                 "1M ratings, recbole only; ingest, split and the full matrix dominate time and memory",
                 _CHAIN_ONLY | {"recommend.lenskit-original_s", "recommend.lenskit-adjusted_s"}),
        Workload("chain", "synth-100k",
                 "README step-by-step CLI path; the same layers through the text-artifact writers and readers",
                 frozenset({"harness.emit_s", "harness.report_bytes"})),
    )
}


def _chain_paths(data: str, work: str) -> dict[str, str]:
    stem = f"{work}/{Path(data).stem}.implicit"
    return {
        "implicit": f"{stem}.inter",
        "train": f"{stem}.seed42.train.inter",
        "test": f"{stem}.seed42.test.inter",
        "topk": f"{stem}.seed42.train.topk.sim.tsv",
    }


def job_steps(workload: str, data: str, work: str) -> list[tuple[str, list[str]]]:
    """The timed ``cli.main`` calls of one job, as (step name, argv)."""
    out = f"{work}/out"
    if workload == "paper-grid":
        return [(EXPERIMENT, [
            "experiment", "--data", data, "--threshold", "3", "--seeds", "21,42,84",
            "--preset", ",".join(PRESETS), "--idcg", "both", "--k", "20", "--topn", "10",
            "--emit", "json,csv,md", "--out", out,
        ])]
    if workload == "scale-recbole":
        return [(EXPERIMENT, [
            "experiment", "--data", data, "--threshold", "3", "--seeds", "42",
            "--preset", "recbole", "--idcg", "truncated", "--k", "20", "--topn", "10",
            "--emit", "json", "--out", out,
        ])]
    p = _chain_paths(data, work)
    steps = [
        ("preprocess", ["preprocess", "--data", data, "--threshold", "3", "--out", work]),
        ("split", ["split", "--data", p["implicit"], "--ratio", "0.8",
                   "--seeds", "21,42,84", "--out", work]),
        ("train-topk", ["train", "--data", p["train"], "--strategy", "topk", "--k", "20",
                        "--out", work]),
        ("train-full", ["train", "--data", p["train"], "--strategy", "full", "--out", work]),
    ]
    for preset in PRESETS:
        steps.append((f"recommend-{preset}", [
            "recommend", "--train", p["train"], "--test", p["test"], "--preset", preset,
            "--k", "20", "--topn", "10", "--out", work,
        ]))
    for preset in PRESETS:
        steps.append((f"evaluate-{preset}", [
            "evaluate", "--recs", recs_path(data, work, preset), "--test", p["test"],
            "--topn", "10", "--idcg", "both", "--out", f"{work}/eval-{preset}",
        ]))
    return steps


def recs_path(data: str, work: str, preset: str) -> str:
    return f"{work}/{Path(data).stem}.implicit.seed42.train.{preset}.recs.tsv"


def job_outputs(workload: str, data: str, work: str) -> list[str]:
    """Deterministic files a job writes, checked by sha256 (paths relative to ``work``)."""
    if workload != "chain":
        return ["out/report.json"]
    return [
        name
        for preset in PRESETS
        for name in (Path(recs_path(data, work, preset)).name, f"eval-{preset}/evaluation.json")
    ]


def probe_argv(data: str, work: str) -> list[str]:
    """The README's ``recommend --matrix`` on the seed-42 top-k matrix."""
    p = _chain_paths(data, work)
    return ["recommend", "--train", p["train"], "--test", p["test"], "--matrix", p["topk"],
            "--preset", "recbole", "--k", "20", "--topn", "10", "--out", f"{work}/probe"]

