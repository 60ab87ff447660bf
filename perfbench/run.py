"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

The workload seed only picks the generated input file (``gen.py``); the
program sees nothing but that file.  Jobs run one after another, each in a
fresh single-threaded child process (``job.py``), for as many whole jobs
as bring the run closest to ``--seconds`` (at least one).  Every job's
outputs go through the correctness gate.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` runs triples instead (untraced, traced,
and traced with ``tracemalloc``) and reports the per-layer metrics from the
traced jobs' spans.  The last line of standard output is one JSON object;
the lines before it give each metric by name with its unit.

``references.json`` holds the output hashes for seeds 1 to 10.  Seed 1 is
the default; seed 2 is held out: do not use it while writing a change, only
to confirm the change's gain.  On seeds without a reference the gate checks
that every job of the run writes the same bytes, and the run logs the hashes
to standard error so that they can be added to ``references.json``.

Generated files and job work directories live under ``.perfbench/`` in the
checkout; generated files are cached there by (shape, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = Path(".perfbench")  # relative to ROOT, which is the working directory
REFERENCES = BENCH / "references.json"

RUN_DEADLINE_S = 165  # a run must end within 180 s; a child still running then is killed
KNOWN_DEFECT = re.compile(r"matrix has \d+ items but split\.train has \d+")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

from workloads import WORKLOADS, job_outputs, job_steps, probe_argv  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def import_package() -> None:
    """Import ``itemknn_bench`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "itemknn_bench" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'itemknn_bench'}")
    sys.path.insert(0, str(src))
    import itemknn_bench

    if Path(itemknn_bench.__file__).resolve().parent != src / "itemknn_bench":
        raise BenchError(f"imported itemknn_bench from {itemknn_bench.__file__}, not {src}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ensure_data(shape_name: str, seed: int) -> tuple[str, dict]:
    """Generate (or reuse the cached) input file; returns its path and counts."""
    from gen import SHAPES, write_dataset

    path = STATE / "data" / f"seed{seed}" / f"{shape_name}.inter"
    meta = path.with_suffix(".json")
    if path.is_file() and meta.is_file():
        info = json.loads(meta.read_text())
        if sha256(path) == info["sha256"]:
            return str(path), info
    info = write_dataset(SHAPES[shape_name], seed, path)
    meta.write_text(json.dumps(info))
    return str(path), info


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in SINGLE_THREAD})
    return env


class Run:
    """One benchmark run: its jobs, the operations they attempted, and the gate."""

    def __init__(self, workload: str, seed: int):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0  # unexpected failures: the gate
        self.known_failures = 0  # the known-defect probe failing as it does today
        self.ref = json.loads(REFERENCES.read_text()).get(workload, {}).get(str(seed))
        self.first_outputs: dict | None = None
        self.data, self.info = ensure_data(WORKLOADS[workload].shape, seed)
        self.jobs = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED {what}")
        return ok

    def spawn(self, steps, probe, trace: str | None, work: str) -> dict | None:
        """Run one child process; returns its measurements, or None if it failed."""
        spec = {"steps": steps, "probe": probe, "trace": trace,
                "run_id": Path(work).name, "result": f"{work}/result.json"}
        with open(f"{work}/stderr.txt", "w") as err:
            try:
                proc = subprocess.run([sys.executable, str(BENCH / "job.py"), json.dumps(spec)],
                                      env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=max(0.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                log(f"job killed: the run reached its {RUN_DEADLINE_S} s deadline")
                return None
        if proc.returncode != 0:
            log(f"job exited {proc.returncode}: {Path(work, 'stderr.txt').read_text()[-2000:]}")
            return None
        return json.loads(Path(spec["result"]).read_text())

    def work_dir(self) -> str:
        self.jobs += 1
        work = STATE / "work" / f"{self.workload}-s{self.seed}-{os.getpid()}-{self.jobs}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        return str(work)

    def job(self, trace: str | None = None) -> dict:
        """One gated job; returns its measurements (empty if it failed)."""
        work = self.work_dir()
        try:
            probe = probe_argv(self.data, work) if self.workload == "chain" else None
            res = self.spawn(job_steps(self.workload, self.data, work), probe, trace, work)
            if not self.check(res is not None and all(s["rc"] == 0 for s in res["steps"].values()),
                              "job"):
                return {}
            if self.workload == "chain":
                ingest_s = res["steps"]["preprocess"]["s"]
            else:
                timings = json.loads(Path(work, "out", "timings.json").read_text())
                phases = timings["seconds_per_phase"]
                ingest_s = phases["load"] + phases["preprocess"]
            res["setup_s"] = res["import_s"] + ingest_s
            res["outputs"] = {name: sha256(Path(work, name))
                              for name in job_outputs(self.workload, self.data, work)}
            self.check_outputs(res["outputs"])
            self.check_content(work, res)
            if probe:
                self.check_probe(res["probe"])
            log(f"job {self.jobs}: wall {res['wall_s']:.3f} s, set-up {res['setup_s']:.3f} s")
            return res
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def check_outputs(self, outputs: dict) -> None:
        if self.ref is not None:
            ok = self.ref["data"] == self.info["sha256"] and self.ref["outputs"] == outputs
            self.check(ok, f"outputs differ from the reference for seed {self.seed}")
        else:
            if self.first_outputs is None:
                self.first_outputs = outputs
                log(f"no reference for seed {self.seed}; data {self.info['sha256']}, "
                    f"outputs {json.dumps(outputs, sort_keys=True)}")
            self.check(outputs == self.first_outputs, "outputs differ between jobs of one run")

    def check_content(self, work: str, res: dict) -> None:
        """Preset equality and ingest counts, on any seed."""
        want = self.info
        if self.workload == "chain":
            def of(preset):
                return [h for name, h in res["outputs"].items() if preset in name]

            self.check(of("lenskit-adjusted") == of("recbole"),
                       "lenskit-adjusted and recbole dumps or evaluations differ")
            implicit = Path(work, f"{Path(self.data).stem}.implicit.inter")
            with implicit.open() as fh:
                rows = sum(1 for _ in fh) - 1
            self.check(rows == want["after"]["n_interactions"], "implicit row count")
            return
        report = json.loads(Path(work, "out", "report.json").read_text())
        keys = ("n_users", "n_items", "n_interactions")
        self.check(all(report["stats_before"][k] == want["before"][k]
                       and report["stats_after"][k] == want["after"][k] for k in keys),
                   "dataset stats differ from the generator's counts")
        if "lenskit-adjusted" in report["results"]:
            adjusted, recbole = report["results"]["lenskit-adjusted"], report["results"]["recbole"]
            self.check(all(
                {u: m[0] for u, m in adjusted[seed][mode]["per_user"].items()}
                == {u: m[0] for u, m in recbole[seed][mode]["per_user"].items()}
                for seed in recbole for mode in recbole[seed]
            ), "per-user nDCG of lenskit-adjusted != recbole")

    def check_probe(self, probe: dict) -> None:
        self.attempted += 1
        if probe["rc"] == 2 and KNOWN_DEFECT.search(probe["stderr"]):
            self.known_failures += 1
        elif probe["rc"] != 0:
            self.failed += 1
            log(f"FAILED probe, not with the known defect: {probe['stderr'].strip()}")


def closed_loop(seconds: float, job) -> list:
    """Run ``job`` back to back (at least once) until the run's length is as
    close to ``seconds`` as whole jobs allow: another job starts only if it
    would end nearer ``seconds`` than stopping now.  A failed job (a falsy
    result) ends the loop."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(job())
        elapsed = time.perf_counter() - start
        if not out[-1] or elapsed + elapsed / len(out) / 2 > seconds:
            return out


def end_to_end(run: Run, seconds: float) -> dict:
    jobs = [j for j in closed_loop(seconds, run.job) if j]
    if not jobs:
        return {}
    return {
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "setup_s": statistics.median(j["setup_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "ok_ops_frac": 1 - (run.failed + run.known_failures) / run.attempted,
    }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def nesting_errors(spans: list[dict]) -> list[str]:
    """Ways in which ``spans`` are not one tree rooted at ``spans[0]``.

    Each child must lie inside its parent and siblings must not overlap; then
    no self time is negative and the self times add up to the root span.
    """
    errors = []
    if not spans or spans[0]["parent"] is not None:
        errors.append("the first span is not a root")
    children: dict[int, list[dict]] = defaultdict(list)
    for i, s in enumerate(spans[1:], 1):
        p = s["parent"]
        if p is None or not 0 <= p < i:
            return errors + [f"span {i} ({s['name']}) has no earlier parent"]
        children[p].append(s)
        if not spans[p]["start"] <= s["start"] <= s["end"] <= spans[p]["end"]:
            errors.append(f"span {i} ({s['name']}) is not inside its parent {spans[p]['name']}")
    for p, kids in children.items():
        kids.sort(key=lambda s: s["start"])
        errors += [f"spans {a['name']} and {b['name']} under {spans[p]['name']} overlap"
                   for a, b in zip(kids, kids[1:]) if b["start"] < a["end"]]
    errors += [f"span {spans[i]['name']} has negative self time {t}"
               for i, t in enumerate(self_times(spans)) if t < -1e-9]
    return errors


def layer_metrics(spans: list[dict], memory_spans: list[dict], untraced_wall_s: float) -> dict:
    """Per-layer busy time and counts from a traced job's spans, memory peaks
    from a memory-traced job's spans; ``spans[0]`` is the job's root span."""
    busy: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    for s in spans[1:]:
        busy[s["name"]] += s["end"] - s["start"]
        counts.update({f"{s['name'].split('.')[0]}.{k}": v for k, v in s["counts"].items()})
    peaks: dict[str, float] = defaultdict(float)
    for s in memory_spans[1:]:
        key = f"{s['name'].split('.')[0]}.peak_mb"
        peaks[key] = max(peaks[key], s["peak_mb"])
    root = spans[0]
    out = {f"{name}_s": v for name, v in busy.items()}
    out.update(counts)
    out.update(peaks)
    full = out.pop("recommend.full_lists", 0)
    out["recommend.full_list_frac"] = full / counts["recommend.lists"] if full else 0.0
    out["trace.overhead_s"] = root["end"] - root["start"] - untraced_wall_s
    return out


def per_layer(run: Run, seconds: float) -> tuple[dict, list]:
    def triple():
        plain = run.job()
        traced = [run.job(trace="time"), run.job(trace="memory")] if plain else []
        if not (plain and all(traced)):
            return None
        for t in traced:
            run.check(plain["outputs"] == t["outputs"], "traced outputs differ from untraced")
            errors = nesting_errors(t["spans"])
            run.check(not errors, f"spans are not a tree: {errors[:3]}")
        spans, memory_spans = traced[0]["spans"], traced[1]["spans"]
        return layer_metrics(spans, memory_spans, plain["wall_s"]), spans + memory_spans

    done = [t for t in closed_loop(seconds, triple) if t]
    if not done:
        return {}, []
    return ({name: statistics.median(m[name] for m, _ in done) for name in done[0][0]},
            [s for _, spans in done for s in spans])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (BenchError, OSError) as e:
        log(str(e))
        return 2
    os.chdir(ROOT)
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            measured, spans = per_layer(run, args.seconds)
            wanted = spec["per_layer"]
            trace_path = STATE / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(spans))
        else:
            measured = end_to_end(run, args.seconds)
            wanted = spec["end_to_end"]
    except BenchError as e:
        log(str(e))
        return 2
    if not measured:
        log("no job completed; nothing to report")
        return 1

    not_called = WORKLOADS[args.workload].not_called
    missing = [m["name"] for m in wanted if m["name"] not in measured and m["name"] not in not_called]
    if missing:
        log(f"not measured, although {args.workload} calls these layers: {', '.join(missing)}")
        return 1
    metrics = {}
    for m in wanted:
        # A layer the workload never calls was busy for 0 s and counted nothing.
        value = measured.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} seed={args.seed} {m['name']} = {value} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
