"""The benchmark's own tests: pinned generator, traced replay, metric names.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import CHAIN_STEPS, WORKLOADS, job_outputs, job_steps  # noqa: E402

TINY = gen.Shape("tiny", n_users=40, n_items=120, n_ratings=1500, min_per_user=10)


def test_generator_uses_pinned_splitmix64():
    # The same reference vectors as tests/test_split.py: splitmix64, state 0.
    rng = gen.SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_same_seed_same_file(tmp_path):
    a = gen.write_dataset(TINY, 7, tmp_path / "a.inter")
    b = gen.write_dataset(TINY, 7, tmp_path / "b.inter")
    c = gen.write_dataset(TINY, 8, tmp_path / "c.inter")
    assert a == b
    assert (tmp_path / "a.inter").read_bytes() == (tmp_path / "b.inter").read_bytes()
    assert a["sha256"] == hashlib.sha256((tmp_path / "a.inter").read_bytes()).hexdigest()
    assert c["sha256"] != a["sha256"]


def test_generated_counts_and_shape(tmp_path):
    info = gen.write_dataset(TINY, 3, tmp_path / "t.inter")
    lines = (tmp_path / "t.inter").read_text().splitlines()[1:]
    rows = [line.split("\t") for line in lines]
    assert len(rows) == TINY.n_ratings == info["before"]["n_interactions"]
    assert len({(u, i) for u, i, _, _ in rows}) == len(rows)  # distinct pairs
    assert {r for _, _, r, _ in rows} <= {"1", "2", "3", "4", "5"}
    assert info["after"]["n_interactions"] == sum(int(r) > 3 for _, _, r, _ in rows)
    per_user = {}
    for u, *_ in rows:
        per_user[u] = per_user.get(u, 0) + 1
    assert len(per_user) == TINY.n_users
    assert min(per_user.values()) >= TINY.min_per_user


def test_infeasible_shape_is_refused():
    with pytest.raises(ValueError):
        gen._user_counts(gen.Shape("bad", n_users=10, n_items=20, n_ratings=1000))


def _job(tmp_path, workload, data, trace, name):
    work = tmp_path / name
    work.mkdir()
    spec = {"steps": job_steps(workload, str(data), str(work)), "probe": None,
            "trace": trace, "run_id": name, "result": str(work / "result.json")}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH / "job.py"), json.dumps(spec)],
                   env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
    res = json.loads((work / "result.json").read_text())
    res["outputs"] = {n: (work / n).read_bytes() for n in job_outputs(workload, str(data), str(work))}
    return res


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.inter"
    gen.write_dataset(TINY, 5, path)
    return path


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_jobs_match_untraced_bytes(tmp_path, tiny_data, workload):
    plain = _job(tmp_path, workload, tiny_data, None, "plain")
    timed = _job(tmp_path, workload, tiny_data, "time", "timed")
    memory = _job(tmp_path, workload, tiny_data, "memory", "memory")
    assert plain["outputs"] and timed["outputs"] == plain["outputs"] == memory["outputs"]
    for res in (timed, memory):
        assert run.nesting_errors(res["spans"]) == []
        assert all(s["end"] - s["start"] >= s["cpu_s"] - 1e-3 for s in res["spans"])
    assert all("peak_mb" in s for s in memory["spans"])


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_nesting_errors_catch_badly_nested_spans():
    good = [_span("job", 0, 10, None), _span("a", 1, 4, 0), _span("b", 4, 9, 0),
            _span("a.x", 2, 3, 1)]
    assert run.nesting_errors(good) == []
    assert sum(run.self_times(good)) == pytest.approx(10)
    outside = good + [_span("b.y", 8, 11, 2)]
    assert any("not inside" in e for e in run.nesting_errors(outside))
    overlap = good[:2] + [_span("b", 2, 10, 0)]
    errors = run.nesting_errors(overlap)
    assert any("overlap" in e for e in errors) and any("negative self time" in e for e in errors)
    assert run.nesting_errors([_span("a", 0, 1, 0)])  # no root
    assert run.nesting_errors(good + [_span("orphan", 5, 6, 7)])


def test_per_layer_metrics_are_measured_unless_not_called(tmp_path, tiny_data):
    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for workload, w in WORKLOADS.items():
        timed = _job(tmp_path, workload, tiny_data, "time", f"{workload}-t")
        memory = _job(tmp_path, workload, tiny_data, "memory", f"{workload}-m")
        measured = set(run.layer_metrics(timed["spans"], memory["spans"], 0.0))
        assert wanted - w.not_called <= measured, workload
        assert not measured & w.not_called, workload
        assert w.not_called <= wanted, workload


def test_chain_steps_are_named_as_listed():
    assert [name for name, _ in job_steps("chain", "d.inter", "w")] == list(CHAIN_STEPS)


def test_a_missing_layer_function_is_an_error():
    class Module:
        pass

    with pytest.raises(AttributeError):
        spans.Tracer("r", memory=False).wrap(Module, "truncate_topk", "knn.truncate")


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "ok_ops_frac"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_closed_loop_runs_once_at_least_and_stops_on_failure():
    assert run.closed_loop(0.0, lambda: {"ok": 1}) == [{"ok": 1}]
    assert run.closed_loop(60.0, lambda: None) == [None]
