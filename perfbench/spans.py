"""In-memory spans around the calls the CLI and harness make into each layer.

The tracer replaces, for one traced job process, the layer functions that
``itemknn_bench.cli`` and ``itemknn_bench.harness`` call by name with
wrappers that open a span around each call.  The traced job therefore runs
``run_experiment``'s and each subcommand's own sequence of calls, and the
package itself carries no tracing code.

A span records its name, start and end (``perf_counter``), its parent span,
the run id, CPU time (wall minus CPU is time spent waiting) and counts of
the work the call did.  A memory tracer also records the peak of
``tracemalloc``-traced memory while the span was open; it slows
allocation-heavy Python code several times over, so its span times are not
used as layer times.  Spans stay in memory; the job writes them out when it
ends.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from itemknn_bench import cli, harness
from itemknn_bench.recommend import PRESETS


class Tracer:
    def __init__(self, run_id: str, memory: bool):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[dict] = []
        self._open: list[int] = []  # indices of open spans, innermost last
        self._peaks: list[int] = []  # running traced-memory peak of each open span
        self._patched: list[tuple[object, str, object]] = []

    def start(self) -> None:
        if self.memory:
            tracemalloc.start()

    def stop(self) -> None:
        """Stop tracing memory and put back every wrapped function."""
        if self.memory:
            tracemalloc.stop()
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None, "counts": {}}
        if self.memory:
            # Fold the peak so far into the enclosing span, then measure this one alone.
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
            self._peaks.append(current)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        cpu = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.process_time() - cpu
            self._open.pop()
            if self.memory:
                peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
                rec["peak_mb"] = peak / 2**20
                if self._peaks:
                    self._peaks[-1] = max(self._peaks[-1], peak)
                tracemalloc.reset_peak()

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Trace calls to ``module.attr``; ``name`` may be a function of the call's args."""
        fn = getattr(module, attr)  # a renamed layer function must fail the traced job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args) if callable(name) else name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec["counts"] = count(args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def instrument(self) -> None:
        """Wrap every layer call the harness and the CLI make."""
        for module in (harness, cli):
            self.wrap(module, "load_interactions", "ingest.load")
            self.wrap(module, "to_implicit", "ingest.binarize", _binarize_counts)
            self.wrap(module, "split_holdout", "split.holdout", lambda a, r: {"users": a[0].n_users})
            self.wrap(module, "build_matrix", "knn.build_matrix")
            self.wrap(module, "cosine_similarity", "knn.cosine", lambda a, r: {"full_nnz": r.nnz})
            self.wrap(module, "truncate_topk", "knn.truncate", _truncate_counts)
            self.wrap(module, "recommend_all", _recommend_name, _recommend_counts)
        self.wrap(harness, "evaluate", "metrics.evaluate", _evaluate_counts)
        self.wrap(cli, "report_from_gains", "metrics.evaluate", _evaluate_counts)
        self.wrap(cli, "save_interactions", "ingest.save")
        self.wrap(cli, "save_split", "split.save")
        self.wrap(cli, "save_similarity", "knn.save",
                  lambda a, r: {"save_bytes": Path(r).stat().st_size})
        self.wrap(cli, "save_recommendations", "recommend.save")
        self.wrap(cli, "load_recommendations", "recommend.load")
        self.wrap(cli, "emit_report", "harness.emit", _emit_counts)


def _binarize_counts(args, result) -> dict:
    return {"raw_rows": args[0].n_interactions, "implicit_rows": result.n_interactions}


def _truncate_counts(args, result) -> dict:
    full, k = args[0], args[1]
    return {"topk_nnz": result.nnz, "rows_truncated": int((np.diff(full.indptr) > k).sum())}


def _recommend_name(args) -> str:
    s, mode = args[0], args[2]
    for preset in PRESETS.values():
        if preset.matrix_strategy == s.strategy and preset.scoring_kind == mode.kind:
            return f"recommend.{preset.name}"
    return "recommend.other"


def _recommend_counts(args, result) -> dict:
    n = args[3]
    return {"lists": len(result), "full_lists": sum(len(rl.entries) == n for rl in result)}


def _evaluate_counts(args, result) -> dict:
    return {"users_evaluated": result.n_users}


def _emit_counts(args, result) -> dict:
    return {"report_bytes": sum(p.stat().st_size for p in result if p.name == "report.json")}
