"""One benchmark job, alone in a fresh single-threaded process.

Usage, from the root of a checkout: ``python3 perfbench/job.py SPEC_JSON``.
``run.py`` builds the spec; this process times the package import, then the
job's ``cli.main`` calls, and writes what it measured to ``spec["result"]``.

Spec keys: ``steps`` (list of [name, argv]), ``probe`` (argv of the untimed
known-defect probe, or null), ``trace`` (``null``, ``"time"`` or
``"memory"``: see ``spans.py``), ``run_id`` and ``result`` (path of the
result file).
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr


def main(spec: dict) -> None:
    start = time.perf_counter()
    from itemknn_bench import cli
    import_s = time.perf_counter() - start
    out: dict = {"import_s": import_s}

    tracer = None
    span = lambda name: nullcontext({})  # noqa: E731
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"], memory=spec["trace"] == "memory")
        tracer.instrument()
        span = tracer.span
        tracer.start()

    steps: dict[str, dict] = {}
    with span("job"):
        start = time.perf_counter()
        for name, argv in spec["steps"]:
            step_start = time.perf_counter()
            with span(f"cli.{name}") as rec:
                rc = cli.main(argv)
                rec["counts"] = {"failed_steps": int(rc != 0)}
            steps[name] = {"rc": rc, "s": time.perf_counter() - step_start}
        out["wall_s"] = time.perf_counter() - start
    out["steps"] = steps
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        tracer.stop()
        out["spans"] = tracer.spans

    if spec["probe"]:
        err = io.StringIO()
        with redirect_stderr(err):
            rc = cli.main(spec["probe"])
        out["probe"] = {"rc": rc, "stderr": err.getvalue()}

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
