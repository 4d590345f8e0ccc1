"""The library surface the benchmark in ``bench/`` calls, exercised once per
workload at the benchmark's tiny scale.

The benchmark's own tests (``PYTHONPATH=src python3 -m pytest -q bench``)
run apart from this suite; this test fails here when a library change
breaks a name, a signature or a result the benchmark relies on. Its
generated inputs and its outputs go under ``tmp_path``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_bench_workload_runs_on_the_library(workload, tmp_path):
    run.prepare(workload, 5, run.SCALES["tiny"], tmp_path)
    prep = json.loads((tmp_path / "prep.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[workload](tmp_path, prep)
    tracer = tracing.Tracer("t")
    with tracing.instrument(tracer):
        wl.setup()
        outputs = [wl.op(i, tracer.span) for i in range(wl.steps)]
    checks = workloads.Checks()
    wl.check(checks, outputs)
    assert checks.attempted > 0
    assert checks.failures == []
