"""The library surface the benchmark in ``bench/`` calls, exercised once per
workload at the benchmark's tiny scale.

The benchmark's own tests (``PYTHONPATH=src python3 -m pytest -q bench``)
also run with this suite, since ``testpaths`` names ``bench``; this test
fails when a library change breaks a name, a signature or a result the
benchmark relies on, or changes a byte of what a workload writes
(``tests/digests.py``). Its generated inputs and its outputs go under
``tmp_path``.
"""

import pytest

import digests
from digests import spec, workloads


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_bench_workload_runs_on_the_library(workload, tmp_path):
    wl, outputs = digests.run_bench_workload(workload, tmp_path)
    checks = workloads.Checks()
    wl.check(checks, outputs)
    assert checks.attempted > 0
    assert checks.failures == []
    if not digests.PINNED_HERE:
        pytest.skip(digests.NOT_PINNED)
    assert wl.digests() == digests.pinned()["bench"][workload]
