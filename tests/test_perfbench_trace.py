"""Every layer the benchmark's traced run expects does work on each
workload: one cycle of each workload runs in this interpreter under
perfbench/tracing.Tracer, and no family that `missing_families` expects
records zero calls. Work that bypasses the traced `_kernels` functions
fails here, not only in the benchmark run. The benchmark's files are only
read."""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
        import workloads
        yield tracing, workloads
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", ["verify-exact", "dual-tower",
                                  "compute-requests"])
def test_one_traced_cycle_covers_every_expected_layer(perfbench, name):
    tracing, workloads = perfbench
    wl = workloads.WORKLOADS[name]()
    wl.build(1)
    calls = len(wl.cycle)
    wl.prepare(0, calls)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = [wl.run(i) for i in range(calls)]
    finally:
        tracer.uninstall()
    assert tracing.missing_families(tracer, name) == []
    assert [f for _, f, _ in wl.tally(0, records)] == [0] * calls
