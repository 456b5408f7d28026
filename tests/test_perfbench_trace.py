"""Every layer the benchmark's traced run expects does work on each
workload: one cycle of each workload runs in this interpreter under
perfbench/tracing.Tracer, and no family that `missing_families` expects
records zero calls. Work that bypasses the traced `_kernels` functions
fails here, not only in the benchmark run. The results of each
workload's first cycle at seed 1 are pinned by the digest that the
benchmark prints in its `# env` line. The benchmark's files are only
read."""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
WORKLOADS = ["verify-exact", "dual-tower", "compute-requests"]
SEED_1_DIGESTS = {"verify-exact": "e943970c23dd5472",
                  "dual-tower": "0adef7ee2c4b3ff8",
                  "compute-requests": "17b9cd22da62b6d8"}


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import run
        import tracing
        import workloads
        yield tracing, workloads, run
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_traced_cycle_covers_every_expected_layer(perfbench, name):
    tracing, workloads, _ = perfbench
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


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_cycle_digest_at_seed_1(perfbench, name):
    """The first cycle of each workload at seed 1, run as the benchmark's
    timed loop runs it, gives the digest of its results that the
    benchmark prints."""
    _, workloads, run = perfbench
    wl = workloads.WORKLOADS[name]()
    wl.build(1)
    calls = len(wl.cycle)
    wl.prepare(0, calls)
    records = [wl.run(i) for i in range(calls)]
    assert run.digest(wl, records) == SEED_1_DIGESTS[name]
