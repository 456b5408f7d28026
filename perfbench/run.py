"""Layered benchmark for jordankit: one workload per invocation.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the workload runs as a single-client closed loop for --seconds
(whole cycles of its plan) and the end-to-end metrics are reported, with
trial and set-up times scaled to the speed of a fixed reference chunk
(reference.py) run on the same host state; with --trace 1 a fixed number
of cycles runs once untraced and once under span tracing, and the
per-layer metrics are reported. Set-up time is the median of several
fresh interpreters that import `jordankit.cli` and build the inputs.
Every output is checked outside the timed region.

Lines before the last one are informational (environment block, raw
times, tail percentile, skipped trials). The last line of stdout
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference
from tracing import (CoverageError, Tracer, missing_families,
                     per_layer_names, per_layer_values)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
REF_EVERY_S = 0.02
RUNS_DIR = os.path.join(HERE, "runs")


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def _import_package():
    """Import jordankit.cli from this checkout's src/, never from
    anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "jordankit", "cli.py")):
        raise BenchError(f"no jordankit package under {SRC}")
    sys.path.insert(0, SRC)
    import jordankit.cli
    where = os.path.dirname(os.path.abspath(jordankit.cli.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise BenchError(f"jordankit imported from {where}, not {SRC}")


def _load_workload(name, seed):
    import workloads
    wl = workloads.WORKLOADS[name]()
    wl.build(seed)
    return wl


def setup_probe(args):
    """Child process: time the import and the input build, then the
    reference chunk on the same host state."""
    t0 = time.perf_counter()
    _import_package()
    t1 = time.perf_counter()
    _load_workload(args.workload, args.seed)
    t2 = time.perf_counter()
    ref_s = statistics.mean(reference.chunk() for _ in range(5))
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                      "ref_s": ref_s}))


def measure_setup(args):
    """Medians over fresh interpreters of the set-up time scaled to
    reference speed, the raw import time and the raw set-up time; the
    first probe only warms the bytecode cache."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        if out.returncode != 0:
            raise BenchError(f"setup probe failed: {out.stderr.strip()}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    samples = samples[1:]
    return (statistics.median(s["setup_s"] * reference.NOMINAL_S / s["ref_s"]
                              for s in samples),
            statistics.median(s["import_s"] for s in samples),
            statistics.median(s["setup_s"] for s in samples))


def tail(times):
    """(percentile, value): the highest whole percentile with at least
    ten samples beyond it (nearest-rank)."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 0, -1):
        idx = max(0, math.ceil(p / 100 * n) - 1)
        if n - idx - 1 >= 10:
            return p, xs[idx]
    return 0, xs[0]


def environment(wl, args, digest):
    import jordankit._kernels as kernels
    import jordankit.rings as rings
    rational = rings._rational
    return {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "kernel_backend": kernels.BACKEND,
            "rational_backend": f"{rational.__module__}.{rational.__name__}",
            "python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "nproc": os.cpu_count(), "digest": digest}


def comparability(env):
    """Compare this run's environment with the last run of the same
    workload in this checkout; record it. Returns the differing keys."""
    path = os.path.join(RUNS_DIR, f"{env['workload']}.json")
    fixed = ("kernel_backend", "rational_backend", "python", "nproc")
    try:
        with open(path, encoding="utf-8") as fh:
            prev = json.load(fh)
    except (OSError, ValueError):
        prev = {"env": {k: env[k] for k in fixed}, "digests": {}}
    diff = [k for k in fixed if prev["env"].get(k) != env[k]]
    old = prev["digests"].get(str(env["seed"]))
    if old is not None and old != env["digest"]:
        diff.append("digest")
    prev["digests"][str(env["seed"])] = env["digest"]
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": {k: env[k] for k in fixed},
                   "digests": prev["digests"]}, fh, sort_keys=True)
    return diff


def digest(wl, records):
    """Digest of the first cycle's results."""
    h = hashlib.sha256()
    for rec in records[:len(wl.cycle)]:
        h.update(wl.canonical(rec).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def timed_run(wl, seconds):
    """Whole cycles until `seconds` of calls and reference chunks have
    passed. A reference chunk runs after every REF_EVERY_S of call time;
    each call's wall time is scaled to reference speed by the chunks of
    its own cycle. Between cycles, outside the measured time, the next
    cycle's inputs are made and the last cycle's outputs are checked;
    only the first cycle's records are kept (for the digest)."""
    clock = time.perf_counter
    raw, scaled, tally, refs, first = [], [], [], [], None
    gc.collect()
    start = clock()
    measured, i = 0.0, 0
    while measured < seconds:
        wl.prepare(i, i + len(wl.cycle))
        t_cycle = clock()
        cycle, records, cycle_refs, since = [], [], [], 0.0
        for _ in range(len(wl.cycle)):
            t0 = clock()
            records.append(wl.run(i))
            dt = clock() - t0
            cycle.append(dt)
            i += 1
            since += dt
            if since >= REF_EVERY_S:
                cycle_refs.append(reference.chunk())
                since = 0.0
        if not cycle_refs:
            cycle_refs.append(reference.chunk())
        measured += clock() - t_cycle
        scale = reference.NOMINAL_S * len(cycle_refs) / sum(cycle_refs)
        raw += cycle
        scaled += [t * scale for t in cycle]
        refs += cycle_refs
        tally += wl.tally(i - len(cycle), records)
        if first is None:
            first = records
    return clock() - start, raw, scaled, tally, first, refs


def per_trial(wl, times):
    """A call's time split evenly over its trials: one sample per call."""
    return [t / wl.trials(i) for i, t in enumerate(times)]


def end_to_end(args, wl):
    setup_s, _, raw_setup_s = measure_setup(args)
    elapsed, raw, times, tally, records, refs = timed_run(wl, args.seconds)
    trials = sum(t for t, _, _ in tally)
    per, raw_per = per_trial(wl, times), per_trial(wl, raw)
    pct, tail_s = tail(per)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (trials / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(per) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {"tail_percentile": pct, "calls": len(times),
            "elapsed_s": round(elapsed, 3),
            "ref_chunk_ms": round(statistics.median(refs) * 1e3, 4),
            "ref_chunks": len(refs),
            "raw_ops_per_s": round(trials / sum(raw), 3),
            "raw_op_p50_ms": round(statistics.median(raw_per) * 1e3, 3),
            "raw_op_tail_ms": round(tail(raw_per)[1] * 1e3, 3),
            "raw_setup_s": round(raw_setup_s, 4)}
    return metrics, records, tally, info


def traced(args, wl):
    _, import_s, _ = measure_setup(args)
    n = wl.trace_cycles * len(wl.cycle)
    wl.prepare(0, n)
    clock = time.perf_counter
    gc.collect()
    t0 = clock()
    plain = [wl.run(i) for i in range(n)]
    untraced_s = clock() - t0
    tracer = Tracer()
    tracer.install()
    gc.collect()
    t0 = clock()
    try:
        records = [wl.run(i) for i in range(n)]
    finally:
        traced_s = clock() - t0
        tracer.uninstall()
    tally = wl.tally(0, records)
    if [wl.canonical(r) for r in plain] != [wl.canonical(r) for r in records]:
        raise BenchError("tracing changed the results")
    missing = missing_families(tracer, wl.name)
    if missing:
        raise CoverageError(f"no calls recorded on {wl.name} for: "
                            + ", ".join(missing))
    fail_ratio = (sum(f for _, f, _ in tally)
                  / sum(t for t, _, _ in tally))
    vals = per_layer_values(tracer, import_s, traced_s / untraced_s,
                            fail_ratio)
    metrics = {name: (vals[name], unit) for name, unit, _ in
               per_layer_names()}
    info = {"traced_calls": n, "untraced_s": round(untraced_s, 3),
            "traced_s": round(traced_s, 3)}
    return metrics, records, tally, info


def _check_declared(metrics, section):
    """The emitted metrics must be exactly those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {(m["name"], m["unit"]) for m in spec[section]}
    emitted = {(name, unit) for name, (_, unit) in metrics.items()}
    if declared != emitted:
        raise BenchError(f"{section} metrics differ from BENCHMARK.json: "
                         f"{sorted(declared ^ emitted)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-exact", "dual-tower", "compute-requests"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        _import_package()
        wl = _load_workload(args.workload, args.seed)
        section = "per_layer" if args.trace else "end_to_end"
        run = traced if args.trace else end_to_end
        metrics, records, tally, info = run(args, wl)
        _check_declared(metrics, section)
    except (BenchError, CoverageError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    env = environment(wl, args, digest(wl, records))
    env["not_comparable"] = comparability(env)
    print("# env " + json.dumps(env, sort_keys=True))
    info["skipped"] = sum(s for _, _, s in tally)
    print("# run " + json.dumps(info, sort_keys=True))
    failed = sum(f for _, f, _ in tally)
    print(json.dumps({
        "correct": failed == 0, "attempted": sum(t for t, _, _ in tally),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
