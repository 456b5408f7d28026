"""The committed benchmark record agrees with the benchmark's declaration:
every result row of BENCH_trajectory.json names a workload and a metric
that BENCHMARK.json declares, with the declared unit and direction, and
counts its pairs consistently. Both files are only read."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    with open(ROOT / name, encoding="utf-8") as f:
        return json.load(f)


def test_trajectory_rows_match_benchmark_declaration():
    spec = _load("BENCHMARK.json")
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = [r for entry in _load("BENCH_trajectory.json")
            for r in entry["results"]]
    assert rows
    for r in rows:
        assert r["workload"] in workloads, r
        assert r["metric"] in metrics, r
        declared = metrics[r["metric"]]
        assert (r["unit"], r["better"]) == (declared["unit"],
                                            declared["better"]), r
        assert 0 <= r["pairs_won"] <= r["pairs"] == len(r["seeds"]), r
