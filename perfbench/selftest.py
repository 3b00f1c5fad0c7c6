"""Benchmark self-test: ``python3 perfbench/run.py --smoke``.

Runs every workload briefly, each in a fresh interpreter as the real runs
are, and checks that

* the last output line is the result object, marked correct;
* every metric BENCHMARK.json names is printed with its declared unit
  (end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``);
* BENCHMARK.json and ``report.py`` declare the same metrics;
* a different seed changes the inputs but not the metric names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = 2


def _run(workload: str, seed: int, trace: int) -> tuple:
    out = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    inputs = next(line.split()[1] for line in lines if line.startswith("inputs: "))
    return json.loads(lines[-1]), inputs


def _check_metrics(result: dict, declared: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: outputs not correct"
    assert result["attempted"] >= 1, label
    printed = result["metrics"]
    names = [m["name"] for m in declared]
    assert sorted(printed) == sorted(names), f"{label}: printed {sorted(printed)} != declared {sorted(names)}"
    for m in declared:
        got = printed[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number"


def main(args) -> int:
    import report

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    assert {k: (v[0], v[1], v[2]) for k, v in report.END_TO_END.items()} == {
        k: (m["unit"], m["better"], m["bound"]) for k, m in e2e.items()
    }, "BENCHMARK.json end_to_end differs from report.END_TO_END"
    assert {k: (v[0], v[1]) for k, v in report.PER_LAYER.items()} == {
        k: (m["unit"], m["better"]) for k, m in layer.items()
    }, "BENCHMARK.json per_layer differs from report.PER_LAYER"

    for workload in (w["name"] for w in bench["workloads"]):
        first, inputs_a = _run(workload, 1, 0)
        _check_metrics(first, bench["end_to_end"], f"{workload} trace 0")
        second, inputs_b = _run(workload, 2, 0)
        _check_metrics(second, bench["end_to_end"], f"{workload} seed 2")
        assert inputs_a != inputs_b, f"{workload}: seeds 1 and 2 made the same inputs"
        assert sorted(first["metrics"]) == sorted(second["metrics"]), workload
        traced, _ = _run(workload, 1, 1)
        _check_metrics(traced, bench["per_layer"], f"{workload} trace 1")
        print(f"smoke {workload}: ok ({first['attempted']} + {second['attempted']} + {traced['attempted']} requests)")
    print(json.dumps({"smoke": "ok"}))
    return 0
