"""Fast self-test of the benchmark, at minimal length.

    python3 perfbench/selftest.py

Runs every workload BENCHMARK.json lists once timed and twice traced, two
ops per op list, and checks that every metric BENCHMARK.json names is
reported with its unit, that every output passed its check, and that the
traced counts repeat exactly. Then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
Takes about half a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Units whose values depend only on the code and the seed.
EXACT_UNITS = {"count", "bytes", "share"}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--max-ops", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def assert_metrics(result, specs):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}, \
        set(metrics) ^ {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        assert_metrics(result_of(run(name, 0)), SPEC["end_to_end"])
        first, second = (result_of(run(name, 1)) for _ in range(2))
        assert_metrics(first, SPEC["per_layer"])
        for m in SPEC["per_layer"]:
            if m["unit"] in EXACT_UNITS:
                a = first["metrics"][m["name"]]["value"]
                b = second["metrics"][m["name"]]["value"]
                assert a == b, f"{name}: {m['name']} {a} != {b}"
        print(f"{name}: ok")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("bare directory: refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
