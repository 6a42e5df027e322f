"""Smoke test of the benchmark: a few ops of every workload, traced and not.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

Asserts that every run is valid and that its last stdout line names every
metric of BENCHMARK.json, and no other, with the declared unit.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, ops=2):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "60",
        "--trace", str(trace), "--max-ops", str(ops),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_metric_printed_with_unit():
    for wl in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = run(wl["name"], trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True, (wl["name"], trace)
            assert line["attempted"] == 2 and line["failed"] == 0
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            assert got == want, (wl["name"], trace)
            for m in line["metrics"].values():
                assert isinstance(m["value"], (int, float)), (wl["name"], m)


if __name__ == "__main__":
    test_every_metric_printed_with_unit()
    print("ok")
