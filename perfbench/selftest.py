"""Smoke test of the benchmark harness.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload once untraced and once traced at the smallest run
length (``--seconds 0``: one pass) and asserts that

* the last stdout line has exactly the keys the result format names;
* every metric of ``BENCHMARK.json`` for that mode is printed, with its unit
  and a finite value, and no other metric is;
* no op failed (``failed`` is 0 and ``ok_ratio`` is 1);
* the metadata line names the machine, library versions, BLAS thread
  setting, seed and design counts;
* the traced ``cli`` pass shows the 616 table builds of the spectrum suite
  (6 of them distinct) plus one for each of the two ``spectrum`` commands;

and that the harness refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META_KEYS = {"nproc", "python", "numpy", "scipy", "mpmath", "blas_threads",
             "seed", "design.src_lines", "design.runtime_deps"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload: str, trace: int) -> dict:
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    meta_line, result_line = done.stdout.strip().splitlines()[-2:]
    meta = json.loads(meta_line)["meta"]
    assert META_KEYS <= meta.keys(), META_KEYS - meta.keys()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, set(metrics) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    if not trace:
        assert metrics["ok_ratio"]["value"] == 1.0
    print(f"ok  {workload:14s} trace={trace}  attempted={result['attempted']}")
    return {k: v["value"] for k, v in metrics.items()}


def check_refuses_without_sources() -> None:
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0, done
    assert '"metrics"' not in done.stdout, done.stdout
    print("ok  refuses to run without the package sources")


def main() -> int:
    check_refuses_without_sources()
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0)
        layers = check_result(workload, 1)
        if workload == "cli":
            builds = (layers["spectrum.spectrum_generate.calls"]
                      + layers["spectrum.spectrum_generate3.calls"])
            assert builds == 616 + 2, builds
            assert layers["spectrum.tables_distinct_ratio"] == (6 + 2) / (616 + 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
