"""Smoke test of the benchmark harness itself, on sl2/gl2.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs one pass untraced and one traced.  Every metric that
BENCHMARK.json names must appear with its unit, and the two runs must agree
on verdicts and computed counts.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import smoke_workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.ROOT / "src"))

# Failure counters are 0 whenever the program is right.
ZERO_WHEN_CORRECT = {"checks.failed", "flows.truncated"}


def units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def test_every_workload_reports_every_metric_and_agrees_when_traced():
    assert set(smoke_workloads()) == {w["name"] for w in SPEC["workloads"]}
    seen_nonzero = set()
    for name, wl in smoke_workloads().items():
        plain, _ = run.run_workload(wl, seed=3, seconds=0.0, trace=False)
        traced, _ = run.run_workload(wl, seed=3, seconds=0.0, trace=True)
        for result, trace, wanted in ((plain, False, SPEC["end_to_end"]),
                                      (traced, True, SPEC["per_layer"])):
            line = run.result_line(SPEC, result, trace)
            assert line["correct"], (name, trace)
            assert line["failed"] == 0 and line["attempted"] >= 1
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == units(wanted), (name, trace)
            seen_nonzero |= {k for k, v in line["metrics"].items() if v["value"]}
        assert all(plain["metrics"][m["name"]] > 0 for m in SPEC["end_to_end"]), name
        assert plain["counts"] == traced["counts"], name
    missing = set(units(SPEC["per_layer"])) - seen_nonzero - ZERO_WHEN_CORRECT
    assert not missing, f"per-layer metrics no workload measures: {sorted(missing)}"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
