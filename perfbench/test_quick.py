"""The benchmark's own test: every workload at a tiny size, untraced and traced.

Run from the root of a checkout with ``python3 -m pytest perfbench/test_quick.py``.
It checks that a run passes its output checks, that every metric named in
BENCHMARK.json is emitted with its unit, and that the determinism
fingerprints repeat for the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("fingerprint.")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_fingerprints_repeat(workload):
    result, fingerprints = run_bench(workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    _, again = run_bench(workload, 3, 0)
    assert len(fingerprints) == 2 and again == fingerprints


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_yields_every_layer_metric(workload):
    result, _ = run_bench(workload, 3, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert out.returncode != 0
    assert out.stdout == ""
