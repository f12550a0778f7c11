"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload, untraced and traced, it runs ``run.py --size tiny`` on
a seed that was not used while the benchmark was written and checks that

* the run exits 0 and its last line is the result object with exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the outputs were correct and no request failed;
* every metric BENCHMARK.json names for that mode is present, with its
  unit, as a number;
* nothing outside ``perfbench/`` was created or modified.

Last, it copies only BENCHMARK.json and ``perfbench/`` into a scratch
directory and checks that the benchmark refuses to run there: non-zero
exit, no result line.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 90210
SECONDS = "2"


def tree_state(root: Path) -> dict:
    """path -> (size, mtime) of every file outside perfbench/ and .git/."""
    state = {}
    for path in root.rglob("*"):
        relative = path.relative_to(root)
        if relative.parts[0] in ("perfbench", ".git") or not path.is_file():
            continue
        stat = path.stat()
        state[str(relative)] = (stat.st_size, stat.st_mtime_ns)
    return state


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec: dict, workload: str, trace: int) -> None:
    process = run(ROOT, workload, trace)
    label = f"{workload} trace={trace}"
    if process.returncode != 0:
        raise AssertionError(f"{label}: exit {process.returncode}\n"
                             f"{process.stdout[-3000:]}{process.stderr}")
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        f"{label}: metrics {sorted(result['metrics'])}"
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], f"{label}: {metric['name']}"
        assert isinstance(entry["value"], (int, float)) \
            and math.isfinite(entry["value"]), f"{label}: {metric['name']}"
        if not trace:
            assert entry["value"] > 0, f"{label}: {metric['name']} is 0"
    print(f"ok  {label}: attempted {result['attempted']}")


def check_refuses_without_source() -> None:
    lonely = HERE / "_work" / "lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    shutil.copytree(HERE, lonely / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", lonely / "BENCHMARK.json")
    try:
        process = run(lonely, "serve_fresh", 0)
    finally:
        shutil.rmtree(HERE / "_work", ignore_errors=True)
    assert process.returncode != 0, "ran without src/"
    assert '"correct"' not in process.stdout, "printed a result without src/"
    print("ok  refuses to run without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = tree_state(ROOT)
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                check_result(spec, workload, trace)
        changed = sorted(set(tree_state(ROOT).items()) ^ set(before.items()))
        assert not changed, f"files outside perfbench/ changed: {changed}"
        print("ok  nothing written outside perfbench/")
        check_refuses_without_source()
    except AssertionError as failure:
        print(f"FAIL {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
