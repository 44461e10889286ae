"""Smoke test of the benchmark: every workload at its smallest size, both modes.

    python3 benchmarks/smoke.py

Checks that the last output line has exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, that the metric names and units
are those of ``BENCHMARK.json`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``), that every value is a finite number and that the run
is correct.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload: str, trace: int, spec: dict) -> list[str]:
    argv = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("run is not correct")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed = {result.get('failed')!r}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not problems else '; '.join(problems)}", flush=True)
            status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
