"""Run every workload once and print its end-to-end metrics with their units.

    python3 bench/all.py

Each workload runs as ``bench/run.py`` in its own process, one after another,
at manifest.json's default seed for BENCHMARK.json's run_seconds. Exits
nonzero if any run fails or reports an incorrect result. Per-layer metrics
come from ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seed = json.loads((BENCH / "manifest.json").read_text())["default_seed"]
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for note in lines[:-1]:
            if not note.startswith(workload):
                print(f"  {note}")
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:12.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
