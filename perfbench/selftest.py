"""Tracer self-test, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs the traced benchmark twice on each workload with seed SEED and
requires every count, share and mean to repeat exactly.  Each traced run
checks the other two invariants itself and fails when one breaks: every
alias bound by ``from ... import`` inside the engine is wrapped, and the
layer self times sum to the traced op time within run.py's
COVERAGE_TOLERANCE.  Exit code 0 when everything holds.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEED = 1
WORKLOADS = ("verify", "transfer", "scalars")
# measured times vary between runs; everything else must repeat exactly
TIMED_UNITS = {"s", "ms"}
TIMED_NAMES = {"trace.overhead_frac", "trace.covered_frac"}


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    return result["metrics"]


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        first, second = (traced_run(workload) for _ in range(2))
        bad = 0
        for name, m in first.items():
            if m["unit"] in TIMED_UNITS or name in TIMED_NAMES:
                continue
            if m["value"] != second[name]["value"]:
                print(f"{workload} {name}: {m['value']} then {second[name]['value']}")
                bad += 1
        print(f"{workload}: counts repeat" if not bad else f"{workload}: {bad} mismatches")
        failures += bad
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
