"""Show that the benchmark's checks can fail.

    python3 perfbench/selftest.py

Makes short runs in which one output is damaged after the ops ran and before
the checks: one flipped byte in one certificate (examples, twist_sweep) and
one local-data entry swapped between two curves (census). Each damaged run
must report failed > 0, and the same run undamaged must report failed = 0.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CASES = (("examples", "cert"), ("twist_sweep", "cert"), ("census", "localdata"))
SECONDS = "2"


def run(workload: str, corrupt: str | None) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
           "--seconds", SECONDS, "--trace", "0"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload, how in CASES:
        clean, damaged = run(workload, None), run(workload, how)
        frac = damaged["failed"] / damaged["attempted"]
        good = clean["failed"] == 0 and clean["correct"] and damaged["failed"] > 0 \
            and not damaged["correct"]
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {workload:12s} --corrupt {how:9s} "
              f"failed_frac {frac:.4f} ({damaged['failed']} of {damaged['attempted']}); "
              f"undamaged: {clean['failed']} of {clean['attempted']} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
