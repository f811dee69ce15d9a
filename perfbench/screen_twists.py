"""List the twist_sweep inputs on which the rank fallback does not finish.

    python3 perfbench/screen_twists.py [--limit-s 10]

For every bundled pair and every squarefree d with |d| <= 500, resolves the
ranks of both twisted curves the way the quadratic theorem does when it has
no rank records: dataio.rank_over over Q with the bundled dataset, hence
point search at height 2000 for every twist the dataset lacks. A (pair, d)
whose resolution runs past the limit is stopped and written to
twist_excluded.json.

Why this exists: point_search confirms each candidate relation between its
points (coefficients up to 40) with exact rational point arithmetic in
dataio._combination_is_trivial_exact. On a few twists that arithmetic runs
for minutes (a stopped op sits there, in Fraction products), which no
time-bounded run can hold. That is a defect of the program. twist_sweep leaves these inputs out, each run's record says how
many there are, and the list should shrink to nothing once the defect is
fixed (rerun this script then).
"""

from __future__ import annotations

import argparse
import json
import signal
import time
from pathlib import Path

import workloads
import worker

OUT = Path(__file__).resolve().parent / "twist_excluded.json"


class _Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise _Deadline


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--limit-s", type=float, default=10.0)
    args = ap.parse_args()
    shavis = worker.import_shavis()
    curves, fields, dataio = shavis.curves, shavis.fields, shavis.dataio
    sources = dataio.RankSources(dataset=dataio.load_dataset())
    signal.signal(signal.SIGALRM, _alarm)
    excluded, times = [], {}
    for name, a, b, _p in workloads.PAIRS:
        mins = [curves.minimal_model(curves.WeierstrassModel.from_list(m))[0] for m in (a, b)]
        for d in workloads.twist_ds():
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, args.limit_s)
            try:
                for m in mins:
                    twist = curves.minimal_model(curves.quadratic_twist(m, d))[0]
                    dataio.rank_over(twist, fields.RATIONALS, sources)
            except _Deadline:
                excluded.append([name, d])
                print(f"{name} d={d}: stopped after {args.limit_s} s", flush=True)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times[f"{name}:{d}"] = time.perf_counter() - t0
    slowest = sorted(times.items(), key=lambda kv: -kv[1])[:20]
    OUT.write_text(json.dumps({
        "limit_s": args.limit_s,
        "screened": len(times),
        "excluded": excluded,
        "slowest_s": {k: round(v, 3) for k, v in slowest},
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
