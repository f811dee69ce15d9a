"""One benchmark child process: runs ops against the library and reports.

    python3 perfbench/worker.py setup     time `import shavis` + load_dataset()
    python3 perfbench/worker.py run       read a job (JSON) on stdin, run it

A job names the workload and either a list of scenarios (an examples round)
or a seed with a time budget or an op count (twist_sweep, census). The
result, written as one JSON object on stdout, holds per-op start times,
latencies and output bytes, the timed-loop wall time, the time the process
was active (load_dataset plus the loop), its peak RSS and its pace samples
(pace.py: a fixed kernel timed between ops, outside every op timer and left
out of the walls). With "trace" set, every layer call is recorded as a span
and the spans are written to "spans_path".
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import pace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Census ops and twist ops are generated outside the clock in chunks.
CHUNK = 8
#: Kernel samples taken right after a set-up probe, to scale it.
SETUP_PACE_SAMPLES = 40


def import_shavis():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import shavis
    except ImportError as exc:
        sys.exit(f"error: cannot import shavis from {SRC}: {exc}")
    if Path(shavis.__file__).resolve().parent != SRC / "shavis":
        sys.exit(f"error: shavis imported from {shavis.__file__}, not from {SRC}")
    return shavis


def setup_probe() -> dict:
    t0 = time.perf_counter()
    shavis = import_shavis()
    shavis.dataio.load_dataset()
    setup_s = time.perf_counter() - t0
    clock = pace.Pace()
    for _ in range(SETUP_PACE_SAMPLES - 1):
        clock.sample()
    return {"setup_s": setup_s, "pace": clock.samples}


def certificate_op(shavis, dataset, blob: dict) -> str:
    scn = shavis.scenario.scenario_from_dict(blob)
    cert = shavis.visibility.verify_scenario(scn, dataset)
    return json.dumps(cert.to_json(), indent=2, sort_keys=True)


def census_op(shavis, op: dict) -> str:
    """The `inspect --json` payload of the shown model, plus two a_q."""
    curves, localdata, arith = shavis.curves, shavis.localdata, shavis.arith
    model = shavis.scenario.parse_curve(op["shown"])
    minimal, _ = curves.minimal_model(model)
    inv = curves.invariants(minimal)
    n, locs = localdata.conductor(minimal)
    blob = {
        "input": [str(a) for a in model.ainvs()],
        "minimal_model": [str(a) for a in minimal.int_ainvs()],
        "invariants": {"c4": str(inv.c4), "c6": str(inv.c6),
                       "disc": str(inv.disc), "j": str(inv.j)},
        "conductor": n,
        "conductor_factorization": (
            {str(q): e for q, e in arith.factor(n).items()} if n > 1 else {}
        ),
        "local_data": [l.to_json() for l in locs],
        "a_q": [],
    }
    for q in op["primes"]:
        rec = shavis.hecke.a_q(model, q)
        blob["a_q"].append({"q": q, "a_q": rec.a_q, "method": rec.method})
    return json.dumps(blob, indent=2, sort_keys=True)


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # noqa: BLE001 - a raising op is counted as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return t0, time.perf_counter() - t0, out, err


def run_job(job: dict) -> dict:
    shavis = import_shavis()
    recorder = None
    if job["trace"]:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    clock = pace.Pace()
    t0 = time.perf_counter()
    dataset = shavis.dataio.load_dataset()
    load_s = time.perf_counter() - t0
    ops, loop_s = [], 0.0
    workload = job["workload"]
    if workload == "examples":
        blobs = [json.loads(shavis.scenario.bundled_scenario_path(n).read_text())
                 for n in job["order"]]
        t0 = time.perf_counter()
        sampling_s = 0.0
        for i, blob in enumerate(blobs):
            if recorder:
                recorder.op = i
            ops.append(_timed(certificate_op, shavis, dataset, blob))
            sampling_s += clock.tick(ops[-1][1])
        loop_s = time.perf_counter() - t0 - sampling_s
    else:
        stream = workloads.inputs(workload, job["seed"])
        count, seconds = job.get("count"), job.get("seconds")
        while (count is None or len(ops) < count) and (seconds is None or loop_s < seconds):
            chunk = [next(stream) for _ in range(CHUNK if count is None
                                                 else min(CHUNK, count - len(ops)))]
            t0 = time.perf_counter()
            sampling_s = 0.0
            for op in chunk:
                if recorder:
                    recorder.op = len(ops)
                if workload == "census":
                    ops.append(_timed(census_op, shavis, op))
                else:
                    ops.append(_timed(certificate_op, shavis, dataset, op[1]))
                sampling_s += clock.tick(ops[-1][1])
                if seconds is not None and \
                        time.perf_counter() - t0 - sampling_s + loop_s >= seconds:
                    break
            loop_s += time.perf_counter() - t0 - sampling_s
    clock.sample()
    result = {
        "ops": ops,
        "loop_s": loop_s,
        "active_s": load_s + loop_s,
        "pace": clock.samples,
        "pace_s": clock.spent_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder:
        recorder.write(job["spans_path"])
    return result


def main(argv: list[str]) -> int:
    if argv == ["setup"]:
        print(json.dumps(setup_probe()))
        return 0
    if argv == ["run"]:
        print(json.dumps(run_job(json.load(sys.stdin))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
