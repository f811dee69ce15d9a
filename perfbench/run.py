"""The shavis benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload examples --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and NOTES.md): examples, twist_sweep, census.
Each is a closed loop with one client; at most one child process runs at a
time. An op is one certificate (examples, twist_sweep) or one curve (census).

--trace 0 measures the end-to-end metrics with tracing off:
  latency_p50_ms, latency_p90_ms  median and 90th percentile of op wall time
  throughput_ops_s                ops completed / wall time of the timed phase
  peak_rss_mb                     peak RSS of the process that ran the ops
  setup_s                         fresh process: import shavis + load_dataset()
                                  (median of several fresh processes)
Every time is scaled to a reference CPU pace (pace.py), so that the drifting
speed of a shared machine cancels; the raw times go to the run record.
--trace 1 runs the same ops twice, untraced and then traced, and reports the
per-layer metrics from the spans (tracing.py) plus trace.overhead_frac.

Every output is checked (checks.py); an op that raises or fails a check
counts as failed. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record of the run, with the
run environment and the reason for each failure, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import pace
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

#: Seed whose first outputs are pinned in reference.json.
DEFAULT_SEED = 1
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "ops/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class RunError(RuntimeError):
    """The run cannot produce a result (no program, or a worker died)."""


def _child(args: list[str], job: dict | None = None, timeout: float = CHILD_TIMEOUT_S) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        input=None if job is None else json.dumps(job),
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup() -> list[list[float]]:
    """Fresh processes timing import + load_dataset; the first warms caches.

    Returns [raw, scaled] seconds per probe, each scaled by the kernel
    samples its process took right after."""
    _child(["setup"])
    probes = [_child(["setup"]) for _ in range(SETUP_PROBES)]
    return [[r["setup_s"], r["setup_s"] * pace.Scale(r["pace"]).overall()] for r in probes]


class Pass:
    """The ops of one pass over a workload, with their outputs and timings."""

    def __init__(self):
        self.inputs: list = []  # scenario names (examples) or generated ops
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.outputs: list[str | None] = []
        self.errors: list[str | None] = []
        self.rounds: list[list[str]] = []
        self.round_walls: list[list[float]] = []  # examples: [start, seconds]
        self.pace: list[list[float]] = []  # kernel samples of every worker
        self.wall_s = 0.0  # the timed phase
        self.active_s = 0.0  # summed worker time in load_dataset + ops
        self.maxrss_mb = 0.0
        self.span_files: list[Path] = []

    def absorb(self, result: dict) -> None:
        for start, latency, out, err in result["ops"]:
            self.starts.append(start)
            self.latencies.append(latency)
            self.outputs.append(out)
            self.errors.append(err)
        self.active_s += result["active_s"]
        self.pace += result["pace"]
        self.maxrss_mb = max(self.maxrss_mb, result["maxrss_mb"])


def _spans_path(args, tag: str) -> Path:
    return OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{tag}.jsonl"


def run_pass(args, trace: bool, replay: Pass | None = None) -> Pass:
    """Run the workload for args.seconds, or replay exactly the ops of `replay`."""
    p = Pass()
    if args.workload == "examples":
        rounds = replay.rounds if replay else None
        t0 = time.perf_counter()
        k = 0
        while (k < len(rounds)) if rounds else (time.perf_counter() - t0 < args.seconds):
            order = rounds[k] if rounds else workloads.examples_round(args.seed, k)
            job = {"workload": "examples", "order": order, "trace": trace}
            if trace:
                job["spans_path"] = str(_spans_path(args, f"round{k}"))
                p.span_files.append(Path(job["spans_path"]))
            start = time.perf_counter()
            result = _child(["run"], job)
            # the round's wall, child start-up included, kernel samples not
            p.round_walls.append([start, time.perf_counter() - start - result["pace_s"]])
            p.absorb(result)
            p.rounds.append(order)
            p.inputs += order
            k += 1
        p.wall_s = sum(seconds for _, seconds in p.round_walls)
        return p
    job = {"workload": args.workload, "seed": args.seed, "trace": trace}
    if replay:
        job["count"] = len(replay.outputs)
    else:
        job["seconds"] = args.seconds
    if trace:
        job["spans_path"] = str(_spans_path(args, "worker"))
        p.span_files.append(Path(job["spans_path"]))
    result = _child(["run"], job, timeout=CHILD_TIMEOUT_S)
    p.absorb(result)
    p.wall_s = result["loop_s"]
    p.inputs = workloads.take(args.workload, args.seed, len(p.outputs))
    return p


def corrupt(p: Pass, how: str) -> None:
    """Damage one output on purpose, to show that the checks can fail."""
    if how == "cert":
        out = p.outputs[0]
        i = out.index('"overall"') + len('"overall": "')
        p.outputs[0] = out[:i] + chr(ord(out[i]) ^ 1) + out[i + 1:]
        return
    payloads = [json.loads(out) for out in p.outputs]
    having = [i for i, blob in enumerate(payloads) if blob["local_data"]]
    for i in having:
        for j in having:
            a, b = payloads[i]["local_data"], payloads[j]["local_data"]
            if a[0] != b[0]:
                a[0], b[0] = b[0], a[0]
                p.outputs[i] = json.dumps(payloads[i], indent=2, sort_keys=True)
                p.outputs[j] = json.dumps(payloads[j], indent=2, sort_keys=True)
                return
    raise ValueError("no two ops with different local data to swap")


def check_pass(shavis, args, p: Pass, reference: dict) -> list[str | None]:
    """One reason per op: the error it raised, its failed check, or None."""
    pins = reference["pins"].get(args.workload, {}) if args.seed == DEFAULT_SEED else {}
    if args.workload == "examples":
        found = checks.check_examples(shavis, p.inputs, p.outputs, reference["examples"])
    elif args.workload == "twist_sweep":
        found = checks.check_twist(shavis, p.inputs, p.outputs, pins)
    else:
        found = checks.check_census(shavis, p.inputs, p.outputs, pins)
    return [err or reason for err, reason in zip(p.errors, found)]


def _label(workload: str, op) -> str:
    if workload == "examples":
        return op
    if workload == "twist_sweep":
        return op[1]["name"]
    return op["golden"] or "random"


def end_to_end(p: Pass, setup: list[list[float]], scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times scaled to the reference pace unless
    `scaled` is false (the raw numbers go to the run record)."""
    if scaled:
        scale = pace.Scale(p.pace)
        lat = [scale.scaled(t, x) for t, x in zip(p.starts, p.latencies)]
        if p.round_walls:
            wall = sum(scale.scaled(t, x) for t, x in p.round_walls)
        else:  # one worker; the loop's own overhead scales like its ops
            wall = p.wall_s * sum(lat) / sum(p.latencies)
    else:
        lat, wall = p.latencies, p.wall_s
    lat_ms = sorted(x * 1000 for x in lat)
    return {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[-1],
        "throughput_ops_s": len(lat_ms) / wall,
        "peak_rss_mb": p.maxrss_mb,
        "setup_s": statistics.median(probe[1 if scaled else 0] for probe in setup),
    }


def pace_summary(p: Pass) -> dict[str, float]:
    secs = sorted(s for _, s in p.pace)
    return {"samples": len(secs), "kernel_min_ms": secs[0] * 1000,
            "kernel_median_ms": statistics.median(secs) * 1000,
            "kernel_max_ms": secs[-1] * 1000, "reference_ms": pace.REFERENCE_S * 1000}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("cert", "localdata"),
                    help="self-test: damage one output before the checks")
    args = ap.parse_args(argv)
    if args.corrupt == "cert" and args.workload == "census" or \
            args.corrupt == "localdata" and args.workload != "census":
        ap.error(f"--corrupt {args.corrupt} does not apply to {args.workload}")
    return args


def import_shavis():
    if not (SRC / "shavis" / "__init__.py").is_file():
        raise RunError(f"no shavis package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shavis
    import shavis.cli  # noqa: F401 - checks read EXAMPLE_EXPECTATIONS

    return shavis


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment(args)
    shavis = import_shavis()
    reference = json.loads(REFERENCE.read_text())
    OUT_DIR.mkdir(exist_ok=True)

    setup = [] if args.trace else measure_setup()
    plain = run_pass(args, trace=False)
    if args.corrupt:
        corrupt(plain, args.corrupt)
    reasons = check_pass(shavis, args, plain, reference)
    problems = []  # failures of the run as a whole, not of one op
    env["ops"] = len(plain.outputs)
    env["pace"] = pace_summary(plain)
    record = {
        "environment": env,
        "inputs_left_out": len(workloads.twist_excluded()) if args.workload == "twist_sweep" else 0,
        "op_latencies_ms": [[_label(args.workload, x), round(t * 1000, 3)]
                            for x, t in zip(plain.inputs, plain.latencies)],
        "op_starts_s": plain.starts,
        "pace_samples": plain.pace,
    }

    if args.trace:
        traced = run_pass(args, trace=True, replay=plain)
        traced_reasons = check_pass(shavis, args, traced, reference)
        for i, out in enumerate(traced.outputs):
            if traced_reasons[i] is None and out != plain.outputs[i]:
                traced_reasons[i] = f"op {i}: traced output differs from the untraced one"
        reasons += traced_reasons
        spans = [tracing.read_spans(path) for path in traced.span_files]
        # the untraced wall as it would have been at the traced pass's pace
        at_traced_pace = plain.active_s * pace.Scale(plain.pace).overall() \
            / pace.Scale(traced.pace).overall()
        metrics = tracing.layer_metrics(spans, traced.active_s, at_traced_pace)
        identity = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) \
            + metrics["trace.outside_s"]
        if abs(identity - metrics["trace.wall_s"]) > 1e-6 * metrics["trace.wall_s"]:
            problems.append(f"layer self times + outside = {identity}, "
                           f"traced wall = {metrics['trace.wall_s']}")
        record["ratio_bases"] = tracing.bases(metrics)
        record["span_files"] = [str(path.relative_to(ROOT)) for path in traced.span_files]
        units = {name: tracing.unit(name) for name in metrics}
    else:
        metrics = end_to_end(plain, setup)
        record["raw_metrics"] = end_to_end(plain, setup, scaled=False)
        record["setup_samples_s"] = setup
        units = UNITS

    failures = [r for r in reasons if r is not None]
    attempted = len(reasons)
    record.update(
        attempted=attempted,
        failed=len(failures),
        failed_frac=len(failures) / attempted,
        failures=failures[:50],
        problems=problems,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# environment {json.dumps(env)}")
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:48s} {value:14.6g} {units[name]}")
    print(f"{args.workload:12s} {'failed_frac':48s} {record['failed_frac']:14.6g} ratio "
          f"({len(failures)} of {attempted})")
    for ratio, base in record.get("ratio_bases", {}).items():
        print(f"# {ratio} has base {base}")
    for reason in failures[:10] + problems:
        print(f"# failed: {reason}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0 if not failures and not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
