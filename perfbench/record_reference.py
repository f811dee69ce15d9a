"""Record the reference digests that the checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the SHA-256 of each bundled scenario's
certificate (the bytes `shavis verify --out` writes) and, for the default
seed, the digests of the first twist_sweep and census outputs. Run it only
on a commit whose certificates are known good; a later commit must
reproduce these bytes.
"""

from __future__ import annotations

import json

import checks
import run
import workloads
import worker

PINNED_OPS = {"twist_sweep": 10, "census": 40}


def main() -> None:
    shavis = worker.import_shavis()
    dataset = shavis.dataio.load_dataset()
    examples = {}
    for name in workloads.SCENARIOS:
        blob = json.loads(shavis.scenario.bundled_scenario_path(name).read_text())
        examples[name] = checks.digest(worker.certificate_op(shavis, dataset, blob))
    pins = {}
    for workload, count in PINNED_OPS.items():
        ops = workloads.take(workload, run.DEFAULT_SEED, count)
        outs = [worker.census_op(shavis, op) if workload == "census"
                else worker.certificate_op(shavis, dataset, op[1]) for op in ops]
        pins[workload] = {str(i): checks.digest(out) for i, out in enumerate(outs)}
    run.REFERENCE.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "examples": examples, "pins": pins}, indent=1) + "\n")


if __name__ == "__main__":
    main()
