"""Command-line surface: inspect curves, verify scenarios, replay the worked
examples.

    shavis inspect "[a1,a2,a3,a4,a6]" [--json]
    shavis verify SCENARIO.json [--out FILE] [--mode M] [--evidence E]
                                [--dataset PATH] [--cache DIR]
    shavis examples [NAME | --all] [--dataset PATH]

Exit codes: 0 ok/certified, 2 input error, 3 hypothesis failure, 4 partial
certificate (missing rank records or assertions), 5 internal error. The
remote rank tier stays off unless SHAVIS_OFFLINE=0 is exported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import arith, curves, dataio, localdata, scenario as scenario_mod, visibility
from .arith import ArithmeticError_

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAILED = 3
EXIT_PARTIAL = 4
EXIT_INTERNAL = 5

#: Expected conclusions of the bundled scenarios, for the pass/fail matrix.
EXAMPLE_EXPECTATIONS = {
    "ex1_quadratic_59": {"overall": "certified", "min_visible_order": 25},
    "ex_493_17_quadratic_195": {"overall": "certified", "min_visible_order": 9},
    "ex_203_quadratic_3": {"overall": "certified", "min_visible_order": 9},
    "ex_203_quadratic_23": {"overall": "certified", "min_visible_order": 9},
    "ex_176_kummer7": {"overall": "certified", "image_rank": 2},
    "ex5_cyclotomic_tower": {"overall": "certified"},
}

#: Short example names accepted by `shavis examples`.
EXAMPLE_GROUPS = {
    "ex1": ["ex1_quadratic_59"],
    "493": ["ex_493_17_quadratic_195"],
    "203": ["ex_203_quadratic_3", "ex_203_quadratic_23"],
    "176": ["ex_176_kummer7"],
    "ex5": ["ex5_cyclotomic_tower"],
}


def _dump_json(blob) -> str:
    return json.dumps(blob, indent=2, sort_keys=True)


def _load_dataset(args) -> dataio.Dataset:
    return dataio.load_dataset(getattr(args, "dataset", None))


def cmd_inspect(args) -> int:
    try:
        model = scenario_mod.parse_curve(args.curve)
        minimal, _ = curves.minimal_model(model)
        inv = curves.invariants(minimal)
        n, locs = localdata.conductor(minimal)
    except (visibility.ScenarioError, curves.SingularCurveError, ArithmeticError_) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    blob = {
        "input": [str(a) for a in model.ainvs()],
        "minimal_model": [str(a) for a in minimal.int_ainvs()],
        "invariants": {
            "c4": str(inv.c4),
            "c6": str(inv.c6),
            "disc": str(inv.disc),
            "j": str(inv.j),
        },
        "conductor": n,
        "conductor_factorization": {str(q): e for q, e in arith.factor(n).items()} if n > 1 else {},
        "local_data": [l.to_json() for l in locs],
    }
    if args.json:
        print(_dump_json(blob))
        return EXIT_OK
    print(f"curve     {model}")
    print(f"minimal   {minimal}")
    print(f"disc      {inv.disc}")
    print(f"j         {inv.j}")
    print(f"conductor {n}" + (f" = {_fact_str(n)}" if n > 1 else ""))
    if locs:
        print(f"{'q':>8} {'kodaira':>8} {'f':>3} {'c':>3} {'v(disc)':>8}  class")
        for l in locs:
            print(f"{l.q:>8} {l.kodaira:>8} {l.f:>3} {l.c:>3} {l.v_delta:>8}  {l.reduction_class}")
    else:
        print("good reduction everywhere")
    return EXIT_OK


def _fact_str(n: int) -> str:
    return " * ".join(
        f"{q}^{e}" if e > 1 else str(q) for q, e in sorted(arith.factor(n).items())
    )


def _network_enabled() -> bool:
    """The remote rank tier is opt-in: exporting SHAVIS_OFFLINE=0 enables it."""
    return os.environ.get(dataio.ENV_OFFLINE, "") in ("0", "false")


def cmd_verify(args) -> int:
    try:
        scn = scenario_mod.load_scenario(args.scenario)
        if args.mode:
            scn = _with_options(scn, mode=args.mode)
        if args.evidence:
            scn = _with_options(scn, evidence_level=args.evidence)
        dataset = _load_dataset(args)
    except (visibility.ScenarioError, dataio.DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    remote = None
    if _network_enabled():
        remote = dataio.RemoteClient(cache_dir=args.cache)
    try:
        cert = visibility.verify_scenario(scn, dataset, remote)
    except (visibility.ScenarioError, ArithmeticError_) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload = _dump_json(cert.to_json())
    if args.out:
        Path(args.out).write_text(payload + "\n")
        print(f"certificate written to {args.out}")
    else:
        print(payload)
    _print_summary(cert)
    return {"certified": EXIT_OK, "failed": EXIT_FAILED, "partial": EXIT_PARTIAL}[cert.overall]


def _with_options(scn, **kw):
    from dataclasses import replace

    return replace(scn, **kw)


def _print_summary(cert):
    print(f"# {cert.scenario.name}: {cert.overall}", file=sys.stderr)
    for v in cert.verdicts:
        print(f"#   {v.id:12s} {v.status}", file=sys.stderr)
    print(f"#   conclusion: {cert.conclusion['statement']}", file=sys.stderr)


def cmd_examples(args) -> int:
    names = []
    if args.name in (None, "all", "--all"):
        names = list(scenario_mod.BUNDLED_SCENARIOS)
    elif args.name in EXAMPLE_GROUPS:
        names = EXAMPLE_GROUPS[args.name]
    elif args.name in scenario_mod.BUNDLED_SCENARIOS:
        names = [args.name]
    else:
        known = sorted(EXAMPLE_GROUPS) + list(scenario_mod.BUNDLED_SCENARIOS)
        print(f"error: unknown example {args.name!r}; known: {', '.join(known)}",
              file=sys.stderr)
        return EXIT_INPUT
    dataset = _load_dataset(args)
    certs = [visibility.verify_scenario(scenario_mod.load_bundled_scenario(n), dataset)
             for n in names]
    ok = True
    for cert in certs:
        expect = EXAMPLE_EXPECTATIONS[cert.scenario.name]
        good = cert.overall == expect["overall"]
        for key in ("min_visible_order", "image_rank"):
            if key in expect:
                good = good and cert.conclusion.get(key) == expect[key]
        status = "PASS" if good else "FAIL"
        ok = ok and good
        print(f"{status}  {cert.scenario.name:28s} overall={cert.overall:9s} "
              f"conclusion: {cert.conclusion['statement']}")
        if not good:
            print(f"      expected {expect}, got overall={cert.overall} "
                  f"conclusion={cert.conclusion}")
    print(f"{len(certs)} scenario(s) run; {'all pass' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shavis",
        description="verify visibility-theorem hypotheses for congruent elliptic "
                    "curve pairs and emit certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="invariants, minimal model, local data")
    p_inspect.add_argument("curve", help='curve as "[a1,a2,a3,a4,a6]"')
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.set_defaults(func=cmd_inspect)

    p_verify = sub.add_parser("verify", help="verify a scenario file, emit a certificate")
    p_verify.add_argument("scenario", help="path to a scenario JSON file")
    p_verify.add_argument("--out", help="write the certificate here instead of stdout")
    p_verify.add_argument("--mode", choices=["heuristic", "bounded-proof"])
    p_verify.add_argument("--evidence", choices=["summary", "full"])
    p_verify.add_argument("--dataset", help="alternate curve dataset path")
    p_verify.add_argument("--cache", help="cache directory for remote fetches")
    p_verify.set_defaults(func=cmd_verify)

    p_ex = sub.add_parser("examples", help="replay the bundled worked examples")
    p_ex.add_argument("name", nargs="?", default=None,
                      help="ex1 | 493 | 203 | 176 | ex5 | a scenario name | all")
    p_ex.add_argument("--all", dest="name", action="store_const", const="all")
    p_ex.add_argument("--dataset", help="alternate curve dataset path")
    p_ex.set_defaults(func=cmd_examples)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
