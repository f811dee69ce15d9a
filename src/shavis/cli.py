"""Command-line surface: inspect curves, verify scenarios, replay the worked
examples.

    shavis inspect "[a1,a2,a3,a4,a6]" [--json]
    shavis verify SCENARIO.json [--out FILE] [--mode M] [--evidence E]
                                [--dataset PATH]
    shavis examples [NAME | --all] [--dataset PATH]

Exit codes: 0 ok/certified, 2 input error, 3 hypothesis failure, 4 partial
certificate (missing rank records or assertions), 5 internal error. `main`
alone maps errors to codes: an `OSError` or an `arith.ArithmeticError_`, the
base of every input-error class, is exit 2; anything else is exit 5. Ranks
come from the scenario's rank records, the curve dataset (the bundled one
or --dataset PATH) or a point search, in that order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
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
    """The blob as JSON text, once every int in it has passed
    `arith.check_digits`: past the digit limit json.dumps would raise a bare
    ValueError, and an output that large comes from an input that large."""
    _check_ints(blob, "output")
    return json.dumps(blob, indent=2, sort_keys=True)


def _check_ints(node, where: str) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _check_ints(value, f"{where}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _check_ints(value, f"{where}[{i}]")
    elif isinstance(node, int):
        arith.check_digits(node, where)


def cmd_inspect(args) -> int:
    model = curves.parse_curve(args.curve)
    facts = localdata.curve_facts(model)
    n, locs, j = facts.conductor, facts.local_data, Fraction(facts.c4**3, facts.disc)
    # refused before any output: str() fails past the digit limit (j's
    # denominator divides the discriminant)
    for what, value in (("the minimal model", max(map(abs, facts.minimal.int_ainvs()))),
                        ("c4", facts.c4), ("c6", facts.c6), ("the discriminant", facts.disc),
                        ("j", j.numerator), ("the conductor", n)):
        arith.check_digits(value, what)
    exponents = {l.q: l.f for l in locs}  # N = prod q^f over the bad primes
    blob = {
        "input": [str(a) for a in model.ainvs()],
        "minimal_model": [str(a) for a in facts.minimal.int_ainvs()],
        "invariants": {"c4": str(facts.c4), "c6": str(facts.c6), "disc": str(facts.disc),
                       "j": str(j)},
        "conductor": n,
        "conductor_factorization": {str(q): f for q, f in exponents.items()},
        "local_data": [l.to_json() for l in locs],
    }
    if args.json:
        print(_dump_json(blob))
        return EXIT_OK
    print(f"curve     {model}")
    print(f"minimal   {facts.minimal}")
    print(f"disc      {facts.disc}")
    print(f"j         {j}")
    print(f"conductor {n}" + (f" = {_fact_str(exponents)}" if n > 1 else ""))
    if locs:
        print(f"{'q':>8} {'kodaira':>8} {'f':>3} {'c':>3} {'v(disc)':>8}  class")
        for l in locs:
            print(f"{l.q:>8} {l.kodaira:>8} {l.f:>3} {l.c:>3} {l.v_delta:>8}  {l.reduction_class}")
    else:
        print("good reduction everywhere")
    return EXIT_OK


def _fact_str(exponents: dict[int, int]) -> str:
    return " * ".join(f"{q}^{e}" if e > 1 else str(q) for q, e in sorted(exponents.items()))


def cmd_verify(args) -> int:
    scn = scenario_mod.load_scenario(args.scenario)
    scn = replace(scn, mode=args.mode or scn.mode,
                  evidence_level=args.evidence or scn.evidence_level)
    cert = visibility.verify_scenario(scn, dataio.load_dataset(args.dataset))
    payload = _dump_json(cert.to_json())
    if args.out:
        Path(args.out).write_text(payload + "\n")
        print(f"certificate written to {args.out}")
    else:
        print(payload)
    _print_summary(cert)
    return {"certified": EXIT_OK, "failed": EXIT_FAILED, "partial": EXIT_PARTIAL}[cert.overall]


def _print_summary(cert):
    print(f"# {cert.scenario.name}: {cert.overall}", file=sys.stderr)
    for v in cert.verdicts:
        print(f"#   {v.id:12s} {v.status}", file=sys.stderr)
    print(f"#   conclusion: {cert.conclusion['statement']}", file=sys.stderr)


def cmd_examples(args) -> int:
    if args.name in (None, "all"):
        names = list(scenario_mod.BUNDLED_SCENARIOS)
    elif args.name in EXAMPLE_GROUPS:
        names = EXAMPLE_GROUPS[args.name]
    elif args.name in scenario_mod.BUNDLED_SCENARIOS:
        names = [args.name]
    else:
        known = sorted(EXAMPLE_GROUPS) + list(scenario_mod.BUNDLED_SCENARIOS)
        raise visibility.ScenarioError(f"unknown example {args.name!r}; known: {', '.join(known)}")
    dataset = dataio.load_dataset(args.dataset)
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
    except (ArithmeticError_, OSError) as exc:  # the one input-error rule
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
