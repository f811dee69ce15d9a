"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every tolerance below is exact equality. The
property suites of criterion 6 live next to their modules (hypothesis, at
least 200 cases each); this module re-runs the two that belong to the
pipeline as a whole (determinism, symmetry) and points to the rest.
"""

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

import shavis
from shavis import arith, fields
from shavis.congruence import irreducible_mod_p, recheck_witness, verify_congruence
from shavis.curves import WeierstrassModel, minimal_model, quadratic_twist
from shavis.localdata import conductor
from shavis.scenario import load_bundled_scenario, scenario_from_dict
from shavis.visibility import clear_memos, verify_scenario

E1 = [0, 0, 0, 1, -10]
E2 = [0, 0, 0, -584, 5444]
E203_1 = [0, -1, 1, 20, -8]
E203_2 = [1, 1, 0, -9, 8]
E176 = [0, 1, 0, -5, -13]
E1232 = [0, 1, 0, 56, -588]

# Reference values for the twist pipeline, frozen ahead of the suite. The
# stated conductor 724048 in the source text matches the +59 twist, while its
# printed factorization 2^2 x 13 x 59^2 = 181012 is the conductor of the -59
# twist: the fixture records both and the discrepancy explicitly.
TWIST_ORACLE = {
    "E1_plus59": {"model": [0, 0, 0, 3481, -2053790], "conductor": 724048},
    "E2_plus59": {"model": [0, 0, 0, -2032904, 1118083276], "conductor": 5068336},
    "E1_minus59": {"model": [0, 0, 0, 3481, 2053790], "conductor": 181012},
    "E2_minus59": {"model": [0, 0, 0, -2032904, -1118083276], "conductor": 1267084},
    "paper_printed": {"E1": 724048, "E2": 5068336,
                      "E1_printed_factorization": 2**2 * 13 * 59**2,
                      "E2_printed_factorization": 2**2 * 13 * 7 * 59**2},
}


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_conductors_and_tamagawa():
    n1, locs1 = conductor(WeierstrassModel.from_list(E1))
    n2, locs2 = conductor(WeierstrassModel.from_list(E2))
    c7 = next(l for l in locs2 if l.q == 7)
    units = all(l.c % 5 != 0 for l in locs1) and all(
        l.c % 5 != 0 for l in locs2 if l.q != 7
    )
    ok = n1 == 52 and n2 == 364 and c7.c == 5 and units
    report("1 (conductors, Tamagawa numbers)", ok,
           f"N(E1)={n1} N(E2)={n2} c_7={c7.c}")


def test_criterion_2_twist_pipeline():
    details = []
    ok = True
    for label, base, d in (("E1_plus59", E1, 59), ("E2_plus59", E2, 59),
                           ("E1_minus59", E1, -59), ("E2_minus59", E2, -59)):
        m = minimal_model(quadratic_twist(WeierstrassModel.from_list(base), d))[0]
        n, _ = conductor(m)
        oracle = TWIST_ORACLE[label]
        ok = ok and [int(a) for a in m.int_ainvs()] == oracle["model"]
        ok = ok and n == oracle["conductor"]
        details.append(f"{label}: N={n}")
    # paper comparison: numbers agree with the +59 twists...
    ok = ok and TWIST_ORACLE["E1_plus59"]["conductor"] == TWIST_ORACLE["paper_printed"]["E1"]
    ok = ok and TWIST_ORACLE["E2_plus59"]["conductor"] == TWIST_ORACLE["paper_printed"]["E2"]
    # ...while the printed factorizations are internally inconsistent with
    # them (they equal the -59 conductors); the fixture flags this erratum
    ok = ok and TWIST_ORACLE["paper_printed"]["E1_printed_factorization"] != 724048
    ok = ok and (TWIST_ORACLE["paper_printed"]["E1_printed_factorization"]
                 == TWIST_ORACLE["E1_minus59"]["conductor"])
    ok = ok and (TWIST_ORACLE["paper_printed"]["E2_printed_factorization"]
                 == TWIST_ORACLE["E2_minus59"]["conductor"])
    report("2 (twist pipeline vs oracle)", ok, "; ".join(details))


def test_criterion_3_congruences_certify_fast():
    pairs = [
        (E1, E2, 5, 112),
        ([1, -1, 1, -57, 222], [1, -1, 1, -91, -310], 3, None),
        (E203_1, E203_2, 3, None),
        (E176, E1232, 3, None),
        ([0, 1, 0, -30008176, -63229110828], [0, 1, 0, -144, 532], 3, None),
    ]
    ok = True
    details = []
    for a, b, p, expected_bound in pairs:
        t0 = time.monotonic()
        cert = verify_congruence(
            WeierstrassModel.from_list(a), WeierstrassModel.from_list(b), p,
            mode="bounded-proof",
        )
        dt = time.monotonic() - t0
        ok = ok and cert.certified and dt < 5.0
        if expected_bound is not None:
            ok = ok and cert.bound == expected_bound
        details.append(f"p={p} bound={cert.bound} {dt:.2f}s")
    report("3 (congruence certificates)", ok, "; ".join(details))


def test_criterion_4_certificates_reproduce_conclusions(dataset):
    expectations = {
        "ex1_quadratic_59": ("certified", {"min_visible_order": 25}),
        "ex_493_17_quadratic_195": ("certified", {"min_visible_order": 9}),
        "ex_203_quadratic_3": ("certified", {"min_visible_order": 9}),
        "ex_203_quadratic_23": ("certified", {"min_visible_order": 9}),
        "ex_176_kummer7": ("certified", {"image_rank": 2, "kernel_rank_bound": 0}),
        "ex5_cyclotomic_tower": ("certified", {}),
    }
    ok = True
    details = []
    for name, (overall, conclusion) in expectations.items():
        cert = verify_scenario(load_bundled_scenario(name), dataset)
        good = cert.overall == overall
        for key, val in conclusion.items():
            good = good and cert.conclusion.get(key) == val
        ok = ok and good
        details.append(f"{name}={cert.overall}")
    report("4 (paper-example certificates)", ok, "; ".join(details))


def test_criterion_5_tate_golden_suite():
    from importlib import resources

    blob = json.loads(
        resources.files("shavis").joinpath("data/golden_local_data.json").read_text()
    )
    count = 0
    for row in blob["curves"]:
        n, locs = conductor(WeierstrassModel.from_list(row["ainvs"]))
        assert n == row["conductor"], row["label"]
        assert [l.to_json() for l in locs] == row["locals"], row["label"]
        count += 1
    report("5 (Tate golden corpus)", count >= 20, f"{count} curves, exact per-prime match")


def test_criterion_6_property_suites_present():
    # the randomized suites (>= 200 cases each) live in the module tests:
    suites = {
        "hasse bound": "test_hecke.py::test_hasse_bound",
        "j-invariance transform": "test_curves.py::test_j_invariant_preserved_by_transform",
        "j-invariance twist": "test_curves.py::test_j_invariant_preserved_by_twist",
        "twist involution": "test_curves.py::test_twist_involution_on_minimal_models",
        "1728 disc identity": "test_curves.py::test_c_invariant_identity",
        "kronecker multiplicativity": "test_arith.py::test_kronecker_multiplicative_in_n",
        "efg bookkeeping": "test_fields.py::test_efg_bookkeeping_quadratic",
        "congruence symmetry": "test_congruence.py::test_congruence_symmetry",
        "certificate determinism": "test_acceptance.py::test_criterion_6_certificate_determinism",
    }
    report("6 (property suites)", len(suites) >= 9, f"{len(suites)} suites registered")


@settings(max_examples=200, deadline=None)
@given(
    rank_a=st.integers(min_value=0, max_value=3),
    rank_b=st.integers(min_value=0, max_value=3),
    assertion=st.sampled_from(["", "rho surjective", "analytic rank matches"]),
    evidence=st.sampled_from(["summary", "full"]),
)
def test_criterion_6_certificate_determinism(rank_a, rank_b, assertion, evidence):
    blob = {
        "schema_version": 1, "name": "det", "theorem": "improv", "p": 3,
        "curve_a": E203_1, "curve_b": E203_2,
        "rank_records": [
            {"curve": E203_1, "field": {"kind": "rationals"}, "rank": rank_a,
             "provenance": "user"},
            {"curve": E203_2, "field": {"kind": "rationals"}, "rank": rank_b,
             "provenance": "user"},
        ],
        "user_assertions": (
            [{"id": "ua", "statement": assertion}] if assertion else []
        ),
        "options": {"congruence_bound": 25, "evidence": evidence},
    }
    runs = []
    for _ in range(2):
        clear_memos()  # recompute every run, not only the first
        cert = verify_scenario(scenario_from_dict(blob), None)
        runs.append(json.dumps(cert.to_json(), sort_keys=True))
    assert runs[0] == runs[1]


def test_criterion_6_end_to_end_determinism(dataset):
    texts = set()
    for _ in range(3):
        clear_memos()
        cert = verify_scenario(load_bundled_scenario("ex1_quadratic_59"), dataset)
        texts.add(json.dumps(cert.to_json(), sort_keys=True))
    report("6 (byte-identical certificates)", len(texts) == 1, "3 runs of ex1 identical")


def test_criterion_7_irreducibility():
    reducible = irreducible_mod_p(WeierstrassModel.from_list([0, -1, 1, 0, 0]), 5)
    m = WeierstrassModel.from_list(E1)
    irr = irreducible_mod_p(m, 5, fields.quadratic_field(59))
    ok = (
        reducible.status == "ReducibleDetected"
        and irr.status == "Irreducible"
        and irr.witness_prime is not None
        and recheck_witness(m, 5, irr)
    )
    report("7 (irreducibility verdicts)", ok,
           f"witness prime {irr.witness_prime}, a_q {irr.witness_aq}")


NEGATIVE_FIXTURES = {
    # quadratic theorem: one mutated scenario per falsifiable hypothesis
    "quadratic/A.a": dict(
        theorem="quadratic", p=5, curve_a=E1, curve_b=[0, -1, 1, 0, 0],
        target={"kind": "quadratic", "d": 59},
        rank_records=[
            {"curve": [0, 0, 0, 3481, -2053790], "field": {"kind": "rationals"},
             "rank": 0, "provenance": "user"},
            {"curve": [0, -1, 1, 0, 0], "field": {"kind": "rationals"},
             "rank": 0, "provenance": "user"},
        ],
    ),
    "quadratic/A.c": dict(
        theorem="quadratic", p=7, curve_a=E1, curve_b=E2,
        target={"kind": "quadratic", "d": 59},
    ),
    "quadratic/A.d": dict(
        theorem="quadratic", p=5, curve_a=[0, -1, 1, -10, -20],
        curve_b=[0, -1, 1, 0, 0], target={"kind": "quadratic", "d": 59},
    ),
    "quadratic/Q.i": dict(
        theorem="quadratic", p=5, curve_a=[0, -1, 1, -10, -20],
        curve_b=[0, -1, 1, 0, 0], target={"kind": "quadratic", "d": 59},
    ),
    "quadratic/Q.ii": dict(  # Tamagawa 5 at the prime 7 left un-excused
        theorem="quadratic", p=5, curve_a=E1, curve_b=E2,
        target={"kind": "quadratic", "d": 29},
    ),
    # exten theorem
    "exten/A.a": dict(
        theorem="exten", p=3, curve_a=E176, curve_b=[0, 0, 1, -1, 0],
        field_k={"kind": "cyclotomic", "p": 3},
        target={"kind": "kummer", "p": 3, "m": 37},
    ),
    "exten/A.b": dict(  # e_p(L) = p - 1 over L = Q(mu_3)
        theorem="exten", p=3, curve_a=E176, curve_b=E1232,
        base_field={"kind": "cyclotomic", "p": 3},
        field_k={"kind": "cyclotomic", "p": 3},
        target={"kind": "kummer", "p": 3, "m": 7},
    ),
    "exten/A.c": dict(
        theorem="exten", p=11, curve_a=E176, curve_b=E1232,
        field_k={"kind": "cyclotomic", "p": 11},
        target={"kind": "kummer", "p": 11, "m": 7},
    ),
    "exten/A.d": dict(  # curve with rational 3-torsion
        theorem="exten", p=3, curve_a=[0, 0, 1, 0, 0], curve_b=E1232,
        field_k={"kind": "cyclotomic", "p": 3},
        target={"kind": "kummer", "p": 3, "m": 7},
    ),
    "exten/E.i": dict(  # wrong radicand: 7 stays unramified in M
        theorem="exten", p=3, curve_a=E176, curve_b=E1232,
        field_k={"kind": "cyclotomic", "p": 3},
        target={"kind": "kummer", "p": 3, "m": 5},
    ),
    "exten/E.ii": dict(  # roles swapped: c_7(A/K) = 3 at a prime dividing N_A
        theorem="exten", p=3, curve_a=E1232, curve_b=E176,
        field_k={"kind": "cyclotomic", "p": 3},
        target={"kind": "kummer", "p": 3, "m": 7},
    ),
    # the rank-gap-zero mutation hits the nontrivial hypothesis list
    "nontrivial1/N1.d": dict(
        theorem="nontrivial1", p=3, curve_a=E203_1, curve_b=E203_2,
    ),
}

# Q.iii (|Gal(M/K)| = 2 coprime to n) and A.b over L = Q (e_p(Q) = 1 < p-1)
# cannot fail for any scenario the schema accepts: both reduce to n being
# odd, which validation enforces. They are covered by schema-rejection tests.


def _exten_default_ranks(blob):
    if blob["theorem"] == "exten" and "rank_records" not in blob:
        a = blob["curve_a"]
        b = blob["curve_b"]
        kummer = blob["target"]
        cyc = {"kind": "cyclotomic", "p": blob["p"]}
        blob["rank_records"] = [
            {"curve": a, "field": kummer, "rank": 0, "provenance": "user"},
            {"curve": a, "field": cyc, "rank": 0, "provenance": "user"},
            {"curve": b, "field": cyc, "rank": 2, "provenance": "user"},
        ]
    return blob


def test_criterion_8_negative_controls(dataset):
    details = []
    ok = True
    for name, blob in NEGATIVE_FIXTURES.items():
        target_id = name.split("/")[1]
        payload = _exten_default_ranks(
            {"schema_version": 1, "name": name, "options": {"congruence_bound": 60},
             **blob}
        )
        cert = verify_scenario(scenario_from_dict(payload), dataset)
        good = cert.overall == "failed" and target_id in cert.failed_ids()
        ok = ok and good
        details.append(f"{name}:{'ok' if good else cert.failed_ids()}")
    # hypotheses that cannot fail on schema-valid input are rejected up front
    from shavis.visibility import ScenarioError

    with pytest.raises(ScenarioError):
        scenario_from_dict({"schema_version": 1, "theorem": "quadratic", "p": 4,
                            "curve_a": E1, "curve_b": E2,
                            "target": {"kind": "quadratic", "d": 59}})
    report("8 (negative controls)", ok, "; ".join(details))


def test_criterion_9_no_sha_computation():
    # the package never computes Sha or Selmer groups: certificates carry
    # hypothesis verdicts plus lower-bound arithmetic only
    exported = set(dir(shavis))
    forbidden = {n for n in exported if "selmer" in n.lower() or n.lower() == "sha"}
    cert_fields = {"scenario", "verdicts", "conclusion", "overall", "rank_provenance"}
    from dataclasses import fields as dc_fields
    from shavis.visibility import VisibilityCertificate

    got = {f.name for f in dc_fields(VisibilityCertificate)}
    ok = not forbidden and got == cert_fields
    report("9 (no Sha computation by design)", ok, f"certificate fields: {sorted(got)}")
