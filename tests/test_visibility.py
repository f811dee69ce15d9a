import dataclasses
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from shavis import arith, congruence, curves, dataio, fields, localdata
from shavis.arith import ArithmeticError_
from shavis.localdata import curve_facts
from shavis.scenario import bundled_scenario_path, load_bundled_scenario, scenario_from_dict
from shavis.visibility import (
    THEOREM_HYPOTHESES,
    ScenarioError,
    _Engine,
    clear_memos,
    verify_scenario,
)

E203_1 = [0, -1, 1, 20, -8]
E203_2 = [1, 1, 0, -9, 8]


def scenario(**kw):
    base = {
        "schema_version": 1,
        "name": "test",
        "theorem": "quadratic",
        "p": 3,
        "curve_a": E203_1,
        "curve_b": E203_2,
        "target": {"kind": "quadratic", "d": 3},
        "options": {"mode": "heuristic", "congruence_bound": 60},
    }
    base.update(kw)
    return scenario_from_dict(base)


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        scenario(p=4)
    with pytest.raises(ScenarioError):
        scenario(p=9)  # not squarefree
    with pytest.raises(ScenarioError):
        scenario(theorem="nope")
    with pytest.raises(ScenarioError):
        scenario(curve_b=E203_1)  # same curve
    with pytest.raises(ScenarioError):
        scenario(target={"kind": "weird"})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"schema_version": 2})
    # each theorem's input rules, from its THEOREMS entry
    kummer, mu_3 = {"kind": "kummer", "p": 3, "m": 7}, {"kind": "cyclotomic", "p": 3}
    for edit, message in (
        ({"theorem": "nontrivial", "p": 15}, "nontrivial theorem needs prime n, got 15"),
        ({"theorem": "exten", "field_k": mu_3}, "exten theorem needs a kummer target"),
        ({"theorem": "lie"}, "lie theorem needs a cyclotomic_zp or false_tate target"),
        ({"theorem": "exten", "field_k": mu_3, "target": {**kummer, "p": 5}},
         "target prime 5 != scenario p 3"),
        ({"theorem": "lie", "target": {"kind": "false_tate", "p": 3, "m": 7}},
         "target false-Tate tower (p=3, m=7) lies over K = Q(mu_3), not K = Q"),
        ({"field_k": {"kind": "quadratic", "d": 5}}, "lies over K = Q, not K = Q(sqrt(5))"),
        ({"theorem": "nontrivial", "field_k": {"kind": "quadratic", "d": 5}},
         "nontrivial theorem takes K of kind rationals, not quadratic"),
    ):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario(**edit)


def test_quadratic_203_certificate(dataset):
    cert = verify_scenario(scenario(), dataset)
    assert cert.overall == "certified"
    assert cert.conclusion["min_visible_order"] == 9
    assert cert.conclusion["kernel_bound"] == 1
    ids = [v.id for v in cert.verdicts]
    assert ids == THEOREM_HYPOTHESES["quadratic"]
    # twisted Tamagawa evidence present
    assert cert.verdict("Q.ii").evidence["curves"]["A"]["3"]["all_coprime"]


def test_vacuous_when_ranks_swapped(dataset):
    swapped = scenario(
        rank_records=[
            {"curve": [0, 0, 0, 2832, -2000], "field": {"kind": "rationals"},
             "rank": 2, "provenance": "user"},
            {"curve": [0, 0, 0, -1371, 20554], "field": {"kind": "rationals"},
             "rank": 0, "provenance": "user"},
        ]
    )
    cert = verify_scenario(swapped, dataset)
    assert cert.overall == "certified"
    assert cert.conclusion["vacuous"] is True
    assert cert.conclusion["min_visible_order"] == 1
    assert cert.conclusion["rank_gap"] == -2


def test_monotonicity_in_rank_records(dataset):
    # lowering rank(B) never increases the concluded order
    orders = []
    for rank_b in (2, 1, 0):
        s = scenario(
            rank_records=[
                {"curve": [0, 0, 0, -1371, 20554], "field": {"kind": "rationals"},
                 "rank": rank_b, "provenance": "user"},
            ]
        )
        orders.append(verify_scenario(s, dataset).conclusion["min_visible_order"])
    assert orders == sorted(orders, reverse=True)


def test_improv_fails_on_untwisted_ex1(dataset, e1_52, e2_364):
    s = scenario_from_dict({
        "schema_version": 1, "name": "improv-ex1", "theorem": "improv", "p": 5,
        "curve_a": [0, 0, 0, 1, -10], "curve_b": [0, 0, 0, -584, 5444],
        "options": {"congruence_bound": 60},
    })
    cert = verify_scenario(s, dataset)
    assert cert.overall == "failed"
    assert cert.verdict("I.tamagawa").status == "fails"
    # the offending prime is exactly the Tamagawa-5 prime of E2
    detail = cert.verdict("I.tamagawa").evidence["curves"]["B"]["5"]
    assert detail["offending"] == [7]


def test_improv_certifies_with_user_ranks(dataset):
    for record_b in (
        [0, 1, 0, -144, 532],
        # the same curve scaled by u = 10, in decimals: 0.01 is 1/100, not a float
        [0, 0.01, 0, -0.0144, 0.000532],
    ):
        s = scenario_from_dict({
            "schema_version": 1, "name": "improv-3536", "theorem": "improv", "p": 3,
            "curve_a": [0, 1, 0, -30008176, -63229110828],
            "curve_b": [0, 1, 0, -144, 532],
            "rank_records": [
                {"curve": [0, 1, 0, -30008176, -63229110828], "field": {"kind": "rationals"},
                 "rank": 0, "provenance": "user"},
                {"curve": record_b, "field": {"kind": "rationals"}, "rank": 2,
                 "provenance": "user"},
            ],
            "options": {"congruence_bound": 120},
        })
        cert = verify_scenario(s, dataset)
        assert cert.overall == "certified"
        assert cert.conclusion["min_visible_order"] == 9
        assert [r["provenance"] for r in cert.rank_provenance] == ["user", "user"]


def test_nontrivial1_203_over_quadratic_field(dataset):
    s = scenario_from_dict({
        "schema_version": 1, "name": "nontrivial1-203", "theorem": "nontrivial1",
        "p": 3, "curve_a": E203_1, "curve_b": E203_2,
        "field_k": {"kind": "quadratic", "d": 3},
        "options": {"congruence_bound": 60},
    })
    cert = verify_scenario(s, dataset)
    assert cert.overall == "certified"
    assert cert.conclusion["min_visible_order"] == 9
    assert cert.verdict("N1.d").evidence == {
        "statement": "rank B(Q(sqrt(3))) > rank A(Q(sqrt(3)))",
        "rank_A": 0, "rank_B": 2,
    }
    # rank provenance is the twist decomposition over the dataset
    assert any(r["provenance"] == "twist-decomposition" for r in cert.rank_provenance)


def test_nontrivial1_rank_gap_zero_fails(dataset):
    s = scenario_from_dict({
        "schema_version": 1, "name": "gap-zero", "theorem": "nontrivial1",
        "p": 3, "curve_a": E203_1, "curve_b": E203_2,
        "options": {"congruence_bound": 60},
    })
    cert = verify_scenario(s, dataset)
    assert cert.overall == "failed"
    assert cert.failed_ids() == ["N1.d"]  # both base ranks are zero


def test_nontrivial_plain_requires_equal_conductors(dataset):
    # 493/17 pair: conductors differ, N.conductor must fail over Q
    s = scenario_from_dict({
        "schema_version": 1, "name": "nontrivial-493", "theorem": "nontrivial",
        "p": 3, "curve_a": [1, -1, 1, -57, 222], "curve_b": [1, -1, 1, -91, -310],
        "options": {"congruence_bound": 60},
    })
    cert = verify_scenario(s, dataset)
    assert "N.conductor" in cert.failed_ids()


def test_search_rank_on_a_side_degrades_to_partial():
    # without the dataset, rank(A-twist) falls back to a point-search lower
    # bound; that is sound for B (image size) but not for the kernel bound,
    # so the certificate degrades to partial with an explicit caveat
    cert = verify_scenario(scenario(), dataset=None)
    assert cert.overall == "partial"
    assert "lower bound" in cert.conclusion["caveat"]
    assert any(r["provenance"] == "point-search-lower-bound" for r in cert.rank_provenance)


def test_exten_requires_cyclotomic_k(dataset):
    with pytest.raises(ScenarioError, match="mu_3"):
        verify_scenario(scenario_from_dict({
            "schema_version": 1, "name": "bad-k", "theorem": "exten", "p": 3,
            "curve_a": [0, 1, 0, -5, -13], "curve_b": [0, 1, 0, 56, -588],
            "target": {"kind": "kummer", "p": 3, "m": 7},
        }), dataset)


def test_exten_partial_without_rank_records(dataset):
    s = load_bundled_scenario("ex_176_kummer7")
    from dataclasses import replace

    stripped = replace(s, rank_records=(), user_assertions=())
    cert = verify_scenario(stripped, dataset)
    assert cert.overall == "partial"
    assert "rank records missing" in cert.conclusion["statement"]


def test_exten_vacuous_statement_names_the_image_rank(dataset):
    # rank A/M = 4 puts the kernel bound at rank B/K = 2: the rank gap is 2
    # but the image rank is 0
    blob = json.loads(bundled_scenario_path("ex_176_kummer7").read_text())
    blob["rank_records"][0]["rank"] = 4
    c = verify_scenario(scenario_from_dict(blob), dataset).conclusion
    assert (c["rank_gap"], c["image_rank"], c["kernel_rank_bound"]) == (2, 0, 2)
    assert c["vacuous"] and c["min_visible_order"] == 1
    assert c["statement"] == ("no nontrivial lower bound (image rank 0 <= 0"
                              " with kernel rank bound 2)")
    # a nonpositive rank gap keeps the old statement
    blob["rank_records"][2]["rank"] = 0
    c = verify_scenario(scenario_from_dict(blob), dataset).conclusion
    assert c["statement"] == "no nontrivial lower bound (rank gap 0 <= 0)"


@pytest.mark.parametrize("rank_a_k, rank_a_m", [(0, 1), (0, 3), (2, 0)])
def test_exten_rejects_kummer_ranks_off_the_zeta_lattice(dataset, rank_a_k, rank_a_m):
    # rank A(M) - rank A(K) is the Q-dimension of a Q(zeta_3)-space: it must be
    # a non-negative multiple of p - 1 = 2, or the records are wrong
    blob = json.loads(bundled_scenario_path("ex_176_kummer7").read_text())
    blob["rank_records"][0]["rank"] = rank_a_m
    blob["rank_records"][1]["rank"] = rank_a_k
    with pytest.raises(ArithmeticError_, match="non-negative multiple of p - 1 = 2"):
        verify_scenario(scenario_from_dict(blob), dataset)


def test_lie_false_tate_dimension_branch(dataset):
    # 176/1232 pair in the false-Tate tower over Q(mu_3) with m = 7: the
    # offending prime 7 is certified by the dimension-2 branch
    s = scenario_from_dict({
        "schema_version": 1, "name": "ft", "theorem": "lie", "p": 3,
        "curve_a": [0, 1, 0, -5, -13], "curve_b": [0, 1, 0, 56, -588],
        "field_k": {"kind": "cyclotomic", "p": 3},
        "target": {"kind": "false_tate", "p": 3, "m": 7},
        "options": {"congruence_bound": 60},
    })
    cert = verify_scenario(s, dataset)
    assert cert.overall == "certified"
    v7 = cert.verdict("L.v7")
    assert "dimension" in v7.evidence["branch"]
    v11 = cert.verdict("L.v11")
    assert "unramified" in v11.evidence["branch"]


def test_lie_inconclusive_when_neither_branch(dataset, e1_52, e2_364):
    # cyclotomic Z_5 tower with the ex1 pair: c_7(E2) = 5 is not a 5-unit and
    # the cyclotomic tower has dimension 1 at 7: honest inconclusive
    s = scenario_from_dict({
        "schema_version": 1, "name": "badlie", "theorem": "lie", "p": 5,
        "curve_a": [0, 0, 0, 1, -10], "curve_b": [0, 0, 0, -584, 5444],
        "target": {"kind": "cyclotomic_zp", "p": 5},
        "options": {"congruence_bound": 120},
    })
    cert = verify_scenario(s, dataset)
    assert cert.overall == "partial"
    assert cert.verdict("L.v7").status == "inconclusive"


def test_certificate_json_roundtrip(dataset):
    cert = verify_scenario(scenario(), dataset)
    blob = cert.to_json()
    text = json.dumps(blob, sort_keys=True)
    assert json.loads(text) == blob
    assert blob["schema_version"] == 1
    assert blob["theorem"] == "quadratic"


# ---- the cross-scenario memos: warm certificates equal recomputed ones

PAIRS = (  # the five bundled congruent pairs: curve A, curve B, p
    ([0, 0, 0, 1, -10], [0, 0, 0, -584, 5444], 5),
    ([1, -1, 1, -57, 222], [1, -1, 1, -91, -310], 3),
    (E203_1, E203_2, 3),
    ([0, 1, 0, -5, -13], [0, 1, 0, 56, -588], 3),
    ([0, 1, 0, -30008176, -63229110828], [0, 1, 0, -144, 532], 3),
)


def twist_blob(pair, d, mode="bounded-proof", evidence="summary"):
    a, b, p = pair
    return {
        "schema_version": 1, "name": f"twist_d{d}", "theorem": "quadratic", "p": p,
        "curve_a": a, "curve_b": b, "target": {"kind": "quadratic", "d": d},
        "options": {"mode": mode, "evidence": evidence},
    }


def certificate_bytes(blob, dataset) -> str:
    cert = verify_scenario(scenario_from_dict(blob), dataset)
    return json.dumps(cert.to_json(), indent=2, sort_keys=True)


@settings(max_examples=6, deadline=None)
@given(st.lists(
    st.builds(twist_blob, st.sampled_from(PAIRS), st.sampled_from([-7, -3, 13, 17, 59]),
              st.sampled_from(["bounded-proof", "heuristic"]),
              st.sampled_from(["summary", "full"])),
    min_size=1, max_size=3,
))
def test_memoized_certificates_match_recomputed(dataset, blobs):
    # the memos stay warm from earlier examples and tests; the second pass
    # over the sequence finds every pair's facts and certificate memoized
    sequence = blobs + blobs
    warm = [certificate_bytes(blob, dataset) for blob in sequence]
    cold = {}
    for blob, text in zip(sequence, warm):
        key = json.dumps(blob, sort_keys=True)
        if key not in cold:
            clear_memos()
            cold[key] = certificate_bytes(blob, dataset)
        assert text == cold[key]


def test_editing_certificate_json_leaves_the_memo(dataset):
    # ex1's A against a curve it is not congruent to: mismatches, comparisons
    # and skipped primes are all non-empty under full evidence
    pair = ([0, 0, 0, 1, -10], [0, -1, 1, 0, 0], 5)
    clear_memos()
    first = verify_scenario(scenario_from_dict(twist_blob(pair, 59, "heuristic", "full")), dataset)
    congruence_json = first.to_json()["verdicts"][0]["evidence"]["congruence"]["5"]
    before = json.dumps(congruence_json, sort_keys=True)
    assert congruence_json["mismatches"] and congruence_json["skipped"]
    congruence_json["mismatches"][0]["ok"] = True
    congruence_json["comparisons"][0]["q"] = -1
    congruence_json["comparisons"].clear()
    congruence_json["skipped"][0]["reason"] = "edited"
    congruence_json["mismatches"].append({"q": 0})
    second = verify_scenario(scenario_from_dict(twist_blob(pair, 13, "heuristic", "full")), dataset)
    after = second.to_json()["verdicts"][0]["evidence"]["congruence"]["5"]
    assert json.dumps(after, sort_keys=True) == before
    # the engine hands out the memo's own facts: frozen, with a tuple of
    # frozen local data, so no check can edit what the next scenario reads
    scn = scenario_from_dict(twist_blob(pair, 13))
    eng = _Engine(scn, dataset)
    assert eng.fa is curve_facts(scn.curve_a) and eng.fb is curve_facts(scn.curve_b)
    local = eng.fa.local_data
    assert isinstance(local, tuple) and local
    with pytest.raises(dataclasses.FrozenInstanceError):
        eng.fa.local_data = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        local[0].f = 0


TWIST_DS = [d for d in range(-500, 501) if d not in (0, 1) and arith.is_squarefree(d)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PAIRS), st.sampled_from(TWIST_DS))
@example(PAIRS[0], 59)  # the bundled quadratic scenarios: both twists are dataset rows
@example(PAIRS[1], 195)
@example(PAIRS[2], 3)
@example(PAIRS[2], 23)
def test_twisted_facts_match_the_uncached_derivation(pair, d):
    # the engine's twisted pair comes from the curve_facts memo, seeded by the
    # dataset rows; minimal_model and conductor keep no memo
    clear_memos()
    dataset = dataio.load_dataset()
    eng = _Engine(scenario_from_dict(twist_blob(pair, d)), dataset)
    for facts, curve in zip(eng.twisted, pair[:2]):
        minimal = curves.minimal_model(curves.WeierstrassModel.from_list(curve))[0]
        twisted = curves.minimal_model(curves.quadratic_twist(minimal, d))[0]
        n, local_data = localdata.conductor(twisted)
        assert facts.minimal == twisted
        assert (facts.conductor, list(facts.local_data)) == (n, local_data)


@pytest.mark.parametrize("name", ["ex1_quadratic_59", "ex_493_17_quadratic_195",
                                  "ex_203_quadratic_3", "ex_203_quadratic_23"])
def test_bundled_twisted_pairs_are_read_from_the_dataset_rows(conductor_calls, tate_calls,
                                                               name):
    # both twists of each bundled quadratic scenario are dataset rows, whose
    # facts load_dataset leaves in the memo: Q.ii runs no Tate on them
    clear_memos()
    dataset = dataio.load_dataset()
    tate_calls.clear()
    cert = verify_scenario(load_bundled_scenario(name), dataset)
    assert conductor_calls == []
    twisted = cert.conclusion["twisted_models"]
    assert len(twisted) == 2 and not {str(m) for m in tate_calls} & set(twisted)


def improv_engine(curve_a, p):
    """The engine of an improv scenario over Q with B = 37a1."""
    return _Engine(scenario_from_dict({
        "schema_version": 1, "name": "torsion", "theorem": "improv", "p": p,
        "curve_a": curve_a, "curve_b": [0, 0, 1, -1, 0], "options": {"congruence_bound": 10},
    }))


def test_torsion_fallback_finds_five_torsion_past_the_divisor_limit():
    # Tate's normal form at t = 2310, minimalized: P = (443520, .) has order 5.
    # The old search gave up on the 8 688 768 divisors of f_5's constant term
    # and said "holds"
    eng = improv_engine([1, 0, 0, -590127526065, 174488496241977225], 5)
    status, ev = eng.torsion_vanishes(fields.RATIONALS)
    assert status == "fails"
    detail = ev["per_prime"]["5"]
    assert (detail["status"], detail["torsion_x"], detail["note"]) == (
        "ReducibleDetected", "443520", "rational point")
    assert detail["fallback"] == {"status": "fails", "rational_p_torsion": {
        "A": [{"x": "443520", "twist": 1}, {"x": "445830", "twist": 1}]}}


def test_torsion_fallback_finds_the_roots_once_per_curve(monkeypatch):
    # the fallback reads A's roots of f_5 from the verdict that sent it there
    calls = []
    real = congruence.rational_division_roots

    def counting(model, p):
        calls.append(model)
        return real(model, p)

    monkeypatch.setattr(congruence, "rational_division_roots", counting)
    eng = improv_engine([1, 0, 0, -590127526065, 174488496241977225], 5)
    assert eng.torsion_vanishes(fields.RATIONALS)[0] == "fails"
    assert calls == [eng.fa.minimal, eng.fb.minimal]


# a witness, a reducible A[5] with rational 5-torsion, and the fallback
# after an inconclusive search (121a1 twisted by 5 has an 11-isogeny)
WARM_CASES = [
    ([0, 0, 0, 1, -10], 5, fields.quadratic_field(59), "holds",
     {"status": "Irreducible", "witness_prime": 17, "witness_aq": 6}),
    ([0, -1, 1, 0, 0], 5, fields.RATIONALS, "fails",
     {"status": "ReducibleDetected", "torsion_x": "0", "note": "rational point",
      "fallback": {"status": "fails", "rational_p_torsion": {
          "A": [{"x": "0", "twist": 1}, {"x": "1", "twist": 1}]}}}),
    ([1, 0, 1, -751, -7977], 11, fields.RATIONALS, "holds",
     {"status": "Inconclusive", "note": "no witness below 1000, no rational p-torsion x",
      "fallback": {"status": "holds", "note": "no rational 11-torsion on any factor"}}),
]


@pytest.mark.parametrize("curve_a, p, field, status, detail", WARM_CASES)
def test_warm_engine_derives_no_curve_facts_again(monkeypatch, curve_a, p, field, status,
                                                  detail):
    # once the engine holds A's and B's facts, the irreducibility and torsion
    # checks read them and minimalize nothing
    eng = improv_engine(curve_a, p)

    def refuse(*args):
        raise AssertionError("re-derived a curve fact")

    monkeypatch.setattr(curves, "minimal_model", refuse)
    monkeypatch.setattr(localdata, "conductor", refuse)
    monkeypatch.setattr(localdata, "conductor_of_minimal", refuse)
    verdict = congruence.irreducible_mod_p(eng.fa, p, field)
    expected = {k: v for k, v in detail.items() if k != "fallback"}
    assert verdict.to_json() == expected
    got, ev = eng.torsion_vanishes(field)
    assert (got, ev["per_prime"]) == (status, {str(p): detail})


@pytest.mark.parametrize("field, status", [
    (fields.RATIONALS, "holds"),
    (fields.quadratic_field(5), "holds"),
    (fields.quadratic_field(2), "fails"),
    (fields.cyclotomic_field(3), "holds"),
])
def test_reducible_a_p_reads_the_torsion_by_twist_class(field, status):
    # y^2 = x^3 + 8 at p = 3: A[3] is reducible, its one rational root x = 0
    # has psi_2(0)^2 = 32 in the class 2, so the point of order 3 is rational
    # on the twist by 2 only, and A has 3-torsion over Q(sqrt 2) alone
    got, ev = improv_engine([0, 0, 0, 0, 8], 3).torsion_vanishes(field)
    detail = ev["per_prime"]["3"]
    assert detail["status"] == "ReducibleDetected" and detail["torsion_x"] == "0"
    assert got == detail["fallback"]["status"] == status
    if status == "fails":
        assert detail["fallback"]["rational_p_torsion"] == {"A": [{"x": "0", "twist": 2}]}
