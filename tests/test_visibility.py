import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shavis import arith
from shavis.curves import WeierstrassModel
from shavis.scenario import bundled_scenario_path, load_bundled_scenario, scenario_from_dict
from shavis.visibility import (
    THEOREM_HYPOTHESES,
    ScenarioError,
    _Engine,
    check_analytic_divisibility,
    clear_memos,
    curve_facts,
    verify_lemma_twist,
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
    s = scenario_from_dict({
        "schema_version": 1, "name": "improv-3536", "theorem": "improv", "p": 3,
        "curve_a": [0, 1, 0, -30008176, -63229110828],
        "curve_b": [0, 1, 0, -144, 532],
        "rank_records": [
            {"curve": [0, 1, 0, -30008176, -63229110828], "field": {"kind": "rationals"},
             "rank": 0, "provenance": "user"},
            {"curve": [0, 1, 0, -144, 532], "field": {"kind": "rationals"},
             "rank": 2, "provenance": "user"},
        ],
        "options": {"congruence_bound": 120},
    })
    cert = verify_scenario(s, dataset)
    assert cert.overall == "certified"
    assert cert.conclusion["min_visible_order"] == 9
    assert all(r["provenance"] in ("user",) for r in cert.rank_provenance)


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


def test_lemma_twist_spec_paths(e1_52):
    # semistable conductor-203 curve, p = 5: the prime 7 drops from the mod-5
    # conductor (v_7(disc) = 5), is split multiplicative, and is inert in
    # Q(sqrt 13), so every lemma condition holds; the direct computation on
    # the twisted model must then agree
    e203 = WeierstrassModel.from_list(E203_1)
    verdicts = {v.id: v for v in verify_lemma_twist(e203, 13, 5)}
    assert all(v.status == "holds" for v in verdicts.values()), {
        k: v.status for k, v in verdicts.items()
    }
    assert verdicts["T.conclusion"].evidence["direct_check"]["all_coprime"]
    # E1 of the quadratic example is not semistable: the lemma does not apply
    # (T.i inconclusive) even though the direct check succeeds there too
    verdicts_e1 = {v.id: v for v in verify_lemma_twist(e1_52, 59, 5)}
    assert verdicts_e1["T.i"].status == "inconclusive"
    assert verdicts_e1["T.conclusion"].evidence["direct_check"]["all_coprime"]
    # p = 3 with even N_chi: condition fails but the direct computation can
    # still succeed (the sufficient-not-necessary remark)
    verdicts3 = {v.id: v for v in verify_lemma_twist(e203, 3, 3)}
    assert verdicts3["T.parity"].status == "fails"  # N_chi = 12 is even
    assert verdicts3["T.conclusion"].status == "inconclusive"
    assert verdicts3["T.conclusion"].evidence["direct_check"]["all_coprime"]
    # N_chi sharing a factor with N_A: condition (iii) fails
    verdicts_bad = {v.id: v for v in verify_lemma_twist(e203, 7, 3)}
    assert verdicts_bad["T.iii"].status == "fails"


def test_lemma_twist_consistent_on_all_paper_twists(e1_52, e2_364):
    # verify_lemma_twist raises if its verdict ever disagrees with the direct
    # Tate computation on the twisted model; run every twist the examples use
    paper_twists = [
        (e1_52, 59, 5), (e2_364, 59, 5),
        (WeierstrassModel.from_list(E203_1), 3, 3),
        (WeierstrassModel.from_list(E203_2), 3, 3),
        (WeierstrassModel.from_list(E203_1), 23, 3),
        (WeierstrassModel.from_list(E203_2), 23, 3),
        (WeierstrassModel.from_list([1, -1, 1, -57, 222]), 195, 3),
        (WeierstrassModel.from_list([1, -1, 1, -91, -310]), 195, 3),
    ]
    for model, d, p in paper_twists:
        verdicts = {v.id: v for v in verify_lemma_twist(model, d, p)}
        direct = verdicts["T.conclusion"].evidence["direct_check"]
        assert direct["all_coprime"], (d, p, direct)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 13, 17, 21, 29, 33, -11, -19]),
       st.sampled_from([5, 7, 11]))
def test_lemma_twist_never_contradicts_direct_check(d, p):
    # whenever the lemma certifies, the direct Tate computation agrees
    # (verify_lemma_twist raises AssertionError on any disagreement)
    m = WeierstrassModel.from_list([0, 0, 1, -1, 0])  # conductor 37, good at 5,7,11
    if arith.fundamental_discriminant(d) % 37 == 0:
        return
    verify_lemma_twist(m, d, p)


def test_analytic_divisibility(dataset):
    s = scenario_from_dict({
        "schema_version": 1, "name": "nontrivial1-203", "theorem": "nontrivial1",
        "p": 3, "curve_a": E203_1, "curve_b": E203_2,
        "field_k": {"kind": "quadratic", "d": 3},
        "options": {"congruence_bound": 60},
    })
    cert = verify_scenario(s, dataset)
    assert cert.overall == "certified"
    report = check_analytic_divisibility(cert, Fraction(9, 4))
    assert report["consistent"] and report["valuation_at_p"] == 2
    report2 = check_analytic_divisibility(cert, Fraction(5, 4))
    assert not report2["consistent"]
    report3 = check_analytic_divisibility(cert, Fraction(6), derivative_order=1)
    assert "simple zero" in report3["quantity"]
    # prerequisite checks
    failed = verify_scenario(scenario_from_dict({
        "schema_version": 1, "name": "gap-zero", "theorem": "nontrivial1",
        "p": 3, "curve_a": E203_1, "curve_b": E203_2,
        "options": {"congruence_bound": 60},
    }), dataset)
    with pytest.raises(arith.ArithmeticError_):
        check_analytic_divisibility(failed, Fraction(9))
    quad = verify_scenario(scenario(), dataset)
    with pytest.raises(arith.ArithmeticError_):
        check_analytic_divisibility(quad, Fraction(9))


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
    # the engine's local-data lists are its own copies of the memoized tuple
    scn = scenario_from_dict(twist_blob(pair, 13))
    _Engine(scn, dataset).locs_a.clear()
    assert _Engine(scn, dataset).locs_a == list(curve_facts(scn.curve_a).local_data) != []
