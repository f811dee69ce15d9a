import functools
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from shavis import arith, congruence, curves, dataio, fields, hecke, localdata
from shavis.congruence import (
    congruence_bound,
    division_polynomial,
    has_rational_point_with_x,
    irreducible_mod_p,
    rational_division_roots,
    recheck_witness,
    verify_congruence,
)
from shavis.curves import SingularCurveError, WeierstrassModel, invariants, quadratic_twist
from shavis.localdata import conductor, curve_facts, residual_conductor
from shavis.scenario import bundled_scenario_path, scenario_from_dict
from shavis.visibility import _Engine


def mu_oracle(n):
    # direct evaluation of n * prod (1 + 1/q) by trial division
    out, m, q = n, n, 2
    seen = set()
    while m > 1:
        if m % q == 0:
            if q not in seen:
                seen.add(q)
                out = out // q * (q + 1)
            m //= q
        else:
            q += 1
    return out


def test_congruence_bound_spec_examples():
    assert mu_oracle(364) == 672
    assert congruence_bound(52, 364) == 672 // 6 == 112
    assert mu_oracle(11) == 12
    assert congruence_bound(11, 11) == 2
    assert congruence_bound(1, 1) == 0


def test_verify_congruence_ex1(e1_52, e2_364):
    cert = verify_congruence(curve_facts(e1_52), curve_facts(e2_364), 5, mode="bounded-proof")
    assert cert.verdict == "verified-to-bound"
    assert cert.bound == 112
    assert not cert.mismatches
    # level-lowering comparisons at 7 recorded
    assert any(c.get("rule") for c in cert.comparisons)


def test_verify_congruence_other_pairs():
    a = WeierstrassModel.from_list([1, -1, 1, -57, 222])
    b = WeierstrassModel.from_list([1, -1, 1, -91, -310])
    assert verify_congruence(curve_facts(a), curve_facts(b), 3).verdict == "verified"
    assert verify_congruence(curve_facts(a), curve_facts(b), 3, mode="bounded-proof").certified


def test_verify_congruence_reflexive_and_refuted(e1_52):
    assert verify_congruence(curve_facts(e1_52), curve_facts(e1_52), 7, bound=80).certified
    e11 = WeierstrassModel.from_list([0, -1, 1, -10, -20])
    neg = verify_congruence(curve_facts(e1_52), curve_facts(e11), 5)
    assert neg.verdict == "refuted" and neg.mismatches
    with pytest.raises(arith.ArithmeticError_):
        verify_congruence(curve_facts(e1_52), curve_facts(e1_52), 2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([3, 5, 7]),
)
def test_congruence_symmetry(a4, a6, b4, b6, p):
    try:
        ma = WeierstrassModel.from_list([0, 0, 0, a4, a6])
        mb = WeierstrassModel.from_list([0, 1, 0, b4, b6])
        invariants(ma), invariants(mb)
    except SingularCurveError:
        assume(False)
    assume(curves_differ(ma, mb))
    lhs = verify_congruence(curve_facts(ma), curve_facts(mb), p, bound=30)
    rhs = verify_congruence(curve_facts(mb), curve_facts(ma), p, bound=30)
    assert lhs.verdict == rhs.verdict


def curves_differ(ma, mb):
    from shavis.curves import minimal_model

    return minimal_model(ma)[0] != minimal_model(mb)[0]


def test_twist_equivariance_of_congruence(e1_52, e2_364):
    # congruent pair stays congruent after twisting, away from d and p
    from shavis import hecke

    d, p = 59, 5
    ta, tb = quadratic_twist(e1_52, d), quadratic_twist(e2_364, d)
    for q in arith.primes(200):
        if q in (2, 5, 7, 13, 59):
            continue
        assert (hecke.a_q(ta, q).a_q - hecke.a_q(tb, q).a_q) % p == 0, q


def test_division_polynomial_shape():
    m = WeierstrassModel.from_list([0, -1, 1, 0, 0])
    for p in (3, 5, 7):
        f = division_polynomial(m, p)
        assert len(f) - 1 == (p * p - 1) // 2
        assert f[-1] == p
    # psi_2^2 roots: x-coordinates of 2-torsion,  E1: x = 2 is one
    e1 = WeierstrassModel.from_list([0, 0, 0, 1, -10])
    assert has_rational_point_with_x(e1, Fraction(2))


def test_rational_five_torsion_detected():
    # (0,0) has order 5 on the conductor-11 curve
    m = WeierstrassModel.from_list([0, -1, 1, 0, 0])
    roots = rational_division_roots(m, 5)
    assert Fraction(0) in roots
    v = irreducible_mod_p(curve_facts(m), 5)
    assert v.status == "ReducibleDetected" and v.roots == (0, 1)
    # 11a1 carries a rational 5-torsion point as well: (5, 5)
    m2 = WeierstrassModel.from_list([0, -1, 1, -10, -20])
    assert Fraction(5) in rational_division_roots(m2, 5)
    assert has_rational_point_with_x(m2, Fraction(5))


def test_no_rational_division_root_outside_the_torsion_primes(monkeypatch):
    # a rational root is the x of a rational point of order p on a quadratic
    # twist, a curve over Q: Mazur's torsion theorem leaves only p = 3, 5, 7,
    # so no polynomial is built for any other p
    def refuse(model, n):
        raise AssertionError(f"built the {n}-division polynomial")

    monkeypatch.setattr(congruence, "division_polynomial", refuse)
    m = WeierstrassModel.from_list([0, -1, 1, 0, 0])
    for p in (11, 13, 17, 163):
        assert rational_division_roots(m, p) == []
    with pytest.raises(AssertionError):
        rational_division_roots(m, 5)


def reference_rational_division_roots(model, p):
    """The rational-root search rational_division_roots used to make: a scan
    of |x| <= 200, then every a/b with a | constant term and b | leading
    coefficient. The old search swallowed the give-up past 10^5 divisors;
    this copy lets it raise, so a test never compares with a search that
    stopped short. It tests a/b by the integer b^deg f(a/b), not in Fractions."""
    coeffs = division_polynomial(model, p)
    roots = set()
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs = coeffs[1:]
    lead, const = coeffs[-1], coeffs[0]

    def value(x):
        a, b = x.numerator, x.denominator
        acc = 0
        for i, c in enumerate(reversed(coeffs)):
            acc = acc * a + c * b**i
        return acc

    def divisors(n):
        divs = [1]
        for q, e in arith.factor(n).items():
            divs = [d * q**k for d in divs for k in range(e + 1)]
            if len(divs) > 100_000:
                raise arith.ArithmeticError_("divisor explosion")
        return divs

    roots.update(Fraction(x) for x in range(-200, 201) if value(Fraction(x)) == 0)
    for a in divisors(abs(const)):
        for b in divisors(abs(lead)):
            if math.gcd(a, b) == 1:
                roots.update(c for c in (Fraction(a, b), Fraction(-a, b)) if value(c) == 0)
    return sorted(roots)


def psi2_squared(model, x):
    """(2y + a1 x + a3)^2 at a point with this x-coordinate."""
    inv = invariants(model)
    return 4 * x**3 + inv.b2 * x * x + 2 * inv.b4 * x + inv.b6


def point_with_x(model, x):
    """A rational point with this x-coordinate: y = (sqrt(psi_2(x)^2) - a1 x - a3) / 2."""
    a1, _, a3, _, _ = model.ainvs()
    square = psi2_squared(model, x)
    root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
    assert root * root == square
    return (Fraction(x), (root - a1 * x - a3) / 2)


def twist_class(model, x):
    """The squarefree class of psi_2(x)^2: the twist on which x is rational."""
    square = psi2_squared(model, x)
    return arith.squarefree_part(square.numerator * square.denominator)


def assert_roots_are_torsion(model, p, roots):
    # every root in the class 1 is the x of a rational point P with p P = O
    for x in roots:
        assert has_rational_point_with_x(model, x) == (twist_class(model, x) == 1)
        if twist_class(model, x) == 1:
            pt = point_with_x(model, x)
            assert dataio.point_on_curve(model, pt)
            assert dataio.point_mul(model, p, pt) is None, (model, p, x)


@st.composite
def small_model_with_torsion_roots(draw):
    """A small integral model, often one with rational 3- or 5-torsion (Tate's
    normal forms y^2 + a1 x y + a3 y = x^3 and y^2 + (1 - t) x y - t y =
    x^3 - t x^2), then often twisted, so its roots lie in other classes."""
    kind = draw(st.sampled_from(["random", "three", "five"]))
    if kind == "random":
        ainvs = [draw(st.integers(0, 1)), draw(st.integers(-1, 1)), draw(st.integers(0, 1)),
                 draw(st.integers(-30, 30)), draw(st.integers(-60, 60))]
    elif kind == "three":
        ainvs = [draw(st.integers(-4, 4)), 0, draw(st.integers(1, 6)), 0, 0]
    else:
        t = draw(st.integers(-6, 6))
        ainvs = [1 - t, -t, -t, 0, 0]
    m = WeierstrassModel.from_list(ainvs)
    try:
        invariants(m)
    except SingularCurveError:
        assume(False)
    d = draw(st.sampled_from([1, -1, 2, -3, 5]))
    return m if d == 1 else curves.minimal_model(quadratic_twist(m, d))[0]


@settings(max_examples=150, deadline=None)
@given(small_model_with_torsion_roots(), st.sampled_from([3, 5]))
def test_rational_division_roots_match_the_divisor_search(m, p):
    roots = rational_division_roots(m, p)
    assert roots == reference_rational_division_roots(m, p)
    assert_roots_are_torsion(m, p, roots)


@pytest.mark.parametrize("ainvs, p", [
    ([0, -1, 1, -10, -20], 5),  # 11a1: (5, 5) and (16, -61) of order 5
    ([0, -1, 1, 0, 0], 5),  # 11a3: (0, 0) of order 5
    ([1, 0, 1, 4, -6], 3),  # 14a1: (2, -5) of order 3
    ([0, 0, 0, 0, 1], 3),  # y^2 = x^3 + 1: (0, +-1) of order 3
    ([1, -1, 1, -3, 3], 7),  # 26b1: (1, 0) of order 7
    ([1, 0, 1, -5, -8], 3),  # 26a1: 3-torsion, and the root -1/3 has denominator p
])
def test_rational_division_roots_on_curves_with_torsion(ainvs, p):
    m = WeierstrassModel.from_list(ainvs)
    roots = rational_division_roots(m, p)
    assert roots and roots == reference_rational_division_roots(m, p)
    assert_roots_are_torsion(m, p, roots)


def test_rational_division_roots_past_the_divisor_limit():
    # the constant term of f_5 has 140 608 divisors: the old search gave up
    # and returned [], yet two roots exist, each rational on the twist by 195
    m = WeierstrassModel.from_list([0, 0, 0, -6286800, -10989394000])
    roots = rational_division_roots(m, 5)
    assert roots == [3640, 12220]
    for x in roots:
        assert twist_class(m, x) == 195
        assert has_rational_point_with_x(m, x, 195) and not has_rational_point_with_x(m, x)
    # Tate's normal form y^2 + (1 - t) x y - t y = x^3 - t x^2 at t = 2310,
    # minimalized: 8 688 768 divisors, and 443520 lies past the scan of +-200
    tate = WeierstrassModel.from_list([1, 0, 0, -590127526065, 174488496241977225])
    roots = rational_division_roots(tate, 5)
    assert roots == [443520, 445830]
    assert all(twist_class(tate, x) == 1 for x in roots)
    assert_roots_are_torsion(tate, 5, roots)
    verdict = irreducible_mod_p(curve_facts(tate), 5)
    assert (verdict.status, verdict.torsion_x, verdict.note) == (
        "ReducibleDetected", "443520", "rational point")
    assert verdict.roots == tuple(roots) and "roots" not in verdict.to_json()


@functools.lru_cache(maxsize=None)
def cached_reference_roots(model, p):
    return reference_rational_division_roots(model, p)


def reference_torsion_search(eng, field, p):
    """The fallback visibility._Engine._torsion_search used to run: the
    reference root search on A, B and, over Q(sqrt d) or Q(mu_3), on the
    minimal models of their twists by d, keeping the x of rational points."""
    models = {"A": eng.fa.minimal, "B": eng.fb.minimal}
    if field.kind == "quadratic":
        d = arith.squarefree_part(field.disc)
    elif field.kind == "cyclotomic" and field.p == 3:
        d = -3
    else:
        d = None
    if d is not None:
        models["A-twist"] = curves.minimal_model(quadratic_twist(eng.fa.minimal, d))[0]
        models["B-twist"] = curves.minimal_model(quadratic_twist(eng.fb.minimal, d))[0]
    found = {}
    for name, m in models.items():
        pts = [str(x) for x in cached_reference_roots(m, p) if has_rational_point_with_x(m, x)]
        if pts:
            found[name] = pts
    return {"status": "fails", "rational_p_torsion": found} if found else {"status": "holds"}


# 11a1, 11a3, y^2 = x^3 + 1, y^2 = x^3 + 8 and 26b1
TORSION_CURVES = [[0, -1, 1, -10, -20], [0, -1, 1, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 8],
                  [1, -1, 1, -3, 3]]
TWIST_FIELDS = {-1: fields.quadratic_field(-1), 2: fields.quadratic_field(2),
                -3: fields.cyclotomic_field(3), 5: fields.quadratic_field(5)}


def test_torsion_search_matches_the_four_model_search():
    # each curve E and its twists E^t by t = -1, 2, -3, 5 over Q, and E and
    # E^t over Q(sqrt t) (Q(mu_3) for t = -3), at p = 3, 5, 7, against B =
    # 37a1: the subset on which the old search is fast. The statuses agree,
    # and so do the curves with torsion, with A-twist and B-twist read as A
    # and B, each x now on the curve's own model with its twist class
    cases = []
    for ainvs in TORSION_CURVES:
        e = WeierstrassModel.from_list(ainvs)
        twists = {t: curves.minimal_model(quadratic_twist(e, t))[0].int_ainvs() for t in TWIST_FIELDS}
        cases += [(a, fields.RATIONALS, {1}) for a in (ainvs, *map(list, twists.values()))]
        cases += [(a, f, {1, t}) for t, f in TWIST_FIELDS.items() for a in (ainvs, list(twists[t]))]
    for p in (3, 5, 7):
        for ainvs, field, classes in cases:
            eng = _Engine(scenario_from_dict({
                "schema_version": 1, "name": "torsion", "theorem": "improv", "p": p,
                "curve_a": ainvs, "curve_b": [0, 0, 1, -1, 0], "options": {"congruence_bound": 10},
            }))
            roots_a = rational_division_roots(eng.fa.minimal, p)
            new, old = eng._torsion_search(field, p, roots_a), reference_torsion_search(eng, field, p)
            assert new["status"] == old["status"], (ainvs, field.describe(), p)
            found = new.get("rational_p_torsion", {})
            assert set(found) == {name[0] for name in old.get("rational_p_torsion", {})}
            assert all(pt["twist"] in classes for pts in found.values() for pt in pts)


def test_irreducibility_with_witness(e1_52):
    v = irreducible_mod_p(curve_facts(e1_52), 5, fields.quadratic_field(59))
    assert v.status == "Irreducible" and v.roots == ()
    assert arith.kronecker_symbol(236, v.witness_prime) == 1  # witness split in M
    assert recheck_witness(e1_52, 5, v)
    # 176 curve over Q(mu_3)
    v2 = irreducible_mod_p(curve_facts(WeierstrassModel.from_list([0, 1, 0, -5, -13])), 3,
                           fields.cyclotomic_field(3))
    assert v2.status == "Irreducible"
    assert v2.witness_prime % 3 == 1
    with pytest.raises(fields.UnsupportedFieldError):
        irreducible_mod_p(curve_facts(e1_52), 5, fields.kummer_layer(5, 7))


def _residual(ainvs, p):
    return residual_conductor(conductor(WeierstrassModel.from_list(ainvs))[1], p)


def test_mod_p_conductor_spec_examples():
    # disc(11a1) = -11^5, so 11 drops at p = 5
    nbar, dropped = _residual([0, -1, 1, -10, -20], 5)
    assert nbar == 1 and [l.q for l in dropped] == [11]
    nbar, dropped = _residual([1, -1, 1, -57, 222], 3)
    assert nbar == 17 and [l.q for l in dropped] == [29]
    # nothing drops when p divides no v_q(disc)
    assert _residual([0, 0, 1, -1, 0], 5) == (37, [])
    # non-semistable input rejected
    with pytest.raises(arith.ArithmeticError_, match="additive reduction at"):
        _residual([0, 0, 0, 1, -10], 5)
    # bad reduction at p rejected
    with pytest.raises(arith.ArithmeticError_, match="bad reduction at p = 11"):
        _residual([0, -1, 1, -10, -20], 11)
    # p must be an odd prime
    for p in (2, 9):
        with pytest.raises(arith.ArithmeticError_, match="odd prime"):
            _residual([0, 0, 1, -1, 0], p)


def test_nbar_divides_conductor_property():
    for ainvs, p in [([0, -1, 1, -10, -20], 5), ([1, -1, 1, -57, 222], 3),
                     ([0, -1, 1, 20, -8], 3), ([1, 1, 0, -9, 8], 3)]:
        n, locs = conductor(WeierstrassModel.from_list(ainvs))
        nbar, dropped = residual_conductor(locs, p)
        assert n == nbar * math.prod(l.q for l in dropped)
        assert all(l.v_delta % p == 0 for l in dropped)


# the congruent pairs of the bundled scenarios, each with its prime
BUNDLED_PAIRS = [
    ([0, 0, 0, 1, -10], [0, 0, 0, -584, 5444], 5),
    ([0, 1, 0, -30008176, -63229110828], [0, 1, 0, -144, 532], 3),
    ([0, 1, 0, -5, -13], [0, 1, 0, 56, -588], 3),
    ([0, -1, 1, 20, -8], [1, 1, 0, -9, 8], 3),
    ([1, -1, 1, -57, 222], [1, -1, 1, -91, -310], 3),
]
# x = u^2 x' + r, y = u^3 y' + u^2 s x' + t: non-minimal, non-integral models
SHOWN = [
    curves.Isomorphism(Fraction(1, 2), 1, 1, 1),
    curves.Isomorphism(3, Fraction(1, 3), -2, Fraction(5, 2)),
]


def test_sweeps_give_the_same_results_on_shown_and_minimal_pairs():
    # the sweeps minimalize once; the certificate must be the one the
    # minimal pair gives, with every a_q the one a_q(shown model, q) gives
    for ainvs_a, ainvs_b, p in BUNDLED_PAIRS:
        a, b = WeierstrassModel.from_list(ainvs_a), WeierstrassModel.from_list(ainvs_b)
        min_a, min_b = curves.minimal_model(a)[0], curves.minimal_model(b)[0]
        reference = verify_congruence(curve_facts(min_a), curve_facts(min_b), p, mode="bounded-proof")
        witness = irreducible_mod_p(curve_facts(min_a), p)
        for iso in SHOWN:
            shown_a, shown_b = curves.transform(a, iso), curves.transform(b, iso)
            cert = verify_congruence(curve_facts(shown_a), curve_facts(shown_b), p, mode="bounded-proof")
            assert cert == reference, (ainvs_a, iso)
            assert cert.to_json("full") == reference.to_json("full")
            for c in cert.comparisons[:12]:  # the per-prime path the sweep replaced
                if "a_q_A" in c:
                    assert c["a_q_A"] == hecke.a_q(shown_a, c["q"]).a_q
                    assert c["a_q_B"] == hecke.a_q(shown_b, c["q"]).a_q
            verdict = irreducible_mod_p(curve_facts(shown_a), p)
            assert verdict == witness, (ainvs_a, iso)
            assert verdict.witness_aq == hecke.a_q(shown_a, verdict.witness_prime).a_q


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
    st.sampled_from([3, 5, 7]), st.sampled_from(SHOWN),
)
def test_sweeps_match_on_random_shown_pairs(a4, a6, b4, b6, p, iso):
    try:
        ma = WeierstrassModel.from_list([0, 0, 0, a4, a6])
        mb = WeierstrassModel.from_list([0, 1, 0, b4, b6])
        invariants(ma), invariants(mb)
    except SingularCurveError:
        assume(False)
    shown_a, shown_b = curves.transform(ma, iso), curves.transform(mb, iso)
    min_a, min_b = curves.minimal_model(ma)[0], curves.minimal_model(mb)[0]
    cert = verify_congruence(curve_facts(shown_a), curve_facts(shown_b), p, bound=40)
    assert cert == verify_congruence(curve_facts(min_a), curve_facts(min_b), p, bound=40)
    assert cert.to_json("full") == verify_congruence(curve_facts(ma), curve_facts(mb), p, bound=40).to_json("full")
    assert irreducible_mod_p(curve_facts(shown_a), p) == irreducible_mod_p(curve_facts(min_a), p)


def test_sweep_makes_no_fraction_invariants_per_prime(invariants_calls):
    # the per-prime a_q works on the integer invariants of the facts:
    # widening the sweep adds primes, not curves.invariants calls
    for ainvs_a, ainvs_b, p in BUNDLED_PAIRS:
        fa = curve_facts(WeierstrassModel.from_list(ainvs_a))
        fb = curve_facts(WeierstrassModel.from_list(ainvs_b))
        runs = []
        for bound in (100, 1000):
            invariants_calls.clear()
            cert = verify_congruence(fa, fb, p, bound=bound)
            runs.append((len(cert.primes_checked), len(invariants_calls)))
        (few, calls_few), (many, calls_many) = runs
        assert few < many and calls_few == calls_many == 0, (ainvs_a, runs)


def test_sweeps_minimalize_once_per_curve(minimal_model_calls, conductor_calls,
                                          invariants_calls, e1_52, e2_364):
    calls = minimal_model_calls
    # a new model: its facts take one minimal model, and no conductor call
    shown = curves.transform(e1_52, SHOWN[1])
    localdata.curve_facts.cache_clear()
    fa, fb = curve_facts(shown), curve_facts(e2_364)
    assert calls == [shown, e2_364] and conductor_calls == []
    # the sweep on prepared curves re-derives nothing
    calls.clear()
    invariants_calls.clear()
    cert = verify_congruence(fa, fb, 5, mode="bounded-proof")
    assert len(cert.primes_checked) > 20
    assert calls == [] and conductor_calls == [] and invariants_calls == []
    # the witness search reads the facts too. 11a1 has rational 5-torsion: no
    # witness, so every prime below the bound is tried
    e11 = curve_facts(WeierstrassModel.from_list([0, -1, 1, -10, -20]))
    calls.clear()
    assert irreducible_mod_p(e11, 5).status == "ReducibleDetected"
    assert irreducible_mod_p(fa, 5, fields.quadratic_field(59)).status == "Irreducible"
    assert calls == [] and conductor_calls == []


def _direct_a_q(model, q):
    """q + 1 - #E(F_q) of an integral model, counted directly: every pair at
    q = 2; at odd q, for each x the 1 + (D/q) roots y of y^2 + (a1 x + a3) y
    = x^3 + a2 x^2 + a4 x + a6, with D its discriminant (Euler's criterion)."""
    a1, a2, a3, a4, a6 = model.int_ainvs()
    if q == 2:
        return 2 - sum(1 for x in (0, 1) for y in (0, 1)
                       if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0)
    affine = 0
    for x in range(q):
        d = ((a1 * x + a3) ** 2 + 4 * (x**3 + a2 * x * x + a4 * x + a6)) % q
        affine += 1 if d == 0 else 1 + (1 if pow(d, (q - 1) // 2, q) == 1 else -1)
    return q - affine


@st.composite
def shown_integral_pair(draw):
    """Two random curves, each behind a random integral change of variables
    with u = 1, 1/2 or 1/3: integral models, most of them not minimal."""
    models = []
    for _ in range(2):
        m = WeierstrassModel.from_list(
            [draw(st.integers(0, 1)), draw(st.integers(-1, 1)), draw(st.integers(0, 1)),
             draw(st.integers(-40, 40)), draw(st.integers(-40, 40))]
        )
        try:
            invariants(m)
        except SingularCurveError:
            assume(False)
        u = draw(st.sampled_from([1, Fraction(1, 2), Fraction(1, 3)]))
        r, s, t = (draw(st.integers(-3, 3)) for _ in range(3))
        models.append(curves.transform(m, curves.Isomorphism(u, r, s, t)))
    return models


@settings(max_examples=15, deadline=None)
@given(shown_integral_pair())
def test_prepared_sweep_matches_the_raw_path(pair):
    # the facts are minimal_model plus conductor; at every prime <= 200 good
    # for both curves, q = 2 and 3 included, the prepared a_q are hecke.a_q's
    # on the raw models and the direct counts, and the sweep compares them
    facts = [curve_facts(m) for m in pair]
    for m, f in zip(pair, facts):
        minimal = curves.minimal_model(m)[0]
        inv = invariants(minimal)
        assert (f.minimal, f.c4, f.c6, f.disc) == (minimal, inv.c4, inv.c6, inv.disc)
        assert (f.conductor, list(f.local_data)) == conductor(m)
    bad = {l.q for f in facts for l in f.local_data}
    good = [q for q in arith.primes(200) if q not in bad]
    cert = verify_congruence(*facts, 5, bound=200)
    swept = {c["q"]: [c["a_q_A"], c["a_q_B"]] for c in cert.comparisons if "a_q_A" in c}
    assert sorted(swept) == [q for q in good if q != 5]
    for q in good:
        expected = [hecke.a_q(m, q).a_q for m in pair]
        assert expected == [_direct_a_q(f.minimal, q) for f in facts], q
        assert list(hecke.good_a_q(q, *facts)) == swept.get(q, expected) == expected, q


def test_ex5_heuristic_sweep_to_3000_matches_the_table_kernel():
    # past hecke.NAIVE_LIMIT the sweep counts with BSGS; every a_q it compares
    # is the table kernel's, on both sides and at the level-lowering primes
    blob = json.loads(bundled_scenario_path("ex5_cyclotomic_tower").read_text())
    fa, fb = (curve_facts(curves.parse_curve(blob[k])) for k in ("curve_a", "curve_b"))

    def table_a_q(f, q):
        A, B = -27 * f.c4 % q, -54 * f.c6 % q
        return q + 1 - hecke._count_residues(A, B, q, hecke._square_counts(q))

    with mock.patch.object(hecke, "_count_bsgs", wraps=hecke._count_bsgs) as bsgs:
        cert = verify_congruence(fa, fb, blob["p"], mode="heuristic", bound=3000)
    assert cert.verdict == "verified" and bsgs.called
    compared = 0
    for c in cert.comparisons:
        q = c["q"]
        if q > 3 and "a_q_A" in c:
            assert [c["a_q_A"], c["a_q_B"]] == [table_a_q(fa, q), table_a_q(fb, q)], q
            compared += 1
        elif q > 3:
            side = fb if fa.disc % q == 0 else fa
            assert c["a_q_good"] == table_a_q(side, q), q
    assert compared > 400
