import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shavis import arith, curves, hecke, localdata
from shavis.curves import WeierstrassModel
from shavis.hecke import a_q, count_nonsingular_points

#: The primes on each side of the switch from the table kernel to BSGS: the
#: three largest primes the table counts and the three smallest above them.
NEAR_NAIVE_LIMIT = tuple(sorted(arith.primes(hecke.NAIVE_LIMIT)))[-3:]
BSGS_PRIMES = tuple(itertools.islice(
    filter(arith.is_prime, itertools.count(hecke.NAIVE_LIMIT + 1)), 3))


def test_count_points_spec_examples():
    # y^2 + y = x^3 + x^2 over F_2: all four affine pairs lie on the curve
    m = WeierstrassModel.from_list([0, 1, 1, 0, 0])
    affine = 0
    for x in (0, 1):
        for y in (0, 1):
            if (y * y + y - x**3 - x * x) % 2 == 0:
                affine += 1
    assert affine == 4
    assert 2 + 1 - a_q(m, 2).a_q == 5
    # y^2 = x^3 + x over F_3: supersingular, a_3 = 0
    ss = WeierstrassModel.from_list([0, 0, 0, 1, 0])
    affine3 = sum(
        1 for x in range(3) for y in range(3) if (y * y - x**3 - x) % 3 == 0
    )
    assert affine3 + 1 == 4
    assert 3 + 1 - a_q(ss, 3).a_q == 4


def test_a_q_errors(e1_52):
    with pytest.raises(arith.ArithmeticError_, match="not prime"):
        a_q(e1_52, 15)
    with pytest.raises(arith.ArithmeticError_, match="capped"):
        a_q(e1_52, 10_000_019)  # a good prime beyond the hard cap


def test_known_eigenform_coefficients():
    e11 = WeierstrassModel.from_list([0, -1, 1, -10, -20])
    assert {q: a_q(e11, q).a_q for q in (2, 3, 5, 7, 13)} == {
        2: -2, 3: -1, 5: 1, 7: -2, 13: 4,
    }


def test_bsgs_agrees_with_naive(e1_52):
    cm43 = WeierstrassModel.from_list([0, 0, 1, -860, 9707])
    cases = [
        (e1_52, 10007),
        (e1_52, 10039),
        # |a_q| = isqrt(4q) = 2 * isqrt(q) + 1: #E lies just outside q + 1 -/+ 2 * isqrt(q)
        (WeierstrassModel.from_list([0, 0, 0, 0, 3]), 7),
        (WeierstrassModel.from_list([0, 0, 0, 0, 4]), 13),
        (WeierstrassModel.from_list([0, 0, 0, 1, 11]), 23),
        (WeierstrassModel.from_list([0, 0, 0, 0, 3]), 31),
        # CM by Q(sqrt(-43)) and 4 * 10111 = 201^2 + 43
        (cm43, 10111),
    ]
    for m, q in cases:
        c4, c6 = curves.bc_invariants(m.int_ainvs())[4:6]
        A, B = -27 * c4 % q, -54 * c6 % q
        count = hecke._count_residues(A, B, q, hecke._square_counts(q))
        assert hecke._count_bsgs(A, B, q) == count, (m, q)
    assert a_q(e1_52, BSGS_PRIMES[0]).method == "bsgs"
    assert a_q(e1_52, NEAR_NAIVE_LIMIT[-1]).method == "naive-count"
    assert a_q(cm43, 10111) == hecke.ApRecord(10111, 201, "bsgs")


def test_bsgs_counts_the_twist_when_every_order_is_small():
    # E(F_10303) = Z/102 x Z/102 for y^2 = x^3 + 1 (and likewise for B = 2;
    # Z/101 x Z/101 for B = 3): each point order divides 102, which has
    # several multiples in the Hasse interval, so the twist settles #E
    q = 10303
    t = hecke._square_counts(q)
    for b, expected in ((1, -100), (2, -100), (3, 103)):
        model = WeierstrassModel.from_list([0, 0, 0, 0, b])
        c4, c6 = curves.bc_invariants(model.int_ainvs())[4:6]
        A, B = -27 * c4 % q, -54 * c6 % q
        assert q + 1 - hecke._count_residues(A, B, q, t) == expected
        t0 = time.perf_counter()
        assert a_q(model, q) == hecke.ApRecord(q, expected, "bsgs")
        assert time.perf_counter() - t0 < 1.0


def _brute_multiples(P, E, lo, hi):
    return [n for n in range(lo, hi + 1) if E.mul(n, P) is None]


def _window(q):
    w = math.isqrt(4 * q)
    return q + 1 - w, q + 1 + w


# Points at q = 2999 (window half-width 109, so m = 11 baby steps) pinned for
# each way the search ends: (A, B, P, ord(P))
EARLY_EXITS = (
    (1, 2997, (1, 0), 2),  # -P = P at the first baby step
    (1, 2997, (2037, 670), 12),  # 6P = -6P
    (1, 2997, (97, 1420), 22),  # 11P = -11P at the last baby step, j = m
    (2, 3, (133, 2251), 7),  # x of 4P is that of 3P: 4P = -3P
)
GIANT_STEPS = (
    (5, 7, (7, 2730), 977),
    (5, 7, (0, 1452), 2931),
)
# A point of order 2m + 1 = 23 at q = 2999, whose giant step is O
GIANT_STEP_IS_O = (1, 28, (1240, 249), 23)
# The giant walk starts at n0 = q + 1 - k(2m + 1) = a(2m + 1) + b, |b| <= m.
# At q = 2999, n0 = 2885 = 125 * 23 + 10 adds the baby step 10P to 125 giant
# steps; at q = 3001, n0 = 2887 = 126 * 23 - 11 adds -11P to 126 of them.
# Pinned as (q, A, B, P, a, every N in the window with N P = O)
GIANT_STARTS = (
    (2999, 5, 7, (7, 2730), 125, [2931]),
    (3001, 5, 7, (2, 2996), 126, [2992]),
)


def test_multiples_in_window_matches_brute_force():
    for q, curves_ in ((2999, ((1, 2997), (0, 1), (2, 3), (5, 7))), (4001, ((3, 5), (0, 2)))):
        lo, hi = _window(q)
        for A, B in curves_:
            E = hecke.ModCurve((0, 0, 0, A, B), q)
            for P in itertools.islice(hecke._points(A, B, q), 8):
                assert list(hecke._multiples_in_window(P, E, lo, hi)) == _brute_multiples(
                    P, E, lo, hi), (A, B, q, P)
    # a window that is not centred on q + 1, and one with no multiple in it
    E = hecke.ModCurve((0, 0, 0, 5, 7), 2999)
    for P, lo, hi in (((7, 2730), 1900, 2000), ((7, 2730), 1955, 1957), ((0, 1452), 10, 2000)):
        assert list(hecke._multiples_in_window(P, E, lo, hi)) == _brute_multiples(P, E, lo, hi)


def test_multiples_in_window_early_exits_make_no_giant_step():
    q = 2999
    lo, hi = _window(q)
    for A, B, P, order in EARLY_EXITS + GIANT_STEPS:
        E = hecke.ModCurve((0, 0, 0, A, B), q)
        assert E.mul(order, P) is None and all(
            E.mul(order // r, P) is not None for r in arith.prime_divisors(order))
        expected = [n for n in range(lo, hi + 1) if n % order == 0]
        with mock.patch.object(hecke, "_short_mul", wraps=hecke._short_mul) as mul:
            assert list(hecke._multiples_in_window(P, E, lo, hi)) == expected, (A, B, P)
        assert mul.called == (order > 22), (A, B, P)


def test_multiples_in_window_takes_no_giant_step_of_order_2m_plus_1():
    q = 2999
    lo, hi = _window(q)
    A, B, P, order = GIANT_STEP_IS_O
    E = hecke.ModCurve((0, 0, 0, A, B), q)
    assert E.mul(order, P) is None
    expected = [n for n in range(lo, hi + 1) if n % order == 0]
    assert _brute_multiples(P, E, lo, hi) == expected
    with mock.patch.object(hecke, "_short_mul", wraps=hecke._short_mul) as mul:
        assert list(hecke._multiples_in_window(P, E, lo, hi)) == expected
    assert not mul.called


def test_multiples_in_window_starts_the_walk_from_a_baby_step():
    # one start on each side of a multiple of the giant step
    for q, A, B, P, a, expected in GIANT_STARTS:
        lo, hi = _window(q)
        E = hecke.ModCurve((0, 0, 0, A, B), q)
        assert _brute_multiples(P, E, lo, hi) == expected
        with mock.patch.object(hecke, "_short_mul", wraps=hecke._short_mul) as mul:
            assert hecke._multiples_in_window(P, E, lo, hi) == expected, q
        assert mul.call_args.args[:2] == (a, E.mul(2 * 11 + 1, P)), q


def _reference_add(a, q, p1, p2):
    """ModCurve.add as it read before short models had a step of their own."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    a1, a2, a3, a4, a6 = a
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2 + a1 * x1 + a3) % q == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(
            (2 * y1 + a1 * x1 + a3) % q, -1, q
        ) % q
    else:
        lam = (y2 - y1) * pow((x2 - x1) % q, -1, q) % q
    nu = (y1 - lam * x1) % q
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % q
    y3 = (-(lam + a1) * x3 - nu - a3) % q
    return (x3, y3)


PRIMES_5_TO_5000 = [q for q in range(5, 5001) if arith.is_prime(q)]


@st.composite
def short_curve_points(draw):
    q = draw(st.sampled_from(PRIMES_5_TO_5000))
    A, B = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
    assume((4 * A**3 + 27 * B * B) % q)
    points = list(hecke._points(A, B, q))
    assume(points)
    return q, A, B, draw(st.sampled_from(points)), draw(st.sampled_from(points))


@settings(max_examples=100, deadline=None)
@given(short_curve_points(), st.integers(0, 40))
def test_short_model_step_matches_the_general_formula(case, k):
    q, A, B, P, Q = case
    E = hecke.ModCurve((0, 0, 0, A, B), q)
    minus_P, minus_Q = E.neg(P), E.neg(Q)
    pairs = [(P, Q), (Q, P), (P, minus_Q), (minus_P, Q), (P, P), (minus_P, minus_P),
             (P, minus_P), (P, None), (None, Q), (None, None)]
    for p1, p2 in pairs:
        assert E.add(p1, p2) == _reference_add(E.a, q, p1, p2), (p1, p2)
    # k P by repeated reference steps against the doubling multiply
    kP = None
    for _ in range(k):
        kP = _reference_add(E.a, q, kP, P)
    assert hecke._short_mul(k, P, A, q) == kP == E.mul(k, P)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([q for q in range(10_001, 11_000) if arith.is_prime(q)]),
       st.integers(0, 10**6), st.integers(0, 10**6))
def test_bsgs_agrees_with_the_residue_count(q, a, b):
    A, B = a % q, b % q
    assume((4 * A**3 + 27 * B * B) % q)
    assert hecke._count_bsgs(A, B, q) == hecke._count_residues(A, B, q, hecke._square_counts(q))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([q for q in range(230, 10_000) if arith.is_prime(q)]),
       st.integers(0, 10**6), st.integers(0, 10**6))
@example(233, 1, 1)
def test_bsgs_agrees_with_the_residue_count_below_10_4(q, a, b):
    # BSGS counts every prime above NAIVE_LIMIT, and it is proven from q > 229 on
    A, B = a % q, b % q
    assume((4 * A**3 + 27 * B * B) % q)
    assert hecke._count_bsgs(A, B, q) == hecke._count_residues(A, B, q, hecke._square_counts(q))


def test_naive_limit_stays_where_bsgs_is_proven():
    # below 230 the point orders of E and its twist may leave two candidates
    assert isinstance(hecke.NAIVE_LIMIT, int) and hecke.NAIVE_LIMIT >= 230


def test_bsgs_takes_turns_when_the_points_leave_the_order_open():
    # y^2 = x^3 + x - 2 has the point (1, 0) of order 2, and its twist by d
    # the point (d, 0): each leaves every even N open
    q, A, B = 10007, 1, 10005
    d = next(d for d in range(2, q) if pow(d, (q - 1) // 2, q) == q - 1)
    expected = hecke._count_residues(A, B, q, hecke._square_counts(q))
    points, search = hecke._points, hecke._multiples_in_window

    def fake(a4, a6, q_):
        if (a4, a6) == (A, B):
            return itertools.chain([(1, 0)] * (hecke.TWIST_AFTER + 2), points(a4, a6, q_))
        return iter([(d, 0)] * 3)

    with mock.patch.object(hecke, "_points", side_effect=fake), \
            mock.patch.object(hecke, "_multiples_in_window", side_effect=search) as calls:
        assert hecke._count_bsgs(A, B, q) == expected
    sides = "".join("E" if c.args[1].a[3:] == (A, B) else "T" for c in calls.call_args_list)
    assert sides.startswith("EEEE" + "TETETE"), sides

    # when both sides run out of points the search has a bug
    small = lambda a4, a6, q_: iter([(1, 0)] if (a4, a6) == (A, B) else [(d, 0)])
    with mock.patch.object(hecke, "_points", side_effect=small):
        with pytest.raises(arith.SoundnessError, match="group order ambiguous at 10007"):
            hecke._count_bsgs(A, B, q)


def test_bad_prime_rules(e2_364):
    assert a_q(e2_364, 7).a_q == 1  # split multiplicative
    assert a_q(e2_364, 13).a_q == -1  # nonsplit
    assert a_q(e2_364, 2).a_q == 0  # additive
    assert a_q(e2_364, 7).method == "bad-prime-rule"


def test_nonsingular_count_oracle_agrees_with_tate():
    # split: q - 1 points; nonsplit: q + 1; additive: q
    cases = [
        ([0, -1, 1, -10, -20], 11),
        ([0, 0, 1, -1, 0], 37),
        ([0, 0, 0, -584, 5444], 7),
        ([0, 0, 0, -584, 5444], 13),
        ([1, 1, 0, -9, 8], 29),
        ([0, 0, 0, 1, -10], 2),
    ]
    for ainvs, q in cases:
        m = WeierstrassModel.from_list(ainvs)
        local = localdata.tate_algorithm(m, q)
        ns = count_nonsingular_points(m, q)
        expected = {
            "split-mult": q - 1,
            "nonsplit-mult": q + 1,
            "additive": q,
        }[local.reduction_class]
        assert ns == expected, (ainvs, q)


small = st.integers(min_value=-6, max_value=6)


@st.composite
def curve_and_prime(draw):
    m = WeierstrassModel.from_list(
        [draw(st.integers(0, 1)), draw(small), draw(st.integers(0, 1)), draw(small), draw(small)]
    )
    try:
        disc = int(__import__("shavis.curves", fromlist=["invariants"]).invariants(m).disc)
    except Exception:
        assume(False)
    q = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 101, 257, 997]))
    assume(curves.minimal_discriminant(m) % q != 0)
    return m, q


@settings(max_examples=220, deadline=None)
@given(curve_and_prime())
def test_hasse_bound(cp):
    m, q = cp
    rec = a_q(m, q)
    assert rec.a_q * rec.a_q <= 4 * q


@settings(max_examples=200, deadline=None)
@given(curve_and_prime(), st.sampled_from([-7, -3, 5, 13, 21, 59]))
def test_twist_compatibility(cp, d):
    # a_q(E^d) = chi_d(q) a_q(E) away from 2 N disc(d)
    m, q = cp
    from shavis.curves import invariants, quadratic_twist

    dstar = arith.fundamental_discriminant(d)
    assume(q != 2 and dstar % q != 0)
    tw = quadratic_twist(m, d)
    assume(curves.minimal_discriminant(tw) % q != 0)
    assert a_q(tw, q).a_q == arith.kronecker_symbol(dstar, q) * a_q(m, q).a_q


@settings(max_examples=60, deadline=None)
@given(curve_and_prime())
def test_splitness_coherence_with_a_q(cp):
    # at any prime: bad-prime a_q and Tate's classification must agree
    m, _ = cp
    from shavis.localdata import conductor

    _, locs = conductor(m)
    for l in locs:
        rec = a_q(m, l.q)
        expected = {"split-mult": 1, "nonsplit-mult": -1, "additive": 0}[l.reduction_class]
        assert rec.a_q == expected


def test_a_q_minimalizes_once(minimal_model_calls, e1_52):
    calls = minimal_model_calls
    shown = curves.transform(e1_52, curves.Isomorphism(Fraction(1, 2), 1, 1, 1))
    for q, method in ((3, "naive-count"), (10007, "bsgs"), (13, "bad-prime-rule")):
        calls.clear()
        assert a_q(shown, q).method == method
        assert len(calls) == 1, (q, len(calls))


# Reference copies of the per-prime path as it was before it went to integer
# invariants: the branchy residue loop, and the Fraction good-reduction test
# and short model.
def _reference_count_residues(a, q):
    b2, b4, b6 = (b % q for b in curves.bc_invariants(a)[:3])
    qr = bytearray(q)
    for z in range(1, (q + 1) // 2):
        qr[z * z % q] = 1
    count = q + 1
    for x in range(q):
        rhs = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % q
        if rhs == 0:
            continue
        count += 1 if qr[rhs] else -1
    return count


def _reference_good_at(minimal, q):
    return int(curves.invariants(minimal).disc) % q != 0


def _reference_short_mod(model, q):
    short = curves.short_model(model)
    return int(short.a4) % q, int(short.a6) % q


integral = st.builds(
    WeierstrassModel.from_list,
    st.lists(st.integers(-400, 400), min_size=5, max_size=5),
)


@settings(max_examples=20, deadline=None)
@given(integral)
def test_integer_path_matches_the_fraction_reference(model):
    try:
        minimal, _ = curves.minimal_model(model)
    except curves.SingularCurveError:
        assume(False)
    a = minimal.int_ainvs()
    disc = int(curves.invariants(minimal).disc)
    qs = set(arith.primes(600)) | set(NEAR_NAIVE_LIMIT) | set(arith.prime_divisors(disc))
    for q in sorted(qs):
        rec = a_q(minimal, q)
        good = _reference_good_at(minimal, q)
        assert (rec.method != "bad-prime-rule") == good, q
        if good and q > 2:
            assert rec.a_q == q + 1 - _reference_count_residues(a, q), q
    with mock.patch.object(hecke, "_count_bsgs", wraps=hecke._count_bsgs) as bsgs:
        for q in BSGS_PRIMES:
            rec = a_q(minimal, q)
            if _reference_good_at(minimal, q):
                assert bsgs.call_args.args == (*_reference_short_mod(minimal, q), q)
                assert rec.a_q == q + 1 - _reference_count_residues(a, q), q


def test_good_a_q_makes_no_fraction_invariants(invariants_calls, e1_52):
    facts = localdata.curve_facts(e1_52)
    invariants_calls.clear()
    qs = (3, 5, NEAR_NAIVE_LIMIT[-1], BSGS_PRIMES[0])
    counted = [hecke.good_a_q(q, facts) for q in qs]
    assert invariants_calls == []
    recs = [a_q(e1_52, q) for q in qs]
    assert [r.method for r in recs] == ["naive-count"] * 3 + ["bsgs"]
    assert counted == [(r.a_q,) for r in recs]


@st.composite
def shown_curve(draw):
    """A random curve and the same curve in non-minimal, non-integral
    coordinates: x = u^2 x' + r, y = u^3 y' + u^2 s x' + t."""
    m = WeierstrassModel.from_list(
        [draw(st.integers(0, 1)), draw(st.integers(-1, 1)), draw(st.integers(0, 1)),
         draw(st.integers(-60, 60)), draw(st.integers(-60, 60))]
    )
    try:
        curves.invariants(m)
    except curves.SingularCurveError:
        assume(False)
    frac = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 6]))
    u = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(2, 5), 2]))
    iso = curves.Isomorphism(u, draw(frac), draw(frac), draw(frac))
    return m, curves.transform(m, iso)


@settings(max_examples=60, deadline=None)
@given(shown_curve())
def test_good_a_q_matches_a_q(pair):
    # the path of prepared curves against the public one, which also takes
    # the bad primes and the curve in either coordinates
    m, shown = pair
    facts = localdata.curve_facts(shown)
    for q in sorted(set(arith.primes(40)) | {l.q for l in facts.local_data}):
        rec = a_q(shown, q)
        assert rec == a_q(m, q), q
        if facts.conductor % q:
            assert hecke.good_a_q(q, facts) == (rec.a_q,), q


def test_hasse_guard_survives_python_O(run_python):
    # the Hasse bound and one Tate-structure guard (I0* with c = 7)
    out = run_python(
        "import sys\n"
        "from shavis.arith import SoundnessError\n"
        "from shavis.hecke import ApRecord\n"
        "from shavis.localdata import LocalReductionData\n"
        "for make in (lambda: ApRecord(5, 100, 'naive-count'),\n"
        "             lambda: LocalReductionData(5, 'I0*', 2, 7, 6, 'additive')):\n"
        "    try:\n"
        "        make()\n"
        "    except SoundnessError as exc:\n"
        "        print(sys.flags.optimize, exc)\n",
        "-O",
    )
    assert out.splitlines() == [
        "1 Hasse bound violated at 5",
        "1 inconsistent local data {'q': 5, 'kodaira': 'I0*', 'f': 2, 'c': 7, "
        "'v_delta': 6, 'class': 'additive'}",
    ]
