from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from shavis import arith
from shavis.curves import (
    IDENTITY,
    Isomorphism,
    SingularCurveError,
    WeierstrassModel,
    bc_invariants,
    invariants,
    minimal_model,
    minimal_discriminant,
    quadratic_twist,
    transform,
    translate,
)

small_coeff = st.integers(min_value=-8, max_value=8)


@st.composite
def random_curve(draw):
    a1 = draw(st.integers(min_value=-1, max_value=1))
    a2 = draw(st.integers(min_value=-2, max_value=2))
    a3 = draw(st.integers(min_value=-1, max_value=1))
    a4 = draw(small_coeff)
    a6 = draw(small_coeff)
    m = WeierstrassModel.from_list([a1, a2, a3, a4, a6])
    try:
        invariants(m)
    except SingularCurveError:
        assume(False)
    return m


def test_invariants_spec_examples(e1_52):
    inv = invariants(e1_52)
    assert inv.disc == -16 * (4 * 1**3 + 27 * (-10) ** 2) == -43264
    assert invariants(WeierstrassModel.from_list([0, 0, 0, 0, 1])).j == 0
    assert 1728 * inv.disc == inv.c4**3 - inv.c6**2
    with pytest.raises(SingularCurveError):
        invariants(WeierstrassModel.from_list([0, 0, 0, 0, 0]))


def test_transform_identity_and_roundtrip(e1_52):
    assert transform(e1_52, IDENTITY) == e1_52
    iso = Isomorphism(Fraction(2, 3), 1, Fraction(-1, 2), 5)
    assert transform(transform(e1_52, iso), iso.inverse()) == e1_52
    with pytest.raises(arith.ArithmeticError_):
        Isomorphism(0)


# Reference copies of the formulas as Tate's algorithm and `transform` had
# them before curves.py became their one home; kept here only.
def _bc_invariants_reference(a):
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, delta


def _translate_reference(a, r, s, t):
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _transform_reference(model, iso):
    a1, a2, a3, a4, a6 = model.ainvs()
    u, r, s, t = iso.u, iso.r, iso.s, iso.t
    a1n = (a1 + 2 * s) / u
    a2n = (a2 - s * a1 + 3 * r - s * s) / u**2
    a3n = (a3 + r * a1 + 2 * t) / u**3
    a4n = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4
    a6n = (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6
    return WeierstrassModel(a1n, a2n, a3n, a4n, a6n)


big_int = st.integers(min_value=-10**6, max_value=10**6)
nonzero_rational = st.fractions(max_denominator=50).filter(lambda u: u != 0)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[big_int] * 5), st.tuples(*[big_int] * 3), nonzero_rational)
def test_shared_formulas_match_references(a, rst, u):
    r, s, t = rst
    assert bc_invariants(a) == _bc_invariants_reference(a)
    assert all(type(x) is int for x in bc_invariants(a))
    assert translate(a, r, s, t) == _translate_reference(a, r, s, t)
    model = WeierstrassModel.from_list(a)
    fa = model.ainvs()
    assert bc_invariants(fa) == _bc_invariants_reference(fa)
    iso = Isomorphism(u, r, s, t)
    assert transform(model, iso) == _transform_reference(model, iso)
    try:
        inv = invariants(model)
    except SingularCurveError:
        assert _bc_invariants_reference(a)[6] == 0
    else:
        assert (inv.b2, inv.b4, inv.b6, inv.b8, inv.c4, inv.c6, inv.disc) == (
            _bc_invariants_reference(a))


def test_disc_scales_by_u12(e1_52):
    inv0 = invariants(e1_52)
    for u in (2, Fraction(1, 3), Fraction(5, 7)):
        inv = invariants(transform(e1_52, Isomorphism(u)))
        assert inv.disc == inv0.disc / Fraction(u) ** 12
        assert inv.c4 == inv0.c4 / Fraction(u) ** 4


def test_minimal_model_spec_examples(e1_52):
    m, iso = minimal_model(e1_52)
    assert m == e1_52 and iso == IDENTITY
    blown = transform(e1_52, Isomorphism(Fraction(1, 2)))
    m2, _ = minimal_model(blown)
    assert m2 == e1_52
    # conductor-17 curve: minimal discriminant supported at 17 only
    b = WeierstrassModel.from_list([1, -1, 1, -91, -310])
    assert arith.factor(abs(minimal_discriminant(b))) == {17: 1}


def test_minimal_model_famous_curves():
    e11 = WeierstrassModel.from_list([0, -1, 1, -10, -20])
    assert minimal_model(e11)[0] == e11
    assert minimal_discriminant(e11) == -(11**5)
    e37 = WeierstrassModel.from_list([0, 0, 1, -1, 0])
    assert minimal_discriminant(e37) == 37


def test_quadratic_twist_spec_examples(e1_52, e2_364):
    t = quadratic_twist(e1_52, 59)
    assert t == WeierstrassModel.from_list([0, 0, 0, 59**2, 59**3 * -10])
    assert t == WeierstrassModel.from_list([0, 0, 0, 3481, -2053790])
    # the printed twisted equation for E2 in the worked example
    assert quadratic_twist(e2_364, 59) == WeierstrassModel.from_list(
        [0, 0, 0, -2032904, 1118083276]
    )
    # twisting twice comes back to the same minimal model
    tt = quadratic_twist(quadratic_twist(e1_52, 59), 59)
    assert minimal_model(tt)[0] == minimal_model(e1_52)[0]
    with pytest.raises(arith.ArithmeticError_):
        quadratic_twist(e1_52, 12)
    with pytest.raises(arith.ArithmeticError_):
        quadratic_twist(e1_52, 1)


@settings(max_examples=200, deadline=None)
@given(random_curve(), st.sampled_from([-11, -7, -3, -1, 2, 3, 5, 13, 21, 59]))
def test_j_invariant_preserved_by_twist(m, d):
    assert invariants(quadratic_twist(m, d)).j == invariants(m).j


@settings(max_examples=200, deadline=None)
@given(
    random_curve(),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4)).filter(lambda u: u != 0),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_j_invariant_preserved_by_transform(m, u, r, s, t):
    iso = Isomorphism(u, r, s, t)
    assert invariants(transform(m, iso)).j == invariants(m).j


@settings(max_examples=200, deadline=None)
@given(random_curve(), st.sampled_from([-7, -3, -1, 2, 3, 5, 13, 21]))
def test_twist_involution_on_minimal_models(m, d):
    twice = quadratic_twist(quadratic_twist(m, d), d)
    assert minimal_model(twice)[0] == minimal_model(m)[0]


@settings(max_examples=200, deadline=None)
@given(random_curve())
def test_c_invariant_identity(m):
    inv = invariants(m)
    assert 1728 * inv.disc == inv.c4**3 - inv.c6**2
    assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4**2


@settings(max_examples=100, deadline=None)
@given(random_curve())
def test_minimal_model_idempotent(m):
    m1, _ = minimal_model(m)
    m2, iso = minimal_model(m1)
    assert m1 == m2 and iso == IDENTITY


@settings(max_examples=100, deadline=None)
@given(random_curve(), st.sampled_from([5, 7, 11, 13, 23]))
def test_twist_disc_identity_on_short_models(m, d):
    # disc(E^d) = d^6 disc(E) for short models with d prime to 6*disc
    inv = invariants(m)
    short = WeierstrassModel.from_list([0, 0, 0, -27 * inv.c4, -54 * inv.c6])
    assume(arith.valuation(int(6 * invariants(short).disc), d) == 0)
    assert invariants(quadratic_twist(short, d)).disc == d**6 * invariants(short).disc
