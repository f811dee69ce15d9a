import pytest
from hypothesis import given, settings, strategies as st

from shavis import arith
from shavis.fields import (
    RATIONALS,
    NumberFieldDescriptor,
    TowerDescriptor,
    UnsupportedFieldError,
    check_ramification_condition,
    cyclotomic_field,
    decomposition_dimension,
    kummer_layer,
    quadratic_field,
    splitting_data,
)


def test_descriptor_validation():
    assert quadratic_field(59).disc == 236
    assert quadratic_field(59).degree == 2
    assert cyclotomic_field(3).degree == 2
    assert cyclotomic_field(7).degree == 6
    assert kummer_layer(3, 7).degree == 6
    with pytest.raises(arith.ArithmeticError_):
        NumberFieldDescriptor("quadratic", disc=59)  # not fundamental
    with pytest.raises(arith.ArithmeticError_):
        cyclotomic_field(4)
    with pytest.raises(arith.ArithmeticError_):
        kummer_layer(3, 50)  # 50 = 2 * 5^2 not squarefree away from 3
    with pytest.raises(arith.ArithmeticError_):
        TowerDescriptor("false_tate", p=3, m=6)


def test_splitting_data_spec_examples():
    # Q(mu_3) at 11: order of 11 mod 3 is 2
    s = splitting_data(cyclotomic_field(3), 11)
    assert (s.e, s.f, s.g) == (1, 2, 1)
    # disc-236 field ramifies at 2
    assert splitting_data(quadratic_field(59), 2).e == 2
    # Kummer layer ramified at 7
    assert splitting_data(kummer_layer(3, 7), 7).e % 3 == 0


def test_splitting_data_quadratic_cases():
    f = quadratic_field(59)  # disc 236 = 2^2 * 59
    assert splitting_data(f, 59).e == 2
    assert splitting_data(f, 5) == splitting_data(f, 5)
    for q in (3, 5, 7, 11, 13):
        s = splitting_data(f, q)
        sym = arith.kronecker_symbol(236, q)
        if sym == 1:
            assert (s.e, s.f, s.g) == (1, 1, 2)
        else:
            assert (s.e, s.f, s.g) == (1, 2, 1)


def test_splitting_data_cyclotomic_cases():
    f = cyclotomic_field(7)
    assert splitting_data(f, 7) == splitting_data(f, 7)
    assert (splitting_data(f, 7).e, splitting_data(f, 7).f) == (6, 1)
    # 2 has order 3 mod 7
    assert splitting_data(f, 2).f == 3
    assert splitting_data(f, 2).g == 2


def test_cyclotomic_residue_degree_is_the_multiplicative_order():
    # f in Q(mu_p) is the order of q mod p; the reference is the plain loop
    def order_by_loop(q, p):
        f, acc = 1, q % p
        while acc != 1:
            acc = acc * q % p
            f += 1
        return f

    for p in list(arith.primes(400))[1:]:
        field = cyclotomic_field(p)
        for q in arith.primes(600):
            if q != p:
                s = splitting_data(field, q)
                assert (s.f, s.g) == (order_by_loop(q, p), (p - 1) // s.f), (p, q)
    # p - 1 = 2 * 500000003: two pow calls per prime factor, not p loop steps
    s = splitting_data(cyclotomic_field(1_000_000_007), 2)
    assert s.f * s.g == 1_000_000_006 and pow(2, s.f, 1_000_000_007) == 1


def test_kummer_layer_residue_growth():
    f = kummer_layer(3, 7)
    # q = 2: inert in Q(mu_3) (order of 2 mod 3 is 2); is 7 a cube in F_4?
    # F_4* has order 3, cube map kills it, so every element is a cube iff it
    # is 1; 7 = 1 in F_2... 7 mod 2 = 1, and 1 is always a cube.
    s2 = splitting_data(f, 2)
    assert s2.e == 1 and s2.f == 2 and s2.g == 3
    # q = 5: order of 5 mod 3 is 2, 5-residue test in F_25
    s5 = splitting_data(f, 5)
    assert s5.e == 1
    assert s5.f in (2, 6) and s5.e * s5.f * s5.g == 6
    with pytest.raises(UnsupportedFieldError):
        splitting_data(f, 3)  # behavior at p depends on m mod p^2


def test_efg_product_is_degree():
    for field in (quadratic_field(59), quadratic_field(-3), cyclotomic_field(3),
                  cyclotomic_field(7), cyclotomic_field(13)):
        for q in (2, 3, 5, 7, 11, 13, 59):
            s = splitting_data(field, q)
            assert s.e * s.f * s.g == field.degree, (field, q)


def test_kummer_radicand_that_is_a_pth_power_is_rejected():
    # 27 = 3^3 is a cube, so Q(mu_3)(27^(1/3)) is Q(mu_3), of degree 2, not 6
    for p, m in ((3, 27), (3, 729), (5, 5**5), (7, 7**14)):
        with pytest.raises(arith.ArithmeticError_, match=f"{m} = {p}\\^"):
            kummer_layer(p, m)
    # a power of p off the multiples of p, or one with another prime, is kept
    assert kummer_layer(3, 9).degree == kummer_layer(3, 3 * 27).degree == 6
    assert kummer_layer(5, 2 * 5**5).degree == 20


#: Every supported field kind, from a prime p and an integer a that picks
#: the quadratic discriminant or the Kummer radicand.
FIELD_KINDS = {
    "rationals": lambda p, a: RATIONALS,
    "quadratic": lambda p, a: quadratic_field(a),
    "cyclotomic": lambda p, a: cyclotomic_field(p),
    "kummer": lambda p, a: kummer_layer(p, abs(a)),
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(FIELD_KINDS)),
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(-3000, 3000),
    st.sampled_from(list(arith.primes(200))),
)
def test_efg_product_is_degree_for_every_supported_field(kind, p, a, q):
    try:
        field = FIELD_KINDS[kind](p, a)
    except arith.ArithmeticError_:
        return  # not a field of that kind: a square d, or a bad radicand
    try:
        s = splitting_data(field, q)
    except UnsupportedFieldError:
        return  # q = p in a Kummer layer
    assert s.e * s.f * s.g == field.degree, (field, q, s)


@settings(max_examples=220, deadline=None)
@given(
    st.sampled_from([-3, 5, -7, 12, 13, 236, -4, 8, 892]),
    st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 59, 97]),
)
def test_efg_bookkeeping_quadratic(disc, q):
    field = NumberFieldDescriptor("quadratic", disc=disc)
    s = splitting_data(field, q)
    assert s.e * s.f * s.g == 2
    assert s.e == 2 or s.e == 1


def test_check_ramification_condition_spec_examples():
    assert check_ramification_condition(RATIONALS, 15)["holds"]
    res = check_ramification_condition(cyclotomic_field(3), 3)
    assert not res["holds"]  # e_3 = 2 = p - 1
    assert check_ramification_condition(quadratic_field(5), 3)["holds"]
    # Q(sqrt -3) = Q(mu_3) seen as a quadratic field also fails at 3
    assert not check_ramification_condition(quadratic_field(-3), 3)["holds"]


def test_ramification_condition_over_q_always_holds():
    for n in range(3, 60, 2):
        assert check_ramification_condition(RATIONALS, n)["holds"]


def test_decomposition_dimension_spec_examples():
    ft = TowerDescriptor("false_tate", p=3, m=7)
    assert decomposition_dimension(ft, 7) == 2
    assert decomposition_dimension(ft, 3) == 2
    assert decomposition_dimension(ft, 11) == 1
    cz = TowerDescriptor("cyclotomic_zp", p=3)
    assert decomposition_dimension(cz, 13) == 1
    assert cz.base == RATIONALS
    assert ft.base == cyclotomic_field(3)
