import json
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from shavis import arith, fields
from shavis.fields import SplittingData
from shavis.curves import WeierstrassModel, minimal_model, quadratic_twist
from shavis.localdata import (
    _cubic_root_count,
    LocalReductionData,
    UnsupportedBaseChangeError,
    component_count,
    conductor,
    conductor_of_minimal,
    is_p_unit_tamagawa,
    tamagawa_over_extension,
    tate_algorithm,
)


def test_tate_spec_examples(e1_52, e2_364):
    # E2 at 7: multiplicative with Tamagawa number 5
    l7 = tate_algorithm(e2_364, 7)
    assert l7.kodaira == "I5" and l7.c == 5 and l7.reduction_class == "split-mult"
    # E1 at 5: good
    l5 = tate_algorithm(e1_52, 5)
    assert l5.kodaira == "I0" and l5.f == 0 and l5.c == 1
    # conductor-17 curve: multiplicative at 17
    b = WeierstrassModel.from_list([1, -1, 1, -91, -310])
    assert tate_algorithm(b, 17).f == 1
    assert conductor(b)[0] == 17
    with pytest.raises(arith.ArithmeticError_):
        tate_algorithm(e1_52, 6)


def test_conductor_spec_examples(e1_52, e2_364):
    assert conductor(e1_52)[0] == 52
    assert conductor(e2_364)[0] == 364
    tw = minimal_model(quadratic_twist(e1_52, 59))[0]
    n, _ = conductor(tw)
    assert n == 724048
    # the printed factorization 2^2 x 13 x 59^2 in the source text equals
    # 181012, which is the conductor of the twist by -59, not by +59
    assert arith.factor(n) == {2: 4, 13: 1, 59: 2}
    tw_minus = minimal_model(quadratic_twist(e1_52, -59))[0]
    assert conductor(tw_minus)[0] == 181012 == 2**2 * 13 * 59**2


def test_conductor_handles_nonminimal_input(e1_52):
    from shavis.curves import Isomorphism, transform
    from fractions import Fraction

    blown = transform(e1_52, Isomorphism(Fraction(1, 6)))
    assert conductor(blown)[0] == 52


def test_conductor_of_minimal_matches_conductor():
    # the shortcut a caller with a minimal model takes, against the public path
    from shavis.curves import Isomorphism, transform
    from fractions import Fraction

    blob = json.loads(
        resources.files("shavis").joinpath("data/golden_local_data.json").read_text()
    )
    for row in blob["curves"]:
        m = WeierstrassModel.from_list(row["ainvs"])
        shown = transform(m, Isomorphism(Fraction(1, 3), Fraction(1, 2), 2, -1))
        assert conductor_of_minimal(minimal_model(shown)[0]) == conductor(shown), row["label"]


def test_golden_corpus_matches_fixture():
    blob = json.loads(
        resources.files("shavis").joinpath("data/golden_local_data.json").read_text()
    )
    assert len(blob["curves"]) >= 20
    for row in blob["curves"]:
        m = WeierstrassModel.from_list(row["ainvs"])
        n, locs = conductor(m)
        assert n == row["conductor"], row["label"]
        got = [l.to_json() for l in locs]
        assert got == row["locals"], row["label"]


def test_ogg_formula_on_corpus():
    blob = json.loads(
        resources.files("shavis").joinpath("data/golden_local_data.json").read_text()
    )
    for row in blob["curves"]:
        for l in row["locals"]:
            data = LocalReductionData.from_json(l)
            assert data.f == data.v_delta + 1 - component_count(data.kodaira), row["label"]


def test_structural_invariants_rejected():
    # split multiplicative must have c = v(disc)
    with pytest.raises(AssertionError):
        LocalReductionData(7, "I5", 1, 3, 5, "split-mult")
    with pytest.raises(AssertionError):
        LocalReductionData(2, "II", 2, 5, 4, "additive")


PRIMES_ABOVE_64 = [q for q in range(65, 700) if arith.is_prime(q)]
COEFF = st.integers(-10**6, 10**6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES_ABOVE_64), COEFF, COEFF, COEFF)
def test_cubic_root_count_above_64_matches_brute_force(p, b, c, d):
    # Tate's algorithm counts the roots of a separable cubic at I0*; above 64
    # it reads the discriminant's square class and X^p mod the cubic
    disc = b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d
    assume(disc % p != 0)
    brute = sum(1 for t in range(p) if (t**3 + b * t * t + c * t + d) % p == 0)
    assert _cubic_root_count(b, c, d, p) == brute


def test_cubic_root_count_above_64_hits_every_count():
    # at 67: T^3 - T splits, T^3 - T - 1 has non-square discriminant (one
    # root), and T^3 - 2 is irreducible (square discriminant, 2 not a cube)
    assert _cubic_root_count(0, -1, 0, 67) == 3
    assert _cubic_root_count(0, -1, -1, 67) == 1
    assert _cubic_root_count(0, 0, -2, 67) == 0
    with pytest.raises(arith.ArithmeticError_):
        _cubic_root_count(0, 0, 0, 67)  # T^3 is not separable


def test_tamagawa_base_change_rules():
    good = LocalReductionData(5, "I0", 0, 1, 0, "good")
    assert tamagawa_over_extension(good, SplittingData(3, 2, 1)) == 1
    split5 = LocalReductionData(7, "I5", 1, 5, 5, "split-mult")
    assert tamagawa_over_extension(split5, SplittingData(1, 2, 1)) == 5
    assert tamagawa_over_extension(split5, SplittingData(3, 1, 1)) == 15
    non3 = LocalReductionData(11, "I3", 1, 1, 3, "nonsplit-mult")
    # unramified quadratic residue extension splits the torus
    assert tamagawa_over_extension(non3, SplittingData(1, 2, 1)) == 3
    assert tamagawa_over_extension(non3, SplittingData(1, 3, 1)) == 1
    non2 = LocalReductionData(11, "I2", 1, 2, 2, "nonsplit-mult")
    assert tamagawa_over_extension(non2, SplittingData(1, 3, 1)) == 2
    # additive, unramified
    iv = LocalReductionData(3, "IV", 2, 1, 4, "additive")
    assert tamagawa_over_extension(iv, SplittingData(1, 2, 1)) == 3
    assert tamagawa_over_extension(iv, SplittingData(1, 3, 1)) == 1
    i0star_c1 = LocalReductionData(5, "I0*", 2, 1, 6, "additive")
    assert tamagawa_over_extension(i0star_c1, SplittingData(1, 3, 1)) == 4
    assert tamagawa_over_extension(i0star_c1, SplittingData(1, 2, 1)) == 1
    i0star_c2 = LocalReductionData(5, "I0*", 2, 2, 6, "additive")
    assert tamagawa_over_extension(i0star_c2, SplittingData(1, 2, 1)) == 4
    instar = LocalReductionData(2, "I4*", 4, 2, 12, "additive")
    assert tamagawa_over_extension(instar, SplittingData(1, 2, 1)) == 4
    # ramified additive base change is refused
    with pytest.raises(UnsupportedBaseChangeError):
        tamagawa_over_extension(iv, SplittingData(2, 1, 1))


def test_trivial_extension_matches_tate(e2_364):
    for q in (2, 7, 13):
        local = tate_algorithm(e2_364, q)
        assert tamagawa_over_extension(local, SplittingData(1, 1, 1)) == local.c


def test_is_p_unit_tamagawa_reads_the_splitting_data(e2_364):
    locs = conductor(e2_364)[1]
    for field in (fields.quadratic_field(59), fields.cyclotomic_field(7), fields.RATIONALS):
        detail = is_p_unit_tamagawa(locs, 5, field).detail
        for local in locs:
            split = fields.splitting_data(field, local.q)
            entry = detail[local.q]
            assert (entry["e"], entry["f"]) == (split.e, split.f)
            if "c_over_field" in entry:
                assert entry["c_over_field"] == tamagawa_over_extension(local, split)


def test_is_p_unit_tamagawa_spec_examples(e1_52, e2_364):
    v1 = is_p_unit_tamagawa(conductor(e1_52)[1], 5, fields.RATIONALS)
    assert v1.all_coprime
    v2 = is_p_unit_tamagawa(conductor(e2_364)[1], 5, fields.RATIONALS)
    assert not v2.all_coprime and v2.offending == [7]
    # 176 curve over Q(mu_3) at p = 3: all units
    e176 = WeierstrassModel.from_list([0, 1, 0, -5, -13])
    v3 = is_p_unit_tamagawa(conductor(e176)[1], 3, fields.cyclotomic_field(3))
    assert v3.all_coprime, v3.to_json()
    # and at the twisted pair of the quadratic example
    for m in (quadratic_twist(e1_52, 59), quadratic_twist(e2_364, 59)):
        assert is_p_unit_tamagawa(conductor(m)[1], 5, fields.RATIONALS).all_coprime
