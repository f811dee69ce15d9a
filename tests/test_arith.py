import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from shavis import arith


def brute_kronecker_odd_prime(a, p):
    # enumeration oracle: a is a QR mod the odd prime p iff a = x^2 for some x
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def test_kronecker_spec_examples():
    assert arith.kronecker_symbol(1, 7) == 1
    # oracle: QRs mod 7 are {1, 2, 4}
    assert brute_kronecker_odd_prime(5, 7) == -1
    assert arith.kronecker_symbol(5, 7) == -1
    # 236 = 5 mod 7 reduces to the previous case
    assert arith.kronecker_symbol(236, 7) == brute_kronecker_odd_prime(236, 7) == -1


def test_kronecker_against_enumeration():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-30, 30):
            assert arith.kronecker_symbol(a, p) == brute_kronecker_odd_prime(a, p), (a, p)


def test_kronecker_at_two_and_signs():
    assert arith.kronecker_symbol(4, 2) == 0
    assert arith.kronecker_symbol(7, 2) == 1  # 7 = -1 mod 8
    assert arith.kronecker_symbol(5, 2) == -1
    assert arith.kronecker_symbol(-1, -1) == -1
    with pytest.raises(arith.ArithmeticError_):
        arith.kronecker_symbol(3, 0)


@settings(max_examples=250, deadline=None)
@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)
def test_kronecker_multiplicative_in_n(a, m, n):
    m = 2 * m + 1
    n = 2 * n + 1
    if math.gcd(m, n) != 1:
        return
    lhs = arith.kronecker_symbol(a, m * n)
    rhs = arith.kronecker_symbol(a, m) * arith.kronecker_symbol(a, n)
    assert lhs == rhs


def test_valuation_spec_examples():
    # 724048 = 2^4 * 13 * 59^2, checked by repeated division
    n, e = 724048, 0
    while n % 2 == 0:
        n //= 2
        e += 1
    assert e == 4
    assert arith.valuation(724048, 2) == 4
    assert arith.valuation(1, 13) == 0
    # disc(E1) = -16(4 * 1^3 + 27 * 10^2) = -43264 = -2^8 * 13^2
    assert -16 * (4 + 27 * 100) == -43264
    assert arith.valuation(-43264, 13) == 2
    assert arith.valuation(0, 7) == arith.INFINITY


@settings(max_examples=250, deadline=None)
@given(
    st.integers(min_value=-10**9, max_value=10**9).filter(lambda x: x != 0),
    st.integers(min_value=-10**9, max_value=10**9).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7, 13, 59]),
)
def test_valuation_additive(a, b, q):
    assert arith.valuation(a * b, q) == arith.valuation(a, q) + arith.valuation(b, q)


def test_fundamental_discriminant_spec_examples():
    assert arith.fundamental_discriminant(-3) == -3
    assert arith.fundamental_discriminant(59) == 236  # 59 = 3 mod 4
    assert arith.fundamental_discriminant(3) == 12  # conductor of chi for Q(sqrt 3)
    assert arith.fundamental_discriminant(5) == 5
    assert arith.fundamental_discriminant(12) == 12  # squarefree part 3
    with pytest.raises(arith.ArithmeticError_):
        arith.fundamental_discriminant(0)
    with pytest.raises(arith.ArithmeticError_):
        arith.fundamental_discriminant(49)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-3000, max_value=3000).filter(lambda d: d != 0))
def test_fundamental_discriminant_is_0_or_1_mod_4(d):
    if arith.is_square(d):
        return
    assert arith.fundamental_discriminant(d) % 4 in (0, 1)


def test_primality_deterministic_range():
    known_primes = {2, 3, 5, 7, 11, 101, 7919, 104729, 2**61 - 1, 10**9 + 7}
    for n in known_primes:
        assert arith.is_prime(n), n
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2,3,5,7
    assert 151 * 751 * 28351 == 3215031751
    for n in (1, 0, -7, 561, 41041, 825265, 3215031751):
        assert not arith.is_prime(n), n
    for bound in (0, 1, 2, 3, 4, 9, 10, 11, 1000, 1009):
        assert list(arith.primes(bound)) == [n for n in range(bound + 1) if arith.is_prime(n)]


def test_is_prime_matches_the_sieve_below_10_4():
    # below 43^2 trial division by the witnesses 2..41 decides alone
    sieved = set(arith.primes(10**4))
    assert [n for n in range(10**4) if arith.is_prime(n)] == sorted(sieved)


#: OEIS A014233: the least strong pseudoprime to each of the first k prime
#: bases, k = 1..13.
_A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def test_is_prime_rejects_the_least_strong_pseudoprimes():
    bases = list(itertools.islice(arith.primes(100), 13))
    assert arith._MR_WITNESSES == tuple(bases)
    for k, n in enumerate(_A014233, 1):
        assert all(_strong_probable_prime(n, a) for a in bases[:k]), (k, n)
        assert not arith.is_prime(n), (k, n)
    # the witnesses 2..37 pass it; 41 is the first base that does not
    assert not _strong_probable_prime(_A014233[11], 41)
    assert arith._MR_DETERMINISTIC_BOUND == _A014233[12]
    assert arith.factor(318665857834031151167461) == {399165290221: 1, 798330580441: 1}


@pytest.mark.parametrize("segment", [1, 2, 3, 16])
def test_primes_across_sieve_segments(monkeypatch, segment):
    monkeypatch.setattr(arith, "_SIEVE_SEGMENT", segment)
    for bound in range(300):
        assert list(arith.primes(bound)) == [n for n in range(bound + 1) if arith.is_prime(n)]


def test_primes_reads_only_the_segments_it_yields():
    # a congruence sweep over a Sturm bound of 10^40 that stops at its
    # first mismatch; the whole sieve would need 5 * 10^39 bytes
    assert list(itertools.islice(arith.primes(10**40), 6)) == [2, 3, 5, 7, 11, 13]


def test_factor_and_squarefree():
    assert arith.factor(5068336) == {2: 4, 7: 1, 13: 1, 59: 2}
    assert arith.squarefree_part(59**2 * 13) == 13
    assert arith.squarefree_part(-8) == -2
    assert arith.is_squarefree(195)
    assert not arith.is_squarefree(12)
    with pytest.raises(arith.ArithmeticError_):
        arith.factor(0)


def reference_factor(n):
    """The 2-3-5 wheel up to 10^5 that factor() used before its gcd screen."""
    n = abs(n)
    out = {}
    for p in (2, 3, 5):
        if n % p == 0:
            e, n = arith.padic_split(n, p)
            out[p] = e
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d <= 100000:
        if n % d == 0:
            e, n = arith.padic_split(n, d)
            out[d] = e
        d += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if arith.is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = arith._pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


_ABOVE_WHEEL = [p for p in arith.primes(100000) if p > 1000]
#: Primes next to the wheel bound 1000, next to the edges of the 64-prime
#: runs the gcd screen uses, next to 10^5, and past it (rho's side).
_FACTOR_POOL = sorted(
    {2, 3, 5, 7, 31, 991, 997}
    | {p for k in range(0, len(_ABOVE_WHEEL), 64) for p in _ABOVE_WHEEL[max(k - 1, 0) : k + 2]}
    | {99989, 99991, 100003, 1000003, 10**9 + 7}
)


@settings(max_examples=300, deadline=None)
@example(99991**2, 1)
@example(99989 * 99991, -1)
@example(100003, 1)
@example(997 * 1009, 1)
@example(_ABOVE_WHEEL[63] * _ABOVE_WHEEL[64], 1)  # the last of a run and the first of the next
@example(2 * _ABOVE_WHEEL[64] ** 3 * 100003, 1)
@given(
    st.one_of(
        st.lists(st.sampled_from(_FACTOR_POOL), min_size=1, max_size=5).map(math.prod),
        st.integers(1, 10**18),
    ).filter(lambda n: n <= 10**18),
    st.sampled_from((1, -1)),
)
def test_factor_matches_the_wheel_reference(n, sign):
    assert list(arith.factor(sign * n).items()) == list(reference_factor(n).items())


_RHO_SIDE = [p for p in _FACTOR_POOL if p > arith._TRIAL_BOUND]
#: Products of _FACTOR_POOL primes that leave rho a cofactor above 10^10: at
#: least two of them past the trial bound.
_RHO_COFACTORS = st.builds(
    lambda big, small: big + small,
    st.lists(st.sampled_from(_RHO_SIDE), min_size=2, max_size=3),
    st.lists(st.sampled_from(_FACTOR_POOL), max_size=4),
)


@settings(max_examples=60, deadline=None)
@example([100003, 1000003])
@example([7, 100003, 100003, 10**9 + 7])
@given(_RHO_COFACTORS)
def test_factor_memo_matches_the_uncached_split(ps):
    n = math.prod(ps)
    arith._split_cofactor.cache_clear()
    first = arith.factor(n)
    assert arith._split_cofactor.cache_info()[:2] == (0, 1)  # (hits, misses)
    second = arith.factor(n)
    assert arith._split_cofactor.cache_info()[:2] == (1, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_split_cofactor", arith._split_cofactor.__wrapped__)
        uncached = arith.factor(n)
    assert list(first.items()) == list(second.items()) == list(uncached.items())
    assert list(first.items()) == list(reference_factor(n).items())
    assert sorted(arith._split_cofactor(math.prod(p for p in ps if p in _RHO_SIDE))) == sorted(
        p for p in ps if p in _RHO_SIDE)


def test_factor_memo_is_bounded_and_cleared_with_the_other_memos():
    from shavis.visibility import clear_memos

    arith._split_cofactor.cache_clear()
    arith.factor(2 * 3 * 5)  # no cofactor after the wheel: the memo is not read
    assert arith._split_cofactor.cache_info().currsize == 0
    big = [q for q in range(10**9, 10**9 + 2000) if arith.is_prime(q)]
    for q in big[: arith._COFACTOR_MEMO_SIZE + 8]:
        arith.factor(100003 * q)
    assert arith._split_cofactor.cache_info().maxsize == arith._COFACTOR_MEMO_SIZE
    assert arith._split_cofactor.cache_info().currsize == arith._COFACTOR_MEMO_SIZE
    clear_memos()
    assert arith._split_cofactor.cache_info().currsize == 0


def test_mu_index():
    # mu(364) = 364 * (3/2)(8/7)(14/13) = 672
    assert arith.mu_index(364) == 672
    assert arith.mu_index(11) == 12
    assert arith.mu_index(1) == 1


def test_import_and_dataset_load_stay_light(run_python):
    # OpenSSL (via hashlib) costs every process RSS, and the dataset's
    # factorizations never need the gcd screen's run table.
    out = run_python(
        "import sys, shavis\n"
        "shavis.load_dataset()\n"
        "print('_hashlib' in sys.modules, shavis.arith._screening_runs.cache_info().currsize)"
    )
    assert out == "False 0"
