"""Exact integer and rational arithmetic primitives.

Everything downstream (invariants, local data, congruence bounds) works with
plain Python ints and fractions.Fraction, which are arbitrary precision; this
module adds the number-theoretic helpers: Kronecker symbols, valuations,
deterministic primality, bounded factorization and fundamental discriminants.
No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys

#: Distinguished valuation of 0 (larger than any finite valuation).
INFINITY = math.inf

# Deterministic Miller-Rabin witness set: the primes up to 41 leave no strong
# pseudoprime below 3317044064679887385961981 (OEIS A014233, the least one
# to the first 13 prime bases); the primes up to 37 alone pass the composite
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Fixed extra witnesses (first 64 primes) for inputs above the deterministic
# bound; keeps results reproducible run to run.
_EXTRA_WITNESSES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
)


class ArithmeticError_(ValueError):
    """Invalid input, to an arithmetic primitive (e.g. Kronecker with n = 0)
    or to any reader: the base of every input-error class, which exits 2."""


class SoundnessError(AssertionError):
    """A computed result broke a mathematical invariant: a bug, not bad input
    (raised explicitly, so it holds under `python -O`; the CLI exits 5)."""


def decode(data: bytes | str, what: str, error: type[ArithmeticError_] = ArithmeticError_,
           as_json: bool = True):
    """Outside text as UTF-8, then (as_json) as JSON. Invalid UTF-8 or JSON,
    nesting past the recursion limit and an integer literal past int's
    4300-digit limit all raise `error`, with `what` in front."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text) if as_json else text
    except UnicodeDecodeError as exc:
        raise error(f"{what}: not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: not valid JSON: {exc}") from exc


def digit_limit() -> int:
    """Python's limit on the decimal digits of int text (`str(int)`,
    `int(str)`), 4300 unless the interpreter sets another. With no limit (0,
    or a Python without one) it reads as 4300, so input stays bounded."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@functools.lru_cache(maxsize=1)
def _ten_to(n: int) -> int:
    return 10**n


def check_digits(n: int, what: str) -> None:
    """Refuse n when its decimal text passes digit_limit(): there `str(n)`
    raises a bare ValueError, and this an ArithmeticError_ about `what`."""
    limit = digit_limit()
    if abs(n) >= _ten_to(limit):
        raise ArithmeticError_(f"{what} has more than {limit} decimal digits")


def valuation(n: int, q: int) -> int | float:
    """Largest e with q**e dividing n; INFINITY for n = 0."""
    if q < 2:
        raise ArithmeticError_(f"valuation base must be >= 2, got {q}")
    if n == 0:
        return INFINITY
    n = abs(n)
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def padic_split(n: int, q: int) -> tuple[int, int]:
    """Write n = q**e * m with q not dividing m; returns (e, m). n != 0."""
    if n == 0:
        raise ArithmeticError_("padic_split of 0")
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e, n


def is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.317e24 (witnesses 2..41), 64 fixed
    witnesses above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # a composite below 43^2 has a prime factor <= 41
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _MR_WITNESSES if n < _MR_DETERMINISTIC_BOUND else _EXTRA_WITNESSES
    for a in witnesses:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent's variant; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    # Deterministic parameter sweep keeps runs reproducible.
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError_(f"pollard rho failed to split {n}")


#: The wheel divides by every d <= _WHEEL_BOUND coprime to 30.
_WHEEL_BOUND = 1000
#: Primes up to here are tried before Pollard rho.
_TRIAL_BOUND = 100_000
#: Consecutive primes whose product one gcd screens.
_RUN_LENGTH = 64
#: Cofactors whose split `_split_cofactor` keeps.
_COFACTOR_MEMO_SIZE = 64


@functools.cache
def _screening_runs() -> tuple[tuple[int, int], ...]:
    """(first prime, product of the run) for runs of _RUN_LENGTH consecutive
    primes in (_WHEEL_BOUND, _TRIAL_BOUND]; about 20 KB, built on first use."""
    ps = [p for p in primes(_TRIAL_BOUND) if p > _WHEEL_BOUND]
    return tuple(
        (ps[i], math.prod(ps[i : i + _RUN_LENGTH])) for i in range(0, len(ps), _RUN_LENGTH)
    )


def _screen(n: int, out: dict[int, int]) -> int:
    """Divide out of n, in increasing order, the primes in (_WHEEL_BOUND,
    _TRIAL_BOUND] up to isqrt(n); returns the cofactor.

    A run whose product is coprime to n is skipped with one gcd; only a run
    that shares a factor with n is walked by odd d.
    """
    for start, product in _screening_runs():
        if start * start > n:
            break
        g = math.gcd(n, product)
        d = start
        while g > 1:
            if d * d > n:
                return n
            if g % d == 0:
                g //= d
                e, n = padic_split(n, d)
                out[d] = e
            d += 2
    return n


@functools.lru_cache(maxsize=_COFACTOR_MEMO_SIZE)
def _split_cofactor(m: int) -> tuple[int, ...]:
    """The primes of m > 1, with multiplicity, in the order a stack of
    Pollard rho splits finds them. Kept for the last _COFACTOR_MEMO_SIZE
    cofactors: the layers that re-derive a conductor factor the same
    discriminant again, and rho is the costly part of it."""
    found = []
    stack = [m]
    while stack:
        m = stack.pop()
        if is_prime(m):
            found.append(m)
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return tuple(found)


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}. n != 0.

    Trial division by every prime up to 10^5, stopping once d*d exceeds the
    cofactor: a 2-3-5 wheel for d <= 1000, then a gcd screen against the
    products of runs of 64 primes (the run table is built on first use, so
    inputs without a cofactor above 1000^2 never pay for it). Pollard rho
    splits what is left, through `_split_cofactor`, which keeps the split of
    the last 64 cofactors, so a repeated input runs rho once per process
    (`visibility.clear_memos` forgets them). Primes come out in increasing
    order, then the factors of the cofactor in the order rho finds them.
    Intended for conductor/discriminant sized inputs, not cryptographic ones.
    """
    if n == 0:
        raise ArithmeticError_("factor(0)")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        if n % p == 0:
            e, n = padic_split(n, p)
            out[p] = e
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d <= _WHEEL_BOUND:
        if n % d == 0:
            e, n = padic_split(n, d)
            out[d] = e
        d += wheel[i]
        i = (i + 1) % 8
    if d * d <= n:
        n = _screen(n, out)
    if n > 1:
        for q in _split_cofactor(n):
            out[q] = out.get(q, 0) + 1
    return out


def squarefree_part(n: int) -> int:
    """Squarefree kernel of n, keeping the sign of n. n != 0."""
    if n == 0:
        raise ArithmeticError_("squarefree_part(0)")
    sign = -1 if n < 0 else 1
    s = 1
    for p, e in factor(n).items():
        if e % 2 == 1:
            s *= p
    return sign * s


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for e in factor(n).values())


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def fundamental_discriminant(d: int) -> int:
    """Discriminant of Q(sqrt(d)): squarefree part s, then s if s = 1 mod 4 else 4s.

    Rejects d = 0 and perfect squares (the trivial character has no field).
    """
    if d == 0:
        raise ArithmeticError_("fundamental_discriminant(0)")
    if is_square(d):
        raise ArithmeticError_(f"{d} is a perfect square; quadratic character is trivial")
    s = squarefree_part(d)
    return s if s % 4 == 1 else 4 * s


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) with the standard conventions; n != 0."""
    if n == 0:
        raise ArithmeticError_("kronecker symbol undefined for n = 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor out 2 from n: (a|2) = 0 for even a, else by a mod 8
    e, n = padic_split(n, 2) if n % 2 == 0 else (0, n)
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # now n odd positive; Jacobi via reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


#: Odd numbers per segment of the `primes` sieve (one byte each).
_SIEVE_SEGMENT = 1 << 20


def primes(bound: int):
    """Iterate primes <= bound: a sieve of Eratosthenes over the odd numbers,
    one segment at a time, so that a caller that stops early (a congruence
    sweep at its first mismatch) holds and pays for one segment at most,
    however large the bound."""
    if bound < 2:
        return
    yield 2
    sieving = primes(math.isqrt(bound))
    next(sieving, None)  # 2: the segments hold odd numbers only
    base = [next(sieving, bound + 1)]  # bound + 1 when they run out: past every segment
    for lo in range(1, bound + 1, 2 * _SIEVE_SEGMENT):
        hi = min(lo + 2 * _SIEVE_SEGMENT, bound + 1)
        while base[-1] ** 2 < hi:  # the odd primes up to sqrt(hi), and one more
            base.append(next(sieving, bound + 1))
        odd = bytearray([1]) * ((hi - lo + 1) // 2)  # odd[i] stands for lo + 2i
        if lo == 1:
            odd[0] = 0
        for p in base:
            first = max(p * p, -(-lo // p) * p)
            i = (first + p * (first % 2 == 0) - lo) // 2  # the first odd multiple
            odd[i::p] = bytes(len(range(i, len(odd), p)))
        yield from itertools.compress(range(lo, hi, 2), odd)


def prime_divisors(n: int) -> list[int]:
    return sorted(factor(n))


def mu_index(n: int) -> int:
    """Index-like multiplicative function n * prod_{q | n} (1 + 1/q)."""
    if n < 1:
        raise ArithmeticError_(f"mu_index needs n >= 1, got {n}")
    out = n
    for q in prime_divisors(n) if n > 1 else []:
        out = out // q * (q + 1)
    return out


def lcm(a: int, b: int) -> int:
    return abs(a * b) // math.gcd(a, b) if a and b else 0


def exact_div(a: int, b: int) -> int:
    """a // b, asserting exact divisibility."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError_(f"{a} not divisible by {b}")
    return q
