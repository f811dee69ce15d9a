"""Fourier coefficients a_q via point counting over prime fields.

Below the naive threshold we count with a quadratic-residue table in O(q);
above it a baby-step giant-step order search in the Hasse interval takes
over (Mestre style, with deterministic point selection so runs repeat).
ModCurve is the one mod-q group law: the order search runs on it, and so do
the torsion filters of the rational point search in dataio.
Bad primes use the standard rules: +-1 for multiplicative reduction, 0 for
additive; multiplicative splitness can also be read off a direct nonsingular
point count, which the tests use as an independent oracle against Tate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith, curves, localdata
from .arith import ArithmeticError_, SoundnessError
from .curves import WeierstrassModel

NAIVE_LIMIT = 10_000
HARD_LIMIT = 10_000_000
TORSION_MAX_ORDER = 12  # Mazur bound over Q


class BadReductionError(ValueError):
    """Point count requested at a prime of bad reduction."""


@dataclass(frozen=True)
class ApRecord:
    q: int
    a_q: int
    method: str  # naive-count | bsgs | bad-prime-rule

    def __post_init__(self):
        if self.method != "bad-prime-rule" and self.a_q * self.a_q > 4 * self.q:
            raise SoundnessError(f"Hasse bound violated at {self.q}")


def _good_at(minimal: WeierstrassModel, q: int) -> bool:
    return int(curves.invariants(minimal).disc) % q != 0


def has_good_reduction(model: WeierstrassModel, q: int) -> bool:
    return _good_at(curves.minimal_model(model)[0], q)


def count_points(model: WeierstrassModel, q: int) -> int:
    """#E(F_q) including the point at infinity; requires good reduction."""
    if not arith.is_prime(q):
        raise ArithmeticError_(f"{q} is not prime")
    if q > HARD_LIMIT:
        raise ArithmeticError_(f"point counting capped at q <= {HARD_LIMIT}")
    minimal, _ = curves.minimal_model(model)
    if not _good_at(minimal, q):
        raise BadReductionError(f"bad reduction at {q}; use the bad-prime rule")
    return _count(minimal, q)


def _count(minimal: WeierstrassModel, q: int) -> int:
    """#E(F_q) of a minimal model with good reduction at the prime q <= HARD_LIMIT."""
    if q <= NAIVE_LIMIT:
        return _count_naive(minimal, q)
    return _count_bsgs(minimal, q)


def _count_naive(model: WeierstrassModel, q: int) -> int:
    a = tuple(x % q for x in model.int_ainvs())
    if q == 2:
        a1, a2, a3, a4, a6 = a
        count = 1
        for x in (0, 1):
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    count += 1
        return count
    return _count_residues(a, q)


def _count_residues(a: tuple, q: int) -> int:
    """#E(F_q) from a-invariants reduced at an odd prime q, in O(q)."""
    # complete the square: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    b2, b4, b6 = (b % q for b in curves.bc_invariants(a)[:3])
    qr = bytearray(q)
    for z in range(1, (q + 1) // 2):
        qr[z * z % q] = 1
    count = q + 1
    for x in range(q):
        rhs = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % q
        if rhs == 0:
            continue  # one point, already budgeted in the q of q+1
        count += 1 if qr[rhs] else -1
    return count


def _short_mod(model: WeierstrassModel, q: int) -> tuple[int, int]:
    """Coefficients (A, B) of an F_q-isomorphic y^2 = x^3 + Ax + B, q >= 5."""
    short = curves.short_model(model)
    return int(short.a4) % q, int(short.a6) % q


class ModCurve:
    """A Weierstrass model reduced at an odd prime q, with its group law.

    Points of E(F_q) are affine pairs (x, y) of residues; None is the origin.
    Built from a-invariants (reduced mod q here), so a short model is just
    (0, 0, 0, A, B). The torsion helpers use that E(Q)_tors injects into
    E(F_q) at odd primes of good reduction: a rational point whose reduction
    has order > 12 (Mazur's bound) is certainly of infinite order.
    """

    def __init__(self, ainvs, q: int):
        self.q = q
        self.a = tuple(int(x) % q for x in ainvs)
        self._small_set = None

    def reduce(self, pt):
        """Reduction of a rational point (Fractions) at q."""
        if pt is None:
            return None
        q = self.q
        x, y = pt
        if x.denominator % q == 0 or y.denominator % q == 0:
            return None  # lands in the kernel of reduction
        return (
            x.numerator * pow(x.denominator, -1, q) % q,
            y.numerator * pow(y.denominator, -1, q) % q,
        )

    def neg(self, pt):
        if pt is None:
            return None
        a1, _, a3, _, _ = self.a
        return (pt[0], (-pt[1] - a1 * pt[0] - a3) % self.q)

    def add(self, p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        a1, a2, a3, a4, a6 = self.a
        q = self.q
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

    def mul(self, k, pt):
        if k < 0:
            k, pt = -k, self.neg(pt)
        acc, base = None, pt
        while k and base is not None:
            if k & 1:
                acc = self.add(acc, base)
            k >>= 1
            if k:
                base = self.add(base, base)
        return acc

    def small_order(self, pt) -> bool:
        """Does the point have order <= TORSION_MAX_ORDER?"""
        acc = pt
        for _ in range(1, TORSION_MAX_ORDER + 1):
            if acc is None:
                return True
            acc = self.add(acc, pt)
        return False

    def small_order_set(self) -> set:
        """All points of E(F_q) of order <= TORSION_MAX_ORDER (incl. identity).

        The order of a point divides N = #E(F_q), so only the n <= 12 that
        divide N can occur; a point is kept when [n]P = O for one of the
        maximal such n (maximal under divisibility). Needs good reduction.
        """
        if self._small_set is not None:
            return self._small_set
        order = _count_residues(self.a, self.q)
        divisors = [n for n in range(2, TORSION_MAX_ORDER + 1) if order % n == 0]
        maximal = [n for n in divisors if not any(m != n and m % n == 0 for m in divisors)]
        small = {None}
        if maximal:
            a1, _, a3, _, _ = self.a
            b2, b4, b6 = curves.bc_invariants(self.a)[:3]
            q = self.q
            sqrt_table = {}
            for z in range((q + 1) // 2):
                sqrt_table.setdefault(z * z % q, z)
            inv2 = pow(2, -1, q)
            for x in range(q):
                rhs = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % q
                s = sqrt_table.get(rhs)
                if s is None:
                    continue
                pt = (x, (s - a1 * x - a3) * inv2 % q)
                if any(self.mul(n, pt) is None for n in maximal):
                    small.add(pt)
                    small.add(self.neg(pt))  # -P has the order of P
        self._small_set = small
        return small


def _point_order_multiple(P, E: ModCurve) -> int:
    """A positive multiple of ord(P): finds n near q + 1 with nP = O.

    BSGS for z with (q+1)P = zP and |z| <= 2*sqrt(q); then n = q + 1 - z.
    Hasse guarantees z exists (take z = a_q).
    """
    q = E.q
    width = 2 * math.isqrt(q) + 1
    m = math.isqrt(width) + 1
    Q = E.mul(q + 1, P)
    baby = {}
    R = E.mul(-m, P)
    for i in range(-m, m + 1):
        baby.setdefault(R, i)
        R = E.add(R, P)
    neg_step = E.neg(E.mul(2 * m + 1, P))
    R = E.add(Q, E.mul(m * (2 * m + 1), P))  # j = -m
    for j in range(-m, m + 1):
        if R in baby:
            z = baby[R] + j * (2 * m + 1)
            n = q + 1 - z
            if n > 0 and E.mul(n, P) is None:
                return n
        R = E.add(R, neg_step)
    raise ArithmeticError_(f"BSGS failed at {q}")  # unreachable if Hasse holds


def _count_bsgs(model: WeierstrassModel, q: int) -> int:
    A, B = _short_mod(model, q)
    E = ModCurve((0, 0, 0, A, B), q)
    # |a_q| <= floor(2 sqrt(q)) = isqrt(4q), which 2 * isqrt(q) can undershoot by one
    lo = q + 1 - math.isqrt(4 * q)
    hi = q + 1 + math.isqrt(4 * q)
    order_lcm = 1
    for x in range(q):  # deterministic point sweep
        rhs = (x**3 + A * x + B) % q
        if rhs == 0:
            y = 0
        elif pow(rhs, (q - 1) // 2, q) == 1:
            y = pow(rhs, (q + 1) // 4, q) if q % 4 == 3 else _sqrt_mod(rhs, q)
        else:
            continue
        P = (x, y)
        n = _point_order_multiple(P, E)
        order_lcm = arith.lcm(order_lcm, _exact_order(P, n, E))
        multiples = [k for k in range(lo + (-lo % order_lcm), hi + 1, order_lcm) if k >= lo]
        if len(multiples) == 1:
            return multiples[0]
    raise ArithmeticError_(f"group order ambiguous at {q}")


def _exact_order(P, n, E: ModCurve) -> int:
    """ord(P) given a multiple n of it."""
    order = n
    for p in arith.prime_divisors(n):
        while order % p == 0 and E.mul(order // p, P) is None:
            order //= p
    return order


def _sqrt_mod(a: int, q: int) -> int:
    """Tonelli-Shanks for q = 1 mod 4."""
    s, d = 0, q - 1
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    m, c, t, r = s, pow(z, d, q), pow(a, d, q), pow(a, (d + 1) // 2, q)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        m, c = i, b * b % q
        t, r = t * c % q, r * b % q
    return r


def count_nonsingular_points(model: WeierstrassModel, q: int) -> int:
    """#E_ns(F_q) of the reduced minimal model (independent splitness oracle).

    Split multiplicative gives q - 1, nonsplit q + 1, additive q.
    """
    minimal, _ = curves.minimal_model(model)
    a1, a2, a3, a4, a6 = (a % q for a in minimal.int_ainvs())
    count = 1
    for x in range(q):
        for y in range(q):
            fx = (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % q
            if fx != 0:
                continue
            # partial derivatives
            dfx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % q
            dfy = (2 * y + a1 * x + a3) % q
            if dfx or dfy:
                count += 1
    return count


def a_q(model: WeierstrassModel, q: int) -> ApRecord:
    """The Fourier coefficient a_q, with the counting method recorded."""
    if not arith.is_prime(q):
        raise ArithmeticError_(f"{q} is not prime")
    minimal, _ = curves.minimal_model(model)
    if _good_at(minimal, q):
        if q > HARD_LIMIT:
            raise ArithmeticError_(f"point counting capped at q <= {HARD_LIMIT}")
        n = _count(minimal, q)
        return ApRecord(q, q + 1 - n, "naive-count" if q <= NAIVE_LIMIT else "bsgs")
    local = localdata.tate_algorithm(minimal, q)
    if local.reduction_class == localdata.SPLIT_MULT:
        return ApRecord(q, 1, "bad-prime-rule")
    if local.reduction_class == localdata.NONSPLIT_MULT:
        return ApRecord(q, -1, "bad-prime-rule")
    return ApRecord(q, 0, "bad-prime-rule")
