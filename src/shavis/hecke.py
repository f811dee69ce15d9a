"""Fourier coefficients a_q via point counting over prime fields.

`a_q` takes any model: it minimalizes it once and computes the minimal
model's integer c-invariants and discriminant, with no Fraction. A curve
already prepared as CurveFacts goes through `good_a_q` at its good primes,
which reads them off the facts. The discriminant decides good reduction.
At q >= 5, c4 and c6 give the short model y^2 = x^3 + Ax + B with
A = -27 c4, B = -54 c6 mod q. Below the naive threshold one O(q) kernel
counts it: a table of square-root counts summed over the values
(x*x + A)*x + B, and a sweep builds that table once per prime for both of
its curves. q = 2 and 3 list the affine pairs. Above the threshold,
NAIVE_LIMIT = 400, a baby-step giant-step search (Mestre style, with
deterministic point selection so runs repeat) finds, for each point, every
N in the Hasse interval that kills it. Its baby steps are keyed by x,
so one step stands for +-j, and a point of small order ends the search
among them; the giant walk starts from a multiple of the giant step plus
one baby step. The count is the one N left in all these sets; after a few
points of the curve, the points of its quadratic twist (#E + #E' = 2q + 2)
and of the curve take turns.
The threshold is where BSGS overtakes the table in a sweep, which counts
both curves of a pair with one table per prime: over the bundled pairs the
two cost the same at q = 350-400, BSGS is ahead on average from 400 on,
and it is faster at every prime above 500. It must stay >= 230, since only
for q > 229 do the point orders of E and E' leave one candidate (Mestre;
Cremona and Sutherland, JTNB 22, 2010).
ModCurve is the one mod-q group law, with one chord-tangent step per model
shape: on a short model it takes _short_add, the step that the order search
calls directly, and the general formula serves the torsion filters of the
rational point search in dataio.
Bad primes use the standard rules: +-1 for multiplicative reduction, 0 for
additive; multiplicative splitness can also be read off a direct nonsingular
point count, which the tests use as an independent oracle against Tate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import arith, curves, localdata
from .arith import ArithmeticError_, SoundnessError
from .curves import WeierstrassModel

NAIVE_LIMIT = 400  # the table counts q <= NAIVE_LIMIT, BSGS the primes above
HARD_LIMIT = 10_000_000
TORSION_MAX_ORDER = 12  # Mazur bound over Q
TWIST_AFTER = 4  # points of E that BSGS tries before it counts the twist too


@dataclass(frozen=True)
class ApRecord:
    q: int
    a_q: int
    method: str  # naive-count | bsgs | bad-prime-rule

    def __post_init__(self):
        if self.method != "bad-prime-rule" and self.a_q * self.a_q > 4 * self.q:
            raise SoundnessError(f"Hasse bound violated at {self.q}")


def _count_small(a: tuple, q: int) -> int:
    """#E(F_q) by listing the affine pairs, for q = 2 or 3, where the short
    model needs a division by 6; integral a-invariants, good reduction at q."""
    a1, a2, a3, a4, a6 = a
    return 1 + sum(
        1 for x in range(q) for y in range(q)
        if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % q == 0
    )


def _square_counts(q: int) -> bytearray:
    """t[v] = the number of square roots of v mod q, q odd: 2, 1 for v = 0, or
    0. The table runs over two periods, 0 <= v < 2q, so t takes the sum of two
    residues as it is, and a difference through Python's negative indices."""
    t = bytearray(q)
    for z in range(1, (q + 1) // 2):
        t[z * z % q] = 2
    t[0] = 1
    return t * 2


def _count_residues(A: int, B: int, q: int, t: bytearray) -> int:
    """#E(F_q) of y^2 = x^3 + Ax + B at a prime q >= 5 of good reduction, in
    O(q), with t = _square_counts(q): 1 + the sum of t[x^3 + Ax + B] over F_q.

    g(x) = (x*x + A)*x is odd, so x and -x give B + g and B - g: the residues
    g for 0 < x < q/2 cover every x.
    """
    gs = [(x * x + A) * x % q for x in range(1, (q + 1) // 2)]
    # w[g] = t[B + g] + t[B - g] for 0 <= g < q, one big-integer add of two
    # slices; t[B + q - g] stands for t[B - g], and no byte sum carries (<= 4)
    w = (int.from_bytes(t[B:B + q], "little")
         + int.from_bytes(t[B + q:B:-1], "little")).to_bytes(q, "little")
    return 1 + t[B] + sum(map(w.__getitem__, gs))


def _short_add(p1, p2, A: int, q: int):
    """p1 + p2 on a short model y^2 = x^3 + Ax + B over F_q, q odd: the chord
    and tangent step, with None for the origin (B fixes the points, not the
    law)."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, q) % q
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def _short_mul(k: int, pt, A: int, q: int):
    """k pt for k >= 0 on a short model over F_q, by doubling and adding with
    _short_add."""
    acc = None
    while k and pt is not None:
        if k & 1:
            acc = _short_add(acc, pt, A, q)
        k >>= 1
        if k:
            pt = _short_add(pt, pt, A, q)
    return acc


class ModCurve:
    """A Weierstrass model reduced at an odd prime q, with its group law.

    Points of E(F_q) are affine pairs (x, y) of residues; None is the origin.
    Built from a-invariants (reduced mod q here), so a short model is just
    (0, 0, 0, A, B), and its sums go to _short_add. The torsion helpers use
    that E(Q)_tors injects into E(F_q) at odd primes of good reduction: a
    rational point whose reduction has order > 12 (Mazur's bound) is
    certainly of infinite order.
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
        a1, a2, a3, a4, a6 = self.a
        q = self.q
        if not (a1 or a2 or a3):
            return _short_add(p1, p2, a4, q)
        if p1 is None:
            return p2
        if p2 is None:
            return p1
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
        maximal such n (maximal under divisibility). Needs good reduction
        and q >= 5.
        """
        if self._small_set is not None:
            return self._small_set
        q = self.q
        b2, b4, b6, _, c4, c6, _ = curves.bc_invariants(self.a)
        order = _count_residues(-27 * c4 % q, -54 * c6 % q, q, _square_counts(q))
        divisors = [n for n in range(2, TORSION_MAX_ORDER + 1) if order % n == 0]
        maximal = [n for n in divisors if not any(m != n and m % n == 0 for m in divisors)]
        small = {None}
        if maximal:
            a1, _, a3, _, _ = self.a
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


def _multiples_in_window(P, E: ModCurve, lo: int, hi: int):
    """Every N in [lo, hi] with N P = O, ascending, for an affine point P of a
    short model E, y^2 = x^3 + Ax + B.

    The baby steps jP, 1 <= j <= m, are keyed by x, so each one stands for
    +-j. The first step j that meets -jP = jP (y = 0) gives ord(P) = 2j, and
    the first whose x an earlier step j' holds gives jP = -j'P, so ord(P) =
    j + j' (no earlier step ended, so ord(P) > j). Then the answer is the
    multiples of ord(P). Otherwise ord(P) > 2m and the points jP, |j| <= m,
    are distinct: giant steps (c + k(2m + 1))P from the centre c of the window
    match at most one of them each, at -jP, which gives N = c + k(2m + 1) + j.
    The walk starts at n0 = a(2m + 1) + b with |b| <= m: n0 P is a times the
    giant step plus the baby step bP. If the giant step is O, ord(P) = 2m + 1.
    """
    A, q = E.a[3], E.q
    c = (lo + hi) // 2
    w = hi - c
    m = math.isqrt(w) + 1
    baby = {}
    steps = [None]  # steps[j] = jP
    R = None
    for j in range(1, m + 1):
        R = _short_add(R, P, A, q)
        if R[1] == 0:
            order = 2 * j
        elif R[0] in baby:
            order = j + baby[R[0]][0]
        else:
            baby[R[0]] = j, R[1]
            steps.append(R)
            continue
        return range(lo + (-lo % order), hi + 1, order)
    step = 2 * m + 1
    giant_step = _short_add(_short_add(R, R, A, q), P, A, q)
    if giant_step is None:
        return range(lo + (-lo % step), hi + 1, step)
    k = (w + m) // step  # k step + m >= w: the giant steps cover [c - w, c + w]
    n0 = c - k * step
    a, b = divmod(n0 + m, step)
    b -= m  # n0 = a step + b, -m <= b <= m
    G = _short_mul(a, giant_step, A, q)
    if b:
        bP = steps[abs(b)]
        G = _short_add(G, bP if b > 0 else (bP[0], q - bP[1]), A, q)
    found = []
    for n in range(n0, c + k * step + 1, step):
        if G is None:
            found.append(n)
        else:
            hit = baby.get(G[0])
            if hit is not None:
                found.append(n - hit[0] if G[1] == hit[1] else n + hit[0])
        G = _short_add(G, giant_step, A, q)
    return [n for n in found if lo <= n <= hi]


def _points(A: int, B: int, q: int):
    """The affine points (x, y) of y^2 = x^3 + Ax + B over F_q, one per x, in
    the order of x (deterministic, so runs repeat)."""
    for x in range(q):
        rhs = (x**3 + A * x + B) % q
        if rhs == 0:
            yield x, 0
        elif pow(rhs, (q - 1) // 2, q) == 1:
            yield x, pow(rhs, (q + 1) // 4, q) if q % 4 == 3 else _sqrt_mod(rhs, q)


def _count_bsgs(A: int, B: int, q: int) -> int:
    """#E(F_q) of y^2 = x^3 + Ax + B at a prime q >= 5 of good reduction.

    Each point P of E leaves the N in the Hasse window with N P = O, and
    each point of the quadratic twist E' by a non-residue leaves the
    2q + 2 - N' for its N', since #E + #E' = 2q + 2. #E is the one candidate
    left in all these sets. Points of E come first; after TWIST_AFTER of them
    (say E(F_q) = Z/m x Z/m, where every order divides m) those of E' and of
    E take turns. For q > 229 the exponents of E and E' leave one candidate
    (Mestre; Cremona and Sutherland, JTNB 22, 2010), so running out of
    points is a bug.
    """
    # |a_q| <= floor(2 sqrt(q)) = isqrt(4q), which 2 * isqrt(q) can undershoot by one
    lo = q + 1 - math.isqrt(4 * q)
    hi = q + 1 + math.isqrt(4 * q)
    candidates = range(lo, hi + 1)
    for E, P, twisted in _bsgs_points(A, B, q):
        found = _multiples_in_window(P, E, lo, hi)
        if twisted:
            found = [2 * q + 2 - n for n in found]
        candidates = {n for n in found if n in candidates}
        if len(candidates) == 1:
            return candidates.pop()
    raise SoundnessError(f"group order ambiguous at {q}")


def _bsgs_points(A: int, B: int, q: int):
    """(curve, point, twisted) for _count_bsgs: TWIST_AFTER points of E, then
    points of the twist E' and of E in turn, until both run out."""
    E = ModCurve((0, 0, 0, A, B), q)
    own = ((E, P, False) for P in _points(A, B, q))
    yield from itertools.islice(own, TWIST_AFTER)
    d = next(d for d in range(2, q) if pow(d, (q - 1) // 2, q) == q - 1)
    a4, a6 = A * d * d % q, B * d**3 % q
    twist = ModCurve((0, 0, 0, a4, a6), q)
    others = ((twist, P, True) for P in _points(a4, a6, q))
    for pair in itertools.zip_longest(others, own):
        yield from filter(None, pair)


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
    minimal = curves.minimal_model(model)[0]
    _, _, _, _, c4, c6, disc = curves.bc_invariants(minimal.int_ainvs())
    if disc % q:
        return _a_q_good(minimal, c4, c6, q)
    local = localdata.tate_algorithm(minimal, q)
    if local.reduction_class == localdata.SPLIT_MULT:
        return ApRecord(q, 1, "bad-prime-rule")
    if local.reduction_class == localdata.NONSPLIT_MULT:
        return ApRecord(q, -1, "bad-prime-rule")
    if local.reduction_class == localdata.GOOD:
        raise SoundnessError(f"model {minimal} is not minimal at {q}")
    return ApRecord(q, 0, "bad-prime-rule")


def good_a_q(q: int, *facts: localdata.CurveFacts) -> tuple[int, ...]:
    """a_q of each curve at a prime q of good reduction for all of them, read
    off their facts; the curves share one table of square-root counts."""
    for f in facts:
        if f.disc % q == 0:
            raise SoundnessError(f"{f.minimal} is bad at {q}")
    t = _square_counts(q) if 3 < q <= NAIVE_LIMIT else None
    return tuple(_a_q_good(f.minimal, f.c4, f.c6, q, t).a_q for f in facts)


def _a_q_good(minimal: WeierstrassModel, c4: int, c6: int, q: int,
              t: bytearray | None = None) -> ApRecord:
    """a_q at a prime q of good reduction for the minimal model with these c4,
    c6; t is _square_counts(q) when the caller has it already."""
    if q > HARD_LIMIT:
        raise ArithmeticError_(f"point counting capped at q <= {HARD_LIMIT}")
    if q <= 3:
        return ApRecord(q, q + 1 - _count_small(minimal.int_ainvs(), q), "naive-count")
    # y^2 = x^3 - 27 c4 x - 54 c6 is the model scaled by u = 6, isomorphic over F_q
    A, B = -27 * c4 % q, -54 * c6 % q
    if q <= NAIVE_LIMIT:
        if t is None:
            t = _square_counts(q)
        return ApRecord(q, q + 1 - _count_residues(A, B, q, t), "naive-count")
    return ApRecord(q, q + 1 - _count_bsgs(A, B, q), "bsgs")
