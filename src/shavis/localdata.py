"""Tate's algorithm at rational primes and Tamagawa behavior under base change.

The algorithm below is the classical one (Tate's step structure), run on
integer quintuples with exact divisibility checks at every step; it loops on
non-minimal input, so the reported data always refers to the local minimal
model. Extension-field Tamagawa numbers are never recomputed by re-running
Tate over a bigger ring: they follow from the standard behavior of the
component group under base change, read off the (e, f) that
`fields.splitting_data` gives at the prime, with an explicit refusal
(Unsupported) for ramified base change at additive primes.

`curve_facts` gathers what the layers above read of one curve (its minimal
model, integer c-invariants and discriminant, conductor and local data) into
a `CurveFacts` record, derived once per process.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from . import arith, curves, fields
from .arith import ArithmeticError_, SoundnessError, exact_div
from .curves import WeierstrassModel

GOOD = "good"
SPLIT_MULT = "split-mult"
NONSPLIT_MULT = "nonsplit-mult"
ADDITIVE = "additive"


class UnsupportedBaseChangeError(ArithmeticError_):
    """Tamagawa base change we refuse to guess (ramified additive case)."""


@dataclass(frozen=True)
class LocalReductionData:
    q: int
    kodaira: str
    f: int
    c: int
    v_delta: int
    reduction_class: str

    def __post_init__(self):
        # structural sanity of Tate output
        if self.reduction_class == GOOD:
            ok = self.f == 0 and self.c == 1
        elif self.reduction_class == SPLIT_MULT:
            ok = self.f == 1 and self.c == self.v_delta
        elif self.reduction_class == NONSPLIT_MULT:
            ok = self.f == 1 and self.c == (2 if self.v_delta % 2 == 0 else 1)
        else:
            ok = self.f >= 2 and 1 <= self.c <= 4
        if not ok:
            raise SoundnessError(f"inconsistent local data {self.to_json()}")

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "kodaira": self.kodaira,
            "f": self.f,
            "c": self.c,
            "v_delta": self.v_delta,
            "class": self.reduction_class,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "LocalReductionData":
        return cls(blob["q"], blob["kodaira"], blob["f"], blob["c"],
                   blob["v_delta"], blob["class"])


def _check(ok: bool, p: int) -> None:
    if not ok:
        raise SoundnessError(f"Tate's algorithm broke a step invariant at {p}")


def _inv(a: int, p: int) -> int:
    return pow(a, -1, p)


def _quad_has_root(a: int, b: int, c: int, p: int) -> bool:
    """Does a*Y^2 + b*Y + c = 0 have a root in F_p? (a may vanish mod p.)"""
    a, b, c = a % p, b % p, c % p
    if p == 2:
        return (c == 0) or ((a + b + c) % 2 == 0)
    if a == 0:
        return True  # linear (or constant-zero) always has a root here
    disc = (b * b - 4 * a * c) % p
    return disc == 0 or pow(disc, (p - 1) // 2, p) == 1


def _cubic_root_count(b: int, c: int, d: int, p: int) -> int:
    """Number of distinct roots of T^3 + b T^2 + c T + d in F_p.

    Above 64 the cubic must be separable mod p. By Stickelberger a non-square
    discriminant means one linear and one irreducible quadratic factor, so
    one root; otherwise the cubic has three roots if X^p = X modulo it, and
    none if it is irreducible.
    """
    if p <= 64:
        return sum(1 for t in range(p) if (t**3 + b * t * t + c * t + d) % p == 0)
    disc = (b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d) % p
    if disc == 0:
        raise ArithmeticError_(f"cubic is not separable mod {p}")
    if pow(disc, (p - 1) // 2, p) != 1:
        return 1

    def mulmod(u, v):
        # product of two polynomials of degree <= 2, reduced by T^3 = -b T^2 - c T - d
        w = [0] * 5
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                w[i + j] += ui * vj
        for k in (4, 3):
            top = w[k] % p
            w[k - 1] -= b * top
            w[k - 2] -= c * top
            w[k - 3] -= d * top
        return [w[0] % p, w[1] % p, w[2] % p]

    power, base, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            power = mulmod(power, base)
        base = mulmod(base, base)
        e >>= 1
    return 3 if power == [0, 1, 0] else 0


def tate_algorithm(model: WeierstrassModel, q: int) -> LocalReductionData:
    """Kodaira type, conductor exponent, Tamagawa number and splitness at q."""
    if not arith.is_prime(q):
        raise ArithmeticError_(f"{q} is not prime")
    work, _ = curves.integral_model(model)
    a = work.int_ainvs()
    p = q

    while True:
        b2, b4, b6, b8, c4, c6, delta = curves.bc_invariants(a)
        if delta == 0:
            raise curves.SingularCurveError(f"singular model {model}")
        n = arith.valuation(delta, p)

        if n == 0:
            return LocalReductionData(p, "I0", 0, 1, 0, GOOD)

        # Step 2: move the singular point of the reduction to (0, 0).
        a1, a2, a3, a4, a6 = a
        if p == 2:
            if b2 % 2 == 0:
                r = a4 % 2
                t = (r * (1 + a2 + a4) + a6) % 2
            else:
                r = a3 % 2
                t = (r + a4) % 2
        elif p == 3:
            r = (-b6) % 3 if b2 % 3 == 0 else (-b2 * b4) % 3
            t = (a1 * r + a3) % 3
        else:
            if c4 % p == 0:
                r = -b2 * _inv(12, p)
            else:
                r = -(c6 + b2 * c4) * _inv(12 * c4, p)
            r %= p
            t = (-(a1 * r + a3) * _inv(2, p)) % p
        a = curves.translate(a, r, 0, t)
        a1, a2, a3, a4, a6 = a
        _check(a3 % p == 0 and a4 % p == 0 and a6 % p == 0, p)
        # b-invariants are not translation-invariant; refresh before testing
        b2, b4, b6, b8, c4, c6, delta = curves.bc_invariants(a)

        if c4 % p != 0:
            # Type I_n, multiplicative; splitness from the tangent quadratic
            if _quad_has_root(1, a1, -a2, p):
                return LocalReductionData(p, f"I{n}", 1, n, n, SPLIT_MULT)
            c = 2 if n % 2 == 0 else 1
            return LocalReductionData(p, f"I{n}", 1, c, n, NONSPLIT_MULT)

        if a6 % p**2 != 0:
            return LocalReductionData(p, "II", n, 1, n, ADDITIVE)
        if b8 % p**3 != 0:
            return LocalReductionData(p, "III", n - 1, 2, n, ADDITIVE)
        if b6 % p**3 != 0:
            c = 3 if _quad_has_root(1, exact_div(a3, p), -exact_div(a6, p * p), p) else 1
            return LocalReductionData(p, "IV", n - 2, c, n, ADDITIVE)

        # Step 6 preparation: p | a1, a2; p^2 | a3, a4; p^3 | a6.
        if p == 2:
            s = a2 % 2
            t = 2 * (exact_div(a6, 4) % 2)
        else:
            s = (-a1 * _inv(2, p)) % p
            t = (-a3 * _inv(2, p * p)) % (p * p)
        a = curves.translate(a, 0, s, t)
        a1, a2, a3, a4, a6 = a
        _check(a1 % p == 0 and a2 % p == 0, p)
        _check(a3 % p**2 == 0 and a4 % p**2 == 0 and a6 % p**3 == 0, p)

        # Step 6: cubic T^3 + b T^2 + c T + d from the depressed equation.
        b = exact_div(a2, p)
        cc = exact_div(a4, p * p)
        d = exact_div(a6, p**3)
        w = 27 * d * d - b * b * cc * cc + 4 * b**3 * d - 18 * b * cc * d + 4 * cc**3
        x = 3 * cc - b * b

        if w % p != 0:
            # distinct roots: I0*
            c = 1 + _cubic_root_count(b, cc, d, p)
            return LocalReductionData(p, "I0*", n - 4, c, n, ADDITIVE)

        if x % p != 0:
            # double root: I_m* for some m >= 1; move the double root to T = 0
            if p == 2:
                r = cc % 2
            elif p == 3:
                r = (b * cc) % 3
            else:
                r = ((b * cc - 9 * d) * _inv(2 * x, p)) % p
            a = curves.translate(a, p * r, 0, 0)
            a1, a2, a3, a4, a6 = a
            _check(a2 % p == 0 and a2 % p**2 != 0, p)
            _check(a4 % p**3 == 0 and a6 % p**4 == 0, p)

            ix, iy = 3, 3
            mx, my = p * p, p * p
            while True:
                a2t = exact_div(a2, p)
                a3t = exact_div(a3, my)
                a4t = exact_div(a4, p * mx)
                a6t = exact_div(a6, mx * my)
                # quadratic Y^2 + a3t Y - a6t
                if (a3t * a3t + 4 * a6t) % p != 0:
                    m = ix + iy - 5
                    c = 4 if _quad_has_root(1, a3t, -a6t, p) else 2
                    return LocalReductionData(p, f"I{m}*", n - m - 4, c, n, ADDITIVE)
                t = my * ((a6t % 2) if p == 2 else (-a3t * _inv(2, p)) % p)
                a = curves.translate(a, 0, 0, t)
                a1, a2, a3, a4, a6 = a
                iy += 1
                my *= p

                a2t = exact_div(a2, p)
                a4t = exact_div(a4, p * mx)
                a6t = exact_div(a6, mx * my)
                # quadratic a2t X^2 + a4t X + a6t
                if (a4t * a4t - 4 * a2t * a6t) % p != 0:
                    m = ix + iy - 5
                    c = 4 if _quad_has_root(a2t, a4t, a6t, p) else 2
                    return LocalReductionData(p, f"I{m}*", n - m - 4, c, n, ADDITIVE)
                r = mx * ((a6t * a2t) % 2 if p == 2 else (-a4t * _inv(2 * a2t, p)) % p)
                a = curves.translate(a, r, 0, 0)
                a1, a2, a3, a4, a6 = a
                ix += 1
                mx *= p

        # triple root: move it to T = 0
        if p == 2:
            r = d % 2
        elif p == 3:
            r = (-d) % 3
        else:
            r = (-b * _inv(3, p)) % p
        a = curves.translate(a, p * r, 0, 0)
        a1, a2, a3, a4, a6 = a
        _check(a2 % p**2 == 0 and a4 % p**3 == 0 and a6 % p**4 == 0, p)

        # Step 8: quadratic Y^2 + (a3/p^2) Y - a6/p^4
        a3t = exact_div(a3, p * p)
        a6t = exact_div(a6, p**4)
        if (a3t * a3t + 4 * a6t) % p != 0:
            c = 3 if _quad_has_root(1, a3t, -a6t, p) else 1
            return LocalReductionData(p, "IV*", n - 6, c, n, ADDITIVE)
        t = p * p * ((a6t % 2) if p == 2 else (-a3t * _inv(2, p)) % p)
        a = curves.translate(a, 0, 0, t)
        a1, a2, a3, a4, a6 = a
        _check(a3 % p**3 == 0 and a6 % p**5 == 0, p)

        if a4 % p**4 != 0:
            return LocalReductionData(p, "III*", n - 7, 2, n, ADDITIVE)
        if a6 % p**6 != 0:
            return LocalReductionData(p, "II*", n - 8, 1, n, ADDITIVE)

        # Non-minimal at p: rescale and restart.
        a = (
            exact_div(a1, p),
            exact_div(a2, p * p),
            exact_div(a3, p**3),
            exact_div(a4, p**4),
            exact_div(a6, p**6),
        )


def conductor(model: WeierstrassModel) -> tuple[int, list[LocalReductionData]]:
    """Conductor N = prod q^f over bad primes of the global minimal model."""
    return conductor_of_minimal(curves.minimal_model(model)[0])


def conductor_of_minimal(minimal: WeierstrassModel) -> tuple[int, list[LocalReductionData]]:
    """`conductor` of a model that is already globally minimal."""
    disc = curves.bc_invariants(minimal.int_ainvs())[6]
    locals_ = []
    n = 1
    for q in arith.prime_divisors(disc):
        data = tate_algorithm(minimal, q)
        if data.reduction_class != GOOD:
            locals_.append(data)
            n *= q**data.f
    return n, locals_


#: Entries kept by the `curve_facts` memo (and by the congruence memo built on it).
MEMO_SIZE = 32


@dataclass(frozen=True)
class CurveFacts:
    """One curve's arithmetic facts, derived once: its global minimal model,
    that model's integer c4, c6 and discriminant, its conductor and the local
    data at each bad prime. Two records are equal when their minimal models
    are, since everything else follows from that model."""

    minimal: WeierstrassModel
    c4: int = dataclasses.field(compare=False)
    c6: int = dataclasses.field(compare=False)
    disc: int = dataclasses.field(compare=False)
    conductor: int = dataclasses.field(compare=False)
    local_data: tuple[LocalReductionData, ...] = dataclasses.field(compare=False)


@functools.lru_cache(maxsize=MEMO_SIZE)
def curve_facts(model: WeierstrassModel) -> CurveFacts:
    """The facts of a curve given by any model, derived once per process
    from one `minimal_model` call."""
    minimal = curves.minimal_model(model)[0]
    _, _, _, _, c4, c6, disc = curves.bc_invariants(minimal.int_ainvs())
    n, locs = conductor_of_minimal(minimal)
    return CurveFacts(minimal, c4, c6, disc, n, tuple(locs))


def kodaira_in_n(kodaira: str) -> int | None:
    """The n of I_n (None for other types)."""
    if kodaira.startswith("I") and not kodaira.endswith("*") and kodaira not in ("II", "III", "IV"):
        return int(kodaira[1:])
    return None


def kodaira_star_n(kodaira: str) -> int | None:
    if kodaira.startswith("I") and kodaira.endswith("*") and kodaira not in ("II*", "III*", "IV*"):
        return int(kodaira[1:-1])
    return None


def component_count(kodaira: str) -> int:
    """Number of geometric components of the special fiber (Ogg bookkeeping)."""
    n = kodaira_in_n(kodaira)
    if n is not None:
        return max(n, 1)
    n = kodaira_star_n(kodaira)
    if n is not None:
        return n + 5
    return {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}[kodaira]


def tamagawa_over_extension(local: LocalReductionData, split: fields.SplittingData) -> int:
    """Tamagawa number after local base change with the (e, f) of `split`, the
    splitting data of the extension at the prime of `local`.

    Good: 1. Multiplicative I_n: type becomes I_(e*n); split stays split, and
    nonsplit becomes split exactly when the residue extension has even degree.
    Additive with e = 1: the component group is unchanged as a scheme, so the
    rational point count over the bigger residue field follows from the shape
    recorded by Tate. Additive with e > 1 is refused.
    """
    e, f = split.e, split.f
    if local.reduction_class == GOOD:
        return 1
    if local.reduction_class == SPLIT_MULT:
        return e * local.v_delta
    if local.reduction_class == NONSPLIT_MULT:
        n = e * local.v_delta
        if f % 2 == 0:
            return n  # unramified quadratic inside the extension splits the torus
        return 2 if n % 2 == 0 else 1
    # additive
    if e > 1:
        raise UnsupportedBaseChangeError(
            f"ramified base change (e={e}) at additive prime {local.q}; supply local data"
        )
    k = local.kodaira
    if k in ("II", "II*", "III", "III*"):
        # component groups 0, 0, Z/2, Z/2 with rational points already counted
        return local.c
    if k in ("IV", "IV*"):
        if local.c == 3:
            return 3
        return 3 if f % 2 == 0 else 1
    if k == "I0*":
        # c - 1 of the cubic's roots are rational; the rest are conjugate
        if local.c == 4:
            return 4
        if local.c == 2:
            return 4 if f % 2 == 0 else 2
        return 4 if f % 3 == 0 else 1
    # I_m*, m >= 1: component group rationality decided by a quadratic
    if local.c == 4:
        return 4
    return 4 if f % 2 == 0 else 2


@dataclass(frozen=True)
class TamagawaVerdict:
    """Outcome of the p-unit Tamagawa check over a field."""

    all_coprime: bool
    offending: list[int]
    inconclusive: list[int]
    detail: dict[int, dict]

    def to_json(self) -> dict:
        return {
            "all_coprime": self.all_coprime,
            "offending": self.offending,
            "inconclusive": self.inconclusive,
            "detail": {str(q): blob for q, blob in sorted(self.detail.items())},
        }


def is_p_unit_tamagawa(
    local_data: Sequence[LocalReductionData],
    p: int,
    field: fields.NumberFieldDescriptor,
    restrict_to: list[int] | None = None,
) -> TamagawaVerdict:
    """Are the Tamagawa numbers over `field` at these bad primes coprime to p?

    Checks each entry of the local data (at `restrict_to` only, if set) as
    `CurveFacts.local_data` or `conductor` gives it. Returns offending primes,
    and as inconclusive those where base change is refused (ramified additive).
    """
    detail: dict[int, dict] = {}
    offending, inconclusive = [], []
    for local in local_data:
        q = local.q
        if restrict_to is not None and q not in restrict_to:
            continue
        split = fields.splitting_data(field, q)
        entry = {"local": local.to_json(), "e": split.e, "f": split.f}
        try:
            c_ext = tamagawa_over_extension(local, split)
            entry["c_over_field"] = c_ext
            if c_ext % p == 0:
                offending.append(q)
        except UnsupportedBaseChangeError as exc:
            entry["unsupported"] = str(exc)
            inconclusive.append(q)
        detail[q] = entry
    return TamagawaVerdict(
        all_coprime=not offending and not inconclusive,
        offending=offending,
        inconclusive=inconclusive,
        detail=detail,
    )


def residual_conductor(
    local_data: Sequence[LocalReductionData], p: int
) -> tuple[int, list[LocalReductionData]]:
    """Prime-to-p conductor Nbar of the mod-p representation of a semistable
    curve good at p, and the local data of the primes that drop from N.

    A multiplicative prime q != p drops exactly when p divides v_q of the
    minimal discriminant (Tate curve ramification).
    """
    if p == 2 or not arith.is_prime(p):
        raise ArithmeticError_(f"need an odd prime, got {p}")
    if any(l.q == p for l in local_data):
        raise ArithmeticError_(f"curve has bad reduction at p = {p}")
    additive = [l.q for l in local_data if l.f != 1]
    if additive:
        raise ArithmeticError_(
            f"additive reduction at {additive}; the semistable rule does not apply"
        )
    dropped = [l for l in local_data if l.v_delta % p == 0]
    return math.prod(l.q for l in local_data if l not in dropped), dropped
