"""Weierstrass models over Q: the one copy of the invariant and change of
variables formulas (on ints or Fractions), global minimal models
(Laska-Kraus-Connell) and quadratic twists.

Models are stored as the usual quintuple (a1, a2, a3, a4, a6) of rationals;
a global minimal model always has integer entries. All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .arith import ArithmeticError_, SoundnessError


class SingularCurveError(ArithmeticError_):
    """Raised when a quintuple has discriminant zero."""


@dataclass(frozen=True)
class CurveInvariants:
    b2: Fraction
    b4: Fraction
    b6: Fraction
    b8: Fraction
    c4: Fraction
    c6: Fraction
    disc: Fraction
    j: Fraction


@dataclass(frozen=True)
class Isomorphism:
    """Change of variables x = u^2 x' + r, y = u^3 y' + u^2 s x' + t."""

    u: Fraction
    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)
    t: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("u", "r", "s", "t"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.u == 0:
            raise ArithmeticError_("isomorphism scale u must be nonzero")

    def inverse(self) -> "Isomorphism":
        u, r, s, t = self.u, self.r, self.s, self.t
        return Isomorphism(1 / u, -r / u**2, -s / u, (r * s - t) / u**3)

    def compose(self, other: "Isomorphism") -> "Isomorphism":
        """The transformation 'apply self, then other'."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return Isomorphism(
            u1 * u2,
            r1 + u1**2 * r2,
            s1 + u1 * s2,
            t1 + u1**2 * r2 * s1 + u1**3 * t2,
        )


IDENTITY = Isomorphism(Fraction(1))


@dataclass(frozen=True)
class WeierstrassModel:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def from_list(cls, ainvs) -> "WeierstrassModel":
        if len(ainvs) != 5:
            raise ArithmeticError_(f"expected 5 coefficients, got {len(ainvs)}")
        return cls(*[Fraction(a) for a in ainvs])

    def ainvs(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.ainvs())

    def int_ainvs(self) -> tuple[int, int, int, int, int]:
        if not self.is_integral():
            raise ArithmeticError_(f"model {self} is not integral")
        return tuple(int(a) for a in self.ainvs())  # type: ignore[return-value]

    def __str__(self):
        return "[" + ",".join(str(a) for a in self.ainvs()) + "]"


def parse_curve(value) -> WeierstrassModel:
    """A model as JSON gives it: a list [a1, a2, a3, a4, a6] of integers,
    decimals or fraction strings, or that list as JSON text. Each entry is
    read from its decimal text, so 0.01 is 1/100, not the nearest float."""
    if isinstance(value, str):
        value = arith.decode(value, f"curve {value!r}")
    if not isinstance(value, list) or len(value) != 5:
        raise ArithmeticError_(f"curve must be a 5-element list, got {value!r}")
    try:
        return WeierstrassModel.from_list([_coefficient(str(v)) for v in value])
    except (ValueError, ZeroDivisionError) as exc:
        raise ArithmeticError_(f"bad curve coefficients {value!r}: {exc}") from exc


def _coefficient(text: str) -> Fraction:
    """Fraction(text), refused when its numerator or denominator passes
    arith.digit_limit(). An exponent alone that far out is refused before
    the power of ten is built: 1e20000 would cost a 20001-digit integer."""
    limit = arith.digit_limit()
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > limit + len(text):
        raise ArithmeticError_(f"coefficient {text!r}: exponent past the {limit}-digit limit")
    x = Fraction(text)
    arith.check_digits(max(abs(x.numerator), x.denominator), f"coefficient {text!r}")
    return x


def bc_invariants(a):
    """(b2, b4, b6, b8, c4, c6, disc) of a quintuple of ints or Fractions."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def invariants(model: WeierstrassModel) -> CurveInvariants:
    """Classical b-, c-invariants, discriminant and j; rejects singular input."""
    b2, b4, b6, b8, c4, c6, disc = bc_invariants(model.ainvs())
    if disc == 0:
        raise SingularCurveError(f"singular model {model}")
    return CurveInvariants(b2, b4, b6, b8, c4, c6, disc, c4**3 / disc)


def translate(a, r, s, t) -> tuple:
    """The (u = 1, r, s, t) change of variables on a quintuple of ints or Fractions."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def transform(model: WeierstrassModel, iso: Isomorphism) -> WeierstrassModel:
    """Standard (u, r, s, t) change of variables: translate, then scale by u."""
    u = iso.u
    a1, a2, a3, a4, a6 = translate(model.ainvs(), iso.r, iso.s, iso.t)
    return WeierstrassModel(a1 / u, a2 / u**2, a3 / u**3, a4 / u**4, a6 / u**6)


def integral_model(model: WeierstrassModel) -> tuple[WeierstrassModel, Isomorphism]:
    """Clear denominators by a (1/d) scaling; returns (model', iso to it)."""
    d = 1
    for a in model.ainvs():
        d = d * a.denominator // math.gcd(d, a.denominator)
    iso = Isomorphism(Fraction(1, d))
    return transform(model, iso), iso


def _kraus_ok(c4: int, c6: int) -> bool:
    """Kraus criterion: does (c4, c6) arise from an integral model over Z?"""
    # condition at 3: v3(c6) != 2
    if c6 % 9 == 0 and c6 % 27 != 0:
        return False
    # condition at 2
    if c6 % 4 == 3:
        return True
    if c4 % 16 == 0 and c6 % 32 in (0, 8):
        return True
    return False


def _model_from_c4c6(c4: int, c6: int) -> WeierstrassModel:
    """Connell's reconstruction of a reduced integral model from (c4, c6)."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4 = arith.exact_div(b2 * b2 - c4, 24)
    b6 = arith.exact_div(-(b2**3) + 36 * b2 * b4 - c6, 216)
    a1 = b2 % 2
    a3 = b6 % 2
    a2 = arith.exact_div(b2 - a1, 4)
    a4 = arith.exact_div(b4 - a1 * a3, 2)
    a6 = arith.exact_div(b6 - a3, 4)
    m = WeierstrassModel(*map(Fraction, (a1, a2, a3, a4, a6)))
    inv = invariants(m)
    if (inv.c4, inv.c6) != (c4, c6):
        raise SoundnessError("c4/c6 reconstruction mismatch")
    return m


def minimal_model(model: WeierstrassModel) -> tuple[WeierstrassModel, Isomorphism]:
    """Global minimal model over Q plus the transformation onto it.

    Laska-Kraus-Connell: maximize u with c4/u^4, c6/u^6 integral and
    Kraus-admissible; the reduced model is rebuilt from the minimal pair.
    """
    work, iso0 = integral_model(model)
    inv = invariants(work)
    c4, c6, disc = int(inv.c4), int(inv.c6), int(inv.disc)

    if c4 == 0:
        candidates = arith.factor(c6)
    elif c6 == 0:
        candidates = arith.factor(c4)
    else:
        g = math.gcd(c4, c6)
        candidates = arith.factor(g) if g > 1 else {}

    u = 1
    for q in sorted(candidates):
        k = arith.valuation(disc, q) // 12
        if c4:
            k = min(k, arith.valuation(c4, q) // 4)
        if c6:
            k = min(k, arith.valuation(c6, q) // 6)
        if q in (2, 3):
            while k > 0 and not _kraus_ok(
                c4 // q ** (4 * k), c6 // q ** (6 * k)
            ):
                k -= 1
        u *= q**k
    c4m, c6m = c4 // u**4, c6 // u**6
    minimal = _model_from_c4c6(c4m, c6m)

    # Solve for the (u, r, s, t) mapping `work` onto `minimal`.
    uf = Fraction(u)
    s = (uf * minimal.a1 - work.a1) / 2
    r = (uf**2 * minimal.a2 - work.a2 + s * work.a1 + s * s) / 3
    t = (uf**3 * minimal.a3 - work.a3 - r * work.a1) / 2
    iso = Isomorphism(uf, r, s, t)
    if transform(work, iso) != minimal:
        raise SoundnessError("minimalization transform mismatch")
    return minimal, iso0.compose(iso)


def minimal_discriminant(model: WeierstrassModel) -> int:
    m, _ = minimal_model(model)
    return int(invariants(m).disc)


def short_model(model: WeierstrassModel) -> WeierstrassModel:
    """The Q-isomorphic model y^2 = x^3 - 27 c4 x - 54 c6 (u = 6 rescaling)."""
    inv = invariants(model)
    return WeierstrassModel(
        Fraction(0), Fraction(0), Fraction(0), -27 * inv.c4, -54 * inv.c6
    )


def quadratic_twist(model: WeierstrassModel, d: int) -> WeierstrassModel:
    """Twist by the quadratic character of Q(sqrt(d)); d squarefree, != 0, 1.

    Short models twist in place (a4, a6) -> (d^2 a4, d^3 a6); anything with
    a1, a2 or a3 nonzero goes through y^2 = x^3 - 27c4 x - 54c6 first and is
    re-minimalized, since that detour inflates the discriminant by 6^12.
    """
    if d in (0, 1):
        raise ArithmeticError_(f"invalid twist parameter d = {d}")
    if not arith.is_squarefree(d):
        raise ArithmeticError_(f"twist parameter {d} is not squarefree; pass its squarefree part")
    a1, a2, a3, a4, a6 = model.ainvs()
    if a1 == a2 == a3 == 0:
        return WeierstrassModel(a1, a2, a3, d * d * a4, d**3 * a6)
    shorted = short_model(model)
    twisted = WeierstrassModel(
        Fraction(0), Fraction(0), Fraction(0),
        d * d * shorted.a4, d**3 * shorted.a6,
    )
    reduced, _ = minimal_model(twisted)
    return reduced
