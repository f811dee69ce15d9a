"""Number-field descriptors carrying splitting and ramification data.

A descriptor never holds field elements; the theorems only ever consume
(e, f, g) at finitely many primes plus the degree, so that is all we model.
Supported kinds: Q, quadratic fields, Q(mu_p), and Kummer layers
K(m^(1/p)) over K = Q(mu_p). Towers: cyclotomic Z_p and false-Tate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith
from .arith import ArithmeticError_


class UnsupportedFieldError(ArithmeticError_):
    """Splitting data requested for a field/prime combination we refuse to guess."""


@dataclass(frozen=True)
class SplittingData:
    """Ramification index e, residue degree f and number of primes g above q."""

    e: int
    f: int
    g: int


@dataclass(frozen=True)
class NumberFieldDescriptor:
    kind: str  # rationals | quadratic | cyclotomic | kummer
    disc: int = 0  # fundamental discriminant (quadratic only)
    p: int = 0  # cyclotomic / kummer prime
    m: int = 0  # kummer radicand

    def __post_init__(self):
        if self.kind == "quadratic":
            d = self.disc
            if d == 0 or d % 4 not in (0, 1) or arith.fundamental_discriminant(d) != d:
                raise ArithmeticError_(f"{d} is not a fundamental discriminant")
        elif self.kind == "cyclotomic":
            if not arith.is_prime(self.p) or self.p == 2:
                raise ArithmeticError_(f"cyclotomic descriptor needs an odd prime, got {self.p}")
        elif self.kind == "kummer":
            if not arith.is_prime(self.p) or self.p == 2:
                raise ArithmeticError_(f"kummer descriptor needs an odd prime, got {self.p}")
            if self.m <= 1:
                raise ArithmeticError_(f"kummer radicand must exceed 1, got {self.m}")
            exponents = arith.factor(self.m)
            for q, e in exponents.items():
                if q != self.p and e > 1:
                    raise ArithmeticError_(
                        f"kummer radicand {self.m} must be squarefree away from {self.p}"
                    )
            if exponents.keys() == {self.p} and exponents[self.p] % self.p == 0:
                raise ArithmeticError_(
                    f"kummer radicand {self.m} = {self.p}^{exponents[self.p]} is a p-th power "
                    f"for p = {self.p}, so the layer is Q(mu_{self.p}) itself"
                )
        elif self.kind != "rationals":
            raise ArithmeticError_(f"unknown field kind {self.kind!r}")

    @property
    def degree(self) -> int:
        if self.kind == "rationals":
            return 1
        if self.kind == "quadratic":
            return 2
        if self.kind == "cyclotomic":
            return self.p - 1
        return self.p * (self.p - 1)  # kummer layer over Q(mu_p)

    def describe(self) -> str:
        if self.kind == "rationals":
            return "Q"
        if self.kind == "quadratic":
            return f"Q(sqrt({self.disc}))" if self.disc % 4 == 1 else f"Q(sqrt({self.disc // 4}))"
        if self.kind == "cyclotomic":
            return f"Q(mu_{self.p})"
        return f"Q(mu_{self.p})({self.m}^(1/{self.p}))"

    @property
    def base(self) -> "NumberFieldDescriptor":
        """The field this one is taken over: Q(mu_p) for a Kummer layer, else Q."""
        return cyclotomic_field(self.p) if self.kind == "kummer" else RATIONALS

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "quadratic":
            out["d"] = self.disc
        elif self.kind == "cyclotomic":
            out["p"] = self.p
        elif self.kind == "kummer":
            out["p"] = self.p
            out["m"] = self.m
        return out


def _json_int(blob: dict, key: str) -> int:
    """blob[key], which must be a JSON integer: not a bool, a float or text."""
    value = blob[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ArithmeticError_(f"{key!r} must be an integer, got {value!r}")
    return value


def field_from_json(blob) -> NumberFieldDescriptor:
    """The field a `NumberFieldDescriptor.to_json` blob names (a quadratic
    field may be given by any d); ArithmeticError_ on anything else."""
    kind = blob.get("kind") if isinstance(blob, dict) else None
    try:
        if kind == "rationals":
            return RATIONALS
        if kind == "quadratic":
            return quadratic_field(_json_int(blob, "d"))
        if kind == "cyclotomic":
            return cyclotomic_field(_json_int(blob, "p"))
        if kind == "kummer":
            return kummer_layer(_json_int(blob, "p"), _json_int(blob, "m"))
    except (KeyError, ValueError) as exc:
        raise ArithmeticError_(f"bad {kind} field {blob!r}: {exc}") from exc
    raise ArithmeticError_(f"unknown field kind {kind!r}")


RATIONALS = NumberFieldDescriptor("rationals")


def quadratic_field(d: int) -> NumberFieldDescriptor:
    """Field Q(sqrt(d)), stored by fundamental discriminant."""
    return NumberFieldDescriptor("quadratic", disc=arith.fundamental_discriminant(d))


def cyclotomic_field(p: int) -> NumberFieldDescriptor:
    return NumberFieldDescriptor("cyclotomic", p=p)


def kummer_layer(p: int, m: int) -> NumberFieldDescriptor:
    return NumberFieldDescriptor("kummer", p=p, m=m)


@dataclass(frozen=True)
class TowerDescriptor:
    kind: str  # cyclotomic_zp | false_tate
    p: int
    m: int = 0  # false_tate only

    def __post_init__(self):
        if self.kind not in ("cyclotomic_zp", "false_tate"):
            raise ArithmeticError_(f"unknown tower kind {self.kind!r}")
        if not arith.is_prime(self.p) or self.p == 2:
            raise ArithmeticError_(f"tower needs an odd prime, got {self.p}")
        if self.kind == "false_tate":
            if self.m <= 1 or self.m % self.p == 0:
                raise ArithmeticError_(
                    f"false-Tate radicand must be > 1 and prime to {self.p}, got {self.m}"
                )

    @property
    def base(self) -> NumberFieldDescriptor:
        return RATIONALS if self.kind == "cyclotomic_zp" else cyclotomic_field(self.p)

    def describe(self) -> str:
        if self.kind == "cyclotomic_zp":
            return f"cyclotomic Z_{self.p} tower"
        return f"false-Tate tower (p={self.p}, m={self.m})"

    def to_json(self) -> dict:
        out = {"kind": self.kind, "p": self.p}
        if self.kind == "false_tate":
            out["m"] = self.m
        return out


def tower_from_json(blob) -> TowerDescriptor:
    """The tower a `TowerDescriptor.to_json` blob names; ArithmeticError_ on
    anything else."""
    kind = blob.get("kind") if isinstance(blob, dict) else None
    try:
        if kind == "cyclotomic_zp":
            return TowerDescriptor(kind, p=_json_int(blob, "p"))
        if kind == "false_tate":
            return TowerDescriptor(kind, p=_json_int(blob, "p"), m=_json_int(blob, "m"))
    except (KeyError, ValueError) as exc:
        raise ArithmeticError_(f"bad {kind} tower {blob!r}: {exc}") from exc
    raise ArithmeticError_(f"unknown tower kind {kind!r}")


def _mult_order(q: int, p: int) -> int:
    """Multiplicative order of q modulo the prime p, a divisor of p - 1:
    take each prime r out of p - 1 while q^((p-1)/r) is still 1."""
    f = p - 1
    for r in arith.prime_divisors(p - 1):
        while f % r == 0 and pow(q, f // r, p) == 1:
            f //= r
    return f


def splitting_data(field: NumberFieldDescriptor, q: int) -> SplittingData:
    """(e, f, g) for the primes above the rational prime q."""
    if not arith.is_prime(q):
        raise ArithmeticError_(f"{q} is not prime")
    if field.kind == "rationals":
        return SplittingData(1, 1, 1)
    if field.kind == "quadratic":
        d = field.disc
        if d % q == 0:
            return SplittingData(2, 1, 1)
        sym = arith.kronecker_symbol(d, q)
        return SplittingData(1, 1, 2) if sym == 1 else SplittingData(1, 2, 1)
    if field.kind == "cyclotomic":
        p = field.p
        if q == p:
            return SplittingData(p - 1, 1, 1)
        f = _mult_order(q, p)
        return SplittingData(1, f, (p - 1) // f)
    # kummer layer M = Q(mu_p)(m^(1/p))
    p, m = field.p, field.m
    base = splitting_data(cyclotomic_field(p), q)
    if q == p:
        raise UnsupportedFieldError(
            f"splitting of {q} in {field.describe()} depends on {m} mod {p}^2; supply local data"
        )
    vq = arith.valuation(m, q)
    if vq and vq % p != 0:
        # ramified in the Kummer layer
        return SplittingData(base.e * p, base.f, base.g)
    m0 = m // q**vq if vq else m
    # residue field of the base contains mu_p, so the p-th power test decides
    if _is_pth_power(m0, q, base.f, p):
        return SplittingData(base.e, base.f, base.g * p)
    return SplittingData(base.e, base.f * p, base.g)


def _is_pth_power(m0: int, q: int, f: int, p: int) -> bool:
    """Is m0 a p-th power in F_(q^f)? m0 lies in the prime field F_q."""
    order = q**f - 1
    return pow(m0 % q, order // p, q) == 1


def check_ramification_condition(field: NumberFieldDescriptor, n: int) -> dict:
    """For every prime p | n, test e_p(field) < p - 1."""
    if n <= 1:
        raise ArithmeticError_(f"need n > 1, got {n}")
    detail = {}
    ok = True
    for p in arith.prime_divisors(n):
        e = splitting_data(field, p).e
        holds = e < p - 1
        detail[p] = {"e": e, "bound": p - 1, "holds": holds}
        ok = ok and holds
    return {"holds": ok, "primes": detail}


def decomposition_dimension(tower: TowerDescriptor, q: int) -> int:
    """p-adic Lie dimension of the decomposition group at primes above q."""
    if not arith.is_prime(q):
        raise ArithmeticError_(f"{q} is not prime")
    if tower.kind == "cyclotomic_zp":
        # no finite prime splits completely in the cyclotomic Z_p-extension
        return 1
    if q == tower.p or tower.m % q == 0:
        return 2
    return 1
