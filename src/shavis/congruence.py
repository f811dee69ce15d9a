"""Mod-p congruence of curve pairs, irreducibility of mod-p torsion, and the
prime-to-p conductor of the residual representation for semistable curves.

Congruences are evidenced prime-by-prime: a_q(A) = a_q(B) mod p at primes of
good reduction for both curves up to a Sturm-style bound, with the standard
level-lowering compatibility a_q = +-(q+1) mod p at primes dividing exactly
one conductor. Verdicts always record the mode that produced them; the
bounded-proof mode checks exactly the bound, the heuristic mode sweeps
further but skips nothing silently either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith, curves, fields, hecke, localdata
from .arith import ArithmeticError_
from .curves import WeierstrassModel

HEURISTIC = "heuristic"
BOUNDED_PROOF = "bounded-proof"

WITNESS_SEARCH_BOUND = 1000  # irreducibility witnesses: primes below this
SMALL_ROOT_SCAN = 200  # division-polynomial roots tried first: |x| <= this
DIVISOR_LIMIT = 100_000  # rational-root candidates: give up past this many divisors


def congruence_bound(n_a: int, n_b: int) -> int:
    """Sturm-style bound floor(mu(N)/6) with N = lcm(N_A, N_B)."""
    if n_a < 1 or n_b < 1:
        raise ArithmeticError_("conductors must be positive")
    n = arith.lcm(n_a, n_b) or 1
    return arith.mu_index(n) // 6


@dataclass(frozen=True)
class CongruenceCertificate:
    p: int
    mode: str
    bound: int
    verdict: str  # verified | refuted | verified-to-bound
    primes_checked: tuple[int, ...]
    mismatches: tuple[dict, ...]
    comparisons: tuple[dict, ...]
    skipped: tuple[dict, ...]

    @property
    def certified(self) -> bool:
        return self.verdict in ("verified", "verified-to-bound")

    def to_json(self, evidence: str = "summary") -> dict:
        """Fresh lists of fresh dicts: editing the output leaves the
        certificate, which may be shared across scenarios, as it was."""
        out = {
            "p": self.p,
            "mode": self.mode,
            "bound": self.bound,
            "verdict": self.verdict,
            "primes_checked": len(self.primes_checked),
            "mismatches": [dict(m) for m in self.mismatches],
        }
        if evidence == "full":
            out["comparisons"] = [dict(c) for c in self.comparisons]
            out["skipped"] = [dict(s) for s in self.skipped]
        return out


def verify_congruence(
    a: WeierstrassModel,
    b: WeierstrassModel,
    p: int,
    mode: str = HEURISTIC,
    bound: int | None = None,
) -> CongruenceCertificate:
    """Check a_q(A) = a_q(B) mod p for good q up to the working bound.

    Primes dividing exactly one conductor are held to the level-lowering
    compatibility a_q(good side) = +-(q+1) mod p when the other side is
    multiplicative; primes dividing both conductors, additive primes and p
    itself are recorded as skipped.
    """
    if p == 2 or not arith.is_prime(p):
        raise ArithmeticError_(f"need an odd prime, got {p}")
    if mode not in (HEURISTIC, BOUNDED_PROOF):
        raise ArithmeticError_(f"unknown mode {mode!r}")
    n_a, locs_a = localdata.conductor(a)
    n_b, locs_b = localdata.conductor(b)
    base_bound = congruence_bound(n_a, n_b)
    if bound is None:
        bound = base_bound if mode == BOUNDED_PROOF else max(1000, base_bound)

    class_a = {l.q: l for l in locs_a}
    class_b = {l.q: l for l in locs_b}
    comparisons, mismatches, skipped, checked = [], [], [], []

    for q in arith.primes(bound):
        if q == p:
            skipped.append({"q": q, "reason": "equals p"})
            continue
        bad_a, bad_b = q in class_a, q in class_b
        if not bad_a and not bad_b:
            aq_a = hecke.a_q(a, q).a_q
            aq_b = hecke.a_q(b, q).a_q
            ok = (aq_a - aq_b) % p == 0
            comparisons.append({"q": q, "a_q_A": aq_a, "a_q_B": aq_b, "ok": ok})
            checked.append(q)
            if not ok:
                mismatches.append(comparisons[-1])
                if mode == BOUNDED_PROOF:
                    break
            continue
        if bad_a and bad_b:
            skipped.append({"q": q, "reason": "bad for both curves"})
            continue
        bad_side = class_a.get(q) or class_b.get(q)
        good_model = b if bad_a else a
        if bad_side.reduction_class not in (localdata.SPLIT_MULT, localdata.NONSPLIT_MULT):
            skipped.append({"q": q, "reason": "additive for one curve"})
            continue
        aq_good = hecke.a_q(good_model, q).a_q
        ok = (aq_good - (q + 1)) % p == 0 or (aq_good + (q + 1)) % p == 0
        comparisons.append(
            {"q": q, "a_q_good": aq_good, "rule": "level-lowering +-(q+1)", "ok": ok}
        )
        checked.append(q)
        if not ok:
            mismatches.append(comparisons[-1])
            if mode == BOUNDED_PROOF:
                break

    if mismatches:
        verdict = "refuted"
    else:
        verdict = "verified-to-bound" if mode == BOUNDED_PROOF else "verified"
    return CongruenceCertificate(
        p=p,
        mode=mode,
        bound=bound,
        verdict=verdict,
        primes_checked=tuple(checked),
        mismatches=tuple(mismatches),
        comparisons=tuple(comparisons),
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# division polynomials (x-only normalization)

def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] += fi * gj
    return out


def _poly_sub(f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i, fi in enumerate(f):
        out[i] += fi
    for i, gi in enumerate(g):
        out[i] -= gi
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def division_polynomial(model: WeierstrassModel, n: int) -> list[int]:
    """Coefficients (low to high) of the normalized division polynomial f_n.

    psi_n = f_n(x) for n odd and psi_n = f_n(x) * psi_2 for n even, where
    psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6. For odd prime n the roots of f_n
    are exactly the x-coordinates of the nonzero n-torsion.
    """
    inv = curves.invariants(model)
    if not model.is_integral():
        raise ArithmeticError_("division polynomials need an integral model")
    b2, b4, b6, b8 = int(inv.b2), int(inv.b4), int(inv.b6), int(inv.b8)
    B = [b6, 2 * b4, b2, 4]  # psi_2^2
    B2 = _poly_mul(B, B)

    cache: dict[int, list[int]] = {
        0: [0],
        1: [1],
        2: [1],
        3: [b8, 3 * b6, 3 * b4, b2, 3],
        4: [
            b4 * b8 - b6 * b6,
            b2 * b8 - b4 * b6,
            10 * b8,
            10 * b6,
            5 * b4,
            b2,
            2,
        ],
    }

    def f(k: int) -> list[int]:
        if k in cache:
            return cache[k]
        m = k // 2
        if k % 2 == 1:
            t1 = _poly_mul(f(m + 2), _poly_mul(f(m), _poly_mul(f(m), f(m))))
            t2 = _poly_mul(f(m - 1), _poly_mul(f(m + 1), _poly_mul(f(m + 1), f(m + 1))))
            if m % 2 == 0:
                out = _poly_sub(_poly_mul(t1, B2), t2)
            else:
                out = _poly_sub(t1, _poly_mul(t2, B2))
        else:
            t1 = _poly_mul(f(m + 2), _poly_mul(f(m - 1), f(m - 1)))
            t2 = _poly_mul(f(m - 2), _poly_mul(f(m + 1), f(m + 1)))
            out = _poly_mul(f(m), _poly_sub(t1, t2))
        cache[k] = out
        return out

    return f(n)


def _poly_eval_frac(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_division_roots(model: WeierstrassModel, p: int) -> list:
    """Rational roots of the p-division polynomial (p odd prime).

    Candidates come from the rational root theorem (numerator divides the
    constant term, denominator divides the leading coefficient); a direct
    small-integer scan runs first so a failed factorization of a huge
    constant term can only lose exotic candidates, never invent roots.
    """
    from fractions import Fraction

    coeffs = division_polynomial(model, p)
    roots = set()
    # strip x = 0 roots
    shift = 0
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs = coeffs[1:]
        shift += 1
    lead, const = coeffs[-1], coeffs[0]
    for x in range(-SMALL_ROOT_SCAN, SMALL_ROOT_SCAN + 1):
        if _poly_eval_frac(coeffs, x) == 0:
            roots.add(Fraction(x))
    try:
        num_divs = _divisors(abs(const))
        den_divs = _divisors(abs(lead))
        for a in num_divs:
            for b in den_divs:
                if math.gcd(a, b) != 1:
                    continue
                for cand in (Fraction(a, b), Fraction(-a, b)):
                    if _poly_eval_frac(coeffs, cand) == 0:
                        roots.add(cand)
    except arith.ArithmeticError_:
        pass  # factorization budget exceeded; the scan already ran
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    fac = arith.factor(n)
    divs = [1]
    for q, e in fac.items():
        divs = [d * q**k for d in divs for k in range(e + 1)]
        if len(divs) > DIVISOR_LIMIT:
            raise ArithmeticError_("divisor explosion")
    return divs


def has_rational_point_with_x(model: WeierstrassModel, x) -> bool:
    """Does some rational point of the curve have this x-coordinate?"""
    inv = curves.invariants(model)
    disc = 4 * x**3 + inv.b2 * x * x + 2 * inv.b4 * x + inv.b6  # psi_2^2 at x
    if disc < 0:
        return False
    num, den = disc.numerator, disc.denominator
    return arith.is_square(num * den)  # square in Q iff num*den is a square


# ---------------------------------------------------------------------------
# irreducibility

@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str  # Irreducible | ReducibleDetected | Inconclusive
    witness_prime: int | None = None
    witness_aq: int | None = None
    torsion_x: str | None = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.witness_prime is not None:
            out["witness_prime"] = self.witness_prime
            out["witness_aq"] = self.witness_aq
        if self.torsion_x is not None:
            out["torsion_x"] = self.torsion_x
        if self.note:
            out["note"] = self.note
        return out


def _is_split_in(field: fields.NumberFieldDescriptor, q: int) -> bool:
    """Does Frobenius at q land inside Gal(Qbar/field)? (q split/totally split)."""
    if field.kind == "rationals":
        return True
    if field.kind == "quadratic":
        return arith.kronecker_symbol(field.disc, q) == 1
    if field.kind == "cyclotomic":
        return q % field.p == 1
    raise fields.UnsupportedFieldError(
        f"irreducibility witness search unsupported over {field.describe()}"
    )


def frobenius_polynomial_irreducible(a_q: int, q: int, p: int) -> bool:
    """Is x^2 - a_q x + q irreducible over F_p?"""
    disc = (a_q * a_q - 4 * q) % p
    return disc != 0 and pow(disc, (p - 1) // 2, p) == p - 1


def irreducible_mod_p(
    model: WeierstrassModel,
    p: int,
    field: fields.NumberFieldDescriptor = fields.RATIONALS,
) -> IrreducibilityVerdict:
    """Decide irreducibility of the mod-p torsion module over the field.

    Sufficient criterion: a good prime q, split in the field, whose Frobenius
    characteristic polynomial x^2 - a_q x + q is irreducible mod p. Failing
    that, a rational root of the p-division polynomial exhibits a stable line
    (reducible over Q, hence over any extension). Otherwise Inconclusive.
    """
    if p == 2 or not arith.is_prime(p):
        raise ArithmeticError_(f"need an odd prime, got {p}")
    n, _ = localdata.conductor(model)
    for q in arith.primes(WITNESS_SEARCH_BOUND):
        if (p * n) % q == 0:
            continue
        if not _is_split_in(field, q):
            continue
        aq = hecke.a_q(model, q).a_q
        if frobenius_polynomial_irreducible(aq, q, p):
            return IrreducibilityVerdict("Irreducible", witness_prime=q, witness_aq=aq)
    minimal, _ = curves.minimal_model(model)
    roots = rational_division_roots(minimal, p)
    if roots:
        x0 = roots[0]
        lifts = has_rational_point_with_x(minimal, x0)
        return IrreducibilityVerdict(
            "ReducibleDetected",
            torsion_x=str(x0),
            note="rational point" if lifts else "stable {+-P} pair (x rational, y quadratic)",
        )
    return IrreducibilityVerdict(
        "Inconclusive", note=f"no witness below {WITNESS_SEARCH_BOUND}, no rational p-torsion x"
    )


def recheck_witness(model: WeierstrassModel, p: int, verdict: IrreducibilityVerdict) -> bool:
    """Re-run the characteristic polynomial test on a stored witness."""
    if verdict.status != "Irreducible" or verdict.witness_prime is None:
        return False
    aq = hecke.a_q(model, verdict.witness_prime).a_q
    return aq == verdict.witness_aq and frobenius_polynomial_irreducible(
        aq, verdict.witness_prime, p
    )


# ---------------------------------------------------------------------------
# prime-to-p conductor (semistable case)

def mod_p_conductor_semistable(model: WeierstrassModel, p: int) -> int:
    """Prime-to-p conductor of the mod-p representation, semistable curves only.

    A multiplicative prime q != p stays in the conductor iff p does not
    divide v_q of the minimal discriminant (Tate curve ramification).
    """
    if p == 2 or not arith.is_prime(p):
        raise ArithmeticError_(f"need an odd prime, got {p}")
    n, locs = localdata.conductor(model)
    if n % p == 0:
        raise ArithmeticError_(f"curve has bad reduction at p = {p}")
    if any(l.f != 1 for l in locs):
        raise ArithmeticError_(
            f"conductor {n} is not squarefree; the semistable rule does not apply"
        )
    nbar = 1
    for l in locs:
        if l.v_delta % p != 0:
            nbar *= l.q
    return nbar
