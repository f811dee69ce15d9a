"""Mod-p congruence of curve pairs and irreducibility of mod-p torsion.

Congruences are evidenced prime-by-prime: a_q(A) = a_q(B) mod p at primes of
good reduction for both curves up to a Sturm-style bound, with the standard
level-lowering compatibility a_q = +-(q+1) mod p at primes dividing exactly
one conductor. Verdicts always record the mode that produced them; the
bounded-proof mode checks exactly the bound, the heuristic mode sweeps
further but skips nothing silently either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import arith, curves, fields, hecke, localdata
from .arith import ArithmeticError_
from .curves import WeierstrassModel

HEURISTIC = "heuristic"
BOUNDED_PROOF = "bounded-proof"

WITNESS_SEARCH_BOUND = 1000  # irreducibility witnesses: primes below this
TORSION_PRIMES = frozenset({3, 5, 7})  # odd orders of rational torsion, Mazur 1977


def congruence_bound(n_a: int, n_b: int) -> int:
    """Sturm-style bound floor(mu(N)/6) with N = lcm(N_A, N_B).

    Bounded-proof mode rests on Kraus-Oesterle (Math. Ann. 293, 1992,
    Prop. 4). Their level M also carries the bad primes (where one curve is
    good, a_q is compared with +-(q+1)), so M > N and their mu(M)/6 is
    larger: this bound can stop short of theirs.
    """
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


def _skip_reason(q: int, p: int, class_a: dict, class_b: dict) -> str | None:
    """Why the sweep compares no a_q at the prime q, or None when it does."""
    if q == p:
        return "equals p"
    if q in class_a and q in class_b:
        return "bad for both curves"
    bad_side = class_a.get(q) or class_b.get(q)
    if bad_side and bad_side.reduction_class not in (localdata.SPLIT_MULT, localdata.NONSPLIT_MULT):
        return "additive for one curve"
    return None


def verify_congruence(
    a: localdata.CurveFacts,
    b: localdata.CurveFacts,
    p: int,
    mode: str = HEURISTIC,
    bound: int | None = None,
) -> CongruenceCertificate:
    """Check a_q(A) = a_q(B) mod p for good q up to the working bound.

    The curves come as their `localdata.curve_facts`: the sweep reads the
    conductors, local data and c-invariants from them and derives none again.
    Primes dividing exactly one conductor are held to the level-lowering
    compatibility a_q(good side) = +-(q+1) mod p when the other side is
    multiplicative; primes dividing both conductors, additive primes and p
    itself are recorded as skipped. A heuristic sweep that would have to
    count a prime past hecke.HARD_LIMIT raises the cap's error at once.
    """
    if p == 2 or not arith.is_prime(p):
        raise ArithmeticError_(f"need an odd prime, got {p}")
    if mode not in (HEURISTIC, BOUNDED_PROOF):
        raise ArithmeticError_(f"unknown mode {mode!r}")
    base_bound = congruence_bound(a.conductor, b.conductor)
    if bound is None:
        bound = base_bound if mode == BOUNDED_PROOF else max(1000, base_bound)

    class_a = {l.q: l for l in a.local_data}
    class_b = {l.q: l for l in b.local_data}
    if mode == HEURISTIC and bound > hecke.HARD_LIMIT:
        # a heuristic sweep does not stop at a mismatch: it would fail at the
        # first prime past the point-count cap that it counts, after every
        # prime below the cap
        q = hecke.HARD_LIMIT + 1
        while q <= bound and (not arith.is_prime(q) or _skip_reason(q, p, class_a, class_b)):
            q += 1
        if q <= bound:
            raise ArithmeticError_(f"point counting capped at q <= {hecke.HARD_LIMIT}")
    comparisons, mismatches, skipped, checked = [], [], [], []

    for q in arith.primes(bound):
        reason = _skip_reason(q, p, class_a, class_b)
        if reason:
            skipped.append({"q": q, "reason": reason})
            continue
        if q not in class_a and q not in class_b:
            aq_a, aq_b = hecke.good_a_q(q, a, b)
            ok = (aq_a - aq_b) % p == 0
            comparisons.append({"q": q, "a_q_A": aq_a, "a_q_B": aq_b, "ok": ok})
        else:
            (aq_good,) = hecke.good_a_q(q, b if q in class_a else a)
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


def _poly_eval(coeffs, x: int, mod: int = 0) -> int:
    """coeffs (low to high) at the integer x, reduced mod `mod` when it is set."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if mod:
            acc %= mod
    return acc


def rational_division_roots(model: WeierstrassModel, p: int) -> list:
    """Rational roots of the p-division polynomial f_p (p odd prime), sorted.

    A root x is the x of a point of order p that is rational on the curve or
    on its quadratic twist by the class of psi_2(x)^2, a curve over Q.
    Mazur's torsion theorem (Publ. Math. IHES 47, 1977) allows no such point
    for odd p outside TORSION_PRIMES, so no other f_p is built.

    f_p has leading coefficient p and no repeated root, so each rational root
    is a/p with a an integer root of F(a) = p^deg f_p(a/p), and |a| lies below
    Cauchy's bound. At the first prime l != p where every root of F mod l is
    simple, Newton's iteration lifts each of them to the one candidate mod
    l^k > 2 bound, and one exact evaluation keeps or drops it. Only the
    primes dividing p or the discriminant of F fail, so the search for l ends.
    """
    if p not in TORSION_PRIMES:
        return []
    f = division_polynomial(model, p)
    deg = len(f) - 1
    F = [c * p ** (deg - i) for i, c in enumerate(f)]
    dF = [i * c for i, c in enumerate(F)][1:]
    bound = 1 + max(map(abs, F))  # Cauchy: |a| <= 1 + max |F_i| / p
    for ell in filter(arith.is_prime, itertools.count(2)):
        residues = [r for r in range(ell) if _poly_eval(F, r, ell) == 0]
        if ell != p and all(_poly_eval(dF, r, ell) for r in residues):
            break
    roots = []
    for a in residues:
        mod = ell
        while mod <= 2 * bound:
            mod *= mod  # a root mod l^j that F' keeps a unit lifts to one mod l^2j
            a = (a - _poly_eval(F, a, mod) * pow(_poly_eval(dF, a, mod), -1, mod)) % mod
        if a > mod // 2:
            a -= mod
        if _poly_eval(F, a) == 0:
            roots.append(Fraction(a, p))
    return sorted(roots)


def has_rational_point_with_x(model: WeierstrassModel, x, d: int = 1) -> bool:
    """Is x the x of a rational point on the twist by d, i.e. is psi_2(x)^2 * d a square?"""
    inv = curves.invariants(model)
    disc = (4 * x**3 + inv.b2 * x * x + 2 * inv.b4 * x + inv.b6) * d  # psi_2(x)^2 * d
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
    roots: tuple[Fraction, ...] = ()  # of f_p when no witness was found; not in to_json

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
    if field.kind == "kummer":
        raise fields.UnsupportedFieldError(
            f"irreducibility witness search unsupported over {field.describe()}"
        )
    split = fields.splitting_data(field, q)
    return split.e == split.f == 1


def frobenius_polynomial_irreducible(a_q: int, q: int, p: int) -> bool:
    """Is x^2 - a_q x + q irreducible over F_p?"""
    disc = (a_q * a_q - 4 * q) % p
    return disc != 0 and pow(disc, (p - 1) // 2, p) == p - 1


def irreducible_mod_p(
    facts: localdata.CurveFacts,
    p: int,
    field: fields.NumberFieldDescriptor = fields.RATIONALS,
) -> IrreducibilityVerdict:
    """Decide irreducibility of the mod-p torsion module over the field.

    Sufficient criterion: a good prime q, split in the field, whose Frobenius
    characteristic polynomial x^2 - a_q x + q is irreducible mod p. Failing
    that, a rational root of the p-division polynomial exhibits a stable line
    (reducible over Q, hence over any extension). Otherwise Inconclusive.
    The curve comes as its `localdata.curve_facts`. A verdict without a
    witness carries every rational root of f_p, for the torsion fallback.
    """
    if p == 2 or not arith.is_prime(p):
        raise ArithmeticError_(f"need an odd prime, got {p}")
    for q in arith.primes(WITNESS_SEARCH_BOUND):
        if (p * facts.conductor) % q == 0:
            continue
        if not _is_split_in(field, q):
            continue
        aq, = hecke.good_a_q(q, facts)
        if frobenius_polynomial_irreducible(aq, q, p):
            return IrreducibilityVerdict("Irreducible", witness_prime=q, witness_aq=aq)
    roots = tuple(rational_division_roots(facts.minimal, p))
    if roots:
        lifts = has_rational_point_with_x(facts.minimal, roots[0])
        return IrreducibilityVerdict(
            "ReducibleDetected", torsion_x=str(roots[0]), roots=roots,
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
