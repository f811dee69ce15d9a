"""The theorem engine: hypothesis verdicts and visibility certificates.

Each supported theorem has a fixed list of labeled hypotheses. A certificate
carries one verdict per hypothesis (holds / fails / inconclusive /
unverified-user-asserted), the concluded lower bound on the visible subgroup
of the Shafarevich-Tate group, and enough evidence to re-check every verdict
without re-running the tool. The auxiliary abelian surface (A x B)/A[p] is
never constructed: the congruence certificate is the witness that the shared
p-torsion is meaningful, and every other hypothesis is local or about ranks.

Ranks are consumed from records with explicit provenance and are the trust
boundary: a certificate is only as strong as its rank records, and says so.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

from . import arith, congruence, curves, dataio, fields, localdata
from .arith import ArithmeticError_
from .curves import WeierstrassModel

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
USER_ASSERTED = "unverified-user-asserted"

CERTIFIED = "certified"
FAILED = "failed"
PARTIAL = "partial"

SCHEMA_VERSION = 1
TOOL_NAME = "shavis"
TOOL_VERSION = "0.1.0"


class ScenarioError(ArithmeticError_):
    """Scenario file fails validation before any computation runs."""


@dataclass(frozen=True)
class HypothesisVerdict:
    id: str
    status: str
    evidence: dict

    def to_json(self) -> dict:
        return {"id": self.id, "status": self.status, "evidence": self.evidence}


@dataclass(frozen=True)
class VisibilityScenario:
    name: str
    theorem: str
    curve_a: WeierstrassModel
    curve_b: WeierstrassModel
    n: int
    base_field: fields.NumberFieldDescriptor  # L
    field_k: fields.NumberFieldDescriptor  # K
    target: fields.NumberFieldDescriptor | fields.TowerDescriptor | None = None  # M
    rank_records: tuple = ()  # as the scenario file gives them
    user_assertions: tuple = ()
    mode: str = congruence.HEURISTIC
    congruence_limit: int | None = None
    evidence_level: str = "summary"

    def __post_init__(self):
        """Apply the input rules of the theorem's `THEOREMS` entry, so a
        scenario that exists is one its theorem can run on."""
        rule = THEOREMS.get(self.theorem)
        if rule is None:
            raise ScenarioError(f"unknown theorem {self.theorem!r}")
        n, k, target = self.n, self.field_k, self.target
        if n % 2 == 0 or n < 3:
            raise ScenarioError(f"n must be odd and > 1, got {n}")
        if not arith.is_squarefree(n):
            raise ScenarioError(f"composite n must be squarefree, got {n}")
        if rule.prime_n and not arith.is_prime(n):
            raise ScenarioError(f"{self.theorem} theorem needs prime n, got {n}")
        if rule.targets:
            if target is None or target.kind not in rule.targets:
                raise ScenarioError(
                    f"{self.theorem} theorem needs a {' or '.join(rule.targets)} target")
            if target.p and target.p != n:
                raise ScenarioError(f"target prime {target.p} != scenario p {n}")
            if k != target.base:
                raise ScenarioError(f"target {target.describe()} lies over "
                                    f"K = {target.base.describe()}, not K = {k.describe()}")
        elif k.kind not in rule.k_kinds:
            raise ScenarioError(f"{self.theorem} theorem takes K of kind "
                                f"{' or '.join(rule.k_kinds)}, not {k.kind} K = {k.describe()}")
        if localdata.curve_facts(self.curve_a) == localdata.curve_facts(self.curve_b):
            raise ScenarioError("curves A and B coincide as minimal models")

    @property
    def n_primes(self) -> list[int]:
        return arith.prime_divisors(self.n)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "theorem": self.theorem,
            "n": self.n,
            "curve_a": [str(a) for a in self.curve_a.ainvs()],
            "curve_b": [str(a) for a in self.curve_b.ainvs()],
            "base_field": self.base_field.to_json(),
            "field_k": self.field_k.to_json(),
            "rank_records": [dict(r) for r in self.rank_records],
            "user_assertions": [dict(u) for u in self.user_assertions],
            "options": {
                "mode": self.mode,
                "congruence_bound": self.congruence_limit,
                "evidence": self.evidence_level,
            },
        }
        if self.target is not None:
            out["target"] = self.target.to_json()
        return out


@dataclass(frozen=True)
class VisibilityCertificate:
    scenario: VisibilityScenario
    verdicts: tuple[HypothesisVerdict, ...]
    conclusion: dict
    overall: str
    rank_provenance: tuple = ()

    def verdict(self, vid: str) -> HypothesisVerdict:
        for v in self.verdicts:
            if v.id == vid:
                return v
        raise KeyError(vid)

    def failed_ids(self) -> list[str]:
        return [v.id for v in self.verdicts if v.status == FAILS]

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "scenario": self.scenario.to_json(),
            "theorem": self.scenario.theorem,
            "verdicts": [v.to_json() for v in self.verdicts],
            "conclusion": self.conclusion,
            "overall": self.overall,
            "rank_provenance": list(self.rank_provenance),
        }


def _worst(statuses) -> str:
    """The status of a check made of parts: FAILS beats INCONCLUSIVE beats
    HOLDS, and a check with no parts holds."""
    return max(statuses, key=(HOLDS, INCONCLUSIVE, FAILS).index, default=HOLDS)


def _overall(verdicts) -> str:
    statuses = {v.status for v in verdicts}
    if FAILS in statuses:
        return FAILED
    if INCONCLUSIVE in statuses:
        return PARTIAL
    return CERTIFIED


def _record_user_assertions(scenario) -> list[HypothesisVerdict]:
    return [
        HypothesisVerdict(ua.get("id", "user-assertion"), USER_ASSERTED,
                          {"statement": ua.get("statement", "")})
        for ua in scenario.user_assertions
    ]


@functools.lru_cache(maxsize=localdata.MEMO_SIZE)
def _congruence_certificate(fa: localdata.CurveFacts, fb: localdata.CurveFacts, p: int,
                            mode: str, bound: int | None) -> congruence.CongruenceCertificate:
    """One congruence sweep per pair of curves, prime, mode and bound, shared
    by every scenario with those four, whatever its theorem and target field.
    Curve facts compare by their minimal models."""
    return congruence.verify_congruence(fa, fb, p, mode=mode, bound=bound)


def clear_memos() -> None:
    """Forget every curve fact, congruence certificate and factoring cofactor
    split kept across scenarios."""
    localdata.curve_facts.cache_clear()
    _congruence_certificate.cache_clear()
    arith._split_cofactor.cache_clear()


class _Engine:
    """Shared hypothesis evaluation for one scenario.

    Every check returns (status, evidence); the theorem table supplies the
    ids. Twisted models, torsion verdicts and ranks are computed once, so a
    hypothesis and the conclusion that both consume one share a resolution.
    The frozen curve facts (`localdata.curve_facts`), its only view of A, B
    and their quadratic twists, and the congruence certificates come from
    process-wide memos.
    """

    def __init__(self, scenario: VisibilityScenario, dataset: dataio.Dataset | None = None):
        self.s = scenario
        self.fa, self.fb = map(localdata.curve_facts, (scenario.curve_a, scenario.curve_b))
        self.rank_uses: list[dict] = []
        self._ranks: dict = {}
        self._torsion: dict = {}
        user_recs = [dataio.rank_record_from_json(r) for r in scenario.rank_records]
        self.sources = dataio.RankSources(dataset=dataset, user_records=user_recs)

    @functools.cached_property
    def twisted(self) -> tuple[localdata.CurveFacts, localdata.CurveFacts]:
        """Facts of A and B twisted by the quadratic target field, from the
        same memo as the facts of A and B."""
        d = arith.squarefree_part(self.s.target.disc)
        return tuple(localdata.curve_facts(curves.quadratic_twist(f.minimal, d))
                     for f in (self.fa, self.fb))

    def rank(self, model: WeierstrassModel, field: fields.NumberFieldDescriptor):
        """Resolve a rank once; the certificate lists ranks in first-use order."""
        key = (model, field)
        if key not in self._ranks:
            self._ranks[key] = dataio.rank_over(model, field, self.sources)
            self.rank_uses.append(self._ranks[key].to_json())
        return self._ranks[key]

    def conclude(self, conclude, overall: str) -> tuple[dict, str]:
        """Run a theorem's conclusion and settle the overall status.

        A rank over a field that only a user record can supply leaves the
        conclusion at "rank records missing" and the certificate partial. A
        point-search rank on the A side caps the certificate at partial too.
        """
        try:
            conclusion, a_side_ranks = conclude(self)
        except fields.UnsupportedFieldError as exc:
            conclusion = {
                "min_visible_order": 1,
                "kernel_bound": 1,
                "rank_gap": 0,
                "vacuous": True,
                "statement": f"rank records missing: {exc}",
            }
            return conclusion, PARTIAL if overall == CERTIFIED else overall
        return conclusion, _degrade_search_rank(conclusion, overall, *a_side_ranks)

    # ---- the assumption block (shared by improv/quadratic/exten/lie)

    def congruent(self) -> tuple[str, dict]:
        """B[n] contained in A and congruent: one congruence proof per p | n."""
        certs = {
            p: _congruence_certificate(self.fa, self.fb, p, self.s.mode,
                                       self.s.congruence_limit)
            for p in self.s.n_primes
        }
        evidence = {
            "statement": f"A[{self.s.n}] = B[{self.s.n}] as Galois modules, realized prime by prime",
            "congruence": {str(p): c.to_json(self.s.evidence_level) for p, c in certs.items()},
        }
        return HOLDS if all(c.certified for c in certs.values()) else FAILS, evidence

    def ramification(self) -> tuple[str, dict]:
        """e_p(L) < p - 1; inconclusive where the splitting of p in L is out of reach."""
        statement = f"e_p(L) < p-1 for p | {self.s.n} with L = {self.s.base_field.describe()}"
        try:
            res = fields.check_ramification_condition(self.s.base_field, self.s.n)
        except fields.UnsupportedFieldError as exc:
            return INCONCLUSIVE, {"statement": statement, "error": str(exc)}
        ev = {
            "statement": statement,
            "primes": {str(p): d for p, d in res["primes"].items()},
        }
        return HOLDS if res["holds"] else FAILS, ev

    def coprime_to_bad_primes(self) -> tuple[str, dict]:
        bad = sorted(set(l.q for l in self.fa.local_data) | set(l.q for l in self.fb.local_data))
        g = math.gcd(self.s.n, math.prod(bad))
        ev = {
            "statement": f"gcd(n, N(L)) = 1 with N(L) from bad primes {bad}",
            "gcd": g,
        }
        if self.s.base_field.kind != "rationals":
            ev["note"] = "bad primes computed over Q, a conservative superset for L"
        return HOLDS if g == 1 else FAILS, ev

    def torsion_vanishes(self, field: fields.NumberFieldDescriptor) -> tuple[str, dict]:
        """B(field)[n] = 0 and (J/B)(field)[n] = 0, via irreducibility first.

        A[p] = B[p] and J/B is isogenous to A, so irreducibility of A[p] over
        the field covers every group involved. Without a witness, reducible
        or not, the fallback reads the rational roots of f_p on A, from the
        verdict, and on B by twist class (`_torsion_search`): a reducible A[p]
        need not give a point over the field.
        """
        if field in self._torsion:
            return self._torsion[field]
        detail, statuses = {}, []
        for p in self.s.n_primes:
            verdict = congruence.irreducible_mod_p(self.fa, p, field)
            detail[str(p)] = verdict.to_json()
            if verdict.status == "Irreducible":
                continue
            fallback = self._torsion_search(field, p, verdict.roots)
            detail[str(p)]["fallback"] = fallback
            statuses.append(fallback["status"])
        status = _worst(statuses)
        ev = {
            "statement": f"B({field.describe()})[n] = 0 and (J/B)({field.describe()})[n] = 0",
            "per_prime": detail,
        }
        self._torsion[field] = status, ev
        return status, ev

    def _torsion_search(self, field, p, roots_a) -> dict:
        """Rational p-torsion of A and B over Q, Q(sqrt d) or Q(mu_3).

        A rational root x of f_p (`roots_a` on A) is the x of a point of order
        p that is rational on E^D, D the class of psi_2(x)^2, and for odd p
        E(Q(sqrt d))[p] = E(Q)[p] + E^d(Q)[p]. So each root found on the
        curve's own minimal model counts when D is a class of the field:
        {1} over Q, {1, d} over Q(sqrt d), {1, -3} over Q(mu_3).
        """
        if field.kind == "rationals":
            classes = (1,)
        elif field.kind == "quadratic":
            classes = (1, arith.squarefree_part(field.disc))
        elif field.kind == "cyclotomic" and field.p == 3:
            classes = (1, -3)  # Q(mu_3) = Q(sqrt(-3))
        else:
            return {"status": INCONCLUSIVE,
                    "note": f"no torsion decomposition over {field.describe()}"}
        found = {}
        roots_b = congruence.rational_division_roots(self.fb.minimal, p)
        for name, m, roots in (("A", self.fa.minimal, roots_a), ("B", self.fb.minimal, roots_b)):
            pts = [
                {"x": str(x), "twist": d}
                for x in roots
                for d in classes
                if congruence.has_rational_point_with_x(m, x, d)
            ]
            if pts:
                found[name] = pts
        if found:
            return {"status": FAILS, "rational_p_torsion": found}
        return {"status": HOLDS, "note": f"no rational {p}-torsion on any factor"}

    def tamagawa(self, local_a, local_b, field, restrict=None) -> tuple[str, dict]:
        """n prime to the Tamagawa numbers over the field, from the local data
        of the two curves (or of their twists)."""
        verdicts, statuses = {}, []
        for name, locs in (("A", local_a), ("B", local_b)):
            per_prime = {}
            for p in self.s.n_primes:
                tv = localdata.is_p_unit_tamagawa(locs, p, field, restrict_to=restrict)
                per_prime[str(p)] = tv.to_json()
                statuses.append(FAILS if tv.offending else INCONCLUSIVE if tv.inconclusive
                                else HOLDS)
            verdicts[name] = per_prime
        ev = {
            "statement": f"n coprime to all Tamagawa numbers over {field.describe()}"
            + (f" at primes dividing {restrict}" if restrict else ""),
            "curves": verdicts,
        }
        return _worst(statuses), ev

    # ---- the order-p (nontrivial) theorems

    def irreducible(self) -> tuple[str, dict]:
        p, k = self.s.n, self.s.field_k
        irr = congruence.irreducible_mod_p(self.fa, p, k)
        status = {"Irreducible": HOLDS, "ReducibleDetected": FAILS}.get(irr.status, INCONCLUSIVE)
        return status, {
            "statement": f"A[{p}] irreducible over {k.describe()}",
            "verdict": irr.to_json(),
        }

    def rank_gap(self) -> tuple[str, dict]:
        k = self.s.field_k
        rank_a = self.rank(self.fa.minimal, k).rank
        rank_b = self.rank(self.fb.minimal, k).rank
        return HOLDS if rank_b > rank_a else FAILS, {
            "statement": f"rank B({k.describe()}) > rank A({k.describe()})",
            "rank_A": rank_a, "rank_B": rank_b,
        }

    def semistable_mod_p(self):
        """(name, N, (Nbar, dropped local data)) per curve; the last is None
        when the curve is not semistable or is bad at p."""
        for name, f in (("A", self.fa), ("B", self.fb)):
            try:
                yield name, f.conductor, localdata.residual_conductor(f.local_data, self.s.n)
            except ArithmeticError_:
                yield name, f.conductor, None


def _degrade_search_rank(conclusion: dict, overall: str, *a_side_records) -> str:
    """A point-search rank is a lower bound, but the kernel bound n^rank(A)
    needs an upper bound on the A-side rank: degrade to partial and say so."""
    if any(r.lower_bound_only for r in a_side_records):
        conclusion["caveat"] = (
            "rank of A resolved only as a point-search lower bound; the kernel "
            "bound needs an upper bound, so supply a proved rank record"
        )
        if overall == CERTIFIED:
            return PARTIAL
    return overall


# ---------------------------------------------------------------------------
# theorem-specific checks and conclusions

def _gap_conclusion(eng: _Engine, model_a, model_b, field, claim: str) -> tuple[dict, tuple]:
    """n^(rank B - rank A) over the field; `claim` precedes " of order >= ..."."""
    n = eng.s.n
    rank_a = eng.rank(model_a, field)
    gap = eng.rank(model_b, field).rank - rank_a.rank
    conclusion = {
        "min_visible_order": n**gap if gap > 0 else 1,
        "kernel_bound": n**rank_a.rank,
        "rank_gap": gap,
        "vacuous": gap <= 0,
        "statement": f"{claim} of order >= {n**gap}" if gap > 0
        else f"no nontrivial lower bound (rank gap {gap} <= 0)",
    }
    return conclusion, (rank_a,)


def _conclude_improv(eng: _Engine):
    k = eng.s.field_k
    return _gap_conclusion(eng, eng.fa.minimal, eng.fb.minimal, k,
                           f"Vis_J(Sha(A/{k.describe()})) contains a subgroup")


def _conclude_quadratic(eng: _Engine):
    a_tw, b_tw = (f.minimal for f in eng.twisted)
    conclusion, a_side = _gap_conclusion(
        eng, a_tw, b_tw, fields.RATIONALS,
        f"Vis_J(Sha(A/{eng.s.target.describe()})) contains a subgroup",
    )
    conclusion["twisted_models"] = [str(a_tw), str(b_tw)]
    return conclusion, a_side


def _conclude_nontrivial(eng: _Engine):
    k, p = eng.s.field_k, eng.s.n
    return _gap_conclusion(
        eng, eng.fa.minimal, eng.fb.minimal, k,
        f"Sha(A/{k.describe()}) contains an element of order {p}; visible subgroup",
    )


def _good_at_p(eng: _Engine) -> tuple[str, dict]:
    p, fa, fb = eng.s.n, eng.fa, eng.fb
    good = fa.conductor % p != 0 and fb.conductor % p != 0
    return HOLDS if good else FAILS, {
        "statement": f"both curves have good reduction at {p}",
        "N_A": fa.conductor, "N_B": fb.conductor,
    }


def _semistable(eng: _Engine) -> tuple[str, dict]:
    semistable = all(l.f == 1 for l in (*eng.fa.local_data, *eng.fb.local_data))
    return HOLDS if semistable else FAILS, {
        "statement": "A and B are semistable (squarefree conductors)",
        "N_A": eng.fa.conductor, "N_B": eng.fb.conductor,
    }


def _not_semistable() -> dict:
    return {"status": INCONCLUSIVE, "note": "not semistable or bad at p"}


def _nonsplit_drop(eng: _Engine) -> tuple[str, dict]:
    """nontrivial1 (a): primes dropping from the mod-p conductor must be
    non-split multiplicative over K."""
    field_k = eng.s.field_k
    detail, statuses = {}, []
    for name, n, residual in eng.semistable_mod_p():
        if residual is None:
            detail[name] = _not_semistable()
            statuses.append(INCONCLUSIVE)
            continue
        nbar, dropped = residual
        entry = {"N": n, "Nbar": nbar, "dropped_primes": [l.q for l in dropped]}
        # split multiplicative stays split; nonsplit becomes split iff the
        # residue degree is even
        bad = [
            l.q for l in dropped
            if not (l.reduction_class == localdata.NONSPLIT_MULT
                    and fields.splitting_data(field_k, l.q).f % 2 == 1)
        ]
        if bad:
            entry["split_at"] = bad
            statuses.append(FAILS)
        detail[name] = entry
    return _worst(statuses), {
        "statement": "primes dividing N/Nbar are non-split multiplicative over K",
        "curves": detail,
    }


def _conductor_equality(eng: _Engine) -> tuple[str, dict]:
    detail, statuses = {}, []
    for name, n, residual in eng.semistable_mod_p():
        if residual is None:
            detail[name] = _not_semistable()
            statuses.append(INCONCLUSIVE)
            continue
        nbar = residual[0]
        detail[name] = {"N": n, "Nbar": nbar}
        statuses.append(FAILS if nbar != n else HOLDS)
    status = _worst(statuses)
    if status == HOLDS and eng.fa.conductor != eng.fb.conductor:
        status = FAILS
        detail["note"] = "conductors of A and B differ"
    return status, {
        "statement": "prime-to-p conductor of A[p] equals the conductors of A and of B",
        "curves": detail,
    }


def _kummer_ramification(eng: _Engine) -> tuple[str, dict]:
    """exten (i): e_v(M) divisible by p at primes dividing N/N_A."""
    p, kummer = eng.s.n, eng.s.target
    extra = sorted(set(l.q for l in eng.fb.local_data) - set(l.q for l in eng.fa.local_data))
    rami = {}
    ok = True
    for q in extra:
        try:
            e = fields.splitting_data(kummer, q).e
        except fields.UnsupportedFieldError as exc:
            rami[str(q)] = {"error": str(exc)}
            ok = False
            continue
        rami[str(q)] = {"e": e, "divisible_by_p": e % p == 0}
        ok = ok and e % p == 0
    return HOLDS if ok else FAILS, {
        "statement": f"e_v({kummer.describe()}) divisible by {p} at primes dividing N/N_A",
        "primes": rami,
    }


def _conclude_exten(eng: _Engine):
    """The kernel of the map is bounded through the Galois module structure
    of A(M); the image has rank >= rank B(K) - that kernel bound. Gal(M/K)
    acts on the rest of A(M) (x) Q through Q(zeta_p), so rank records are
    rejected unless rank A(M) - rank A(K) is a non-negative multiple of p - 1."""
    s, p, kummer = eng.s, eng.s.n, eng.s.target
    rank_a_k = eng.rank(eng.fa.minimal, s.field_k).rank
    rank_a_m = eng.rank(eng.fa.minimal, kummer).rank
    rank_b_k = eng.rank(eng.fb.minimal, s.field_k).rank
    if rank_a_m < rank_a_k or (rank_a_m - rank_a_k) % (p - 1):
        raise ArithmeticError_(f"rank A({kummer.describe()}) = {rank_a_m} and rank A("
                               f"{s.field_k.describe()}) = {rank_a_k}: their difference must "
                               f"be a non-negative multiple of p - 1 = {p - 1}")
    kernel_rank = rank_a_k + (rank_a_m - rank_a_k) // (p - 1)
    image_rank = max(rank_b_k - kernel_rank, 0)
    gap = rank_b_k - rank_a_k
    if image_rank > 0:
        inj = " (injective)" if kernel_rank == 0 else ""
        statement = f"image of rank >= {image_rank} in Vis_J(Sha(A/{kummer.describe()}))[{p}]{inj}"
    elif gap > 0:
        statement = (f"no nontrivial lower bound (image rank {rank_b_k - kernel_rank} <= 0"
                     f" with kernel rank bound {kernel_rank})")
    else:
        statement = f"no nontrivial lower bound (rank gap {gap} <= 0)"
    conclusion = {
        "min_visible_order": p**image_rank if image_rank > 0 else 1,
        "kernel_bound": p**kernel_rank,
        "rank_gap": gap,
        "vacuous": image_rank <= 0,
        "statement": statement,
        "image_rank": image_rank,
        "kernel_rank_bound": kernel_rank,
    }
    return conclusion, ()


def _lie_layers(eng: _Engine) -> list[HypothesisVerdict]:
    """One verdict L.v{q} per bad prime q: either the Tamagawa numbers stay
    p-units up the tower (unramified stability) or the decomposition group
    has Lie dimension >= 2."""
    p, tower = eng.s.n, eng.s.target
    locs = {"A": {l.q: l for l in eng.fa.local_data}, "B": {l.q: l for l in eng.fb.local_data}}
    out = []
    for q in sorted(set(locs["A"]) | set(locs["B"])):
        entry = {}
        # branch 1: p-unit at the base layer plus unramified stability
        ramified_in_tower = (q == p) or (tower.kind == "false_tate" and tower.m % q == 0)
        units = True
        for name, by_q in locs.items():
            if q not in by_q:
                entry[name] = {"c": 1, "note": "good reduction"}
                continue
            try:
                c = localdata.tamagawa_over_extension(
                    by_q[q], fields.splitting_data(tower.base, q))
                entry[name] = {"c_over_base": c}
                units = units and c % p != 0
            except localdata.UnsupportedBaseChangeError as exc:
                entry[name] = {"unsupported": str(exc)}
                units = False
        if units and not ramified_in_tower:
            entry["branch"] = "p-unit Tamagawa at the base, tower unramified at q"
            status = HOLDS
        else:
            dim = fields.decomposition_dimension(tower, q)
            entry["decomposition_dimension"] = dim
            if dim >= 2:
                entry["branch"] = "decomposition group of Lie dimension >= 2"
                status = HOLDS
            else:
                entry["branch"] = "neither branch applies"
                status = INCONCLUSIVE
        out.append(HypothesisVerdict(f"L.v{q}", status, entry))
    return out


def _conclude_lie(eng: _Engine):
    conclusion = {
        "statement": f"the visibility map lands in Vis_J(Sha(A/{eng.s.target.describe()}))",
        "min_visible_order": 1,
        "kernel_bound": 1,
        "rank_gap": 0,
        "vacuous": False,
        "injectivity": "injective when A has finitely many points up the tower "
                       "(user-assertable, not computed)",
    }
    return conclusion, ()


# ---------------------------------------------------------------------------
# the theorem table

Check = Callable[[_Engine], tuple[str, dict]]


@dataclass(frozen=True)
class _Theorem:
    """One visibility theorem: its input rules, its labeled hypotheses in
    certificate order, verdicts beyond the schema, and its conclusion,
    which returns the conclusion and the A-side rank records it consumed.

    The input rules, which `VisibilityScenario` applies as it is built:
    `targets` are the kinds of target M the theorem reads (none: it reads
    no M). A target must carry the scenario's p if it carries a prime, and
    K is then the field M lies over; a theorem without a target takes a K
    of one of the `k_kinds`. `prime_n` asks for n prime rather than odd and
    squarefree.
    """

    targets: tuple[str, ...]
    k_kinds: tuple[str, ...]
    prime_n: bool
    hypotheses: tuple[tuple[str, Check], ...]
    conclude: Callable[[_Engine], tuple[dict, tuple]]
    extra: Callable[[_Engine], list[HypothesisVerdict]] = lambda eng: []


_ASSUMPTIONS = (
    ("A.a", _Engine.congruent),
    ("A.b", _Engine.ramification),
    ("A.c", _Engine.coprime_to_bad_primes),
)
_TORSION_OVER_K = ("A.d", lambda e: e.torsion_vanishes(e.s.field_k))


def _inherits_q_i(eng: _Engine) -> tuple[str, dict]:
    """A.d (over K) is implied by torsion vanishing over M, since K sits inside M."""
    status, _ = eng.torsion_vanishes(eng.s.target)
    return status, {
        "statement": "torsion vanishing over K, implied by Q.i since K is a subfield of M",
        "inherited_from": "Q.i",
    }


def _degree_two_coprime(eng: _Engine) -> tuple[str, dict]:
    g = math.gcd(2, eng.s.n)
    return HOLDS if g == 1 else FAILS, {
        "statement": "order of Gal(M/K) = 2 is coprime to odd n", "gcd": g,
    }


def _nontrivial(pre: str, local: tuple, rank_gap_id: str, k_kinds: tuple) -> _Theorem:
    """Order-p elements of Sha(A/K) from conductor conditions on A[p].

    The plain variant demands that the prime-to-p conductor of A[p] equals
    both conductors over K = Q; the refined variant (nontrivial1) allows
    primes to drop from the conductor when the reduction there is non-split
    multiplicative, over K = Q or a quadratic K via the base-change rules.
    """
    return _Theorem(
        targets=(), k_kinds=k_kinds, prime_n=True,
        hypotheses=(
            (f"{pre}.good-p", _good_at_p),
            (f"{pre}.congruence", _Engine.congruent),
            (f"{pre}.ramification", _Engine.ramification),
            *local,
            (rank_gap_id, _Engine.rank_gap),
        ),
        conclude=_conclude_nontrivial,
    )


THEOREMS = {
    # the base theorem over K itself (no twist, no extension); not over a
    # Kummer K, where irreducibility witnesses are out of reach
    "improv": _Theorem(
        targets=(), k_kinds=("rationals", "quadratic", "cyclotomic"), prime_n=False,
        hypotheses=(
            *_ASSUMPTIONS,
            _TORSION_OVER_K,
            ("I.tamagawa", lambda e: e.tamagawa(e.fa.local_data, e.fb.local_data, e.s.field_k)),
        ),
        conclude=_conclude_improv,
    ),
    # over a quadratic M via twists: (i) torsion vanishing over M, (ii) n
    # coprime to the Tamagawa numbers of the twists over K, (iii) [M:K]
    # coprime to n; the bound is n^(rank B_chi(K) - rank A_chi(K))
    "quadratic": _Theorem(
        targets=("quadratic",), k_kinds=(), prime_n=False,
        hypotheses=(
            *_ASSUMPTIONS,
            ("A.d", _inherits_q_i),
            ("Q.i", lambda e: e.torsion_vanishes(e.s.target)),
            ("Q.ii", lambda e: e.tamagawa(*(f.local_data for f in e.twisted), e.s.field_k)),
            ("Q.iii", _degree_two_coprime),
        ),
        conclude=_conclude_quadratic,
    ),
    "nontrivial": _nontrivial(
        "N",
        (("N.conductor", _conductor_equality), ("N.irreducible", _Engine.irreducible)),
        "N.rank-gap", k_kinds=("rationals",),
    ),
    "nontrivial1": _nontrivial(
        "N1",
        (("N1.a", _nonsplit_drop), ("N1.b", _semistable), ("N1.c", _Engine.irreducible)),
        "N1.d", k_kinds=("rationals", "quadratic"),
    ),
    # over a degree-p Kummer layer M = K(m^(1/p)): (i) ramification of M at
    # primes dividing N/N_A, (ii) p prime to the Tamagawa numbers over K at
    # primes dividing N_A
    "exten": _Theorem(
        targets=("kummer",), k_kinds=(), prime_n=True,
        hypotheses=(
            *_ASSUMPTIONS,
            _TORSION_OVER_K,
            ("E.i", _kummer_ramification),
            ("E.ii", lambda e: e.tamagawa(e.fa.local_data, e.fb.local_data, e.s.field_k,
                                          restrict=sorted(l.q for l in e.fa.local_data))),
        ),
        conclude=_conclude_exten,
    ),
    # over a p-adic Lie tower: the assumption block over its base, plus one
    # verdict per bad prime
    "lie": _Theorem(
        targets=("cyclotomic_zp", "false_tate"), k_kinds=(), prime_n=True,
        hypotheses=(
            *_ASSUMPTIONS,
            _TORSION_OVER_K,  # K is the base of the tower
        ),
        conclude=_conclude_lie,
        extra=_lie_layers,
    ),
}

#: Labeled hypotheses per theorem; certificates carry exactly these ids
#: (the lie theorem appends one per bad prime).
THEOREM_HYPOTHESES = {
    name: [vid for vid, _ in theorem.hypotheses] for name, theorem in THEOREMS.items()
}


def verify_scenario(scenario: VisibilityScenario,
                    dataset: dataio.Dataset | None = None) -> VisibilityCertificate:
    """Check each hypothesis of the scenario's theorem in schema order,
    append the theorem's extra verdicts and the user assertions, and
    conclude."""
    theorem = THEOREMS[scenario.theorem]
    eng = _Engine(scenario, dataset)
    verdicts = [HypothesisVerdict(vid, *check(eng)) for vid, check in theorem.hypotheses]
    verdicts += theorem.extra(eng)
    verdicts += _record_user_assertions(scenario)
    conclusion, overall = eng.conclude(theorem.conclude, _overall(verdicts))
    return VisibilityCertificate(scenario, tuple(verdicts), conclusion, overall,
                                 tuple(eng.rank_uses))
