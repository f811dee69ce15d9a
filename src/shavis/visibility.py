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
from fractions import Fraction

from . import arith, congruence, curves, dataio, fields, localdata
from .arith import ArithmeticError_, SoundnessError
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


class ScenarioError(ValueError):
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
    target_quadratic: fields.NumberFieldDescriptor | None = None
    target_kummer: fields.NumberFieldDescriptor | None = None
    target_tower: fields.TowerDescriptor | None = None
    rank_records: tuple = ()
    user_assertions: tuple = ()
    mode: str = congruence.HEURISTIC
    congruence_limit: int | None = None
    evidence_level: str = "summary"

    def __post_init__(self):
        if self.theorem not in THEOREM_HYPOTHESES:
            raise ScenarioError(f"unknown theorem {self.theorem!r}")
        if self.n % 2 == 0 or self.n < 3:
            raise ScenarioError(f"n must be odd and > 1, got {self.n}")
        if not arith.is_squarefree(self.n):
            raise ScenarioError(f"composite n must be squarefree, got {self.n}")
        if curves.minimal_model(self.curve_a)[0] == curves.minimal_model(self.curve_b)[0]:
            raise ScenarioError("curves A and B coincide as minimal models")
        if self.theorem == "quadratic" and self.target_quadratic is None:
            raise ScenarioError("quadratic theorem needs a quadratic target field")
        if self.theorem == "exten" and self.target_kummer is None:
            raise ScenarioError("exten theorem needs a kummer target field")
        if self.theorem == "lie" and self.target_tower is None:
            raise ScenarioError("lie theorem needs a tower target")

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
        if self.target_quadratic:
            out["target"] = self.target_quadratic.to_json()
        elif self.target_kummer:
            out["target"] = self.target_kummer.to_json()
        elif self.target_tower:
            out["target"] = self.target_tower.to_json()
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


#: Entries kept by each of the two cross-scenario memos below.
MEMO_SIZE = 32


@dataclass(frozen=True)
class CurveFacts:
    """The facts the engine reads of one input curve: its minimal model, its
    conductor and the local data at each bad prime."""

    minimal: WeierstrassModel
    conductor: int
    local_data: tuple[localdata.LocalReductionData, ...]


@functools.lru_cache(maxsize=MEMO_SIZE)
def curve_facts(model: WeierstrassModel) -> CurveFacts:
    """Minimal model and conductor of an input curve, derived once per process."""
    minimal = curves.minimal_model(model)[0]
    n, locs = localdata.conductor(minimal)
    return CurveFacts(minimal, n, tuple(locs))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _congruence_certificate(a_min: WeierstrassModel, b_min: WeierstrassModel, p: int,
                            mode: str, bound: int | None) -> congruence.CongruenceCertificate:
    """One congruence sweep per minimal pair, prime, mode and bound, shared by
    every scenario with those four, whatever its theorem and target field."""
    return congruence.verify_congruence(a_min, b_min, p, mode=mode, bound=bound)


def clear_memos() -> None:
    """Forget every curve fact and congruence certificate kept across scenarios."""
    curve_facts.cache_clear()
    _congruence_certificate.cache_clear()


class _Engine:
    """Shared hypothesis evaluation for one scenario.

    Every check returns (status, evidence); the theorem table supplies the
    ids. Twisted models, torsion verdicts and ranks are computed once, so a
    hypothesis and the conclusion that both consume one share a resolution.
    The curve facts and congruence certificates, which do not depend on the
    target field, come from the process-wide memos above.
    """

    def __init__(self, scenario: VisibilityScenario, dataset: dataio.Dataset | None = None,
                 remote: "dataio.RemoteClient | None" = None):
        self.s = scenario
        fa, fb = curve_facts(scenario.curve_a), curve_facts(scenario.curve_b)
        self.a_min, self.b_min = fa.minimal, fb.minimal
        self.n_a, self.n_b = fa.conductor, fb.conductor
        # lists of the engine's own: editing one cannot reach the memo
        self.locs_a, self.locs_b = list(fa.local_data), list(fb.local_data)
        self.rank_uses: list[dict] = []
        self._ranks: dict = {}
        self._torsion: dict = {}
        user_recs = [
            dataio.RankRecord(
                WeierstrassModel.from_list([Fraction(x) for x in r["curve"]]),
                _field_from_json(r["field"]),
                int(r["rank"]),
                r.get("provenance", "user"),
            )
            for r in scenario.rank_records
        ]
        self.sources = dataio.RankSources(dataset=dataset, user_records=user_recs, remote=remote)

    @functools.cached_property
    def twisted(self) -> tuple[WeierstrassModel, WeierstrassModel]:
        """Minimal models of A and B twisted by the quadratic target field."""
        d = arith.squarefree_part(self.s.target_quadratic.disc)
        return tuple(curves.minimal_model(curves.quadratic_twist(m, d))[0]
                     for m in (self.a_min, self.b_min))

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
            p: _congruence_certificate(self.a_min, self.b_min, p, self.s.mode,
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
        bad = sorted(set(l.q for l in self.locs_a) | set(l.q for l in self.locs_b))
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
        the field covers every group involved. The fallback is a direct
        rational p-torsion search through the quadratic twist decomposition.
        """
        if field in self._torsion:
            return self._torsion[field]
        detail = {}
        status = HOLDS
        for p in self.s.n_primes:
            verdict = congruence.irreducible_mod_p(self.a_min, p, field)
            detail[str(p)] = verdict.to_json()
            if verdict.status == "Irreducible":
                continue
            if verdict.status == "ReducibleDetected":
                status = FAILS
                continue
            fallback = self._torsion_search(field, p)
            detail[str(p)]["fallback"] = fallback
            if fallback["status"] == FAILS:
                status = FAILS
            elif fallback["status"] == INCONCLUSIVE and status == HOLDS:
                status = INCONCLUSIVE
        ev = {
            "statement": f"B({field.describe()})[n] = 0 and (J/B)({field.describe()})[n] = 0",
            "per_prime": detail,
        }
        self._torsion[field] = status, ev
        return status, ev

    def _torsion_search(self, field, p) -> dict:
        models = {"A": self.a_min, "B": self.b_min}
        if field.kind == "quadratic":
            d = arith.squarefree_part(field.disc)
        elif field.kind == "cyclotomic" and field.p == 3:
            d = -3  # Q(mu_3) = Q(sqrt(-3))
        elif field.kind == "rationals":
            d = None
        else:
            return {"status": INCONCLUSIVE,
                    "note": f"no torsion decomposition over {field.describe()}"}
        if d is not None:
            models["A-twist"] = curves.minimal_model(curves.quadratic_twist(self.a_min, d))[0]
            models["B-twist"] = curves.minimal_model(curves.quadratic_twist(self.b_min, d))[0]
        found = {}
        for name, m in models.items():
            pts = [
                str(x)
                for x in congruence.rational_division_roots(m, p)
                if congruence.has_rational_point_with_x(m, x)
            ]
            if pts:
                found[name] = pts
        if found:
            return {"status": FAILS, "rational_p_torsion": found}
        return {"status": HOLDS, "note": f"no rational {p}-torsion on any factor"}

    def tamagawa(self, model_a, model_b, field, restrict=None) -> tuple[str, dict]:
        verdicts = {}
        status = HOLDS
        for name, m in (("A", model_a), ("B", model_b)):
            per_prime = {}
            for p in self.s.n_primes:
                tv = localdata.is_p_unit_tamagawa(m, p, field, restrict_to=restrict)
                per_prime[str(p)] = tv.to_json()
                if tv.offending:
                    status = FAILS
                elif tv.inconclusive and status != FAILS:
                    status = INCONCLUSIVE
            verdicts[name] = per_prime
        ev = {
            "statement": f"n coprime to all Tamagawa numbers over {field.describe()}"
            + (f" at primes dividing {restrict}" if restrict else ""),
            "curves": verdicts,
        }
        return status, ev

    # ---- the order-p (nontrivial) theorems

    def irreducible(self) -> tuple[str, dict]:
        p, k = self.s.n, self.s.field_k
        irr = congruence.irreducible_mod_p(self.a_min, p, k)
        status = {"Irreducible": HOLDS, "ReducibleDetected": FAILS}.get(irr.status, INCONCLUSIVE)
        return status, {
            "statement": f"A[{p}] irreducible over {k.describe()}",
            "verdict": irr.to_json(),
        }

    def rank_gap(self) -> tuple[str, dict]:
        k = self.s.field_k
        rank_a = self.rank(self.a_min, k).rank
        rank_b = self.rank(self.b_min, k).rank
        return HOLDS if rank_b > rank_a else FAILS, {
            "statement": f"rank B({k.describe()}) > rank A({k.describe()})",
            "rank_A": rank_a, "rank_B": rank_b,
        }

    def semistable_mod_p(self):
        """(name, N, local data, Nbar) per curve; Nbar is None when the curve
        is not semistable or is bad at p, where it is not computed."""
        p = self.s.n
        for name, model, n, locs in (("A", self.a_min, self.n_a, self.locs_a),
                                     ("B", self.b_min, self.n_b, self.locs_b)):
            ok = n % p != 0 and all(l.f == 1 for l in locs)
            yield name, n, locs, congruence.mod_p_conductor_semistable(model, p) if ok else None


def _field_from_json(blob: dict) -> fields.NumberFieldDescriptor:
    kind = blob.get("kind") if isinstance(blob, dict) else None
    try:
        if kind == "rationals":
            return fields.RATIONALS
        if kind == "quadratic":
            return fields.quadratic_field(int(blob["d"]))
        if kind == "cyclotomic":
            return fields.cyclotomic_field(int(blob["p"]))
        if kind == "kummer":
            return fields.kummer_layer(int(blob["p"]), int(blob["m"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {kind} field {blob!r}: {exc}") from exc
    raise ScenarioError(f"unknown field kind {kind!r}")


def _tower_from_json(blob: dict) -> fields.TowerDescriptor:
    kind = blob.get("kind")
    try:
        if kind == "cyclotomic_zp":
            return fields.TowerDescriptor("cyclotomic_zp", p=int(blob["p"]))
        if kind == "false_tate":
            return fields.TowerDescriptor("false_tate", p=int(blob["p"]), m=int(blob["m"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {kind} tower {blob!r}: {exc}") from exc
    raise ScenarioError(f"unknown tower kind {kind!r}")


def _uses_search_bound(record) -> bool:
    if record.provenance == "point-search-lower-bound":
        return True
    return any(_uses_search_bound(s) for s in record.summands)


def _degrade_search_rank(conclusion: dict, overall: str, *a_side_records) -> str:
    """A point-search rank is a lower bound, but the kernel bound n^rank(A)
    needs an upper bound on the A-side rank: degrade to partial and say so."""
    if any(_uses_search_bound(r) for r in a_side_records):
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
    return _gap_conclusion(eng, eng.a_min, eng.b_min, k,
                           f"Vis_J(Sha(A/{k.describe()})) contains a subgroup")


def _conclude_quadratic(eng: _Engine):
    a_tw, b_tw = eng.twisted
    conclusion, a_side = _gap_conclusion(
        eng, a_tw, b_tw, fields.RATIONALS,
        f"Vis_J(Sha(A/{eng.s.target_quadratic.describe()})) contains a subgroup",
    )
    conclusion["twisted_models"] = [str(a_tw), str(b_tw)]
    return conclusion, a_side


def _conclude_nontrivial(eng: _Engine):
    k, p = eng.s.field_k, eng.s.n
    return _gap_conclusion(
        eng, eng.a_min, eng.b_min, k,
        f"Sha(A/{k.describe()}) contains an element of order {p}; visible subgroup",
    )


def _good_at_p(eng: _Engine) -> tuple[str, dict]:
    p = eng.s.n
    good = eng.n_a % p != 0 and eng.n_b % p != 0
    return HOLDS if good else FAILS, {
        "statement": f"both curves have good reduction at {p}",
        "N_A": eng.n_a, "N_B": eng.n_b,
    }


def _semistable(eng: _Engine) -> tuple[str, dict]:
    semistable = all(l.f == 1 for l in (*eng.locs_a, *eng.locs_b))
    return HOLDS if semistable else FAILS, {
        "statement": "A and B are semistable (squarefree conductors)",
        "N_A": eng.n_a, "N_B": eng.n_b,
    }


def _not_semistable() -> dict:
    return {"status": INCONCLUSIVE, "note": "not semistable or bad at p"}


def _nonsplit_drop(eng: _Engine) -> tuple[str, dict]:
    """nontrivial1 (a): primes dropping from the mod-p conductor must be
    non-split multiplicative over K."""
    p, field_k = eng.s.n, eng.s.field_k
    detail = {}
    status = HOLDS
    for name, n, locs, nbar in eng.semistable_mod_p():
        if nbar is None:
            detail[name] = _not_semistable()
            status = INCONCLUSIVE if status == HOLDS else status
            continue
        dropped = [l for l in locs if l.v_delta % p == 0]
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
            status = FAILS
        detail[name] = entry
    return status, {
        "statement": "primes dividing N/Nbar are non-split multiplicative over K",
        "curves": detail,
    }


def _conductor_equality(eng: _Engine) -> tuple[str, dict]:
    detail = {}
    status = HOLDS
    for name, n, _, nbar in eng.semistable_mod_p():
        if nbar is None:
            detail[name] = _not_semistable()
            status = INCONCLUSIVE if status == HOLDS else status
            continue
        detail[name] = {"N": n, "Nbar": nbar}
        if nbar != n:
            status = FAILS
    if status == HOLDS and eng.n_a != eng.n_b:
        status = FAILS
        detail["note"] = "conductors of A and B differ"
    return status, {
        "statement": "prime-to-p conductor of A[p] equals the conductors of A and of B",
        "curves": detail,
    }


def _kummer_ramification(eng: _Engine) -> tuple[str, dict]:
    """exten (i): e_v(M) divisible by p at primes dividing N/N_A."""
    p, kummer = eng.s.n, eng.s.target_kummer
    extra = sorted(set(l.q for l in eng.locs_b) - set(l.q for l in eng.locs_a))
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
    of A(M); the image has rank >= rank B(K) - that kernel bound."""
    s, p, kummer = eng.s, eng.s.n, eng.s.target_kummer
    rank_a_k = eng.rank(eng.a_min, s.field_k).rank
    rank_a_m = eng.rank(eng.a_min, kummer).rank
    rank_b_k = eng.rank(eng.b_min, s.field_k).rank
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
    p, tower = eng.s.n, eng.s.target_tower
    base = tower.base
    locs = {"A": {l.q: l for l in eng.locs_a}, "B": {l.q: l for l in eng.locs_b}}
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
            split = fields.splitting_data(base, q)
            try:
                c = localdata.tamagawa_over_extension(
                    by_q[q], localdata.LocalFieldExtension(q, split.e, split.f)
                )
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
        "statement": f"the visibility map lands in Vis_J(Sha(A/{eng.s.target_tower.describe()}))",
        "min_visible_order": 1,
        "kernel_bound": 1,
        "rank_gap": 0,
        "vacuous": False,
        "injectivity": "injective when A has finitely many points up the tower "
                       "(user-assertable, not computed)",
    }
    return conclusion, ()


# ---- up-front validation, run before any computation

def _validate_improv(s: VisibilityScenario) -> None:
    if s.field_k.kind == "kummer":
        raise ScenarioError("improv theorem supports K = Q, quadratic or cyclotomic; "
                            "irreducibility witnesses over a kummer K are unsupported")


def _validate_quadratic(s: VisibilityScenario) -> None:
    if s.field_k.kind != "rationals":
        raise ScenarioError("quadratic theorem path supports K = Q; twists of curves "
                            "over bigger K are out of scope")


def _validate_nontrivial(s: VisibilityScenario, refined: bool = False) -> None:
    if s.field_k.kind not in ("rationals", "quadratic"):
        raise ScenarioError("nontrivial theorems support K = Q or quadratic K")
    if not refined and s.field_k.kind != "rationals":
        raise ScenarioError("plain nontrivial conductor comparison is computed over Q only")
    if not arith.is_prime(s.n):
        raise ScenarioError("nontrivial theorems need prime n")


def _validate_exten(s: VisibilityScenario) -> None:
    p = s.n
    if not arith.is_prime(p):
        raise ScenarioError("exten theorem needs prime n = p")
    if s.target_kummer.p != p:
        raise ScenarioError(f"kummer layer prime {s.target_kummer.p} != scenario p {p}")
    if s.field_k != fields.cyclotomic_field(p):
        raise ScenarioError(
            f"kummer layers live over Q(mu_{p}); set field_k to cyclotomic {p}"
        )


def _validate_lie(s: VisibilityScenario) -> None:
    p = s.n
    if not arith.is_prime(p):
        raise ScenarioError("lie theorem needs prime n = p")
    if s.target_tower.p != p:
        raise ScenarioError(f"tower prime {s.target_tower.p} != scenario p {p}")


def verify_lemma_twist(model: WeierstrassModel, d: int, p: int) -> list[HypothesisVerdict]:
    """Conditions under which every Tamagawa number of the twist is a p-unit,
    cross-checked against a direct computation on the twisted model."""
    if p == 2 or not arith.is_prime(p):
        raise ArithmeticError_(f"need an odd prime, got {p}")
    minimal, _ = curves.minimal_model(model)
    n, locs = localdata.conductor(minimal)
    if n % p == 0:
        raise ArithmeticError_(f"curve has bad reduction at p = {p}")
    n_chi = arith.fundamental_discriminant(d)
    out = []

    semistable = all(l.f == 1 for l in locs)
    if semistable:
        nbar = congruence.mod_p_conductor_semistable(minimal, p)
        ratio = n // nbar
        ok_i = math.gcd(nbar, ratio) == 1 and arith.is_squarefree(ratio)
        out.append(HypothesisVerdict(
            "T.i", HOLDS if ok_i else FAILS,
            {"statement": "Nbar coprime to N/Nbar and N/Nbar squarefree",
             "Nbar": nbar, "N_over_Nbar": ratio}))
        dropped = [l for l in locs if l.v_delta % p == 0]
        bad_ii = []
        for l in dropped:
            nonsplit_in_m = arith.kronecker_symbol(n_chi, l.q) == -1
            if nonsplit_in_m != (l.reduction_class == localdata.SPLIT_MULT):
                bad_ii.append(l.q)
        out.append(HypothesisVerdict(
            "T.ii", HOLDS if not bad_ii else FAILS,
            {"statement": "q | N/Nbar non-split in M iff A split multiplicative at q",
             "dropped": [l.q for l in dropped], "violations": bad_ii}))
    else:
        out.append(HypothesisVerdict(
            "T.i", INCONCLUSIVE,
            {"statement": "Nbar computation needs a semistable curve", "N": n}))
        out.append(HypothesisVerdict("T.ii", INCONCLUSIVE, {"inherited": "T.i"}))

    g = math.gcd(n_chi, p * n)
    out.append(HypothesisVerdict(
        "T.iii", HOLDS if g == 1 else FAILS,
        {"statement": "N_chi coprime to p*N_A", "N_chi": n_chi, "gcd": g}))
    if p > 3:
        parity = HypothesisVerdict("T.parity", HOLDS, {"statement": "p > 3"})
    else:
        parity = HypothesisVerdict(
            "T.parity", HOLDS if n_chi % 2 == 1 else FAILS,
            {"statement": "p = 3 requires odd N_chi", "N_chi": n_chi})
    out.append(parity)

    applicable = all(v.status == HOLDS for v in out)
    twisted = curves.minimal_model(curves.quadratic_twist(minimal, arith.squarefree_part(d)))[0]
    direct = localdata.is_p_unit_tamagawa(twisted, p, fields.RATIONALS)
    consistent = (not applicable) or direct.all_coprime
    out.append(HypothesisVerdict(
        "T.conclusion",
        HOLDS if (applicable and direct.all_coprime) else
        (INCONCLUSIVE if not applicable else FAILS),
        {"statement": f"all Tamagawa numbers of the twist are {p}-adic units",
         "lemma_applicable": applicable,
         "direct_check": direct.to_json(),
         "consistent": consistent}))
    if applicable and not direct.all_coprime:
        raise SoundnessError(
            f"lemma hypotheses hold but direct Tamagawa check fails for twist by {d}: "
            f"{direct.to_json()}"
        )
    return out


def check_analytic_divisibility(certificate: VisibilityCertificate,
                                l_ratio: Fraction,
                                derivative_order: int = 0) -> dict:
    """Divisibility check on a user-supplied algebraic L-ratio.

    Requires a certified order-p certificate from one of the nontrivial
    theorems; asserts p divides the numerator of the supplied ratio (the
    L-value itself is never computed here).
    """
    if certificate.scenario.theorem not in ("nontrivial", "nontrivial1"):
        raise ArithmeticError_("analytic divisibility needs a nontrivial-theorem certificate")
    if certificate.overall != CERTIFIED:
        raise ArithmeticError_(f"prerequisite certificate is {certificate.overall}, not certified")
    if derivative_order not in (0, 1):
        raise ArithmeticError_("derivative order must be 0 or 1")
    p = certificate.scenario.n
    l_ratio = Fraction(l_ratio)
    val = arith.valuation(l_ratio.numerator, p) if l_ratio != 0 else arith.INFINITY
    consistent = l_ratio == 0 or val >= 1
    quantity = (
        "L(A,1)/Omega_A" if derivative_order == 0
        else "L'(A,1)/(R(A/Q) * Omega_A), L(A,s) having a simple zero at s = 1"
    )
    return {
        "p": p,
        "quantity": quantity,
        "l_ratio": str(l_ratio),
        "valuation_at_p": "inf" if val == arith.INFINITY else int(val),
        "consistent": consistent,
        "note": (
            f"{p} divides the numerator, as the certified certificate predicts"
            if consistent
            else f"{p} does not divide the numerator: contradicts the certificate, "
                 "check the supplied ratio and rank records"
        ),
    }


# ---------------------------------------------------------------------------
# the theorem table

Check = Callable[[_Engine], tuple[str, dict]]


@dataclass(frozen=True)
class _Theorem:
    """One visibility theorem: its validation, its labeled hypotheses in
    certificate order, verdicts beyond the schema, and its conclusion,
    which returns the conclusion and the A-side rank records it consumed."""

    validate: Callable[[VisibilityScenario], None]
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
    status, _ = eng.torsion_vanishes(eng.s.target_quadratic)
    return status, {
        "statement": "torsion vanishing over K, implied by Q.i since K is a subfield of M",
        "inherited_from": "Q.i",
    }


def _degree_two_coprime(eng: _Engine) -> tuple[str, dict]:
    g = math.gcd(2, eng.s.n)
    return HOLDS if g == 1 else FAILS, {
        "statement": "order of Gal(M/K) = 2 is coprime to odd n", "gcd": g,
    }


def _nontrivial(pre: str, local: tuple, rank_gap_id: str, refined: bool) -> _Theorem:
    """Order-p elements of Sha(A/K) from conductor conditions on A[p].

    The plain variant demands that the prime-to-p conductor of A[p] equals
    both conductors over K = Q; the refined variant (nontrivial1) allows
    primes to drop from the conductor when the reduction there is non-split
    multiplicative, over K = Q or a quadratic K via the base-change rules.
    """
    return _Theorem(
        validate=functools.partial(_validate_nontrivial, refined=refined),
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
    # the base theorem over K itself (no twist, no extension)
    "improv": _Theorem(
        validate=_validate_improv,
        hypotheses=(
            *_ASSUMPTIONS,
            _TORSION_OVER_K,
            ("I.tamagawa", lambda e: e.tamagawa(e.a_min, e.b_min, e.s.field_k)),
        ),
        conclude=_conclude_improv,
    ),
    # over a quadratic M via twists: (i) torsion vanishing over M, (ii) n
    # coprime to the Tamagawa numbers of the twists over K, (iii) [M:K]
    # coprime to n; the bound is n^(rank B_chi(K) - rank A_chi(K))
    "quadratic": _Theorem(
        validate=_validate_quadratic,
        hypotheses=(
            *_ASSUMPTIONS,
            ("A.d", _inherits_q_i),
            ("Q.i", lambda e: e.torsion_vanishes(e.s.target_quadratic)),
            ("Q.ii", lambda e: e.tamagawa(*e.twisted, e.s.field_k)),
            ("Q.iii", _degree_two_coprime),
        ),
        conclude=_conclude_quadratic,
    ),
    "nontrivial": _nontrivial(
        "N",
        (("N.conductor", _conductor_equality), ("N.irreducible", _Engine.irreducible)),
        "N.rank-gap", refined=False,
    ),
    "nontrivial1": _nontrivial(
        "N1",
        (("N1.a", _nonsplit_drop), ("N1.b", _semistable), ("N1.c", _Engine.irreducible)),
        "N1.d", refined=True,
    ),
    # over a degree-p Kummer layer M = K(m^(1/p)): (i) ramification of M at
    # primes dividing N/N_A, (ii) p prime to the Tamagawa numbers over K at
    # primes dividing N_A
    "exten": _Theorem(
        validate=_validate_exten,
        hypotheses=(
            *_ASSUMPTIONS,
            _TORSION_OVER_K,
            ("E.i", _kummer_ramification),
            ("E.ii", lambda e: e.tamagawa(e.a_min, e.b_min, e.s.field_k,
                                          restrict=sorted(l.q for l in e.locs_a))),
        ),
        conclude=_conclude_exten,
    ),
    # over a p-adic Lie tower: the assumption block over its base, plus one
    # verdict per bad prime
    "lie": _Theorem(
        validate=_validate_lie,
        hypotheses=(
            *_ASSUMPTIONS,
            ("A.d", lambda e: e.torsion_vanishes(e.s.target_tower.base)),
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
                    dataset: dataio.Dataset | None = None,
                    remote: dataio.RemoteClient | None = None) -> VisibilityCertificate:
    """Validate the scenario for its theorem, check each hypothesis in schema
    order, append the theorem's extra verdicts and the user assertions, and
    conclude."""
    theorem = THEOREMS[scenario.theorem]
    theorem.validate(scenario)
    eng = _Engine(scenario, dataset, remote)
    verdicts = [HypothesisVerdict(vid, *check(eng)) for vid, check in theorem.hypotheses]
    verdicts += theorem.extra(eng)
    verdicts += _record_user_assertions(scenario)
    conclusion, overall = eng.conclude(theorem.conclude, _overall(verdicts))
    return VisibilityCertificate(scenario, tuple(verdicts), conclusion, overall,
                                 tuple(eng.rank_uses))
