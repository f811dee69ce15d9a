"""Curve and rank data ingestion: the curve dataset, naive rational point
search, and rank resolution with provenance tracking.

Ranks are the one hypothesis this package cannot prove. Every resolved rank
carries its provenance tier (user > dataset > point-search), and a point
search only ever asserts a lower bound, which `RankRecord.lower_bound_only`
reports. A rank query is keyed once, by the text of its global minimal
model, for the user records and for the dataset's `by_model` index alike:
a `localdata.CurveFacts` query reads that text off the minimal model it
holds, and a raw model gets it from `model_key`. An outside rank table comes
in only as a dataset file, whose every row `load_dataset` checks.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import arith, curves, fields, localdata
from .arith import ArithmeticError_, SoundnessError
from .curves import WeierstrassModel
from .hecke import TORSION_MAX_ORDER, ModCurve

#: Naive height bound of the point search behind the point-search rank tier.
SEARCH_HEIGHT = 2000


class DatasetError(ArithmeticError_):
    """Malformed or inconsistent dataset content."""


@dataclass(frozen=True)
class CurveRecord:
    label: str
    model: WeierstrassModel
    conductor: int
    rank: int
    torsion_order: int


@dataclass(frozen=True)
class RankRecord:
    model: WeierstrassModel
    field: fields.NumberFieldDescriptor
    rank: int
    provenance: str  # dataset | user | point-search-lower-bound | twist-decomposition
    witness_points: tuple = ()
    summands: tuple = ()

    @property
    def lower_bound_only(self) -> bool:
        """Is the rank only a lower bound: a point search's, or a sum with one?"""
        return self.provenance == "point-search-lower-bound" or any(
            s.lower_bound_only for s in self.summands)

    def to_json(self) -> dict:
        out = {
            "curve": [str(a) for a in self.model.ainvs()],
            "field": self.field.to_json(),
            "rank": self.rank,
            "provenance": self.provenance,
        }
        if self.witness_points:
            out["witness_points"] = [[str(x), str(y)] for x, y in self.witness_points]
        if self.summands:
            out["summands"] = [s.to_json() for s in self.summands]
        return out


def rank_record_from_json(blob) -> RankRecord:
    """A user rank record as a scenario gives it: {"curve", "field", "rank"}
    and an optional "provenance" (default "user"). Rejects a malformed
    record, a rank that is not an integer >= 0 and a singular curve."""
    if not isinstance(blob, dict) or not {"curve", "field", "rank"} <= set(blob):
        raise DatasetError(f"bad rank record {blob!r}")
    rank = blob["rank"]
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 0:
        raise DatasetError(f"rank must be a non-negative integer, got {rank!r} in {blob!r}")
    model = curves.parse_curve(blob["curve"])
    curves.invariants(model)  # raises SingularCurveError
    return RankRecord(model, fields.field_from_json(blob["field"]), rank,
                      blob.get("provenance", "user"))


def model_key(model: WeierstrassModel) -> str:
    """The key of `Dataset.by_model`: the text of the global minimal model."""
    minimal, _ = curves.minimal_model(model)
    return str(minimal)


class Dataset:
    """In-memory curve table indexed by label and by minimal model (`by_model`,
    keyed by `model_key`), with one row per label and per minimal model."""

    def __init__(self):
        self.records: list[CurveRecord] = []
        self.by_label: dict[str, CurveRecord] = {}
        self.by_model: dict[str, CurveRecord] = {}

    def __len__(self):
        return len(self.records)

    def add(self, rec: CurveRecord, minimal: WeierstrassModel) -> None:
        """Index rec, whose global minimal model is `minimal`; DatasetError
        if its label or its minimal model is in already."""
        key = str(minimal)
        for index, k, what in ((self.by_label, rec.label, "label"),
                               (self.by_model, key, "minimal model")):
            if k in index:
                raise DatasetError(f"{rec.label}: repeated {what}, first given as {index[k].label}")
        self.records.append(rec)
        self.by_label[rec.label] = rec
        self.by_model[key] = rec


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text: str, what: str) -> int:
    """An ASCII decimal integer, optionally signed with '-': no '+', '_',
    blank or non-ASCII digit, all of which int() would take."""
    if not _DECIMAL.fullmatch(text):
        raise DatasetError(f"{what} must be a decimal integer, got {text!r}")
    return int(text)


def parse_dataset_line(line: str, lineno: int) -> CurveRecord:
    """One row `label|[a1,a2,a3,a4,a6]|conductor|rank|torsion`: the
    a-invariants are JSON integers of a nonsingular model, the other three
    are decimal integers, the rank is >= 0 and the torsion order >= 1."""
    parts = line.split("|")
    if len(parts) != 5:
        raise DatasetError(f"line {lineno}: expected 5 pipe-separated fields, got {len(parts)}")
    label, ainvs_s, cond_s, rank_s, tors_s = (p.strip() for p in parts)
    try:
        ainvs = arith.decode(ainvs_s, "a-invariants", DatasetError)
        if not isinstance(ainvs, list) or any(
                isinstance(a, bool) or not isinstance(a, int) for a in ainvs):
            raise DatasetError(f"a-invariants must be a list of integers, got {ainvs_s}")
        model = WeierstrassModel.from_list(ainvs)
        curves.invariants(model)  # raises SingularCurveError
        cond = _decimal(cond_s, "conductor")
        rank = _decimal(rank_s, "rank")
        tors = _decimal(tors_s, "torsion order")
        if rank < 0:
            raise DatasetError(f"rank must be >= 0, got {rank}")
        if tors < 1:
            raise DatasetError(f"torsion order must be >= 1, got {tors}")
    except ValueError as exc:  # ArithmeticError_, and int() past its digit limit in _decimal
        raise DatasetError(f"line {lineno}: {exc}") from exc
    return CurveRecord(label, model, cond, rank, tors)


def load_dataset(path: str | Path | None = None) -> Dataset:
    """Parse and validate a pipe-delimited dataset; None loads the bundled one.

    Every row's conductor is recomputed with Tate's algorithm; a mismatch is
    a hard error since it means the fixture is corrupt. So is a second row
    with the label or the minimal model of an earlier one. Each row's facts
    come from `localdata.curve_facts`, which serves both checks and keeps
    them for the theorem engine.
    """
    bundled = resources.files("shavis").joinpath("data/curves.dataset")
    source, origin = (bundled, "<bundled>") if path is None else (Path(path), str(path))
    text = arith.decode(source.read_bytes(), origin, DatasetError, as_json=False)
    dataset = Dataset()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rec = parse_dataset_line(line, lineno)
        facts = localdata.curve_facts(rec.model)
        if facts.conductor != rec.conductor:
            raise DatasetError(
                f"{origin} line {lineno}: stated conductor {rec.conductor} of {rec.label} "
                f"disagrees with recomputed {facts.conductor}"
            )
        try:
            dataset.add(rec, facts.minimal)
        except DatasetError as exc:
            raise DatasetError(f"{origin} line {lineno}: {exc}") from exc
    return dataset


# ---------------------------------------------------------------------------
# rational points, naive search

Point = tuple[Fraction, Fraction]  # affine; None is the origin
DEPENDENCE_WINDOW = 8  # relation coefficients searched among triples; pairs use 5x


def point_on_curve(model: WeierstrassModel, pt: Point | None) -> bool:
    if pt is None:
        return True
    a1, a2, a3, a4, a6 = model.ainvs()
    x, y = pt
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


def point_neg(model: WeierstrassModel, pt: Point | None) -> Point | None:
    if pt is None:
        return None
    a1, _, a3, _, _ = model.ainvs()
    x, y = pt
    return (x, -y - a1 * x - a3)


def point_add(model: WeierstrassModel, p1: Point | None, p2: Point | None) -> Point | None:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    a1, a2, a3, a4, a6 = model.ainvs()
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def point_mul(model: WeierstrassModel, k: int, pt: Point | None) -> Point | None:
    if k < 0:
        return point_mul(model, -k, point_neg(model, pt))
    acc, base = None, pt
    while k:
        if k & 1:
            acc = point_add(model, acc, base)
        base = point_add(model, base, base)
        k >>= 1
    return acc


def is_torsion_exact(model: WeierstrassModel, pt: Point | None) -> bool:
    """Torsion test via exact multiples up to the Mazur bound.

    On an integral model every torsion point has 4x integral (generalized
    Nagell-Lutz, Silverman AEC VII.3.4), so any other point is rejected
    before a multiple of it, possibly of huge height, is taken.
    """
    if pt is None:
        return True
    if model.is_integral() and (4 * pt[0]).denominator != 1:
        return False
    acc = pt
    for _ in range(2, TORSION_MAX_ORDER + 1):
        acc = point_add(model, acc, pt)
        if acc is None:
            return True
    return False


def _filter_curves(model: WeierstrassModel) -> list[ModCurve]:
    disc = int(curves.invariants(model).disc)
    out = []
    for q in arith.primes(20000):
        if q > 1000 and disc % q != 0:
            out.append(ModCurve(model.int_ainvs(), q))
            if len(out) == 3:
                return out
    raise ArithmeticError_("no good filter primes found")  # unreachable


def is_torsion(model: WeierstrassModel, pt: Point | None, filters: list[ModCurve]) -> bool:
    """Torsion test: reduction filter first, exact multiples only if needed."""
    if pt is None:
        return True
    for mc in filters:
        if not mc.small_order(mc.reduce(pt)):
            return False
    return is_torsion_exact(model, pt)


def naive_height(pt: Point) -> int:
    x = pt[0]
    return max(abs(x.numerator), x.denominator)


#: Moduli of the residue sieve in point_search, after Stoll's ratpoints: a
#: square integer is a square modulo each of them.
SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29)
_SQUARES_MOD = tuple(frozenset(z * z % m for z in range(m)) for m in SIEVE_MODULI)


def _sieve_mask(coeffs, height_bound: int, repunits) -> int:
    """Bit a + H is set when t(a) = ((c3 a + c2) a + c1) a + c0 is a square
    modulo every sieve modulus, for a in [-H, H]; other a cannot give a point.

    Each modulus's pattern is built for one period (bit i stands for
    a = i - H), then tiled across the range by one multiply with a repunit
    in base 2^m.
    """
    c3, c2, c1, c0 = coeffs
    mask = -1
    for m, squares, repunit in zip(SIEVE_MODULI, _SQUARES_MOD, repunits):
        d3, d2, d1, d0 = c3 % m, c2 % m, c1 % m, c0 % m
        shift = height_bound % m  # residue r = a mod m sits at bit (r + H) mod m
        period = 0
        for r in range(m):
            if (((d3 * r + d2) * r + d1) * r + d0) % m in squares:
                period |= 1 << (r + shift) % m
        mask &= period * repunit
    return mask & ((1 << (2 * height_bound + 1)) - 1)


def point_search(model: WeierstrassModel, height_bound: int) -> tuple[list[Point], int]:
    """Search x = a/b^2 with naive height <= bound; returns (points, rank lower bound).

    Torsion points (order <= 12) are filtered out. Independence among the
    survivors is only tested by a bounded integer-combination search over at
    most 3 points, so the returned count is a lower bound, nothing more.
    """
    if height_bound < 1:
        raise ArithmeticError_("height bound must be >= 1")
    minimal, _ = curves.minimal_model(model)
    filters = _filter_curves(minimal)
    found = _nontorsion_points(minimal, height_bound, filters)
    found.sort(key=naive_height)
    independent = _select_independent(minimal, found, DEPENDENCE_WINDOW, filters)
    return independent, len(independent)


def _nontorsion_points(minimal: WeierstrassModel, height_bound: int,
                       filters: list[ModCurve]) -> list[Point]:
    """The non-torsion points with x = a/b^2, gcd(a, b) = 1, |a| <= bound and
    b^2 <= bound, by b, then ascending a.

    For each b the residue sieve (_sieve_mask) drops the a whose right-hand
    side is a non-square modulo a few small moduli; every survivor still
    takes the exact isqrt test.
    """
    ainvs = minimal.int_ainvs()
    a1, a3 = ainvs[0], ainvs[2]
    b2, b4, b6 = curves.bc_invariants(ainvs)[:3]
    width = 2 * height_bound + 1
    # 1 + 2^m + 2^(2m) + ..., ceil(width / m) terms: tiles an m-bit period
    repunits = [((1 << m * -(-width // m)) - 1) // ((1 << m) - 1) for m in SIEVE_MODULI]
    found: list[Point] = []
    for b in range(1, math.isqrt(height_bound) + 1):
        bb = b * b
        # (2y + a1 x + a3)^2 * b^6 = 4a^3 + b2 a^2 b^2 + 2 b4 a b^4 + b6 b^6
        c3, c2, c1, c0 = 4, b2 * bb, 2 * b4 * b**4, b6 * b**6
        mask = _sieve_mask((c3, c2, c1, c0), height_bound, repunits)
        while mask:
            low = mask & -mask
            mask ^= low
            a = low.bit_length() - 1 - height_bound
            # coprime a, b put a/b^2 in lowest terms, so no x comes twice
            if math.gcd(a, b) != 1:
                continue
            t = ((c3 * a + c2) * a + c1) * a + c0
            if t < 0:
                continue
            r = math.isqrt(t)
            if r * r != t:
                continue
            x = Fraction(a, bb)
            y = (Fraction(r, b**3) - a1 * x - a3) / 2
            pt = (x, y)
            if not point_on_curve(minimal, pt):
                raise SoundnessError(f"point search produced {pt}, which is off the curve")
            if not is_torsion(minimal, pt, filters):
                found.append(pt)
    return found


def _combination_is_trivial_exact(model, pts, coeffs) -> bool:
    acc = None
    for pt, m in zip(pts, coeffs):
        if m:
            acc = point_add(model, acc, point_mul(model, m, pt))
    return is_torsion_exact(model, acc)


def _select_independent(model, pts: list[Point], window: int,
                        filters: list[ModCurve]) -> list[Point]:
    """Greedy selection of up to 3 points with no small integer relation.

    A relation sum(m_i P_i) = torsion survives reduction at good primes, so
    coefficient vectors are screened mod two primes against the precomputed
    small-order point sets; only the survivors get an exact check. Pairs use
    a wider window than triples since the combinatorial cost differs.
    """
    chosen: list[Point] = []
    tables: list[list[dict]] = [[] for _ in filters]

    def multiples(mc, pt, w):
        red = mc.reduce(pt)
        return {m: mc.mul(m, red) for m in range(-w, w + 1)}

    for pt in pts:
        if len(chosen) == 3:
            break
        k = len(chosen) + 1
        w = window if k == 3 else 5 * window
        trial = chosen + [pt]
        trial_tables = [tabs + [multiples(mc, pt, w)] for mc, tabs in zip(filters, tables)]
        dependent = False
        for coeffs in itertools.product(range(-w, w + 1), repeat=k):
            if coeffs[-1] == 0:
                continue  # relations not involving the new point were already excluded
            plausible = True
            for mc, tabs in zip(filters, trial_tables):
                acc = None
                for tab, m in zip(tabs, coeffs):
                    if m not in tab:
                        plausible = False
                        break
                    acc = mc.add(acc, tab[m])
                if not plausible or acc not in mc.small_order_set():
                    plausible = False
                    break
            if plausible and _combination_is_trivial_exact(model, trial, coeffs):
                dependent = True
                break
        if not dependent:
            chosen.append(pt)
            tables = [
                [multiples(mc, q, 5 * window) for q in chosen] for mc in filters
            ]
    return chosen


# ---------------------------------------------------------------------------
# rank resolution

class RankSources:
    """Prioritized rank lookup: user > dataset > point search.

    User records are keyed once, here, by minimal model and field; where two
    share a key, the first one given answers.
    """

    def __init__(self, dataset: Dataset | None = None, user_records: list[RankRecord] = ()):
        self.dataset = dataset
        self.user_records: dict[tuple, RankRecord] = {}
        for rec in user_records:
            self.user_records.setdefault((model_key(rec.model), rec.field), rec)


def _rank_over_q(model: WeierstrassModel, key: str, sources: RankSources) -> RankRecord:
    """The rank over Q of a model whose `model_key` is `key`, from the user
    records, the dataset or a point search, in that order."""
    user = sources.user_records.get((key, fields.RATIONALS))
    if user is not None:
        return user
    hit = sources.dataset.by_model.get(key) if sources.dataset is not None else None
    if hit is not None:
        return RankRecord(model, fields.RATIONALS, hit.rank, "dataset")
    pts, bound = point_search(model, SEARCH_HEIGHT)
    return RankRecord(model, fields.RATIONALS, bound, "point-search-lower-bound",
                      witness_points=tuple(pts))


def rank_over(
    curve: WeierstrassModel | localdata.CurveFacts,
    field: fields.NumberFieldDescriptor,
    sources: RankSources,
) -> RankRecord:
    """Resolve the Mordell-Weil rank of the curve over the field.

    The query is keyed once. A `localdata.CurveFacts` is keyed by the text
    of the minimal model it holds, the same text `model_key` would compute,
    and its record carries that minimal model; a raw model is keyed by
    `model_key` and its record carries the model as given.

    Over Q: direct lookup through the source tiers, all read with that key.
    Over a quadratic field: rank(E/Q) + rank(E^d/Q) (the standard twist
    decomposition), the first summand read with the same key and the twist
    queried as a raw model. Anything else must come from a user record.
    """
    if isinstance(curve, localdata.CurveFacts):
        model, key = curve.minimal, str(curve.minimal)
    else:
        model, key = curve, model_key(curve)
    if field.kind == "rationals":
        return _rank_over_q(model, key, sources)
    user = sources.user_records.get((key, field))
    if user is not None:
        return user
    if field.kind == "quadratic":
        d = arith.squarefree_part(field.disc)
        base = _rank_over_q(model, key, sources)
        twisted = rank_over(curves.quadratic_twist(model, d), fields.RATIONALS, sources)
        return RankRecord(
            model, field, base.rank + twisted.rank, "twist-decomposition",
            summands=(base, twisted),
        )
    raise fields.UnsupportedFieldError(
        f"rank over {field.describe()} must be supplied as a user record"
    )
