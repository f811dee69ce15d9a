"""Curve and rank data ingestion: the bundled dataset, a cached remote curve
database client, naive rational point search, and rank resolution with
provenance tracking.

Ranks are the one hypothesis this package cannot prove. Every resolved rank
carries its provenance tier (user > dataset > remote > point-search), and a
point search only ever asserts a lower bound.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import arith, curves, fields, localdata
from .arith import ArithmeticError_, SoundnessError
from .curves import WeierstrassModel
from .hecke import TORSION_MAX_ORDER, ModCurve


class DatasetError(ValueError):
    """Malformed or inconsistent dataset content."""


class RemoteUnavailableError(RuntimeError):
    """Remote fetch failed and the cache has no answer."""


class RemoteSchemaError(ValueError):
    """Remote response did not match the expected shape."""


@dataclass(frozen=True)
class CurveRecord:
    label: str
    model: WeierstrassModel
    conductor: int
    rank: int
    torsion_order: int
    source: str  # dataset | remote | user

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "ainvs": [str(a) for a in self.model.int_ainvs()],
            "conductor": self.conductor,
            "rank": self.rank,
            "torsion_order": self.torsion_order,
            "source": self.source,
        }

    @classmethod
    def from_json(cls, blob: dict, source: str = "remote") -> "CurveRecord":
        return cls(
            label=str(blob["label"]),
            model=WeierstrassModel.from_list([int(a) for a in blob["ainvs"]]),
            conductor=int(blob["conductor"]),
            rank=int(blob["rank"]),
            torsion_order=int(blob.get("torsion_order", blob.get("torsion", 0))),
            source=source,
        )


@dataclass(frozen=True)
class RankRecord:
    model: WeierstrassModel
    field: fields.NumberFieldDescriptor
    rank: int
    provenance: str  # dataset | remote | user | point-search-lower-bound | twist-decomposition
    witness_points: tuple = ()
    summands: tuple = ()

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


def model_key(model: WeierstrassModel) -> str:
    minimal, _ = curves.minimal_model(model)
    return str(minimal)


class Dataset:
    """In-memory curve table indexed by label and by conductor."""

    def __init__(self, records: list[CurveRecord]):
        self.records = records
        self.by_label = {r.label: r for r in records}
        self.by_conductor: dict[int, list[CurveRecord]] = {}
        self.by_model = {}
        for r in records:
            self.by_conductor.setdefault(r.conductor, []).append(r)
            self.by_model[model_key(r.model)] = r

    def __len__(self):
        return len(self.records)

    def lookup_model(self, model: WeierstrassModel) -> CurveRecord | None:
        return self.by_model.get(model_key(model))


def parse_dataset_line(line: str, lineno: int) -> CurveRecord:
    parts = line.split("|")
    if len(parts) != 5:
        raise DatasetError(f"line {lineno}: expected 5 pipe-separated fields, got {len(parts)}")
    label, ainvs_s, cond_s, rank_s, tors_s = (p.strip() for p in parts)
    try:
        ainvs = json.loads(ainvs_s)
        model = WeierstrassModel.from_list([int(a) for a in ainvs])
        cond, rank, tors = int(cond_s), int(rank_s), int(tors_s)
    except (ValueError, TypeError, ArithmeticError_) as exc:
        raise DatasetError(f"line {lineno}: {exc}") from exc
    return CurveRecord(label, model, cond, rank, tors, "dataset")


def load_dataset(path: str | Path | None = None) -> Dataset:
    """Parse and validate a pipe-delimited dataset; None loads the bundled one.

    Every row's conductor is recomputed with Tate's algorithm; a mismatch is
    a hard error since it means the fixture is corrupt.
    """
    if path is None:
        text = resources.files("shavis").joinpath("data/curves.dataset").read_text()
        origin = "<bundled>"
    else:
        text = Path(path).read_text()
        origin = str(path)
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rec = parse_dataset_line(line, lineno)
        recomputed, _ = localdata.conductor(rec.model)
        if recomputed != rec.conductor:
            raise DatasetError(
                f"{origin} line {lineno}: stated conductor {rec.conductor} of {rec.label} "
                f"disagrees with recomputed {recomputed}"
            )
        records.append(rec)
    return Dataset(records)


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
        for coeffs in _iter_coeffs(k, w):
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


def _iter_coeffs(k: int, window: int):
    rng = range(-window, window + 1)
    if k == 1:
        for a in rng:
            yield (a,)
    elif k == 2:
        for a in rng:
            for b in rng:
                yield (a, b)
    else:
        for a in rng:
            for b in rng:
                for c in rng:
                    yield (a, b, c)


# ---------------------------------------------------------------------------
# remote client

DEFAULT_BASE_URL = "https://www.lmfdb.org/api/ec_curvedata"
ENV_BASE_URL = "SHAVIS_DB_URL"
ENV_OFFLINE = "SHAVIS_OFFLINE"


def _default_fetcher(url: str):
    from urllib.request import urlopen  # loads ssl and hashlib; only the remote tier needs them

    with urlopen(url, timeout=30) as resp:  # HTTP error statuses raise
        return json.load(resp)


def _lmfdb_adapter(payload: dict) -> list[dict]:
    """Map an LMFDB-style response onto record dicts."""
    if not isinstance(payload, dict) or "data" not in payload:
        raise RemoteSchemaError(f"unexpected response shape: {str(payload)[:200]}")
    out = []
    for row in payload["data"]:
        try:
            out.append(
                {
                    "label": row.get("lmfdb_label") or row["label"],
                    "ainvs": row["ainvs"],
                    "conductor": row["conductor"],
                    "rank": row["rank"],
                    "torsion_order": row.get("torsion", row.get("torsion_order", 0)),
                }
            )
        except (KeyError, TypeError) as exc:
            raise RemoteSchemaError(f"missing field {exc} in row {str(row)[:200]}") from exc
    return out


class RemoteClient:
    """Cached HTTP client for an LMFDB-style JSON curve database.

    Responses are cached on disk keyed by the query; offline mode serves the
    cache only. Whether the remote tier runs at all is the CLI's decision
    (SHAVIS_OFFLINE).
    """

    def __init__(self, base_url=None, cache_dir=None, offline=False, fetcher=None):
        self.base_url = base_url or os.environ.get(ENV_BASE_URL, DEFAULT_BASE_URL)
        self.cache_dir = Path(cache_dir) if cache_dir else Path.home() / ".cache" / "shavis"
        self.offline = offline
        self.fetcher = fetcher or _default_fetcher
        self.request_count = 0

    def _url(self, query: dict) -> str:
        params = "&".join(f"{k}={v}" for k, v in sorted(query.items()))
        return f"{self.base_url}/?{params}&_format=json"

    def _cache_path(self, url: str) -> Path:
        import hashlib  # loads OpenSSL; only the remote tier needs it

        digest = hashlib.sha256(url.encode()).hexdigest()
        return self.cache_dir / f"{digest}.json"

    def fetch(self, label_or_conductor) -> list[CurveRecord]:
        if isinstance(label_or_conductor, int):
            query = {"conductor": f"i{label_or_conductor}"}
        else:
            query = {"lmfdb_label": str(label_or_conductor)}
        url = self._url(query)
        cache_file = self._cache_path(url)
        payload = None
        if cache_file.exists():
            payload = json.loads(cache_file.read_text())
        elif self.offline:
            raise RemoteUnavailableError(f"offline and no cached answer for {url}")
        if payload is None:
            try:
                self.request_count += 1
                payload = self.fetcher(url)
            except Exception as exc:
                raise RemoteUnavailableError(f"fetch failed for {url}: {exc}") from exc
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            cache_file.write_text(json.dumps(payload, sort_keys=True))
        return [CurveRecord.from_json(blob) for blob in _lmfdb_adapter(payload)]


# ---------------------------------------------------------------------------
# rank resolution

class RankSources:
    """Prioritized rank lookup: user > dataset > remote > point search."""

    def __init__(self, dataset: Dataset | None = None, user_records: list[RankRecord] = (),
                 remote: RemoteClient | None = None, search_height: int = 2000):
        self.dataset = dataset
        self.user_records = list(user_records)
        self.remote = remote
        self.search_height = search_height


def rank_over(
    model: WeierstrassModel,
    field: fields.NumberFieldDescriptor,
    sources: RankSources,
) -> RankRecord:
    """Resolve the Mordell-Weil rank of the model over the field.

    Over Q: direct lookup through the source tiers. Over a quadratic field:
    rank(E/Q) + rank(E^d/Q), both summands resolved recursively (the standard
    twist decomposition). Anything else must come from a user record.
    """
    key = model_key(model)
    for rec in sources.user_records:
        if rec.field == field and model_key(rec.model) == key:
            return rec
    if field.kind == "rationals":
        if sources.dataset is not None:
            hit = sources.dataset.lookup_model(model)
            if hit is not None:
                return RankRecord(model, field, hit.rank, "dataset")
        if sources.remote is not None:
            minimal, _ = curves.minimal_model(model)
            n, _ = localdata.conductor(minimal)
            try:
                for rec in sources.remote.fetch(n):
                    if model_key(rec.model) == key:
                        return RankRecord(model, field, rec.rank, "remote")
            except RemoteUnavailableError:
                pass
        pts, bound = point_search(model, sources.search_height)
        return RankRecord(model, field, bound, "point-search-lower-bound",
                          witness_points=tuple(pts))
    if field.kind == "quadratic":
        d = arith.squarefree_part(field.disc)
        base = rank_over(model, fields.RATIONALS, sources)
        twisted = rank_over(curves.quadratic_twist(model, d), fields.RATIONALS, sources)
        return RankRecord(
            model, field, base.rank + twisted.rank, "twist-decomposition",
            summands=(base, twisted),
        )
    raise fields.UnsupportedFieldError(
        f"rank over {field.describe()} must be supplied as a user record"
    )
