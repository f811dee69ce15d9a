"""Output checks that hold for any seed.

Each check takes the inputs and the output bytes of the ops of one run and
returns, per op, None when the output is right (or missing, because the op
raised) or a one-line reason when it is not. Recomputation happens here, in
the parent process, outside every timer. It calls the library on the
untransformed inputs (minimal model, j, Tate's algorithm) and checks the
rest with arithmetic that does not come from the library: discriminants and
primality from `workloads`, curve points and point orders mod q below.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import workloads

BAD_PRIME_AQ = {"split-mult": 1, "nonsplit-mult": -1, "additive": 0}
RANK_PROVENANCES = {
    "user", "dataset", "remote", "point-search-lower-bound", "twist-decomposition",
}


def on_curve(ainvs, x: Fraction, y: Fraction) -> bool:
    a1, a2, a3, a4, a6 = (Fraction(a) for a in ainvs)
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


def _sqrt_mod(n: int, q: int) -> int:
    """A square root of the quadratic residue n modulo the odd prime q."""
    if n % q == 0:
        return 0
    s, d = 0, q - 1
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    m, c, t, r = s, pow(z, d, q), pow(n, d, q), pow(n, (d + 1) // 2, q)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        m, c, t, r = i, b * b % q, t * b * b % q, r * b % q
    return r


def _add_mod(a, p1, p2, q):
    """Chord-and-tangent addition on a general Weierstrass model mod q."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    a1, a2, a3, a4, _ = a
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2 + a1 * x1 + a3) % q == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(2 * y1 + a1 * x1 + a3, -1, q)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, q)
    lam %= q
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % q
    return x3, (-(lam + a1) * x3 - (y1 - lam * x1) - a3) % q


def annihilates(ainvs, q: int, order: int, points: int = 4) -> bool:
    """Does `order` kill the first few points of the curve mod q?

    The true #E(F_q) kills every point, and a wrong count within the Hasse
    interval survives a point only if the point's order divides the error,
    so this tells a right a_q from a wrong one. Needs good reduction at q.
    """
    a = [x % q for x in ainvs]
    a1, a2, a3, a4, a6 = a
    b2, b4, b6 = a1 * a1 + 4 * a2, a1 * a3 + 2 * a4, a3 * a3 + 4 * a6
    inv2 = pow(2, -1, q)
    found = 0
    for x in range(q):
        rhs = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % q
        if rhs and pow(rhs, (q - 1) // 2, q) != 1:
            continue
        pt = (x, (_sqrt_mod(rhs, q) - a1 * x - a3) * inv2 % q)
        acc, base, k = None, pt, order
        while k:
            if k & 1:
                acc = _add_mod(a, acc, base, q)
            base = _add_mod(a, base, base, q)
            k >>= 1
        if acc is not None:
            return False
        found += 1
        if found == points:
            break
    return found > 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _guarded(check, *args) -> str | None:
    """Run one op's check; an output that does not parse or lacks a key fails it."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _pinned(pins: dict, i: int, out: str) -> str | None:
    want = pins.get(str(i))
    if want is not None and digest(out) != want:
        return f"op {i}: digest differs from the pinned default-seed digest"
    return None


def check_examples(shavis, names: list[str], outputs: list, reference: dict) -> list:
    expectations = shavis.cli.EXAMPLE_EXPECTATIONS
    result = []
    for name, out in zip(names, outputs):
        if out is None:
            result.append(None)  # the op raised; the caller records why
            continue
        if digest(out) != reference[name]:
            result.append(f"{name}: certificate bytes differ from the reference digest")
            continue
        cert = json.loads(out)
        expect = expectations[name]
        bad = [key for key in ("min_visible_order", "image_rank")
               if key in expect and cert["conclusion"].get(key) != expect[key]]
        if cert["overall"] != expect["overall"] or bad:
            result.append(f"{name}: misses {expect}")
            continue
        result.append(None)
    return result


def _rank_records(blob):
    yield blob
    for s in blob.get("summands", ()):
        yield from _rank_records(s)


def _search_bound(record: dict) -> bool:
    return any(r["provenance"] == "point-search-lower-bound" for r in _rank_records(record))


def _expected_overall(cert: dict) -> str:
    """failed > partial > certified, and a point-search A-side rank caps at partial."""
    statuses = {v["status"] for v in cert["verdicts"]}
    if "fails" in statuses:
        return "failed"
    a_twist = cert["conclusion"]["twisted_models"][0]
    a_side = [r for r in cert["rank_provenance"] if "[" + ",".join(r["curve"]) + "]" == a_twist]
    if "inconclusive" in statuses or any(_search_bound(r) for r in a_side):
        return "partial"
    return "certified"


def _twist_problem(shavis, op, out: str, first_aa: dict) -> str | None:
    pair, scenario = op
    cert = json.loads(out)
    schema = shavis.visibility.THEOREM_HYPOTHESES["quadratic"]
    ids = [v["id"] for v in cert["verdicts"] if v["status"] != "unverified-user-asserted"]
    if ids != schema:
        return f"verdict ids {ids} != {schema}"
    d = scenario["target"]["d"]
    if cert["scenario"]["name"] != scenario["name"] or \
            cert["scenario"]["target"]["d"] != (d if d % 4 == 1 else 4 * d):
        return "certificate is for another scenario"
    aa = json.dumps(cert["verdicts"][0], sort_keys=True)
    if first_aa.setdefault(pair, aa) != aa:
        return f"A.a verdict of pair {pair} differs from its first d"
    conclusion = cert["conclusion"]
    gap = conclusion["rank_gap"]
    if gap > 0 and conclusion["min_visible_order"] != scenario["p"] ** gap:
        return f"min_visible_order {conclusion['min_visible_order']} != p^{gap}"
    consumed = {"[" + ",".join(r["curve"]) + "]" for r in cert["rank_provenance"]}
    if not set(conclusion["twisted_models"]) <= consumed:
        return "a consumed twisted rank has no provenance record"
    if cert["overall"] != _expected_overall(cert):
        return f"overall {cert['overall']!r} does not follow from the verdicts and ranks"
    for top in cert["rank_provenance"]:
        for rec in _rank_records(top):
            if rec.get("provenance") not in RANK_PROVENANCES:
                return f"rank record without a known provenance: {rec.get('provenance')!r}"
            if rec["provenance"] != "point-search-lower-bound":
                continue
            pts = rec.get("witness_points", [])
            if len(pts) != rec["rank"]:
                return f"point-search rank {rec['rank']} with {len(pts)} witnesses"
            for x, y in pts:
                if not on_curve(rec["curve"], Fraction(x), Fraction(y)):
                    return f"witness ({x}, {y}) is not on {rec['curve']}"
    return None


def _check_ops(problem, shavis, ops: list, outputs: list, pins: dict, state) -> list:
    result = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            result.append(None)  # the op raised; the caller records why
            continue
        found = _guarded(problem, shavis, op, out, state)
        result.append(f"op {i}: {found}" if found else _pinned(pins, i, out))
    return result


def check_twist(shavis, ops: list, outputs: list, pins: dict) -> list:
    return _check_ops(_twist_problem, shavis, ops, outputs, pins, {})


def _strip(n: int, q: int) -> int:
    while n % q == 0:
        n //= q
    return n


def _census_problem(shavis, op: dict, out: str, golden: dict) -> str | None:
    payload = json.loads(out)
    curves, localdata = shavis.curves, shavis.localdata
    base = curves.WeierstrassModel.from_list(op["base"])
    if payload["input"] != [str(a) for a in op["shown"]]:
        return "payload is for another input"
    if payload["minimal_model"] != [str(a) for a in curves.minimal_model(base)[0].int_ainvs()]:
        return "minimal model differs from that of the untransformed curve"
    if payload["invariants"]["j"] != str(curves.invariants(base).j):
        return "j differs from that of the untransformed curve"
    payload_min = [int(a) for a in payload["minimal_model"]]
    rest = abs(workloads.discriminant(payload_min))
    conductor, factorization = 1, {}
    for entry in payload["local_data"]:
        q = entry["q"]
        if not workloads.probable_prime(q):
            return f"bad prime {q} is not prime"
        if localdata.tate_algorithm(base, q).to_json() != entry:
            return f"local data at {q} differs from that of the untransformed curve"
        rest = _strip(rest, q)
        conductor *= q ** entry["f"]
        factorization[str(q)] = entry["f"]
    if rest != 1:
        return f"minimal discriminant has a bad prime missing from the local data ({rest})"
    if payload["conductor"] != conductor or payload["conductor_factorization"] != factorization:
        return "conductor or its factorization disagrees with the local data"
    bad = {entry["q"]: entry["class"] for entry in payload["local_data"]}
    for rec in payload["a_q"]:
        q, aq = rec["q"], rec["a_q"]
        if aq * aq > 4 * q:
            return f"a_{q} = {aq} breaks the Hasse bound"
        if q in bad:
            if aq != BAD_PRIME_AQ[bad[q]]:
                return f"a_{q} = {aq} does not fit {bad[q]} reduction"
            continue
        model = op["base"] if workloads.discriminant(op["base"]) % q else payload_min
        if not annihilates(model, q, q + 1 - aq):
            return f"a_{q} = {aq}: q + 1 - a_q does not kill points of the untransformed curve"
    if [r["q"] for r in payload["a_q"]] != op["primes"]:
        return "a_q primes differ from the input"
    if op["golden"] is not None:
        want = golden[op["golden"]]
        if payload["conductor"] != want["conductor"] or payload["local_data"] != want["locals"]:
            return f"golden curve {op['golden']} local data differ from the corpus"
    return None


def check_census(shavis, ops: list, outputs: list, pins: dict) -> list:
    golden = {c["label"]: c for c in workloads.golden_curves()}
    return _check_ops(_census_problem, shavis, ops, outputs, pins, golden)
