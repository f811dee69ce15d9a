"""Seeded inputs for the three workloads.

Everything here is plain Python with no import of shavis: the inputs a run
feeds the program depend only on the workload name and the seed, never on
the code under test. The same seed always yields the same inputs.

- examples: rounds of the six bundled scenarios, each round in a seeded order.
- twist_sweep: the quadratic theorem in bounded-proof mode for the five
  bundled congruent pairs, each paired with seeded squarefree d, |d| <= 500,
  no (pair, d) repeated.
- census: distinct seeded curves, each shown through a random non-minimal
  change of coordinates, with the golden Tate corpus mixed in, plus two
  seeded primes in (10^4, 10^6) for a_q (only those that pass
  hasse_edge_exact; see there).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("examples", "twist_sweep", "census")

SCENARIOS = (
    "ex1_quadratic_59",
    "ex_493_17_quadratic_195",
    "ex_203_quadratic_3",
    "ex_203_quadratic_23",
    "ex_176_kummer7",
    "ex5_cyclotomic_tower",
)

#: The five bundled congruent pairs: (name, curve A, curve B, p).
PAIRS = (
    ("ex1", [0, 0, 0, 1, -10], [0, 0, 0, -584, 5444], 5),
    ("493", [1, -1, 1, -57, 222], [1, -1, 1, -91, -310], 3),
    ("203", [0, -1, 1, 20, -8], [1, 1, 0, -9, 8], 3),
    ("176", [0, 1, 0, -5, -13], [0, 1, 0, 56, -588], 3),
    ("ex5", [0, 1, 0, -30008176, -63229110828], [0, 1, 0, -144, 532], 3),
)

TWIST_D_BOUND = 500
CENSUS_LOG10_RANGE = (1.0, 12.0)
CENSUS_AQ_RANGE = (10**4, 10**6)
#: Census scale factors k of the coordinate change (u = 1/k), all > 1 so the
#: model shown to the program is never minimal.
CENSUS_SCALES = (2, 3, 5, 6, 7, 10)
#: Golden corpus curves go at ops GOLDEN_OFFSET, GOLDEN_OFFSET + GOLDEN_STRIDE, ...
GOLDEN_STRIDE = 10
GOLDEN_OFFSET = 5
#: A census discriminant is kept when, after trial division below
#: TRIAL_BOUND, its cofactor is 1, a prime, or at most COFACTOR_BOUND.
#: arith.factor has no time budget, and a cofactor that is the product of two
#: large primes takes Pollard rho minutes; the bound keeps every op within
#: the run while the rho tail stays in the workload.
TRIAL_BOUND = 100_000
COFACTOR_BOUND = 10**22

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "src" / "shavis" / "data" / "golden_local_data.json"
#: (pair, d) on which the program's rank fallback runs for minutes; written
#: by screen_twists.py, which explains the defect.
TWIST_EXCLUDED_PATH = Path(__file__).resolve().parent / "twist_excluded.json"


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


# ---------------------------------------------------------------------------
# small exact helpers, independent of the program under test

def _small_primes(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return [p for p in range(bound + 1) if sieve[p]]


_TRIAL_PRODUCT: list[int] = []


def _trial_product() -> int:
    """The product of the primes below TRIAL_BOUND."""
    if not _TRIAL_PRODUCT:
        _TRIAL_PRODUCT.append(math.prod(_small_primes(TRIAL_BOUND)))
    return _TRIAL_PRODUCT[0]


def probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 20 prime bases (exact far beyond 10^36)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def squarefree(n: int) -> bool:
    n = abs(n)
    for p in range(2, math.isqrt(n) + 1):
        if n % (p * p) == 0:
            return False
    return True


def discriminant(ainvs) -> int:
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _easy_cofactor(disc: int) -> bool:
    n = abs(disc)
    g = math.gcd(n, _trial_product())
    while g > 1:  # strip every prime below TRIAL_BOUND, with its multiplicity
        n //= g
        g = math.gcd(n, g)
    return n <= COFACTOR_BOUND or probable_prime(n)


def scale_coordinates(ainvs, k: int, r: int, s: int, t: int) -> list[int]:
    """The model after x = x'/k^2 + r, y = y'/k^3 + s x'/k^2 + t (u = 1/k).

    With integral r, s, t the result is integral, and its discriminant is
    k^12 times the input's, so it is not minimal when k > 1.
    """
    a1, a2, a3, a4, a6 = ainvs
    return [
        k * (a1 + 2 * s),
        k**2 * (a2 - s * a1 + 3 * r - s * s),
        k**3 * (a3 + r * a1 + 2 * t),
        k**4 * (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t),
        k**6 * (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1),
    ]


# ---------------------------------------------------------------------------
# workload inputs

def examples_round(seed: int, k: int) -> list[str]:
    """Scenario names of round k, in the seeded order."""
    order = list(SCENARIOS)
    _rng("examples", seed, f"round{k}").shuffle(order)
    return order


def twist_scenario(pair, d: int) -> dict:
    name, a, b, p = pair
    return {
        "schema_version": 1,
        "name": f"twist_{name}_d{d}",
        "theorem": "quadratic",
        "p": p,
        "curve_a": a,
        "curve_b": b,
        "base_field": {"kind": "rationals"},
        "field_k": {"kind": "rationals"},
        "target": {"kind": "quadratic", "d": d},
        "rank_records": [],
        "user_assertions": [],
        "options": {"mode": "bounded-proof", "evidence": "summary"},
    }


def twist_ds() -> list[int]:
    return [d for d in range(-TWIST_D_BOUND, TWIST_D_BOUND + 1)
            if d not in (0, 1) and squarefree(d)]


def twist_excluded() -> set[tuple[str, int]]:
    return {tuple(x) for x in json.loads(TWIST_EXCLUDED_PATH.read_text())["excluded"]}


def twist_inputs(seed: int):
    """Endless stream of (pair name, scenario dict).

    Rounds visit all five pairs in a seeded order; each pair walks its own
    seeded permutation of the squarefree d, so no (pair, d) repeats. The
    (pair, d) listed in twist_excluded.json are left out.
    """
    ds = twist_ds()
    excluded = twist_excluded()
    per_pair = {}
    for pair in PAIRS:
        order = list(ds)
        _rng("twist_sweep", seed, pair[0]).shuffle(order)
        per_pair[pair[0]] = [d for d in order if (pair[0], d) not in excluded]
    order_rng = _rng("twist_sweep", seed, "order")
    k = 0
    while True:
        pairs = list(PAIRS)
        order_rng.shuffle(pairs)
        for pair in pairs:
            yield pair[0], twist_scenario(pair, per_pair[pair[0]][k])
        k += 1


def golden_curves() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text())["curves"]


def hasse_edge_exact(q: int) -> bool:
    """True when 2 * isqrt(q) is floor(2 sqrt q), the largest |a_q| allowed.

    hecke._count_bsgs searches for #E(F_q) in q + 1 -/+ 2 * isqrt(q), which
    for the other primes is one short of the Hasse bound: a curve with
    |a_q| = floor(2 sqrt q) there sweeps all of F_q (about 45 s at
    q = 216829) and raises "group order ambiguous". That is a defect of the
    program; census draws its a_q primes from these primes only, so that a
    time-bounded run holds every op. Drop the restriction once it is fixed.
    """
    return 2 * math.isqrt(q) == math.isqrt(4 * q)


def _aq_prime(rng: random.Random) -> int:
    """The prime after a random point of the range, drawn again until it
    passes hasse_edge_exact (walking on would favour primes just above
    squares, since the primes that pass come in runs between squares)."""
    lo, hi = CENSUS_AQ_RANGE
    while True:
        n = rng.randrange(lo + 1, hi)
        while not probable_prime(n):
            n += 1
        if hasse_edge_exact(n):
            return n


def _random_curve(rng: random.Random) -> list[int]:
    lo, hi = CENSUS_LOG10_RANGE
    while True:
        ainvs = [
            rng.choice((0, 1)),
            rng.choice((-1, 0, 1)),
            rng.choice((0, 1)),
            rng.choice((-1, 1)) * int(10 ** rng.uniform(lo, hi)),
            rng.choice((-1, 1)) * int(10 ** rng.uniform(lo, hi)),
        ]
        disc = discriminant(ainvs)
        if disc != 0 and _easy_cofactor(disc):
            return ainvs


def census_inputs(seed: int):
    """Endless stream of census ops.

    Each op is a dict with the base curve, the label of its golden corpus
    entry (or None), the model shown to the program and two a_q primes.
    """
    golden = golden_curves()
    _rng("census", seed, "golden").shuffle(golden)
    rng = _rng("census", seed)
    i = 0
    while True:
        slot, rem = divmod(i - GOLDEN_OFFSET, GOLDEN_STRIDE)
        if rem == 0 and 0 <= slot < len(golden):
            base, label = list(golden[slot]["ainvs"]), golden[slot]["label"]
        else:
            base, label = _random_curve(rng), None
        k = rng.choice(CENSUS_SCALES)
        r, s, t = (rng.randint(-50, 50) for _ in range(3))
        primes = {_aq_prime(rng)}
        while len(primes) < 2:
            primes.add(_aq_prime(rng))
        yield {
            "base": base,
            "golden": label,
            "shown": scale_coordinates(base, k, r, s, t),
            "primes": sorted(primes),
        }
        i += 1


def inputs(workload: str, seed: int):
    if workload == "twist_sweep":
        return twist_inputs(seed)
    if workload == "census":
        return census_inputs(seed)
    raise ValueError(f"no op stream for {workload!r}")


def take(workload: str, seed: int, count: int) -> list:
    stream = inputs(workload, seed)
    return [next(stream) for _ in range(count)]
