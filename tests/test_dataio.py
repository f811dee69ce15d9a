import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shavis import curves, dataio, fields, localdata
from shavis.curves import WeierstrassModel, minimal_model, quadratic_twist
from shavis.dataio import (
    DatasetError,
    RankSources,
    load_dataset,
    point_add,
    point_mul,
    point_on_curve,
    point_search,
    rank_over,
    is_torsion_exact,
)
from shavis.arith import primes
from shavis.curves import SingularCurveError, bc_invariants, invariants
from shavis.hecke import TORSION_MAX_ORDER, ModCurve


def test_bundled_dataset_loads(dataset):
    assert len(dataset) >= 15
    rec = dataset.by_label["ex1.E1"]
    assert rec.conductor == 52 and rec.rank == 0
    assert any(r.conductor == 11 for r in dataset.records)
    assert dataset.by_model[dataio.model_key(WeierstrassModel.from_list([0, 0, 0, 1, -10]))] is rec


def test_dataset_validation_errors(tmp_path):
    good = "x|[0,0,0,1,-10]|52|0|2\n"
    path = tmp_path / "ds.dataset"
    path.write_text(good + "bad line\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path)
    # conductor mismatch is a hard error
    path.write_text("x|[0,0,0,1,-10]|53|0|2\n")
    with pytest.raises(DatasetError, match="disagrees"):
        load_dataset(path)
    path.write_text("")
    assert len(load_dataset(path)) == 0
    # exact values only: no float a-invariant, no rank below 0, no torsion below 1
    for row, message in [
        ("11a1|[0,-1,1,-10.9,-20]|11|0|5", "a-invariants must be a list of integers"),
        ("11a3|[0,-1,true,0,0]|11|0|5", "a-invariants must be a list of integers"),
        ("11a1|[0,-1,1,-10,-20]|11|-3|5", "rank must be >= 0, got -3"),
        ("11a1|[0,-1,1,-10,-20]|11|0|0", "torsion order must be >= 1, got 0"),
        ("x|[0,0,0,0,0]|11|0|1", "singular model"),
        # ASCII decimal integers only, though int() takes each of these
        ("y|[0,-1,1,-10,-20]|1_1|0|5", "conductor must be a decimal integer, got '1_1'"),
        ("y|[0,-1,1,-10,-20]|11|\u0660|5", "rank must be a decimal integer, got '\u0660'"),
        ("y|[0,-1,1,-10,-20]|11|0|+5", "torsion order must be a decimal integer, got '+5'"),
    ]:
        path.write_text(good + row + "\n")
        with pytest.raises(DatasetError, match=rf"line 2: {re.escape(message)}"):
            load_dataset(path)
    # one row per label and per minimal model: 11a3 under the label x, then
    # 11a1 scaled by u = 2, whose minimal model is 11a1's
    for row, message in [
        ("x|[0,-1,1,0,0]|11|0|5", "x: repeated label, first given as x"),
        ("y|[0,-4,8,-160,-1280]|11|1|5", "y: repeated minimal model, first given as 11a1"),
    ]:
        path.write_text("11a1|[0,-1,1,-10,-20]|11|0|5\n" + good + row + "\n")
        with pytest.raises(DatasetError, match=rf"line 3: {re.escape(message)}"):
            load_dataset(path)


def test_load_dataset_minimalizes_each_row_once(cold_curve_facts, minimal_model_calls):
    # one curve_facts per row serves both the conductor check and the index
    ds = load_dataset()
    assert minimal_model_calls == [rec.model for rec in ds.records]


def test_group_law_against_known_multiples():
    # multiples of the generator of the rank-one conductor-37 curve
    m = WeierstrassModel.from_list([0, 0, 1, -1, 0])
    g = (Fraction(0), Fraction(0))
    known = {2: (1, 0), 3: (-1, -1), 4: (2, -3), 5: (Fraction(1, 4), Fraction(-5, 8)),
             6: (6, 14)}
    for k, (x, y) in known.items():
        got = point_mul(m, k, g)
        assert got == (Fraction(x), Fraction(y)), k
    assert point_add(m, g, point_mul(m, -1, g)) is None


def test_point_search_finds_twist_generators(e2_364):
    tw = minimal_model(quadratic_twist(e2_364, 59))[0]
    pts, bound = point_search(tw, 1000)
    assert bound >= 2
    for pt in pts:
        assert not is_torsion_exact(tw, pt)


def _is_torsion_exact_reference(model, pt):
    """The multiples-only loop from before the 4x screen, kept here only."""
    if pt is None:
        return True
    acc = pt
    for _ in range(2, TORSION_MAX_ORDER + 1):
        acc = point_add(model, acc, pt)
        if acc is None:
            return True
    return False


#: Points of finite order on integral models; the first has x = -1/4.
TORSION_POINTS = [
    ([1, 0, 0, 4, 1], (Fraction(-1, 4), Fraction(1, 8))),  # order 2
    ([0, 0, 0, 0, 1], (2, 3)),  # order 6
    ([0, -1, 1, 0, 0], (0, 0)),  # order 5
    ([1, 0, 0, -45, 81], (0, 9)),
    ([0, 0, 0, -1, 0], (1, 0)),  # order 2
]


def test_is_torsion_exact_keeps_torsion():
    for ainvs, (x, y) in TORSION_POINTS:
        m = WeierstrassModel.from_list(ainvs)
        pt = (Fraction(x), Fraction(y))
        assert point_on_curve(m, pt)
        assert is_torsion_exact(m, pt) and _is_torsion_exact_reference(m, pt), ainvs


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(*[st.integers(-3, 3)] * 4),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(1, 4),
)
@example((0, 0, 0, -1), 1, 0, 2)  # 2P = O
@example((1, 0, 0, -45), 0, 9, 3)  # a torsion multiple
def test_is_torsion_exact_screen_matches_reference(a1234, x0, y0, k):
    # an integral point P on an integral model (a6 solved for), then kP,
    # whose x usually has a large denominator
    a1, a2, a3, a4 = a1234
    a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0**3 - a2 * x0 * x0 - a4 * x0
    m = WeierstrassModel.from_list([a1, a2, a3, a4, a6])
    try:
        invariants(m)
    except SingularCurveError:
        assume(False)
    pt = point_mul(m, k, (Fraction(x0), Fraction(y0)))
    assert is_torsion_exact(m, pt) == _is_torsion_exact_reference(m, pt)


def test_excluded_twists_finish(run_python):
    # (pair, d) whose point search used to stall in the exact relation check
    # for minutes; the 4x screen rejects those combinations at once
    out = run_python(
        "from shavis import dataio, scenario, visibility\n"
        "ds = dataio.load_dataset()\n"
        "pairs = [([1, -1, 1, -57, 222], [1, -1, 1, -91, -310], -39),\n"
        "         ([0, -1, 1, 20, -8], [1, 1, 0, -9, 8], 335),\n"
        "         ([0, 1, 0, -5, -13], [0, 1, 0, 56, -588], -71)]\n"
        "for a, b, d in pairs:\n"
        "    blob = {'schema_version': 1, 'name': f'twist_{d}', 'theorem': 'quadratic',\n"
        "            'p': 3, 'curve_a': a, 'curve_b': b,\n"
        "            'base_field': {'kind': 'rationals'}, 'field_k': {'kind': 'rationals'},\n"
        "            'target': {'kind': 'quadratic', 'd': d},\n"
        "            'rank_records': [], 'user_assertions': [],\n"
        "            'options': {'mode': 'bounded-proof', 'evidence': 'summary'}}\n"
        "    cert = visibility.verify_scenario(scenario.scenario_from_dict(blob), ds)\n"
        "    print(d, cert.overall, cert.conclusion['min_visible_order'])\n"
    )
    assert out.splitlines() == ["-39 partial 9", "335 partial 9", "-71 partial 9"]


def _nontorsion_points_reference(minimal, height_bound, filters):
    """The (a, b) loop from before the residue sieve, kept here only."""
    ainvs = minimal.int_ainvs()
    a1, a3 = ainvs[0], ainvs[2]
    b2, b4, b6 = bc_invariants(ainvs)[:3]
    found = []
    seen_x = set()
    for b in range(1, math.isqrt(height_bound) + 1):
        bb, b4_, b6_ = b * b, b**4, b**6
        c3, c2, c1, c0 = 4, b2 * bb, 2 * b4 * b4_, b6 * b6_
        for a in range(-height_bound, height_bound + 1):
            if math.gcd(a, b) != 1:
                continue
            t = ((c3 * a + c2) * a + c1) * a + c0
            if t < 0:
                continue
            r = math.isqrt(t)
            if r * r != t:
                continue
            x = Fraction(a, bb)
            if x in seen_x:
                continue
            seen_x.add(x)
            y = (Fraction(r, b**3) - a1 * x - a3) / 2
            pt = (x, y)
            assert point_on_curve(minimal, pt)
            if not dataio.is_torsion(minimal, pt, filters):
                found.append(pt)
    return found


def _small_integral_model(a1, a2, a3, a4, a6):
    m = WeierstrassModel.from_list([a1, a2, a3, a4, a6])
    try:
        invariants(m)
    except SingularCurveError:
        assume(False)
    return minimal_model(m)[0]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
    st.integers(-60, 60), st.integers(-200, 200),
    st.integers(1, 2000),
)
@example(0, 0, 0, -584 * 59**2, 5444 * 59**3, 2000)  # rank-2 twist of 364a
@example(0, 1, 1, -2, 0, 2000)  # 389a1, rank 2
@example(0, -1, 1, 0, 0, 300)  # 11a3: its small points are 5-torsion
@example(0, 0, 0, 0, 433, 50)  # (2, 21) and (11, 42): t = (2y)^2 = 0 mod 63
@example(0, 0, 0, -1, 0, 1)
def test_point_search_sieve_matches_the_loop(a1, a2, a3, a4, a6, height):
    minimal = _small_integral_model(a1, a2, a3, a4, a6)
    filters = dataio._filter_curves(minimal)
    found = _nontorsion_points_reference(minimal, height, filters)
    assert dataio._nontorsion_points(minimal, height, filters) == found
    found.sort(key=dataio.naive_height)
    expected = dataio._select_independent(minimal, found, dataio.DEPENDENCE_WINDOW, filters)
    assert point_search(minimal, height) == (expected, len(expected))


def _small_order_set_reference(mc):
    """The enumeration of E(F_q) from before the order count, kept here only."""
    a1, _, a3, _, _ = mc.a
    b2, b4, b6 = bc_invariants(mc.a)[:3]
    q = mc.q
    sqrt_table = {}
    for z in range((q + 1) // 2):
        sqrt_table.setdefault(z * z % q, z)
    inv2 = pow(2, -1, q)
    small = {None}
    for x in range(q):
        rhs = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % q
        s = sqrt_table.get(rhs)
        if s is None:
            continue
        for sign in (s, (-s) % q):
            pt = (x, (sign - a1 * x - a3) * inv2 % q)
            if mc.small_order(pt):
                small.add(pt)
            if s == 0:
                break
    return small


FILTER_PRIMES = [q for q in primes(2000) if q > 1000]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
    st.integers(-60, 60), st.integers(-200, 200),
    st.sampled_from(FILTER_PRIMES),
)
@example(0, -1, 1, 0, 0, 1009)  # 11a3: rational 5-torsion
@example(0, 0, 0, 0, 1, 1013)  # rational 6-torsion
@example(0, 0, 0, -1, 0, 1993)  # full rational 2-torsion
@example(1, 0, 0, -45, 81, 1009)
def test_small_order_set_matches_the_enumeration(a1, a2, a3, a4, a6, q):
    minimal = _small_integral_model(a1, a2, a3, a4, a6)
    assume(int(invariants(minimal).disc) % q != 0)
    mc = ModCurve(minimal.int_ainvs(), q)
    assert mc.small_order_set() == _small_order_set_reference(mc)


def test_point_search_rank_zero_curve(e1_52):
    tw = minimal_model(quadratic_twist(e1_52, 59))[0]
    pts, bound = point_search(tw, 500)
    assert bound == 0 and pts == []


def test_point_search_filters_torsion():
    # conductor-11 curve: all small points are 5-torsion
    m = WeierstrassModel.from_list([0, -1, 1, 0, 0])
    pts, bound = point_search(m, 300)
    assert bound == 0


def test_point_search_respects_dataset_ranks(dataset):
    # search lower bound never exceeds the recorded rank
    for label in ("37a1", "43a1", "389a1", "11a1", "ex203.E2tw3"):
        rec = dataset.by_label[label]
        _, bound = point_search(rec.model, 300)
        assert bound <= rec.rank, label


def test_rank_over_spec_examples(dataset, e1_52):
    sources = RankSources(dataset=dataset)
    # rank over Q from the dataset
    assert rank_over(e1_52, fields.RATIONALS, sources).rank == 0
    # quadratic decomposition: rank(E1/Q(sqrt 59)) = 0 + 0
    rec = rank_over(e1_52, fields.quadratic_field(59), sources)
    assert rec.rank == 0 and rec.provenance == "twist-decomposition"
    assert len(rec.summands) == 2
    # 203 pair over Q(sqrt 3): 0 + 2 for the second curve
    e2 = WeierstrassModel.from_list([1, 1, 0, -9, 8])
    rec2 = rank_over(e2, fields.quadratic_field(3), sources)
    assert rec2.rank == 2
    with pytest.raises(fields.UnsupportedFieldError):
        rank_over(e1_52, fields.kummer_layer(3, 7), sources)


def test_rank_over_user_priority(dataset, e1_52):
    user = [
        __import__("shavis.dataio", fromlist=["RankRecord"]).RankRecord(
            e1_52, fields.RATIONALS, 7, "user"
        )
    ]
    sources = RankSources(dataset=dataset, user_records=user)
    assert rank_over(e1_52, fields.RATIONALS, sources).rank == 7


def test_user_records_are_keyed_once_first_match_wins(minimal_model_calls, e1_52):
    # the same curve in other coordinates, twice over Q: the first record
    # answers; a record over another field is kept apart
    shown = [curves.transform(e1_52, curves.Isomorphism(u, 1, 0, 0)) for u in (2, 3)]
    user = [dataio.RankRecord(shown[0], fields.RATIONALS, 7, "user"),
            dataio.RankRecord(shown[1], fields.RATIONALS, 3, "user"),
            dataio.RankRecord(e1_52, fields.quadratic_field(59), 5, "user")]
    minimal_model_calls.clear()
    sources = RankSources(user_records=user)
    assert minimal_model_calls == shown + [e1_52]
    for _ in range(3):
        minimal_model_calls.clear()
        assert rank_over(e1_52, fields.RATIONALS, sources) is user[0]
        assert minimal_model_calls == [e1_52]  # the query's key only
    assert rank_over(shown[1], fields.quadratic_field(59), sources) is user[2]


def test_rank_over_q_minimalizes_the_query_once(minimal_model_calls, dataset, e1_52):
    # one model_key serves the user records and the dataset; a point search
    # minimalizes once more. Curve facts are keyed by the minimal model they
    # hold, so only a point search minimalizes.
    user = [dataio.RankRecord(e1_52, fields.RATIONALS, 7, "user")]
    stranger = quadratic_twist(e1_52, -1)  # in no dataset row
    facts = {m: localdata.curve_facts(m) for m in (e1_52, stranger)}
    for sources, model, provenance, calls, facts_calls in (
            (RankSources(user_records=user), e1_52, "user", 1, 0),
            (RankSources(dataset=dataset), e1_52, "dataset", 1, 0),
            (RankSources(dataset=dataset), stranger, "point-search-lower-bound", 2, 1)):
        minimal_model_calls.clear()
        assert rank_over(model, fields.RATIONALS, sources).provenance == provenance
        assert len(minimal_model_calls) == calls, provenance
        minimal_model_calls.clear()
        assert rank_over(facts[model], fields.RATIONALS, sources).provenance == provenance
        assert len(minimal_model_calls) == facts_calls, provenance


def test_rank_over_quadratic_keys_the_query_once(minimal_model_calls, dataset, e1_52):
    # the summand over Q reuses the key of the query over Q(sqrt 59); the
    # twisted summand is keyed once more, and a short model twists without
    # a minimal_model call
    rec = rank_over(e1_52, fields.quadratic_field(59), RankSources(dataset=dataset))
    assert [s.provenance for s in rec.summands] == ["dataset", "dataset"]
    assert minimal_model_calls == [e1_52, quadratic_twist(e1_52, 59)]


def test_lower_bound_only_follows_the_point_search(dataset, e1_52):
    sources = RankSources(dataset=dataset)
    searched = rank_over(quadratic_twist(e1_52, -1), fields.RATIONALS, sources)
    assert searched.lower_bound_only
    assert not rank_over(e1_52, fields.RATIONALS, sources).lower_bound_only
    # a sum is a lower bound when one of its summands is: the twist by -1
    # comes from a point search, the one by 59 from the dataset
    assert rank_over(e1_52, fields.quadratic_field(-1), sources).lower_bound_only
    assert not rank_over(e1_52, fields.quadratic_field(59), sources).lower_bound_only
    asserted = dataio.RankRecord(e1_52, fields.RATIONALS, 0, "point-search-lower-bound")
    assert asserted.lower_bound_only


#: Search height of the point-search tier in the shortcut tests below, the
#: same on both paths; the tier's own bound takes too long for a sweep.
SHORTCUT_SEARCH_HEIGHT = 150
SHORTCUT_FIELDS = (fields.RATIONALS, fields.quadratic_field(-1), fields.quadratic_field(3),
                   fields.quadratic_field(59), fields.kummer_layer(3, 7))


def _outcome(curve, field, sources):
    """What rank_over answers: the record's JSON, or the error it raises."""
    try:
        return rank_over(curve, field, sources).to_json()
    except fields.UnsupportedFieldError as exc:
        return ("UnsupportedFieldError", str(exc))


def _without_curves(blob):
    """A rank record's JSON without its "curve" entries: the coordinates in
    which a raw query names its curve and the curves it twisted."""
    if not isinstance(blob, dict):
        return blob
    return {k: ([_without_curves(s) for s in v] if k == "summands" else v)
            for k, v in blob.items() if k != "curve"}


def _assert_facts_query_matches_the_raw_query(shown, field, sources):
    # the facts path is byte-identical to the raw query on the minimal model
    # it holds, and answers the raw query on the shown model through the
    # same tiers with the same ranks and witnesses
    facts = localdata.curve_facts(shown)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "SEARCH_HEIGHT", SHORTCUT_SEARCH_HEIGHT)
        by_facts = _outcome(facts, field, sources)
        assert by_facts == _outcome(facts.minimal, field, sources)
        assert _without_curves(by_facts) == _without_curves(_outcome(shown, field, sources))
    return by_facts


def _shown(model, u, r, s, t):
    """The curve in integral coordinates scaled by u, so not minimal for u > 1."""
    return curves.transform(model, curves.Isomorphism(Fraction(1, u), r, s, t))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
    st.integers(-30, 30), st.integers(-60, 60),
    st.integers(2, 3), st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
    st.sampled_from(SHORTCUT_FIELDS), st.sampled_from([None, "query", "Q"]),
)
@example(0, 0, 0, 1, -10, 2, 1, 0, 1, fields.quadratic_field(59), None)  # ex1.E1: dataset rows
@example(0, 0, 0, 1, -10, 3, 0, 1, 0, fields.quadratic_field(-1), None)  # point-search twist
@example(0, 0, 0, 1, -10, 2, 0, 0, 0, fields.kummer_layer(3, 7), "query")  # a user record
@example(0, 1, 1, -2, 0, 2, 1, 1, 1, fields.kummer_layer(3, 7), None)  # unsupported field
def test_facts_query_matches_the_raw_query(dataset, a1, a2, a3, a4, a6, u, r, s, t, field, user):
    minimal = _small_integral_model(a1, a2, a3, a4, a6)
    shown = _shown(minimal, u, r, s, t)
    # a user record, given in yet other coordinates, over the query's field or over Q
    records = [] if user is None else [dataio.RankRecord(
        _shown(minimal, 1, 1, 1, 0), field if user == "query" else fields.RATIONALS, 5, "user")]
    sources = RankSources(dataset=dataset, user_records=records)
    answer = _assert_facts_query_matches_the_raw_query(shown, field, sources)
    if user == "query":
        assert answer["provenance"] == "user"


def test_facts_query_matches_the_raw_query_on_the_bundled_rows(dataset):
    sources = RankSources(dataset=dataset)
    tiers = set()
    for rec in dataset.records:
        for field in SHORTCUT_FIELDS:
            answer = _assert_facts_query_matches_the_raw_query(
                _shown(rec.model, 2, 1, 0, 1), field, sources)
            if isinstance(answer, dict):
                tiers |= {answer["provenance"]} | {s["provenance"] for s in answer.get(
                    "summands", ())}
    assert tiers == {"dataset", "twist-decomposition", "point-search-lower-bound"}
