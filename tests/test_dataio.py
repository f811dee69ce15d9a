import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shavis import dataio, fields
from shavis.curves import WeierstrassModel, minimal_model, quadratic_twist
from shavis.dataio import (
    CurveRecord,
    DatasetError,
    RankSources,
    RemoteClient,
    RemoteSchemaError,
    RemoteUnavailableError,
    load_dataset,
    point_add,
    point_mul,
    point_on_curve,
    point_search,
    rank_over,
    is_torsion_exact,
)
from shavis.curves import SingularCurveError, invariants
from shavis.hecke import TORSION_MAX_ORDER


def test_bundled_dataset_loads(dataset):
    assert len(dataset) >= 15
    rec = dataset.by_label["ex1.E1"]
    assert rec.conductor == 52 and rec.rank == 0
    assert dataset.by_conductor[11]
    assert dataset.lookup_model(WeierstrassModel.from_list([0, 0, 0, 1, -10])) is rec


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
    sources = RankSources(dataset=dataset, search_height=300)
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


FAKE_PAYLOAD = {
    "data": [
        {
            "lmfdb_label": "364.a1",
            "ainvs": [0, 0, 0, -584, 5444],
            "conductor": 364,
            "rank": 1,
            "torsion": 1,
        }
    ]
}


def test_remote_fetch_cache_contract(tmp_path):
    calls = []

    def fetcher(url):
        calls.append(url)
        return FAKE_PAYLOAD

    client = RemoteClient(base_url="https://db.example/api", cache_dir=tmp_path,
                          offline=False, fetcher=fetcher)
    recs = client.fetch(364)
    assert len(recs) == 1 and recs[0].conductor == 364 and recs[0].source == "remote"
    assert client.request_count == 1
    # cache round trip: identical record, zero new requests
    recs2 = client.fetch(364)
    assert client.request_count == 1 and len(calls) == 1
    assert recs2[0] == recs[0]


def test_remote_offline_cold_cache(tmp_path):
    client = RemoteClient(base_url="https://db.example/api", cache_dir=tmp_path,
                          offline=True)
    with pytest.raises(RemoteUnavailableError):
        client.fetch(364)


def test_remote_schema_drift(tmp_path):
    client = RemoteClient(base_url="https://db.example/api", cache_dir=tmp_path,
                          offline=False, fetcher=lambda url: {"rows": []})
    with pytest.raises(RemoteSchemaError):
        client.fetch(11)
    client2 = RemoteClient(base_url="https://db.example/api", cache_dir=tmp_path / "c2",
                           offline=False,
                           fetcher=lambda url: {"data": [{"label": "x"}]})
    with pytest.raises(RemoteSchemaError):
        client2.fetch(11)


def test_remote_network_failure_falls_back(tmp_path):
    def failing(url):
        raise OSError("boom")

    client = RemoteClient(base_url="https://db.example/api", cache_dir=tmp_path,
                          offline=False, fetcher=failing)
    with pytest.raises(RemoteUnavailableError):
        client.fetch(364)
    # prime the cache with a working fetcher, then fail the network again
    ok = RemoteClient(base_url="https://db.example/api", cache_dir=tmp_path,
                      offline=False, fetcher=lambda url: FAKE_PAYLOAD)
    ok.fetch(364)
    assert client.fetch(364)[0].conductor == 364  # served from cache


def test_default_fetcher_reads_a_json_url(tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(FAKE_PAYLOAD))
    assert dataio._default_fetcher(path.as_uri()) == FAKE_PAYLOAD


def test_default_fetcher_failure_is_remote_unavailable(tmp_path):
    client = RemoteClient(base_url=(tmp_path / "missing").as_uri(),
                          cache_dir=tmp_path / "cache")
    with pytest.raises(RemoteUnavailableError):
        client.fetch(364)


def test_curve_record_roundtrip():
    rec = CurveRecord.from_json(
        {"label": "a", "ainvs": [0, 0, 0, 1, -10], "conductor": 52, "rank": 0,
         "torsion_order": 2}
    )
    assert CurveRecord.from_json(rec.to_json()) == rec


@pytest.mark.skipif(
    __import__("os").environ.get("SHAVIS_LIVE_TEST", "") != "1",
    reason="live curve-database integration; set SHAVIS_LIVE_TEST=1 to enable",
)
def test_remote_fetch_live(tmp_path):
    client = RemoteClient(cache_dir=tmp_path, offline=False)
    recs = client.fetch(364)
    assert any(rec.model == WeierstrassModel.from_list([0, 0, 0, -584, 5444])
               for rec in recs)
