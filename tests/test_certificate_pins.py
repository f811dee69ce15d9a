"""Byte pins for certificates: one per bundled scenario and one per other
theorem path (improv, plain and refined nontrivial, false-Tate lie, exten
without rank records).

Each digest is the SHA-256 of the certificate as `shavis verify --out`
writes it. A change that moves any byte of any of these certificates fails
here; the bundled digests are the ones perfbench/reference.json records.
"""

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from shavis import fields, localdata
from shavis.scenario import BUNDLED_SCENARIOS, load_bundled_scenario, scenario_from_dict
from shavis.visibility import verify_scenario

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

E203_1 = [0, -1, 1, 20, -8]
E203_2 = [1, 1, 0, -9, 8]

BUNDLED_DIGESTS = {
    "ex1_quadratic_59": "e76b51f2a224bfdaefbc075f9d0ef5c9dae860350263008430bd0a720f21b8e9",
    "ex_493_17_quadratic_195": "0eac69f43e1c67cbf424ed919ec432b66bfb738cbe37d41650728d5f1f8c934f",
    "ex_203_quadratic_3": "74fc1f75539c68d61343aaf26be32bb0bafff83bf9834d4481d817d5331d2730",
    "ex_203_quadratic_23": "66da9832da38b618e6e305fbedf75f5551e2a12af7cee4b4ff2a6a267d1929e4",
    "ex_176_kummer7": "cfe437d7efb25882ad0d232685ac88963ec74936a71ea2008d3330c03bc305f6",
    "ex5_cyclotomic_tower": "5d1fba537df5eb74e6a213e43f222d161df72b50e04497568bccd5b10587f74b",
}

PATH_SCENARIOS = {
    "improv-3536": {
        "schema_version": 1, "name": "improv-3536", "theorem": "improv", "p": 3,
        "curve_a": [0, 1, 0, -30008176, -63229110828],
        "curve_b": [0, 1, 0, -144, 532],
        "rank_records": [
            {"curve": [0, 1, 0, -30008176, -63229110828], "field": {"kind": "rationals"},
             "rank": 0, "provenance": "user"},
            {"curve": [0, 1, 0, -144, 532], "field": {"kind": "rationals"},
             "rank": 2, "provenance": "user"},
        ],
        "options": {"congruence_bound": 120},
    },
    "nontrivial-493": {
        "schema_version": 1, "name": "nontrivial-493", "theorem": "nontrivial",
        "p": 3, "curve_a": [1, -1, 1, -57, 222], "curve_b": [1, -1, 1, -91, -310],
        "options": {"congruence_bound": 60},
    },
    "nontrivial1-203": {
        "schema_version": 1, "name": "nontrivial1-203", "theorem": "nontrivial1",
        "p": 3, "curve_a": E203_1, "curve_b": E203_2,
        "field_k": {"kind": "quadratic", "d": 3},
        "options": {"congruence_bound": 60},
    },
    "lie-false-tate": {
        "schema_version": 1, "name": "ft", "theorem": "lie", "p": 3,
        "curve_a": [0, 1, 0, -5, -13], "curve_b": [0, 1, 0, 56, -588],
        "field_k": {"kind": "cyclotomic", "p": 3},
        "target": {"kind": "false_tate", "p": 3, "m": 7},
        "options": {"congruence_bound": 60},
    },
}

PATH_DIGESTS = {
    "improv-3536": "8f3bf34c1471c7b7fc70243c0a4ed02478a8549082fa2987f6bc6bacf6233b63",
    "nontrivial-493": "535af01694095969a0ce6059679eb9b1c6e7d2ec8fc7b31940cdb4b33e695950",
    "nontrivial1-203": "652cd2672297801bada6d56d413c0624c0f7da1d07f79677e5f98e16cbebf584",
    "lie-false-tate": "642794210d5f2af22be147280324cc1ba6de3a9ff6f8acf850a834a306562530",
    "exten-partial": "c6021dcf194c65f623660439e9f81d8feafd28dc6bcbf3bf9ca67909aa536070",
}


def _digest(cert) -> str:
    text = json.dumps(cert.to_json(), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _scenario(name):
    if name in BUNDLED_DIGESTS:
        return load_bundled_scenario(name)
    if name == "exten-partial":
        s = load_bundled_scenario("ex_176_kummer7")
        return replace(s, rank_records=(), user_assertions=())
    return scenario_from_dict(PATH_SCENARIOS[name])


@pytest.fixture(scope="module")
def certificate(dataset):
    """The certificate of a pinned scenario, computed once per module."""
    return functools.cache(lambda name: verify_scenario(_scenario(name), dataset))


def test_bundled_digests_match_the_benchmark_reference():
    assert sorted(BUNDLED_DIGESTS) == sorted(BUNDLED_SCENARIOS)
    reference = json.loads(REFERENCE.read_text())
    assert reference["examples"] == BUNDLED_DIGESTS


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_certificate_bytes(certificate, name):
    assert _digest(certificate(name)) == BUNDLED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PATH_DIGESTS))
def test_theorem_path_certificate_bytes(certificate, name):
    assert _digest(certificate(name)) == PATH_DIGESTS[name]


TAMAGAWA_IDS = ("I.tamagawa", "Q.ii", "E.ii")


@pytest.mark.parametrize("name", [*BUNDLED_DIGESTS, *sorted(PATH_DIGESTS)])
def test_tamagawa_verdicts_rederive_from_their_evidence(certificate, name):
    # every Tamagawa verdict is re-derived by the pure rule from the local
    # data the certificate itself records, without the engine
    cert = certificate(name).to_json()
    field_k = fields.field_from_json(cert["scenario"]["field_k"])
    verdicts = [v for v in cert["verdicts"] if v["id"] in TAMAGAWA_IDS]
    for v in verdicts:
        for per_prime in v["evidence"]["curves"].values():
            for p, recorded in per_prime.items():
                local = [localdata.LocalReductionData.from_json(entry["local"])
                         for entry in recorded["detail"].values()]
                rederived = localdata.is_p_unit_tamagawa(local, int(p), field_k)
                assert rederived.to_json() == recorded, (v["id"], p)
    assert len(verdicts) == (cert["theorem"] in ("improv", "quadratic", "exten"))
