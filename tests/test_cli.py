import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import shavis
from shavis import arith, curves, dataio, fields, localdata, visibility
from shavis.cli import main
from shavis.scenario import bundled_scenario_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_inspect_human(capsys):
    code, out, _ = run(capsys, "inspect", "[0,0,0,1,-10]")
    assert code == 0
    assert "conductor 52" in out
    assert "I2" in out and "IV*" in out


def test_inspect_json(capsys):
    code, out, _ = run(capsys, "inspect", "--json", "[0,0,0,-584,5444]")
    assert code == 0
    blob = json.loads(out)
    assert blob["conductor"] == 364
    assert blob["conductor_factorization"] == {"2": 2, "7": 1, "13": 1}
    assert {l["q"]: l["c"] for l in blob["local_data"]}[7] == 5
    # stable output: reserializing with sorted keys is identical
    assert json.dumps(blob, indent=2, sort_keys=True) == out.strip()


def test_inspect_json_of_a_non_minimal_model(capsys):
    # [0,0,0,-584,5444] moved by u = 1/2, r = s = t = 1: everything but the
    # echoed input is what the minimal model prints, j included
    code, out, _ = run(capsys, "inspect", "--json", "[4,8,16,-9328,311040]")
    assert code == 0
    shown = json.loads(out)
    code, out, _ = run(capsys, "inspect", "--json", "[0,0,0,-584,5444]")
    assert code == 0
    minimal = json.loads(out)
    assert shown.pop("input") == ["4", "8", "16", "-9328", "311040"]
    assert minimal.pop("input") == minimal["minimal_model"]
    assert shown == minimal
    assert minimal["invariants"]["j"] == "-86044336128/218491"  # c4^3/disc in lowest terms


def test_inspect_singular_exits_2(capsys):
    code, _, err = run(capsys, "inspect", "[0,0,0,0,0]")
    assert code == 2
    assert "singular" in err


def test_inspect_malformed_exits_2(capsys):
    code, _, _ = run(capsys, "inspect", "[1,2,3]")
    assert code == 2


@pytest.mark.parametrize("curve", ["xyz", "[0,0,0,1/2,3]"])
def test_inspect_invalid_json_exits_2(capsys, curve):
    code, _, err = run(capsys, "inspect", curve)
    assert code == 2
    assert err.startswith("error: curve") and "not valid JSON" in err


def test_inspect_soundness_guard_exits_5(capsys, monkeypatch):
    # a broken cubic root count makes Tate report I0* at 3 with c = 6: a bug
    # in the program, not bad input, so the guard must reach exit 5
    monkeypatch.setattr(localdata, "_cubic_root_count", lambda b, c, d, p: 5)
    localdata.curve_facts.cache_clear()  # so Tate's algorithm runs on this curve
    code, _, err = run(capsys, "inspect", "[0,0,0,-9,0]")
    assert code == 5
    assert err.startswith("internal error: inconsistent local data") and "'c': 6" in err


def test_verify_bundled_ex1(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, err = run(
        capsys, "verify", str(bundled_scenario_path("ex1_quadratic_59")),
        "--out", str(out_file),
    )
    assert code == 0
    cert = json.loads(out_file.read_text())
    assert cert["overall"] == "certified"
    assert cert["conclusion"]["min_visible_order"] == 25
    assert "ex1_quadratic_59: certified" in err


def test_verify_out_into_missing_directory_exits_2(capsys, tmp_path):
    out_file = tmp_path / "missing" / "cert.json"
    code, _, err = run(
        capsys, "verify", str(bundled_scenario_path("ex1_quadratic_59")),
        "--out", str(out_file),
    )
    assert code == 2
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_verify_failing_scenario_exits_3(capsys, tmp_path):
    # untwisted pair with the Tamagawa number 5 at 7 left un-excused
    blob = {
        "schema_version": 1, "name": "broken", "theorem": "quadratic", "p": 5,
        "curve_a": [0, 0, 0, 1, -10], "curve_b": [0, 0, 0, -584, 5444],
        "target": {"kind": "quadratic", "d": 29},
        "rank_records": [
            {"curve": [0, 0, 0, 1, -10], "field": {"kind": "rationals"}, "rank": 0,
             "provenance": "user"},
            {"curve": [0, 0, 0, -584, 5444], "field": {"kind": "rationals"}, "rank": 1,
             "provenance": "user"},
        ],
        "options": {"congruence_bound": 60},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    cert = json.loads(out[: out.rindex("}") + 1])
    verdicts = {v["id"]: v["status"] for v in cert["verdicts"]}
    assert verdicts["Q.ii"] == "fails"


def test_verify_schema_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(capsys, "verify", str(path))[0] == 2
    path.write_text(json.dumps({"schema_version": 1, "theorem": "quadratic"}))
    assert run(capsys, "verify", str(path))[0] == 2
    path.write_text(json.dumps({
        "schema_version": 1, "theorem": "quadratic", "p": 4,
        "curve_a": [0, 0, 0, 1, -10], "curve_b": [0, 0, 0, -584, 5444],
        "target": {"kind": "quadratic", "d": 29},
    }))
    assert run(capsys, "verify", str(path))[0] == 2


def _write(tmp_path, blob):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(blob))
    return str(path)


@pytest.mark.parametrize("rank", ["x", 1.5, -1, True])
def test_verify_bad_rank_record_exits_2(capsys, tmp_path, rank):
    blob = json.loads(bundled_scenario_path("ex_176_kummer7").read_text())
    blob["rank_records"][2]["rank"] = rank
    code, _, err = run(capsys, "verify", _write(tmp_path, blob))
    assert code == 2
    assert err.startswith("error: rank must be a non-negative integer")


@pytest.mark.parametrize("provenance, code", [("dataset", 2), (["x"], 2), (None, 0)])
def test_verify_rank_record_provenance_must_be_user(capsys, tmp_path, provenance, code):
    # a scenario supplies user ranks only; an absent provenance means "user"
    blob = json.loads(bundled_scenario_path("ex_176_kummer7").read_text())
    for record in blob["rank_records"]:
        del record["provenance"]
        if provenance is not None:
            record["provenance"] = provenance
    assert run(capsys, "verify", _write(tmp_path, blob))[0] == code


@pytest.mark.parametrize("key, value, shape", [
    pytest.param("options", [], "an object", id="options-list"),
    pytest.param("options", "bounded-proof", "an object", id="options-string"),
    pytest.param("rank_records", 5, "a list of objects", id="rank_records-int"),
    pytest.param("rank_records", {"curve": [0, 0, 0, 1, -10]}, "a list of objects",
                 id="rank_records-object"),
    pytest.param("user_assertions", 5, "a list of objects", id="user_assertions-int"),
    pytest.param("user_assertions", [[["id", "ua"]]], "a list of objects",
                 id="user_assertions-pairs"),
])
def test_verify_bad_scenario_shape_exits_2(capsys, tmp_path, key, value, shape):
    blob = json.loads(bundled_scenario_path("ex1_quadratic_59").read_text())
    blob[key] = value
    code, _, err = run(capsys, "verify", _write(tmp_path, blob))
    assert code == 2
    assert err.startswith(f"error: '{key}' must be {shape}")


@pytest.mark.parametrize("key, field, bad", [
    pytest.param("field_k", {"kind": "cyclotomic", "p": 3.9}, "'p'", id="cyclotomic-p-float"),
    pytest.param("target", {"kind": "quadratic", "d": 5.5}, "'d'", id="quadratic-d-float"),
    pytest.param("target", {"kind": "quadratic", "d": "59"}, "'d'", id="quadratic-d-text"),
    pytest.param("target", {"kind": "quadratic", "d": True}, "'d'", id="quadratic-d-bool"),
    pytest.param("target", {"kind": "cyclotomic_zp", "p": 3.7}, "'p'", id="cyclotomic_zp-p-float"),
    pytest.param("target", {"kind": "false_tate", "p": 3, "m": 7.0}, "'m'", id="false_tate-m-float"),
])
def test_verify_non_integer_field_parameter_exits_2(capsys, tmp_path, key, field, bad):
    blob = json.loads(bundled_scenario_path("ex1_quadratic_59").read_text())
    blob[key] = field
    code, _, err = run(capsys, "verify", _write(tmp_path, blob))
    assert code == 2
    assert f"{bad} must be an integer" in err


def test_verify_singular_rank_record_exits_2(capsys, tmp_path):
    blob = json.loads(bundled_scenario_path("ex_203_quadratic_3").read_text())
    blob["rank_records"] = [{"curve": [0, 0, 0, 0, 0], "field": {"kind": "rationals"}, "rank": 0}]
    code, _, err = run(capsys, "verify", _write(tmp_path, blob))
    assert code == 2
    assert err.startswith("error: singular model")


@pytest.mark.parametrize("assertion, key", [
    pytest.param({"id": 5}, "id", id="id-int"),
    pytest.param({"id": "ua", "statement": ["a", "list"]}, "statement", id="statement-list"),
])
def test_verify_non_string_user_assertion_exits_2(capsys, tmp_path, assertion, key):
    blob = json.loads(bundled_scenario_path("ex_203_quadratic_3").read_text())
    blob["user_assertions"] = [assertion]
    out_file = tmp_path / "cert.json"
    code, _, err = run(capsys, "verify", _write(tmp_path, blob), "--out", str(out_file))
    assert code == 2
    assert err.startswith(f"error: user assertion '{key}' must be a string")
    assert not out_file.exists()  # rejected before any computation


def test_verify_bool_congruence_bound_exits_2(capsys, tmp_path):
    blob = json.loads(bundled_scenario_path("ex1_quadratic_59").read_text())
    blob["options"]["congruence_bound"] = True
    code, _, err = run(capsys, "verify", _write(tmp_path, blob))
    assert code == 2
    assert err.startswith("error: bad congruence_bound True")


def test_verify_directory_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path))
    assert code == 2
    assert err.startswith("error:") and "Is a directory" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "verify", str(missing))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_verify_quadratic_target_d4_exits_2(capsys, tmp_path):
    # d = 4 is a square, so Q(sqrt(d)) is not a quadratic field
    blob = json.loads(bundled_scenario_path("ex1_quadratic_59").read_text())
    blob["target"] = {"kind": "quadratic", "d": 4}
    code, _, err = run(capsys, "verify", _write(tmp_path, blob))
    assert code == 2
    assert "error:" in err


def test_verify_improv_over_kummer_k_exits_2(capsys, tmp_path):
    blob = {
        "schema_version": 1, "name": "improv-kummer", "theorem": "improv", "p": 3,
        "curve_a": [0, 1, 0, -5, -13], "curve_b": [0, 1, 0, 56, -588],
        "field_k": {"kind": "kummer", "p": 3, "m": 7},
        "options": {"congruence_bound": 60},
    }
    code, _, err = run(capsys, "verify", _write(tmp_path, blob))
    assert code == 2
    assert "kummer" in err


def test_verify_improv_over_cyclotomic_without_ranks(capsys, tmp_path):
    # ranks over Q(mu_3) can only come from user records: the certificate is
    # written and says so, it does not end in an internal error
    blob = {
        "schema_version": 1, "name": "improv-cyclotomic", "theorem": "improv", "p": 3,
        "curve_a": [0, 1, 0, -5, -13], "curve_b": [0, 1, 0, 56, -588],
        "field_k": {"kind": "cyclotomic", "p": 3},
        "options": {"congruence_bound": 60},
    }
    code, out, _ = run(capsys, "verify", _write(tmp_path, blob))
    cert = json.loads(out[: out.rindex("}") + 1])
    assert code == {"partial": 4, "failed": 3}[cert["overall"]]
    assert cert["conclusion"]["statement"].startswith("rank records missing")


@pytest.mark.parametrize("p", [100003, 1000000007])
def test_verify_improv_over_large_cyclotomic_finishes(tmp_path, p):
    # no prime below the witness bound splits in Q(mu_p), so the search
    # falls back to the p-division polynomial, of degree (p^2 - 1)/2; at
    # the larger p a residue-degree loop of p steps hangs too. A subprocess,
    # so a hang fails the test instead of stalling the suite
    blob = json.loads(bundled_scenario_path("ex_493_17_quadratic_195").read_text())
    del blob["target"]
    blob.update(name="improv-large-p", theorem="improv", p=p,
                field_k={"kind": "cyclotomic", "p": p})
    src = str(Path(shavis.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "shavis.cli", "verify", _write(tmp_path, blob)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=30)
    assert done.returncode in (3, 4), done.stderr


@pytest.mark.parametrize("mode", ["heuristic", "bounded-proof"])
def test_verify_congruence_bound_past_the_point_count_cap(tmp_path, mode):
    # a Sturm bound of about 2.9e10. No mismatch stops a heuristic sweep, so
    # it must fail at once, not after the 664k primes below the cap of 10^7;
    # a bounded-proof sweep stops at its first mismatch and keeps its
    # refuted certificate. A subprocess, so a hang fails the test
    blob = json.loads(bundled_scenario_path("ex_203_quadratic_3").read_text())
    blob["curve_b"] = [17, 4, 17, 0, 17]
    blob["options"]["mode"] = mode
    src = str(Path(shavis.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "shavis.cli", "verify", _write(tmp_path, blob)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=30)
    if mode == "heuristic":
        assert done.returncode == 2, done.stderr
        assert done.stderr == "error: point counting capped at q <= 10000000\n"
        return
    assert done.returncode == 3, done.stderr
    cert = json.loads(done.stdout[: done.stdout.rindex("}") + 1])
    (congruence,) = [v for v in cert["verdicts"] if v["id"] == "A.a"]
    assert congruence["evidence"]["congruence"] == {"3": {
        "bound": 28997222400, "mode": "bounded-proof", "p": 3, "primes_checked": 2,
        "verdict": "refuted",
        "mismatches": [{"a_q_good": -4, "ok": False, "q": 5, "rule": "level-lowering +-(q+1)"}],
    }}


def test_verify_improv_at_an_isogeny_prime_past_the_torsion_primes(tmp_path):
    # 121a1 twisted by 5, and 121a1: a rational 11-isogeny, so no Frobenius
    # witness exists and the torsion check falls back to rational roots of
    # f_11, which Mazur's torsion theorem rules out unbuilt. The old divisor
    # search ran for more than 30 s. A subprocess, so a hang fails the test
    blob = {"schema_version": 1, "name": "improv-121-twist-11", "theorem": "improv", "p": 11,
            "curve_a": [1, 0, 1, -751, -7977], "curve_b": [1, 1, 1, -30, -76]}
    src = str(Path(shavis.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "shavis.cli", "verify", _write(tmp_path, blob)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 3, done.stderr
    cert = json.loads(done.stdout[done.stdout.index("{"):])
    (torsion,) = [v for v in cert["verdicts"] if v["id"] == "A.d"]
    assert torsion["evidence"]["per_prime"]["11"] == {
        "status": "Inconclusive", "note": "no witness below 1000, no rational p-torsion x",
        "fallback": {"status": "holds", "note": "no rational 11-torsion on any factor"},
    }


def test_verify_kummer_rank_off_the_zeta_lattice_exits_2(capsys, tmp_path):
    # rank A(M) = 1 over rank A(K) = 0 at p = 3: the part of A(M) that
    # Gal(M/K) moves has even rank, so the record is bad input, not a bound
    blob = json.loads(bundled_scenario_path("ex_176_kummer7").read_text())
    blob["rank_records"][0]["rank"] = 1
    code, _, err = run(capsys, "verify", _write(tmp_path, blob))
    assert code == 2
    assert err.startswith("error: rank A(Q(mu_3)(7^(1/3))) = 1 and rank A(Q(mu_3)) = 0")


def test_verify_partial_exits_4(capsys, tmp_path):
    blob = json.loads(bundled_scenario_path("ex_176_kummer7").read_text())
    blob["rank_records"] = []
    blob["user_assertions"] = []
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(blob))
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 4


def test_verify_kummer_base_field_is_partial(capsys, tmp_path):
    # the splitting of 3 in Q(mu_3)(7^(1/3)) is out of reach: A.b is
    # inconclusive, not an internal error
    blob = json.loads(bundled_scenario_path("ex_176_kummer7").read_text())
    blob["base_field"] = {"kind": "kummer", "p": 3, "m": 7}
    path = tmp_path / "kummer_base.json"
    path.write_text(json.dumps(blob))
    out_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "verify", str(path), "--out", str(out_file))
    assert code == 4
    cert = json.loads(out_file.read_text())
    assert cert["overall"] == "partial"
    (ab,) = [v for v in cert["verdicts"] if v["id"] == "A.b"]
    assert ab["status"] == "inconclusive"
    assert "depends on 7 mod 3^2" in ab["evidence"]["error"]


def test_examples_single(capsys):
    code, out, _ = run(capsys, "examples", "ex1")
    assert code == 0
    assert "PASS" in out and "25" in out


def test_examples_unknown(capsys):
    code, _, err = run(capsys, "examples", "nope")
    assert code == 2
    assert err.startswith("error: unknown example 'nope'; known: 176, 203, 493, ex1, ex5, ")


@pytest.mark.parametrize("content, message", [
    pytest.param(None, "[Errno 2] No such file or directory", id="missing"),
    pytest.param("x|y\n", "line 1: expected 5 pipe-separated fields", id="malformed"),
    pytest.param("x|[0,0,0,0,0]|11|0|1\n", "line 1: singular model", id="singular"),
])
def test_examples_bad_dataset_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "curves.dataset"
    if content is not None:
        path.write_text(content)
    code, _, err = run(capsys, "examples", "ex1", "--dataset", str(path))
    assert code == 2
    assert err.startswith(f"error: {message}")


def test_examples_all(capsys):
    code, out, _ = run(capsys, "examples", "all")
    assert code == 0
    assert out.count("PASS") == 6
    assert "all pass" in out


# ---- the scenario fuzzer: no input reaches exit 5

SMALL = st.integers(-30, 30)
PRIME = st.sampled_from([2, 3, 5, 7, 11])
FIELD = st.one_of(
    st.just({"kind": "rationals"}),
    st.builds(lambda d: {"kind": "quadratic", "d": d}, SMALL),
    st.builds(lambda p: {"kind": "cyclotomic", "p": p}, PRIME),
    st.builds(lambda p, m: {"kind": "kummer", "p": p, "m": m}, PRIME, SMALL),
    st.builds(lambda p: {"kind": "cyclotomic_zp", "p": p}, PRIME),
    st.builds(lambda p, m: {"kind": "false_tate", "p": p, "m": m}, PRIME, SMALL),
)
#: Values of the shapes a scenario holds, mostly in the wrong place.
JUNK = st.one_of(
    st.none(), st.booleans(), SMALL, st.floats(-30, 30), st.text(max_size=4),
    st.sampled_from(["improv", "quadratic", "nontrivial", "nontrivial1", "exten", "lie",
                     "heuristic", "bounded-proof", "full", "rationals", "false_tate"]),
    st.lists(SMALL, min_size=5, max_size=5), st.lists(SMALL, max_size=3), FIELD,
    st.dictionaries(st.sampled_from(["kind", "d", "p", "m", "id", "curve"]), SMALL, max_size=2),
)
#: Where the junk goes: a top-level key, or (object, key) for one field of
#: the rank record, the user assertion, the target or the options.
PLACES = (
    "schema_version", "name", "theorem", "p", "curve_a", "curve_b", "base_field",
    "field_k", "target", "rank_records", "user_assertions", "options",
    *(("rank_records", k) for k in ("curve", "field", "rank", "provenance")),
    *(("user_assertions", k) for k in ("id", "statement")),
    *(("target", k) for k in ("kind", "d")),
    *(("options", k) for k in ("mode", "evidence", "congruence_bound")),
)


def fuzzed_scenario(place, junk) -> dict:
    """ex_203_quadratic_3 with one rank record and one user assertion, and
    `junk` at `place`."""
    blob = json.loads(bundled_scenario_path("ex_203_quadratic_3").read_text())
    blob["rank_records"] = [{"curve": [0, -1, 1, 20, -8], "field": {"kind": "rationals"},
                             "rank": 0, "provenance": "user"}]
    blob["user_assertions"] = [{"id": "ua", "statement": "a user claim"}]
    if isinstance(place, str):
        blob[place] = junk
    else:
        key, field = place
        target = blob[key][0] if key in ("rank_records", "user_assertions") else blob[key]
        target[field] = junk
    return blob


@settings(max_examples=40, deadline=None)
@given(place=st.sampled_from(PLACES), junk=JUNK)
@example(place=("user_assertions", "id"), junk=5)
@example(place=("rank_records", "curve"), junk=[0, 0, 0, 0, 0])
@example(place=("rank_records", "curve"), junk="[0, -1, 1, 20, -8]")
@example(place=("target", "d"), junk=float("inf"))
@example(place="curve_b", junk=[17, 4, 17, 0, 17])  # a Sturm bound near 2.9 * 10^10
def test_verify_fuzzed_scenario_never_exits_5(place, junk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(fuzzed_scenario(place, junk)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", str(path), "--out", str(Path(tmp) / "cert.json")])
    assert code in {0, 2, 3, 4}, err.getvalue()


# ---- text no reader can decode: exit 2 with an error line, never exit 5

DEEP = "[" * 20000 + "]" * 20000  # nested past the recursion limit
LONG = "7" * 4301  # one digit past int's limit for decimal text


def _scenario_with(raw: bytes, key="p", name="ex1_quadratic_59") -> bytes:
    """A bundled scenario as bytes, with the raw text `raw` as the value of key."""
    blob = json.loads(bundled_scenario_path(name).read_text())
    blob[key] = "@"
    return json.dumps(blob).encode().replace(b'"@"', raw)


def test_verify_non_utf8_scenario_exits_2(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(_scenario_with(b'"ex1 \xff"', key="name"))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("raw, message", [
    pytest.param(DEEP.encode(), "maximum recursion depth exceeded", id="nested"),
    pytest.param(LONG.encode(), "Exceeds the limit (4300 digits)", id="long-p"),
])
def test_verify_scenario_past_the_decoder_limits_exits_2(capsys, tmp_path, raw, message):
    path = tmp_path / "scenario.json"
    path.write_bytes(_scenario_with(raw))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: not valid JSON: {message}")


@pytest.mark.parametrize("curve, message", [
    pytest.param(DEEP, "maximum recursion depth exceeded", id="nested"),
    pytest.param(f"[0,0,0,0,{LONG}]", "Exceeds the limit (4300 digits)", id="long-a6"),
])
def test_inspect_past_the_decoder_limits_exits_2(capsys, curve, message):
    code, _, err = run(capsys, "inspect", curve)
    assert code == 2
    assert err.startswith("error: curve '") and f"': not valid JSON: {message}" in err


#: The product of the primes from 5 to 5197, 2218 digits: the minimal
#: discriminant of y^2 = x^3 + BIG_P, -432 BIG_P^2, has more than 4300.
BIG_P = math.prod(q for q in arith.primes(5197) if q >= 5)


@pytest.mark.parametrize("curve, message", [
    pytest.param(f"[0,0,0,0,{BIG_P}]", "the discriminant has more than 4300 decimal digits",
                 id="disc"),
    pytest.param('[0,0,0,0,"1e4400"]', "exponent past the 4300-digit limit", id="1e4400"),
    pytest.param('[0,0,0,0,"1e20000"]', "exponent past the 4300-digit limit", id="1e20000"),
    pytest.param('[0,0,0,0,"-2e-4400"]', "exponent past the 4300-digit limit", id="-2e-4400"),
    pytest.param('[0,0,0,0,"1e4300"]', "coefficient '1e4300' has more than 4300 decimal digits",
                 id="1e4300"),
])
@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
def test_inspect_past_the_digit_limit_exits_2(capsys, curve, message, form):
    # output Python cannot print is refused before any is printed
    code, out, err = run(capsys, "inspect", *form, curve)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_verify_certificate_past_the_digit_limit_exits_2(capsys, tmp_path):
    # ex1 with B = y^2 = x^3 + BIG_P: the congruence bound of the pair has
    # more than 4300 digits, so the certificate is refused, not printed
    blob = json.loads(bundled_scenario_path("ex1_quadratic_59").read_text())
    blob["curve_b"] = [0, 0, 0, 0, BIG_P]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(blob))
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "verify", str(path), "--out", str(cert))
    assert (code, out, cert.exists()) == (2, "", False)
    assert err == ("error: output.verdicts[0].evidence.congruence.5.bound has more "
                   "than 4300 decimal digits\n")


def test_coefficients_within_the_digit_limit_parse_exactly():
    # 10^4299 has 4300 digits, the most the limit allows
    assert curves.parse_curve('[0,0,0,0,"1e4299"]').a6 == 10**4299
    assert curves.parse_curve('[0,0,0,1,"1.5e3"]').a6 == 1500
    assert curves.parse_curve(["0.25e-2", 0, 0, 1, 1]).a1 == Fraction(1, 400)


@pytest.mark.parametrize("command", [
    ["verify", str(bundled_scenario_path("ex1_quadratic_59"))], ["examples", "ex1"],
])
def test_non_utf8_dataset_exits_2(capsys, tmp_path, command):
    path = tmp_path / "curves.dataset"
    path.write_bytes(b"ex1.E1|[0,0,0,1,-10]|52|0|2\n# \xff\n")
    code, _, err = run(capsys, *command, "--dataset", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: not valid UTF-8")


def test_dataset_row_nested_too_deep_exits_2(capsys, tmp_path):
    path = tmp_path / "curves.dataset"
    path.write_text(f"x|{DEEP}|11|0|1\n")
    code, _, err = run(capsys, "examples", "ex1", "--dataset", str(path))
    assert code == 2
    assert err.startswith("error: line 1: a-invariants: not valid JSON: maximum recursion depth")


def test_verify_p_and_n_both_given_exits_2(capsys, tmp_path):
    # it once ran with p = 5 and ignored n
    path = tmp_path / "scenario.json"
    path.write_bytes(_scenario_with(b"7", key="n"))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err == "error: scenario gives both 'p' and 'n'; give one\n"


def test_verify_kummer_target_over_a_pth_power_exits_2(capsys, tmp_path):
    # Q(mu_3)(27^(1/3)) is Q(mu_3): no Kummer layer to see Sha in
    path = tmp_path / "scenario.json"
    path.write_bytes(_scenario_with(b'{"kind": "kummer", "p": 3, "m": 27}', key="target",
                                    name="ex_176_kummer7"))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: bad kummer field") and "27 = 3^3 is a p-th power" in err


def test_every_input_error_class_is_one_family():
    for cls in (visibility.ScenarioError, dataio.DatasetError, curves.SingularCurveError,
                fields.UnsupportedFieldError, localdata.UnsupportedBaseChangeError):
        assert issubclass(cls, arith.ArithmeticError_), cls
    assert not issubclass(arith.SoundnessError, arith.ArithmeticError_)


#: Outside text at and past the decoder's limits: random bytes, lists nested
#: 10^4 to 10^5 deep, integer literals of 4301 to 6000 digits, and decimal
#: strings with exponents near and past 4300.
RAW = st.one_of(
    st.binary(max_size=24),
    st.integers(10**4, 10**5).map(lambda n: b"[" * n + b"]" * n),
    st.integers(4301, 6000).map(lambda n: b"9" * n),
    st.integers(4290, 10**6).map(lambda n: b'"7e%d"' % n),
)


@settings(max_examples=60, deadline=None)
@given(reader=st.sampled_from(["scenario", "dataset", "inspect"]), whole=st.booleans(),
       place=st.sampled_from(PLACES), raw=RAW)
@example(reader="scenario", whole=True, place="p", raw=b"\xff")
@example(reader="dataset", whole=False, place="p", raw=b"[" * 10**5 + b"]" * 10**5)
@example(reader="inspect", whole=False, place="p", raw=b"9" * 4301)
@example(reader="scenario", whole=False, place="curve_b", raw=b'"1e4400"')
def test_cli_fuzzed_bytes_never_exit_5(reader, whole, place, raw):
    """`raw` as the whole input, or spliced into a valid one: into the
    scenario at `place`, as the a-invariants of a dataset row, as a6."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        if reader == "scenario":
            blob = json.dumps(fuzzed_scenario(place, "@")).encode()
            path.write_bytes(raw if whole else blob.replace(b'"@"', raw))
            argv = ["verify", str(path), "--out", str(Path(tmp) / "cert.json")]
        elif reader == "dataset":
            path.write_bytes(raw if whole else b"x|" + raw + b"|11|0|1\n")
            argv = ["examples", "ex1", "--dataset", str(path)]
        else:  # an argument reaches the program as the OS decodes it
            text = raw.decode("utf-8", "surrogateescape")
            argv = ["inspect", text if whole else f"[0,0,0,0,{text}]"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in {0, 2, 3, 4}, err.getvalue()[:2000]
