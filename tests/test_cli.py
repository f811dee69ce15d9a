import json

from shavis import localdata
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


def test_inspect_singular_exits_2(capsys):
    code, _, err = run(capsys, "inspect", "[0,0,0,0,0]")
    assert code == 2
    assert "singular" in err


def test_inspect_malformed_exits_2(capsys):
    code, _, _ = run(capsys, "inspect", "[1,2,3]")
    assert code == 2


def test_inspect_soundness_guard_exits_5(capsys, monkeypatch):
    # a broken cubic root count makes Tate report I0* at 3 with c = 6: a bug
    # in the program, not bad input, so the guard must reach exit 5
    monkeypatch.setattr(localdata, "_cubic_root_count", lambda b, c, d, p: 5)
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
    assert run(capsys, "examples", "nope")[0] == 2


def test_examples_all(capsys):
    code, out, _ = run(capsys, "examples", "all")
    assert code == 0
    assert out.count("PASS") == 6
    assert "all pass" in out
