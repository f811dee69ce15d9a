"""Scenario file parsing and validation.

A scenario JSON names the theorem, the curve pair, the odd n (or p), the
fields involved, rank records and user assertions. Validation happens before
any computation; errors carry the offending key.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import fields
from .curves import WeierstrassModel
from .visibility import (
    ScenarioError,
    VisibilityScenario,
    _field_from_json,
    _tower_from_json,
)

BUNDLED_SCENARIOS = (
    "ex1_quadratic_59",
    "ex_493_17_quadratic_195",
    "ex_203_quadratic_3",
    "ex_203_quadratic_23",
    "ex_176_kummer7",
    "ex5_cyclotomic_tower",
)


def parse_curve(value) -> WeierstrassModel:
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"curve {value!r} is not valid JSON: {exc}") from exc
    if not isinstance(value, list) or len(value) != 5:
        raise ScenarioError(f"curve must be a 5-element list, got {value!r}")
    try:
        return WeierstrassModel.from_list([Fraction(str(v)) for v in value])
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad curve coefficients {value!r}: {exc}") from exc


def _list_of_objects(blob: dict, key: str) -> list:
    value = blob.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ScenarioError(f"{key!r} must be a list of objects, got {value!r}")
    return value


def scenario_from_dict(blob: dict) -> VisibilityScenario:
    if not isinstance(blob, dict):
        raise ScenarioError("scenario must be a JSON object")
    if blob.get("schema_version") != 1:
        raise ScenarioError(f"unsupported schema_version {blob.get('schema_version')!r}")
    theorem = blob.get("theorem")
    if "p" in blob:
        n = blob["p"]
    elif "n" in blob:
        n = blob["n"]
    else:
        raise ScenarioError("scenario needs 'p' (or 'n')")
    if not isinstance(n, int):
        raise ScenarioError(f"'p' must be an integer, got {n!r}")
    for key in ("curve_a", "curve_b"):
        if key not in blob:
            raise ScenarioError(f"scenario needs {key!r}")

    target = blob.get("target", {})
    tq = tk = tt = None
    kind = target.get("kind") if isinstance(target, dict) else None
    if kind == "quadratic":
        tq = _field_from_json(target)
    elif kind == "kummer":
        tk = _field_from_json(target)
    elif kind in ("cyclotomic_zp", "false_tate"):
        tt = _tower_from_json(target)
    elif kind is not None:
        raise ScenarioError(f"unknown target kind {kind!r}")

    options = blob.get("options", {})
    if not isinstance(options, dict):
        raise ScenarioError(f"'options' must be an object, got {options!r}")
    mode = options.get("mode", "heuristic")
    if mode not in ("heuristic", "bounded-proof"):
        raise ScenarioError(f"unknown mode {mode!r}")
    evidence = options.get("evidence", "summary")
    if evidence not in ("summary", "full"):
        raise ScenarioError(f"unknown evidence level {evidence!r}")
    limit = options.get("congruence_bound")
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int) or limit < 1):
        raise ScenarioError(f"bad congruence_bound {limit!r}")

    rank_records = _list_of_objects(blob, "rank_records")
    user_assertions = _list_of_objects(blob, "user_assertions")
    for r in rank_records:
        if not {"curve", "field", "rank"} <= set(r):
            raise ScenarioError(f"bad rank record {r!r}")
        rank = r["rank"]
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 0:
            raise ScenarioError(f"rank must be a non-negative integer, got {rank!r} in {r!r}")
        parse_curve(r["curve"])
        _field_from_json(r["field"])

    try:
        return VisibilityScenario(
            name=str(blob.get("name", "unnamed")),
            theorem=theorem,
            curve_a=parse_curve(blob["curve_a"]),
            curve_b=parse_curve(blob["curve_b"]),
            n=n,
            base_field=_field_from_json(blob.get("base_field", {"kind": "rationals"})),
            field_k=_field_from_json(blob.get("field_k", {"kind": "rationals"})),
            target_quadratic=tq,
            target_kummer=tk,
            target_tower=tt,
            rank_records=tuple(dict(r) for r in rank_records),
            user_assertions=tuple(dict(u) for u in user_assertions),
            mode=mode,
            congruence_limit=limit,
            evidence_level=evidence,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from exc


def load_scenario(path: str | Path) -> VisibilityScenario:
    try:
        blob = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_dict(blob)


def bundled_scenario_path(name: str):
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioError(
            f"unknown bundled scenario {name!r}; available: {', '.join(BUNDLED_SCENARIOS)}"
        )
    return resources.files("shavis").joinpath(f"data/scenarios/{name}.json")


def load_bundled_scenario(name: str) -> VisibilityScenario:
    blob = json.loads(bundled_scenario_path(name).read_text())
    return scenario_from_dict(blob)
