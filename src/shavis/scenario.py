"""Scenario file parsing and validation.

A scenario JSON names the theorem, the curve pair, the odd n (or p), the
fields involved, rank records and user assertions. This module is its one
reader, with one parser per shape (curve, field, tower, rank record) from
the module that owns it; building the `VisibilityScenario` applies the
theorem's input rules. Every input error is a ScenarioError raised before
any computation, and names the offending key or value.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from . import arith, dataio, fields
from .curves import parse_curve
from .visibility import ScenarioError, VisibilityScenario

BUNDLED_SCENARIOS = (
    "ex1_quadratic_59",
    "ex_493_17_quadratic_195",
    "ex_203_quadratic_3",
    "ex_203_quadratic_23",
    "ex_176_kummer7",
    "ex5_cyclotomic_tower",
)


def _list_of_objects(blob: dict, key: str) -> list:
    value = blob.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ScenarioError(f"{key!r} must be a list of objects, got {value!r}")
    return value


def _target(blob):
    """The target field M or tower; None when the scenario names none."""
    if blob is None:
        return None
    kind = blob.get("kind") if isinstance(blob, dict) else None
    if kind in ("quadratic", "kummer"):
        return fields.field_from_json(blob)
    if kind in ("cyclotomic_zp", "false_tate"):
        return fields.tower_from_json(blob)
    raise ScenarioError(f"unknown target kind {kind!r}")


def scenario_from_dict(blob: dict) -> VisibilityScenario:
    if not isinstance(blob, dict):
        raise ScenarioError("scenario must be a JSON object")
    if blob.get("schema_version") != 1:
        raise ScenarioError(f"unsupported schema_version {blob.get('schema_version')!r}")
    if "p" in blob and "n" in blob:
        raise ScenarioError("scenario gives both 'p' and 'n'; give one")
    n = blob.get("p", blob.get("n"))
    if n is None:
        raise ScenarioError("scenario needs 'p' (or 'n')")
    if not isinstance(n, int):
        raise ScenarioError(f"'p' must be an integer, got {n!r}")
    for key in ("curve_a", "curve_b"):
        if key not in blob:
            raise ScenarioError(f"scenario needs {key!r}")

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
    for ua in user_assertions:
        for key in ("id", "statement"):
            if not isinstance(ua.get(key, ""), str):
                raise ScenarioError(f"user assertion {key!r} must be a string, got {ua[key]!r}")

    try:
        for r in rank_records:
            dataio.rank_record_from_json(r)
        return VisibilityScenario(
            name=str(blob.get("name", "unnamed")),
            theorem=blob.get("theorem"),
            curve_a=parse_curve(blob["curve_a"]),
            curve_b=parse_curve(blob["curve_b"]),
            n=n,
            base_field=fields.field_from_json(blob.get("base_field", {"kind": "rationals"})),
            field_k=fields.field_from_json(blob.get("field_k", {"kind": "rationals"})),
            target=_target(blob.get("target")),
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


def load_scenario(path) -> VisibilityScenario:
    """The scenario in a file, given by its path or as a bundled resource."""
    source = Path(path) if isinstance(path, str) else path
    return scenario_from_dict(arith.decode(source.read_bytes(), str(path), ScenarioError))


def bundled_scenario_path(name: str):
    if name not in BUNDLED_SCENARIOS:
        raise ScenarioError(
            f"unknown bundled scenario {name!r}; available: {', '.join(BUNDLED_SCENARIOS)}"
        )
    return resources.files("shavis").joinpath(f"data/scenarios/{name}.json")


def load_bundled_scenario(name: str) -> VisibilityScenario:
    return load_scenario(bundled_scenario_path(name))
