"""Spans around calls into the layers, recorded from outside the program.

A traced worker wraps the public entry points listed in WRAPPED, on every
module attribute that is bound to them (the defining module, the package
re-exports, and any `from x import y` copy), so every call is counted no
matter which name the caller used. Each call becomes one span: id, parent
span, op id, function, start, end and a tag. Spans stay in memory and are
written as JSON lines when the worker ends; `layer_metrics` turns span files
into the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: Layer -> public functions that get a span.
WRAPPED = {
    "arith": ("factor",),
    "curves": ("minimal_model", "invariants", "quadratic_twist"),
    "localdata": ("conductor", "tate_algorithm", "is_p_unit_tamagawa"),
    "hecke": ("a_q",),
    "congruence": ("verify_congruence", "irreducible_mod_p", "rational_division_roots"),
    "fields": ("splitting_data",),
    "dataio": ("load_dataset", "point_search", "rank_over"),
    "visibility": ("verify_scenario",),
    "scenario": ("scenario_from_dict",),
}
LAYERS = tuple(WRAPPED)

#: Functions whose calls are checked for an argument already seen.
REPEAT_TRACKED = ("curves.minimal_model", "hecke.a_q", "arith.factor", "localdata.tate_algorithm")

AQ_METHODS = {"naive-count": "naive", "bsgs": "bsgs", "bad-prime-rule": "bad_prime"}
RANK_TIERS = {
    "user": "user",
    "dataset": "dataset",
    "twist-decomposition": "twist",
    "point-search-lower-bound": "point_search",
}


def _tag(name: str, result):
    """What a span records about its result, per function."""
    if name == "hecke.a_q":
        return result.method
    if name == "dataio.rank_over":
        return result.provenance
    if name == "congruence.verify_congruence":
        return len(result.primes_checked)
    if name == "congruence.irreducible_mod_p":
        return result.status == "Irreducible"
    return None


class Recorder:
    """In-memory span list for one process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.seen: dict[str, set] = {name: set() for name in REPEAT_TRACKED}
        self.next_id = 0
        self.op = -1

    def wrap(self, name: str, fn):
        seen = self.seen.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            repeat = None
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                repeat = key in seen
                seen.add(key)
            self.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
            self.spans.append([sid, parent, self.op, name, t0, t1, _tag(name, result), repeat])
            return result

        return traced

    def install(self, package: str = "shavis") -> None:
        """Rebind every module attribute that is a wrapped function."""
        originals = {}
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"{package}.{layer}"]
            for fname in names:
                originals[id(getattr(mod, fname))] = f"{layer}.{fname}"
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self.wrap(name, value)
                setattr(mod, attr, wrappers[name])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_lists, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer numbers from span lists of one or more traced processes.

    Self time is a span's duration minus the durations of its direct
    children. Summed over all spans this equals the summed durations of the
    root spans, so the per-layer self times plus `trace.outside_s` add up to
    `wall_s`, the time the recorders were active.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    repeats = defaultdict(int)
    tagged_calls = defaultdict(int)
    tagged_self = defaultdict(float)
    primes_checked = 0
    witnesses = 0
    roots_s = 0.0
    n_spans = 0
    for spans in span_lists:
        child_s = defaultdict(float)
        for sid, parent, _op, name, t0, t1, tag, repeat in spans:
            # spans are appended when they end, so children precede parents
            dur = t1 - t0
            own = dur - child_s.pop(sid, 0.0)
            n_spans += 1
            calls[name] += 1
            self_s[name] += own
            if parent is None:
                roots_s += dur
            else:
                child_s[parent] += dur
            if repeat:
                repeats[name] += 1
            if name == "hecke.a_q":
                tagged_calls[f"hecke.a_q.{AQ_METHODS[tag]}"] += 1
                tagged_self[f"hecke.a_q.{AQ_METHODS[tag]}"] += own
            elif name == "dataio.rank_over" and tag in RANK_TIERS:
                tagged_calls[f"dataio.rank_over.{RANK_TIERS[tag]}"] += 1
            elif name == "congruence.verify_congruence":
                primes_checked += tag
            elif name == "congruence.irreducible_mod_p":
                witnesses += bool(tag)

    out: dict[str, float] = {}
    for layer, fns in WRAPPED.items():
        total = 0.0
        for fn in fns:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            total += self_s[name]
        out[f"{layer}.self_s"] = total
    for name in REPEAT_TRACKED:
        out[f"{name}.repeat_frac"] = _frac(repeats[name], calls[name])
    for tag in AQ_METHODS.values():
        out[f"hecke.a_q.{tag}.calls"] = tagged_calls[f"hecke.a_q.{tag}"]
        out[f"hecke.a_q.{tag}.self_s"] = tagged_self[f"hecke.a_q.{tag}"]
    out["congruence.verify_congruence.primes_checked"] = primes_checked
    out["congruence.irreducible_mod_p.witness_frac"] = _frac(
        witnesses, calls["congruence.irreducible_mod_p"])
    for tier in RANK_TIERS.values():
        out[f"dataio.rank_over.{tier}.calls"] = tagged_calls[f"dataio.rank_over.{tier}"]
    out["trace.spans"] = n_spans
    out["trace.wall_s"] = wall_s
    out["trace.outside_s"] = wall_s - roots_s
    out["trace.outside_frac"] = _frac(wall_s - roots_s, wall_s)
    out["trace.overhead_frac"] = _frac(wall_s, untraced_wall_s) - 1.0
    return out


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    return list(layer_metrics([], 1.0, 1.0))


def unit(name: str) -> str:
    if name.endswith((".calls", ".spans", ".primes_checked")):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


def bases(metrics: dict[str, float]) -> dict[str, str]:
    """The base of every ratio, so a reader can weigh it."""
    out = {f"{n}.repeat_frac": f"{n}.calls" for n in REPEAT_TRACKED}
    out["congruence.irreducible_mod_p.witness_frac"] = "congruence.irreducible_mod_p.calls"
    out["trace.outside_frac"] = "trace.wall_s"
    out["trace.overhead_frac"] = "untraced wall of the same ops"
    return {ratio: f"{base} = {metrics[base]:g}" if base in metrics else base
            for ratio, base in out.items()}
