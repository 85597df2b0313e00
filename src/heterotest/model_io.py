"""JSON schemas for every model and artifact kind.

All files carry ``"schema": 1``; unknown keys are rejected.  Serialisation
is canonical (sorted keys, fixed layout) so identical inputs give identical
bytes, and every model round-trips through its dictionary form unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from .csxms import Csxm, CsxmCase, CsxmCaseFunction, CsxmSystem
from .dft import DftReport
from .errors import SchemaError, TermError
from .heterotic import (
    HeteroticSystem,
    HeteroticTrace,
    build_heterotic_system,
    wrap_psystem_as_csxm,
)
from .multiset import Multiset
from .psystem import (
    HERE,
    ComputationTrace,
    CoverageReport,
    PConfiguration,
    PRule,
    PSystem,
    config_canonical,
)
from .sxm import Case, CaseFunction, MemoryDomain, Sxm
from .testgen import TestCase, TestSuite
from .values import render, value_from_json, value_to_json

SCHEMA_VERSION = 1


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _check_keys(d: Mapping, required: set, optional: set, where: str) -> None:
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    keys = set(d)
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _check_schema_version(d: Mapping, where: str) -> None:
    if d.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"{where}: expected \"schema\": {SCHEMA_VERSION}")


# --- memory domains ----------------------------------------------------------


def memory_domain_to_json(domain: MemoryDomain) -> Any:
    if domain.kind == "set":
        return {"set": [value_to_json(v) for v in domain.values]}
    if domain.kind == "range":
        return {"range": [domain.low, domain.high]}
    return {"open": {"sample": [value_to_json(v) for v in domain.sample]}}


def memory_domain_from_json(obj: Any, where: str) -> MemoryDomain:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"{where}: memory_domain must be a single-key object")
    if "set" in obj:
        return MemoryDomain(kind="set", values=tuple(value_from_json(v) for v in obj["set"]))
    if "range" in obj:
        lo, hi = obj["range"]
        return MemoryDomain(kind="range", low=int(lo), high=int(hi))
    if "open" in obj:
        _check_keys(obj["open"], {"sample"}, set(), f"{where}.open")
        sample = tuple(value_from_json(v) for v in obj["open"]["sample"])
        return MemoryDomain(kind="open", sample=sample)
    raise SchemaError(f"{where}: memory_domain kind must be set, range or open")


# --- stream X-machines -------------------------------------------------------

_SXM_KEYS = {
    "inputs", "outputs", "states", "initial_states", "terminal_states",
    "memory_domain", "initial_memory", "functions", "next_state",
}


def sxm_to_dict(model: Sxm) -> Dict[str, Any]:
    functions = []
    for name in sorted(model.functions):
        fn = model.functions[name]
        if not isinstance(fn, CaseFunction):
            raise SchemaError(f"function {name!r} is not a case table and cannot be serialised")
        functions.append(
            {
                "name": name,
                "cases": [
                    {
                        "mem_pattern": case.mem_pattern,
                        "input": case.input,
                        "output": case.output,
                        "mem_next": case.mem_next,
                    }
                    for case in fn.cases
                ],
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "name": model.name,
        "inputs": sorted(model.inputs),
        "outputs": sorted(model.outputs),
        "states": sorted(model.states),
        "initial_states": sorted(model.initial_states),
        "terminal_states": sorted(model.terminal_states),
        "memory_domain": memory_domain_to_json(model.memory_domain),
        "initial_memory": value_to_json(model.initial_memory),
        "functions": functions,
        "next_state": [
            {"from": q, "fn": fn, "to": list(targets)}
            for (q, fn), targets in sorted(model.next_state.items())
        ],
    }


def _cases_from_json(body, where: str):
    cases = []
    for idx, case in enumerate(body):
        _check_keys(case, {"mem_pattern", "input", "output", "mem_next"}, set(),
                    f"{where}.cases[{idx}]")
        try:
            cases.append(Case.build(case["mem_pattern"], case["input"],
                                    case["output"], case["mem_next"]))
        except TermError as exc:
            raise SchemaError(f"{where}.cases[{idx}]: {exc}") from exc
    return cases


def sxm_from_dict(d: Mapping, default_name: str = "sxm") -> Sxm:
    _check_schema_version(d, "sxm")
    _check_keys(d, _SXM_KEYS | {"schema"}, {"name"}, "sxm")
    functions = {}
    for entry in d["functions"]:
        _check_keys(entry, {"name", "cases"}, set(), "functions[]")
        name = entry["name"]
        if name in functions:
            raise SchemaError(f"duplicate function {name!r}")
        functions[name] = CaseFunction(name, _cases_from_json(entry["cases"], f"functions[{name}]"))
    next_state = {}
    for entry in d["next_state"]:
        _check_keys(entry, {"from", "fn", "to"}, set(), "next_state[]")
        key = (entry["from"], entry["fn"])
        if key in next_state:
            raise SchemaError(f"duplicate next_state entry {key}")
        next_state[key] = tuple(entry["to"])
    return Sxm(
        name=d.get("name", default_name),
        inputs=frozenset(d["inputs"]),
        outputs=frozenset(d["outputs"]),
        states=frozenset(d["states"]),
        initial_states=frozenset(d["initial_states"]),
        terminal_states=frozenset(d["terminal_states"]),
        memory_domain=memory_domain_from_json(d["memory_domain"], "sxm"),
        initial_memory=value_from_json(d["initial_memory"]),
        functions=functions,
        next_state=next_state,
    )


# --- communicating machines ---------------------------------------------------

_CSXM_EXTRA_KEYS = {
    "in_port_domain", "out_port_domain",
    "ordinary_states", "communicating_states",
    "ordinary_functions", "communicating_functions",
}


def csxm_to_dict(comp: Csxm) -> Dict[str, Any]:
    functions = []
    for name in sorted(comp.functions):
        fn = comp.functions[name]
        if not isinstance(fn, CsxmCaseFunction):
            raise SchemaError(f"function {name!r} is not a case table and cannot be serialised")
        cases = []
        for case in fn.cases:
            body = {
                "mem_pattern": case.mem_pattern,
                "port_pattern": case.port_pattern,
                "input": case.input,
                "output": case.output,
                "mem_next": case.mem_next,
            }
            if case.out_port is not None:
                body["out_port"] = case.out_port
            if case.send_to is not None:
                body["send_to"] = case.send_to
            cases.append(body)
        functions.append({"name": name, "cases": cases})
    return {
        "schema": SCHEMA_VERSION,
        "name": comp.name,
        "inputs": sorted(comp.inputs),
        "outputs": sorted(comp.outputs),
        "states": sorted(comp.states),
        "initial_states": sorted(comp.initial_states),
        "terminal_states": sorted(comp.terminal_states),
        "memory_domain": memory_domain_to_json(comp.memory_domain),
        "initial_memory": value_to_json(comp.initial_memory),
        "functions": functions,
        "next_state": [
            {"from": q, "fn": fn, "to": list(targets)}
            for (q, fn), targets in sorted(comp.next_state.items())
        ],
        "in_port_domain": [value_to_json(v) for v in comp.in_port_domain],
        "out_port_domain": [value_to_json(v) for v in comp.out_port_domain],
        "ordinary_states": sorted(comp.ordinary_states),
        "communicating_states": sorted(comp.communicating_states),
        "ordinary_functions": sorted(comp.ordinary_functions),
        "communicating_functions": sorted(comp.communicating_functions),
    }


def csxm_from_dict(d: Mapping, default_name: str = "csxm") -> Csxm:
    _check_schema_version(d, "csxm")
    _check_keys(d, _SXM_KEYS | _CSXM_EXTRA_KEYS | {"schema"}, {"name"}, "csxm")
    ordinary_functions = frozenset(d["ordinary_functions"])
    communicating_functions = frozenset(d["communicating_functions"])
    functions = {}
    for entry in d["functions"]:
        _check_keys(entry, {"name", "cases"}, set(), "functions[]")
        name = entry["name"]
        kind = "communicating" if name in communicating_functions else "ordinary"
        cases = []
        for idx, case in enumerate(entry["cases"]):
            _check_keys(
                case,
                {"mem_pattern", "port_pattern", "input", "output", "mem_next"},
                {"out_port", "send_to"},
                f"functions[{name}].cases[{idx}]",
            )
            send_to = case.get("send_to")
            if send_to is not None and (not isinstance(send_to, int) or isinstance(send_to, bool)):
                raise SchemaError(f"functions[{name}].cases[{idx}]: send_to must be an integer")
            try:
                cases.append(
                    CsxmCase.build(
                        case["mem_pattern"], case["port_pattern"], case["input"],
                        case["output"], case["mem_next"],
                        out_port=case.get("out_port"),
                        send_to=send_to,
                    )
                )
            except TermError as exc:
                raise SchemaError(f"functions[{name}].cases[{idx}]: {exc}") from exc
        functions[name] = CsxmCaseFunction(name, kind, cases)
    next_state = {}
    for entry in d["next_state"]:
        _check_keys(entry, {"from", "fn", "to"}, set(), "next_state[]")
        next_state[(entry["from"], entry["fn"])] = tuple(entry["to"])
    return Csxm(
        name=d.get("name", default_name),
        inputs=frozenset(d["inputs"]),
        outputs=frozenset(d["outputs"]),
        states=frozenset(d["states"]),
        initial_states=frozenset(d["initial_states"]),
        terminal_states=frozenset(d["terminal_states"]),
        memory_domain=memory_domain_from_json(d["memory_domain"], "csxm"),
        initial_memory=value_from_json(d["initial_memory"]),
        functions=functions,
        next_state=next_state,
        in_port_domain=tuple(value_from_json(v) for v in d["in_port_domain"]),
        out_port_domain=tuple(value_from_json(v) for v in d["out_port_domain"]),
        ordinary_states=frozenset(d["ordinary_states"]),
        communicating_states=frozenset(d["communicating_states"]),
        ordinary_functions=ordinary_functions,
        communicating_functions=communicating_functions,
    )


def system_to_dict(sys: CsxmSystem) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "name": sys.name,
        "components": [csxm_to_dict(c) for c in sys.components],
    }


def system_from_dict(d: Mapping, default_name: str = "system") -> CsxmSystem:
    _check_schema_version(d, "system")
    _check_keys(d, {"schema", "components"}, {"name"}, "system")
    components = tuple(
        csxm_from_dict(entry, default_name=f"c{i+1}")
        for i, entry in enumerate(d["components"])
    )
    return CsxmSystem(name=d.get("name", default_name), components=components)


# --- P systems ----------------------------------------------------------------


def _structure_to_json(ps: PSystem, root: int) -> Dict[str, Any]:
    return {
        "id": root,
        "children": [_structure_to_json(ps, child) for child in ps.children(root)],
    }


def psystem_to_dict(ps: PSystem) -> Dict[str, Any]:
    roots = [c for c, p in ps.parent.items() if p is None]
    rules: Dict[str, list] = {}
    for comp in ps.compartments():
        rules[str(comp)] = [
            {
                "name": rule.name,
                "lhs": rule.lhs.canonical(),
                "rhs": [[sym, target] for sym, target in rule.rhs],
            }
            for rule in ps.rules_in(comp)
        ]
    return {
        "schema": SCHEMA_VERSION,
        "name": ps.name,
        "alphabet": sorted(ps.alphabet),
        "structure": _structure_to_json(ps, roots[0]) if roots else {},
        "initial": {str(i + 1): m.canonical() for i, m in enumerate(ps.initial)},
        "rules": rules,
    }


def _structure_from_json(obj: Any, parent: Optional[int], acc: Dict[int, Optional[int]], where: str):
    _check_keys(obj, {"id"}, {"children"}, where)
    comp = obj["id"]
    if not isinstance(comp, int):
        raise SchemaError(f"{where}: compartment id must be an integer")
    if comp in acc:
        raise SchemaError(f"{where}: duplicate compartment id {comp}")
    acc[comp] = parent
    for idx, child in enumerate(obj.get("children", [])):
        _structure_from_json(child, comp, acc, f"{where}.children[{idx}]")


def psystem_from_dict(d: Mapping, default_name: str = "psystem") -> PSystem:
    _check_schema_version(d, "psystem")
    _check_keys(d, {"schema", "alphabet", "structure", "initial", "rules"}, {"name"}, "psystem")
    parent: Dict[int, Optional[int]] = {}
    _structure_from_json(d["structure"], None, parent, "structure")
    n = len(parent)
    initial = []
    for comp in range(1, n + 1):
        text = d["initial"].get(str(comp), "")
        initial.append(Multiset.from_string(text))
    rules = []
    for comp_str, bodies in sorted(d["rules"].items()):
        try:
            comp = int(comp_str)
        except ValueError as exc:
            raise SchemaError(f"rules: compartment key {comp_str!r} is not an integer") from exc
        for entry in bodies:
            _check_keys(entry, {"name", "lhs", "rhs"}, set(), f"rules[{comp_str}][]")
            rhs = []
            for item in entry["rhs"]:
                if not isinstance(item, list) or len(item) != 2:
                    raise SchemaError(f"rules[{comp_str}]: rhs items are [symbol, target] pairs")
                sym, target = item
                if target != HERE and not isinstance(target, int):
                    raise SchemaError(f"rules[{comp_str}]: target must be \"here\" or an id")
                rhs.append((sym, target))
            rules.append(
                PRule(
                    name=entry["name"],
                    compartment=comp,
                    lhs=Multiset.from_string(entry["lhs"]),
                    rhs=tuple(rhs),
                )
            )
    return PSystem(
        name=d.get("name", default_name),
        alphabet=frozenset(d["alphabet"]),
        parent=parent,
        initial=tuple(initial),
        rules=tuple(rules),
    )


# --- traces, reports, suites ---------------------------------------------------


def _fired_to_json(fired) -> Dict[str, Dict[str, int]]:
    return {
        str(comp_idx + 1): {name: count for name, count in comp_fired}
        for comp_idx, comp_fired in enumerate(fired)
    }


def _config_to_json(cfg: PConfiguration) -> Dict[str, str]:
    return {str(i + 1): m.canonical() for i, m in enumerate(cfg)}


def ptrace_to_dict(trace: ComputationTrace) -> Dict[str, Any]:
    return {
        "initial": _config_to_json(trace.initial),
        "steps": [
            {"fired": _fired_to_json(step.fired), "result": _config_to_json(step.result)}
            for step in trace.steps
        ],
        "halted": trace.halted,
    }


def render_fired(fired) -> str:
    parts = []
    for comp_fired in fired:
        if not comp_fired:
            parts.append("∅")
        else:
            parts.append(
                "{" + ",".join(n if c == 1 else f"{n}x{c}" for n, c in comp_fired) + "}"
            )
    return "(" + ",".join(parts) + ")"


def render_ptrace(trace: ComputationTrace) -> str:
    bits = ["(" + ",".join(config_canonical(trace.initial)) + ")"]
    for step in trace.steps:
        bits.append(f"⟹{render_fired(step.fired)}")
        bits.append("(" + ",".join(config_canonical(step.result)) + ")")
    text = " ".join(bits)
    if trace.halted:
        text += "  [halted]"
    return text


def coverage_report_to_dict(report: CoverageReport) -> Dict[str, Any]:
    rules = []
    for entry in report.entries:
        body: Dict[str, Any] = {
            "rule": entry.rule,
            "compartment": entry.compartment,
            "covered": entry.covered,
        }
        if entry.covered:
            body["configuration"] = _config_to_json(entry.configuration)
            body["witness"] = ptrace_to_dict(entry.witness)
        rules.append(body)
    return {"schema": SCHEMA_VERSION, "rules": rules, "all_covered": report.all_covered()}


def testset_to_dict(members, report: CoverageReport, depth: int) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "method": "rule-coverage",
        "depth": depth,
        "members": [_config_to_json(cfg) for cfg in members],
        "report": coverage_report_to_dict(report),
    }


def testset_members_from_dict(d: Mapping) -> list[PConfiguration]:
    _check_schema_version(d, "test set")
    members = []
    for entry in d["members"]:
        n = len(entry)
        members.append(tuple(Multiset.from_string(entry[str(i + 1)]) for i in range(n)))
    return members


def suite_to_dict(suite: TestSuite) -> Dict[str, Any]:
    metadata = {k: v for k, v in sorted(suite.metadata.items()) if k not in ("method", "k")}
    return {
        "schema": SCHEMA_VERSION,
        "method": suite.metadata.get("method", "W"),
        "k": suite.metadata.get("k", 0),
        "cases": [
            {"input": list(case.input), "expected_outputs": [list(o) for o in case.expected_outputs]}
            for case in suite.cases
        ],
        "metadata": metadata,
    }


def suite_from_dict(d: Mapping) -> TestSuite:
    _check_schema_version(d, "suite")
    _check_keys(d, {"schema", "method", "k", "cases"}, {"metadata"}, "suite")
    cases = tuple(
        TestCase(tuple(entry["input"]), tuple(tuple(o) for o in entry["expected_outputs"]))
        for entry in d["cases"]
    )
    metadata = {"method": d["method"], "k": d["k"]}
    metadata.update(d.get("metadata", {}))
    return TestSuite(cases, metadata)


def dft_report_to_dict(report: DftReport) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "deterministic": report.deterministic,
        "complete": report.complete,
        "output_distinguishable": report.output_distinguishable,
        "exhaustive": report.exhaustive,
        "structural_issues": list(report.structural_issues),
        "determinism_witnesses": [
            {
                "state": w.state, "fn1": w.fn1, "fn2": w.fn2,
                "memory": render(w.memory), "input": w.input,
            }
            for w in report.determinism_witnesses
        ],
        "completeness_witnesses": [
            {"fn": w.fn, "memory": render(w.memory)} for w in report.completeness_witnesses
        ],
        "distinguishability_witnesses": [
            {
                "fn1": w.fn1, "fn2": w.fn2, "memory": render(w.memory),
                "memory1": render(w.memory1), "memory2": render(w.memory2),
                "input": w.input, "output": w.output,
            }
            for w in report.distinguishability_witnesses
        ],
        "complete_per_function": dict(sorted(report.complete_per_function.items())),
    }


def htrace_to_dict(trace: HeteroticTrace) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "system": trace.system,
        "seed": trace.seed,
        "rounds_requested": trace.rounds_requested,
        "rounds_completed": trace.rounds_completed,
        "exchanges": [
            {
                "round": e.round,
                "direction": e.direction,
                "configuration": {str(i + 1): c for i, c in enumerate(e.configuration)},
                "steps": e.steps,
            }
            for e in trace.exchanges
        ],
    }


def product_summary_to_dict(model: Sxm) -> Dict[str, Any]:
    """Product machines hold built-in functions, so they are summarised
    (alphabets, states, arcs, domain size) rather than re-loadable."""
    values, exhaustive = model.memory_values()
    return {
        "schema": SCHEMA_VERSION,
        "name": model.name,
        "inputs": sorted(model.inputs),
        "outputs": sorted(model.outputs),
        "states": sorted(model.states),
        "initial_states": sorted(model.initial_states),
        "terminal_states": sorted(model.terminal_states),
        "functions": sorted(model.functions),
        "next_state": [
            {"from": q, "fn": fn, "to": list(targets)}
            for (q, fn), targets in sorted(model.next_state.items())
        ],
        "memory_size": len(values),
        "memory_exhaustive": exhaustive,
        "initial_memory": value_to_json(model.initial_memory),
    }


# --- top-level file loading -----------------------------------------------------


def detect_kind(d: Mapping) -> str:
    if not isinstance(d, dict):
        raise SchemaError("model file must hold a JSON object")
    if "components" in d:
        return "system"
    if "alphabet" in d and "rules" in d:
        return "psystem"
    if "psystem" in d and "control" in d:
        return "heterotic"
    if "ordinary_states" in d:
        return "csxm"
    if "functions" in d and "next_state" in d:
        return "sxm"
    raise SchemaError("cannot tell what kind of model this file holds")


_HETEROTIC_KEYS = {"schema", "psystem", "control", "seed", "depth_cap"}


def load_heterotic_file(path) -> HeteroticSystem:
    d = load_json(path)
    _check_schema_version(d, "heterotic")
    _check_keys(d, _HETEROTIC_KEYS, {"name"}, "heterotic")
    base_dir = Path(path).parent
    ps = psystem_from_dict(load_json(base_dir / d["psystem"]),
                           default_name=Path(d["psystem"]).stem)
    control = csxm_from_dict(load_json(base_dir / d["control"]),
                             default_name=Path(d["control"]).stem)
    seed = int(d["seed"])
    depth_cap = int(d["depth_cap"])
    base = wrap_psystem_as_csxm(
        ps, depth_cap, seed=seed,
        initial_configs=[tuple(v) for v in control.out_port_domain],
    )
    return build_heterotic_system(
        base, control, ps, seed=seed, depth_cap=depth_cap,
        name=d.get("name", Path(path).stem),
    )


def load_model_file(path):
    """Load any model file, detecting its kind structurally.

    Returns (kind, object); heterotic files resolve their referenced
    P-system and control files relative to their own directory.
    """
    d = load_json(path)
    kind = detect_kind(d)
    stem = Path(path).stem
    if kind == "sxm":
        return kind, sxm_from_dict(d, default_name=stem)
    if kind == "csxm":
        return kind, csxm_from_dict(d, default_name=stem)
    if kind == "system":
        return kind, system_from_dict(d, default_name=stem)
    if kind == "psystem":
        return kind, psystem_from_dict(d, default_name=stem)
    return kind, load_heterotic_file(path)
