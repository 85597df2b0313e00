"""JSON schemas for every model and artifact kind.

All files carry ``"schema": 1``; unknown keys are rejected.  Serialisation
is canonical (sorted keys, fixed layout) so identical inputs give identical
bytes, and every model round-trips through its dictionary form unchanged.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, Mapping, NamedTuple,
                    Optional)

from .errors import SchemaError, TermError
from .multiset import Multiset
from .values import render, value_from_json, value_to_json

# Each codec imports the model modules of its own kind when it runs, so a
# command reading one kind of file never executes the others' modules.
if TYPE_CHECKING:
    from .csxms import Csxm, CsxmSystem
    from .dft import DftReport
    from .heterotic import HeteroticSystem, HeteroticTrace
    from .psystem import ComputationTrace, CoverageReport, PConfiguration, PSystem, TraceStep
    from .sxm import MemoryDomain, Sxm, TestSuite

SCHEMA_VERSION = 1


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)``
    plus a newline, byte for byte.

    With ``indent``, ``json.dumps`` runs its pure-Python encoder; this
    writer joins each container's text at once and quotes strings with the
    C function ``json.dumps`` itself uses.  A value it does not write
    exactly (a non-string key, a subclass of a JSON type, a non-finite
    float, a cycle) is handed whole to ``json.dumps``."""
    try:
        text = _indented(obj, "\n")
    except (TypeError, ValueError, RecursionError):
        text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)
    return text + "\n"


class LaidOut:
    """A value that recurs at one depth of a document, such as a step that
    many computations share: ``_indented`` lays it out where it is first
    written, keeps only that text, and writes it again wherever it
    recurs."""

    __slots__ = ("value", "text")

    def __init__(self, value: Any):
        self.value, self.text = value, None


# Written as a NUL character, which quoting never leaves unescaped.
_SPLIT = LaidOut(None)
_SPLIT.text = "\0"


def canonical_pieces(obj: Dict[str, Any], key: str, items: Iterable[Any]) -> Iterator[str]:
    """``canonical_json({**obj, key: list(items)})`` in pieces: the text up
    to the list's first item, each item with the separator before it, and
    the rest.  Each item is taken and laid out when its piece is asked for,
    so neither the list nor the text is ever held whole.  ``obj`` holds only
    values this writer writes itself.

    The pieces around the items are cut from ``canonical_json`` of ``obj``
    with a two-item list under ``key``."""
    head, between, tail = canonical_json({**obj, key: [_SPLIT, _SPLIT]}).split(_SPLIT.text)
    indent = between[1:]  # the separator is a comma and the items' line break
    lead = head
    for item in items:
        yield lead + _indented(item, indent)
        lead = between
    yield canonical_json({**obj, key: []}) if lead is head else tail


def _indented(o: Any, indent: str) -> str:
    """``o`` as indented JSON; ``indent`` is the line break and indentation
    that close it.  Raises TypeError on what it does not write."""
    t = type(o)
    if t is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        return ("{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _indented(v, inner) for k, v in sorted(o.items())]
        ) + indent + "}")
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_indented(v, inner) for v in o]) + indent + "]"
    if t is str:
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is int:
        return int.__repr__(o)
    if t is float and o - o == 0:
        return float.__repr__(o)
    if t is LaidOut:
        if o.text is None:
            o.text, o.value = _indented(o.value, indent), None
        return o.text
    raise TypeError(f"{t.__name__} is left to json.dumps")


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable text and integers too long to parse
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


# --- field specs ----------------------------------------------------------------
#
# Every JSON object a file holds is checked against one spec before any of
# its values is used: the keys it must and may carry, and each key's JSON
# type.  A file of the wrong shape therefore ends in a SchemaError, never
# in a TypeError from deep inside a constructor.


class JsonType(NamedTuple):
    test: Callable[[Any], bool]
    name: str


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list_of(test: Callable[[Any], bool], name: str) -> JsonType:
    return JsonType(lambda v: isinstance(v, list) and all(map(test, v)), name)


def _is_target_pair(v: Any) -> bool:
    # "here" is psystem.HERE, the rule's own compartment
    return (isinstance(v, list) and len(v) == 2 and isinstance(v[0], str)
            and (v[1] == "here" or _is_int(v[1])))


def _is_config(v: Any) -> bool:
    # the JSON form of a configuration of as many compartments as it names
    try:
        return config_from_json(v, len(v), "") is not None
    except (SchemaError, TypeError):
        return False


STR = JsonType(lambda v: isinstance(v, str), "a string")
INT = JsonType(_is_int, "an integer")
NATURAL = JsonType(lambda v: _is_int(v) and v >= 0, "a non-negative integer")
OBJ = JsonType(lambda v: isinstance(v, dict), "an object")
VALUE = JsonType(lambda v: True, "a value")
VALUES = JsonType(lambda v: isinstance(v, list), "a list of values")
STRS = _list_of(STR.test, "a list of strings")
OBJS = _list_of(OBJ.test, "a list of objects")
OUTPUTS = _list_of(STRS.test, "a list of lists of strings")
STR_MAP = JsonType(lambda v: isinstance(v, dict) and all(map(STR.test, v.values())),
                   "an object of strings")
RULE_MAP = JsonType(
    lambda v: isinstance(v, dict) and all(map(OBJS.test, v.values())),
    "an object of lists of objects keyed by compartment id",
)
RANGE = JsonType(lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
                 "a [low, high] pair of integers")
RHS = _list_of(_is_target_pair, 'a list of [symbol, target] pairs, target "here" or an id')
CONFIGS = _list_of(_is_config, 'a list of objects of strings keyed "1".."n"')
MUTANT_KIND = JsonType(lambda v: v in ("sxm", "psystem"), '"sxm" or "psystem"')


class Spec(NamedTuple):
    required: Dict[str, JsonType]
    optional: Dict[str, JsonType] = {}


def check_fields(d: Any, spec: Spec, where: str) -> Mapping:
    """Check ``d`` against ``spec``; return it unchanged when it conforms."""
    if not OBJ.test(d):
        raise SchemaError(f"{where}: expected an object")
    if "schema" in spec.required and d.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"{where}: expected \"schema\": {SCHEMA_VERSION}")
    missing = spec.required.keys() - d.keys()
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = d.keys() - spec.required.keys() - spec.optional.keys()
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    for key, value in d.items():
        kind = spec.required.get(key) or spec.optional[key]
        if not kind.test(value):
            raise SchemaError(f"{where}: {key} must be {kind.name}")
    return d


# Machine keys named as the model attributes they hold.
_MACHINE_SETS = ("inputs", "outputs", "states", "initial_states", "terminal_states")
_CSXM_SETS = ("ordinary_states", "communicating_states", "ordinary_functions",
              "communicating_functions")
_PORT_DOMAINS = ("in_port_domain", "out_port_domain")

_NAMED = {"name": STR}
_MACHINE = Spec({"schema": INT, **dict.fromkeys(_MACHINE_SETS, STRS), "memory_domain": OBJ,
                 "initial_memory": VALUE, "functions": OBJS, "next_state": OBJS}, _NAMED)
_CSXM = Spec({**_MACHINE.required, **dict.fromkeys(_CSXM_SETS, STRS),
              **dict.fromkeys(_PORT_DOMAINS, VALUES)}, _NAMED)
_MEMORY_DOMAIN = Spec({}, {"set": VALUES, "range": RANGE, "open": OBJ})
_OPEN_DOMAIN = Spec({"sample": VALUES})
_FUNCTION = Spec({"name": STR, "cases": OBJS})
_CASE = Spec({"mem_pattern": STR, "input": STR, "output": STR, "mem_next": STR})
_CSXM_CASE = Spec({**_CASE.required, "port_pattern": STR}, {"out_port": STR, "send_to": INT})
_ARC = Spec({"from": STR, "fn": STR, "to": STRS})
_SYSTEM = Spec({"schema": INT, "components": OBJS}, _NAMED)
_PSYSTEM = Spec({"schema": INT, "alphabet": STRS, "structure": OBJ, "initial": STR_MAP,
                 "rules": RULE_MAP}, _NAMED)
_MEMBRANE = Spec({"id": INT}, {"children": OBJS})
_RULE = Spec({"name": STR, "lhs": STR, "rhs": RHS})
_HETEROTIC = Spec({"schema": INT, "psystem": STR, "control": STR, "seed": INT,
                   "depth_cap": NATURAL}, _NAMED)
_SUITE = Spec({"schema": INT, "method": STR, "k": INT, "cases": OBJS}, {"metadata": OBJ})
_SUITE_CASE = Spec({"input": STRS, "expected_outputs": OUTPUTS})
_TEST_SET = Spec({"schema": INT, "members": CONFIGS},
                 {"method": STR, "depth": NATURAL, "report": OBJ})
MUTANTS = Spec({"schema": INT, "kind": MUTANT_KIND, "mutants": OBJS},
               {"invalid": NATURAL, "duplicates": NATURAL})
MUTANT = Spec({"base": STR, "operator": STR, "location": STR, "model": OBJ}, {"id": STR})


# --- memory domains ----------------------------------------------------------


def memory_domain_to_json(domain: MemoryDomain) -> Any:
    if domain.kind == "set":
        return {"set": [value_to_json(v) for v in domain.values]}
    if domain.kind == "range":
        return {"range": [domain.low, domain.high]}
    return {"open": {"sample": [value_to_json(v) for v in domain.sample]}}


def memory_domain_from_json(obj: Any, where: str) -> MemoryDomain:
    from .sxm import MemoryDomain

    check_fields(obj, _MEMORY_DOMAIN, f"{where}.memory_domain")
    if len(obj) != 1:
        raise SchemaError(f"{where}: memory_domain must be a single-key object")
    if "range" in obj:
        return MemoryDomain(kind="range", low=obj["range"][0], high=obj["range"][1])
    if "set" in obj:
        return MemoryDomain(kind="set", values=tuple(map(value_from_json, obj["set"])))
    sample = check_fields(obj["open"], _OPEN_DOMAIN, f"{where}.open")["sample"]
    return MemoryDomain(kind="open", sample=tuple(map(value_from_json, sample)))


# --- stream X-machines and communicating machines --------------------------------
#
# A communicating machine is written as a machine plus six keys, and its
# cases add a port pattern and the optional out-port update and send target.


def _case_to_dict(case, spec: Spec) -> Dict[str, Any]:
    fields = {key: getattr(case, key) for key in (*spec.required, *spec.optional)}
    return {key: value for key, value in fields.items() if value is not None}


def _machine_header(model) -> Dict[str, Any]:
    """The keys a machine file and a product summary share."""
    return {
        "schema": SCHEMA_VERSION,
        "name": model.name,
        **{key: sorted(getattr(model, key)) for key in _MACHINE_SETS},
        "initial_memory": value_to_json(model.initial_memory),
        "next_state": [
            {"from": q, "fn": fn, "to": list(targets)}
            for (q, fn), targets in sorted(model.next_state.items())
        ],
    }


def _machine_to_dict(model) -> Dict[str, Any]:
    from .sxm import CaseFunction, Sxm

    communicating = not isinstance(model, Sxm)
    if communicating:
        from .csxms import CsxmCaseFunction
    case_table = CsxmCaseFunction if communicating else CaseFunction
    case_spec = _CSXM_CASE if communicating else _CASE
    functions = []
    for name in sorted(model.functions):
        fn = model.functions[name]
        if not isinstance(fn, case_table):
            raise SchemaError(f"function {name!r} is not a case table and cannot be serialised")
        cases = [_case_to_dict(case, case_spec) for case in fn.cases]
        functions.append({"name": name, "cases": cases})
    d = _machine_header(model)
    d.update(memory_domain=memory_domain_to_json(model.memory_domain), functions=functions)
    if communicating:
        d.update({key: sorted(getattr(model, key)) for key in _CSXM_SETS})
        d.update({key: [value_to_json(v) for v in getattr(model, key)] for key in _PORT_DOMAINS})
    return d


def _case_from_json(case: Any, spec: Spec, build: Callable, where: str):
    check_fields(case, spec, where)
    try:  # case keys are named as the parameters of ``build``
        return build(**case)
    except TermError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _machine_from_dict(d: Any, default_name: str, communicating: bool):
    if communicating:
        from .csxms import COMMUNICATING, ORDINARY, Csxm, CsxmCase, CsxmCaseFunction
    else:
        from .sxm import Case, CaseFunction, Sxm
    where = "csxm" if communicating else "sxm"
    check_fields(d, _CSXM if communicating else _MACHINE, where)
    case_spec, build = (_CSXM_CASE, CsxmCase.build) if communicating else (_CASE, Case.build)
    functions = {}
    for entry in d["functions"]:
        check_fields(entry, _FUNCTION, "functions[]")
        name = entry["name"]
        if name in functions:
            raise SchemaError(f"duplicate function {name!r}")
        cases = [
            _case_from_json(case, case_spec, build, f"functions[{name}].cases[{idx}]")
            for idx, case in enumerate(entry["cases"])
        ]
        if communicating:
            kind = COMMUNICATING if name in d["communicating_functions"] else ORDINARY
            functions[name] = CsxmCaseFunction(name, kind, cases)
        else:
            functions[name] = CaseFunction(name, cases)
    next_state = {}
    for entry in d["next_state"]:
        check_fields(entry, _ARC, "next_state[]")
        key = (entry["from"], entry["fn"])
        if key in next_state:
            raise SchemaError(f"duplicate next_state entry {key}")
        next_state[key] = tuple(entry["to"])
    machine = dict(
        {key: frozenset(d[key]) for key in _MACHINE_SETS},
        name=d.get("name", default_name),
        memory_domain=memory_domain_from_json(d["memory_domain"], where),
        initial_memory=value_from_json(d["initial_memory"]),
        functions=functions,
        next_state=next_state,
    )
    if not communicating:
        return Sxm(**machine)
    return Csxm(
        **machine,
        **{key: frozenset(d[key]) for key in _CSXM_SETS},
        **{key: tuple(value_from_json(v) for v in d[key]) for key in _PORT_DOMAINS},
    )


# The model's type decides whether the communicating keys are written.
sxm_to_dict = csxm_to_dict = _machine_to_dict


def sxm_from_dict(d: Mapping, default_name: str = "sxm") -> Sxm:
    return _machine_from_dict(d, default_name, communicating=False)


def csxm_from_dict(d: Mapping, default_name: str = "csxm") -> Csxm:
    return _machine_from_dict(d, default_name, communicating=True)


def system_from_dict(d: Mapping, default_name: str = "system") -> CsxmSystem:
    from .csxms import CsxmSystem

    check_fields(d, _SYSTEM, "system")
    components = tuple(
        csxm_from_dict(entry, default_name=f"c{i+1}")
        for i, entry in enumerate(d["components"])
    )
    return CsxmSystem(name=d.get("name", default_name), components=components)


# --- P systems ----------------------------------------------------------------


def config_to_json(cfg: PConfiguration) -> Dict[str, str]:
    """The one JSON form of a configuration: each compartment's canonical
    multiset string under its id, "1".."n"."""
    return {str(i + 1): m.canonical() for i, m in enumerate(cfg)}


def config_from_json(obj: Any, n: int, where: str) -> PConfiguration:
    """The configuration of ``n`` compartments that ``obj`` writes in that
    form: exactly the keys "1".."n", each a multiset string."""
    keys = [str(i) for i in range(1, n + 1)]
    check_fields(obj, Spec(dict.fromkeys(keys, STR)), where)
    return tuple(Multiset.from_string(obj[k]) for k in keys)


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
        "initial": config_to_json(ps.initial),
        "rules": rules,
    }


def _structure_from_json(obj: Any, parent: Optional[int], acc: Dict[int, Optional[int]], where: str):
    check_fields(obj, _MEMBRANE, where)
    comp = obj["id"]
    if comp in acc:
        raise SchemaError(f"{where}: duplicate compartment id {comp}")
    acc[comp] = parent
    for idx, child in enumerate(obj.get("children", [])):
        _structure_from_json(child, comp, acc, f"{where}.children[{idx}]")


def _compartment_id(key: str) -> Optional[int]:
    """The id ``key`` names when it is written as ``config_to_json`` writes
    ids, in ASCII digits with no leading zero ("01" and "٢" are not)."""
    if not (key.isascii() and key.isdecimal()) or (key[0] == "0" and key != "0"):
        return None
    try:
        return int(key)
    except ValueError:  # more digits than int() converts
        return None


def psystem_from_dict(d: Mapping, default_name: str = "psystem") -> PSystem:
    from .psystem import PRule, PSystem

    check_fields(d, _PSYSTEM, "psystem")
    parent: Dict[int, Optional[int]] = {}
    _structure_from_json(d["structure"], None, parent, "structure")
    n = len(parent)
    # a compartment the file leaves out starts empty
    initial = config_from_json({**dict.fromkeys(map(str, range(1, n + 1)), ""), **d["initial"]},
                               n, "initial")
    rules = []
    for comp_str, bodies in sorted(d["rules"].items()):
        comp = _compartment_id(comp_str)
        if comp is None:
            raise SchemaError(f"psystem: rules key {comp_str!r} is not a compartment id")
        for entry in bodies:
            check_fields(entry, _RULE, f"rules[{comp_str}][]")
            rules.append(
                PRule(
                    name=entry["name"],
                    compartment=comp,
                    lhs=Multiset.from_string(entry["lhs"]),
                    rhs=tuple(map(tuple, entry["rhs"])),
                )
            )
    return PSystem(
        name=d.get("name", default_name),
        alphabet=frozenset(d["alphabet"]),
        parent=parent,
        initial=initial,
        rules=tuple(rules),
    )


# --- traces, reports, suites ---------------------------------------------------


def _fired_to_json(fired) -> Dict[str, Dict[str, int]]:
    return {
        str(comp_idx + 1): {name: count for name, count in comp_fired}
        for comp_idx, comp_fired in enumerate(fired)
    }


def step_to_dict(step: TraceStep) -> Dict[str, Any]:
    return {"fired": _fired_to_json(step.fired), "result": config_to_json(step.result)}


def ptrace_to_dict(trace: ComputationTrace,
                   step_to_json: Callable[[TraceStep], Any]) -> Dict[str, Any]:
    """A computation's JSON value; ``step_to_json`` gives each step's:
    :func:`step_to_dict`, or one :class:`LaidOut` of it shared by every
    computation through the step."""
    return {
        "initial": config_to_json(trace.initial),
        "steps": [step_to_json(step) for step in trace.steps],
        "halted": trace.halted,
    }


def coverage_report_to_dict(report: CoverageReport) -> Dict[str, Any]:
    rules = []
    for entry in report.entries:
        body: Dict[str, Any] = {
            "rule": entry.rule,
            "compartment": entry.compartment,
            "covered": entry.covered,
        }
        if entry.covered:
            body["configuration"] = config_to_json(entry.configuration)
            body["witness"] = ptrace_to_dict(entry.witness, step_to_dict)
        rules.append(body)
    return {"schema": SCHEMA_VERSION, "rules": rules, "all_covered": report.all_covered()}


def testset_to_dict(members, report: CoverageReport, depth: int) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "method": "rule-coverage",
        "depth": depth,
        "members": [config_to_json(cfg) for cfg in members],
        "report": coverage_report_to_dict(report),
    }


def testset_members_from_dict(d: Mapping, ps: PSystem) -> list[PConfiguration]:
    """The members of a test set for ``ps``: each must be a configuration
    of ``ps``."""
    from .psystem import config_defect

    check_fields(d, _TEST_SET, "test set")
    members = []
    for idx, entry in enumerate(d["members"]):
        where = f"test set: members[{idx}]"
        cfg = config_from_json(entry, len(entry), where)
        defect = config_defect(ps, cfg)
        if defect:
            raise SchemaError(where + defect)
        members.append(cfg)
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


def suite_from_dict(d: Mapping, model: Optional[Sxm] = None) -> TestSuite:
    """The suite ``d`` holds; with ``model``, every case input must lie in
    the model's input alphabet."""
    from .sxm import TestCase, TestSuite

    check_fields(d, _SUITE, "suite")
    entries = [check_fields(c, _SUITE_CASE, f"suite.cases[{i}]") for i, c in enumerate(d["cases"])]
    if model is not None:
        for idx, entry in enumerate(entries):
            for sym in entry["input"]:
                if sym not in model.inputs:
                    raise SchemaError(
                        f"suite.cases[{idx}]: input {sym!r} is not in the input alphabet "
                        f"of {model.name}"
                    )
    cases = tuple(
        TestCase(tuple(e["input"]), tuple(map(tuple, e["expected_outputs"]))) for e in entries
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
                "configuration": config_to_json(e.configuration),
                "steps": e.steps,
            }
            for e in trace.exchanges
        ],
    }


def product_summary_to_dict(model: Sxm) -> Dict[str, Any]:
    """Product machines hold built-in functions, so they are summarised
    (alphabets, states, arcs, domain size) rather than re-loadable.  The
    domain's size is read from its declaration; no value is built."""
    return dict(
        _machine_header(model),
        functions=sorted(model.functions),
        memory_size=model.memory_domain.size,
        memory_exhaustive=model.memory_domain.exhaustive,
    )


# --- top-level file loading -----------------------------------------------------


def detect_kind(d: Mapping) -> str:
    if not OBJ.test(d):
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


_LOADERS = {
    "sxm": sxm_from_dict,
    "csxm": csxm_from_dict,
    "system": system_from_dict,
    "psystem": psystem_from_dict,
}


def load_heterotic_file(path) -> HeteroticSystem:
    """Load a heterotic file and the P system and control machine it names,
    and assemble them with :func:`heterotic.build_heterotic_system`."""
    from .heterotic import build_heterotic_system

    d = check_fields(load_json(path), _HETEROTIC, "heterotic")
    base_dir = Path(path).parent
    ps = psystem_from_dict(load_json(base_dir / d["psystem"]),
                           default_name=Path(d["psystem"]).stem)
    control = csxm_from_dict(load_json(base_dir / d["control"]),
                             default_name=Path(d["control"]).stem)
    return build_heterotic_system(ps, control, d["seed"], d["depth_cap"],
                                  d.get("name", Path(path).stem))


def load_model_file(path):
    """Load any model file, detecting its kind structurally.

    Returns (kind, object); heterotic files resolve their referenced
    P-system and control files relative to their own directory.
    """
    d = load_json(path)
    kind = detect_kind(d)
    if kind == "heterotic":
        return kind, load_heterotic_file(path)
    return kind, _LOADERS[kind](d, default_name=Path(path).stem)
