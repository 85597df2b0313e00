"""Differential and point checks of the one validation walk.

``validate_sxm`` and ``validate_csxm`` share one walk over the points of a
case table: (memory, input) for a machine, (memory, input, in-port) for a
communicating machine.  The machine-only walk it replaced is kept here as
the reference: every violation list a machine gets must equal the
reference's, item for item.  Communicating machines had no point checks
before, so their reports are pinned on edits of the shipped Control.
"""

import gc
import tracemalloc

import pytest

from gen_models import random_csxm_system, random_dft_sxm, random_messy_sxm
from heterotest import sxm
from heterotest.csxms import CsxmCase, CsxmCaseFunction, validate_csxm
from heterotest.dft import check_dft
from heterotest.errors import MissingSampleError, TermError, Violation
from heterotest.model_io import load_model_file
from heterotest.mutation import SXM_OPERATORS, _sxm_candidates
from heterotest.records import replace
from heterotest.sxm import Case, CaseFunction, MemoryDomain, structure_violations
from heterotest.values import BOTTOM_M, is_value, render


def _reference_matching_cases(fn, memory, symbol):
    # cases tried top to bottom; the first binding error stops the search
    return [idx for idx, case in enumerate(fn.cases)
            if case.input == symbol and case.pattern.match(memory) is not None]


def _reference_evaluate(fn, memory, symbol):
    case = fn.cases[_reference_matching_cases(fn, memory, symbol)[0]]
    return case.output, case.update.evaluate(case.pattern.match(memory))


def reference_validate_sxm(model):
    out = structure_violations(model)
    domain = model.memory_domain
    tables = [(name, fn.cases) for name, fn in sorted(model.functions.items())
              if isinstance(fn, CaseFunction)]
    for name, cases in tables:
        for idx, case in enumerate(cases):
            where = f"functions[{name}].cases[{idx}]"
            if case.input not in model.inputs:
                out.append(Violation(where, f"input {case.input!r} not in the input alphabet"))
            if case.output not in model.outputs:
                out.append(Violation(where, f"output {case.output!r} not in the output alphabet"))

    try:
        values, _ = domain.enumerate(model.name)
    except MissingSampleError:
        out.append(Violation("memory_domain", "open domain declares no test sample"))
        return out

    for v in values:
        if not is_value(v):
            out.append(Violation("memory_domain", f"not a value: {v!r}"))
            return out

    for name, cases in tables:
        out.extend(reference_domain_violations(name, cases, domain, model.inputs))
    return out


def reference_domain_violations(name, cases, domain, inputs):
    fn = CaseFunction(name, cases)
    values, _ = domain.enumerate(name)
    out = []
    overlap_reported = set()
    for m in values:
        for sym in sorted(inputs):
            try:
                hits = _reference_matching_cases(fn, m, sym)
            except TermError as exc:
                out.append(Violation(f"functions[{name}]", f"pattern error: {exc}"))
                hits = []
            if len(hits) > 1:
                pair = (hits[0], hits[1])
                if pair not in overlap_reported:
                    overlap_reported.add(pair)
                    out.append(
                        Violation(
                            f"functions[{name}]",
                            f"cases {pair[0]} and {pair[1]} overlap at "
                            f"memory {render(m)}, input {sym!r}",
                        )
                    )
            if hits and domain.kind != "open":
                try:
                    result = _reference_evaluate(fn, m, sym)
                except TermError as exc:
                    out.append(
                        Violation(f"functions[{name}]", f"update error at {render(m)}: {exc}")
                    )
                    continue
                if result is not None and domain.contains(result[1]) is False:
                    out.append(
                        Violation(
                            f"functions[{name}]",
                            f"update at memory {render(m)}, input {sym!r} leaves the "
                            f"declared domain ({render(result[1])})",
                        )
                    )
    return out


def _report(violations):
    return [(v.where, v.message) for v in violations]


def _assert_like_reference(model):
    assert _report(sxm.validate_sxm(model)) == _report(reference_validate_sxm(model)), model.name


def _with_case(model, name, idx, **fields):
    """``model`` with case ``idx`` of function ``name`` rebuilt with ``fields``;
    an index past the last case appends a copy of the last one."""
    cases = list(model.functions[name].cases)
    old = cases[min(idx, len(cases) - 1)]
    text = dict(mem_pattern=old.mem_pattern, input=old.input, output=old.output,
                mem_next=old.mem_next)
    text.update(fields)
    cases[idx:idx + 1] = [Case.build(**text)]
    return replace(model, functions={**model.functions, name: CaseFunction(name, cases)})


@pytest.mark.parametrize("seed", range(12))
def test_dft_machines_and_their_mutants_match_the_reference(seed):
    model = random_dft_sxm(seed)
    _assert_like_reference(model)
    for _, _, mutant in _sxm_candidates(model, SXM_OPERATORS):
        _assert_like_reference(mutant)


def test_messy_machines_match_the_reference():
    reports = 0
    for seed in range(80):
        model = random_messy_sxm(seed)
        _assert_like_reference(model)
        reports += bool(reference_validate_sxm(model))
    assert reports > 20  # overlaps and alphabet gaps are common among them


def test_counter_and_its_mutants_match_the_reference(counter):
    _assert_like_reference(counter)
    for _, _, mutant in _sxm_candidates(counter, SXM_OPERATORS):
        _assert_like_reference(mutant)


@pytest.mark.parametrize("edit, message", [
    # a duplicate case overlaps at every memory it matches; one report a pair
    (lambda c: _with_case(c, "inc", 1, mem_next="99"),
     "cases 0 and 1 overlap at memory 0, input 'i'"),
    (lambda c: _with_case(c, "reset", 0, mem_next="7"),
     "update at memory 0, input 'r' leaves the declared domain (7)"),
    (lambda c: _with_case(c, "inc", 0, mem_next="?m % 0"), "update error at 0: modulo by zero"),
    (lambda c: _with_case(replace(c, memory_domain=MemoryDomain(kind="set", values=(0, "x"))),
                          "inc", 0, mem_pattern="?m where ?m + 0 < 1"),
     "pattern error: arithmetic '+' needs integers, got 'x', 0"),
    # on an open domain only overlaps and pattern errors are checked
    (lambda c: _with_case(_with_case(replace(c, memory_domain=MemoryDomain(
        kind="open", sample=(0, 1))), "inc", 1, mem_next="99"), "reset", 0, mem_next="7"),
     "cases 0 and 1 overlap at memory 0, input 'i'"),
    (lambda c: replace(c, memory_domain=MemoryDomain(kind="open")),
     "open domain declares no test sample"),
    (lambda c: replace(c, memory_domain=MemoryDomain(kind="set", values=(0, 1.5))),
     "not a value: 1.5"),
])
def test_hand_edited_machines_match_the_reference(counter, edit, message):
    model = edit(counter)
    _assert_like_reference(model)
    assert any(message in v.message for v in sxm.validate_sxm(model))


def test_a_domain_walk_keeps_nothing(counter):
    # validation and the design-for-test checks match each point and drop
    # it: what stays allocated afterwards does not grow with the domain
    wide = replace(counter, memory_domain=MemoryDomain(kind="range", low=0, high=2999))
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert sxm.validate_sxm(wide) == []
        assert not check_dft(wide).complete
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 100_000


# --- communicating machines ----------------------------------------------------


@pytest.fixture()
def control(models_dir):
    return load_model_file(models_dir / "ps2_control.json")[1]


LOADED = ["(bdf, b)", "(ccf, c)"]
MEMORY = ["0", "(s, t)", "(bdf, b)", "(ccf, c)"]


def _with_csxm_case(comp, name, idx, **fields):
    fn = comp.functions[name]
    cases = list(fn.cases)
    old = cases[min(idx, len(cases) - 1)]
    text = dict(mem_pattern=old.mem_pattern, port_pattern=old.port_pattern, input=old.input,
                output=old.output, mem_next=old.mem_next, out_port=old.out_port,
                send_to=old.send_to)
    text.update(fields)
    cases[idx:idx + 1] = [CsxmCase.build(**text)]
    return replace(comp, functions={**comp.functions,
                                    name: CsxmCaseFunction(name, fn.kind, cases)})


def _open(comp):
    return replace(comp, memory_domain=MemoryDomain(kind="open", sample=comp.memory_domain.values))


def test_shipped_and_random_components_are_valid(control):
    assert validate_csxm(control) == []
    for seed in range(50):
        for comp in random_csxm_system(seed).components:
            assert validate_csxm(comp) == [], (seed, comp.name)


def test_an_overlap_at_a_loaded_in_port_is_reported_once(control):
    # finish reads a loaded in-port only: its cases meet nowhere else
    bad = _with_csxm_case(control, "finish", 1, mem_next="99")
    assert _report(validate_csxm(bad)) == [(
        "ps2_control.functions[finish]",
        "cases 0 and 1 overlap at memory 0, input 'end', in-port (bdf, b)",
    )]
    assert _report(validate_csxm(_open(bad))) == _report(validate_csxm(bad))


def test_an_out_port_value_outside_its_domain_is_reported_at_every_point(control):
    bad = _with_csxm_case(control, "check", 0, out_port="[1 2]")
    assert _report(validate_csxm(bad)) == [
        ("ps2_control.functions[check]",
         f"out-port at memory {m}, input 'go', in-port {p} leaves the out-port domain ((1, 2))")
        for m in MEMORY for p in LOADED
    ]
    # an open domain leaves the value to the port check of the driver
    assert validate_csxm(_open(bad)) == []
    # the undefined value is always admitted
    assert validate_csxm(_with_csxm_case(control, "check", 0, out_port="⊥_M")) == []


def test_updates_leaving_the_memory_domain_are_reported(control):
    bad = _with_csxm_case(control, "send_back", 0, mem_next="7")
    assert _report(validate_csxm(bad)) == [
        ("ps2_control.functions[send_back]",
         f"update at memory {m}, input 'λ', in-port ⊥_M leaves the declared domain (7)")
        for m in MEMORY
    ]
    bad = _with_csxm_case(control, "send_back", 0, mem_next="1 % 0")
    assert _report(validate_csxm(bad)) == [
        ("ps2_control.functions[send_back]", f"update error at {m}: modulo by zero")
        for m in MEMORY
    ]


def test_a_pattern_error_is_reported(control):
    bad = _with_csxm_case(control, "check", 0, port_pattern="?c where ?c + 0 < 1")
    assert _report(validate_csxm(bad)) == [
        ("ps2_control.functions[check]",
         f"pattern error: arithmetic '+' needs integers, got {port!r}, 0")
        for _ in MEMORY for port in (BOTTOM_M,) + control.in_port_domain
    ]
