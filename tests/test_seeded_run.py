"""Differential checks of the one seeded P-system run and of the case
tables of communicating machines.

The seeded step used to be written three times; those loops are kept here
verbatim as references: ``reference_seeded_run`` (``psystem_run`` in
seeded mode), ``reference_simulate_to_halt`` and ``reference_advance``
(the Base's advance function).  ``psystem.seeded_trace`` must give the
same traces, halting results, cap errors and advance results on seeded
random P systems.

``reference_csxm_evaluate`` is the case loop communicating machines used
to run on every call, and ``ReferenceCaseTable`` the per-point evaluation
table both machine kinds then shared.  Both kinds now try their cases on
each call through one first-match loop, and must give the same result, or
raise the same error, as these references at every point: (memory, in-port,
input) for a communicating machine, (memory, input) for a machine, where
the case index of :func:`first_match` (``machine_walk.fired_case``) must
also name the case the reference applied.
"""

import pytest

from gen_models import random_csxm_system, random_dft_sxm, random_messy_sxm
from machine_walk import fired_case
from test_psystem_dag import capped_step_choices, random_psystem

from heterotest import psystem
from heterotest.csxms import (
    COMM_SYMBOL,
    CsxmCase,
    CsxmCaseFunction,
    CsxmResult,
    ExtendedCommFunction,
    extend_for_testing,
)
from heterotest.errors import DepthCapExceeded, ExplosionBoundExceeded, TermError
from heterotest.heterotic import AdvanceFunction, simulate_to_halt
from heterotest.model_io import load_model_file
from heterotest.multiset import Multiset
from heterotest.psystem import (
    ComputationTrace,
    PRule,
    PSystem,
    TraceStep,
    config_canonical,
    is_config_for,
    is_halting,
    psystem_run,
    seeded_chooser,
    step_choices,
)
from heterotest.records import replace
from heterotest.sxm import Case, CaseFunction
from heterotest.values import BOTTOM_M, NULL

M = Multiset.from_string


# --- the references: the three seeded loops -----------------------------------


def reference_seeded_run(ps, depth, seed=0, assignment_cap=10_000, branch_cap=10_000):
    choose = seeded_chooser(seed)
    done = []
    active = [(ps.initial, ())]
    for _ in range(depth):
        if not active:
            break
        next_active = []
        for cfg, steps in active:
            choices = capped_step_choices(ps, cfg, assignment_cap)
            if not choices:
                done.append(ComputationTrace(ps.initial, steps, halted=True))
                continue
            assignment, successor = choices[choose(cfg, len(choices))]
            next_active.append((successor, steps + (TraceStep(assignment, successor),)))
        if len(next_active) > branch_cap:
            raise ExplosionBoundExceeded(f"more than {branch_cap} simultaneous branches")
        active = next_active
    for cfg, steps in active:
        done.append(ComputationTrace(ps.initial, steps, halted=is_halting(ps, cfg)))
    return sorted(done, key=ComputationTrace.key)


def reference_simulate_to_halt(ps, start, seed, depth_cap):
    cfg = start
    visited = [cfg]
    choose = seeded_chooser(seed)
    for steps in range(depth_cap + 1):
        if is_halting(ps, cfg):
            return cfg, steps, tuple(visited)
        choices = step_choices(ps, cfg)
        cfg = choices[choose(cfg, len(choices))][1]
        visited.append(cfg)
    raise DepthCapExceeded(
        f"{ps.name} did not halt within {depth_cap} steps from "
        f"{'|'.join(config_canonical(start))}"
    )


def reference_advance(ps, seed, input_symbol, in_port, memory):
    choose = seeded_chooser(seed)
    if input_symbol != "step" or in_port != BOTTOM_M:
        return None
    if not is_config_for(ps, memory):
        return None
    cfg = tuple(memory)
    if is_halting(ps, cfg):
        return CsxmResult(memory=memory, output="ran")
    choices = step_choices(ps, cfg)
    successor = choices[choose(cfg, len(choices))][1]
    return CsxmResult(memory=successor, output="ran")


# --- the reference: one communicating case loop --------------------------------


def reference_csxm_evaluate(cases, input_symbol, in_port, memory):
    for case in cases:
        if case.input != input_symbol:
            continue
        env = case.pattern.match(memory)
        if env is None:
            continue
        port_env = case.port_pat.match(in_port)
        if port_env is None:
            continue
        merged = dict(env)
        merged.update(port_env)
        out_value = case.out_expr.evaluate(merged) if case.out_expr is not None else None
        return CsxmResult(
            memory=case.update.evaluate(merged),
            output=case.output,
            set_out_port=case.out_expr is not None,
            out_port=out_value,
            send_to=case.send_to,
        )
    return None


# --- the reference: the evaluation table both machine kinds shared --------------


class ReferenceCaseTable:
    """The evaluation table of one case tuple, filled as it is asked:
    key -> (indexes of the matching cases, the error matching stopped at,
    the result of the first match, the error ``evaluate`` raises).

    A key is what the cases ``bind``: (memory, input) for :class:`Case`,
    (memory, input, in-port) for a communicating machine's case.  A case
    binds a key with its own input to None or an environment, or raises
    :class:`TermError`; ``apply`` turns the first match's environment into
    the result.  Matching stops at the first case whose
    binding raises; ``evaluate`` raises that error only when no case
    matched before it, as trying the cases top to bottom would.
    """

    __slots__ = ("cases", "entries")

    def __init__(self, cases: tuple):
        self.cases = cases
        self.entries: dict = {}

    def entry(self, *key):
        found = self.entries.get(key)
        if found is None:
            found = self.entries[key] = self._fill(key)
        return found

    def evaluate(self, *key):
        _, _, result, failure = self.entry(*key)
        if failure is not None:
            raise failure.with_traceback(None)
        return result

    def _fill(self, key):
        input_symbol = key[1]
        hits, first_env, error = [], None, None
        for idx, case in enumerate(self.cases):
            if case.input != input_symbol:
                continue
            try:
                env = case.bind(*key)
            except TermError as exc:
                error = exc
                break
            if env is not None:
                if not hits:
                    first_env = env
                hits.append(idx)
        result, failure = None, None
        if hits:
            try:
                result = self.cases[hits[0]].apply(first_env)
            except TermError as exc:
                failure = exc
        else:
            failure = error
        return tuple(hits), error, result, failure


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (DepthCapExceeded, ExplosionBoundExceeded, TermError) as exc:
        return type(exc).__name__, str(exc)


def _traces(traces):
    return [(t.key(), t.halted) for t in traces]


def _halt(result):
    if isinstance(result[0], str):
        return result
    final, steps, visited = result
    return config_canonical(final), steps, tuple(config_canonical(c) for c in visited)


# --- the seeded run ------------------------------------------------------------

SEEDS = range(60)
CHOOSERS = range(5)
DEPTHS = range(7)

# "fwd" and "back" turn a into b and back again: the run never halts.
SPIN = PSystem(
    "spin", frozenset("ab"), {1: None}, (M("a"),),
    (PRule("fwd", 1, M("a"), (("b", "here"),)), PRule("back", 1, M("b"), (("a", "here"),))),
)


def _systems():
    return [random_psystem(seed) for seed in SEEDS] + [SPIN]


@pytest.mark.parametrize("ps", _systems(), ids=lambda ps: ps.name)
def test_seeded_run_equals_the_reference(monkeypatch, ps):
    for seed in CHOOSERS:
        for depth in DEPTHS:
            got = _outcome(psystem_run, ps, depth, "seeded", seed)
            want = _outcome(reference_seeded_run, ps, depth, seed)
            if isinstance(want, list):
                got, want = _traces(got), _traces(want)
            assert got == want, (seed, depth)
        # the assignment cap trips in the same step, with the same message
        for cap in (0, 1):
            with monkeypatch.context() as patch:
                patch.setattr(psystem, "ASSIGNMENT_CAP", cap)
                got = _outcome(psystem_run, ps, 6, "seeded", seed)
            want = _outcome(reference_seeded_run, ps, 6, seed, assignment_cap=cap)
            if isinstance(want, list):
                got, want = _traces(got), _traces(want)
            assert got == want, (seed, cap)


@pytest.mark.parametrize("ps", _systems(), ids=lambda ps: ps.name)
def test_simulate_to_halt_equals_the_reference(ps):
    for seed in CHOOSERS:
        for depth_cap in DEPTHS:
            got = _outcome(simulate_to_halt, ps, ps.initial, seed, depth_cap)
            want = _outcome(reference_simulate_to_halt, ps, ps.initial, seed, depth_cap)
            assert _halt(got) == _halt(want), (seed, depth_cap)


def test_a_two_cycle_exceeds_every_cap_with_the_reference_message():
    for depth_cap in DEPTHS:
        want = _outcome(reference_simulate_to_halt, SPIN, SPIN.initial, 0, depth_cap)
        assert want[0] == "DepthCapExceeded"
        assert _outcome(simulate_to_halt, SPIN, SPIN.initial, 0, depth_cap) == want
    assert want[1] == "spin did not halt within 6 steps from a"


@pytest.mark.parametrize("ps", _systems(), ids=lambda ps: ps.name)
def test_advance_equals_the_reference_along_every_trajectory(ps):
    checked = 0
    for seed in CHOOSERS:
        advance = AdvanceFunction(ps, seed)
        (trace,) = psystem_run(ps, 6, "seeded", seed)
        for cfg in trace.configurations():
            memory = cfg
            for symbol, port in (("step", BOTTOM_M), ("emit", BOTTOM_M), ("step", memory)):
                got = advance.evaluate(symbol, port, memory)
                assert got == reference_advance(ps, seed, symbol, port, memory), (seed, cfg)
            checked += 1
    assert checked >= len(CHOOSERS)


def test_advance_keeps_results_but_no_cap_error(monkeypatch):
    # A repeated call answers from the kept result.  A step that trips the
    # assignment cap keeps nothing: it raises on every call, and once the
    # cap is back the same memory gives the reference result.
    trips = 0
    for ps in _systems():
        for seed in CHOOSERS:
            advance = AdvanceFunction(ps, seed)
            (trace,) = psystem_run(ps, 6, "seeded", seed)
            for memory in trace.configurations():
                want = reference_advance(ps, seed, "step", BOTTOM_M, memory)
                with monkeypatch.context() as patch:
                    patch.setattr(psystem, "ASSIGNMENT_CAP", 0)
                    tripped = [_outcome(advance.evaluate, "step", BOTTOM_M, memory)
                               for _ in range(2)]
                assert tripped[0] == tripped[1], (seed, memory)
                if tripped[0] != want:
                    assert tripped[0][0] == "ExplosionBoundExceeded"
                    trips += 1
                got = [advance.evaluate("step", BOTTOM_M, memory) for _ in range(2)]
                assert got == [want, want], (seed, memory)
    assert trips > 100


def test_advance_stutters_on_every_halted_trajectory_end():
    stutters = 0
    for ps in _systems():
        for seed in CHOOSERS:
            (trace,) = psystem_run(ps, 6, "seeded", seed)
            if trace.halted:
                memory = trace.final
                result = AdvanceFunction(ps, seed).evaluate("step", BOTTOM_M, memory)
                assert result == CsxmResult(memory=memory, output="ran")
                stutters += 1
    assert stutters > 100


# --- communicating case tables -------------------------------------------------


def _points(comp):
    """Every memory value and port value the component declares, each also
    tried as the other, plus the undefined port value."""
    memories, _ = comp.memory_domain.enumerate(comp.name)
    values = list(memories) + list(comp.in_port_domain) + list(comp.out_port_domain)
    ports = [BOTTOM_M] + values
    inputs = sorted(comp.inputs | {NULL, "a"})
    return [(m, p, s) for m in values for p in ports for s in inputs]


def _check_function(fn, points):
    """Compare one function (or an extended communicating function around
    one) with the reference at every point; returns the points defined."""
    inner = fn.inner if isinstance(fn, ExtendedCommFunction) else fn
    assert isinstance(inner, CsxmCaseFunction)
    defined = 0
    for memory, port, symbol in points:
        got = _outcome(fn.evaluate, symbol, port, memory)
        if isinstance(fn, ExtendedCommFunction):
            want = None
            if symbol == COMM_SYMBOL:
                want = _outcome(reference_csxm_evaluate, inner.cases, NULL, port, memory)
                if isinstance(want, CsxmResult):
                    want = replace(want, output=fn.output_symbol)
        else:
            want = _outcome(reference_csxm_evaluate, inner.cases, symbol, port, memory)
        assert got == want, (fn.name, memory, port, symbol)
        defined += want is not None
    return defined


def test_ps2_control_equals_the_reference(models_dir):
    _, control = load_model_file(models_dir / "ps2_control.json")
    _, heterotic = load_model_file(models_dir / "ps2_heterotic.json")
    defined = 0
    for comp in (control, heterotic.control):
        for fn in comp.functions.values():
            defined += _check_function(fn, _points(comp))
    assert defined > 0


@pytest.mark.parametrize("seed", range(10))
def test_extended_random_systems_equal_the_reference(seed):
    system = extend_for_testing(random_csxm_system(seed))
    defined = 0
    for comp in system.components:
        for fn in comp.functions.values():
            defined += _check_function(fn, _points(comp))
    assert defined > 0


def _table(*cases, kind="ordinary"):
    return CsxmCaseFunction("f", kind, [CsxmCase.build(*case) for case in cases])


# (memory pattern, port pattern, input, output, update[, out-port expression])
RAISING_TABLES = {
    "memory pattern raises": _table(
        ("?m where ?m % 0 == 0", "_", "go", "o", "?m"),
        ("_", "_", "go", "p", "1"),
    ),
    "port pattern raises": _table(
        ("?m", "?p where ?p % 0 == 0", "go", "o", "?m"),
        ("_", "_", "go", "p", "1"),
    ),
    "out-port expression raises": _table(
        ("?m", "⊥_M", "go", "o", "?m", "?m % 0"),
    ),
    "update raises": _table(
        ("?m", "_", "go", "o", "?m % 0"),
    ),
    # both raise, with different messages: the out-port expression's wins
    "out-port expression and update raise": _table(
        ("?m", "_", "go", "o", "?m + x", "?m % 0"),
    ),
    # matching stops at the raising pattern, but an earlier match still wins
    "a later pattern raises after a match": _table(
        ("0", "_", "go", "zero", "5", "7"),
        ("?m where ?m % 0 == 0", "_", "go", "o", "?m"),
        ("_", "_", "go", "p", "1"),
    ),
    "a later port pattern raises after a match": _table(
        ("_", "⊥_M", "go", "idle", "5"),
        ("?m", "?p where ?p % 0 == 0", "go", "o", "?m"),
    ),
    "the first match wins over a later one": _table(
        ("?m where ?m > 1", "_", "go", "big", "?m + 1"),
        ("?m", "?p where ?p != ⊥_M", "go", "port", "?p", "?m"),
        ("_", "_", "go", "any", "0"),
    ),
}
RAISING_POINTS = [
    (m, p, s) for m in (0, 1, 2, "x", (0, 1)) for p in (BOTTOM_M, 0, 3, "y") for s in ("go", "stop")
]


@pytest.mark.parametrize("name", sorted(RAISING_TABLES))
def test_hand_made_tables_equal_the_reference(name):
    fn = RAISING_TABLES[name]
    outcomes = {_outcome(fn.evaluate, s, p, m) for m, p, s in RAISING_POINTS}
    _check_function(fn, RAISING_POINTS)
    assert len(outcomes) > 1  # each table is defined, undefined or raises somewhere
    # a second call tries the cases again, and must give the same again
    _check_function(fn, RAISING_POINTS)


def test_hand_made_tables_cover_each_error_and_the_earlier_match():
    fn = RAISING_TABLES["out-port expression and update raise"]
    assert _outcome(fn.evaluate, "go", BOTTOM_M, 3) == ("TermError", "modulo by zero")
    fn = RAISING_TABLES["a later pattern raises after a match"]
    assert fn.evaluate("go", BOTTOM_M, 0) == CsxmResult(5, "zero", True, 7)
    assert _outcome(fn.evaluate, "go", BOTTOM_M, 1) == ("TermError", "modulo by zero")
    fn = RAISING_TABLES["a later port pattern raises after a match"]
    assert fn.evaluate("go", BOTTOM_M, 2) == CsxmResult(5, "idle")
    assert _outcome(fn.evaluate, "go", 3, 2) == ("TermError", "modulo by zero")


# --- machine case tables -------------------------------------------------------


def _returned(call, *args):
    """("returns", the result) of a call, or ("raises", the message of the
    :class:`TermError` it raised)."""
    try:
        return "returns", call(*args)
    except TermError as exc:
        return "raises", str(exc)


def _check_machine_function(fn, points):
    """Compare ``evaluate`` and ``fired_case`` of one machine case function
    with the reference table at every (memory, input) point; returns the
    points defined."""
    assert isinstance(fn, CaseFunction)
    table = ReferenceCaseTable(fn.cases)
    defined = 0
    for memory, symbol in points:
        want = _returned(table.evaluate, memory, symbol)
        assert _returned(fn.evaluate, memory, symbol) == want, (fn.name, memory, symbol)
        # fired_case raises where evaluate does, and names the applied case
        # elsewhere; the table answered None where evaluate raised
        hits, _, result, _ = table.entry(memory, symbol)
        fired = want if want[0] == "raises" else (
            "returns", hits[0] if result is not None else None)
        assert _returned(fired_case, fn, memory, symbol) == fired, (fn.name, memory, symbol)
        defined += want[1] is not None
    return defined


def _machine_points(model):
    """Every memory value the machine declares and a few it does not, with
    every input and one outside the alphabet."""
    memories, _ = model.memory_domain.enumerate(model.name)
    values = list(memories) + [-1, "x", (0, 1)]
    return [(m, s) for m in values for s in sorted(model.inputs) + ["zz"]]


def _check_machine(model):
    defined = sum(_check_machine_function(fn, _machine_points(model))
                  for fn in model.functions.values())
    assert defined > 0, model.name


@pytest.mark.parametrize("name", ["counter.json", "counter_testable.json"])
def test_shipped_machines_equal_the_reference_table(models_dir, name):
    _, model = load_model_file(models_dir / name)
    _check_machine(model)


def test_random_machines_equal_the_reference_table():
    for seed in range(12):
        _check_machine(random_dft_sxm(seed))
    for seed in range(80):
        _check_machine(random_messy_sxm(seed))


def _machine_table(*cases):
    return CaseFunction("f", [Case.build(*case) for case in cases])


# The machine form of RAISING_TABLES: (memory pattern, input, output, update).
RAISING_MACHINE_TABLES = {
    "memory pattern raises": _machine_table(
        ("?m where ?m % 0 == 0", "go", "o", "?m"),
        ("_", "go", "p", "1"),
    ),
    "update raises": _machine_table(
        ("?m", "go", "o", "?m % 0"),
    ),
    # matching stops at the raising pattern, but an earlier match still wins
    "a later pattern raises after a match": _machine_table(
        ("0", "go", "zero", "5"),
        ("?m where ?m % 0 == 0", "go", "o", "?m"),
        ("_", "go", "p", "1"),
    ),
    # the first case binds every memory, but only on its own input
    "the first match wins over a later one": _machine_table(
        ("_", "stop", "halt", "9"),
        ("?m where ?m > 1", "go", "big", "?m + 1"),
        ("?m", "go", "any", "0"),
    ),
}
RAISING_MACHINE_POINTS = [(m, s) for m in (0, 1, 2, "x", (0, 1)) for s in ("go", "stop")]


@pytest.mark.parametrize("name", sorted(RAISING_MACHINE_TABLES))
def test_hand_made_machine_tables_equal_the_reference(name):
    fn = RAISING_MACHINE_TABLES[name]
    outcomes = {_returned(fn.evaluate, m, s) for m, s in RAISING_MACHINE_POINTS}
    assert len(outcomes) > 1  # each table is defined, undefined or raises somewhere
    _check_machine_function(fn, RAISING_MACHINE_POINTS)


def test_hand_made_machine_tables_cover_each_error_and_the_earlier_match():
    fn = RAISING_MACHINE_TABLES["memory pattern raises"]
    assert _returned(fn.evaluate, 1, "go") == ("raises", "modulo by zero")
    assert _returned(fired_case, fn, 1, "go") == ("raises", "modulo by zero")
    fn = RAISING_MACHINE_TABLES["update raises"]
    assert _returned(fn.evaluate, 1, "go") == ("raises", "modulo by zero")
    fn = RAISING_MACHINE_TABLES["a later pattern raises after a match"]
    assert fn.evaluate(0, "go") == ("zero", 5) and fired_case(fn, 0, "go") == 0
    assert _returned(fn.evaluate, 1, "go") == ("raises", "modulo by zero")
    fn = RAISING_MACHINE_TABLES["the first match wins over a later one"]
    assert fn.evaluate(2, "go") == ("big", 3) and fired_case(fn, 2, "go") == 1
    assert fn.evaluate(1, "go") == ("any", 0) and fired_case(fn, 1, "go") == 2
    assert fn.evaluate(1, "stop") == ("halt", 9) and fired_case(fn, 1, "stop") == 0
