"""Design-for-test checks: determinism, completeness and output
distinguishability, decided by enumeration over the declared memory domain
(or sample) and attached concrete witnesses on failure.

A sampled (non-exhaustive) pass means "no violation found (sampled)" and is
never a proof; the report's ``exhaustive`` flag records which it was.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, Optional, Sequence, Tuple

from .records import record, replace
from .sxm import Sxm, associated_automaton
from .values import Value, render, sort_key

# Witnesses kept per condition.
WITNESS_LIMIT = 16


@record
class DeterminismWitness:
    state: str
    fn1: str
    fn2: str
    memory: Value
    input: str

    def describe(self) -> str:
        return (
            f"state {self.state}: {self.fn1} and {self.fn2} both defined at "
            f"memory {render(self.memory)}, input {self.input!r}"
        )


@record
class CompletenessWitness:
    fn: str
    memory: Value

    def describe(self) -> str:
        return f"{self.fn} is undefined at memory {render(self.memory)} for every input"


@record
class DistinguishabilityWitness:
    fn1: str
    fn2: str
    memory: Value
    memory1: Value
    memory2: Value
    input: str
    output: str

    def describe(self) -> str:
        return (
            f"{self.fn1} and {self.fn2} both map memory {render(self.memory)}, "
            f"input {self.input!r} to output {self.output!r} "
            f"(memories {render(self.memory1)} / {render(self.memory2)})"
        )


@record
class DftReport:
    deterministic: bool
    determinism_witnesses: Tuple[DeterminismWitness, ...]
    structural_issues: Tuple[str, ...]
    complete: bool
    complete_per_function: Dict[str, bool]
    completeness_witnesses: Tuple[CompletenessWitness, ...]
    output_distinguishable: bool
    distinguishability_witnesses: Tuple[DistinguishabilityWitness, ...]
    exhaustive: bool

    def all_pass(self) -> bool:
        return self.deterministic and self.complete and self.output_distinguishable

    def summary_lines(self) -> list[str]:
        scope = "exhaustive" if self.exhaustive else "sampled"
        lines = []

        def verdict(ok):
            if ok:
                return "pass" if self.exhaustive else "no violation found (sampled)"
            return "FAIL"

        lines.append(f"determinism: {verdict(self.deterministic)}")
        for issue in self.structural_issues:
            lines.append(f"  {issue}")
        for w in self.determinism_witnesses:
            lines.append(f"  {w.describe()}")
        lines.append(f"completeness: {verdict(self.complete)}")
        for w in self.completeness_witnesses:
            lines.append(f"  {w.describe()}")
        lines.append(f"output distinguishability: {verdict(self.output_distinguishable)}")
        for w in self.distinguishability_witnesses:
            lines.append(f"  {w.describe()}")
        lines.append(f"scope: {scope}")
        return lines


def decide_conditions(
    model,
    points: Sequence[object],
    evaluate: Callable[[object, Value, object], Optional[Tuple[str, Value, object]]],
    locate: Callable[[Value, object], Tuple[Value, str]],
    structural: Sequence[str] = (),
) -> DftReport:
    """Decide the three design-for-test conditions for a function table.

    ``model`` supplies ``functions``, ``next_state``, ``initial_states`` and
    ``memory_domain``; each condition quantifies over every memory value and
    input point, in order.  ``evaluate(fn, m, point)`` is None where ``fn``
    is undefined, else ``(output, next memory, observable)``: functions are
    distinguishable where their observables differ.  ``locate(m, point)``
    gives a witness's (memory, input symbol).  Witnesses keep enumeration
    order up to ``WITNESS_LIMIT`` per condition; ``structural`` issues
    follow the initial-state check and also fail determinism.
    """
    values, exhaustive = model.memory_domain.enumerate(model.name)
    functions = model.functions
    issues = []
    if len(model.initial_states) != 1:
        issues.append(f"initial-state set {sorted(model.initial_states)} is not a singleton")
    issues.extend(structural)

    # Determinism: functions attached to a common state must have disjoint
    # domains.  Output distinguishability: an observable identifies the
    # fired function.  Completeness: every function must fire from every
    # memory at some point.  Each memory's row holds every function's
    # result at every point; each pair and function keeps its first
    # ``WITNESS_LIMIT`` hits, and the lists are joined pair- or
    # function-major before the cut.
    fn_names = sorted(functions)
    attached: Dict[str, set] = {}
    for q, name in model.next_state:
        attached.setdefault(q, set()).add(name)
    attached_pairs = [
        (q, n1, n2) for q in sorted(attached) for n1, n2 in combinations(sorted(attached[q]), 2)
        if n1 in functions and n2 in functions
    ]
    fn_pairs = list(combinations(fn_names, 2))
    det: list = [[] for _ in attached_pairs]
    dist: list = [[] for _ in fn_pairs]
    comp: list = [[] for _ in fn_names]
    complete_per_function = dict.fromkeys(fn_names, True)
    for m in values:
        row = {name: [evaluate(functions[name], m, point) for point in points]
               for name in fn_names}
        for found, (q, n1, n2) in zip(det, attached_pairs):
            for point, r1, r2 in zip(points, row[n1], row[n2]):
                if len(found) < WITNESS_LIMIT and r1 is not None and r2 is not None:
                    found.append(DeterminismWitness(q, n1, n2, *locate(m, point)))
        for found, (n1, n2) in zip(dist, fn_pairs):
            for point, r1, r2 in zip(points, row[n1], row[n2]):
                if (len(found) < WITNESS_LIMIT and r1 is not None and r2 is not None
                        and r1[2] == r2[2]):
                    memory, symbol = locate(m, point)
                    found.append(DistinguishabilityWitness(n1, n2, memory, r1[1], r2[1],
                                                           symbol, r1[0]))
        for found, name in zip(comp, fn_names):
            if all(r is None for r in row[name]):
                complete_per_function[name] = False
                if len(found) < WITNESS_LIMIT:
                    found.append(CompletenessWitness(name, m))
    det, comp, dist = ([w for found in lists for w in found][:WITNESS_LIMIT]
                       for lists in (det, comp, dist))

    return DftReport(
        deterministic=not det and not issues,
        determinism_witnesses=tuple(det),
        structural_issues=tuple(issues),
        complete=not comp,
        complete_per_function=complete_per_function,
        completeness_witnesses=tuple(comp),
        output_distinguishable=not dist,
        distinguishability_witnesses=tuple(dist),
        exhaustive=exhaustive,
    )


def _machine_step(fn, memory, symbol):
    result = fn.evaluate(memory, symbol)
    return None if result is None else (result[0], result[1], result[0])


def check_dft(model: Sxm) -> DftReport:
    """Check the three design-for-test conditions over the declared domain.

    Witnesses are capped at ``WITNESS_LIMIT`` per condition; each witness
    replays as a genuine violation through the case tables.
    """
    arc_issues = [
        f"associated automaton has two {label}-arcs from state {src}"
        for src, label in associated_automaton(model).conflicts()
    ]
    report = decide_conditions(
        model, sorted(model.inputs), _machine_step, lambda m, symbol: (m, symbol), arc_issues
    )
    order = {
        "determinism_witnesses": lambda w: (w.state, w.fn1, w.fn2, sort_key(w.memory), w.input),
        "completeness_witnesses": lambda w: (w.fn, sort_key(w.memory)),
        "distinguishability_witnesses":
            lambda w: (w.fn1, w.fn2, sort_key(w.memory), w.input, w.output),
    }
    return replace(report, **{name: tuple(sorted(getattr(report, name), key=key))
                              for name, key in order.items()})


def replay_determinism_witness(model: Sxm, w: DeterminismWitness) -> bool:
    f1, f2 = model.functions[w.fn1], model.functions[w.fn2]
    if (w.state, w.fn1) not in model.next_state or (w.state, w.fn2) not in model.next_state:
        return False
    return f1.evaluate(w.memory, w.input) is not None and f2.evaluate(w.memory, w.input) is not None


def replay_completeness_witness(model: Sxm, w: CompletenessWitness) -> bool:
    fn = model.functions[w.fn]
    return all(fn.evaluate(w.memory, sym) is None for sym in sorted(model.inputs))


def replay_distinguishability_witness(model: Sxm, w: DistinguishabilityWitness) -> bool:
    if w.fn1 == w.fn2:
        return False
    r1 = model.functions[w.fn1].evaluate(w.memory, w.input)
    r2 = model.functions[w.fn2].evaluate(w.memory, w.input)
    return (
        r1 is not None
        and r2 is not None
        and r1[0] == w.output
        and r2[0] == w.output
        and r1[1] == w.memory1
        and r2[1] == w.memory2
    )
