"""Cell-like P systems: membrane tree, multiset rewriting under maximal
parallelism, bounded branch exploration, rule coverage and coverage test
sets.

Strict maximal parallelism is enforced uniformly: a step applies a multiset
of rule instances per compartment such that no further instance of any rule
is applicable to the leftover symbols.  Configurations compare by the
canonical multiset string of each compartment.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import ExplosionBoundExceeded, TraceReplayMismatch
from .multiset import EMPTY_MULTISET, Multiset
from .sxm import Violation
from .values import RESERVED_ATOMS

# A configuration is one multiset per compartment, index i-1 <-> compartment i.
PConfiguration = Tuple[Multiset, ...]

# One step's rule instances: per compartment, sorted (rule name, count) pairs.
Assignment = Tuple[Tuple[Tuple[str, int], ...], ...]

DEFAULT_ASSIGNMENT_CAP = 10_000
DEFAULT_BRANCH_CAP = 10_000

HERE = "here"


@dataclass(frozen=True)
class PRule:
    """A rewrite rule: lhs consumed in its compartment, rhs symbols deposited
    locally ("here") or into the parent/a child compartment."""

    name: str
    compartment: int
    lhs: Multiset
    rhs: Tuple[Tuple[str, object], ...]  # (symbol, HERE | compartment id)


@dataclass(frozen=True)
class PSystem:
    name: str
    alphabet: FrozenSet[str]
    parent: Mapping[int, Optional[int]]  # compartment id -> parent id (root: None)
    initial: PConfiguration
    rules: Tuple[PRule, ...]

    @property
    def n_compartments(self) -> int:
        return len(self.parent)

    def compartments(self) -> Tuple[int, ...]:
        return tuple(sorted(self.parent))

    def children(self, comp: int) -> Tuple[int, ...]:
        return tuple(sorted(c for c, p in self.parent.items() if p == comp))

    def rules_in(self, comp: int) -> Tuple[PRule, ...]:
        return tuple(sorted((r for r in self.rules if r.compartment == comp), key=lambda r: r.name))

    def rule(self, name: str) -> PRule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def legal_targets(self, comp: int) -> Tuple[int, ...]:
        p = self.parent.get(comp)
        out = list(self.children(comp))
        if p is not None:
            out.append(p)
        return tuple(sorted(out))


def config_canonical(cfg: PConfiguration) -> Tuple[str, ...]:
    return tuple(m.canonical() for m in cfg)


def render_config(cfg: PConfiguration) -> str:
    return "(" + ",".join(m.canonical() for m in cfg) + ")"


@dataclass(frozen=True)
class TraceStep:
    fired: Assignment
    result: PConfiguration


@dataclass(frozen=True)
class ComputationTrace:
    """A computation: initial configuration plus the fired-rule record and
    result of every step.  ``halted`` marks traces that ended because no
    rule was applicable."""

    initial: PConfiguration
    steps: Tuple[TraceStep, ...]
    halted: bool

    @property
    def final(self) -> PConfiguration:
        return self.steps[-1].result if self.steps else self.initial

    def configurations(self) -> Tuple[PConfiguration, ...]:
        return (self.initial,) + tuple(s.result for s in self.steps)

    def fired_rules(self) -> FrozenSet[str]:
        names = set()
        for step in self.steps:
            for comp_fired in step.fired:
                for name, _ in comp_fired:
                    names.add(name)
        return frozenset(names)

    def key(self):
        return (
            len(self.steps),
            tuple(config_canonical(c) for c in self.configurations()),
            tuple(s.fired for s in self.steps),
        )


def validate_psystem(ps: PSystem) -> list[Violation]:
    out: list[Violation] = []
    n = ps.n_compartments
    ids = sorted(ps.parent)
    if ids != list(range(1, n + 1)):
        out.append(Violation("structure", f"compartment ids must be 1..{n}, got {ids}"))
        return out

    roots = [c for c, p in ps.parent.items() if p is None]
    if len(roots) != 1:
        out.append(Violation("structure", f"expected one root compartment, got {roots}"))
    for c, p in sorted(ps.parent.items()):
        if p is not None and p not in ps.parent:
            out.append(Violation("structure", f"compartment {c} has unknown parent {p}"))
    if roots:
        seen = set()
        queue = deque(roots[:1])
        while queue:
            c = queue.popleft()
            if c in seen:
                out.append(Violation("structure", f"membrane tree has a cycle at {c}"))
                break
            seen.add(c)
            queue.extend(ps.children(c))
        if len(seen) != n and not any(v.where == "structure" and "cycle" in v.message for v in out):
            out.append(Violation("structure", "membrane tree is not connected"))

    for atom in sorted(RESERVED_ATOMS & ps.alphabet):
        out.append(Violation("alphabet", f"reserved atom {atom!r} in alphabet"))

    if len(ps.initial) != n:
        out.append(Violation("initial", f"expected {n} initial multisets, got {len(ps.initial)}"))
    for idx, m in enumerate(ps.initial, start=1):
        for sym, _ in m.items():
            if sym not in ps.alphabet:
                out.append(Violation(f"initial[{idx}]", f"symbol {sym!r} not in alphabet"))

    seen_names = set()
    for r in ps.rules:
        where = f"rules[{r.name}]"
        if r.name in seen_names:
            out.append(Violation(where, "duplicate rule name"))
        seen_names.add(r.name)
        if r.compartment not in ps.parent:
            out.append(Violation(where, f"unknown compartment {r.compartment}"))
            continue
        if r.lhs.is_empty():
            out.append(Violation(where, "left-hand side is empty"))
        for sym, _ in r.lhs.items():
            if sym not in ps.alphabet:
                out.append(Violation(where, f"lhs symbol {sym!r} not in alphabet"))
        legal = ps.legal_targets(r.compartment)
        for sym, target in r.rhs:
            if sym not in ps.alphabet:
                out.append(Violation(where, f"rhs symbol {sym!r} not in alphabet"))
            if target != HERE and target not in legal:
                out.append(
                    Violation(
                        where,
                        f"target {target!r} is neither the parent nor a child "
                        f"of compartment {r.compartment}",
                    )
                )
    return out


def _compartment_maximal_multisets(
    rules: Sequence[PRule], available: Multiset, cap: int
) -> list[Tuple[Tuple[str, int], ...]]:
    """All maximal rule-instance multisets for one compartment."""
    results: list[Tuple[Tuple[str, int], ...]] = []

    def applicable(leftover: Multiset) -> bool:
        return any(r.lhs <= leftover for r in rules)

    def dfs(idx: int, leftover: Multiset, chosen: list[Tuple[str, int]]):
        if len(results) > cap:
            raise ExplosionBoundExceeded(
                f"more than {cap} rule assignments in one compartment", results
            )
        if idx == len(rules):
            if not applicable(leftover):
                results.append(tuple((n, c) for n, c in chosen if c > 0))
            return
        rule = rules[idx]
        max_count = 0
        probe = leftover
        while rule.lhs <= probe:
            probe = probe - rule.lhs
            max_count += 1
        for count in range(max_count + 1):
            remaining = leftover
            for _ in range(count):
                remaining = remaining - rule.lhs
            chosen.append((rule.name, count))
            dfs(idx + 1, remaining, chosen)
            chosen.pop()

    dfs(0, available, [])
    return sorted(set(results))


def maximal_rule_multisets(
    ps: PSystem, cfg: PConfiguration, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> list[Assignment]:
    """Every maximally parallel assignment at ``cfg``.

    Applicability depends only on each compartment's own multiset, so
    per-compartment maximal choices combine as a Cartesian product.  The
    output ordering is canonical.  Raises
    :class:`ExplosionBoundExceeded` past ``cap`` enumerated assignments.
    """
    per_comp: list[list] = []
    for comp in ps.compartments():
        per_comp.append(
            _compartment_maximal_multisets(ps.rules_in(comp), cfg[comp - 1], cap)
        )
    combos: list[Assignment] = [()]
    for choices in per_comp:
        combos = [prefix + (choice,) for prefix in combos for choice in choices]
        if len(combos) > cap:
            raise ExplosionBoundExceeded(
                f"more than {cap} combined rule assignments", combos[:cap]
            )
    return sorted(combos)


def apply_assignment(ps: PSystem, cfg: PConfiguration, assignment: Assignment) -> PConfiguration:
    """Fire one assignment: per compartment,
    result = source - consumed lhs + deposited rhs (here + incoming)."""
    consumed = [EMPTY_MULTISET for _ in cfg]
    deposited = [EMPTY_MULTISET for _ in cfg]
    for comp_idx, comp_fired in enumerate(assignment):
        comp = comp_idx + 1
        for name, count in comp_fired:
            rule = ps.rule(name)
            if rule.compartment != comp:
                raise ValueError(f"rule {name} fired in wrong compartment {comp}")
            consumed[comp_idx] = consumed[comp_idx] + rule.lhs.scaled(count)
            for sym, target in rule.rhs:
                dest = comp_idx if target == HERE else target - 1
                deposited[dest] = deposited[dest] + Multiset({sym: count})
    result = []
    for idx, source in enumerate(cfg):
        if not consumed[idx] <= source:
            raise ValueError(
                f"assignment consumes more than compartment {idx + 1} holds"
            )
        result.append(source - consumed[idx] + deposited[idx])
    return tuple(result)


def is_halting(ps: PSystem, cfg: PConfiguration) -> bool:
    for comp in ps.compartments():
        held = cfg[comp - 1]
        if any(r.lhs <= held for r in ps.rules_in(comp)):
            return False
    return True


def is_maximal(ps: PSystem, cfg: PConfiguration, assignment: Assignment) -> bool:
    """No rule instance can be added in any compartment."""
    for comp in ps.compartments():
        leftover = cfg[comp - 1]
        for name, count in assignment[comp - 1]:
            leftover = leftover - ps.rule(name).lhs.scaled(count)
        if any(r.lhs <= leftover for r in ps.rules_in(comp)):
            return False
    return True


def step_choices(
    ps: PSystem, cfg: PConfiguration, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> list[Tuple[Assignment, PConfiguration]]:
    """(assignment, successor) pairs; empty exactly at halting configurations."""
    if is_halting(ps, cfg):
        return []
    return [(a, apply_assignment(ps, cfg, a)) for a in maximal_rule_multisets(ps, cfg, cap)]


def seeded_choice_index(seed: int, cfg: PConfiguration, n_choices: int) -> int:
    """Stable pseudo-random branch pick, a pure function of (seed, cfg)."""
    text = f"{seed}|" + "|".join(config_canonical(cfg))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_choices


def psystem_run(
    ps: PSystem,
    depth: int,
    mode: str = "all",
    seed: int = 0,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> list[ComputationTrace]:
    """Explore computations from the initial configuration.

    ``mode="all"`` follows every maximal assignment at every step up to
    ``depth`` (halting configurations terminate branches early);
    ``mode="seeded"`` follows the single branch picked by
    :func:`seeded_choice_index`.  Traces are sorted canonically.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if mode not in ("all", "seeded"):
        raise ValueError(f"unknown mode {mode!r}")

    done: list[ComputationTrace] = []
    active: list[Tuple[PConfiguration, Tuple[TraceStep, ...]]] = [(ps.initial, ())]
    for _ in range(depth):
        if not active:
            break
        next_active: list[Tuple[PConfiguration, Tuple[TraceStep, ...]]] = []
        for cfg, steps in active:
            choices = step_choices(ps, cfg, assignment_cap)
            if not choices:
                done.append(ComputationTrace(ps.initial, steps, halted=True))
                continue
            if mode == "seeded":
                choices = [choices[seeded_choice_index(seed, cfg, len(choices))]]
            for assignment, successor in choices:
                next_active.append((successor, steps + (TraceStep(assignment, successor),)))
        if len(next_active) > branch_cap:
            raise ExplosionBoundExceeded(
                f"more than {branch_cap} simultaneous branches",
                [ComputationTrace(ps.initial, s, halted=False) for _, s in next_active[:branch_cap]],
            )
        active = next_active
    for cfg, steps in active:
        done.append(ComputationTrace(ps.initial, steps, halted=is_halting(ps, cfg)))
    return sorted(done, key=ComputationTrace.key)


def replay_trace(ps: PSystem, trace: ComputationTrace) -> None:
    """Check a trace against the step semantics; raises on mismatch."""
    cfg = trace.initial
    for idx, step in enumerate(trace.steps):
        try:
            result = apply_assignment(ps, cfg, step.fired)
        except (ValueError, KeyError) as exc:
            raise TraceReplayMismatch(f"step {idx} does not apply: {exc}") from exc
        if config_canonical(result) != config_canonical(step.result):
            raise TraceReplayMismatch(
                f"step {idx}: expected {render_config(step.result)}, "
                f"replay gives {render_config(result)}"
            )
        cfg = result


@dataclass(frozen=True)
class RuleCoverage:
    rule: str
    compartment: int
    covered: bool
    configuration: Optional[PConfiguration]
    witness: Optional[ComputationTrace]


@dataclass(frozen=True)
class CoverageReport:
    entries: Tuple[RuleCoverage, ...]

    def all_covered(self) -> bool:
        return all(e.covered for e in self.entries)

    def covered_rules(self) -> Tuple[str, ...]:
        return tuple(e.rule for e in self.entries if e.covered)

    def uncovered_rules(self) -> Tuple[str, ...]:
        return tuple(e.rule for e in self.entries if not e.covered)

    def entry(self, rule: str) -> RuleCoverage:
        for e in self.entries:
            if e.rule == rule:
                return e
        raise KeyError(rule)


def rule_coverage(ps: PSystem, traces: Iterable[ComputationTrace]) -> CoverageReport:
    """Mark each rule covered when some trace fires it.

    Traces are replay-verified first.  The covering configuration is the
    witness trace's final configuration; the shortest witness is preferred.
    """
    trace_list = sorted(traces, key=ComputationTrace.key)
    for trace in trace_list:
        replay_trace(ps, trace)
    entries = []
    for rule in sorted(ps.rules, key=lambda r: (r.compartment, r.name)):
        witness = None
        for trace in trace_list:  # sorted: shortest first
            if rule.name in trace.fired_rules():
                witness = trace
                break
        entries.append(
            RuleCoverage(
                rule.name,
                rule.compartment,
                witness is not None,
                witness.final if witness else None,
                witness,
            )
        )
    return CoverageReport(tuple(entries))


def generate_coverage_test_set(
    ps: PSystem,
    depth: int,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> Tuple[list[PConfiguration], CoverageReport]:
    """Greedy minimal set of final configurations covering every rule
    reachable within ``depth`` steps.

    Rules with no covering computation inside the depth bound are reported
    uncovered.  Greedy set cover keeps the result reproducible; optimal
    cover would be NP-hard.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    traces = psystem_run(ps, depth, "all", assignment_cap=assignment_cap, branch_cap=branch_cap)

    coverable: Dict[str, set] = {}
    by_final: Dict[Tuple[str, ...], list[ComputationTrace]] = {}
    for trace in traces:
        key = config_canonical(trace.final)
        by_final.setdefault(key, []).append(trace)
        for rule in trace.fired_rules():
            coverable.setdefault(rule, set()).add(key)

    members: list[Tuple[str, ...]] = []
    uncovered = set(coverable)
    while uncovered:
        # Most new rules covered first; ties break on the smaller canonical form.
        best = min(
            sorted(by_final),
            key=lambda key: (-len({r for r in uncovered if key in coverable[r]}), key),
        )
        gained = {r for r in uncovered if best in coverable[r]}
        if not gained:
            break
        members.append(best)
        uncovered -= gained
    members.sort()

    member_set = set(members)
    entries = []
    for rule in sorted(ps.rules, key=lambda r: (r.compartment, r.name)):
        witness = None
        for trace in traces:  # sorted: shortest witness preferred
            if (
                rule.name in trace.fired_rules()
                and config_canonical(trace.final) in member_set
            ):
                witness = trace
                break
        entries.append(
            RuleCoverage(
                rule.name,
                rule.compartment,
                witness is not None,
                witness.final if witness else None,
                witness,
            )
        )
    report = CoverageReport(tuple(entries))
    configs = [tuple(Multiset.from_string(c) for c in key) for key in members]
    return configs, report
