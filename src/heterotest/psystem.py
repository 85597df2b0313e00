"""Cell-like P systems: membrane tree, multiset rewriting under maximal
parallelism, bounded branch exploration, rule coverage and coverage test
sets.

Strict maximal parallelism is enforced uniformly: a step applies a multiset
of rule instances per compartment such that no further instance of any rule
is applicable to the leftover symbols.  Configurations compare by the
canonical multiset string of each compartment.

Every all-branch consumer (``psystem_run(mode="all")``, rule coverage, the
coverage test set and mutant reachability) works on one layered
configuration DAG built by :func:`explore`, which enumerates the steps of
each distinct configuration once instead of once per computation reaching
it.  Rule coverage and the coverage test set pick each rule's witness on
the DAG (:func:`_witnesses`) and build no computation but the witnesses;
only ``psystem_run``, which serves ``simulate``, lists every computation.

Two module constants bound every exploration, and each is read where it is
checked: ``ASSIGNMENT_CAP`` rule assignments at one configuration, in one
compartment or combined, and ``BRANCH_CAP`` computations reaching the layer
being built.  Past either, :class:`ExplosionBoundExceeded` is raised.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .errors import ExplosionBoundExceeded, Violation
from .multiset import Multiset
from .values import RESERVED_ATOMS

# A configuration is one multiset per compartment, index i-1 <-> compartment i.
PConfiguration = Tuple[Multiset, ...]

# One step's rule instances: per compartment, sorted (rule name, count) pairs.
Assignment = Tuple[Tuple[Tuple[str, int], ...], ...]

ASSIGNMENT_CAP = 10_000
BRANCH_CAP = 10_000

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
    kind = "psystem"  # the model-file kind; a class attribute, not a field

    name: str
    alphabet: FrozenSet[str]
    parent: Mapping[int, Optional[int]]  # compartment id -> parent id (root: None)
    initial: PConfiguration
    rules: Tuple[PRule, ...]
    # Lookups derived from ``rules``: the first rule of each name, and each
    # compartment's rules sorted by name.
    _by_name: Mapping[str, PRule] = field(init=False, repr=False, compare=False)
    _by_compartment: Mapping[int, Tuple[PRule, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        by_name: Dict[str, PRule] = {}
        by_compartment: Dict[int, list] = {}
        for r in self.rules:
            by_name.setdefault(r.name, r)
            by_compartment.setdefault(r.compartment, []).append(r)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_compartment", {
            comp: tuple(sorted(rules, key=lambda r: r.name))
            for comp, rules in by_compartment.items()
        })

    @property
    def n_compartments(self) -> int:
        return len(self.parent)

    def compartments(self) -> Tuple[int, ...]:
        return tuple(sorted(self.parent))

    def children(self, comp: int) -> Tuple[int, ...]:
        return tuple(sorted(c for c, p in self.parent.items() if p == comp))

    def rules_in(self, comp: int) -> Tuple[PRule, ...]:
        return self._by_compartment.get(comp, ())

    def rule(self, name: str) -> PRule:
        return self._by_name[name]

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


def config_defect(ps: PSystem, value) -> Optional[str]:
    """What keeps ``value`` from being a configuration of ``ps``, one
    multiset per compartment over its alphabet, as the end of a message
    about it; None when it is one."""
    if not isinstance(value, tuple) or not all(isinstance(part, Multiset) for part in value):
        return " is not a configuration"
    if len(value) != ps.n_compartments:
        return f" has {len(value)} compartment(s), {ps.name} has {ps.n_compartments}"
    for comp, part in enumerate(value, start=1):
        for sym, _ in part.items():
            if sym not in ps.alphabet:
                return f'["{comp}"]: symbol {sym!r} is not in the alphabet of {ps.name}'
    return None


def is_config_for(ps: PSystem, value) -> bool:
    return config_defect(ps, value) is None


@dataclass(frozen=True)
class TraceStep:
    fired: Assignment
    result: PConfiguration


def _fired_names(fired: Assignment) -> Iterator[str]:
    return (name for comp_fired in fired for name, _ in comp_fired)


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
        return frozenset(name for step in self.steps for name in _fired_names(step.fired))

    def key(self):
        return (
            len(self.steps),
            tuple(config_canonical(c) for c in self.configurations()),
            tuple(s.fired for s in self.steps),
        )


def render_fired(fired: Assignment) -> str:
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
    bits = [render_config(trace.initial)]
    for step in trace.steps:
        bits.append(f"⟹{render_fired(step.fired)}")
        bits.append(render_config(step.result))
    text = " ".join(bits)
    if trace.halted:
        text += "  [halted]"
    return text


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
    rules: Sequence[PRule], available: Multiset
) -> list[Tuple[Tuple[str, int], ...]]:
    """All maximal rule-instance multisets for one compartment."""
    results: list[Tuple[Tuple[str, int], ...]] = []
    cap = ASSIGNMENT_CAP
    # a rule whose lhs symbols no later rule consumes still applies to the
    # leftover of any smaller count, so only its largest can be maximal
    only_largest, later = [False] * len(rules), set()
    for idx in range(len(rules) - 1, -1, -1):
        symbols = rules[idx].lhs.symbols()
        only_largest[idx] = later.isdisjoint(symbols)
        later.update(symbols)

    def applicable(leftover: Multiset) -> bool:
        return any(r.lhs <= leftover for r in rules)

    def dfs(idx: int, leftover: Multiset, chosen: list[Tuple[str, int]]):
        if len(results) > cap:
            raise ExplosionBoundExceeded(f"more than {cap} rule assignments in one compartment")
        if idx == len(rules):
            if not applicable(leftover):
                results.append(tuple((n, c) for n, c in chosen if c > 0))
            return
        rule = rules[idx]
        if only_largest[idx]:
            count = min(leftover.count(sym) // n for sym, n in rule.lhs.items())
            chosen.append((rule.name, count))
            dfs(idx + 1, leftover - rule.lhs.scaled(count) if count else leftover, chosen)
            chosen.pop()
            return
        # each count's leftover is the previous count's minus one lhs
        count, remaining = 0, leftover
        while True:
            chosen.append((rule.name, count))
            dfs(idx + 1, remaining, chosen)
            chosen.pop()
            if not rule.lhs <= remaining:
                break
            count, remaining = count + 1, remaining - rule.lhs

    dfs(0, available, [])
    return sorted(set(results))


def maximal_rule_multisets(ps: PSystem, cfg: PConfiguration) -> list[Assignment]:
    """Every maximally parallel assignment at ``cfg``.

    Applicability depends only on each compartment's own multiset, so
    per-compartment maximal choices combine as a Cartesian product.  The
    output ordering is canonical.  Raises
    :class:`ExplosionBoundExceeded` past ``ASSIGNMENT_CAP`` enumerated
    assignments, before building a product that would pass it.
    """
    per_comp: list[list] = []
    for comp in ps.compartments():
        per_comp.append(_compartment_maximal_multisets(ps.rules_in(comp), cfg[comp - 1]))
    cap = ASSIGNMENT_CAP
    combos: list[Assignment] = [()]
    for choices in per_comp:
        if len(combos) * len(choices) > cap:
            raise ExplosionBoundExceeded(f"more than {cap} combined rule assignments")
        combos = [prefix + (choice,) for prefix in combos for choice in choices]
    return sorted(combos)


def apply_assignment(ps: PSystem, cfg: PConfiguration, assignment: Assignment) -> PConfiguration:
    """Fire one assignment: per compartment,
    result = source - consumed lhs + deposited rhs (here + incoming).

    Each compartment's change is summed in one symbol -> count dict; a
    compartment the assignment leaves untouched keeps its multiset."""
    consumed: list[Dict[str, int]] = [{} for _ in cfg]
    deposited: list[Dict[str, int]] = [{} for _ in cfg]
    for comp_idx, comp_fired in enumerate(assignment):
        comp = comp_idx + 1
        taken = consumed[comp_idx]
        for name, count in comp_fired:
            rule = ps.rule(name)
            if rule.compartment != comp:
                raise ValueError(f"rule {name} fired in wrong compartment {comp}")
            if count < 0:
                raise ValueError(f"negative count for rule {name}")
            for sym, n in rule.lhs.items():
                taken[sym] = taken.get(sym, 0) + n * count
            for sym, target in rule.rhs:
                given = deposited[comp_idx if target == HERE else target - 1]
                given[sym] = given.get(sym, 0) + count
    result = []
    for idx, source in enumerate(cfg):
        taken, given = consumed[idx], deposited[idx]
        if not taken and not given:
            result.append(source)
            continue
        counts = dict(source.items())
        for sym, n in taken.items():
            left = counts.get(sym, 0) - n
            if left < 0:
                raise ValueError(
                    f"assignment consumes more than compartment {idx + 1} holds"
                )
            counts[sym] = left
        for sym, n in given.items():
            counts[sym] = counts.get(sym, 0) + n
        result.append(Multiset(counts))
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


def step_choices(ps: PSystem, cfg: PConfiguration) -> list[Tuple[Assignment, PConfiguration]]:
    """(assignment, successor) pairs; empty exactly at halting configurations."""
    if is_halting(ps, cfg):
        return []
    return [(a, apply_assignment(ps, cfg, a)) for a in maximal_rule_multisets(ps, cfg)]


def seeded_chooser(seed: int) -> Callable[[PConfiguration, int], int]:
    """A stable pseudo-random branch pick, a pure function of (``seed``,
    configuration): ``choose(cfg, n_choices)`` is an index below
    ``n_choices``.  Made once per run, so that a seeded run imports the
    hash module once, not per step."""
    import hashlib

    sha256, prefix = hashlib.sha256, f"{seed}|"

    def choose(cfg: PConfiguration, n_choices: int) -> int:
        digest = sha256((prefix + "|".join(config_canonical(cfg))).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % n_choices

    return choose


def seeded_trace(
    ps: PSystem,
    start: PConfiguration,
    choose: Callable[[PConfiguration, int], int],
    depth: int,
) -> ComputationTrace:
    """The single computation from ``start`` that takes, at each step, the
    choice ``choose`` picks among the :func:`step_choices`, until the
    configuration halts or ``depth`` steps are taken.

    The configuration reached at ``depth`` is not expanded: only whether it
    halts is checked.
    """
    cfg, steps = start, []
    for _ in range(depth):
        choices = step_choices(ps, cfg)
        if not choices:
            return ComputationTrace(start, tuple(steps), halted=True)
        assignment, cfg = choices[choose(cfg, len(choices))]
        steps.append(TraceStep(assignment, cfg))
    return ComputationTrace(start, tuple(steps), halted=is_halting(ps, cfg))


@dataclass(frozen=True)
class Exploration:
    """Every computation of at most ``depth`` steps, as a layered DAG.

    Node ``(i, cfg)`` is configuration ``cfg`` reached in exactly ``i``
    steps.  ``layers[i]`` maps each such configuration, in order of first
    appearance on the list of computations, to the number of computations
    that reach it; a layer follows only a layer with a non-halting
    configuration.  ``steps[cfg]`` holds the :func:`step_choices` of each
    configuration expanded, once per distinct configuration and as
    :class:`TraceStep` objects shared by every computation through them.
    A node ends a computation when it halts or lies at ``depth``.
    """

    ps: PSystem
    depth: int
    layers: Tuple[Dict[PConfiguration, int], ...]
    steps: Dict[PConfiguration, Tuple[TraceStep, ...]]

    def halted(self, cfg: PConfiguration) -> bool:
        steps = self.steps.get(cfg)
        return is_halting(self.ps, cfg) if steps is None else not steps

    def trace_ends(self) -> Iterator[Tuple[int, PConfiguration]]:
        """The nodes that end a computation, layer by layer."""
        for i, layer in enumerate(self.layers):
            for cfg in layer:
                if i == self.depth or not self.steps[cfg]:
                    yield i, cfg

    def traces(self) -> list[ComputationTrace]:
        """Every computation, sorted by :meth:`ComputationTrace.key`."""
        done: list[ComputationTrace] = []
        halted: Dict[PConfiguration, bool] = {}
        stack: list[Tuple[PConfiguration, Tuple[TraceStep, ...]]] = [(self.ps.initial, ())]
        while stack:
            cfg, path = stack.pop()
            if len(path) == self.depth or not self.steps[cfg]:
                if cfg not in halted:
                    halted[cfg] = self.halted(cfg)
                done.append(ComputationTrace(self.ps.initial, path, halted[cfg]))
            else:
                stack.extend((step.result, path + (step,)) for step in self.steps[cfg])
        return sorted(done, key=ComputationTrace.key)

    def fired_by_layer(self) -> list[Dict[PConfiguration, FrozenSet[str]]]:
        """Per layer: each node's rules fired on some computation reaching it."""
        fired = [{self.ps.initial: frozenset()}]
        for _ in self.layers[1:]:
            reached: Dict[PConfiguration, FrozenSet[str]] = {}
            for cfg, names in fired[-1].items():
                for step in self.steps[cfg]:
                    before = reached.get(step.result, frozenset())
                    reached[step.result] = before | names.union(_fired_names(step.fired))
            fired.append(reached)
        return fired

    def first_trace(
        self, length: int, ends: Iterable[PConfiguration], rule: str
    ) -> ComputationTrace:
        """The first computation in :meth:`ComputationTrace.key` order among
        those of ``length`` steps that fire ``rule`` and end in ``ends``
        (configurations of layer ``length`` that end a computation); one
        must exist.

        The configuration sequence is chosen first, then the fired
        sequence along it, each greedily from the initial configuration
        over the nodes that can still complete such a computation.
        ``done`` holds the nodes that can complete it with ``rule``
        already fired, ``pending`` those that can complete it by firing
        ``rule`` later.
        """

        def fires(step: TraceStep) -> bool:
            return rule in _fired_names(step.fired)

        def completions(nodes, final):
            done, pending = [set(final)], [set()]
            for i in range(length - 1, -1, -1):
                ahead_done, ahead_pending = done[0], pending[0]
                done.insert(0, {c for c in nodes[i] if any(
                    s.result in ahead_done for s in self.steps[c])})
                pending.insert(0, {c for c in nodes[i] if any(
                    s.result in ahead_pending or (s.result in ahead_done and fires(s))
                    for s in self.steps[c])})
            return done, pending

        # Distinct configurations of one layer may share a canonical form,
        # so the chosen prefix can lead to several nodes, each with the
        # best "already fired" flag any path to it achieves.
        done, pending = completions(self.layers, ends)
        state = {self.ps.initial: False}
        chosen = [state]
        for i in range(length):
            reached: Dict[PConfiguration, bool] = {}
            for cfg, flag in state.items():
                for step in self.steps[cfg]:
                    fired = flag or fires(step)
                    if step.result in (done if fired else pending)[i + 1]:
                        reached[step.result] = reached.get(step.result, False) or fired
            least = min(config_canonical(c) for c in reached)
            state = {c: f for c, f in reached.items() if config_canonical(c) == least}
            chosen.append(state)

        done, pending = completions(chosen, chosen[-1])
        cfg, fired, path = self.ps.initial, False, []
        for i in range(length):
            # steps are in assignment order, so the first that can still
            # complete the computation is the least
            step = next(
                s for s in self.steps[cfg]
                if s.result in (done if fired or fires(s) else pending)[i + 1]
            )
            cfg, fired = step.result, fired or fires(step)
            path.append(step)
        return ComputationTrace(self.ps.initial, tuple(path), self.halted(cfg))


def explore(ps: PSystem, depth: int, capped: bool = True) -> Exploration:
    """Build the layered configuration DAG of every computation of at most
    ``depth`` steps.

    Each distinct configuration is expanded with :func:`step_choices` once.
    Raises :class:`ExplosionBoundExceeded` past ``ASSIGNMENT_CAP``
    assignments at one configuration, or, when ``capped``, as soon as the
    computations reaching the layer being built number more than
    ``BRANCH_CAP``.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    branch_cap = BRANCH_CAP if capped else None
    interned: Dict[PConfiguration, PConfiguration] = {ps.initial: ps.initial}
    steps: Dict[PConfiguration, Tuple[TraceStep, ...]] = {}
    layers = [{ps.initial: 1}]
    for _ in range(depth):
        layer: Dict[PConfiguration, int] = {}
        branches = 0
        for cfg, paths in layers[-1].items():
            out = steps.get(cfg)
            if out is None:
                out = steps[cfg] = tuple(
                    TraceStep(a, interned.setdefault(successor, successor))
                    for a, successor in step_choices(ps, cfg)
                )
            branches += paths * len(out)
            if branch_cap is not None and branches > branch_cap:
                raise ExplosionBoundExceeded(f"more than {branch_cap} simultaneous branches")
            for step in out:
                layer[step.result] = layer.get(step.result, 0) + paths
        if not layer:
            break
        layers.append(layer)
    return Exploration(ps, depth, tuple(layers), steps)


def psystem_run(
    ps: PSystem, depth: int, mode: str = "all", seed: int = 0
) -> list[ComputationTrace]:
    """Explore computations from the initial configuration.

    ``mode="all"`` follows every maximal assignment at every step up to
    ``depth`` (halting configurations terminate branches early), through
    :func:`explore`; ``mode="seeded"`` is the one :func:`seeded_trace` of
    ``seed``.  Traces are sorted canonically.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if mode not in ("all", "seeded"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "all":
        return explore(ps, depth).traces()

    return [seeded_trace(ps, ps.initial, seeded_chooser(seed), depth)]


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


def _coverage_report(ps: PSystem, witnesses: Mapping[str, ComputationTrace]) -> CoverageReport:
    """One entry per rule, in (compartment, name) order, covered by its
    witness when it has one."""
    entries = []
    for rule in sorted(ps.rules, key=lambda r: (r.compartment, r.name)):
        witness = witnesses.get(rule.name)
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


def _witnesses(
    dag: Exploration,
    fired: Sequence[Mapping[PConfiguration, FrozenSet[str]]],
    ends: Sequence[Tuple[int, PConfiguration]],
) -> Dict[str, ComputationTrace]:
    """Each rule's witness: the first computation in
    :meth:`ComputationTrace.key` order that fires it and ends in one of
    ``ends`` (nodes of :meth:`Exploration.trace_ends`).  ``fired`` is
    :meth:`Exploration.fired_by_layer`.  The shortest computation comes
    first, so the witness lies on the least layer where the rule was
    fired on the way to an end."""
    witnesses: Dict[str, ComputationTrace] = {}
    for rule in dag.ps.rules:
        lengths = [i for i, cfg in ends if rule.name in fired[i][cfg]]
        if lengths:
            length = min(lengths)
            layer_ends = {cfg for i, cfg in ends if i == length}
            witnesses[rule.name] = dag.first_trace(length, layer_ends, rule.name)
    return witnesses


def rule_coverage(ps: PSystem, depth: int) -> CoverageReport:
    """Mark each rule covered when some computation of at most ``depth``
    steps fires it.

    The witness is the first such computation in
    :meth:`ComputationTrace.key` order, so the shortest, and the covering
    configuration is its final one.  Works on the configuration DAG of
    :func:`explore` and materialises only the witnesses.
    """
    dag = explore(ps, depth)
    return _coverage_report(ps, _witnesses(dag, dag.fired_by_layer(), list(dag.trace_ends())))


def generate_coverage_test_set(
    ps: PSystem, depth: int
) -> Tuple[list[PConfiguration], CoverageReport]:
    """Greedy minimal set of final configurations covering every rule
    reachable within ``depth`` steps.

    Rules with no covering computation inside the depth bound are reported
    uncovered.  Greedy set cover keeps the result reproducible; optimal
    cover would be NP-hard.  Each rule's witness is the first computation
    in :meth:`ComputationTrace.key` order that fires it and ends in a
    member.  Works on the configuration DAG of :func:`explore` and
    materialises only the witnesses.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dag = explore(ps, depth)
    fired = dag.fired_by_layer()

    # final configuration's canonical form -> rules fired on a computation ending there
    by_final: Dict[Tuple[str, ...], set] = {}
    for i, cfg in dag.trace_ends():
        by_final.setdefault(config_canonical(cfg), set()).update(fired[i][cfg])

    members: list[Tuple[str, ...]] = []
    uncovered = set().union(*by_final.values())
    while uncovered:
        # Most new rules covered first; ties break on the smaller canonical form.
        best = min(by_final, key=lambda key: (-len(uncovered & by_final[key]), key))
        members.append(best)
        uncovered -= by_final[best]
    members.sort()

    member_set = set(members)
    ends = [(i, cfg) for i, cfg in dag.trace_ends() if config_canonical(cfg) in member_set]
    configs = [tuple(Multiset.from_string(c) for c in key) for key in members]
    return configs, _coverage_report(ps, _witnesses(dag, fired, ends))
