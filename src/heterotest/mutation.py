"""Fault seeding and kill scoring.

P-system operators: rule-delete, rhs-target-swap, symbol-substitute,
lhs-multiplicity-change.  Machine operators: transition-retarget,
transition-delete, case-output-swap, memory-update-perturb.  Candidate
mutants enumerate deterministically; invalid ones (failing validation) and
duplicates are filtered out but counted, and the seeded sample is byte
reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

from .errors import BranchBoundExceeded, EmptyMutantSet, NoValidMutants, TermError
from .model_io import (
    MUTANT,
    MUTANTS,
    check_fields,
    psystem_reader,
    psystem_to_dict,
    sxm_from_dict,
    sxm_to_dict,
)
from .multiset import Multiset
from .records import record, replace

# The machine and the P-system code each import their own model module
# when they run, so mutating or scoring one kind never executes the other.
if TYPE_CHECKING:
    from .psystem import PConfiguration, PRule, PSystem, StepEngine
    from .sxm import Case, CaseFunction, Sxm, TestSuite

SXM_OPERATORS = (
    "transition-retarget",
    "transition-delete",
    "case-output-swap",
    "memory-update-perturb",
)
PSYSTEM_OPERATORS = (
    "rule-delete",
    "rhs-target-swap",
    "symbol-substitute",
    "lhs-multiplicity-change",
)

Model = Union["Sxm", "PSystem"]


@record
class Mutant:
    base: str
    operator: str
    location: str
    model: Model

    @property
    def mutant_id(self) -> str:
        return f"{self.operator}:{self.location}"


@record
class MutantBatch:
    mutants: Tuple[Mutant, ...]
    invalid: int
    duplicates: int

    def __iter__(self):
        return iter(self.mutants)


def _model_key(model: Model) -> tuple:
    """A hashable key built from the frozen model parts, equal exactly when
    the models' files would be equal.  Multisets enter by their canonical
    text, which is what a file holds: ``{ab}`` and ``{a,b}`` both write
    ``"ab"``.  Machines must hold case tables only."""
    if model.kind == "sxm":
        domain = model.memory_domain
        if domain.kind == "set":
            domain_key = ("set", tuple(map(_value_key, domain.values)))
        elif domain.kind == "range":
            domain_key = ("range", domain.low, domain.high)
        else:
            domain_key = ("open", tuple(map(_value_key, domain.sample)))
        return (
            "sxm", model.name, model.inputs, model.outputs, model.states,
            model.initial_states, model.terminal_states, domain_key,
            _value_key(model.initial_memory),
            frozenset((name, fn.cases) for name, fn in model.functions.items()),
            frozenset(model.next_state.items()),
        )

    def tree(comp):
        return comp, tuple(map(tree, model.children(comp)))

    roots = [c for c, p in model.parent.items() if p is None]
    return (
        "psystem", model.name, model.alphabet, tree(roots[0]) if roots else None,
        tuple(m.canonical() for m in model.initial),
        tuple(
            (comp, tuple((r.name, r.lhs.canonical(), r.rhs) for r in model.rules_in(comp)))
            for comp in model.compartments()
        ),
    )


_MULTISET = object()  # tags a multiset's key apart from any sequence's


def _value_key(v):
    """A memory value's part of :func:`_model_key`."""
    if isinstance(v, tuple):
        return tuple(map(_value_key, v))
    if isinstance(v, Multiset):
        return (_MULTISET, v.canonical())
    return v


# --- machine operators --------------------------------------------------------


def _sxm_candidates(model: Sxm, operators: Sequence[str]):
    from .sxm import Case, CaseFunction

    def rebuilt(fn: CaseFunction, case_idx: int, new_case: Case) -> CaseFunction:
        cases = list(fn.cases)
        cases[case_idx] = new_case
        return CaseFunction(fn.name, cases)

    if "transition-retarget" in operators:
        for (q, fn), targets in sorted(model.next_state.items()):
            for pos, old in enumerate(targets):
                for new in sorted(model.states):
                    if new == old:
                        continue
                    next_state = dict(model.next_state)
                    retargeted = list(targets)
                    retargeted[pos] = new
                    next_state[(q, fn)] = tuple(retargeted)
                    yield (
                        "transition-retarget",
                        f"next_state[{q},{fn}].to[{pos}]={new}",
                        replace(model, next_state=next_state),
                    )
    if "transition-delete" in operators:
        for (q, fn) in sorted(model.next_state):
            next_state = dict(model.next_state)
            del next_state[(q, fn)]
            yield (
                "transition-delete",
                f"next_state[{q},{fn}]",
                replace(model, next_state=next_state),
            )
    if "case-output-swap" in operators:
        for name in sorted(model.functions):
            fn = model.functions[name]
            if not isinstance(fn, CaseFunction):
                continue
            for idx, case in enumerate(fn.cases):
                for output in sorted(model.outputs):
                    if output == case.output:
                        continue
                    new_case = Case.build(case.mem_pattern, case.input, output, case.mem_next)
                    functions = dict(model.functions)
                    functions[name] = rebuilt(fn, idx, new_case)
                    yield (
                        "case-output-swap",
                        f"functions[{name}].cases[{idx}].output={output}",
                        replace(model, functions=functions),
                    )
    if "memory-update-perturb" in operators:
        for name in sorted(model.functions):
            fn = model.functions[name]
            if not isinstance(fn, CaseFunction):
                continue
            for idx, case in enumerate(fn.cases):
                for delta, tag in ((1, "+1"), (-1, "-1")):
                    source = f"({case.mem_next}) + {delta}" if delta > 0 else f"({case.mem_next}) - 1"
                    try:
                        new_case = Case.build(case.mem_pattern, case.input, case.output, source)
                    except TermError:
                        continue
                    functions = dict(model.functions)
                    functions[name] = rebuilt(fn, idx, new_case)
                    yield (
                        "memory-update-perturb",
                        f"functions[{name}].cases[{idx}].mem_next{tag}",
                        replace(model, functions=functions),
                    )


# --- P-system operators ---------------------------------------------------------


def _replace_rule(ps: PSystem, old: PRule, new: Optional[PRule]) -> PSystem:
    rules = tuple(r for r in ps.rules if r.name != old.name)
    if new is not None:
        rules = rules + (new,)
    rules = tuple(sorted(rules, key=lambda r: (r.compartment, r.name)))
    return replace(ps, rules=rules)


def _psystem_candidates(ps: PSystem, operators: Sequence[str]):
    from .psystem import HERE

    rules = sorted(ps.rules, key=lambda r: (r.compartment, r.name))
    if "rule-delete" in operators:
        for rule in rules:
            yield ("rule-delete", rule.name, _replace_rule(ps, rule, None))
    if "rhs-target-swap" in operators:
        for rule in rules:
            legal = ps.legal_targets(rule.compartment)
            for pos, (sym, target) in enumerate(rule.rhs):
                swaps = legal if target == HERE else (HERE,)
                for new_target in swaps:
                    rhs = list(rule.rhs)
                    rhs[pos] = (sym, new_target)
                    yield (
                        "rhs-target-swap",
                        f"{rule.name}.rhs[{pos}]->{new_target}",
                        _replace_rule(ps, rule, replace(rule, rhs=tuple(rhs))),
                    )
    if "symbol-substitute" in operators:
        alphabet = sorted(ps.alphabet)
        for rule in rules:
            for pos, (sym, target) in enumerate(rule.rhs):
                for new_sym in alphabet:
                    if new_sym == sym:
                        continue
                    rhs = list(rule.rhs)
                    rhs[pos] = (new_sym, target)
                    yield (
                        "symbol-substitute",
                        f"{rule.name}.rhs[{pos}]={new_sym}",
                        _replace_rule(ps, rule, replace(rule, rhs=tuple(rhs))),
                    )
            for lhs_sym, _ in rule.lhs.items():
                for new_sym in alphabet:
                    if new_sym == lhs_sym:
                        continue
                    counts = dict(rule.lhs.items())
                    moved = counts.pop(lhs_sym)
                    counts[new_sym] = counts.get(new_sym, 0) + moved
                    yield (
                        "symbol-substitute",
                        f"{rule.name}.lhs:{lhs_sym}->{new_sym}",
                        _replace_rule(ps, rule, replace(rule, lhs=Multiset(counts))),
                    )
    if "lhs-multiplicity-change" in operators:
        for rule in rules:
            for sym, count in rule.lhs.items():
                for delta in (1, -1):
                    new_count = count + delta
                    if new_count < 0:
                        continue
                    counts = dict(rule.lhs.items())
                    counts[sym] = new_count
                    if new_count == 0:
                        del counts[sym]
                    yield (
                        "lhs-multiplicity-change",
                        f"{rule.name}.lhs[{sym}]={new_count}",
                        _replace_rule(ps, rule, replace(rule, lhs=Multiset(counts))),
                    )


def enumerate_mutants(model: Model, operators: Optional[Sequence[str]] = None) -> MutantBatch:
    """Every valid, distinct single-operator mutant in deterministic order."""
    if model.kind == "sxm":
        from .sxm import validate_sxm as violations

        operators = tuple(operators) if operators else SXM_OPERATORS
        candidates = _sxm_candidates(model, operators)
    else:
        from .psystem import validate_psystem as violations

        operators = tuple(operators) if operators else PSYSTEM_OPERATORS
        candidates = _psystem_candidates(model, operators)

    base_key = _model_key(model)
    seen = {base_key}
    mutants: list[Mutant] = []
    invalid = 0
    duplicates = 0
    for operator, location, mutated in candidates:
        if violations(mutated):
            invalid += 1
            continue
        key = _model_key(mutated)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        mutants.append(Mutant(model.name, operator, location, mutated))
    mutants.sort(key=lambda m: m.mutant_id)
    return MutantBatch(tuple(mutants), invalid, duplicates)


def mutate_model(
    model: Model,
    operators: Optional[Sequence[str]] = None,
    seed: int = 0,
    count: int = 10,
) -> MutantBatch:
    """A seeded, reproducible sample of ``count`` mutants.

    Raises :class:`NoValidMutants` when every candidate was filtered out.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    batch = enumerate_mutants(model, operators)
    if not batch.mutants:
        raise NoValidMutants(f"no valid mutants for {model.name!r}")
    if count >= len(batch.mutants):
        return batch
    import random

    rng = random.Random(seed)
    sample = rng.sample(list(batch.mutants), count)
    sample.sort(key=lambda m: m.mutant_id)
    return MutantBatch(tuple(sample), batch.invalid, batch.duplicates)


# --- scoring --------------------------------------------------------------------


@record
class MutantVerdict:
    mutant_id: str
    operator: str
    verdict: str  # "killed" | "survived-bounded" | "survived-identical"
    witness: Optional[str] = None


@record
class ScoreReport:
    total: int
    killed: int
    survived: int
    invalid: int
    identical: int
    non_equivalent_score: Optional[float]
    per_mutant: Tuple[MutantVerdict, ...]

    @property
    def score(self) -> float:
        return self.killed / self.total if self.total else 0.0


def _reachable_within(ps: PSystem, depth: int, engine: Optional[StepEngine] = None) -> set:
    """Canonical forms of every configuration on any branch within depth,
    without a branch cap: the nodes of :func:`psystem.explore`'s DAG,
    found by a breadth-first walk on ``engine`` (a fresh one when None)
    that expands each configuration once, in the order ``explore`` does."""
    from .psystem import StepEngine, config_canonical

    step = (engine or StepEngine()).stepper(ps)
    seen, frontier = {ps.initial}, [ps.initial]
    for _ in range(depth):
        fresh = []
        for cfg in frontier:
            for _, successor in step(cfg):
                if successor not in seen:
                    seen.add(successor)
                    fresh.append(successor)
        frontier = fresh
    return {config_canonical(cfg) for cfg in seen}


def _score(
    spec: Model,
    batch: MutantBatch,
    kill_witness: Callable[[Model], Optional[str]],
) -> ScoreReport:
    """Verdicts in mutant-id order: a mutant structurally identical to the
    spec survives as identical; any other is killed when ``kill_witness``
    names a witness for it, and survives within the bound otherwise."""
    if not batch.mutants:
        raise EmptyMutantSet("no mutants to score")
    spec_key = _model_key(spec)
    verdicts = []
    killed = identical = 0
    for mutant in sorted(batch.mutants, key=lambda m: m.mutant_id):
        if _model_key(mutant.model) == spec_key:
            identical += 1
            verdicts.append(
                MutantVerdict(mutant.mutant_id, mutant.operator, "survived-identical")
            )
            continue
        witness = kill_witness(mutant.model)
        if witness is not None:
            killed += 1
            verdicts.append(MutantVerdict(mutant.mutant_id, mutant.operator, "killed", witness))
        else:
            verdicts.append(MutantVerdict(mutant.mutant_id, mutant.operator, "survived-bounded"))
    total = len(batch.mutants)
    denominator = total - identical
    return ScoreReport(
        total=total,
        killed=killed,
        survived=total - killed - identical,
        invalid=batch.invalid,
        identical=identical,
        non_equivalent_score=(killed / denominator) if denominator else None,
        per_mutant=tuple(verdicts),
    )


# The machine fields besides the arcs and the case tables.  Some of them
# (the name, the alphabets) do not change a run, but a mutant that changes
# any of them is simply replayed on every case.
_RUN_FIELDS = ("name", "inputs", "outputs", "states", "initial_states", "terminal_states",
               "memory_domain", "initial_memory")


def _changed_elements(spec: Sxm, model: Sxm) -> Optional[set]:
    """What ``model`` changes of ``spec``, named as :func:`sxm.replay_reached`
    names what a run fires: ``("arc", state, function)`` for an arc whose
    targets changed or that was deleted, ``("case", function, index)`` for
    a case whose output or update changed.

    None when the change is not confined to those: an added arc, an added,
    removed or non-case-table function, a changed case count, pattern or
    input, or any field in ``_RUN_FIELDS``.  Otherwise a run of ``model``
    equals the run of ``spec`` up to the first step that fires a changed
    element: until then both frontiers agree, the same functions are
    defined at the same points, and only a changed element can step
    differently."""
    from .sxm import CaseFunction

    if any(getattr(spec, f) != getattr(model, f) for f in _RUN_FIELDS):
        return None
    if model.next_state.keys() - spec.next_state.keys():
        return None
    if model.functions.keys() != spec.functions.keys():
        return None
    changed = {
        ("arc", *arc) for arc, targets in spec.next_state.items()
        if model.next_state.get(arc) != targets
    }
    for name, old in spec.functions.items():
        new = model.functions[name]
        if new is old:
            continue
        if not (isinstance(old, CaseFunction) and isinstance(new, CaseFunction)):
            return None
        if len(new.cases) != len(old.cases):
            return None
        for idx, (was, now) in enumerate(zip(old.cases, new.cases)):
            if was == now:
                continue
            if (was.mem_pattern, was.input) != (now.mem_pattern, now.input):
                return None
            changed.add(("case", name, idx))
    return changed


class _SpecRun:
    """The spec's run of every suite case: its observed outputs and, for
    each arc or case it fired, the cases whose run fired it.

    When the spec's replay stops at a case (branch bound, term error),
    ``observed`` ends there and every mutant replays that case and those
    after it, so a mutant raises what a replay of it alone would."""

    def __init__(self, spec: Sxm, suite: TestSuite):
        from .sxm import replay_reached

        self.spec, self.n_cases = spec, len(suite.cases)
        self.observed: list = []
        self.fired_by: Dict[tuple, list] = {}
        try:
            for idx, (outputs, fired) in enumerate(replay_reached(spec, suite.inputs())):
                self.observed.append(outputs)
                for element in fired:
                    self.fired_by.setdefault(element, []).append(idx)
        except (BranchBoundExceeded, TermError):
            pass
        self.failed = [
            idx for idx, outputs in enumerate(self.observed)
            if outputs != suite.cases[idx].expected_outputs
        ]

    def cases_to_replay(self, model: Sxm) -> set:
        """Indexes of the cases on which ``model`` may observe other
        outputs than the spec."""
        changed = _changed_elements(self.spec, model)
        if changed is None:
            return set(range(self.n_cases))
        replay = set(range(len(self.observed), self.n_cases))
        for element in changed:
            replay.update(self.fired_by.get(element, ()))
        return replay


def score_sxm_suite(
    spec: Sxm,
    mutants: MutantBatch,
    suite: TestSuite,
) -> ScoreReport:
    """A mutant is killed when some case's observed outputs differ from the
    expected outputs recorded in the suite; the witness is the first such
    case in suite order.

    The spec is replayed once.  A mutant observes the spec's outputs on
    every case whose spec run fired nothing the mutant changed (see
    :func:`_changed_elements`), so only the other cases are replayed, in
    suite order, each from the longest prefix it shares with the replayed
    case before it.  A case the spec itself fails still kills."""
    from .sxm import replay_outputs

    cases, inputs = suite.cases, suite.inputs()
    spec_run: Optional[_SpecRun] = None

    def witness(idx: int) -> str:
        return " ".join(cases[idx].input) if cases[idx].input else "<empty input>"

    def kill_witness(model: Sxm) -> Optional[str]:
        nonlocal spec_run
        if spec_run is None:
            spec_run = _SpecRun(spec, suite)
        replay = spec_run.cases_to_replay(model)
        stop = next((idx for idx in spec_run.failed if idx not in replay), len(cases))
        order = sorted(idx for idx in replay if idx < stop)
        observed = replay_outputs(model, [inputs[idx] for idx in order])
        for idx, outputs in zip(order, observed):
            if outputs != cases[idx].expected_outputs:
                return witness(idx)
        return witness(stop) if stop < len(cases) else None

    return _score(spec, mutants, kill_witness)


def score_psystem_testset(
    spec: PSystem,
    mutants: MutantBatch,
    members: Sequence[PConfiguration],
    depth: int,
) -> ScoreReport:
    """A mutant is killed when some test-set configuration is unreachable in
    it within the generation depth.  Every mutant is walked on one
    :class:`psystem.StepEngine`, so a compartment that several mutants
    share is enumerated once."""
    from .psystem import StepEngine, config_canonical, render_config

    member_keys = [config_canonical(tuple(m)) for m in members]
    engine = StepEngine()

    def kill_witness(model: PSystem) -> Optional[str]:
        reachable = _reachable_within(model, depth, engine)
        for member, key in zip(members, member_keys):
            if key not in reachable:
                return render_config(member)
        return None

    return _score(spec, mutants, kill_witness)


def score_to_dict(report: ScoreReport) -> Dict[str, object]:
    return {
        "schema": 1,
        "total": report.total,
        "killed": report.killed,
        "survived": report.survived,
        "invalid": report.invalid,
        "identical": report.identical,
        "score": report.score,
        "non_equivalent_score": report.non_equivalent_score,
        "per_mutant": [
            {
                "id": v.mutant_id,
                "operator": v.operator,
                "verdict": v.verdict,
                "witness": v.witness,
            }
            for v in report.per_mutant
        ],
    }


def mutants_to_dict(kind: str, batch: MutantBatch) -> Dict[str, object]:
    serialise = sxm_to_dict if kind == "sxm" else psystem_to_dict
    return {
        "schema": 1,
        "kind": kind,
        "invalid": batch.invalid,
        "duplicates": batch.duplicates,
        "mutants": [
            {
                "id": m.mutant_id,
                "base": m.base,
                "operator": m.operator,
                "location": m.location,
                "model": serialise(m.model),
            }
            for m in batch.mutants
        ],
    }


def mutants_from_dict(d) -> Tuple[str, MutantBatch]:
    check_fields(d, MUTANTS, "mutants")
    kind = d["kind"]
    # the mutants of one system share its rules: each is parsed once
    build = sxm_from_dict if kind == "sxm" else psystem_reader()
    entries = [check_fields(e, MUTANT, f"mutants[{i}]") for i, e in enumerate(d["mutants"])]
    # each kind's default model name is the kind
    mutants = tuple(
        Mutant(e["base"], e["operator"], e["location"], build(e["model"], kind)) for e in entries
    )
    return kind, MutantBatch(mutants, d.get("invalid", 0), d.get("duplicates", 0))
