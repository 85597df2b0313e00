"""Differential checks of the layered configuration DAG and of the step
engine under it.

The path-copying explorations the DAG replaced are kept here as the
reference: ``reference_run`` copies one path per branch and calls
``reference_step_choices`` once per path, the coverage set and rule
coverage are computed from its materialised traces (rule coverage after
replaying each of them with ``reference_replay``), and reachability is a
breadth-first search.  On seeded random P systems and on the benchmark's
two-compartment skeleton, ``psystem_run(mode="all")``, ``rule_coverage(ps,
depth)``, ``generate_coverage_test_set`` and ``mutation._reachable_within``
must give identical traces, reports, test sets, reachable sets and cap
errors.  The caps are module constants of ``psystem``; a check sets them
with ``monkeypatch`` and passes the same values to the reference.

``reference_apply_assignment`` is the step that sums multisets, kept as the
reference for ``apply_assignment``, which sums one count dict per
compartment: both must give equal successors and equal errors.

The step that enumerated and applied every assignment afresh at each call
is kept as the reference for ``psystem.StepEngine``, which keeps each
compartment's choices for one call: ``reference_maximal_rule_multisets``,
``counted_apply_assignment``, ``reference_step_choices``, the DAG built on
them (``reference_explore``), the reachability read off that DAG
(``reference_reachable_within``) and the scoring built on it.  DAG layers,
step order, traces, witnesses, reachable sets, score reports and cap errors
must agree on random systems, on the benchmark's ladder and on every
mutant of ``ps2``, ``branch0`` and ``BRANCHING``.
"""

import functools
import json
import pathlib
import random
import runpy

import pytest

from heterotest import psystem
from heterotest.errors import ExplosionBoundExceeded
from heterotest.model_io import psystem_from_dict
from heterotest.multiset import Multiset
from heterotest.mutation import _reachable_within, _score, enumerate_mutants, score_psystem_testset
from heterotest.psystem import (
    HERE,
    ComputationTrace,
    CoverageReport,
    Exploration,
    PRule,
    PSystem,
    RuleCoverage,
    StepEngine,
    TraceStep,
    _compartment_maximal_multisets,
    apply_assignment,
    config_canonical,
    explore,
    generate_coverage_test_set,
    is_halting,
    maximal_rule_multisets,
    psystem_run,
    render_config,
    rule_coverage,
    step_choices,
    validate_psystem,
)

GEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"

M = Multiset.from_string


# --- the reference: one path per branch ---------------------------------------


def fired_rules(trace):
    """The names of every rule a computation fired."""
    return frozenset(name for step in trace.steps for comp_fired in step.fired
                     for name, _ in comp_fired)


def covered_rules(report):
    return tuple(e.rule for e in report.entries if e.covered)


def coverage_entry(report, rule):
    """The coverage entry of the rule named ``rule``."""
    return next(e for e in report.entries if e.rule == rule)


class TraceReplayMismatch(Exception):
    """A computation trace does not replay against its P system."""


# --- the references: a step computed afresh at every call ------------------------


def reference_maximal_rule_multisets(ps, cfg):
    """Every compartment enumerated, the product of their choices checked
    against the cap and built, then sorted."""
    per_comp = [_compartment_maximal_multisets(ps.rules_in(comp), cfg[comp - 1])
                for comp in ps.compartments()]
    cap = psystem.ASSIGNMENT_CAP
    combos = [()]
    for choices in per_comp:
        if len(combos) * len(choices) > cap:
            raise ExplosionBoundExceeded(f"more than {cap} combined rule assignments")
        combos = [prefix + (choice,) for prefix in combos for choice in choices]
    return sorted(combos)


def counted_apply_assignment(ps, cfg, assignment):
    """One assignment fired by summing one count dict per compartment."""
    consumed = [{} for _ in cfg]
    deposited = [{} for _ in cfg]
    for comp_idx, comp_fired in enumerate(assignment):
        comp = comp_idx + 1
        taken = consumed[comp_idx]
        for name, count in comp_fired:
            rule = {r.name: r for r in reversed(ps.rules)}[name]
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
                raise ValueError(f"assignment consumes more than compartment {idx + 1} holds")
            counts[sym] = left
        for sym, n in given.items():
            counts[sym] = counts.get(sym, 0) + n
        result.append(Multiset(counts))
    return tuple(result)


def reference_step_choices(ps, cfg):
    """(assignment, successor) pairs; empty exactly at halting configurations."""
    if is_halting(ps, cfg):
        return []
    return [(a, counted_apply_assignment(ps, cfg, a))
            for a in reference_maximal_rule_multisets(ps, cfg)]


def reference_explore(ps, depth, capped=True):
    """The configuration DAG, each configuration expanded once with
    ``reference_step_choices``."""
    branch_cap = psystem.BRANCH_CAP if capped else None
    interned = {ps.initial: ps.initial}
    steps = {}
    layers = [{ps.initial: 1}]
    for _ in range(depth):
        layer = {}
        branches = 0
        for cfg, paths in layers[-1].items():
            out = steps.get(cfg)
            if out is None:
                out = steps[cfg] = tuple(
                    TraceStep(a, interned.setdefault(successor, successor))
                    for a, successor in reference_step_choices(ps, cfg))
            branches += paths * len(out)
            if branch_cap is not None and branches > branch_cap:
                raise ExplosionBoundExceeded(f"more than {branch_cap} simultaneous branches")
            for step in out:
                layer[step.result] = layer.get(step.result, 0) + paths
        if not layer:
            break
        layers.append(layer)
    return Exploration(ps, depth, tuple(layers), steps)


def reference_reachable_within(ps, depth):
    """The canonical forms of the nodes of the uncapped reference DAG."""
    dag = reference_explore(ps, depth, capped=False)
    return {config_canonical(cfg) for layer in dag.layers for cfg in layer}


def reference_score_psystem_testset(spec, mutants, members, depth,
                                    reachable_within=reference_reachable_within):
    """Scoring with every mutant walked on its own DAG; ``reachable_within``
    may answer from reachable sets already computed."""
    member_keys = [config_canonical(tuple(m)) for m in members]

    def kill_witness(model):
        reachable = reachable_within(model, depth)
        for member, key in zip(members, member_keys):
            if key not in reachable:
                return render_config(member)
        return None

    return _score(spec, mutants, kill_witness)


def capped_step_choices(ps, cfg, assignment_cap):
    """``reference_step_choices`` with ``psystem.ASSIGNMENT_CAP`` at
    ``assignment_cap`` for the call."""
    saved, psystem.ASSIGNMENT_CAP = psystem.ASSIGNMENT_CAP, assignment_cap
    try:
        return reference_step_choices(ps, cfg)
    finally:
        psystem.ASSIGNMENT_CAP = saved


def reference_run(ps, depth, assignment_cap=10_000, branch_cap=10_000):
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
            for assignment, successor in choices:
                next_active.append((successor, steps + (TraceStep(assignment, successor),)))
        if len(next_active) > branch_cap:
            raise ExplosionBoundExceeded(f"more than {branch_cap} simultaneous branches")
        active = next_active
    for cfg, steps in active:
        done.append(ComputationTrace(ps.initial, steps, halted=is_halting(ps, cfg)))
    return sorted(done, key=ComputationTrace.key)


def reference_apply_assignment(ps, cfg, assignment):
    consumed = [Multiset() for _ in cfg]
    deposited = [Multiset() for _ in cfg]
    for comp_idx, comp_fired in enumerate(assignment):
        comp = comp_idx + 1
        for name, count in comp_fired:
            rule = {r.name: r for r in reversed(ps.rules)}[name]
            if rule.compartment != comp:
                raise ValueError(f"rule {name} fired in wrong compartment {comp}")
            scaled = Multiset({s: n * count for s, n in rule.lhs.items()})
            consumed[comp_idx] = consumed[comp_idx] + scaled
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


def reference_replay(ps, trace):
    cfg = trace.initial
    for idx, step in enumerate(trace.steps):
        try:
            result = reference_apply_assignment(ps, cfg, step.fired)
        except (ValueError, KeyError) as exc:
            raise TraceReplayMismatch(f"step {idx} does not apply: {exc}") from exc
        if config_canonical(result) != config_canonical(step.result):
            raise TraceReplayMismatch(
                f"step {idx}: expected {render_config(step.result)}, "
                f"replay gives {render_config(result)}"
            )
        cfg = result


def _entries(ps, witness_for):
    entries = []
    for rule in sorted(ps.rules, key=lambda r: (r.compartment, r.name)):
        witness = witness_for(rule)
        entries.append(RuleCoverage(rule.name, rule.compartment, witness is not None,
                                    witness.final if witness else None, witness))
    return CoverageReport(tuple(entries))


def reference_rule_coverage(ps, traces):
    trace_list = sorted(traces, key=ComputationTrace.key)
    for trace in trace_list:
        reference_replay(ps, trace)
    return _entries(ps, lambda rule: next(
        (t for t in trace_list if rule.name in fired_rules(t)), None))


def reference_coverage(ps, depth, assignment_cap=10_000, branch_cap=10_000):
    return reference_rule_coverage(ps, reference_run(ps, depth, assignment_cap, branch_cap))


def reference_coverage_test_set(ps, depth, assignment_cap=10_000, branch_cap=10_000):
    traces = reference_run(ps, depth, assignment_cap, branch_cap)
    coverable, by_final = {}, {}
    for trace in traces:
        key = config_canonical(trace.final)
        by_final.setdefault(key, []).append(trace)
        for rule in fired_rules(trace):
            coverable.setdefault(rule, set()).add(key)
    members = []
    uncovered = set(coverable)
    while uncovered:
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
    report = _entries(ps, lambda rule: next(
        (t for t in traces
         if rule.name in fired_rules(t) and config_canonical(t.final) in member_set),
        None))
    return [tuple(Multiset.from_string(c) for c in key) for key in members], report


def reference_reachable(ps, depth):
    seen = {config_canonical(tuple(ps.initial))}
    frontier = [tuple(ps.initial)]
    for _ in range(depth):
        next_frontier = []
        for cfg in frontier:
            if is_halting(ps, cfg):
                continue
            for _, successor in reference_step_choices(ps, cfg):
                key = config_canonical(successor)
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(successor)
        frontier = next_frontier
    return seen


# --- systems ------------------------------------------------------------------


def random_psystem(seed):
    """One to three compartments, two to four symbols, up to three rules per
    compartment with one- or two-symbol left-hand sides and up to two
    deposits each, and up to four initial symbols per compartment.  A
    quarter of the rules after the first in a compartment copy an earlier
    one under a new name, so distinct assignments reach one successor."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    parent = {1: None}
    for comp in range(2, n + 1):
        parent[comp] = rng.randint(1, comp - 1)
    alphabet = "abcd"[:rng.randint(2, 4)]
    rules = []
    for comp in range(1, n + 1):
        targets = [HERE] + [c for c, p in parent.items() if p == comp]
        if parent[comp] is not None:
            targets.append(parent[comp])
        own = []
        for k in range(rng.randint(0, 3)):
            if own and rng.random() < 0.25:
                lhs, rhs = rng.choice(own)
            else:
                lhs = M("".join(rng.choices(alphabet, k=rng.randint(1, 2))))
                rhs = tuple((rng.choice(alphabet), rng.choice(targets))
                            for _ in range(rng.randint(0, 2)))
            own.append((lhs, rhs))
            rules.append(PRule(f"r{comp}{k}", comp, lhs, rhs))
    initial = tuple(M("".join(rng.choices(alphabet, k=rng.randint(0, 4)))) for _ in parent)
    ps = PSystem(f"random{seed}", frozenset(alphabet), parent, initial, tuple(rules))
    assert validate_psystem(ps) == []
    return ps


def skeleton(initial):
    """The benchmark's two-compartment skeleton (perfbench/gen.py, read
    only) with the given initial multisets, one count per slot."""
    gen = runpy.run_path(str(GEN))
    doc = gen["_psystem_doc"]("skeleton", list("abcd"), [[1, 2, 3, 4], [1, 2, 3, 4]], initial)
    return psystem_from_dict(doc)


SEEDS = range(60)
# Count of each symbol a..d in compartment 1, then in compartment 2.  The
# last three reach 338, 706 and 1,036 computations at depth 4.
SKELETON_INITIALS = [
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 1, 0, 0, 1),
    (0, 0, 0, 0, 1, 1, 1, 0),
    (1, 0, 0, 0, 0, 1, 1, 0),
    (1, 1, 0, 1, 0, 0, 1, 0),
    (2, 0, 0, 1, 0, 0, 1, 0),
]
# More than 10,000 branches in the fourth layer (13,114).
SKELETON_PAST_CAP = (1, 1, 0, 1, 0, 2, 1, 0)


def reference_steps(ps, depth):
    """Every (configuration, assignment) pair of the computations of at
    most ``depth`` steps, each configuration stepped once."""
    seen, frontier, pairs = {ps.initial}, [ps.initial], []
    for _ in range(depth):
        next_frontier = []
        for cfg in frontier:
            if is_halting(ps, cfg):
                continue
            for assignment in reference_maximal_rule_multisets(ps, cfg):
                pairs.append((cfg, assignment))
                successor = reference_apply_assignment(ps, cfg, assignment)
                if successor not in seen:
                    seen.add(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    return pairs


def _raised(fn, *args):
    try:
        return fn(*args)
    except (ValueError, KeyError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ExplosionBoundExceeded as exc:
        return ("raised", type(exc).__name__, str(exc))


def set_caps(monkeypatch, assignment_cap=10_000, branch_cap=10_000):
    """Set the caps of ``psystem``; return them as the references take them."""
    monkeypatch.setattr(psystem, "ASSIGNMENT_CAP", assignment_cap)
    monkeypatch.setattr(psystem, "BRANCH_CAP", branch_cap)
    return {"assignment_cap": assignment_cap, "branch_cap": branch_cap}


def _same_everywhere(monkeypatch, ps, depths, **caps):
    caps = set_caps(monkeypatch, **caps)
    for depth in depths:
        assert (_outcome(psystem_run, ps, depth, "all")
                == _outcome(reference_run, ps, depth, **caps)), (ps.name, depth)
        assert (_outcome(rule_coverage, ps, depth)
                == _outcome(reference_coverage, ps, depth, **caps)), (ps.name, depth)
        if depth >= 1:
            assert (_outcome(generate_coverage_test_set, ps, depth)
                    == _outcome(reference_coverage_test_set, ps, depth, **caps)), (ps.name, depth)


# --- the checks -----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_random_systems_match_the_reference(monkeypatch, seed):
    ps = random_psystem(seed)
    _same_everywhere(monkeypatch, ps, range(5), branch_cap=2_000)
    for depth in range(5):
        assert _outcome(_reachable_within, ps, depth) == _outcome(reference_reachable, ps, depth)


def _broken(ps, assignment):
    """Assignments that must not apply: every count tenfold (consuming more
    than is held), each compartment's rules shifted to the next
    compartment, and an unknown rule."""
    yield tuple(tuple((name, 10 * count) for name, count in comp) for comp in assignment)
    yield assignment[-1:] + assignment[:-1]
    yield ((("nope", 1),),) + assignment[1:]


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_assignment_matches_the_reference(seed):
    ps = random_psystem(seed)
    for cfg, assignment in reference_steps(ps, 6):
        got = apply_assignment(ps, cfg, assignment)
        assert got == reference_apply_assignment(ps, cfg, assignment)
        assert config_canonical(got) == config_canonical(
            reference_apply_assignment(ps, cfg, assignment))
        for broken in _broken(ps, assignment):
            assert (_raised(apply_assignment, ps, cfg, broken)
                    == _raised(reference_apply_assignment, ps, cfg, broken))


@pytest.mark.parametrize("initial", SKELETON_INITIALS[:4])
def test_apply_assignment_matches_the_reference_on_the_skeleton(initial):
    ps = skeleton(initial)
    pairs = reference_steps(ps, 4)
    assert pairs
    for cfg, assignment in pairs:
        assert apply_assignment(ps, cfg, assignment) == reference_apply_assignment(
            ps, cfg, assignment)
        for broken in _broken(ps, assignment):
            assert (_raised(apply_assignment, ps, cfg, broken)
                    == _raised(reference_apply_assignment, ps, cfg, broken))


@pytest.mark.parametrize("initial", SKELETON_INITIALS)
def test_benchmark_skeleton_matches_the_reference(monkeypatch, initial):
    ps = skeleton(initial)
    _same_everywhere(monkeypatch, ps, (1, 3, 4))
    assert _reachable_within(ps, 4) == reference_reachable(ps, 4)


def test_depth_zero_is_the_initial_configuration(ps2):
    assert psystem_run(ps2, 0) == reference_run(ps2, 0)
    assert rule_coverage(ps2, 0) == reference_coverage(ps2, 0)
    assert covered_rules(rule_coverage(ps2, 0)) == ()
    assert [config_canonical(t.final) for t in psystem_run(ps2, 0)] == [("s", "t")]
    assert _reachable_within(ps2, 0) == {("s", "t")}


def test_early_halting_stops_the_layers(monkeypatch, ps2):
    # every computation of ps2 halts within three steps
    _same_everywhere(monkeypatch, ps2, (3, 4, 6))
    assert all(len(t.steps) <= 3 and t.halted for t in psystem_run(ps2, 6))
    assert _reachable_within(ps2, 6) == reference_reachable(ps2, 6)


def _twin_rules(*extra):
    """``r1`` and ``r2`` both turn a into b, so two assignments reach the
    same successor and only the fired tuple orders their computations."""
    rules = (PRule("r1", 1, M("a"), (("b", HERE),)),
             PRule("r2", 1, M("a"), (("b", HERE),))) + extra
    return PSystem("twins", frozenset("abc"), {1: None}, (M("a"),), rules)


def test_two_assignments_to_one_successor_order_by_fired(monkeypatch):
    ps = _twin_rules(PRule("r3", 1, M("b"), (("c", HERE),)))
    traces = psystem_run(ps, 3)
    assert [[name for step in t.steps for comp in step.fired for name, _ in comp]
            for t in traces] == [["r1", "r3"], ["r2", "r3"]]
    assert traces == reference_run(ps, 3)
    _same_everywhere(monkeypatch, ps, (1, 2, 3))


def test_witness_decided_by_the_fired_tuple_alone(monkeypatch):
    # a -> b -> a by r1|r2 then r3|r4: four computations over one
    # configuration sequence; r4's witness is the least fired tuple
    # that fires it, ((r1), (r4)), not the first computation overall
    ps = _twin_rules(PRule("r3", 1, M("b"), (("a", HERE),)),
                     PRule("r4", 1, M("b"), (("a", HERE),)))
    members, report = generate_coverage_test_set(ps, 2)
    assert [step.fired for step in coverage_entry(report, "r4").witness.steps] == [
        ((("r1", 1),),), ((("r4", 1),),)]
    assert [step.fired for step in coverage_entry(report, "r2").witness.steps] == [
        ((("r2", 1),),), ((("r3", 1),),)]
    assert (members, report) == reference_coverage_test_set(ps, 2)
    _same_everywhere(monkeypatch, ps, (1, 2, 3, 4))


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_branch_cap_trips_at_the_same_layer(monkeypatch, seed):
    ps = random_psystem(seed)
    for cap in (1, 2, 3, 5, 8, 13, 21, 34):
        # the first depth that raises is the layer the cap trips at
        _same_everywhere(monkeypatch, ps, range(5), branch_cap=cap)


@pytest.mark.parametrize("initial", SKELETON_INITIALS[2:5])
def test_branch_cap_on_the_skeleton(monkeypatch, initial):
    ps = skeleton(initial)
    for cap in (10, 40, 100, 300, 700):
        _same_everywhere(monkeypatch, ps, (2, 3, 4), branch_cap=cap)


def test_past_cap_message_unchanged():
    ps = skeleton(SKELETON_PAST_CAP)
    with pytest.raises(ExplosionBoundExceeded, match="^more than 10000 simultaneous branches$"):
        psystem_run(ps, 4)
    with pytest.raises(ExplosionBoundExceeded, match="^more than 10000 simultaneous branches$"):
        generate_coverage_test_set(ps, 4)
    with pytest.raises(ExplosionBoundExceeded, match="^more than 10000 simultaneous branches$"):
        rule_coverage(ps, 4)
    # the reachability check of mutant scoring walks without the branch cap
    assert _reachable_within(ps, 4) == reference_reachable(ps, 4)


@pytest.mark.parametrize("seed", range(0, 60, 2))
def test_assignment_cap_matches_the_reference(monkeypatch, seed):
    ps = random_psystem(seed)
    for cap in (1, 2, 4):
        _same_everywhere(monkeypatch, ps, range(4), assignment_cap=cap)


def test_assignment_cap_messages(monkeypatch):
    rules = tuple(PRule(f"r{i}", 1, M("a"), ((s, HERE),)) for i, s in enumerate("bcd"))
    one = PSystem("wide", frozenset("abcd"), {1: None}, (M("aaaa"),), rules)
    two = PSystem("pair", frozenset("abcd"), {1: None, 2: 1}, (M("aa"), M("aa")),
                  rules + tuple(PRule(f"q{i}", 2, M("a"), ((s, HERE),))
                                for i, s in enumerate("bcd")))
    for ps, cap, message in ((one, 10, "more than 10 rule assignments in one compartment"),
                             (two, 10, "more than 10 combined rule assignments")):
        caps = set_caps(monkeypatch, assignment_cap=cap)
        for fn in (psystem_run, rule_coverage, generate_coverage_test_set):
            with pytest.raises(ExplosionBoundExceeded, match=f"^{message}$"):
                fn(ps, 2)
        with pytest.raises(ExplosionBoundExceeded, match=f"^{message}$"):
            reference_run(ps, 2, **caps)


def test_traces_share_their_prefix_steps():
    ps = skeleton(SKELETON_INITIALS[2])
    traces = psystem_run(ps, 4)
    steps = {id(step) for t in traces for step in t.steps}
    assert len(steps) < sum(len(t.steps) for t in traces) / 4


def test_configurations_sharing_a_canonical_form(monkeypatch):
    # {a, b} and {ab} both print as "ab": two nodes of one layer share a
    # canonical form, and only later configurations order their paths
    rules = (PRule("r1", 1, M("s"), (("a", HERE), ("b", HERE))),
             PRule("r2", 1, M("s"), (("ab", HERE),)),
             PRule("r3", 1, M("a"), (("b", HERE),)),
             PRule("r4", 1, Multiset({"ab": 1}), (("a", HERE),)),
             PRule("r5", 1, M("b"), (("s", HERE),)))
    ps = PSystem("shared", frozenset({"s", "a", "b", "ab"}), {1: None}, (M("s"),), rules)
    traces = psystem_run(ps, 2)
    assert [t.steps[0].fired for t in traces] == [((("r2", 1),),), ((("r1", 1),),)]
    _same_everywhere(monkeypatch, ps, (1, 2, 3, 4))
    # The reference search skips {ab} once it has seen "ab" for {a, b}, so
    # it misses (a) and (b), which only {ab} leads to; the DAG keys its
    # nodes by configuration and keeps them.
    assert _reachable_within(ps, 4) == reference_reachable(ps, 4) | {("a",), ("b",)}


def test_branch_cap_trips_before_a_later_assignment_cap(monkeypatch):
    # Layer 1 holds (x) and then (yyyy).  (x) brings the layer to four
    # branches, past a cap of three, so the DAG stops before enumerating the
    # fifteen assignments of (yyyy); the reference enumerates every
    # configuration of the layer first and trips the assignment cap.
    rules = ((PRule("r1", 1, M("a"), (("x", HERE),)),
              PRule("r2", 1, M("a"), (("y", HERE),) * 4))
             + tuple(PRule(f"q{i}", 1, M("x"), (("c", HERE),)) for i in range(4))
             + tuple(PRule(f"s{i}", 1, M("y"), (("c", HERE),)) for i in range(3)))
    ps = PSystem("late", frozenset("acxy"), {1: None}, (M("a"),), rules)
    caps = set_caps(monkeypatch, assignment_cap=4, branch_cap=3)
    assert _outcome(psystem_run, ps, 2) == (
        "raised", "ExplosionBoundExceeded", "more than 3 simultaneous branches")
    assert _outcome(reference_run, ps, 2, **caps) == (
        "raised", "ExplosionBoundExceeded", "more than 4 rule assignments in one compartment")


def _sort_key_systems():
    """BRANCHING and branch0 to branch2 of the benchmark's ladder at seeds
    0 to 3, each with its depth."""
    from test_cli import BRANCHING

    systems = [(psystem_from_dict(BRANCHING), 4)]
    for seed in range(4):
        systems += [(ps, depth) for ps, depth in _ladder(seed)
                    if not ps.name.startswith("pastcap")]
    return systems


def test_traces_read_each_canonical_form_once_in_trace_key_order(monkeypatch):
    for ps, depth in _sort_key_systems():
        dag = explore(ps, depth)
        forms = []
        monkeypatch.setattr(psystem, "config_canonical",
                            lambda cfg: forms.append(cfg) or config_canonical(cfg))
        traces = dag.traces()
        monkeypatch.undo()
        distinct = {cfg for layer in dag.layers for cfg in layer}
        assert len(forms) == len(distinct) < len(traces)
        assert traces == sorted(traces, key=ComputationTrace.key)


# --- the step engine against the step computed afresh ---------------------------


def _dag(build, ps, depth, *switch):
    """A DAG's layers and steps, each in order, or the cap error raised."""
    try:
        dag = build(ps, depth, *switch)
    except ExplosionBoundExceeded as exc:
        return ("raised", str(exc))
    return [list(layer.items()) for layer in dag.layers], list(dag.steps.items())


def _on_the_reference_dag(monkeypatch, fn, *args):
    """What ``fn`` gives when every exploration is ``reference_explore``."""
    with monkeypatch.context() as patch:
        patch.setattr(psystem, "explore", reference_explore)
        return _outcome(fn, *args)


def _same_as_the_fresh_step(monkeypatch, ps, depths, reads=True):
    """DAG layers and step order; with ``reads``, the traces, rule coverage
    and coverage test set read off the DAG; the reachable set, which no
    branch cap bounds; and the steps of every configuration of the uncapped
    reference DAG."""
    for depth in depths:
        assert _dag(explore, ps, depth) == _dag(reference_explore, ps, depth), (ps.name, depth)
        reading = (psystem_run, rule_coverage, generate_coverage_test_set)[:3 if depth else 2]
        for fn in reading if reads else ():
            assert (_outcome(fn, ps, depth)
                    == _on_the_reference_dag(monkeypatch, fn, ps, depth)), (ps.name, depth, fn)
        assert (_outcome(_reachable_within, ps, depth)
                == _outcome(reference_reachable_within, ps, depth)), (ps.name, depth)
    dag = reference_explore(ps, max(depths), capped=False)
    for cfg in dag.steps:
        assert step_choices(ps, cfg) == reference_step_choices(ps, cfg)
        assert maximal_rule_multisets(ps, cfg) == reference_maximal_rule_multisets(ps, cfg)


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_the_fresh_step_on_random_systems(monkeypatch, seed):
    _same_as_the_fresh_step(monkeypatch, random_psystem(seed), range(5))


@functools.lru_cache(maxsize=None)
def _ladder(seed):
    """The benchmark's ladder at ``seed``, each system with its depth."""
    gen = runpy.run_path(str(GEN))
    return tuple((psystem_from_dict(doc), gen["PS_DEPTH"])
                 for _, doc, _ in gen["psystem_ladder"](seed))


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_the_fresh_step_on_the_ladder(monkeypatch, seed):
    # equal DAGs give equal reads, which the random systems check
    for ps, depth in _ladder(seed):
        _same_as_the_fresh_step(monkeypatch, ps, (depth,), reads=False)


def _spec(name, ps2):
    """``ps2`` at depth 3, the ladder's ``branch0`` at seed 0 or
    ``BRANCHING`` at depth 4."""
    from test_cli import BRANCHING

    if name == "ps2":
        return ps2, 3
    if name == "branch0":
        return _ladder(0)[0]
    return psystem_from_dict(BRANCHING), 4


@pytest.mark.parametrize("name", ["ps2", "branch0", "BRANCHING"])
def test_every_mutant_walks_as_the_fresh_step(name, ps2):
    # one engine walks every mutant, as scoring does: a compartment a
    # mutant changes must never answer from another's tables
    spec, depth = _spec(name, ps2)
    batch = enumerate_mutants(spec)
    assert len(batch.mutants) > 50
    members, _ = generate_coverage_test_set(spec, depth)
    engine = StepEngine()
    reachable = {}
    for mutant in batch:
        reachable[mutant.mutant_id] = reference_reachable_within(mutant.model, depth)
        assert _reachable_within(mutant.model, depth, engine) == reachable[mutant.mutant_id], \
            mutant.mutant_id
        if name != "BRANCHING":
            assert (_dag(explore, mutant.model, depth)
                    == _dag(reference_explore, mutant.model, depth)), mutant.mutant_id
    got = score_psystem_testset(spec, batch, members, depth)
    assert got == reference_score_psystem_testset(
        spec, batch, members, depth, lambda model, _: reachable[
            next(m.mutant_id for m in batch if m.model is model)])
    assert got.killed and got.survived


def _cap_pair():
    """``wide`` passes an assignment cap of 10 in its one compartment,
    ``pair`` only with its two compartments combined; ``wide`` is one
    compartment of ``pair``."""
    rules = tuple(PRule(f"r{i}", 1, M("a"), ((s, HERE),)) for i, s in enumerate("bcd"))
    wide = PSystem("wide", frozenset("abcd"), {1: None}, (M("aaaa"),), rules)
    pair = PSystem("pair", frozenset("abcd"), {1: None, 2: 1}, (M("aa"), M("aa")),
                   rules + tuple(PRule(f"q{i}", 2, M("a"), ((s, HERE),))
                                 for i, s in enumerate("bcd")))
    return ((wide, "more than 10 rule assignments in one compartment"),
            (pair, "more than 10 combined rule assignments"))


def _counted_enumerations(monkeypatch):
    """The (rules, multiset) keys ``psystem`` enumerates, in order."""
    keys = []
    enumerate_ = psystem._compartment_maximal_multisets

    def counted(rules, held):
        keys.append((rules, held))
        return enumerate_(rules, held)

    monkeypatch.setattr(psystem, "_compartment_maximal_multisets", counted)
    return keys


def test_a_cap_error_is_raised_again_on_a_cache_hit(monkeypatch):
    keys = _counted_enumerations(monkeypatch)
    for ps, message in _cap_pair():
        set_caps(monkeypatch, assignment_cap=10)
        engine = StepEngine()
        del keys[:]
        again = PSystem("again", ps.alphabet, ps.parent, ps.initial, ps.rules)
        for step in (engine.stepper(ps), engine.stepper(ps), engine.stepper(again)):
            for _ in range(2):
                with pytest.raises(ExplosionBoundExceeded, match=f"^{message}$"):
                    step(ps.initial)
        # the first call enumerated every compartment it met; the rest hit
        assert len(keys) == len(set(keys)) == ps.n_compartments
        assert _outcome(reference_step_choices, ps, ps.initial) == (
            "raised", "ExplosionBoundExceeded", message)


def test_a_cap_never_leaks_into_a_later_call(monkeypatch, ps2):
    for ps, message in _cap_pair():
        want = reference_run(ps, 2)
        for fn in (psystem_run, rule_coverage, generate_coverage_test_set, _reachable_within):
            before = _outcome(fn, ps, 2)
            set_caps(monkeypatch, assignment_cap=10)
            assert _outcome(fn, ps, 2) == ("raised", "ExplosionBoundExceeded", message), fn
            monkeypatch.undo()
            assert _outcome(fn, ps, 2) == before, fn
        assert psystem_run(ps, 2) == want
    # a branch cap, and a score: a mutant of ps2 walked under a cap of one
    # assignment raises, and the next score under the default caps does not
    batch = enumerate_mutants(ps2)
    members, _ = generate_coverage_test_set(ps2, 3)
    want = reference_score_psystem_testset(ps2, batch, members, 3)
    set_caps(monkeypatch, branch_cap=1)
    assert _outcome(psystem_run, ps2, 3)[0] == "raised"
    set_caps(monkeypatch, assignment_cap=1)
    assert _outcome(score_psystem_testset, ps2, batch, members, 3) == (
        "raised", "ExplosionBoundExceeded", "more than 1 combined rule assignments")
    monkeypatch.undo()
    assert score_psystem_testset(ps2, batch, members, 3) == want
    assert len(psystem_run(ps2, 3)) == len(reference_run(ps2, 3))


def _two_trips(first):
    """Layer 1 holds (xxxx) and (yy,zz), in the order of their rules' names:
    ``first`` names the rule to (xxxx).  (xxxx) passes a cap of four
    assignments in its compartment (fifteen), (yy,zz) only combined (three
    times three)."""
    second = "r2" if first == "r1" else "r1"
    rules = ((PRule(first, 1, M("a"), (("x", HERE),) * 4),
              PRule(second, 1, M("a"), (("y", HERE), ("y", HERE), ("z", 2), ("z", 2))))
             + tuple(PRule(f"q{i}", 1, M("x"), (("c", HERE),)) for i in range(3))
             + tuple(PRule(f"s{i}", 1, M("y"), (("c", HERE),)) for i in range(2))
             + tuple(PRule(f"t{i}", 2, M("z"), (("c", HERE),)) for i in range(2)))
    return PSystem("trips", frozenset("acxyz"), {1: None, 2: 1}, (M("a"), M("")), rules)


@pytest.mark.parametrize("first, message", [
    ("r1", "more than 4 rule assignments in one compartment"),
    ("r2", "more than 4 combined rule assignments"),
])
def test_the_first_configuration_to_trip_raises(monkeypatch, first, message):
    # Both configurations of layer 1 would trip; the one the sorted
    # assignments reach first raises, in the DAG and in the walk.
    ps = _two_trips(first)
    set_caps(monkeypatch, assignment_cap=4)
    for dag in (_dag(explore, ps, 2), _dag(reference_explore, ps, 2),
                _dag(reference_explore, ps, 2, False)):
        assert dag == ("raised", message)
    assert _outcome(_reachable_within, ps, 2) == ("raised", "ExplosionBoundExceeded", message)
    assert _outcome(reference_reachable_within, ps, 2) == (
        "raised", "ExplosionBoundExceeded", message)
    monkeypatch.undo()
    _same_as_the_fresh_step(monkeypatch, ps, (1, 2))


def test_the_branch_cap_trips_before_the_assignment_cap_in_both_dags(monkeypatch):
    # the system of test_branch_cap_trips_before_a_later_assignment_cap
    rules = ((PRule("r1", 1, M("a"), (("x", HERE),)),
              PRule("r2", 1, M("a"), (("y", HERE),) * 4))
             + tuple(PRule(f"q{i}", 1, M("x"), (("c", HERE),)) for i in range(4))
             + tuple(PRule(f"s{i}", 1, M("y"), (("c", HERE),)) for i in range(3)))
    ps = PSystem("late", frozenset("acxy"), {1: None}, (M("a"),), rules)
    set_caps(monkeypatch, assignment_cap=4, branch_cap=3)
    assert _dag(explore, ps, 2) == _dag(reference_explore, ps, 2) == (
        "raised", "more than 3 simultaneous branches")
    message = "more than 4 rule assignments in one compartment"
    assert _dag(reference_explore, ps, 2, False) == ("raised", message)
    assert _outcome(_reachable_within, ps, 2) == ("raised", "ExplosionBoundExceeded", message)


def test_scoring_enumerates_each_compartment_once(monkeypatch, tmp_path, capsys):
    # score on BRANCHING with all 72 mutants: every (rules, multiset) key
    # is enumerated once, and the mutants share what they have in common
    from test_cli import BRANCHING

    from heterotest import cli

    model, mutants, testset = (tmp_path / name for name in ("m.json", "mu.json", "ts.json"))
    model.write_text(json.dumps(BRANCHING))
    assert cli.main(["mutate", str(model), "--count", "1000000", "-o", str(mutants)]) == 0
    assert cli.main(["gen-tests", "psystem", str(model), "--depth", "4", "-o", str(testset)]) == 0
    keys = _counted_enumerations(monkeypatch)
    assert cli.main(["score", str(model), "--mutants", str(mutants), "--test-set", str(testset),
                     "-o", str(tmp_path / "score.json")]) == 0
    capsys.readouterr()
    assert len(json.loads(mutants.read_text())["mutants"]) == 72
    assert len(keys) == len(set(keys))
    alone = 0
    for mutant in enumerate_mutants(psystem_from_dict(BRANCHING)):
        del keys[:]
        _reachable_within(mutant.model, 4)
        alone += len(keys)
    assert len(set(keys)) < alone / 2
