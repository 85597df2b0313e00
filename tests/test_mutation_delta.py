"""Differential checks of delta scoring and the structural mutant key.

The code they replaced is kept here as the reference: scoring that replays
every mutant on every suite case, and a mutant key made of the model file's
JSON text.  Delta scoring must give the same report, or raise the same
branch-bound or term error, on every mutant of every machine below,
including suites whose expected outputs were edited, nondeterministic
machines, hand-made mutants whose change is neither arc- nor case-local,
and specs whose own run stops early.  Structural keys must be equal
exactly when the JSON keys are.
"""

import itertools
import json
import random

import pytest

from gen_models import random_dft_sxm, random_messy_sxm
from heterotest import sxm
from heterotest.errors import BranchBoundExceeded, TermError
from heterotest.model_io import psystem_from_dict, psystem_to_dict, sxm_from_dict, sxm_to_dict
from heterotest.multiset import Multiset
from heterotest.mutation import (
    PSYSTEM_OPERATORS,
    SXM_OPERATORS,
    Mutant,
    MutantBatch,
    _changed_elements,
    _model_key,
    _psystem_candidates,
    _score,
    _sxm_candidates,
    enumerate_mutants,
    score_sxm_suite,
    score_to_dict,
)
from heterotest.psystem import PRule, PSystem, validate_psystem
from heterotest.records import replace
from heterotest.sxm import Case, CaseFunction, MemoryDomain, Sxm, replay_outputs, validate_sxm
from heterotest.testgen import TestCase as SuiteCase
from heterotest.testgen import TestSuite as Suite
from heterotest.testgen import build_w_suite, generate_sxm_test_suite


def reference_model_key(model):
    to_dict = sxm_to_dict if model.kind == "sxm" else psystem_to_dict
    return json.dumps(to_dict(model), sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def reference_score_sxm_suite(spec, mutants, suite, branch_bound=256):
    """Every mutant replays every case until the first that fails, with
    ``sxm.BRANCH_BOUND`` at ``branch_bound`` meanwhile."""

    def kill_witness(model):
        observed = replay_outputs(model, suite.inputs())
        for case, outputs in zip(suite.cases, observed):
            if outputs != case.expected_outputs:
                return " ".join(case.input) if case.input else "<empty input>"
        return None

    saved, sxm.BRANCH_BOUND = sxm.BRANCH_BOUND, branch_bound
    try:
        return _score(spec, mutants, kill_witness)
    finally:
        sxm.BRANCH_BOUND = saved


def outcome(score, *args):
    try:
        return score_to_dict(score(*args))
    except (BranchBoundExceeded, TermError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "frontier", None)


def assert_same_scores(monkeypatch, spec, mutants, suite, branch_bound=256):
    """The same report or error for the batch and for each mutant alone,
    so that one mutant's error cannot hide another's verdict, with
    ``sxm.BRANCH_BOUND`` and the reference's bound at ``branch_bound``."""
    monkeypatch.setattr(sxm, "BRANCH_BOUND", branch_bound)
    mutants = list(mutants)
    for group in [mutants] + [[m] for m in mutants]:
        batch = MutantBatch(tuple(group), 0, 0)
        delta = outcome(score_sxm_suite, spec, batch, suite)
        full = outcome(reference_score_sxm_suite, spec, batch, suite, branch_bound)
        assert delta == full, [m.mutant_id for m in group]


def edited(suite, seed, every=5):
    """The suite with every ``every``-th expected output set changed."""
    rng = random.Random(seed)
    cases = list(suite.cases)
    for idx in range(rng.randrange(every), len(cases), every):
        expected = cases[idx].expected_outputs
        cases[idx] = SuiteCase(cases[idx].input, expected[1:] if expected else (("o0",),))
    return Suite(tuple(cases), suite.metadata)


def words_suite(model, length):
    """Every input word up to ``length``, sorted, expecting the model's own
    outputs (as far as its run gets within the default bound)."""
    words = sorted(
        word for n in range(length + 1) for word in itertools.product(sorted(model.inputs), repeat=n)
    )
    cases = [SuiteCase(word, outputs) for word, outputs in zip(words, replay_outputs(model, words))]
    return Suite(tuple(cases), {"method": "words", "k": length})


def mutant(spec, tag, **changes):
    return Mutant(spec.name, "hand-made", tag, replace(spec, **changes))


def with_case(spec, fn_name, idx, **fields):
    fn = spec.functions[fn_name]
    cases = list(fn.cases)
    old = cases[idx]
    values = dict(mem_pattern=old.mem_pattern, input=old.input, output=old.output,
                  mem_next=old.mem_next)
    values.update(fields)
    cases[idx] = Case.build(**values)
    return dict(spec.functions, **{fn_name: CaseFunction(fn_name, cases)})


def non_local_mutants(spec):
    """Changes outside the arcs and the case outputs and updates, which a
    run may notice without firing anything the spec's run fired."""
    states = sorted(spec.states)
    name, fn = sorted(spec.functions.items())[0]
    first = fn.cases[0].mem_pattern
    pattern = f"{first}, ?m != 1" if " where " in first else "?m where ?m != 1"
    idle = next(((q, f) for q in states for f in sorted(spec.functions)
                 if (q, f) not in spec.next_state), None)
    out = [
        mutant(spec, "terminal", terminal_states=frozenset(states[:1])),
        mutant(spec, "initial-memory", initial_memory=1),
        mutant(spec, "initial-state", initial_states=frozenset(states[-1:])),
        mutant(spec, "pattern", functions=with_case(spec, name, 0, mem_pattern=pattern)),
    ]
    if idle is not None:
        out.append(mutant(spec, "added-arc", next_state={**spec.next_state, idle: (states[0],)}))
    return [m for m in out if not validate_sxm(m.model)]


# --- the 100 criterion-5 machines --------------------------------------------


@pytest.fixture(scope="module")
def criterion_5():
    out = []
    for seed in range(100):
        model = random_dft_sxm(seed)
        out.append((model, generate_sxm_test_suite(model, 1), enumerate_mutants(model)))
    return out


def test_delta_scores_equal_full_replay_on_criterion_5_machines(criterion_5):
    for model, suite, batch in criterion_5:
        delta = score_to_dict(score_sxm_suite(model, batch, suite))
        assert delta == score_to_dict(reference_score_sxm_suite(model, batch, suite)), model.name


def test_delta_scores_equal_full_replay_on_edited_suites(criterion_5):
    for seed, (model, suite, batch) in enumerate(criterion_5[:40]):
        suite = edited(suite, seed)
        delta = score_to_dict(score_sxm_suite(model, batch, suite))
        assert delta == score_to_dict(reference_score_sxm_suite(model, batch, suite)), model.name


def test_non_local_changes_replay_every_case(monkeypatch, criterion_5):
    for seed, (model, suite, _) in enumerate(criterion_5[:30]):
        hand_made = non_local_mutants(model)
        assert all(_changed_elements(model, m.model) is None for m in hand_made)
        assert_same_scores(monkeypatch, model, hand_made, suite)
        assert_same_scores(monkeypatch, model, hand_made, edited(suite, seed, every=3))


def test_changed_elements_name_the_arc_or_case(counter_testable):
    spec = counter_testable
    batch = enumerate_mutants(spec)
    by_id = {m.mutant_id: m.model for m in batch}
    assert _changed_elements(spec, by_id["transition-delete:next_state[q0,inc]"]) == {
        ("arc", "q0", "inc")
    }
    assert _changed_elements(spec, by_id["case-output-swap:functions[inc].cases[1].output=z"]) == {
        ("case", "inc", 1)
    }
    both = replace(by_id["transition-delete:next_state[q0,inc]"],
                   functions=with_case(spec, "reset", 0, mem_next="1"))
    assert _changed_elements(spec, both) == {("arc", "q0", "inc"), ("case", "reset", 0)}


# --- shipped models, nondeterministic machines, runs that stop ------------------


def test_delta_scores_equal_full_replay_on_shipped_machines(
    monkeypatch, counter_testable, counter
):
    for model in (counter_testable, counter):
        batch = enumerate_mutants(model)
        hand_made = non_local_mutants(model)
        for k in (0, 1, 2):
            suite = build_w_suite(model, k)
            for variant in (suite, edited(suite, k, every=2)):
                assert_same_scores(monkeypatch, model, list(batch) + hand_made, variant)


def branching_machine(seed):
    """A valid machine whose arcs may have several targets and whose
    functions may share inputs: runs branch and outputs repeat."""
    rng = random.Random(f"branching:{seed}")
    states = [f"q{i}" for i in range(rng.randint(2, 3))]
    inputs = ["a", "b"]
    functions = {}
    for j in range(3):
        sym = rng.choice(inputs)
        functions[f"f{j}"] = CaseFunction(f"f{j}", [
            Case.build("?m where ?m < 2", sym, rng.choice(["x", "y"]), "(?m + 1) % 3"),
            Case.build("?m where ?m >= 2", sym, rng.choice(["x", "y"]), f"{rng.randrange(3)}"),
        ])
    next_state = {}
    for q in states:
        for f in rng.sample(sorted(functions), 2):
            next_state[(q, f)] = tuple(sorted(rng.sample(states, rng.randint(1, 2))))
    model = Sxm(
        name=f"branching{seed}",
        inputs=frozenset(inputs),
        outputs=frozenset({"x", "y"}),
        states=frozenset(states),
        initial_states=frozenset({states[0]}),
        terminal_states=frozenset(states[: rng.randint(1, len(states))]),
        memory_domain=MemoryDomain("range", low=0, high=2),
        initial_memory=0,
        functions=functions,
        next_state=next_state,
    )
    assert not validate_sxm(model)
    return model


@pytest.mark.parametrize("seed", range(12))
def test_delta_scores_equal_full_replay_on_nondeterministic_machines(monkeypatch, seed):
    model = branching_machine(seed)
    batch = list(enumerate_mutants(model)) + non_local_mutants(model)
    suite = words_suite(model, 4)
    for variant in (suite, edited(suite, seed, every=4)):
        assert_same_scores(monkeypatch, model, batch, variant)
        # a bound the spec's own run exceeds on some cases
        assert_same_scores(monkeypatch, model, batch, variant, branch_bound=2)


def test_delta_scores_equal_full_replay_on_messy_machines(monkeypatch):
    checked = 0
    for seed in range(60):
        model = random_messy_sxm(seed)
        if validate_sxm(model) or not enumerate_mutants(model).mutants:
            continue
        suite = words_suite(model, 3)
        variant = edited(suite, seed, every=3)
        assert_same_scores(monkeypatch, model, enumerate_mutants(model), variant)
        checked += 1
    assert checked >= 10


def term_error_machine():
    """An open domain hides a modulo by zero: ``d`` takes memory 1 to 0,
    where ``v`` fails."""
    functions = {
        "dec": CaseFunction("dec", [Case.build("?m", "d", "x", "?m - 1")]),
        "div": CaseFunction("div", [Case.build("?m", "v", "y", "5 % ?m")]),
        "inc": CaseFunction("inc", [Case.build("?m", "i", "z", "?m + 1")]),
    }
    model = Sxm(
        name="fragile",
        inputs=frozenset({"d", "v", "i"}),
        outputs=frozenset({"x", "y", "z"}),
        states=frozenset({"q0", "q1"}),
        initial_states=frozenset({"q0"}),
        terminal_states=frozenset({"q0", "q1"}),
        memory_domain=MemoryDomain("open", sample=(1, 2)),
        initial_memory=1,
        functions=functions,
        next_state={("q0", "dec"): ("q1",), ("q1", "div"): ("q0",), ("q0", "inc"): ("q0",),
                    ("q1", "inc"): ("q1",), ("q0", "div"): ("q0",)},
    )
    assert not validate_sxm(model)
    return model


def test_a_spec_run_that_raises_is_replayed_for_every_mutant(monkeypatch):
    model = term_error_machine()
    cases = [SuiteCase(w, o) for w, o in zip(
        [(), ("i",), ("i", "d"), ("v",)], replay_outputs(model, [(), ("i",), ("i", "d"), ("v",)]))]
    cases += [SuiteCase(("d", "v"), (("x", "y"),)), SuiteCase(("i", "v"), (("z", "y"),))]
    suite = Suite(tuple(cases), {"method": "hand", "k": 0})
    with pytest.raises(TermError):
        list(replay_outputs(model, suite.inputs()))
    batch = list(enumerate_mutants(model)) + non_local_mutants(model)
    assert_same_scores(monkeypatch, model, batch, suite)
    assert_same_scores(monkeypatch, model, batch, edited(suite, 0, every=2))


# --- structural keys ----------------------------------------------------------


def assert_keys_partition_like_json(models):
    by_key, by_json = {}, {}
    for idx, model in enumerate(models):
        by_key.setdefault(_model_key(model), []).append(idx)
        by_json.setdefault(reference_model_key(model), []).append(idx)
    assert sorted(by_key.values()) == sorted(by_json.values())


def test_keys_agree_with_json_on_every_criterion_5_candidate(criterion_5):
    for model, _, _ in criterion_5:
        candidates = [model] + [m for _, _, m in _sxm_candidates(model, SXM_OPERATORS)]
        reloaded = [sxm_from_dict(sxm_to_dict(m)) for m in candidates]
        assert_keys_partition_like_json(candidates + reloaded)


def test_keys_agree_with_json_on_p_system_candidates(ps2):
    candidates = [ps2] + [m for _, _, m in _psystem_candidates(ps2, PSYSTEM_OPERATORS)]
    reloaded = [psystem_from_dict(psystem_to_dict(m)) for m in candidates]
    assert_keys_partition_like_json(candidates + reloaded)


def test_keys_agree_with_json_on_multiset_spellings(counter_testable):
    joined, split = Multiset({"ab": 1}), Multiset({"a": 1, "b": 1})
    domain = MemoryDomain("set", values=(joined, ("mset", "ab"), 1, "1"))
    machines = [
        replace(counter_testable, memory_domain=domain, initial_memory=value)
        for value in (joined, split, ("mset", "ab"), 1, "1", (joined,), (split,))
    ] + [
        replace(counter_testable, memory_domain=MemoryDomain("set", values=(split,))),
        replace(counter_testable, memory_domain=MemoryDomain("set", values=(joined,))),
        replace(counter_testable, memory_domain=MemoryDomain("open", sample=(joined,))),
        replace(counter_testable, memory_domain=MemoryDomain("range", low=0, high=3)),
        replace(counter_testable, memory_domain=MemoryDomain("range", values=(9,), low=0, high=3)),
    ]
    assert_keys_partition_like_json(machines)
    assert _model_key(machines[0]) == _model_key(machines[1])
    assert _model_key(machines[0]) != _model_key(machines[2])

    def system(lhs, rhs_target=1):
        return PSystem("ab", frozenset({"a", "b", "ab"}), {1: None, 2: 1},
                       (Multiset({"ab": 1}), Multiset()),
                       (PRule("r1", 1, lhs, (("a", 2),)), PRule("r2", 2, Multiset({"a": 1}),
                                                                (("b", rhs_target),))))

    systems = [system(joined), system(split), system(joined, "here"), system(Multiset({"a": 2}))]
    assert_keys_partition_like_json(systems)
    assert _model_key(systems[0]) == _model_key(systems[1])


def reference_enumerate(model):
    """(mutant ids, invalid, duplicates), deduplicating by JSON text."""
    if model.kind == "sxm":
        candidates, violations = _sxm_candidates(model, SXM_OPERATORS), validate_sxm
    else:
        candidates, violations = _psystem_candidates(model, PSYSTEM_OPERATORS), validate_psystem
    seen, ids, invalid, duplicates = {reference_model_key(model)}, [], 0, 0
    for operator, location, mutated in candidates:
        if violations(mutated):
            invalid += 1
        elif reference_model_key(mutated) in seen:
            duplicates += 1
        else:
            seen.add(reference_model_key(mutated))
            ids.append(f"{operator}:{location}")
    return sorted(ids), invalid, duplicates


def test_enumeration_keeps_what_json_keys_keep(criterion_5, ps2, counter_testable):
    doubled = replace(counter_testable, next_state={
        **counter_testable.next_state, ("q0", "inc"): ("q0", "q0")})
    for model in [m for m, _, _ in criterion_5[:20]] + [ps2, counter_testable, doubled]:
        batch = enumerate_mutants(model)
        got = (sorted(m.mutant_id for m in batch), batch.invalid, batch.duplicates)
        assert got == reference_enumerate(model), model.name
