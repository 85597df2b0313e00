"""Differential checks of the prefix-sharing replay engine.

The per-sequence loops the engine replaced are kept here as the reference:
every sequence of a list is run from the initial configuration (machine
runs) or the initial memory (function-sequence translation).  The engine
must give the same results for any order of the list, raise the same
branch-bound error at the same sequence, and score mutants with the same
verdicts and witnesses.
"""

import random

import pytest

from gen_models import random_csxm_system, random_dft_sxm, random_messy_sxm
from heterotest import sxm
from heterotest.csxms import build_product_sxm, extend_for_testing
from heterotest.errors import BranchBoundExceeded
from heterotest.model_io import suite_from_dict, suite_to_dict
from heterotest.mutation import enumerate_mutants, score_sxm_suite
from heterotest.sxm import (
    Case,
    CaseFunction,
    MemoryDomain,
    Sxm,
    SxmConfiguration,
    associated_automaton,
    replay_outputs,
    replay_sequences,
    sxm_step,
)
from heterotest.testgen import (
    build_w_suite,
    fundamental_test_inputs,
    minimize_automaton,
    prune_unreachable,
    w_method_phi_sequences,
)
from test_testgen import reference_translate


def reference_run_outputs(model, input_seq, branch_bound=256):
    stream = tuple(input_seq)
    frontier = [
        SxmConfiguration(model.initial_memory, q, stream, ())
        for q in sorted(model.initial_states)
    ]
    results = set()
    while frontier:
        if len(frontier) > branch_bound:
            raise BranchBoundExceeded(
                f"more than {branch_bound} simultaneous branches", frontier
            )
        next_frontier = []
        for cfg in frontier:
            if not cfg.remaining_input:
                if cfg.state in model.terminal_states:
                    results.add(cfg.output_so_far)
                continue
            next_frontier.extend(sxm_step(model, cfg))
        frontier = sorted(set(next_frontier), key=SxmConfiguration.key)
    return tuple(sorted(results))


def reference_translation(model, seq):
    inputs = sorted(model.inputs)
    memory = model.initial_memory
    chosen = []
    fallback = False
    for fn_name in seq:
        if fallback:
            chosen.append(inputs[0])
            continue
        fn = model.functions[fn_name]
        step_input = None
        for sym in inputs:
            result = fn.evaluate(memory, sym)
            if result is not None:
                step_input = sym
                memory = result[1]
                break
        if step_input is None:
            fallback = True
            chosen.append(inputs[0])
        else:
            chosen.append(step_input)
    return tuple(chosen), fallback


def reference_suite_inputs(model, k):
    """Sorted prefix-closed inputs and fallback count of the W suite."""
    minimal = minimize_automaton(prune_unreachable(associated_automaton(model)))
    inputs = set()
    fallbacks = 0
    for seq in sorted(w_method_phi_sequences(minimal, k)):
        input_seq, fell_back = reference_translation(model, seq)
        fallbacks += fell_back
        inputs.update(input_seq[:cut] for cut in range(len(input_seq) + 1))
    return sorted(inputs), fallbacks


def orders(sequences, seed):
    shuffled = list(sequences)
    random.Random(seed).shuffle(shuffled)
    return (list(sequences), list(reversed(sequences)), shuffled)


def check_suite_replay(model, suite, seed):
    """The suite's expected outputs, and replay in three orders, equal the
    reference run of each case."""
    expected = {case.input: reference_run_outputs(model, case.input) for case in suite.cases}
    assert {case.input: case.expected_outputs for case in suite.cases} == expected
    for order in orders(suite.inputs(), seed):
        assert list(replay_outputs(model, order)) == [expected[case] for case in order]


@pytest.fixture(scope="module")
def machines():
    return [random_dft_sxm(seed) for seed in range(50)] + [
        random_messy_sxm(seed) for seed in range(50)
    ]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_replay_matches_reference_on_machine_w_suites(machines, k):
    for seed, model in enumerate(machines):
        suite = build_w_suite(model, k)
        inputs, fallbacks = reference_suite_inputs(model, k)
        assert list(suite.inputs()) == inputs
        assert suite.metadata["fallback_sequences"] == fallbacks
        check_suite_replay(model, suite, seed)


@pytest.mark.parametrize("seed, ks", [(0, (0, 1, 2)), (2, (0, 1)), (4, (0, 1))])
def test_replay_matches_reference_on_extended_products(seed, ks):
    product = build_product_sxm(extend_for_testing(random_csxm_system(seed)))
    for k in ks:
        check_suite_replay(product, build_w_suite(product, k), seed)


def test_translation_matches_reference_on_ps2_heterotic_product(ps2_heterotic):
    # the prefix-sharing translation of the former suite build, which is
    # the reference of the suite walk in tests/test_testgen.py
    product = build_product_sxm(extend_for_testing(ps2_heterotic.as_system))
    minimal = minimize_automaton(prune_unreachable(associated_automaton(product)))
    for k in (0, 1, 2):
        sequences = sorted(w_method_phi_sequences(minimal, k))
        reference = [reference_translation(product, seq) for seq in sequences]
        assert list(reference_translate(product, sequences)) == reference
        if k < 2:
            by_seq = dict(zip(sequences, reference))
            for order in orders(sequences, k)[1:]:
                assert list(reference_translate(product, order)) == [by_seq[seq] for seq in order]
            assert [fundamental_test_inputs(product, seq) for seq in sequences] == [
                inputs for inputs, _ in reference
            ]


def doubling_machine(initial_states=("q0",)):
    """Every x doubles the branches; y keeps their number."""
    functions = {
        "f1": CaseFunction("f1", [Case.build("?m", "x", "a", "?m")]),
        "f2": CaseFunction("f2", [Case.build("?m", "x", "b", "?m")]),
        "g": CaseFunction("g", [Case.build("?m", "y", "c", "?m")]),
    }
    states = frozenset({"q0", "q1"})
    return Sxm(
        name="doubling",
        inputs=frozenset({"x", "y"}),
        outputs=frozenset({"a", "b", "c"}),
        states=states,
        initial_states=frozenset(initial_states),
        terminal_states=states,
        memory_domain=MemoryDomain("set", (0,)),
        initial_memory=0,
        functions=functions,
        next_state={
            ("q0", "f1"): ("q0",),
            ("q0", "f2"): ("q0",),
            ("q0", "g"): ("q0",),
            ("q1", "g"): ("q1",),
        },
    )


def first_error(outputs):
    """(values yielded before the error, the error)."""
    done = []
    with pytest.raises(BranchBoundExceeded) as err:
        for value in outputs:
            done.append(value)
    return done, err.value


@pytest.mark.parametrize(
    "sequences",
    [
        [(), ("x",), ("x", "x"), ("x", "x", "y"), ("x", "x", "y", "x"), ("y",)],
        [("x", "x", "y", "y"), ("x", "x", "y", "x", "y"), ("x",)],
        [("y", "x", "x", "x", "y")],
    ],
)
def test_branch_bound_raised_at_same_sequence_with_same_frontier(monkeypatch, sequences):
    model = doubling_machine()
    monkeypatch.setattr(sxm, "BRANCH_BOUND", 4)
    reference = first_error(reference_run_outputs(model, seq, 4) for seq in sequences)
    engine = first_error(replay_outputs(model, sequences))
    assert engine[0] == reference[0]
    assert str(engine[1]) == str(reference[1])
    assert engine[1].frontier == reference[1].frontier


def test_branch_bound_on_initial_layer_needs_a_sequence(monkeypatch):
    model = doubling_machine(initial_states=("q0", "q1"))
    monkeypatch.setattr(sxm, "BRANCH_BOUND", 1)
    assert list(replay_outputs(model, [])) == []
    reference = first_error(reference_run_outputs(model, seq, 1) for seq in [("y",)])
    engine = first_error(replay_outputs(model, [("y",)]))
    assert engine[0] == reference[0] == []
    assert engine[1].frontier == reference[1].frontier


def test_replay_sequences_advances_once_per_distinct_prefix():
    steps = []

    def advance(state, symbol):
        steps.append(state + symbol)
        return state + symbol

    sequences = ["", "a", "ab", "abc", "abd", "b", "ab"]
    assert list(replay_sequences(sequences, "", advance)) == sequences
    assert steps == ["a", "ab", "abc", "abd", "b", "a", "ab"]


def reference_witnesses(batch, suite):
    """Killed mutants and their witnesses by the per-case loop."""
    witnesses = {}
    for mutant in batch:
        for case in suite.cases:
            if reference_run_outputs(mutant.model, case.input) != case.expected_outputs:
                witnesses[mutant.mutant_id] = " ".join(case.input) or "<empty input>"
                break
    return witnesses


def test_scoring_witness_is_first_failing_case_in_file_order(counter_testable):
    doc = suite_to_dict(build_w_suite(counter_testable, 1))
    batch = enumerate_mutants(counter_testable)
    killed_by_order = []
    for cases in (doc["cases"], doc["cases"][::-1]):
        suite = suite_from_dict(dict(doc, cases=cases))
        report = score_sxm_suite(counter_testable, batch, suite)
        killed = {v.mutant_id: v.witness for v in report.per_mutant if v.verdict == "killed"}
        assert killed == reference_witnesses(batch, suite)
        killed_by_order.append(killed)
    forward, backward = killed_by_order
    assert forward.keys() == backward.keys() and forward != backward
