import itertools

import pytest

from gen_models import random_dft_sxm, reachable_states
from machine_walk import fundamental_test_inputs

from heterotest.errors import (
    DftFailure,
    HeterotestError,
    NondeterministicInput,
    NotMinimalError,
    UnreachableStateError,
)
from heterotest.model_io import canonical_json, suite_to_dict
from heterotest.sxm import Automaton, run_outputs
from heterotest.testgen import (
    build_w_suite,
    characterization_set,
    generate_sxm_test_suite,
    minimize_automaton,
    separates,
    state_cover,
    w_method_phi_sequences,
)


def aut(arcs, initial="q0", terminal=None, states=None):
    states = set(states or set()) | {initial}
    for src, _, dst in arcs:
        states |= {src, dst}
    return Automaton(
        states=frozenset(states),
        initial=frozenset({initial}),
        terminal=frozenset(terminal if terminal is not None else states),
        arcs=frozenset(arcs),
    )


class TestMinimize:
    def test_one_state_loop_is_fixed_point(self):
        a = aut({("q0", "f", "q0")})
        m = minimize_automaton(a)
        assert len(m.states) == 1
        assert m.arcs == frozenset({("q0", "f", "q0")})

    def test_two_equivalent_states_merge(self):
        # Hand-run partition refinement: q1 and q2 have identical rows
        # (both terminal, both a-loop to themselves via q0-symmetry), so
        # the 3-state automaton collapses to 2 states.
        a = aut({
            ("q0", "a", "q1"),
            ("q0", "b", "q2"),
            ("q1", "a", "q1"),
            ("q2", "a", "q2"),
        })
        m = minimize_automaton(a)
        assert len(m.states) == 2

    def test_unreachable_state_pruned(self):
        a = aut({("q0", "a", "q0"), ("dead", "a", "dead")}, states={"dead"})
        m = minimize_automaton(a)
        assert len(m.states) == 1

    def test_idempotent(self):
        for seed in range(8):
            from heterotest.sxm import associated_automaton

            a = associated_automaton(random_dft_sxm(seed, max_states=4))
            once = minimize_automaton(a)
            twice = minimize_automaton(once)
            assert (len(once.states), sorted(once.arcs)) == (len(twice.states), sorted(twice.arcs))

    def test_acceptance_difference_kept(self):
        a = aut({("q0", "a", "q1"), ("q1", "a", "q0")}, terminal={"q0"})
        assert len(minimize_automaton(a).states) == 2

    def test_nondeterministic_rejected(self):
        a = aut({("q0", "a", "q0"), ("q0", "a", "q1")})
        with pytest.raises(NondeterministicInput):
            minimize_automaton(a)


class TestStateCover:
    def test_single_state(self):
        assert state_cover(aut({("q0", "a", "q0")})) == {()}

    def test_chain(self):
        a = aut({("q0", "fa", "q1"), ("q1", "fb", "q2")})
        assert state_cover(a) == {(), ("fa",), ("fa", "fb")}

    def test_lexicographic_tie_break(self):
        a = aut({("q0", "fa", "q1"), ("q0", "fb", "q1")})
        assert state_cover(a) == {(), ("fa",)}

    def test_prefix_closed_property(self):
        for seed in range(10):
            from heterotest.sxm import associated_automaton

            a = minimize_automaton(associated_automaton(random_dft_sxm(seed)))
            cover = state_cover(a)
            for seq in cover:
                for cut in range(len(seq)):
                    assert seq[:cut] in cover

    def test_unreachable_state_error(self):
        a = aut({("q0", "a", "q0"), ("dead", "a", "dead")}, states={"dead"})
        with pytest.raises(UnreachableStateError):
            state_cover(a)


class TestCharacterizationSet:
    def test_single_state(self):
        assert characterization_set(aut({("q0", "a", "q0")})) == {()}

    def test_defined_undefined_separation(self):
        # fa is defined at both states; fb only at q1, so W must be {fb}
        a = aut({("q0", "fa", "q1"), ("q1", "fa", "q1"), ("q1", "fb", "q1")})
        assert characterization_set(a) == {("fb",)}

    def test_three_state_cycle_all_pairs_separated(self):
        a = aut({
            ("q0", "fa", "q1"),
            ("q1", "fb", "q2"),
            ("q2", "fc", "q0"),
        })
        w = characterization_set(a)
        assert len(w) <= 2
        for u, v in itertools.combinations(sorted(a.states), 2):
            assert any(separates(a, u, v, seq) for seq in w)

    def test_inseparable_states_error(self):
        a = aut({("q0", "a", "q1"), ("q0", "b", "q2"), ("q1", "c", "q1"), ("q2", "c", "q2")})
        with pytest.raises(NotMinimalError):
            characterization_set(a)

    def test_all_pairs_separated_on_seeded_machines(self):
        from heterotest.sxm import associated_automaton

        for seed in range(8):
            a = minimize_automaton(associated_automaton(random_dft_sxm(seed)))
            w = characterization_set(a)
            for u, v in itertools.combinations(sorted(a.states), 2):
                assert any(separates(a, u, v, seq) for seq in w)


class TestWMethod:
    def test_one_state_one_label_k0(self):
        a = aut({("q0", "f", "q0")})
        assert w_method_phi_sequences(a, 0) == {(), ("f",)}

    def test_cardinality_bound(self):
        for seed in range(6):
            from heterotest.sxm import associated_automaton

            a = minimize_automaton(associated_automaton(random_dft_sxm(seed)))
            c = state_cover(a)
            w = characterization_set(a)
            p = len(a.labels())
            seqs = w_method_phi_sequences(a, 0)
            assert len(seqs) <= len(c) * (p + 1) * len(w)

    def test_matches_independent_recomputation(self):
        a = aut({("q0", "fa", "q1"), ("q1", "fb", "q2")})
        k = 1
        c = state_cover(a)
        w = characterization_set(a)
        labels = sorted({label for _, label, _ in a.arcs})
        middle = {()}
        for n in range(1, k + 2):
            middle |= set(itertools.product(labels, repeat=n))
        expected = {cs + m + ws for cs in c for m in middle for ws in w}
        assert w_method_phi_sequences(a, k) == expected


class TestFundamentalTestInputs:
    def test_empty_sequence(self, counter):
        assert fundamental_test_inputs(counter, ()) == ()

    def test_feasible_walk(self, counter):
        assert fundamental_test_inputs(counter, ("inc", "reset")) == ("i", "r")

    def test_infeasible_step_falls_back_to_smallest_input(self, counter):
        assert fundamental_test_inputs(counter, ("inc",) * 4) == ("i", "i", "i", "i")


class TestSuiteGeneration:
    def test_counter_suite_self_consistent(self, counter_testable):
        suite = generate_sxm_test_suite(counter_testable, 0)
        assert suite.cases
        assert any(len(set(case.input)) > 1 for case in suite.cases)
        for case in suite.cases:
            assert run_outputs(counter_testable, case.input) == case.expected_outputs

    def test_one_state_one_function_small_suite(self):
        model = random_dft_sxm(0, max_states=2)
        # the k=0 expansion never exceeds the W-method bound after prefix
        # closure of a 1-state machine: {eps, f} only
        from heterotest.sxm import Case, CaseFunction, MemoryDomain, Sxm

        tiny = Sxm(
            name="tiny",
            inputs=frozenset({"x"}),
            outputs=frozenset({"o"}),
            states=frozenset({"q0"}),
            initial_states=frozenset({"q0"}),
            terminal_states=frozenset({"q0"}),
            memory_domain=MemoryDomain(kind="set", values=(0,)),
            initial_memory=0,
            functions={"f": CaseFunction("f", [Case.build("?m", "x", "o", "?m")])},
            next_state={("q0", "f"): ("q0",)},
        )
        suite = generate_sxm_test_suite(tiny, 0)
        assert len(suite.cases) <= 2

    def test_dft_failure_carries_report(self, counter):
        with pytest.raises(DftFailure) as err:
            generate_sxm_test_suite(counter, 0)
        assert not err.value.report.complete

    def test_suite_bytes_reproducible(self, counter_testable):
        one = canonical_json(suite_to_dict(generate_sxm_test_suite(counter_testable, 1)))
        two = canonical_json(suite_to_dict(generate_sxm_test_suite(counter_testable, 1)))
        assert one == two

    def test_metadata_records_method_and_sizes(self, counter_testable):
        suite = generate_sxm_test_suite(counter_testable, 0)
        assert suite.metadata["method"] == "W"
        assert suite.metadata["k"] == 0
        assert suite.metadata["state_cover_size"] >= 1
        assert suite.metadata["characterization_size"] >= 1


# --- reference implementations ------------------------------------------------
#
# ``minimize_automaton`` once named the quotient's states with its own
# breadth-first walk and stopped the Moore loop on an equal partition, and
# ``check_dft`` scanned the arcs for conflicts itself.  The copies below are
# those implementations verbatim; the new code must agree with them.


def reference_minimize_automaton(a: Automaton) -> Automaton:
    from collections import deque
    from typing import Dict

    from heterotest.testgen import _require_deterministic

    _require_deterministic(a)
    keep = reachable_states(a)
    a = Automaton(keep, a.initial & keep, a.terminal & keep,
                  frozenset(arc for arc in a.arcs if arc[0] in keep and arc[2] in keep))
    labels = a.labels()
    trans = a.transitions

    # Moore-style refinement; undefined transitions are part of the signature
    # because a missing arc is observable (the machine stops producing output).
    def partition_of(assignment: Dict[str, int]) -> frozenset:
        blocks: Dict[int, set] = {}
        for q, b in assignment.items():
            blocks.setdefault(b, set()).add(q)
        return frozenset(frozenset(members) for members in blocks.values())

    block: Dict[str, int] = {q: (1 if q in a.terminal else 0) for q in a.states}
    while True:
        signatures: Dict[str, tuple] = {}
        for q in a.states:
            sig = (block[q],) + tuple(
                block.get(trans.get((q, label))) if (q, label) in trans else None
                for label in labels
            )
            signatures[q] = sig
        renumber = {sig: idx for idx, sig in enumerate(sorted(set(signatures.values()), key=repr))}
        new_block = {q: renumber[signatures[q]] for q in a.states}
        if partition_of(new_block) == partition_of(block):
            break
        block = new_block

    initial = next(iter(a.initial))
    # Breadth-first canonical names over the quotient.
    name: Dict[int, str] = {}
    order: list[int] = []

    def visit(b: int) -> None:
        if b not in name:
            name[b] = f"q{len(name)}"
            order.append(b)

    repr_of: Dict[int, str] = {}
    for q in sorted(a.states):
        repr_of.setdefault(block[q], q)

    visit(block[initial])
    queue = deque([block[initial]])
    while queue:
        b = queue.popleft()
        q = repr_of[b]
        for label in labels:
            if (q, label) in trans:
                target = block[trans[(q, label)]]
                if target not in name:
                    visit(target)
                    queue.append(target)

    arcs = set()
    for (q, label), dst in trans.items():
        arcs.add((name[block[q]], label, name[block[dst]]))
    terminal = {name[block[q]] for q in a.terminal}
    return Automaton(
        states=frozenset(name.values()),
        initial=frozenset({name[block[initial]]}),
        terminal=frozenset(terminal),
        arcs=frozenset(arcs),
    )


def reference_arc_issues(model) -> list:
    from heterotest.sxm import associated_automaton

    arc_issues: list[str] = []
    seen_arcs = {}
    for src, label, dst in sorted(associated_automaton(model).arcs):
        if (src, label) in seen_arcs and seen_arcs[(src, label)] != dst:
            arc_issues.append(f"associated automaton has two {label}-arcs from state {src}")
        seen_arcs[(src, label)] = dst
    return arc_issues


def reference_witness(a: Automaton):
    if len(a.initial) != 1:
        return ("<initial>", ",".join(sorted(a.initial)))
    seen = {}
    for src, label, dst in sorted(a.arcs):
        if (src, label) in seen and seen[(src, label)] != dst:
            return (src, label)
        seen[(src, label)] = dst
    return None


def reference_state_cover(a: Automaton) -> set:
    from heterotest.testgen import _cover_map, _require_deterministic

    _require_deterministic(a)
    missing = a.states - reachable_states(a)
    if missing:
        raise UnreachableStateError(f"unreachable states: {sorted(missing)}")
    return set(_cover_map(a).values())


def outcome(function, *args):
    """A function's result, or the type and message of its error."""
    try:
        return function(*args)
    except NondeterministicInput as exc:
        return ("nondeterministic", str(exc))
    except UnreachableStateError as exc:
        return ("unreachable", str(exc))


def random_automaton(seed: int, deterministic: bool = True) -> Automaton:
    """1-9 states, 1-4 labels, partial arcs and random terminals; a
    nondeterministic one may have several initial states and up to three
    targets per (state, label)."""
    import random

    rng = random.Random(f"automaton:{seed}:{deterministic}")
    states = [f"s{i}" for i in range(rng.randint(1, 9))]
    labels = [f"l{j}" for j in range(rng.randint(1, 4))]
    arcs = set()
    for src in states:
        for label in labels:
            if rng.random() < 0.7:
                fanout = 1 if deterministic or rng.random() < 0.7 else rng.randint(2, 3)
                for dst in rng.sample(states, min(fanout, len(states))):
                    arcs.add((src, label, dst))
    initial = {states[0]}
    if not deterministic and rng.random() < 0.2:
        initial |= set(rng.sample(states, rng.randint(1, len(states))))
    return Automaton(
        states=frozenset(states),
        initial=frozenset(initial),
        terminal=frozenset(q for q in states if rng.random() < 0.5),
        arcs=frozenset(arcs),
    )


def _minimal_model_automata():
    from gen_models import random_csxm_system, random_messy_sxm

    from heterotest.csxms import build_product_sxm
    from heterotest.sxm import associated_automaton

    models = [random_dft_sxm(seed) for seed in range(20)]
    models += [random_messy_sxm(seed) for seed in range(60)]
    models += [build_product_sxm(random_csxm_system(seed)) for seed in range(6)]
    return [associated_automaton(model) for model in models]


class TestAgainstReferences:
    def test_minimize_matches_reference_on_random_automata(self):
        merged = 0
        for seed in range(2000):
            a = random_automaton(seed)
            minimal = minimize_automaton(a)
            assert minimal == reference_minimize_automaton(a), seed
            merged += len(minimal.states) < len(a.states)
        assert merged > 500  # the sample exercises the refinement

    def test_minimize_matches_reference_on_model_automata(self):
        for a in _minimal_model_automata():
            assert outcome(minimize_automaton, a) == outcome(reference_minimize_automaton, a)

    def test_minimal_automata_are_fixed_points(self):
        for a in _minimal_model_automata():
            if a.nondeterministic_witness() is None:
                minimal = minimize_automaton(a)
                assert minimize_automaton(minimal) == reference_minimize_automaton(minimal)

    def test_witness_and_state_cover_match_reference(self):
        kinds = {}
        for seed in range(2000):
            for deterministic in (True, False):
                a = random_automaton(seed, deterministic)
                assert a.nondeterministic_witness() == reference_witness(a), seed
                result = outcome(state_cover, a)
                assert result == outcome(reference_state_cover, a), seed
                kind = result[0] if isinstance(result, tuple) else "cover"
                kinds[kind] = kinds.get(kind, 0) + 1
        # the sample reaches a cover, an unreachable state and nondeterminism
        assert len(kinds) == 3 and min(kinds.values()) > 100, kinds

    def test_arc_issues_match_reference(self):
        from gen_models import random_messy_sxm

        from heterotest.records import replace

        from heterotest.dft import check_dft

        several = 0
        for seed in range(300):
            base = random_messy_sxm(seed)
            # widen every next-state entry to a seeded set of targets
            states = sorted(base.states)
            next_state = {
                key: tuple(states[: 1 + (seed + i) % len(states)])
                for i, key in enumerate(sorted(base.next_state))
            }
            for model in (base, replace(base, next_state=next_state)):
                issues = list(check_dft(model).structural_issues)
                expected = reference_arc_issues(model)
                assert [i for i in issues if "arcs from state" in i] == expected, seed
                several += len(expected) > len(set(expected))
        assert several > 10  # one state and label with three or more targets


# --- the W-method suite walk ----------------------------------------------------
#
# ``build_w_suite`` once listed every word of C . (labels^{<=k+1} u {eps}) . W,
# translated each one from the initial memory by the prefix-sharing replay,
# and closed the translations under prefixes.  The copies below are that
# build verbatim; the walk must give equal cases and metadata.


def reference_w_method_sequences(a: Automaton, k: int, cover: set, w: set) -> set:
    if k < 0:
        raise ValueError("k must be >= 0")
    labels = a.labels()
    middle: set = {()}
    layer: set = {()}
    for _ in range(k + 1):
        layer = {seq + (label,) for seq in layer for label in labels}
        middle |= layer
    return {c + m + suffix for c in cover for m in middle for suffix in w}


def reference_translate(model, sequences):
    """(inputs, fell back) for each function sequence, in order."""
    from machine_walk import replay_sequences

    inputs = sorted(model.inputs)

    def advance(state, fn_name):
        memory, fallback, chosen = state
        if not fallback:
            fn = model.functions[fn_name]
            for sym in inputs:
                result = fn.evaluate(memory, sym)
                if result is not None:
                    return result[1], False, chosen + (sym,)
        return memory, True, chosen + (inputs[0],)

    for _, fallback, chosen in replay_sequences(
        sequences, (model.initial_memory, False, ()), advance
    ):
        yield chosen, fallback


def reference_build_w_suite(model, k: int, metadata=None):
    from heterotest.sxm import TestCase, TestSuite, associated_automaton, replay_outputs

    minimal = minimize_automaton(associated_automaton(model))
    cover = state_cover(minimal)
    w = characterization_set(minimal)
    sequences = sorted(reference_w_method_sequences(minimal, k, cover, w))
    inputs: set = set()
    fallback_count = 0
    for input_seq, fell_back in reference_translate(model, sequences):
        if fell_back:
            fallback_count += 1
        for cut in range(len(input_seq) + 1):
            inputs.add(input_seq[:cut])
    ordered = sorted(inputs)
    cases = [
        TestCase(input_seq, outputs)
        for input_seq, outputs in zip(ordered, replay_outputs(model, ordered))
    ]
    meta = {
        "method": "W",
        "k": k,
        "state_cover_size": len(cover),
        "characterization_size": len(w),
        "phi_sequences": len(sequences),
        "fallback_sequences": fallback_count,
        "prefix_closed": True,
    }
    if metadata:
        meta.update(metadata)
    return TestSuite(tuple(cases), meta)


def suite_outcome(build, model, k):
    """A suite's cases and metadata, or the type and message of its error."""
    try:
        suite = build(model, k)
    except HeterotestError as exc:
        return (type(exc).__name__, str(exc))
    return suite.cases, suite.metadata


def assert_builds_agree(model, k):
    walked = suite_outcome(build_w_suite, model, k)
    assert walked == suite_outcome(reference_build_w_suite, model, k)
    return walked


def _products():
    """The products of the systems criterion 4 scans, each of whose
    extended components passes the design-for-test checks."""
    from gen_models import random_csxm_system

    from heterotest.csxms import build_product_sxm, check_csxm_dft, extend_for_testing

    for seed in range(55):
        system = random_csxm_system(seed)
        if all(check_csxm_dft(comp).all_pass() for comp in extend_for_testing(system).components):
            yield build_product_sxm(system)


class TestWalkAgainstReference:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_dft_machines(self, k):
        for seed in range(50):
            assert_builds_agree(random_dft_sxm(seed), k)

    def test_messy_machines(self):
        from gen_models import random_messy_sxm

        generated = 0
        for seed in range(80):
            for k in (0, 1):
                generated += not isinstance(assert_builds_agree(random_messy_sxm(seed), k)[0], str)
        assert generated > 100

    def test_criterion_4_products(self):
        fell_back = 0
        for product in _products():
            for k in (0, 1):
                _, metadata = assert_builds_agree(product, k)
                fell_back += metadata["fallback_sequences"] > 0
        assert fell_back > 10

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_counter_testable(self, counter_testable, k):
        assert_builds_agree(counter_testable, k)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_ps2_heterotic_product(self, ps2_heterotic, k):
        from heterotest.csxms import build_product_sxm

        product = build_product_sxm(ps2_heterotic.as_system)
        _, metadata = assert_builds_agree(product, k)
        assert metadata["fallback_sequences"] > 0.95 * metadata["phi_sequences"]

    def test_metadata_is_merged_last(self, counter_testable):
        extra = {"k": "caller's", "system": "s"}
        walked = build_w_suite(counter_testable, 1, metadata=extra)
        assert walked == reference_build_w_suite(counter_testable, 1, metadata=extra)


def _w_set_states(a: Automaton, k: int):
    """Every state of the W-set automaton reachable from its start, with
    its successors."""
    from heterotest.testgen import _w_set_automaton

    start, step, accepting = _w_set_automaton(a, k, state_cover(a), characterization_set(a))
    successors = {}
    queue = [start]
    while queue:
        state = queue.pop()
        if state in successors:
            continue
        successors[state] = [nxt for label in a.labels() if (nxt := step(state, label))]
        queue += successors[state]
    return successors, accepting


def test_every_reachable_w_set_state_reaches_an_accepted_word():
    # the walk counts every node it meets as a case, which is right only
    # when each node is the prefix of an accepted word
    checked = 0
    for a in (minimize_automaton(random_automaton(seed)) for seed in range(200)):
        for k in (0, 1, 2):
            successors, accepting = _w_set_states(a, k)
            live = {state for state in successors if accepting(state)}
            grew = True
            while grew:
                grew = False
                for state, nexts in successors.items():
                    if state not in live and any(n in live for n in nexts):
                        live.add(state)
                        grew = True
            assert live == successors.keys()
            checked += len(successors)
    assert checked > 5000


def test_walk_words_are_the_w_method_set():
    # the accepted words of the walked automaton, listed, are the set
    from heterotest.testgen import _w_set_automaton

    for seed in range(300):
        a = minimize_automaton(random_automaton(seed))
        for k in (0, 1):
            start, step, accepting = _w_set_automaton(
                a, k, state_cover(a), characterization_set(a)
            )
            words = set()
            stack = [((), start)]
            while stack:
                word, state = stack.pop()
                if accepting(state):
                    words.add(word)
                for label in a.labels():
                    nxt = step(state, label)
                    if nxt is not None:
                        stack.append((word + (label,), nxt))
            assert words == w_method_phi_sequences(a, k), seed


@pytest.mark.parametrize("k", [0, 1, 2])
def test_case_cap_admits_a_suite_of_exactly_its_size(monkeypatch, counter_testable, k):
    from heterotest import testgen
    from heterotest.errors import ExplosionBoundExceeded

    cases = len(build_w_suite(counter_testable, k).cases)
    monkeypatch.setattr(testgen, "CASE_CAP", cases)
    assert len(build_w_suite(counter_testable, k).cases) == cases
    monkeypatch.setattr(testgen, "CASE_CAP", cases - 1)
    with pytest.raises(ExplosionBoundExceeded) as err:
        build_w_suite(counter_testable, k)
    assert str(err.value) == (
        f"more than {cases - 1} cases in the W-method suite at k={k} "
        f"({cases} counted before stopping)"
    )
