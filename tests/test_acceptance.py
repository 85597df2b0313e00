"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Tolerances are exact (zero) unless a runtime bound is
stated, in which case the bound is asserted too.
"""

import itertools
import json
import time
from collections import deque

import pytest
from gen_models import random_csxm_system, random_dft_sxm, random_messy_sxm
from product_walk import core_to_product, product_core_successors

from heterotest.cli import main
from heterotest.csxms import (
    Csxm,
    CsxmSystem,
    build_product_sxm,
    extend_for_testing,
    initial_system_core,
    system_core_successors,
)
from heterotest.dft import (
    check_dft,
    replay_completeness_witness,
    replay_determinism_witness,
    replay_distinguishability_witness,
)
from heterotest.heterotic import run_heterotic, simulator_oracle
from heterotest.model_io import canonical_json, htrace_to_dict
from heterotest.mutation import _reachable_within, enumerate_mutants, score_sxm_suite
from heterotest.sxm import MemoryDomain, run_outputs
from heterotest.testgen import generate_sxm_test_suite


def report(criterion, elapsed, detail=""):
    print(f"PASS criterion {criterion} ({elapsed:.2f}s) {detail}")


def test_criterion_1_ps2_reproduction(models_dir, tmp_path, capsys):
    started = time.monotonic()
    artifact = tmp_path / "traces.json"
    code = main([
        "simulate", str(models_dir / "ps2.json"),
        "--depth", "3", "--all-branches", "-o", str(artifact),
    ])
    elapsed = time.monotonic() - started
    capsys.readouterr()
    assert code == 0
    doc = json.loads(artifact.read_text())
    wanted = {
        "initial": {"1": "s", "2": "t"},
        "steps": [
            {"fired": {"1": {"r11": 1}, "2": {"r21": 1}}, "result": {"1": "abe", "2": "b"}},
            {"fired": {"1": {"r13": 1, "r15": 1}, "2": {}}, "result": {"1": "bcf", "2": "ab"}},
            {"fired": {"1": {"r14": 1}, "2": {"r22": 1}}, "result": {"1": "ccf", "2": "c"}},
        ],
        "halted": True,
    }
    assert wanted in doc["traces"]
    assert elapsed < 1.0
    report(1, elapsed, "paper computation reproduced exactly")


def test_criterion_2_ps2_coverage_test_set(models_dir, ps2, tmp_path, capsys):
    started = time.monotonic()
    artifact = tmp_path / "testset.json"
    code = main([
        "gen-tests", "psystem", str(models_dir / "ps2.json"),
        "--depth", "3", "-o", str(artifact),
    ])
    elapsed = time.monotonic() - started
    capsys.readouterr()
    assert code == 0
    doc = json.loads(artifact.read_text())
    assert doc["report"]["all_covered"]
    assert len(doc["report"]["rules"]) == 7
    assert {"1": "ccf", "2": "c"} in doc["members"]
    r12 = next(r for r in doc["report"]["rules"] if r["rule"] == "r12")
    assert r12["configuration"] == {"1": "bdf", "2": "b"}
    # divergence from the non-maximal step: (dbe,b) is not reachable at all
    reachable = _reachable_within(ps2, 3)
    assert ("dbe", "b") not in reachable
    assert ("bdf", "b") in reachable
    assert elapsed < 1.0
    report(2, elapsed, "all 7 rules covered; r12 witness is (bdf,b)")


def test_criterion_3_product_alphabet_arithmetic():
    started = time.monotonic()
    from heterotest.csxms import CsxmCase, CsxmCaseFunction

    def component(index, n_states):
        sym = "x" if index == 1 else "y"
        states = frozenset(f"s{index}{i}" for i in range(n_states))
        fn = CsxmCaseFunction("step", "ordinary", [
            CsxmCase.build("?m", "⊥_M", sym, f"o{index}", "?m"),
        ])
        return Csxm(
            name=f"c{index}",
            inputs=frozenset({sym}),
            outputs=frozenset({f"o{index}"}),
            states=states,
            initial_states=frozenset({f"s{index}0"}),
            terminal_states=states,
            memory_domain=MemoryDomain(kind="set", values=(0,)),
            initial_memory=0,
            functions={"step": fn},
            next_state={(f"s{index}0", "step"): (f"s{index}0",)},
            in_port_domain=(),
            out_port_domain=(),
            ordinary_states=states,
            communicating_states=frozenset(),
            ordinary_functions=frozenset({"step"}),
            communicating_functions=frozenset(),
        )

    for n1, n2 in ((1, 1), (2, 3), (3, 2)):
        system = CsxmSystem("pair", (component(1, n1), component(2, n2)))
        product = build_product_sxm(system)
        assert len(product.inputs) == 3 * 3 - 1 == 8
        assert len(product.states) == n1 * n2
    elapsed = time.monotonic() - started
    report(3, elapsed, "|inputs| = 8 and |states| = |Q1|*|Q2| exactly")


def _explore(start, successors, cap):
    nodes = {start}
    edges = set()
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for label, nxt in successors(node):
            edges.add((node, label, nxt))
            if nxt not in nodes:
                nodes.add(nxt)
                queue.append(nxt)
                if len(nodes) > cap:
                    return None
    return nodes, edges


def test_criterion_4_product_faithfulness():
    started = time.monotonic()
    checked = 0
    seed = 0
    while checked < 50:
        assert seed < 400, "not enough small systems"
        loaded = random_csxm_system(seed)
        system = extend_for_testing(loaded)
        seed += 1
        explored = _explore(
            initial_system_core(system),
            lambda core: system_core_successors(system, core),
            200,
        )
        if explored is None:
            continue
        nodes, edges = explored
        product = build_product_sxm(loaded)
        pexplored = _explore(
            core_to_product(initial_system_core(system)),
            lambda core: product_core_successors(product, core),
            250,
        )
        assert pexplored is not None
        pnodes, pedges = pexplored
        assert {core_to_product(c) for c in nodes} == pnodes
        assert {
            (core_to_product(a), label, core_to_product(b)) for a, label, b in edges
        } == pedges
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(4, elapsed, f"50/50 systems isomorphic (seeds scanned: {seed})")


def _relation_difference_upto(spec, mutant, max_len):
    inputs = sorted(spec.inputs)
    for n in range(max_len + 1):
        for word in itertools.product(inputs, repeat=n):
            if run_outputs(spec, word) != run_outputs(mutant, word):
                return word
    return None


def _check_survivors(model, batch, score, max_len=6):
    """Every mutant the suite does not kill must be relation-equivalent to
    the model on all inputs up to ``max_len``; returns the survivor count."""
    by_id = {m.mutant_id: m for m in batch.mutants}
    survivors = 0
    for verdict in score.per_mutant:
        if verdict.verdict == "killed":
            continue
        survivors += 1
        word = _relation_difference_upto(model, by_id[verdict.mutant_id].model, max_len)
        assert word is None, f"{verdict.mutant_id} survived but differs on {word}"
    return survivors


def test_criterion_5_w_method_mutation_adequacy():
    started = time.monotonic()
    models = mutants_total = killed_total = survivors = 0
    for seed in range(100):
        model = random_dft_sxm(seed)
        suite = generate_sxm_test_suite(model, 1)
        batch = enumerate_mutants(model)
        assert batch.mutants, "every machine must have mutants"
        score = score_sxm_suite(model, batch, suite)
        mutants_total += score.total
        killed_total += score.killed
        # survivors must be relation-equivalent on all inputs <= 6
        suite_max = max(len(case.input) for case in suite.cases)
        try:
            survivors += _check_survivors(model, batch, score)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc} (suite max length {suite_max})") from None
        models += 1
    elapsed = time.monotonic() - started
    assert models == 100
    assert elapsed < 300.0
    report(
        5, elapsed,
        f"{killed_total}/{mutants_total} mutants killed, "
        f"{survivors} survivors all equivalent up to length 6",
    )


def test_criterion_5_survivor_check_on_known_mutants(counter_testable):
    # counter_testable outputs o on every i and z on every r whatever its
    # memory holds, so a changed memory update is equivalent; its W suite
    # at k=1 kills neither those nor a wrong output once memory reaches 3,
    # which the survivor check must catch
    suite = generate_sxm_test_suite(counter_testable, 1)
    equivalent = enumerate_mutants(counter_testable, ["memory-update-perturb"])
    score = score_sxm_suite(counter_testable, equivalent, suite)
    assert score.killed == 0 and score.identical == 0
    assert _check_survivors(counter_testable, equivalent, score) == len(equivalent.mutants) == 3
    swapped = enumerate_mutants(counter_testable, ["case-output-swap"])
    score = score_sxm_suite(counter_testable, swapped, suite)
    late = "case-output-swap:functions[inc].cases[1].output=z"
    assert [v.mutant_id for v in score.per_mutant if v.verdict != "killed"] == [late]
    with pytest.raises(AssertionError, match=r"\('i', 'i', 'i', 'i'\)"):
        _check_survivors(counter_testable, swapped, score)


def test_criterion_6_dft_witness_validity():
    started = time.monotonic()
    witnesses = 0
    for seed in range(100):
        model = random_messy_sxm(seed)
        result = check_dft(model)
        for w in result.determinism_witnesses:
            assert replay_determinism_witness(model, w)
            witnesses += 1
        for w in result.completeness_witnesses:
            assert replay_completeness_witness(model, w)
            witnesses += 1
        for w in result.distinguishability_witnesses:
            assert replay_distinguishability_witness(model, w)
            witnesses += 1
    elapsed = time.monotonic() - started
    assert witnesses > 0
    report(6, elapsed, f"{witnesses} witnesses replayed as genuine violations")


def test_criterion_7_heterotic_alternation_and_oracle_agreement(ps2_heterotic):
    started = time.monotonic()
    trace = run_heterotic(ps2_heterotic, rounds=2)
    directions = [e.direction for e in trace.exchanges]
    assert directions == ["base_to_control", "control_to_base", "base_to_control"]
    oracle = simulator_oracle(
        ps2_heterotic.psystem, ps2_heterotic.seed, ps2_heterotic.depth_cap
    )
    oracle_trace = run_heterotic(ps2_heterotic, rounds=2, oracle=oracle)
    plain_bytes = canonical_json(htrace_to_dict(trace)).encode()
    oracle_bytes = canonical_json(htrace_to_dict(oracle_trace)).encode()
    assert plain_bytes == oracle_bytes
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(7, elapsed, "strict alternation; simulator-as-oracle trace byte-identical")


def test_criterion_8_mutation_harness(ps2):
    started = time.monotonic()
    from heterotest.mutation import score_psystem_testset
    from heterotest.psystem import generate_coverage_test_set

    members, _ = generate_coverage_test_set(ps2, 3)
    batch = enumerate_mutants(ps2, ["rule-delete", "rhs-target-swap"])
    wanted = {"rule-delete:r21", "rhs-target-swap:r13.rhs[1]->here"}
    picked = tuple(m for m in batch.mutants if m.mutant_id in wanted)
    assert len(picked) == 2
    from heterotest.mutation import MutantBatch

    score = score_psystem_testset(ps2, MutantBatch(picked, 0, 0), members, 3)
    verdicts = {v.mutant_id: v for v in score.per_mutant}
    for mutant_id in wanted:
        assert verdicts[mutant_id].verdict == "killed"
    # witnesses replay: the named member really is unreachable in the mutant
    for mutant in picked:
        witness = verdicts[mutant.mutant_id].witness
        key = tuple(witness.strip("()").split(","))
        assert key not in _reachable_within(mutant.model, 3)
        assert key in _reachable_within(ps2, 3)
    elapsed = time.monotonic() - started
    report(8, elapsed, "rule-delete(r21) and target-swap(r13) both killed")
