import pytest

from heterotest.errors import ExplosionBoundExceeded, TraceReplayMismatch
from heterotest.multiset import Multiset
from heterotest.psystem import (
    ComputationTrace,
    PRule,
    PSystem,
    TraceStep,
    apply_assignment,
    config_canonical,
    generate_coverage_test_set,
    is_halting,
    is_maximal,
    maximal_rule_multisets,
    psystem_run,
    rule_coverage,
    replay_trace,
    seeded_chooser,
    validate_psystem,
)

M = Multiset.from_string


def cfg(*parts):
    return tuple(M(p) for p in parts)


class TestValidate:
    def test_ps2_is_valid(self, ps2):
        assert validate_psystem(ps2) == []

    def test_illegal_target(self, ps2):
        from dataclasses import replace

        bad_rule = PRule("rx", 2, M("b"), (("b", 3),))
        bad = replace(ps2, rules=ps2.rules + (bad_rule,))
        report = validate_psystem(bad)
        assert any("neither the parent nor a child" in v.message for v in report)

    def test_unknown_symbol(self, ps2):
        from dataclasses import replace

        bad_rule = PRule("rx", 1, M("z"), (("z", "here"),))
        bad = replace(ps2, alphabet=ps2.alphabet, rules=ps2.rules + (bad_rule,))
        report = validate_psystem(bad)
        assert any("not in alphabet" in v.message for v in report)

    def test_empty_lhs_rejected(self, ps2):
        from dataclasses import replace

        bad = replace(ps2, rules=ps2.rules + (PRule("rx", 1, Multiset(), (("a", "here"),)),))
        assert any("empty" in v.message for v in validate_psystem(bad))


class TestMaximalAssignments:
    def test_initial_configuration_single_choice(self, ps2):
        choices = maximal_rule_multisets(ps2, cfg("s", "t"))
        assert choices == [((("r11", 1),), (("r21", 1),))]

    def test_two_choices_at_abe_b(self, ps2):
        choices = maximal_rule_multisets(ps2, cfg("abe", "b"))
        assert choices == [
            ((("r12", 1), ("r15", 1)), ()),
            ((("r13", 1), ("r15", 1)), ()),
        ]

    def test_halting_configuration_single_empty_choice(self, ps2):
        assert maximal_rule_multisets(ps2, cfg("", "")) == [((), ())]
        assert is_halting(ps2, cfg("", ""))

    def test_assignments_are_applicable_and_maximal(self, ps2):
        for c in (cfg("s", "t"), cfg("abe", "b"), cfg("bcf", "ab"), cfg("aabbcc", "abt")):
            for assignment in maximal_rule_multisets(ps2, c):
                apply_assignment(ps2, c, assignment)  # applicability: must not raise
                assert is_maximal(ps2, c, assignment)

    def test_multiplicity_counted(self, ps2):
        # two copies of s fire r11 twice, as maximal parallelism requires
        choices = maximal_rule_multisets(ps2, cfg("ss", ""))
        assert choices == [((("r11", 2),), ())]

    def test_conservation(self, ps2):
        result = apply_assignment(ps2, cfg("abe", "b"), ((("r13", 1), ("r15", 1)), ()))
        assert config_canonical(result) == ("bcf", "ab")

    def test_explosion_bound(self):
        rules = tuple(
            PRule(f"r{i}", 1, M("a"), ((sym, "here"),))
            for i, sym in enumerate(["b", "c", "d"])
        )
        ps = PSystem(
            name="boom",
            alphabet=frozenset("abcd"),
            parent={1: None},
            initial=(M("a" * 12),),
            rules=rules,
        )
        with pytest.raises(ExplosionBoundExceeded):
            maximal_rule_multisets(ps, ps.initial, cap=20)


class TestRun:
    def test_depth_three_contains_paper_computation(self, ps2):
        traces = psystem_run(ps2, 3, "all")
        wanted = None
        for trace in traces:
            if [config_canonical(c) for c in trace.configurations()] == [
                ("s", "t"), ("abe", "b"), ("bcf", "ab"), ("ccf", "c"),
            ]:
                wanted = trace
        assert wanted is not None
        assert [step.fired for step in wanted.steps] == [
            ((("r11", 1),), (("r21", 1),)),
            ((("r13", 1), ("r15", 1)), ()),
            ((("r14", 1),), (("r22", 1),)),
        ]
        assert wanted.halted

    def test_depth_zero_single_trace(self, ps2):
        traces = psystem_run(ps2, 0)
        assert len(traces) == 1
        assert traces[0].steps == ()
        assert config_canonical(traces[0].initial) == ("s", "t")

    def test_strict_maximality_branch(self, ps2):
        # r12 and r15 fire together, so the branch halts at (bdf,b); the
        # lone-r12 step to (dbe,b) is not a maximally parallel computation.
        traces = psystem_run(ps2, 3, "all")
        finals = {config_canonical(t.final) for t in traces}
        assert ("bdf", "b") in finals
        all_configs = {config_canonical(c) for t in traces for c in t.configurations()}
        assert ("dbe", "b") not in all_configs

    def test_seeded_mode_single_branch(self, ps2):
        for seed in (0, 1, 2, 3):
            traces = psystem_run(ps2, 3, "seeded", seed=seed)
            assert len(traces) == 1
            assert traces[0].halted
            again = psystem_run(ps2, 3, "seeded", seed=seed)
            assert traces[0].key() == again[0].key()

    def test_seeded_choice_is_pure_function(self, ps2):
        c = cfg("abe", "b")
        assert seeded_chooser(5)(c, 2) == seeded_chooser(5)(c, 2)

    def test_branch_cap(self):
        rules = (
            PRule("r1", 1, M("a"), (("b", "here"),)),
            PRule("r2", 1, M("a"), (("c", "here"),)),
            PRule("r3", 1, M("b"), (("a", "here"),)),
            PRule("r4", 1, M("c"), (("a", "here"),)),
        )
        ps = PSystem("wide", frozenset("abc"), {1: None}, (M("aaaaaa"),), rules)
        with pytest.raises(ExplosionBoundExceeded):
            psystem_run(ps, 4, "all", branch_cap=10)


class TestCoverage:
    def test_paper_computations_cover_all_rules(self, ps2):
        traces = psystem_run(ps2, 3, "all")
        report = rule_coverage(ps2, traces)
        assert report.all_covered()
        assert len(report.entries) == 7

    def test_empty_traces_cover_nothing(self, ps2):
        report = rule_coverage(ps2, [])
        assert report.uncovered_rules() == tuple(sorted(r.name for r in ps2.rules))

    def test_single_step_trace_covers_fired_rules_only(self, ps2):
        step = TraceStep(((("r11", 1),), (("r21", 1),)), cfg("abe", "b"))
        trace = ComputationTrace(cfg("s", "t"), (step,), halted=False)
        report = rule_coverage(ps2, [trace])
        assert set(report.covered_rules()) == {"r11", "r21"}

    def test_replay_mismatch_detected(self, ps2):
        bad = ComputationTrace(
            cfg("s", "t"),
            (TraceStep(((("r11", 1),), (("r21", 1),)), cfg("abe", "c")),),
            halted=False,
        )
        with pytest.raises(TraceReplayMismatch):
            replay_trace(ps2, bad)

    def test_witnesses_replay_and_fire_rule(self, ps2):
        traces = psystem_run(ps2, 3, "all")
        report = rule_coverage(ps2, traces)
        for entry in report.entries:
            assert entry.covered
            replay_trace(ps2, entry.witness)
            assert entry.rule in entry.witness.fired_rules()
            assert entry.configuration == entry.witness.final


class TestCoverageTestSet:
    def test_ps2_depth3(self, ps2):
        members, report = generate_coverage_test_set(ps2, 3)
        keys = [config_canonical(m) for m in members]
        assert ("ccf", "c") in keys
        assert report.all_covered()
        assert report.entry("r12").configuration is not None
        assert config_canonical(report.entry("r12").configuration) == ("bdf", "b")

    def test_member_witnesses_end_in_members(self, ps2):
        members, report = generate_coverage_test_set(ps2, 3)
        keys = {config_canonical(m) for m in members}
        for entry in report.entries:
            replay_trace(ps2, entry.witness)
            assert config_canonical(entry.witness.final) in keys
            assert entry.rule in entry.witness.fired_rules()

    def test_zero_rules_empty_test_set(self):
        ps = PSystem("empty", frozenset("a"), {1: None}, (M("a"),), ())
        members, report = generate_coverage_test_set(ps, 2)
        assert members == []
        assert report.entries == ()
        assert report.all_covered()

    def test_uncoverable_rule_reported(self):
        rules = (
            PRule("r1", 1, M("a"), (("b", "here"),)),
            PRule("dead", 1, M("z"), (("b", "here"),)),
        )
        ps = PSystem("gap", frozenset("abz"), {1: None}, (M("a"),), rules)
        members, report = generate_coverage_test_set(ps, 3)
        assert report.uncovered_rules() == ("dead",)
