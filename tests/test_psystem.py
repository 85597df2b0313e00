import tracemalloc

import pytest

from heterotest import psystem
from heterotest.errors import ExplosionBoundExceeded
from heterotest.multiset import Multiset
from heterotest.psystem import (
    HERE,
    ComputationTrace,
    PRule,
    PSystem,
    TraceStep,
    apply_assignment,
    config_canonical,
    generate_coverage_test_set,
    is_halting,
    maximal_rule_multisets,
    psystem_run,
    rule_coverage,
    seeded_chooser,
    validate_psystem,
)
from test_psystem_dag import (
    TraceReplayMismatch,
    coverage_entry,
    covered_rules,
    fired_rules,
    reference_replay,
)

M = Multiset.from_string


def is_maximal(ps, cfg, assignment):
    """No rule instance can be added in any compartment."""
    for comp in ps.compartments():
        leftover = cfg[comp - 1]
        for name, count in assignment[comp - 1]:
            lhs = {r.name: r for r in reversed(ps.rules)}[name].lhs
            leftover = leftover - Multiset({s: n * count for s, n in lhs.items()})
        if any(r.lhs <= leftover for r in ps.rules_in(comp)):
            return False
    return True


def uncovered_rules(report):
    return tuple(e.rule for e in report.entries if not e.covered)


def cfg(*parts):
    return tuple(M(p) for p in parts)


class TestValidate:
    def test_ps2_is_valid(self, ps2):
        assert validate_psystem(ps2) == []

    def test_illegal_target(self, ps2):
        from heterotest.records import replace

        bad_rule = PRule("rx", 2, M("b"), (("b", 3),))
        bad = replace(ps2, rules=ps2.rules + (bad_rule,))
        report = validate_psystem(bad)
        assert any("neither the parent nor a child" in v.message for v in report)

    def test_unknown_symbol(self, ps2):
        from heterotest.records import replace

        bad_rule = PRule("rx", 1, M("z"), (("z", "here"),))
        bad = replace(ps2, alphabet=ps2.alphabet, rules=ps2.rules + (bad_rule,))
        report = validate_psystem(bad)
        assert any("not in alphabet" in v.message for v in report)

    def test_empty_lhs_rejected(self, ps2):
        from heterotest.records import replace

        bad = replace(ps2, rules=ps2.rules + (PRule("rx", 1, Multiset(), (("a", "here"),)),))
        assert any("empty" in v.message for v in validate_psystem(bad))

    def test_parent_loop_off_the_root_is_not_connected(self):
        # each compartment has one parent and the root none, so the walk
        # from the root meets no compartment twice; a loop is never reached
        ps = PSystem("loop", frozenset({"a"}), {1: None, 2: 3, 3: 2}, cfg("a", "a", "a"), ())
        assert [str(v) for v in validate_psystem(ps)] == [
            "structure: membrane tree is not connected"]


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

    def test_explosion_bound(self, monkeypatch):
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
        monkeypatch.setattr(psystem, "ASSIGNMENT_CAP", 20)
        with pytest.raises(ExplosionBoundExceeded):
            maximal_rule_multisets(ps, ps.initial)

    def test_combined_cap_trips_before_the_product_is_built(self):
        # One a, b and c in each compartment and ten rules competing for
        # each: 1,000 maximal choices per compartment, a million combined.
        # The million combinations once took tens of megabytes before the
        # cap was compared with their number.
        rules = tuple(PRule(f"r{comp}{sym}{i}", comp, M(sym), (("x", HERE),))
                      for comp in (1, 2) for sym in "abc" for i in range(10))
        ps = PSystem("cross", frozenset("abcx"), {1: None, 2: 1}, cfg("abc", "abc"), rules)
        tracemalloc.start()
        try:
            with pytest.raises(ExplosionBoundExceeded,
                               match="^more than 10000 combined rule assignments$"):
                maximal_rule_multisets(ps, ps.initial)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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

    def test_branch_cap(self, monkeypatch):
        rules = (
            PRule("r1", 1, M("a"), (("b", "here"),)),
            PRule("r2", 1, M("a"), (("c", "here"),)),
            PRule("r3", 1, M("b"), (("a", "here"),)),
            PRule("r4", 1, M("c"), (("a", "here"),)),
        )
        ps = PSystem("wide", frozenset("abc"), {1: None}, (M("aaaaaa"),), rules)
        monkeypatch.setattr(psystem, "BRANCH_CAP", 10)
        with pytest.raises(ExplosionBoundExceeded):
            psystem_run(ps, 4, "all")


class TestCoverage:
    def test_paper_computations_cover_all_rules(self, ps2):
        report = rule_coverage(ps2, 3)
        assert report.all_covered()
        assert len(report.entries) == 7

    def test_empty_traces_cover_nothing(self, ps2):
        # at depth 0 the one computation is the initial configuration
        report = rule_coverage(ps2, 0)
        assert uncovered_rules(report) == tuple(sorted(r.name for r in ps2.rules))

    def test_single_step_trace_covers_fired_rules_only(self, ps2):
        # the one step from (s,t) fires r11 and r21 and reaches (abe,b)
        report = rule_coverage(ps2, 1)
        assert set(covered_rules(report)) == {"r11", "r21"}
        step = TraceStep(((("r11", 1),), (("r21", 1),)), cfg("abe", "b"))
        trace = ComputationTrace(cfg("s", "t"), (step,), halted=False)
        r11, r21 = coverage_entry(report, "r11"), coverage_entry(report, "r21")
        assert r11.witness == r21.witness == trace

    def test_replay_mismatch_detected(self, ps2):
        # the replay that checks the witnesses below rejects a wrong result
        bad = ComputationTrace(
            cfg("s", "t"),
            (TraceStep(((("r11", 1),), (("r21", 1),)), cfg("abe", "c")),),
            halted=False,
        )
        with pytest.raises(TraceReplayMismatch):
            reference_replay(ps2, bad)

    def test_witnesses_replay_and_fire_rule(self, ps2):
        report = rule_coverage(ps2, 3)
        for entry in report.entries:
            assert entry.covered
            reference_replay(ps2, entry.witness)
            assert entry.rule in fired_rules(entry.witness)
            assert entry.configuration == entry.witness.final


class TestCoverageTestSet:
    def test_ps2_depth3(self, ps2):
        members, report = generate_coverage_test_set(ps2, 3)
        keys = [config_canonical(m) for m in members]
        assert ("ccf", "c") in keys
        assert report.all_covered()
        assert coverage_entry(report, "r12").configuration is not None
        assert config_canonical(coverage_entry(report, "r12").configuration) == ("bdf", "b")

    def test_member_witnesses_end_in_members(self, ps2):
        members, report = generate_coverage_test_set(ps2, 3)
        keys = {config_canonical(m) for m in members}
        for entry in report.entries:
            reference_replay(ps2, entry.witness)
            assert config_canonical(entry.witness.final) in keys
            assert entry.rule in fired_rules(entry.witness)

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
        assert uncovered_rules(report) == ("dead",)
