import itertools

import pytest

from gen_models import random_dft_sxm, random_messy_sxm
from machine_walk import StreamConfiguration, sxm_run, sxm_step

from heterotest import sxm
from heterotest.errors import BranchBoundExceeded, MissingSampleError
from heterotest.model_io import canonical_json, sxm_from_dict, sxm_to_dict
from heterotest.sxm import (
    Case,
    CaseFunction,
    MemoryDomain,
    Sxm,
    SxmConfiguration,
    associated_automaton,
    validate_sxm,
)


def make_sxm(**overrides):
    base = dict(
        name="toy",
        inputs=frozenset({"x"}),
        outputs=frozenset({"y"}),
        states=frozenset({"q0"}),
        initial_states=frozenset({"q0"}),
        terminal_states=frozenset({"q0"}),
        memory_domain=MemoryDomain(kind="set", values=(0,)),
        initial_memory=0,
        functions={"f": CaseFunction("f", [Case.build("?m", "x", "y", "?m")])},
        next_state={("q0", "f"): ("q0",)},
    )
    base.update(overrides)
    return Sxm(**base)


class TestValidate:
    def test_counter_is_valid(self, counter):
        assert validate_sxm(counter) == []

    def test_unknown_function_named(self, counter):
        bad = make_sxm(next_state={("q0", "phiX"): ("q0",)})
        report = validate_sxm(bad)
        assert len(report) == 1
        assert "phiX" in report[0].message

    def test_initial_memory_outside_domain(self):
        bad = make_sxm(
            memory_domain=MemoryDomain(kind="set", values=(0, 1, 2)), initial_memory=7
        )
        report = validate_sxm(bad)
        assert any("initial_memory" == v.where for v in report)

    def test_reserved_atom_rejected(self):
        bad = make_sxm(inputs=frozenset({"x", "λ"}))
        assert any("reserved" in v.message for v in validate_sxm(bad))

    def test_case_overlap_detected(self):
        f = CaseFunction("f", [
            Case.build("?m", "x", "y", "?m"),
            Case.build("?m where ?m < 1", "x", "y", "?m"),
        ])
        bad = make_sxm(functions={"f": f})
        assert any("overlap" in v.message for v in validate_sxm(bad))

    def test_update_leaving_domain_detected(self):
        f = CaseFunction("f", [Case.build("?m", "x", "y", "?m + 1")])
        bad = make_sxm(functions={"f": f})
        assert any("leaves the declared domain" in v.message for v in validate_sxm(bad))

    def test_open_domain_needs_sample(self):
        bad = make_sxm(memory_domain=MemoryDomain(kind="open"))
        assert any("sample" in v.message for v in validate_sxm(bad))


class TestStep:
    def test_counter_consumes_head(self, counter):
        cfg = StreamConfiguration(0, "q0", ("i", "r"), ())
        succ = sxm_step(counter, cfg)
        assert succ == [StreamConfiguration(1, "q0", ("r",), ("o",))]

    def test_empty_input_no_step(self, counter):
        assert sxm_step(counter, StreamConfiguration(0, "q0", (), ())) == []

    def test_saturated_counter_blocks(self, counter):
        assert sxm_step(counter, StreamConfiguration(3, "q0", ("i",), ())) == []

    def test_step_soundness_conditions(self, counter):
        cfg = StreamConfiguration(2, "q0", ("i", "i"), ("o",))
        for succ in sxm_step(counter, cfg):
            assert succ.remaining_input == cfg.remaining_input[1:]
            assert len(succ.output_so_far) == len(cfg.output_so_far) + 1
            assert succ.output_so_far[: len(cfg.output_so_far)] == cfg.output_so_far
            fired = [
                fn
                for (q, fn), targets in counter.next_state.items()
                if q == cfg.state and succ.state in targets
                if counter.functions[fn].evaluate(cfg.memory, cfg.remaining_input[0])
                == (succ.output_so_far[-1], succ.memory)
            ]
            assert fired


class TestRun:
    def test_counter_run(self, counter):
        results = sxm_run(counter, ["i", "i", "r"])
        assert {out for out, _ in results} == {("o", "o", "z")}
        (_, final), = results
        assert final.state == "q1" and final.memory == 0

    def test_empty_input_initial_terminal(self, counter):
        results = sxm_run(counter, [])
        assert results == {((), SxmConfiguration(0, "q0", ()))}

    def test_nondeterministic_branches_only_terminal_counts(self):
        # Two functions fire on the same (memory, input) from q0; only the
        # branch through f_stop reaches the terminal state.
        functions = {
            "f_loop": CaseFunction("f_loop", [Case.build("?m", "x", "a", "?m")]),
            "f_stop": CaseFunction("f_stop", [Case.build("?m", "x", "b", "?m")]),
        }
        model = make_sxm(
            states=frozenset({"q0", "q1"}),
            terminal_states=frozenset({"q1"}),
            outputs=frozenset({"a", "b"}),
            functions=functions,
            next_state={("q0", "f_loop"): ("q0",), ("q0", "f_stop"): ("q1",)},
        )
        results = sxm_run(model, ["x"])
        assert {out for out, _ in results} == {("b",)}

    def test_branch_bound_exceeded_names_the_bound(self, monkeypatch):
        functions = {
            "f1": CaseFunction("f1", [Case.build("?m", "x", "a", "?m")]),
            "f2": CaseFunction("f2", [Case.build("?m", "x", "b", "?m")]),
        }
        model = make_sxm(
            outputs=frozenset({"a", "b"}),
            functions=functions,
            next_state={("q0", "f1"): ("q0",), ("q0", "f2"): ("q0",)},
        )
        monkeypatch.setattr(sxm, "BRANCH_BOUND", 4)
        with pytest.raises(BranchBoundExceeded, match="^more than 4 simultaneous branches$"):
            sxm_run(model, ["x"] * 8)

    def test_run_equals_iterated_step_fixpoint(self):
        # Brute-force oracle: iterate sxm_step by hand and filter on final
        # configurations, then compare against sxm_run on all inputs of
        # length <= 5.
        for seed in range(3):
            model = random_dft_sxm(seed, max_states=3, max_functions=3, max_memory=4)
            inputs = sorted(model.inputs)
            for n in range(6):
                for w in itertools.product(inputs, repeat=n):
                    frontier = [
                        StreamConfiguration(model.initial_memory, q, w, ())
                        for q in sorted(model.initial_states)
                    ]
                    finals = set()
                    while frontier:
                        nxt = []
                        for cfg in frontier:
                            if not cfg.remaining_input:
                                if cfg.state in model.terminal_states:
                                    finals.add((cfg.output_so_far, SxmConfiguration(
                                        cfg.memory, cfg.state, cfg.output_so_far)))
                                continue
                            nxt.extend(sxm_step(model, cfg))
                        frontier = nxt
                    assert finals == sxm_run(model, w)


class TestAutomaton:
    def test_counter_arcs(self, counter):
        a = associated_automaton(counter)
        assert a.arcs == frozenset({("q0", "inc", "q0"), ("q0", "reset", "q1")})
        assert a.initial == frozenset({"q0"})

    def test_empty_next_state(self):
        model = make_sxm(next_state={})
        assert associated_automaton(model).arcs == frozenset()

    def test_determinism_flag(self):
        model = make_sxm(next_state={("q0", "f"): ("q0", "q0")})
        assert associated_automaton(model).nondeterministic_witness() is None
        model2 = make_sxm(
            states=frozenset({"q0", "q1"}),
            next_state={("q0", "f"): ("q0", "q1")},
        )
        assert associated_automaton(model2).nondeterministic_witness() == ("q0", "f")


class TestSerialization:
    def test_round_trip_structural_equality(self, counter, counter_testable):
        for model in (counter, counter_testable):
            again = sxm_from_dict(sxm_to_dict(model))
            assert sxm_to_dict(again) == sxm_to_dict(model)
            assert again.inputs == model.inputs
            assert again.next_state == model.next_state
            assert canonical_json(sxm_to_dict(again)) == canonical_json(sxm_to_dict(model))

    def test_round_trip_random_models(self):
        for seed in range(5):
            model = random_messy_sxm(seed)
            again = sxm_from_dict(sxm_to_dict(model))
            assert sxm_to_dict(again) == sxm_to_dict(model)

    def test_domain_enumeration(self):
        assert MemoryDomain(kind="range", low=0, high=3).enumerate("m") == ((0, 1, 2, 3), True)
        assert MemoryDomain(kind="open", sample=(1,)).enumerate("m") == ((1,), False)
        with pytest.raises(MissingSampleError):
            MemoryDomain(kind="open").enumerate("m")
