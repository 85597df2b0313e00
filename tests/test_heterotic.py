import json
import shutil
import sys

import pytest

from heterotest.csxms import (
    initial_system_configuration,
    initial_system_core,
    system_core_successors,
    system_step,
)
from heterotest.cli import main
from heterotest.errors import (
    DeadlockError,
    DepthCapExceeded,
    DftFailure,
    OracleInvalidResult,
    OracleTimeout,
    PortIncompatibility,
)
from heterotest.heterotic import (
    build_heterotic_system,
    generate_integration_tests,
    run_heterotic,
    simulate_to_halt,
    simulator_oracle,
    subprocess_oracle,
    wrap_psystem_as_csxm,
)
from heterotest.model_io import canonical_json, htrace_to_dict, load_model_file
from heterotest.multiset import Multiset
from heterotest.psystem import PRule, PSystem, config_canonical, is_config_for
from heterotest.csxms import check_csxm_dft, extend_for_testing
from heterotest.values import BOTTOM_M, sort_key

M = Multiset.from_string


class TestWrap:
    def test_ps2_halts_and_emits_final(self, ps2):
        for seed in (0, 1, 2, 5):
            final, steps, visited = simulate_to_halt(ps2, tuple(ps2.initial), seed, 10)
            assert steps <= 3
            assert config_canonical(final) in {("bdf", "b"), ("ccf", "c")}
            base = wrap_psystem_as_csxm(ps2, 10, seed=seed)
            assert tuple(base.out_port_domain) == (final,)

    def test_memory_sample_holds_trajectory(self, ps2):
        base = wrap_psystem_as_csxm(ps2, 10, seed=0)
        values, exhaustive = base.memory_domain.enumerate(base.name)
        assert not exhaustive
        keys = {config_canonical(tuple(v)) for v in values}
        assert ("s", "t") in keys and ("abe", "b") in keys

    def test_already_halted_emits_immediately(self):
        ps = PSystem("still", frozenset("a"), {1: None}, (M("a"),), ())
        base = wrap_psystem_as_csxm(ps, 5)
        # advance stutters on the halted configuration; emit is defined
        advance = base.functions["advance"]
        result = advance.evaluate("step", BOTTOM_M, tuple(ps.initial))
        assert result.memory == tuple(ps.initial)
        emit = base.functions["emit_result"]
        out = emit.evaluate("emit", BOTTOM_M, tuple(ps.initial))
        assert out.set_out_port and out.out_port == tuple(ps.initial)

    def test_nonhalting_two_cycle_exceeds_cap(self):
        rules = (
            PRule("fwd", 1, M("a"), (("b", "here"),)),
            PRule("back", 1, M("b"), (("a", "here"),)),
        )
        ps = PSystem("spin", frozenset("ab"), {1: None}, (M("a"),), rules)
        with pytest.raises(DepthCapExceeded):
            wrap_psystem_as_csxm(ps, 10)

    def test_wrapped_component_passes_dft(self, ps2_heterotic):
        ext = extend_for_testing(ps2_heterotic.as_system)
        for comp in ext.components:
            assert check_csxm_dft(comp).all_pass()


class TestBuild:
    def test_ps2_system_valid(self, ps2_heterotic):
        from heterotest.csxms import validate_system

        assert validate_system(ps2_heterotic.as_system) == []

    def test_port_incompatibility_disjoint_domains(self, ps2, ps2_heterotic):
        from heterotest.records import replace

        control = ps2_heterotic.control
        alien = (M("zzz"),)
        # declared in Control's memory, so Control alone is valid and the
        # wiring is what rejects it
        memory = replace(control.memory_domain,
                         values=control.memory_domain.values + (alien,))
        bad_control = replace(control, memory_domain=memory,
                              out_port_domain=control.out_port_domain + (alien,))
        with pytest.raises(PortIncompatibility, match="is not a configuration of ps2"):
            build_heterotic_system(ps2, bad_control, seed=0, depth_cap=10, name="heterotic")

    def test_base_output_must_be_readable(self, ps2, ps2_heterotic):
        from heterotest.records import replace

        control = replace(ps2_heterotic.control, in_port_domain=())
        with pytest.raises(PortIncompatibility):
            build_heterotic_system(ps2, control, seed=0, depth_cap=10, name="heterotic")


class TestRun:
    def test_two_rounds_alternate(self, ps2_heterotic):
        trace = run_heterotic(ps2_heterotic, rounds=2)
        directions = [e.direction for e in trace.exchanges]
        assert directions == ["base_to_control", "control_to_base", "base_to_control"]
        assert trace.rounds_completed == 2
        for e in trace.exchanges:
            assert is_config_for(ps2_heterotic.psystem, e.configuration)

    def test_one_round_single_exchange(self, ps2_heterotic):
        trace = run_heterotic(ps2_heterotic, rounds=1)
        assert [e.direction for e in trace.exchanges] == ["base_to_control"]

    def test_simulator_oracle_byte_identical(self, ps2_heterotic):
        plain = run_heterotic(ps2_heterotic, rounds=2)
        oracle = simulator_oracle(
            ps2_heterotic.psystem, ps2_heterotic.seed, ps2_heterotic.depth_cap
        )
        withoracle = run_heterotic(ps2_heterotic, rounds=2, oracle=oracle)
        assert canonical_json(htrace_to_dict(plain)) == canonical_json(htrace_to_dict(withoracle))

    def test_oracle_invalid_alphabet_rejected(self, ps2_heterotic):
        with pytest.raises(OracleInvalidResult):
            run_heterotic(ps2_heterotic, rounds=1, oracle=lambda cfg: ((M("zz"), M("q")), 1))

    def test_oracle_nonhalting_result_rejected(self, ps2_heterotic):
        with pytest.raises(OracleInvalidResult):
            run_heterotic(ps2_heterotic, rounds=1, oracle=lambda cfg: ((M("s"), M("t")), 0))

    def test_subprocess_oracle_round_trip(self, ps2_heterotic):
        script = (
            "import json,sys\n"
            "req = json.loads(sys.stdin.readline())\n"
            "final = {'1': 'bdf', '2': 'b'}\n"
            "print(json.dumps({'final': final, 'steps': 2}))\n"
        )
        oracle = subprocess_oracle([sys.executable, "-c", script], ps2_heterotic.psystem)
        trace = run_heterotic(ps2_heterotic, rounds=2, oracle=oracle)
        assert config_canonical(trace.exchanges[0].configuration) == ("bdf", "b")
        assert trace.exchanges[0].steps == 2

    def test_subprocess_oracle_timeout(self, ps2_heterotic):
        script = "import time; time.sleep(5)"
        oracle = subprocess_oracle(
            [sys.executable, "-c", script], ps2_heterotic.psystem, timeout_ms=200, retries=1
        )
        with pytest.raises(OracleTimeout):
            run_heterotic(ps2_heterotic, rounds=1, oracle=oracle)


class TestIntegrationSuite:
    def test_suite_produced_and_replays(self, ps2_heterotic):
        suite = generate_integration_tests(ps2_heterotic, 0)
        assert suite.cases
        assert suite.metadata["roles"] == {"base": "base", "control": "ps2_control"}
        from heterotest.csxms import build_product_sxm, extend_for_testing
        from heterotest.sxm import run_outputs

        product = build_product_sxm(extend_for_testing(ps2_heterotic.as_system))
        for case in suite.cases:
            assert run_outputs(product, case.input) == case.expected_outputs
        assert any(case.expected_outputs for case in suite.cases)

    def test_nonempty_cases_replay_on_system_step(self, ps2_heterotic):
        from product_walk import decode_tuple_atom

        from heterotest.csxms import extend_for_testing

        ext = extend_for_testing(ps2_heterotic.as_system)
        suite = generate_integration_tests(ps2_heterotic, 0)
        checked = 0
        for case in suite.cases:
            if not case.expected_outputs or not case.input:
                continue
            streams = [[], []]
            for atom in case.input:
                parts = decode_tuple_atom(atom, 2)
                for i, part in enumerate(parts):
                    if part != "λ":
                        streams[i].append(part)
            outcomes = _system_outcomes(ext, streams)
            for expected in case.expected_outputs:
                per_component = [[], []]
                for atom in expected:
                    parts = decode_tuple_atom(atom, 2)
                    for i, part in enumerate(parts):
                        if part != "λ":
                            per_component[i].append(part)
                assert (tuple(per_component[0]), tuple(per_component[1])) in outcomes
            checked += 1
        assert checked

    def test_dft_failing_control_gates(self, ps2, ps2_heterotic):
        from heterotest.records import replace

        from heterotest.csxms import CsxmCase, CsxmCaseFunction

        control = ps2_heterotic.control
        # a second function overlapping check's (state, memory, port, input)
        clash = CsxmCaseFunction("clash", "ordinary", [
            CsxmCase.build("_", "?c where ?c != ⊥_M", "go", "fin", "0"),
        ])
        functions = dict(control.functions)
        functions["clash"] = clash
        ns = dict(control.next_state)
        ns[("wait_first", "clash")] = ("done",)
        bad = replace(
            control,
            functions=functions,
            next_state=ns,
            ordinary_functions=control.ordinary_functions | {"clash"},
        )
        h = build_heterotic_system(ps2, bad, seed=0, depth_cap=10, name="heterotic")
        with pytest.raises(DftFailure):
            generate_integration_tests(h, 0)


def _system_outcomes(sys_, streams):
    """All (per-component output streams) of complete, all-terminal runs."""
    frontier = {initial_system_configuration(sys_, [tuple(s) for s in streams])}
    outcomes = set()
    seen = set()
    while frontier:
        nxt = set()
        for cfg in frontier:
            if cfg in seen:
                continue
            seen.add(cfg)
            if all(not cc.remaining_input for cc in cfg) and all(
                cc.state in comp.terminal_states
                for cc, comp in zip(cfg, sys_.components)
            ):
                outcomes.add(tuple(cc.output_so_far for cc in cfg))
            for succ in system_step(sys_, cfg):
                if succ not in seen:
                    nxt.add(succ)
        frontier = nxt
    return outcomes


# --- the reference: the driver that stepped the Base itself ----------------------


def reference_run_heterotic(h, rounds):
    """The round driver from before every Base phase ran through the oracle
    contract: without an oracle it took the Base's advance edge one
    micro-step at a time and counted the steps against ``depth_cap`` itself.
    Returns the exchanges as (round, direction, canonical configuration,
    steps)."""
    sys_ = h.as_system
    core = initial_system_core(sys_)
    exchanges = []
    steps_this_phase = 0
    b2c = 0
    micro_cap = (h.depth_cap + 8) * (rounds + 1) * (len(sys_.components) + 2) * 4

    def edge_key(edge):
        label, successor = edge
        return label, tuple(
            (sort_key(m), q, sort_key(p_in), sort_key(p_out))
            for (m, q, p_in, p_out) in successor
        )

    for _ in range(micro_cap):
        edges = sorted(system_core_successors(sys_, core), key=edge_key)
        chosen = None
        for label, succ in edges:
            i, fname, _ = label
            if fname in sys_.components[i - 1].communicating_functions:
                chosen = (label, succ)
                break
        if chosen is None:
            for label, succ in edges:
                if succ != core:
                    chosen = (label, succ)
                    break
        if chosen is None:
            break
        (i, fname, _), succ = chosen
        if fname in sys_.components[i - 1].communicating_functions:
            value = core[i - 1][3]
            if i == 1:
                b2c += 1
                exchanges.append((b2c, "base_to_control", config_canonical(value), steps_this_phase))
                steps_this_phase = 0
            else:
                if b2c >= rounds:
                    break
                exchanges.append((b2c, "control_to_base", config_canonical(value), None))
            core = succ
            continue
        if i == 1 and fname == "advance":
            steps_this_phase += 1
            if steps_this_phase > h.depth_cap:
                raise DepthCapExceeded(f"base exceeded {h.depth_cap} steps without halting")
        core = succ
    else:
        raise DeadlockError("driver exceeded its micro-step budget (livelock?)")
    return exchanges


def _exchanges(trace):
    return [(e.round, e.direction, config_canonical(e.configuration), e.steps)
            for e in trace.exchanges]


def _reseeded(h, seed):
    return build_heterotic_system(h.psystem, h.control, seed=seed,
                                  depth_cap=h.depth_cap, name=h.as_system.name)


def test_driver_equals_the_stepping_reference(ps2_heterotic):
    steps = set()
    for seed in range(64):
        h = _reseeded(ps2_heterotic, seed)
        for rounds in range(1, 5):
            got = _exchanges(run_heterotic(h, rounds))
            assert got == reference_run_heterotic(h, rounds), (seed, rounds)
            steps.update(e[3] for e in got if e[3] is not None)
    # both halting configurations of ps2, at 2 and 3 steps, are reached
    assert steps == {2, 3}


@pytest.fixture()
def undeclared_reply(models_dir, tmp_path):
    """A heterotic file: ps2 behind a Control whose reply is a configuration
    it does not declare, on which ps2 does not halt within the file's depth
    cap of 3.  Control's memory domain is open, so validate leaves the reply
    to the port."""
    shutil.copy(models_dir / "ps2.json", tmp_path / "ps2.json")
    control = json.loads((models_dir / "ps2_control.json").read_text(encoding="utf-8"))
    control["functions"][0]["cases"][0]["out_port"] = "[{b b b b b b b b c} {t}]"
    control["memory_domain"] = {"open": {"sample": control["memory_domain"]["set"]}}
    (tmp_path / "ps2_control.json").write_text(json.dumps(control), encoding="utf-8")
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps({"schema": 1, "psystem": "ps2.json", "control": "ps2_control.json",
                                "seed": 0, "depth_cap": 3}), encoding="utf-8")
    return path


def test_base_past_the_depth_cap_raises_like_the_reference(undeclared_reply):
    h = load_model_file(undeclared_reply)[1]
    assert _exchanges(run_heterotic(h, 1)) == reference_run_heterotic(h, 1)
    with pytest.raises(DepthCapExceeded, match="base exceeded 3 steps without halting"):
        reference_run_heterotic(h, 2)
    with pytest.raises(DepthCapExceeded,
                       match=r"^ps2 did not halt within 3 steps from bbbbbbbbc\|t$"):
        run_heterotic(h, 2)


def test_base_past_the_depth_cap_exits_two(undeclared_reply, capsys):
    # the in-process run printed "error: base exceeded 3 steps without
    # halting" before; the oracle run already printed this message
    out_file = undeclared_reply.parent / "trace.json"
    assert main(["simulate", str(undeclared_reply), "--rounds", "2", "-o", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: ps2 did not halt within 3 steps from bbbbbbbbc|t\n"
    assert captured.out == ""
    assert not out_file.exists()
