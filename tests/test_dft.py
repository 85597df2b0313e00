
import pytest

from gen_models import random_dft_sxm, random_messy_sxm

from heterotest.dft import (
    check_dft,
    replay_completeness_witness,
    replay_determinism_witness,
    replay_distinguishability_witness,
)
from heterotest.errors import MissingSampleError
from heterotest.sxm import Case, CaseFunction, MemoryDomain, Sxm


def machine(functions, next_state, inputs=("x",), outputs=("o",), domain=(0, 1)):
    states = {q for (q, _) in next_state} | {t for targets in next_state.values() for t in targets}
    states = states or {"q0"}
    return Sxm(
        name="dft-toy",
        inputs=frozenset(inputs),
        outputs=frozenset(outputs),
        states=frozenset(states),
        initial_states=frozenset({"q0"}),
        terminal_states=frozenset(states),
        memory_domain=MemoryDomain(kind="set", values=tuple(domain)),
        initial_memory=domain[0],
        functions=functions,
        next_state=next_state,
    )


def test_single_function_singleton_initial_passes_determinism():
    f = CaseFunction("f", [Case.build("?m", "x", "o", "?m")])
    report = check_dft(machine({"f": f}, {("q0", "f"): ("q0",)}))
    assert report.deterministic
    assert report.exhaustive


def test_overlapping_domains_fail_with_witness():
    f1 = CaseFunction("f1", [Case.build("0", "x", "o", "0")])
    f2 = CaseFunction("f2", [Case.build("?m", "x", "o2", "?m")])
    model = machine(
        {"f1": f1, "f2": f2},
        {("q0", "f1"): ("q0",), ("q0", "f2"): ("q0",)},
        outputs=("o", "o2"),
    )
    report = check_dft(model)
    assert not report.deterministic
    w = report.determinism_witnesses[0]
    assert (w.state, w.fn1, w.fn2, w.memory, w.input) == ("q0", "f1", "f2", 0, "x")
    assert replay_determinism_witness(model, w)


def test_incomplete_function_fails_at_saturated_memory(counter):
    report = check_dft(counter)
    assert not report.complete
    assert not report.complete_per_function["inc"]
    assert report.complete_per_function["reset"]
    witness = [w for w in report.completeness_witnesses if w.fn == "inc"]
    assert witness and witness[0].memory == 3
    assert replay_completeness_witness(counter, witness[0])


def test_indistinguishable_outputs_fail_with_full_witness():
    f1 = CaseFunction("f1", [Case.build("1", "x", "o", "0")])
    f2 = CaseFunction("f2", [Case.build("1", "x", "o", "1")])
    model = machine(
        {"f1": f1, "f2": f2},
        {("q0", "f1"): ("q0",), ("q0", "f2"): ("q0",)},
    )
    report = check_dft(model)
    assert not report.output_distinguishable
    w = report.distinguishability_witnesses[0]
    assert (w.fn1, w.fn2, w.memory, w.memory1, w.memory2, w.input, w.output) == (
        "f1", "f2", 1, 0, 1, "x", "o",
    )
    assert replay_distinguishability_witness(model, w)


def test_structural_nondeterminism_reported():
    f = CaseFunction("f", [Case.build("?m", "x", "o", "?m")])
    model = machine({"f": f}, {("q0", "f"): ("q0", "q1")})
    report = check_dft(model)
    assert not report.deterministic
    assert any("two f-arcs" in line for line in report.structural_issues)


def test_missing_sample_raises():
    f = CaseFunction("f", [Case.build("?m", "x", "o", "?m")])
    model = Sxm(
        name="open",
        inputs=frozenset({"x"}),
        outputs=frozenset({"o"}),
        states=frozenset({"q0"}),
        initial_states=frozenset({"q0"}),
        terminal_states=frozenset({"q0"}),
        memory_domain=MemoryDomain(kind="open"),
        initial_memory=0,
        functions={"f": f},
        next_state={("q0", "f"): ("q0",)},
    )
    with pytest.raises(MissingSampleError):
        check_dft(model)


def test_every_witness_replays_on_seeded_models():
    for seed in range(60):
        model = random_messy_sxm(seed)
        report = check_dft(model)
        for w in report.determinism_witnesses:
            assert replay_determinism_witness(model, w)
        for w in report.completeness_witnesses:
            assert replay_completeness_witness(model, w)
        for w in report.distinguishability_witnesses:
            assert replay_distinguishability_witness(model, w)


def test_sample_growth_never_turns_fail_into_pass():
    # Verdicts are per-memory-value universal/existential; a larger sample
    # can only add violations.
    from heterotest.records import replace

    for seed in range(20):
        model = random_messy_sxm(seed)
        values, _ = model.memory_domain.enumerate(model.name)
        small = replace(model, memory_domain=MemoryDomain(kind="set", values=values[:1]))
        big = replace(model, memory_domain=MemoryDomain(kind="set", values=values))
        small_report = check_dft(small)
        big_report = check_dft(big)
        for field in ("deterministic", "complete", "output_distinguishable"):
            if not getattr(small_report, field):
                assert not getattr(big_report, field)


def _brute_force_conditions(model):
    """Independent re-implementation for cross-checking exhaustive passes."""
    values, _ = model.memory_domain.enumerate(model.name)
    inputs = sorted(model.inputs)
    fns = sorted(model.functions)
    attached = {}
    for (q, fn) in model.next_state:
        attached.setdefault(q, set()).add(fn)
    deterministic = len(model.initial_states) == 1 and all(
        len(set(t)) <= 1 for t in model.next_state.values()
    )
    for q, names in attached.items():
        for a in sorted(names):
            for b in sorted(names):
                if a >= b:
                    continue
                for m in values:
                    for s in inputs:
                        if (
                            model.functions[a].evaluate(m, s) is not None
                            and model.functions[b].evaluate(m, s) is not None
                        ):
                            deterministic = False
    complete = all(
        any(model.functions[f].evaluate(m, s) is not None for s in inputs)
        for f in fns
        for m in values
    )
    distinguishable = True
    for i, a in enumerate(fns):
        for b in fns[i + 1 :]:
            for m in values:
                for s in inputs:
                    ra = model.functions[a].evaluate(m, s)
                    rb = model.functions[b].evaluate(m, s)
                    if ra is not None and rb is not None and ra[0] == rb[0]:
                        distinguishable = False
    return deterministic, complete, distinguishable


def test_exhaustive_verdicts_match_brute_force():
    for seed in range(30):
        model = random_messy_sxm(seed)
        report = check_dft(model)
        assert report.exhaustive
        det, comp, dist = _brute_force_conditions(model)
        assert report.deterministic == det
        assert report.complete == comp
        assert report.output_distinguishable == dist


def test_generated_dft_models_pass():
    for seed in range(10):
        report = check_dft(random_dft_sxm(seed))
        assert report.all_pass() and report.exhaustive


def test_determinism_check_implies_unique_steps():
    # Passing the determinism condition means every reachable configuration
    # has at most one successor per consumed symbol.
    import random as _random

    from heterotest.sxm import SxmConfiguration, sxm_step

    for seed in range(5):
        model = random_dft_sxm(seed)
        assert check_dft(model).deterministic
        rng = _random.Random(f"walk:{seed}")
        inputs = sorted(model.inputs)
        for _ in range(20):
            word = tuple(rng.choice(inputs) for _ in range(5))
            cfg = SxmConfiguration(
                model.initial_memory, sorted(model.initial_states)[0], word, ()
            )
            while True:
                successors = sxm_step(model, cfg)
                assert len(successors) <= 1
                if not successors:
                    break
                cfg = successors[0]
