
"""Design-for-test checks.

``reference_decide_conditions`` is the walk ``dft.decide_conditions``
replaced: one pass over the memory domain per attached pair, per function
and per function pair, each evaluating its functions as it goes.  The
row-wise walk, which evaluates every function once per (memory, point),
must give the same report, witnesses and their order included.
"""

from itertools import combinations

import pytest

from gen_models import random_csxm_system, random_dft_sxm, random_messy_sxm

from heterotest import dft
from heterotest.csxms import check_csxm_dft, extend_for_testing
from heterotest.dft import (
    WITNESS_LIMIT,
    CompletenessWitness,
    DeterminismWitness,
    DftReport,
    DistinguishabilityWitness,
    check_dft,
    decide_conditions,
    replay_completeness_witness,
    replay_determinism_witness,
    replay_distinguishability_witness,
)
from heterotest.errors import MissingSampleError
from heterotest.model_io import load_model_file
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

    from machine_walk import StreamConfiguration, sxm_step

    for seed in range(5):
        model = random_dft_sxm(seed)
        assert check_dft(model).deterministic
        rng = _random.Random(f"walk:{seed}")
        inputs = sorted(model.inputs)
        for _ in range(20):
            word = tuple(rng.choice(inputs) for _ in range(5))
            cfg = StreamConfiguration(
                model.initial_memory, sorted(model.initial_states)[0], word, ()
            )
            while True:
                successors = sxm_step(model, cfg)
                assert len(successors) <= 1
                if not successors:
                    break
                cfg = successors[0]


def reference_decide_conditions(model, points, evaluate, locate, structural=()):
    values, exhaustive = model.memory_domain.enumerate(model.name)
    functions = model.functions
    issues = []
    if len(model.initial_states) != 1:
        issues.append(f"initial-state set {sorted(model.initial_states)} is not a singleton")
    issues.extend(structural)

    def clashes(pairs, same):
        found = []
        for tag, n1, n2 in pairs:
            f1, f2 = functions.get(n1), functions.get(n2)
            if f1 is None or f2 is None:
                continue
            for m in values:
                for point in points:
                    if len(found) >= WITNESS_LIMIT:
                        return found
                    r1 = evaluate(f1, m, point)
                    if r1 is None:
                        continue
                    r2 = evaluate(f2, m, point)
                    if r2 is not None and same(r1, r2):
                        found.append((tag, n1, n2, m, point, r1, r2))
        return found

    attached = {}
    for q, name in model.next_state:
        attached.setdefault(q, set()).add(name)
    attached_pairs = [
        (q, n1, n2) for q in sorted(attached) for n1, n2 in combinations(sorted(attached[q]), 2)
    ]
    det = [
        DeterminismWitness(q, n1, n2, *locate(m, point))
        for q, n1, n2, m, point, _, _ in clashes(attached_pairs, lambda r1, r2: True)
    ]

    fn_names = sorted(functions)
    comp = []
    complete_per_function = {}
    for name in fn_names:
        fn = functions[name]
        ok = True
        for m in values:
            if all(evaluate(fn, m, point) is None for point in points):
                ok = False
                if len(comp) < WITNESS_LIMIT:
                    comp.append(CompletenessWitness(name, m))
        complete_per_function[name] = ok

    dist = []
    for _, n1, n2, m, point, r1, r2 in clashes(
        [(None, n1, n2) for n1, n2 in combinations(fn_names, 2)],
        lambda r1, r2: r1[2] == r2[2],
    ):
        memory, symbol = locate(m, point)
        dist.append(DistinguishabilityWitness(n1, n2, memory, r1[1], r2[1], symbol, r1[0]))

    return DftReport(
        deterministic=not det and not issues,
        determinism_witnesses=tuple(det),
        structural_issues=tuple(issues),
        complete=not comp,
        complete_per_function=complete_per_function,
        completeness_witnesses=tuple(comp),
        output_distinguishable=not dist,
        distinguishability_witnesses=tuple(dist),
        exhaustive=exhaustive,
    )


def check_against_reference(check, model, monkeypatch):
    """``check(model)`` on the row-wise walk and on the reference walk;
    returns the report."""
    report = check(model)
    with monkeypatch.context() as patched:
        patched.setattr(dft, "decide_conditions", reference_decide_conditions)
        assert report == check(model)
    return report


def check_machine_against_reference(model, monkeypatch):
    """Both walks give one report before ``check_dft`` sorts its witnesses,
    and after."""
    args = (model, sorted(model.inputs), dft._machine_step, lambda m, symbol: (m, symbol))
    assert decide_conditions(*args) == reference_decide_conditions(*args)
    return check_against_reference(check_dft, model, monkeypatch)


def crowded_machine():
    """Over 0..19: f1, f2 and f3 share a state and clash everywhere, so the
    first pair alone has more clashes than ``WITNESS_LIMIT``; g1 and g2 are
    undefined at enough memories that the completeness witnesses span both
    and fill the limit before g3 is first undefined, at memory 19, so the
    cut leaves g3 none."""
    everywhere = [("?m", "x", "o", "?m")]
    tables = {
        "f1": everywhere,
        "f2": everywhere,
        "f3": [("?m where ?m > 9", "x", "o", "0"), ("?m", "y", "p", "?m")],
        "g1": [("?m where ?m < 12", "y", "p", "1")],
        "g2": [("?m where ?m < 10", "x", "o", "2")],
        "g3": [("?m where ?m < 19", "y", "o", "3")],
    }
    functions = {name: CaseFunction(name, [Case.build(*case) for case in cases])
                 for name, cases in tables.items()}
    next_state = {("q0", name): ("q0",) for name in ("f1", "f2", "f3")}
    next_state.update({("q1", name): ("q1",) for name in ("g1", "g2", "g3")})
    return machine(functions, next_state, inputs=("x", "y"), outputs=("o", "p"),
                   domain=tuple(range(20)))


def test_crowded_machine_equals_the_reference(monkeypatch):
    model = crowded_machine()
    args = (model, sorted(model.inputs), dft._machine_step, lambda m, symbol: (m, symbol))
    report = decide_conditions(*args)
    assert [(w.fn1, w.fn2) for w in report.determinism_witnesses] == [("f1", "f2")] * 16
    assert {w.fn for w in report.completeness_witnesses} == {"g1", "g2"}
    assert report.complete_per_function == {
        "f1": True, "f2": True, "f3": True, "g1": False, "g2": False, "g3": False}
    assert len(report.distinguishability_witnesses) == WITNESS_LIMIT
    check_machine_against_reference(model, monkeypatch)


def test_shipped_models_equal_the_reference(models_dir, monkeypatch):
    for name in ("counter.json", "counter_testable.json"):
        check_machine_against_reference(load_model_file(models_dir / name)[1], monkeypatch)
    control = load_model_file(models_dir / "ps2_control.json")[1]
    heterotic = load_model_file(models_dir / "ps2_heterotic.json")[1].as_system
    for comp in extend_for_testing(heterotic).components + (control,):
        check_against_reference(check_csxm_dft, comp, monkeypatch)


def test_seeded_models_equal_the_reference(monkeypatch):
    failing = 0
    for seed in range(12):
        check_machine_against_reference(random_dft_sxm(seed), monkeypatch)
    for seed in range(80):
        failing += not check_machine_against_reference(random_messy_sxm(seed),
                                                       monkeypatch).all_pass()
    for seed in range(20):
        for comp in extend_for_testing(random_csxm_system(seed)).components:
            failing += not check_against_reference(check_csxm_dft, comp, monkeypatch).all_pass()
    assert failing > 0
