"""Seeded random model generators for property and acceptance tests.

``random_dft_sxm`` builds machines that satisfy the design-for-test
conditions by construction and are friendly to conformance testing beyond
them:

* every function owns a distinct input symbol, so function domains never
  overlap and outputs never collide on a shared input;
* cases split memory by parity, and every update has the shape
  ``(?m + d) % R`` over the range domain 0..R-1, keeping all updates
  surjective onto the domain;
* every state is terminal (the usual assumption for conformance testing);
* the associated automaton is reachable and minimal;
* the machine's own W-method suite fires every case of every function at
  least once (machines failing this case-coverage condition are
  regenerated) -- the analogue, at case granularity, of what the
  design-for-test conditions buy at function granularity.

``random_messy_sxm`` drops all of those guarantees on purpose, for
witness-validity testing.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, FrozenSet

from heterotest.csxms import Csxm, CsxmCase, CsxmCaseFunction, CsxmSystem
from heterotest.dft import check_dft
from heterotest.sxm import (
    Automaton,
    Case,
    CaseFunction,
    MemoryDomain,
    Sxm,
    associated_automaton,
    validate_sxm,
)
from heterotest.testgen import TestSuite, build_w_suite, minimize_automaton
from machine_walk import fired_case


def reachable_states(a: Automaton) -> FrozenSet[str]:
    """The states of ``a`` that a walk from any initial state reaches,
    deterministic or not."""
    seen = set(a.initial)
    queue = deque(sorted(a.initial))
    succ: Dict[str, list] = {}
    for src, _, dst in a.arcs:
        succ.setdefault(src, []).append(dst)
    while queue:
        q = queue.popleft()
        for nxt in sorted(set(succ.get(q, []))):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def _random_update(rng: random.Random, modulus: int) -> str:
    return f"(?m + {rng.randrange(modulus)}) % {modulus}"


def _random_function(rng: random.Random, name: str, input_symbol: str,
                     outputs: list, modulus: int) -> CaseFunction:
    # Parity-split cases with distinct outputs make the memory parity
    # observable at every step, which is what lets the generated suites
    # pin down memory faults.
    o_even, o_odd = rng.sample(outputs, 2)
    cases = [
        Case.build("?m where ?m % 2 == 0", input_symbol, o_even,
                   _random_update(rng, modulus)),
        Case.build("?m where ?m % 2 == 1", input_symbol, o_odd,
                   _random_update(rng, modulus)),
    ]
    return CaseFunction(name, cases)


def suite_case_coverage(model: Sxm, suite: TestSuite, nonfinal: bool = False) -> set:
    """(function, case index) pairs fired while running the suite inputs.

    With ``nonfinal``, a firing only counts when another application
    succeeds after it on the same walk: the walk up to there is a completed
    run of a (prefix-closed) suite case, so a divergence introduced by the
    firing is observable through the following step's output.
    """
    fired = set()
    arcs = {}
    for (q, fn), targets in model.next_state.items():
        arcs.setdefault(q, []).append((fn, targets))
    for case in suite.cases:
        state = sorted(model.initial_states)[0]
        memory = model.initial_memory
        walk = []
        for symbol in case.input:
            move = None
            for fn_name, targets in sorted(arcs.get(state, [])):
                fn = model.functions[fn_name]
                hit = fired_case(fn, memory, symbol)
                if hit is not None:
                    move = (fn_name, hit, targets[0])
                    break
            if move is None:
                break
            fn_name, case_idx, state = move
            walk.append((fn_name, case_idx))
            _, memory = model.functions[fn_name].evaluate(memory, symbol)
        fired.update(walk[:-1] if nonfinal else walk)
    return fired


def _all_cases(model: Sxm) -> set:
    return {
        (name, idx)
        for name in model.functions
        for idx in range(len(model.functions[name].cases))
    }


def random_dft_sxm(seed: int, max_states: int = 5, max_functions: int = 4,
                   max_memory: int = 8, k: int = 1) -> Sxm:
    """A deterministic, DFT-satisfying machine whose k-extra-state suite
    achieves full case coverage of the machine itself."""
    for attempt in range(256):
        rng = random.Random(f"dft:{seed}:{attempt}")
        n_states = rng.randint(2, max_states)
        n_functions = rng.randint(2, max_functions)
        # Even modulus: memory differences keep their parity under every
        # (?m + d) % R update, so a seeded fault stays observable.
        modulus = rng.choice([m for m in (2, 4, 6, 8) if m <= max_memory])
        states = [f"q{i}" for i in range(n_states)]
        inputs = [f"i{j}" for j in range(n_functions)]
        outputs = [f"o{j}" for j in range(rng.randint(2, 3))]
        fn_names = [f"f{j}" for j in range(n_functions)]

        functions = {
            name: _random_function(rng, name, inputs[j], outputs, modulus)
            for j, name in enumerate(fn_names)
        }

        next_state = {}
        for i in range(1, n_states):
            src = states[rng.randrange(i)]
            fn = rng.choice(fn_names)
            while (src, fn) in next_state:
                src = states[rng.randrange(i)]
                fn = rng.choice(fn_names)
            next_state[(src, fn)] = (states[i],)
        extra = rng.randint(n_states - 1, n_states * min(3, n_functions))
        for _ in range(extra):
            src = rng.choice(states)
            fn = rng.choice(fn_names)
            if (src, fn) not in next_state:
                next_state[(src, fn)] = (rng.choice(states),)

        model = Sxm(
            name=f"rand{seed}",
            inputs=frozenset(inputs),
            outputs=frozenset(outputs),
            states=frozenset(states),
            initial_states=frozenset({states[0]}),
            terminal_states=frozenset(states),
            memory_domain=MemoryDomain(kind="range", low=0, high=modulus - 1),
            initial_memory=0,
            functions=functions,
            next_state=next_state,
        )
        if validate_sxm(model):
            continue
        automaton = associated_automaton(model)
        if reachable_states(automaton) != automaton.states:
            continue
        if len(minimize_automaton(automaton).states) != len(automaton.states):
            continue
        report = check_dft(model)
        if not (report.all_pass() and report.exhaustive):
            continue
        suite = build_w_suite(model, k)
        if suite_case_coverage(model, suite, nonfinal=True) != _all_cases(model):
            continue
        return model
    raise AssertionError(f"no DFT-satisfying machine found for seed {seed}")


def random_messy_sxm(seed: int) -> Sxm:
    """Anything goes: shared inputs, guard gaps, colliding outputs."""
    rng = random.Random(f"messy:{seed}")
    n_states = rng.randint(1, 4)
    n_functions = rng.randint(2, 4)
    modulus = rng.randint(2, 6)
    states = [f"q{i}" for i in range(n_states)]
    inputs = [f"i{j}" for j in range(rng.randint(1, 3))]
    outputs = [f"o{j}" for j in range(rng.randint(1, 2))]
    functions = {}
    for j in range(n_functions):
        name = f"f{j}"
        cases = []
        for _ in range(rng.randint(1, 2)):
            low = rng.randrange(modulus + 1)
            cases.append(
                Case.build(
                    f"?m where ?m < {low}" if rng.random() < 0.6 else "?m",
                    rng.choice(inputs),
                    rng.choice(outputs),
                    f"(?m + {rng.randrange(modulus)}) % {modulus}",
                )
            )
        functions[name] = CaseFunction(name, cases)
    next_state = {}
    for _ in range(rng.randint(1, n_states * n_functions)):
        next_state[(rng.choice(states), rng.choice(list(functions)))] = (rng.choice(states),)
    return Sxm(
        name=f"messy{seed}",
        inputs=frozenset(inputs),
        outputs=frozenset(outputs),
        states=frozenset(states),
        initial_states=frozenset({states[0]}),
        terminal_states=frozenset(rng.sample(states, rng.randint(1, n_states))),
        memory_domain=MemoryDomain(kind="range", low=0, high=modulus - 1),
        initial_memory=0,
        functions=functions,
        next_state=next_state,
    )


# --- random communicating systems ---------------------------------------------


def _csxm_component(rng: random.Random, index: int, partner: int) -> Csxm:
    """A small component: a local loop, a port reader, an emitter and one
    communicating sender.  Port-reading and port-ignoring cases stay
    disjoint so the product under-approximates nothing."""
    n_mem = rng.randint(1, 2)
    n_port = rng.randint(1, n_mem)
    mem = MemoryDomain(kind="range", low=0, high=n_mem - 1)
    port_values = tuple(range(n_port))
    x, y, z = f"x{index}", f"y{index}", f"z{index}"
    o1, o2, o3 = f"u{index}", f"v{index}", f"w{index}"
    loc = CsxmCaseFunction(
        "loc", "ordinary",
        [CsxmCase.build("?m", "⊥_M", x, o1, f"(?m + 1) % {n_mem}")],
    )
    read = CsxmCaseFunction(
        "read", "ordinary",
        [CsxmCase.build("?m", "?p where ?p != ⊥_M", y, o2, f"(?p + ?m) % {n_mem}")],
    )
    emit = CsxmCaseFunction(
        "emit", "ordinary",
        [CsxmCase.build("?m", "⊥_M", z, o3, "?m", out_port=f"?m % {n_port}")],
    )
    snd = CsxmCaseFunction(
        "snd", "communicating",
        [CsxmCase.build("?m", "⊥_M", "λ", "λ", "?m", send_to=partner)],
    )
    states = {"p0", "p1", "c0"}
    next_state = {
        ("p0", "loc"): ("p0",),
        ("p0", "emit"): ("c0",),
        ("p0", "read"): ("p1",),
        ("p1", "loc"): ("p0",) if rng.random() < 0.5 else ("p1",),
        ("p1", "read"): ("p1",),
        ("c0", "snd"): ("p1",) if rng.random() < 0.5 else ("p0",),
    }
    if rng.random() < 0.4:
        next_state[("p1", "emit")] = ("c0",)
    return Csxm(
        name=f"c{index}",
        inputs=frozenset({x, y, z}),
        outputs=frozenset({o1, o2, o3}),
        states=frozenset(states),
        initial_states=frozenset({"p0"}),
        terminal_states=frozenset(states),
        memory_domain=mem,
        initial_memory=0,
        functions={"loc": loc, "read": read, "emit": emit, "snd": snd},
        next_state=next_state,
        in_port_domain=port_values,
        out_port_domain=port_values,
        ordinary_states=frozenset({"p0", "p1"}),
        communicating_states=frozenset({"c0"}),
        ordinary_functions=frozenset({"loc", "read", "emit"}),
        communicating_functions=frozenset({"snd"}),
    )


def random_csxm_system(seed: int) -> CsxmSystem:
    rng = random.Random(f"csxms:{seed}")
    c1 = _csxm_component(rng, 1, 2)
    c2 = _csxm_component(rng, 2, 1)
    return CsxmSystem(name=f"sys{seed}", components=(c1, c2))
