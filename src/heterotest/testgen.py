"""Finite-automaton test algorithms and input-sequence generation.

Implements partition-refinement minimisation, the prefix-closed state cover,
the characterisation set, W-method sequence expansion, and the translation
of function sequences into concrete input sequences by walking the
specification's memory.  All tie-breaks are lexicographic so generated
suites are reproducible byte for byte.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .dft import check_dft
from .errors import (
    DftFailure,
    NondeterministicInput,
    NotMinimalError,
    UnreachableStateError,
)
from .sxm import Automaton, Sxm, associated_automaton, replay_outputs, replay_sequences
from .sxm import TestCase, TestSuite  # the package exports them from here

PhiSequence = Tuple[str, ...]


def _require_deterministic(a: Automaton) -> None:
    witness = a.nondeterministic_witness()
    if witness is not None:
        raise NondeterministicInput(
            f"automaton is nondeterministic at state {witness[0]}, label {witness[1]}"
        )


def reachable_states(a: Automaton) -> FrozenSet[str]:
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


def prune_unreachable(a: Automaton) -> Automaton:
    keep = reachable_states(a)
    return Automaton(
        states=keep,
        initial=a.initial & keep,
        terminal=a.terminal & keep,
        arcs=frozenset(arc for arc in a.arcs if arc[0] in keep and arc[2] in keep),
    )


def minimize_automaton(a: Automaton) -> Automaton:
    """Smallest automaton with the same defined-sequence/acceptance
    behaviour, states renamed q0, q1, ... in state-cover order (breadth-first
    from the initial state, labels expanded in sorted order)."""
    _require_deterministic(a)
    a = prune_unreachable(a)
    labels = a.labels()
    trans = a.transitions

    # Moore-style refinement; undefined transitions are part of the signature
    # because a missing arc is observable (the machine stops producing output).
    # Each round refines the last, so the partition is stable once the block
    # count stops growing.
    block: Dict[str, int] = {q: (1 if q in a.terminal else 0) for q in a.states}
    count = len(set(block.values()))
    while True:
        signatures = {
            q: (block[q],) + tuple(block.get(trans.get((q, label))) for label in labels)
            for q in a.states
        }
        renumber = {sig: idx for idx, sig in enumerate(sorted(set(signatures.values()), key=repr))}
        block = {q: renumber[signatures[q]] for q in a.states}
        if len(renumber) == count:
            break
        count = len(renumber)

    quotient = Automaton(
        states=frozenset(block.values()),
        initial=frozenset(block[q] for q in a.initial),
        terminal=frozenset(block[q] for q in a.terminal),
        arcs=frozenset((block[q], label, block[dst]) for (q, label), dst in trans.items()),
    )
    name = {b: f"q{i}" for i, b in enumerate(_cover_map(quotient))}
    return Automaton(
        states=frozenset(name.values()),
        initial=frozenset(name[b] for b in quotient.initial),
        terminal=frozenset(name[b] for b in quotient.terminal),
        arcs=frozenset((name[b], label, name[c]) for b, label, c in quotient.arcs),
    )


def state_cover(a: Automaton) -> set:
    """Prefix-closed set holding one shortest access sequence per state.

    Ties between equal-length sequences break lexicographically on label
    names.  The empty sequence reaches the initial state.
    """
    _require_deterministic(a)
    cover = _cover_map(a)
    missing = sorted(a.states - cover.keys())
    if missing:
        raise UnreachableStateError(f"unreachable states: {missing}", missing)
    return set(cover.values())


def _cover_map(a: Automaton) -> Dict[str, PhiSequence]:
    """One shortest access sequence per reachable state, in the order a
    breadth-first walk over sorted labels discovers the states."""
    initial = next(iter(a.initial))
    labels = a.labels()
    trans = a.transitions
    cover: Dict[str, PhiSequence] = {initial: ()}
    queue = deque([initial])
    while queue:
        q = queue.popleft()
        for label in labels:
            dst = trans.get((q, label))
            if dst is not None and dst not in cover:
                cover[dst] = cover[q] + (label,)
                queue.append(dst)
    return cover


def _walk(a: Automaton, start: str, seq: PhiSequence) -> Optional[str]:
    q = start
    for label in seq:
        q = a.transitions.get((q, label))
        if q is None:
            return None
    return q


def separates(a: Automaton, u: str, v: str, seq: PhiSequence) -> bool:
    """True when ``seq`` observably distinguishes states u and v: the walk
    is defined from exactly one of them, or it ends with different
    acceptance."""
    pu = _walk(a, u, seq)
    pv = _walk(a, v, seq)
    if (pu is None) != (pv is None):
        return True
    if pu is None:
        return False
    return (pu in a.terminal) != (pv in a.terminal)


def _shortest_separator(
    a: Automaton, labels: Tuple[str, ...], u: str, v: str
) -> Optional[PhiSequence]:
    trans = a.transitions
    seen = {frozenset((u, v))}
    queue = deque([(u, v, ())])
    while queue:
        x, y, prefix = queue.popleft()
        if (x in a.terminal) != (y in a.terminal):
            return prefix
        for label in labels:
            nx = trans.get((x, label))
            ny = trans.get((y, label))
            if (nx is None) != (ny is None):
                return prefix + (label,)
            if nx is None or nx == ny:
                continue
            key = frozenset((nx, ny))
            if key not in seen:
                seen.add(key)
                queue.append((nx, ny, prefix + (label,)))
    return None


def characterization_set(a: Automaton) -> set:
    """A set W separating every pair of distinct states.

    Greedy construction, shortest separators first; {()} for single-state
    automata.  Raises :class:`NotMinimalError` when two states cannot be
    separated at all.
    """
    _require_deterministic(a)
    states = sorted(a.states)
    if len(states) == 1:
        return {()}
    pairs = [(u, v) for i, u in enumerate(states) for v in states[i + 1 :]]
    labels = a.labels()
    shortest: Dict[tuple, PhiSequence] = {}
    for u, v in pairs:
        sep = _shortest_separator(a, labels, u, v)
        if sep is None:
            raise NotMinimalError(f"states {u} and {v} are not separable")
        shortest[(u, v)] = sep
    w: set = set()
    for u, v in sorted(pairs, key=lambda p: (len(shortest[p]), shortest[p])):
        if not any(separates(a, u, v, seq) for seq in w):
            w.add(shortest[(u, v)])
    return w


def w_method_phi_sequences(a: Automaton, k: int) -> set:
    """The W-method sequence set C . (labels^{<=k+1} u {eps}) . W."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _w_method_sequences(a, k, state_cover(a), characterization_set(a))


def _w_method_sequences(a: Automaton, k: int, cover: set, w: set) -> set:
    if k < 0:
        raise ValueError("k must be >= 0")
    labels = a.labels()
    middle: set = {()}
    layer: set = {()}
    for _ in range(k + 1):
        layer = {seq + (label,) for seq in layer for label in labels}
        middle |= layer
    return {c + m + suffix for c in cover for m in middle for suffix in w}


def fundamental_test_inputs(model: Sxm, seq: PhiSequence) -> Tuple[str, ...]:
    """Translate a function sequence into a concrete input sequence.

    Walks the sequence tracking actual memory from the initial memory; each
    step takes the lexicographically smallest input on which the function is
    defined.  From the first step where the function is infeasible for every
    input, the walk degrades to picking the smallest input outright for the
    remainder of the sequence.
    """
    ((inputs, _),) = _translate(model, [seq])
    return inputs


def _translate(model: Sxm, sequences) -> Iterator[Tuple[Tuple[str, ...], bool]]:
    """(inputs, fell back) for each function sequence, in order."""
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


def build_w_suite(model: Sxm, k: int, metadata=None) -> TestSuite:
    """W-method suite without the DFT gate (callers gate themselves).

    The case set is closed under input prefixes: expected outputs compare
    complete runs only, and testing every prefix of a sequence is what makes
    that equivalent to observing the output stream step by step.
    """
    minimal = minimize_automaton(prune_unreachable(associated_automaton(model)))
    cover = state_cover(minimal)
    w = characterization_set(minimal)
    sequences = sorted(_w_method_sequences(minimal, k, cover, w))
    inputs: set = set()
    fallback_count = 0
    for input_seq, fell_back in _translate(model, sequences):
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


def generate_sxm_test_suite(model: Sxm, k: int) -> TestSuite:
    """DFT-gated W-method suite for a single machine.

    Raises :class:`DftFailure` carrying the report when any design-for-test
    condition fails; sampled (non-exhaustive) passes are allowed but flagged
    in the metadata.
    """
    report = check_dft(model)
    if not report.all_pass():
        raise DftFailure(f"model {model.name!r} fails design-for-test checks", report)
    return build_w_suite(model, k, metadata={"dft_exhaustive": report.exhaustive})
