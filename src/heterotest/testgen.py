"""Finite-automaton test algorithms and input-sequence generation.

Implements partition-refinement minimisation, the prefix-closed state cover,
the characterisation set, W-method sequence expansion, and the translation
of function sequences into concrete input sequences by walking the
specification's memory.  A suite is built by one memoised walk of the
W-method set's automaton that translates as it goes, never by listing the
set.  All tie-breaks are lexicographic so generated suites are reproducible
byte for byte.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Optional, Tuple

from .dft import check_dft
from .errors import (
    DftFailure,
    ExplosionBoundExceeded,
    NondeterministicInput,
    NotMinimalError,
    UnreachableStateError,
)
from .sxm import Automaton, Sxm, associated_automaton, replay_outputs
from .sxm import TestCase, TestSuite  # the package exports them from here

PhiSequence = Tuple[str, ...]

# The most cases (distinct input sequences) a generated suite may have,
# counted before any case is built.  The largest suite of the shipped
# models, the test models and the perfbench/gen.py inputs at seeds 0-31 has
# 4,559 cases (ps2_heterotic at k=4); ps2_heterotic has 60,892 at k=6 and
# passes the cap at k=7, counter_testable passes it at k=14.
CASE_CAP = 100_000


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
    cover = state_cover(a)
    w = characterization_set(a)
    labels = a.labels()
    middle: set = {()}
    layer: set = {()}
    for _ in range(k + 1):
        layer = {seq + (label,) for seq in layer for label in labels}
        middle |= layer
    return {c + m + suffix for c in cover for m in middle for suffix in w}


def _choose_input(model: Sxm, inputs, memory, fell_back: bool, fn_name: str):
    """One step of translating a function sequence into inputs.

    Returns (input, memory after it, fell back): the smallest input on
    which the function is defined at ``memory``; where it is defined on
    none, and at every step after that, ``inputs[0]``, with the translation
    fallen back and the memory dropped.  A function's ``candidate_inputs``,
    where it has them, are the only inputs tried.
    """
    if not fell_back:
        fn = model.functions[fn_name]
        candidates = fn.candidate_inputs
        for sym in inputs if candidates is None else candidates:
            result = fn.evaluate(memory, sym)
            if result is not None:
                return sym, result[1], False
    return inputs[0], None, True


def fundamental_test_inputs(model: Sxm, seq: PhiSequence) -> Tuple[str, ...]:
    """Translate a function sequence into a concrete input sequence.

    Walks the sequence tracking actual memory from the initial memory; each
    step takes the lexicographically smallest input on which the function is
    defined.  From the first step where the function is infeasible for every
    input, the walk degrades to picking the smallest input outright for the
    remainder of the sequence.
    """
    inputs = sorted(model.inputs)
    memory, fell_back = model.initial_memory, False
    chosen = []
    for fn_name in seq:
        sym, memory, fell_back = _choose_input(model, inputs, memory, fell_back, fn_name)
        chosen.append(sym)
    return tuple(chosen)


def _w_set_automaton(a: Automaton, k: int, cover: set, w: set):
    """The automaton of C . (labels^{<=k+1} u {eps}) . W, determinised as
    it is walked.

    A state is a triple: the state-cover trie node reached (or None), the
    middle lengths reached (0 to k+1) and the W-trie nodes reached, closed
    under the empty moves: a cover node also stands at middle length 0, and
    a cover node or a middle length at the W root.  Every cover node, middle
    length and W-trie node can still reach an accepted word, so every state
    can.  Returns ``(start, step, accepting)``; ``step`` returns None where
    no word continues.
    """
    w_nodes = {seq[:cut] for seq in w for cut in range(len(seq) + 1)}

    def closed(node, middle, tail):
        if node is not None:
            middle = middle | {0}
        if middle:
            tail = tail | {()}
        return (node, frozenset(middle), frozenset(tail)) if tail else None

    def step(state, label):
        node, middle, tail = state
        node = node + (label,) if node is not None else None
        return closed(
            node if node in cover else None,
            {m + 1 for m in middle if m <= k},
            {t + (label,) for t in tail if t + (label,) in w_nodes},
        )

    def accepting(state) -> bool:
        return not state[2].isdisjoint(w)

    return closed((), frozenset(), frozenset()), step, accepting


class _SuiteGraph:
    """The nodes of the suite walk, numbered as they are met.

    A node is a state of the W-set automaton with the translation state
    reached along with it: (state, memory, fell back), the memory dropped
    once the translation has fallen back.  ``edges(node)`` lists, for each
    label in sorted order that some accepted word continues with, the input
    the translation chooses and the node reached; ``accepting(state)`` says
    whether an accepted word ends at a state.
    """

    def __init__(self, model: Sxm, a: Automaton, k: int, cover: set, w: set):
        start, self._step, self.accepting = _w_set_automaton(a, k, cover, w)
        self._model = model
        self._labels = a.labels()
        self._inputs = sorted(model.inputs)
        self._choice: Dict[tuple, tuple] = {}
        self._ids: Dict[tuple, int] = {}
        self._edges: list = []
        self.keys: list = []  # node -> (state, memory, fell back)
        self.root = self._node((start, model.initial_memory, False))

    def _node(self, key: tuple) -> int:
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self._edges.append(None)
        return node

    def edges(self, node: int) -> list:
        edges = self._edges[node]
        if edges is None:
            state, memory, fell_back = self.keys[node]
            edges = self._edges[node] = []
            for label in self._labels:
                nxt = self._step(state, label)
                if nxt is None:
                    continue
                choice = self._choice.get((memory, fell_back, label))
                if choice is None:
                    choice = self._choice[(memory, fell_back, label)] = _choose_input(
                        self._model, self._inputs, memory, fell_back, label
                    )
                sym, after, fell = choice
                edges.append((sym, self._node((nxt, after, fell))))
        return edges


def _check_case_cap(graph: _SuiteGraph, k: int) -> None:
    """Count the suite's distinct input sequences, one input length at a
    time, and raise :class:`ExplosionBoundExceeded` as soon as the count
    passes ``CASE_CAP``.

    Each input sequence reaches one set of walk nodes, so a layer maps such
    sets to the number of sequences that reach them; no sequence is built.
    """
    cap = CASE_CAP
    layer = {frozenset((graph.root,)): 1}
    count = 1
    while layer:
        following: Dict[FrozenSet[int], int] = {}
        for nodes, ways in layer.items():
            by_input: Dict[str, set] = {}
            for node in nodes:
                for sym, child in graph.edges(node):
                    by_input.setdefault(sym, set()).add(child)
            for children in by_input.values():
                key = frozenset(children)
                following[key] = following.get(key, 0) + ways
                count += ways
                if count > cap:
                    raise ExplosionBoundExceeded(
                        f"more than {cap} cases in the W-method suite at k={k} "
                        f"({count} counted before stopping)"
                    )
        layer = following


def _walk_suite(graph: _SuiteGraph) -> Tuple[FrozenSet[Tuple[str, ...]], int, int]:
    """The root's (input sequences, accepted words, accepted words whose
    translation fell back) over the walk below it.

    Each node's triple is built once from its children's, in post-order
    over an explicit stack: the walk is as deep as the longest word.
    """
    done: Dict[int, tuple] = {}
    stack = [graph.root]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        edges = graph.edges(node)
        pending = [child for _, child in edges if child not in done]
        if pending:
            stack += pending
            continue
        stack.pop()
        state, _, fell_back = graph.keys[node]
        accepted = graph.accepting(state)
        words = int(accepted)
        fallbacks = int(accepted and fell_back)
        below: Dict[str, list] = {}
        for sym, child in edges:
            suffixes, child_words, child_fallbacks = done[child]
            below.setdefault(sym, []).append(suffixes)
            words += child_words
            fallbacks += child_fallbacks
        inputs = [()]
        for sym, parts in below.items():
            inputs += [(sym,) + suffix for suffix in frozenset().union(*parts)]
        done[node] = (frozenset(inputs), words, fallbacks)
    return done[graph.root]


def build_w_suite(model: Sxm, k: int, metadata=None) -> TestSuite:
    """W-method suite without the DFT gate (callers gate themselves).

    The case set is closed under input prefixes: expected outputs compare
    complete runs only, and testing every prefix of a sequence is what makes
    that equivalent to observing the output stream step by step.  It is the
    set of inputs that translate the prefixes of the words of
    :func:`w_method_phi_sequences` on the minimal associated automaton, made
    by one memoised walk of that set's automaton, so its cost follows the
    number of cases rather than of words.  A suite of more than
    ``CASE_CAP`` cases raises :class:`ExplosionBoundExceeded` before any
    case is built.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    minimal = minimize_automaton(prune_unreachable(associated_automaton(model)))
    cover = state_cover(minimal)
    w = characterization_set(minimal)
    graph = _SuiteGraph(model, minimal, k, cover, w)
    _check_case_cap(graph, k)
    inputs, phi_sequences, fallback_sequences = _walk_suite(graph)
    ordered = sorted(inputs)
    cases = tuple(map(TestCase, ordered, replay_outputs(model, ordered)))
    meta = {
        "method": "W",
        "k": k,
        "state_cover_size": len(cover),
        "characterization_size": len(w),
        "phi_sequences": phi_sequences,
        "fallback_sequences": fallback_sequences,
        "prefix_closed": True,
    }
    if metadata:
        meta.update(metadata)
    return TestSuite(cases, meta)


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
