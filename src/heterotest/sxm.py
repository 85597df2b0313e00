"""Stream X-machine data model, configuration-change semantics and the
computed relation.

A machine is a finite automaton whose arcs are labelled with named partial
processing functions over a memory set.  Each applied function consumes one
input symbol and emits one output symbol.  Models are immutable after
construction; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .errors import (
    BranchBoundExceeded,
    ExplosionBoundExceeded,
    MissingSampleError,
    TermError,
    Violation,
)
from .records import aside, record
from .terms import Pattern, Term, parse_expr, parse_pattern
from .values import RESERVED_ATOMS, Value, is_value, render, sort_key

S = TypeVar("S")
T = TypeVar("T")

# The simultaneous-branch bound of every machine run, read where it is checked.
BRANCH_BOUND = 256
# The most values a memory domain may enumerate, checked from its declared
# size before any value is built.  The largest domain among the shipped
# models, the test models and the perfbench/gen.py inputs at seeds 0-31 is
# the memory of a three-component heterotic_suite system's product, 110,592
# values; no machine or component declares more than 8.  A machine of two
# inputs at the cap validates in about 1 s and 31 MB.
DOMAIN_CAP = 200_000


class ProcessingFunction:
    """A named partial function memory x input -> output x memory.

    ``candidate_inputs``, where not None, holds in sorted order every input
    on which the function may be defined.
    """

    name: str
    candidate_inputs: Optional[Tuple[str, ...]] = None

    def evaluate(self, memory: Value, input_symbol: str) -> Optional[Tuple[str, Value]]:
        raise NotImplementedError


@record
class Case:
    """One row of a case table: pattern + input -> output + update."""

    mem_pattern: str
    input: str
    output: str
    mem_next: str
    pattern: Pattern = aside()
    update: Term = aside()

    @classmethod
    def build(cls, mem_pattern: str, input: str, output: str, mem_next: str) -> "Case":
        return cls(mem_pattern, input, output, mem_next, parse_pattern(mem_pattern),
                   parse_expr(mem_next))

    def bind(self, memory: Value, input_symbol: str):
        return self.pattern.match(memory)

    def apply(self, env) -> Tuple[str, Value]:
        return self.output, self.update.evaluate(env)


def first_match(cases: tuple, *key) -> Optional[Tuple[int, object]]:
    """(index, result) of the first of ``cases`` that binds ``key``, or
    None where none does.

    A key is what the cases ``bind``: (memory, input) for :class:`Case`,
    (memory, input, in-port) for a communicating machine's case.  Only the
    cases whose input is the key's input are tried, top to bottom; a case
    binds a key to None or an environment, or raises :class:`TermError`,
    which stops matching and propagates, as one raised by the first
    match's ``apply`` does.
    """
    input_symbol = key[1]
    for idx, case in enumerate(cases):
        if case.input == input_symbol:
            env = case.bind(*key)
            if env is not None:
                return idx, case.apply(env)
    return None


class CaseFunction(ProcessingFunction):
    """A processing function given by an ordered case table.

    Cases are tried top to bottom on each call (:func:`first_match`); a
    well-formed model has at most one matching case for every (memory,
    input) pair, which ``validate_sxm`` checks by enumeration over the
    declared domain.
    """

    def __init__(self, name: str, cases: Sequence[Case]):
        self.name = name
        self.cases = tuple(cases)

    def evaluate(self, memory, input_symbol):
        hit = first_match(self.cases, memory, input_symbol)
        return None if hit is None else hit[1]

    def fired_case(self, memory: Value, input_symbol: str) -> Optional[int]:
        """The index of the case ``evaluate`` applies, or None where the
        function is undefined; raises where ``evaluate`` raises."""
        hit = first_match(self.cases, memory, input_symbol)
        return None if hit is None else hit[0]

    def __repr__(self):
        return f"CaseFunction({self.name!r}, {len(self.cases)} cases)"


@record
class MemoryDomain:
    """Declared memory domain: finite set, integer range, open + sample, or
    the product of other domains (a product machine's memory).

    Open domains must carry a finite test sample; checks that quantify over
    memory then report "sampled, not exhaustive".  A product is open when
    any of its parts is.
    """

    kind: str  # "set" | "range" | "open" | "product"
    values: Tuple[Value, ...] = ()
    low: int = 0
    high: int = -1
    sample: Tuple[Value, ...] = ()
    parts: Tuple["MemoryDomain", ...] = ()

    @property
    def size(self) -> int:
        """The number of values :meth:`enumerate` returns, read from the
        declaration alone."""
        if self.kind == "set":
            return len(self.values)
        if self.kind == "range":
            return max(0, self.high - self.low + 1)
        if self.kind == "open":
            return len(self.sample)
        if self.kind == "product":
            return prod(part.size for part in self.parts)
        raise ValueError(f"unknown domain kind {self.kind!r}")

    @property
    def exhaustive(self) -> bool:
        return self.kind != "open" and all(part.exhaustive for part in self.parts)

    def enumerate(self, owner: str) -> Tuple[Tuple[Value, ...], bool]:
        """Return (values, exhaustive): a declared domain's values in
        declared order, a product's tuples in the order of
        :func:`itertools.product` over its parts, or an open domain's sample.

        A domain of more than ``DOMAIN_CAP`` values raises
        :class:`ExplosionBoundExceeded` naming ``owner``, the model that
        declares it, before any value is built.
        """
        size, cap = self.size, DOMAIN_CAP
        if size > cap:
            raise ExplosionBoundExceeded(
                f"memory domain of {owner} has {size} values, more than the cap of {cap}"
            )
        return self._values(), self.exhaustive

    def _values(self) -> Tuple[Value, ...]:
        if self.kind == "set":
            return self.values
        if self.kind == "range":
            return tuple(range(self.low, self.high + 1))
        if self.kind == "open":
            if not self.sample:
                raise MissingSampleError("open memory domain declares no test sample")
            return self.sample
        return tuple(product(*(part._values() for part in self.parts)))

    def contains(self, v: Value) -> Optional[bool]:
        """True/False for declared domains, None (unknown) for open ones."""
        if self.kind == "set":
            return v in self.values
        if self.kind == "range":
            return isinstance(v, int) and not isinstance(v, bool) and self.low <= v <= self.high
        if self.kind == "product" and self.exhaustive:
            return (isinstance(v, tuple) and len(v) == len(self.parts)
                    and all(map(MemoryDomain.contains, self.parts, v)))
        return None


@record
class Sxm:
    """A stream X-machine.

    ``next_state`` maps (state, function name) to a tuple of target states;
    more than one target makes the machine nondeterministic, which the data
    model permits (products need it) but run exploration bounds.
    """

    kind = "sxm"  # the model-file kind; a class attribute, not a field

    name: str
    inputs: FrozenSet[str]
    outputs: FrozenSet[str]
    states: FrozenSet[str]
    initial_states: FrozenSet[str]
    terminal_states: FrozenSet[str]
    memory_domain: MemoryDomain
    initial_memory: Value
    functions: Mapping[str, ProcessingFunction]
    next_state: Mapping[Tuple[str, str], Tuple[str, ...]]

    @cached_property
    def arcs_by_state(self) -> Mapping[str, Tuple[Tuple[str, Tuple[str, ...]], ...]]:
        """The (function name, targets) of each source state's arcs, in
        ``next_state`` order."""
        arcs: dict = {}
        for (q, fn_name), targets in self.next_state.items():
            arcs.setdefault(q, []).append((fn_name, targets))
        return {q: tuple(out) for q, out in arcs.items()}


@record
class SxmConfiguration:
    """Machine snapshot after a consumed prefix: memory, control state and
    the outputs emitted so far."""

    memory: Value
    state: str
    output_so_far: Tuple[str, ...]

    def key(self):
        return (sort_key(self.memory), self.state, self.output_so_far)


@record
class TestCase:
    input: Tuple[str, ...]
    expected_outputs: Tuple[Tuple[str, ...], ...]


@record
class TestSuite:
    """Input sequences with the outputs the machine may answer each with;
    ``testgen`` builds suites and ``model_io`` reads them back."""

    cases: Tuple[TestCase, ...]
    metadata: Dict[str, object] = aside()

    def inputs(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(case.input for case in self.cases)


@record
class Automaton:
    """The finite automaton left after forgetting memory: arcs carry
    processing-function names."""

    states: FrozenSet[str]
    initial: FrozenSet[str]
    terminal: FrozenSet[str]
    arcs: FrozenSet[Tuple[str, str, str]]

    def labels(self) -> Tuple[str, ...]:
        return tuple(sorted({label for _, label, _ in self.arcs}))

    @cached_property
    def transitions(self) -> Mapping[Tuple[str, str], str]:
        """(state, label) -> target; a deterministic automaton's arcs."""
        return {(src, label): dst for src, label, dst in self.arcs}

    def conflicts(self) -> Iterator[Tuple[str, str]]:
        """(state, label) once for every arc after the first that leaves
        ``state`` under ``label``, in sorted arc order."""
        previous = None
        for src, label, _ in sorted(self.arcs):
            if previous == (src, label):
                yield previous
            previous = (src, label)

    def nondeterministic_witness(self) -> Optional[Tuple[str, str]]:
        """None for a deterministic automaton, else the initial-state set
        or the first conflicting (state, label)."""
        if len(self.initial) != 1:
            return ("<initial>", ",".join(sorted(self.initial)))
        return next(self.conflicts(), None)


def structure_violations(model, prefix: str = "") -> list[Violation]:
    """The structural checks a machine and a communicating machine share:
    reserved atoms, the state sets, the next-state map, the initial memory
    and the values a memory domain lists.  ``prefix`` starts every
    ``where``."""
    out: list[Violation] = []

    for atom in sorted(RESERVED_ATOMS & model.inputs):
        out.append(Violation(f"{prefix}inputs", f"reserved atom {atom!r} in input alphabet"))
    for atom in sorted(RESERVED_ATOMS & model.outputs):
        out.append(Violation(f"{prefix}outputs", f"reserved atom {atom!r} in output alphabet"))

    if not model.states:
        out.append(Violation(f"{prefix}states", "state set is empty"))
    if not model.initial_states:
        out.append(Violation(f"{prefix}initial_states", "no initial state declared"))
    for q in sorted(model.initial_states - model.states):
        out.append(Violation(f"{prefix}initial_states", f"unknown state {q!r}"))
    for q in sorted(model.terminal_states - model.states):
        out.append(Violation(f"{prefix}terminal_states", f"unknown state {q!r}"))

    for (q, fn), targets in sorted(model.next_state.items()):
        where = f"{prefix}next_state[{q},{fn}]"
        if q not in model.states:
            out.append(Violation(where, f"unknown source state {q!r}"))
        if fn not in model.functions:
            out.append(Violation(where, f"unknown function {fn!r}"))
        for t in targets:
            if t not in model.states:
                out.append(Violation(where, f"unknown target state {t!r}"))
        if not targets:
            out.append(Violation(where, "entry has no target states"))

    if model.memory_domain.contains(model.initial_memory) is False:
        out.append(
            Violation(
                f"{prefix}initial_memory",
                f"initial memory {render(model.initial_memory)} lies outside the declared domain",
            )
        )
    domain = model.memory_domain
    return out + repeat_violations(domain.values + domain.sample, f"{prefix}memory_domain")


def repeat_violations(values: Sequence[Value], where: str) -> list[Violation]:
    """One violation for each value ``values`` lists more than once, in the
    order of their first listing."""
    return [Violation(where, f"value {render(v)} listed more than once")
            for v, count in Counter(values).items() if count > 1]


def validate_sxm(model: Sxm) -> list[Violation]:
    """Check every structural invariant; an empty report means valid."""
    out = structure_violations(model)
    tables = [(name, fn.cases) for name, fn in sorted(model.functions.items())
              if isinstance(fn, CaseFunction)]
    for name, cases in tables:
        for idx, case in enumerate(cases):
            where = f"functions[{name}].cases[{idx}]"
            if case.input not in model.inputs:
                out.append(Violation(where, f"input {case.input!r} not in the input alphabet"))
            if case.output not in model.outputs:
                out.append(Violation(where, f"output {case.output!r} not in the output alphabet"))
    tails = tuple((sym,) for sym in sorted(model.inputs))
    return out + point_violations(model, "", tables, tails, None)


def point_violations(model, prefix: str, tables, tails, out_ports) -> list[Violation]:
    """The checks that quantify over memory, for both machine kinds.

    A point is a memory value of the declared domain or sample followed by
    a tail of ``tails``: (input,) for a machine, (input, in-port) for a
    communicating machine.  At every point the case tables of ``tables``,
    (function name, cases) pairs, must not overlap or fail to match; on a
    declared domain, the first match must also update within the domain
    and, unless ``out_ports`` is None (a machine, whose results are
    (output, memory) pairs), set the out-port only to a value of
    ``out_ports``.  ``prefix`` starts every ``where``.
    """
    try:
        values, _ = model.memory_domain.enumerate(model.name)
    except MissingSampleError:
        return [Violation(f"{prefix}memory_domain", "open domain declares no test sample")]
    for v in values:
        if not is_value(v):
            return [Violation(f"{prefix}memory_domain", f"not a value: {v!r}")]
    return [v for name, cases in tables
            for v in _domain_violations(f"{prefix}functions[{name}]", cases,
                                        model.memory_domain, tails, out_ports)]


def _point(m: Value, tail) -> str:
    text = f"memory {render(m)}, input {tail[0]!r}"
    return text if len(tail) == 1 else f"{text}, in-port {render(tail[1])}"


# The checks over the memory domain depend on nothing but these arguments,
# and a mutant shares all but at most one function with its specification,
# so its unchanged functions skip the walk.  Each point is matched against
# every case once and kept no longer than its own checks.
@lru_cache(maxsize=4096)
def _domain_violations(where, cases, domain, tails, out_ports) -> Tuple[Violation, ...]:
    values, _ = domain.enumerate(where)
    out = []
    overlap_reported = set()
    for m in values:
        for tail in tails:
            # every matching case, up to the first binding that raises
            hits, env, error = [], None, None
            for idx, case in enumerate(cases):
                if case.input != tail[0]:
                    continue
                try:
                    bound = case.bind(m, *tail)
                except TermError as exc:
                    error = exc
                    break
                if bound is not None:
                    if not hits:
                        env = bound
                    hits.append(idx)
            if error is not None:
                out.append(Violation(where, f"pattern error: {error}"))
                continue
            if len(hits) > 1 and (hits[0], hits[1]) not in overlap_reported:
                overlap_reported.add((hits[0], hits[1]))
                out.append(Violation(where, f"cases {hits[0]} and {hits[1]} overlap at "
                                            f"{_point(m, tail)}"))
            if not hits or domain.kind == "open":
                continue
            try:
                result = cases[hits[0]].apply(env)
            except TermError as exc:
                out.append(Violation(where, f"update error at {render(m)}: {exc}"))
                continue
            memory = result[1] if out_ports is None else result.memory
            if domain.contains(memory) is False:
                out.append(Violation(where, f"update at {_point(m, tail)} leaves the "
                                            f"declared domain ({render(memory)})"))
            if out_ports is not None and result.set_out_port and result.out_port not in out_ports:
                out.append(Violation(where, f"out-port at {_point(m, tail)} leaves the "
                                            f"out-port domain ({render(result.out_port)})"))
    return tuple(out)


def replay_sequences(
    sequences: Iterable[Sequence[T]],
    start: S,
    advance: Callable[[S, T], S],
) -> Iterator[S]:
    """Yield the state reached after each sequence, in the order given.

    Each sequence restarts from the state saved for the longest prefix it
    shares with the previous one and advances only over the rest, so a
    sorted list costs one step per distinct non-empty prefix.
    ``advance`` must be a pure function of its arguments.
    """
    path: list = []
    states = [start]
    for seq in sequences:
        shared = 0
        limit = min(len(path), len(seq))
        while shared < limit and path[shared] == seq[shared]:
            shared += 1
        del path[shared:]
        del states[shared + 1 :]
        state = states[-1]
        for symbol in seq[shared:]:
            state = advance(state, symbol)
            path.append(symbol)
            states.append(state)
        yield state


def _layer(model: Sxm, frontier, symbol: str, fired: Optional[set]):
    """Every configuration one step from ``frontier`` on ``symbol``,
    deduplicated and sorted.  With ``fired``, adds ``("arc", state,
    function)`` for each arc applied and ``("case", function, case
    index)`` for each case of a case table applied."""
    functions, arcs = model.functions, model.arcs_by_state
    successors = set()
    for cfg in frontier:
        for fn_name, targets in arcs.get(cfg.state, ()):
            fn = functions[fn_name]
            result = fn.evaluate(cfg.memory, symbol)
            if result is None:
                continue
            if fired is not None:
                fired.add(("arc", cfg.state, fn_name))
                if isinstance(fn, CaseFunction):
                    fired.add(("case", fn_name, fn.fired_case(cfg.memory, symbol)))
            output, memory = result
            produced = cfg.output_so_far + (output,)
            for target in targets:
                successors.add(SxmConfiguration(memory, target, produced))
    return tuple(sorted(successors, key=SxmConfiguration.key))


def _replay_frontiers(
    model: Sxm, sequences: Iterable[Sequence[str]], reach: bool = False
) -> Iterator:
    """The final frontier of each input sequence, in order.

    A frontier holds every configuration reached after a prefix; each layer
    is one :func:`_layer` step.  A layer wider than ``BRANCH_BOUND`` raises
    :class:`BranchBoundExceeded`.  With ``reach``, each frontier is paired
    with the frozenset of arcs and cases fired on the way to it (see
    :func:`_layer`).
    """
    branch_bound = BRANCH_BOUND

    def bounded(frontier):
        if len(frontier) > branch_bound:
            raise BranchBoundExceeded(f"more than {branch_bound} simultaneous branches")
        return frontier

    start = tuple(
        SxmConfiguration(model.initial_memory, q, ()) for q in sorted(model.initial_states)
    )
    if reach:
        def advance(node, symbol):
            fired = set(node[1])
            return bounded(_layer(model, node[0], symbol, fired)), frozenset(fired)

        root = (start, frozenset())
    else:
        def advance(frontier, symbol):
            return bounded(_layer(model, frontier, symbol, None))

        root = start
    sequences = list(sequences)
    if sequences:
        bounded(start)
    yield from replay_sequences(sequences, root, advance)


def _final_outputs(model: Sxm, frontier) -> Tuple[Tuple[str, ...], ...]:
    return tuple(
        sorted({cfg.output_so_far for cfg in frontier if cfg.state in model.terminal_states})
    )


def replay_outputs(
    model: Sxm, sequences: Iterable[Sequence[str]]
) -> Iterator[Tuple[Tuple[str, ...], ...]]:
    """Yield :func:`run_outputs` of each input sequence, in order, sharing
    the work of common prefixes between consecutive sequences."""
    for frontier in _replay_frontiers(model, sequences):
        yield _final_outputs(model, frontier)


def replay_reached(
    model: Sxm, sequences: Iterable[Sequence[str]]
) -> Iterator[Tuple[Tuple[Tuple[str, ...], ...], FrozenSet[tuple]]]:
    """Yield, for each input sequence in order, its :func:`run_outputs`
    and what its run fired on any branch: ``("arc", state, function)``
    for every arc applied and ``("case", function, case index)`` for every
    case of a case table applied."""
    for frontier, fired in _replay_frontiers(model, sequences, reach=True):
        yield _final_outputs(model, frontier), fired


def run_outputs(model: Sxm, input_seq: Sequence[str]):
    """Sorted tuple of the distinct output sequences the relation admits."""
    (outputs,) = replay_outputs(model, [input_seq])
    return outputs


def associated_automaton(model: Sxm) -> Automaton:
    """Forget memory; keep states and function-name labelled arcs."""
    arcs = set()
    for (q, fn), targets in model.next_state.items():
        for t in targets:
            arcs.add((q, fn, t))
    return Automaton(
        states=frozenset(model.states),
        initial=frozenset(model.initial_states),
        terminal=frozenset(model.terminal_states),
        arcs=frozenset(arcs),
    )
