"""Stream X-machine data model, configuration-change semantics and the
computed relation.

A machine is a finite automaton whose arcs are labelled with named partial
processing functions over a memory set.  Each applied function consumes one
input symbol and emits one output symbol.  Models are immutable after
construction; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .errors import BranchBoundExceeded, MissingSampleError, TermError, Violation
from .terms import Pattern, Expr, parse_expr, parse_pattern
from .values import RESERVED_ATOMS, Value, is_value, render, sort_key

DEFAULT_BRANCH_BOUND = 256

S = TypeVar("S")
T = TypeVar("T")


class ProcessingFunction:
    """A named partial function memory x input -> output x memory."""

    name: str

    def evaluate(self, memory: Value, input_symbol: str) -> Optional[Tuple[str, Value]]:
        raise NotImplementedError


@dataclass(frozen=True)
class Case:
    """One row of a case table: pattern + input -> output + update."""

    mem_pattern: str
    input: str
    output: str
    mem_next: str
    pattern: Pattern = field(compare=False, repr=False, default=None)
    update: Expr = field(compare=False, repr=False, default=None)

    @classmethod
    def build(cls, mem_pattern: str, input: str, output: str, mem_next: str) -> "Case":
        return cls(
            mem_pattern,
            input,
            output,
            mem_next,
            pattern=parse_pattern(mem_pattern),
            update=parse_expr(mem_next),
        )


class CaseFunction(ProcessingFunction):
    """A processing function given by an ordered case table.

    Cases are tried top to bottom; a well-formed model has at most one
    matching case for every (memory, input) pair, which ``validate_sxm``
    checks by enumeration over the declared domain.
    """

    def __init__(self, name: str, cases: Sequence[Case]):
        self.name = name
        self.cases = tuple(cases)

    def evaluate(self, memory, input_symbol):
        for case in self.cases:
            if case.input != input_symbol:
                continue
            env = case.pattern.match(memory)
            if env is None:
                continue
            return case.output, case.update.evaluate(env)
        return None

    def matching_cases(self, memory: Value, input_symbol: str) -> list[int]:
        hits = []
        for idx, case in enumerate(self.cases):
            if case.input == input_symbol and case.pattern.match(memory) is not None:
                hits.append(idx)
        return hits

    def __repr__(self):
        return f"CaseFunction({self.name!r}, {len(self.cases)} cases)"


@dataclass(frozen=True)
class MemoryDomain:
    """Declared memory domain: finite set, integer range, or open + sample.

    Open domains must carry a finite test sample; checks that quantify over
    memory then report "sampled, not exhaustive".
    """

    kind: str  # "set" | "range" | "open"
    values: Tuple[Value, ...] = ()
    low: int = 0
    high: int = -1
    sample: Tuple[Value, ...] = ()

    def enumerate(self) -> Tuple[Tuple[Value, ...], bool]:
        """Return (values, exhaustive)."""
        if self.kind == "set":
            return self.values, True
        if self.kind == "range":
            return tuple(range(self.low, self.high + 1)), True
        if self.kind == "open":
            if not self.sample:
                raise MissingSampleError("open memory domain declares no test sample")
            return self.sample, False
        raise ValueError(f"unknown domain kind {self.kind!r}")

    def contains(self, v: Value) -> Optional[bool]:
        """True/False for declared domains, None (unknown) for open ones."""
        if self.kind == "set":
            return v in self.values
        if self.kind == "range":
            return isinstance(v, int) and not isinstance(v, bool) and self.low <= v <= self.high
        return None


@dataclass(frozen=True)
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

    def memory_values(self) -> Tuple[Tuple[Value, ...], bool]:
        return self.memory_domain.enumerate()


@dataclass(frozen=True)
class SxmConfiguration:
    """Machine snapshot: memory, control state, remaining input, output."""

    memory: Value
    state: str
    remaining_input: Tuple[str, ...]
    output_so_far: Tuple[str, ...]

    def key(self):
        return (sort_key(self.memory), self.state, self.remaining_input, self.output_so_far)


@dataclass(frozen=True)
class Automaton:
    """The finite automaton left after forgetting memory: arcs carry
    processing-function names."""

    states: FrozenSet[str]
    initial: FrozenSet[str]
    terminal: FrozenSet[str]
    arcs: FrozenSet[Tuple[str, str, str]]

    def labels(self) -> Tuple[str, ...]:
        return tuple(sorted({label for _, label, _ in self.arcs}))

    def is_deterministic(self) -> bool:
        if len(self.initial) != 1:
            return False
        seen = set()
        for src, label, _ in self.arcs:
            if (src, label) in seen:
                return False
            seen.add((src, label))
        return True

    def nondeterministic_witness(self) -> Optional[Tuple[str, str]]:
        if len(self.initial) != 1:
            return ("<initial>", ",".join(sorted(self.initial)))
        seen = {}
        for src, label, dst in sorted(self.arcs):
            if (src, label) in seen and seen[(src, label)] != dst:
                return (src, label)
            seen[(src, label)] = dst
        return None


def structure_violations(model, prefix: str = "") -> list[Violation]:
    """The structural checks a machine and a communicating machine share:
    reserved atoms, the state sets, the next-state map and the initial
    memory.  ``prefix`` starts every ``where``."""
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
    return out


def validate_sxm(model: Sxm) -> list[Violation]:
    """Check every structural invariant; an empty report means valid."""
    out = structure_violations(model)
    domain = model.memory_domain

    for name in sorted(model.functions):
        fn = model.functions[name]
        if not isinstance(fn, CaseFunction):
            continue
        for idx, case in enumerate(fn.cases):
            where = f"functions[{name}].cases[{idx}]"
            if case.input not in model.inputs:
                out.append(Violation(where, f"input {case.input!r} not in the input alphabet"))
            if case.output not in model.outputs:
                out.append(Violation(where, f"output {case.output!r} not in the output alphabet"))

    # Checks that quantify over memory use the declared domain or sample.
    try:
        values, _ = domain.enumerate()
    except MissingSampleError:
        out.append(Violation("memory_domain", "open domain declares no test sample"))
        return out

    for v in values:
        if not is_value(v):
            out.append(Violation("memory_domain", f"not a value: {v!r}"))
            return out

    for name in sorted(model.functions):
        fn = model.functions[name]
        if not isinstance(fn, CaseFunction):
            continue
        overlap_reported = set()
        for m in values:
            for sym in sorted(model.inputs):
                try:
                    hits = fn.matching_cases(m, sym)
                except TermError as exc:
                    out.append(Violation(f"functions[{name}]", f"pattern error: {exc}"))
                    hits = []
                if len(hits) > 1:
                    pair = (hits[0], hits[1])
                    if pair not in overlap_reported:
                        overlap_reported.add(pair)
                        out.append(
                            Violation(
                                f"functions[{name}]",
                                f"cases {pair[0]} and {pair[1]} overlap at "
                                f"memory {render(m)}, input {sym!r}",
                            )
                        )
                if hits and domain.kind != "open":
                    try:
                        result = fn.evaluate(m, sym)
                    except TermError as exc:
                        out.append(
                            Violation(f"functions[{name}]", f"update error at {render(m)}: {exc}")
                        )
                        continue
                    if result is not None and domain.contains(result[1]) is False:
                        out.append(
                            Violation(
                                f"functions[{name}]",
                                f"update at memory {render(m)}, input {sym!r} leaves the "
                                f"declared domain ({render(result[1])})",
                            )
                        )
    return out


def sxm_step(model: Sxm, cfg: SxmConfiguration) -> list[SxmConfiguration]:
    """All configurations reachable in one configuration change.

    Empty when no transition is enabled, including when the remaining
    input is empty.  The result is sorted for determinism.
    """
    if not cfg.remaining_input:
        return []
    head, rest = cfg.remaining_input[0], cfg.remaining_input[1:]
    successors = []
    for (q, fn_name), targets in model.next_state.items():
        if q != cfg.state:
            continue
        result = model.functions[fn_name].evaluate(cfg.memory, head)
        if result is None:
            continue
        output, new_memory = result
        for target in targets:
            successors.append(
                SxmConfiguration(new_memory, target, rest, cfg.output_so_far + (output,))
            )
    return sorted(set(successors), key=SxmConfiguration.key)


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


class _Overflow(Exception):
    """A frontier layer exceeded the branch bound (internal to runs)."""

    def __init__(self, frontier):
        super().__init__()
        self.frontier = frontier


def _replay_frontiers(
    model: Sxm, sequences: Iterable[Sequence[str]], branch_bound: int
) -> Iterator[Tuple[SxmConfiguration, ...]]:
    """The final frontier of each input sequence, in order.

    A frontier holds every configuration reached after a prefix, with no
    remaining input; each layer steps with :func:`sxm_step`.  A layer wider
    than ``branch_bound`` raises :class:`BranchBoundExceeded` carrying that
    layer's frontier, completed with the rest of the sequence being run.
    """
    if branch_bound < 1:
        raise ValueError("branch_bound must be >= 1")

    def bounded(frontier):
        if len(frontier) > branch_bound:
            raise _Overflow(frontier)
        return frontier

    def advance(frontier, symbol):
        successors = set()
        for cfg in frontier:
            fed = SxmConfiguration(cfg.memory, cfg.state, (symbol,), cfg.output_so_far)
            successors.update(sxm_step(model, fed))
        return bounded(tuple(sorted(successors, key=SxmConfiguration.key)))

    start = tuple(
        SxmConfiguration(model.initial_memory, q, (), ()) for q in sorted(model.initial_states)
    )
    sequences = [tuple(seq) for seq in sequences]
    done = 0
    try:
        if sequences:
            bounded(start)
        for frontier in replay_sequences(sequences, start, advance):
            yield frontier
            done += 1
    except _Overflow as overflow:
        stream = sequences[done]
        raise BranchBoundExceeded(
            f"more than {branch_bound} simultaneous branches",
            [
                SxmConfiguration(
                    cfg.memory, cfg.state, stream[len(cfg.output_so_far) :], cfg.output_so_far
                )
                for cfg in overflow.frontier
            ],
        ) from None


def replay_outputs(
    model: Sxm,
    sequences: Iterable[Sequence[str]],
    branch_bound: int = DEFAULT_BRANCH_BOUND,
) -> Iterator[Tuple[Tuple[str, ...], ...]]:
    """Yield :func:`run_outputs` of each input sequence, in order, sharing
    the work of common prefixes between consecutive sequences."""
    for frontier in _replay_frontiers(model, sequences, branch_bound):
        yield tuple(
            sorted({cfg.output_so_far for cfg in frontier if cfg.state in model.terminal_states})
        )


def sxm_run(
    model: Sxm,
    input_seq: Sequence[str],
    branch_bound: int = DEFAULT_BRANCH_BOUND,
) -> set:
    """The computed relation restricted to one input sequence.

    Returns every (output sequence, final configuration) pair reachable by
    consuming the whole input and ending in a terminal state.  At most
    ``branch_bound`` simultaneous branches are explored; exceeding the bound
    raises :class:`BranchBoundExceeded` carrying the partial frontier.
    """
    (frontier,) = _replay_frontiers(model, [input_seq], branch_bound)
    return {(cfg.output_so_far, cfg) for cfg in frontier if cfg.state in model.terminal_states}


def run_outputs(model: Sxm, input_seq: Sequence[str], branch_bound: int = DEFAULT_BRANCH_BOUND):
    """Sorted tuple of the distinct output sequences the relation admits."""
    (outputs,) = replay_outputs(model, [input_seq], branch_bound)
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
