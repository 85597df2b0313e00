"""Single-machine walks that no command takes, kept as test references.

``sxm_step`` and ``sxm_run`` step and run one machine on one input
sequence, on the layer and the replay that the commands' replays use;
``sxm_step`` moves a ``StreamConfiguration``, which carries the input
still to be consumed.  ``fundamental_test_inputs`` translates one function
sequence into inputs, one ``testgen._choose_input`` step at a time, and is
the reference of the suite walk's translation.

``replay_sequences``, ``reference_replay_frontiers``, ``reference_layer``
and ``fired_case`` are the generic prefix-sharing engine, the replay with a
``reach`` switch built on it, its layer and the case lookup that replay
made after each fired case table's evaluation.  ``sxm._replay_frontiers``
replaced them with one loop that records on every replay and takes the
fired case from one :func:`first_match`.
"""

from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, TypeVar

from heterotest import sxm
from heterotest.errors import BranchBoundExceeded
from heterotest.records import record
from heterotest.sxm import (
    CaseFunction,
    Sxm,
    SxmConfiguration,
    _layer,
    _replay_frontiers,
    first_match,
)
from heterotest.testgen import PhiSequence, _choose_input
from heterotest.values import Value, sort_key


@record
class StreamConfiguration:
    """Machine snapshot: memory, control state, remaining input, output."""

    memory: Value
    state: str
    remaining_input: Tuple[str, ...]
    output_so_far: Tuple[str, ...]

    def key(self):
        return (sort_key(self.memory), self.state, self.remaining_input, self.output_so_far)


def sxm_step(model: Sxm, cfg: StreamConfiguration) -> list[StreamConfiguration]:
    """All configurations reachable in one configuration change.

    Empty when no transition is enabled, including when the remaining
    input is empty.  The result is sorted for determinism.
    """
    if not cfg.remaining_input:
        return []
    head, rest = cfg.remaining_input[0], cfg.remaining_input[1:]
    return [
        StreamConfiguration(succ.memory, succ.state, rest, succ.output_so_far)
        for succ in _layer(model, (cfg,), head, set())
    ]


def sxm_run(model: Sxm, input_seq: Sequence[str]) -> set:
    """The computed relation restricted to one input sequence.

    Returns every (output sequence, final configuration) pair reachable by
    consuming the whole input and ending in a terminal state.  At most
    ``BRANCH_BOUND`` simultaneous branches are explored; exceeding the bound
    raises :class:`BranchBoundExceeded`, whose message names the bound.
    """
    ((frontier, _),) = _replay_frontiers(model, [input_seq])
    return {(cfg.output_so_far, cfg) for cfg in frontier if cfg.state in model.terminal_states}


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


S = TypeVar("S")
T = TypeVar("T")


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


def fired_case(fn: CaseFunction, memory: Value, input_symbol: str) -> Optional[int]:
    """The index of the case ``evaluate`` applies, or None where the
    function is undefined; raises where ``evaluate`` raises."""
    hit = first_match(fn.cases, memory, input_symbol)
    return None if hit is None else hit[0]


def reference_layer(model: Sxm, frontier, symbol: str, fired: Optional[set]):
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
                    fired.add(("case", fn_name, fired_case(fn, cfg.memory, symbol)))
            output, memory = result
            produced = cfg.output_so_far + (output,)
            for target in targets:
                successors.add(SxmConfiguration(memory, target, produced))
    return tuple(sorted(successors, key=SxmConfiguration.key))


def reference_replay_frontiers(
    model: Sxm, sequences: Iterable[Sequence[str]], reach: bool = False
) -> Iterator:
    """The final frontier of each input sequence, in order; with ``reach``,
    each paired with the frozenset of arcs and cases fired on the way."""
    branch_bound = sxm.BRANCH_BOUND

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
            return bounded(reference_layer(model, node[0], symbol, fired)), frozenset(fired)

        root = (start, frozenset())
    else:
        def advance(frontier, symbol):
            return bounded(reference_layer(model, frontier, symbol, None))

        root = start
    sequences = list(sequences)
    if sequences:
        bounded(start)
    yield from replay_sequences(sequences, root, advance)
