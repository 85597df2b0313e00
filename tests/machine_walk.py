"""Single-machine walks that no command takes, kept as test references.

``sxm_step`` and ``sxm_run`` step and run one machine on one input
sequence, on the layer and the replay that the commands' replays use;
``sxm_step`` moves a ``StreamConfiguration``, which carries the input
still to be consumed.  ``fundamental_test_inputs`` translates one function
sequence into inputs, one ``testgen._choose_input`` step at a time, and is
the reference of the suite walk's translation.
"""

from typing import Sequence, Tuple

from heterotest.records import record
from heterotest.sxm import Sxm, _layer, _replay_frontiers
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
        for succ in _layer(model, (cfg,), head, None)
    ]


def sxm_run(model: Sxm, input_seq: Sequence[str]) -> set:
    """The computed relation restricted to one input sequence.

    Returns every (output sequence, final configuration) pair reachable by
    consuming the whole input and ending in a terminal state.  At most
    ``BRANCH_BOUND`` simultaneous branches are explored; exceeding the bound
    raises :class:`BranchBoundExceeded`, whose message names the bound.
    """
    (frontier,) = _replay_frontiers(model, [input_seq])
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
