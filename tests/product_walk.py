"""Walks of a communicating system and of its product machine in the
terms of the system's step graph.

A system core maps to a product core (product memory, product state atom),
so the step graphs of a system and of its product machine compare edge by
edge.

The stream-level system step is kept here as a reference: a component
configuration carries its remaining input and output so far, and
``system_step`` takes every change ``csxms._enabled_changes`` enables on
the head of each stream.  The commands walk stream-free cores with
``csxms.system_core_successors``.
"""

from typing import Optional, Sequence, Tuple

from heterotest.csxms import (
    TUPLE_SEPARATOR,
    CsxmSystem,
    ExtendedCommFunction,
    ProductFunction,
    SystemCore,
    _enabled_changes,
    encode_tuple_atom,
)
from heterotest.records import record
from heterotest.sxm import Sxm
from heterotest.values import BOTTOM_M, NULL, Value, sort_key

ProductCore = Tuple[Value, str]  # (product memory, product state atom)


def decode_tuple_atom(atom: str, n: int) -> Optional[Tuple[str, ...]]:
    """The ``n`` parts of a product symbol, or None for any other atom."""
    if not (atom.startswith("(") and atom.endswith(")")):
        return None
    parts = tuple(atom[1:-1].split(TUPLE_SEPARATOR))
    return parts if len(parts) == n else None


def core_to_product(core: SystemCore) -> ProductCore:
    memory = tuple((in_port, m, out_port) for (m, _, in_port, out_port) in core)
    state = encode_tuple_atom(tuple(q for (_, q, _, _) in core))
    return memory, state


def product_core_successors(product: Sxm, core: ProductCore):
    """Edges ((component, function, symbol), core') of the product machine,
    enumerating only the single-active-component input tuples."""
    memory, state = core
    n = len(memory)
    per_slot_symbols: list[set] = [set() for _ in range(n)]
    for atom in product.inputs:
        parts = decode_tuple_atom(atom, n)
        if parts is None:
            continue
        active = [(j, p) for j, p in enumerate(parts) if p != NULL]
        if len(active) == 1:
            per_slot_symbols[active[0][0]].add(active[0][1])
    edges = set()
    for (q, pf_name), targets in sorted(product.next_state.items()):
        if q != state:
            continue
        pf = product.functions[pf_name]
        assert isinstance(pf, ProductFunction)
        i = pf.index
        for symbol in sorted(per_slot_symbols[i]):
            parts = [NULL] * n
            parts[i] = symbol
            result = pf.evaluate(memory, encode_tuple_atom(parts))
            if result is None:
                continue
            _, new_memory = result
            for target in targets:
                edges.add(((i + 1, pf.inner.name, symbol), (new_memory, target)))
    return edges


# --- the stream-level system step --------------------------------------------


@record
class ComponentConfiguration:
    memory: Value
    state: str
    remaining_input: Tuple[str, ...]
    output_so_far: Tuple[str, ...]
    in_port: Value
    out_port: Value

    def core(self):
        return (self.memory, self.state, self.in_port, self.out_port)

    def key(self):
        return (
            sort_key(self.memory),
            self.state,
            self.remaining_input,
            self.output_so_far,
            sort_key(self.in_port),
            sort_key(self.out_port),
        )


SystemConfiguration = Tuple[ComponentConfiguration, ...]


def initial_system_configuration(
    sys: CsxmSystem, streams: Sequence[Sequence[str]] | None = None
) -> SystemConfiguration:
    """Initial configuration: both ports undefined everywhere, so the first
    move of every component must be ordinary."""
    if streams is None:
        streams = [() for _ in sys.components]
    return tuple(
        ComponentConfiguration(
            memory=comp.initial_memory,
            state=sorted(comp.initial_states)[0],
            remaining_input=tuple(stream),
            output_so_far=(),
            in_port=BOTTOM_M,
            out_port=BOTTOM_M,
        )
        for comp, stream in zip(sys.components, streams)
    )


def system_core(cfg: SystemConfiguration) -> SystemCore:
    return tuple(cc.core() for cc in cfg)


def _core_changes(sys: CsxmSystem, core: SystemCore, offered):
    """Every change :func:`_enabled_changes` enables in a system core.

    ``offered(i, fn, ordinary)`` lists the symbols an ordinary or
    communicating function ``fn`` of component ``i`` (0-based) may consume.
    Yields ``(i, fname, symbol, output, successor core)``.  A communicating
    change moves the sender's out-port value into the target's in-port and
    lands in an ordinary state.
    """
    in_ports = [c[2] for c in core]
    for i, comp in enumerate(sys.components):
        memory, state, _, out_port = core[i]
        for (q, fname), targets in sorted(comp.next_state.items()):
            if q != state:
                continue
            fn = comp.functions[fname]
            ordinary = fname in comp.ordinary_functions
            for symbol in offered(i, fn, ordinary):
                for result, new_in, new_out, k in _enabled_changes(
                        fn, ordinary, i, symbol, memory, in_ports, out_port):
                    for target in targets:
                        assert ordinary or target in comp.ordinary_states, (
                            "communicating change must land in an ordinary state"
                        )
                        succ = list(core)
                        succ[i] = (result.memory, target, new_in, new_out)
                        if k is not None:
                            km, kq, _, ko = core[k]
                            succ[k] = (km, kq, out_port, ko)
                        yield i, fname, symbol, result.output, tuple(succ)


def system_step(sys: CsxmSystem, cfg: SystemConfiguration) -> list[SystemConfiguration]:
    """All configurations reachable in one ordinary or communicating change.

    Ordinary functions and extended communicating functions consume the
    stream head and emit their output; an unextended communicating change
    reads the empty symbol and leaves stream and output alone.  Empty
    exactly when the system is deadlocked.  Results are sorted for a
    deterministic merge order.
    """

    def consumes(fn, ordinary):
        return ordinary or isinstance(fn, ExtendedCommFunction)

    def offered(i, fn, ordinary):
        return cfg[i].remaining_input[:1] if consumes(fn, ordinary) else (NULL,)

    successors = set()
    for i, fname, _, output, succ in _core_changes(sys, system_core(cfg), offered):
        comp = sys.components[i]
        consumed = consumes(comp.functions[fname], fname in comp.ordinary_functions)
        moved = []
        for j, (memory, state, in_port, out_port) in enumerate(succ):
            remaining, outputs = cfg[j].remaining_input, cfg[j].output_so_far
            if j == i and consumed:
                remaining, outputs = remaining[1:], outputs + (output,)
            moved.append(
                ComponentConfiguration(memory, state, remaining, outputs, in_port, out_port)
            )
        successors.add(tuple(moved))
    return sorted(successors, key=lambda s: tuple(c.key() for c in s))
