"""Walks of the product machine in the terms of the system's step graph.

A system core maps to a product core (product memory, product state atom),
so the step graphs of a system and of its product machine compare edge by
edge.
"""

from typing import Optional, Tuple

from heterotest.csxms import (
    TUPLE_SEPARATOR,
    ProductFunction,
    SystemCore,
    encode_tuple_atom,
)
from heterotest.sxm import Sxm
from heterotest.values import NULL, Value

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
