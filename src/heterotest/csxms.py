"""Communicating stream X-machine systems.

Each component machine carries one input port and one output port; states
and functions are partitioned into ordinary (local computation) and
communicating (port-to-port transfer) kinds.  An ordinary step may consume
the in-port value or ignore it; a communicating step moves the sender's
out-port value into another component's empty in-port and always lands in
an ordinary state.

For test generation the system is *extended*: every communicating
function is redefined to consume a fresh input symbol and emit a
component/function-identifying output symbol, making communication
observable.  :func:`build_product_sxm` extends the system it is given and
folds the result into a single product machine whose step relation
mirrors the system's.

The fresh input symbol is the module constant ``COMM_SYMBOL``, ``"a"``,
read wherever a communicating step is offered or checked; a system whose
alphabets already hold it cannot be extended.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .errors import (
    AlphabetCollision,
    DftFailure,
    NondeterministicProduct,
    Violation,
)
from .records import aside, record, replace
from .sxm import (
    MemoryDomain,
    ProcessingFunction,
    Sxm,
    TestSuite,
    associated_automaton,
    first_match,
    point_violations,
    repeat_violations,
    structure_violations,
)
from .terms import Pattern, Term, parse_expr, parse_pattern
from .values import BOTTOM_M, NULL, Value, render

# Only the design-for-test check runs this module.
if TYPE_CHECKING:
    from .dft import DftReport

COMM_SYMBOL = "a"

ORDINARY = "ordinary"
COMMUNICATING = "communicating"


@record
class CsxmResult:
    """Outcome of applying a communicating-machine function."""

    memory: Value
    output: str  # NULL for unextended communicating functions
    set_out_port: bool = False
    out_port: Optional[Value] = None
    send_to: Optional[int] = None  # 1-based component index


class CsxmFunction:
    """A named partial function (input symbol, in-port value, memory) ->
    result.  ``kind`` is "ordinary" or "communicating"."""

    name: str
    kind: str

    def evaluate(self, input_symbol: str, in_port: Value, memory: Value) -> Optional[CsxmResult]:
        raise NotImplementedError


@record
class CsxmCase:
    mem_pattern: str
    port_pattern: str
    input: str
    output: str
    mem_next: str
    pattern: Pattern = aside()
    port_pat: Pattern = aside()
    update: Term = aside()
    out_expr: Optional[Term] = aside()
    out_port: Optional[str] = None  # expression; None leaves the port alone
    send_to: Optional[int] = None

    @classmethod
    def build(cls, mem_pattern, port_pattern, input, output, mem_next,
              out_port=None, send_to=None) -> "CsxmCase":
        return cls(mem_pattern, port_pattern, input, output, mem_next,
                   parse_pattern(mem_pattern), parse_pattern(port_pattern), parse_expr(mem_next),
                   parse_expr(out_port) if out_port is not None else None, out_port, send_to)

    def bind(self, memory: Value, input_symbol: str, in_port: Value):
        env = self.pattern.match(memory)
        port_env = None if env is None else self.port_pat.match(in_port)
        return None if port_env is None else {**env, **port_env}

    def apply(self, env) -> CsxmResult:
        # the out-port expression is evaluated before the update
        out_value = self.out_expr.evaluate(env) if self.out_expr is not None else None
        return CsxmResult(self.update.evaluate(env), self.output, self.out_expr is not None,
                          out_value, self.send_to)


class CsxmCaseFunction(CsxmFunction):
    """Case-table implementation; memory and port patterns bind separate
    variable sets and the guards of each pattern see only its own.  Cases
    are tried top to bottom on each call, as a machine's are
    (:func:`~heterotest.sxm.first_match`)."""

    def __init__(self, name: str, kind: str, cases: Sequence[CsxmCase]):
        self.name = name
        self.kind = kind
        self.cases = tuple(cases)

    def evaluate(self, input_symbol, in_port, memory):
        hit = first_match(self.cases, memory, input_symbol, in_port)
        return None if hit is None else hit[1]

    def __repr__(self):
        return f"CsxmCaseFunction({self.name!r}, {self.kind}, {len(self.cases)} cases)"


class ExtendedCommFunction(CsxmFunction):
    """A communicating function redefined for testing: it consumes the
    communication input symbol and emits its identifying output symbol."""

    kind = COMMUNICATING

    def __init__(self, inner: CsxmFunction, output_symbol: str):
        self.inner = inner
        self.name = inner.name
        self.output_symbol = output_symbol

    def evaluate(self, input_symbol, in_port, memory):
        if input_symbol != COMM_SYMBOL:
            return None
        result = self.inner.evaluate(NULL, in_port, memory)
        if result is None:
            return None
        return replace(result, output=self.output_symbol)

    def __repr__(self):
        return f"ExtendedCommFunction({self.name!r} -> {self.output_symbol!r})"


@record
class Csxm:
    """One communicating component.  Port domains are finite value sets;
    the undefined port value is implicitly part of both."""

    name: str
    inputs: FrozenSet[str]
    outputs: FrozenSet[str]
    states: FrozenSet[str]
    initial_states: FrozenSet[str]
    terminal_states: FrozenSet[str]
    memory_domain: MemoryDomain
    initial_memory: Value
    functions: Mapping[str, CsxmFunction]
    next_state: Mapping[Tuple[str, str], Tuple[str, ...]]
    in_port_domain: Tuple[Value, ...]
    out_port_domain: Tuple[Value, ...]
    ordinary_states: FrozenSet[str]
    communicating_states: FrozenSet[str]
    ordinary_functions: FrozenSet[str]
    communicating_functions: FrozenSet[str]


@record
class CsxmSystem:
    name: str
    components: Tuple[Csxm, ...]


def port_values(domain: Sequence[Value]) -> Tuple[Value, ...]:
    """The values a port with this declared domain holds: the undefined
    value first, then the others in declared order."""
    return (BOTTOM_M,) + tuple(v for v in domain if v != BOTTOM_M)


def validate_csxm(comp: Csxm) -> list[Violation]:
    name = comp.name
    out = structure_violations(comp, f"{name}.")

    if comp.ordinary_states & comp.communicating_states:
        shared = sorted(comp.ordinary_states & comp.communicating_states)
        out.append(Violation(f"{name}.states", f"states in both partitions: {shared}"))
    if (comp.ordinary_states | comp.communicating_states) != comp.states:
        out.append(Violation(f"{name}.states", "state partition does not cover the state set"))
    if comp.ordinary_functions & comp.communicating_functions:
        shared = sorted(comp.ordinary_functions & comp.communicating_functions)
        out.append(Violation(f"{name}.functions", f"functions in both partitions: {shared}"))
    if (comp.ordinary_functions | comp.communicating_functions) != frozenset(comp.functions):
        out.append(Violation(f"{name}.functions", "function partition does not cover the function set"))

    for q in sorted(comp.initial_states - comp.ordinary_states):
        out.append(Violation(f"{name}.initial_states", f"initial state {q!r} is not ordinary"))

    for (q, fn), targets in sorted(comp.next_state.items()):
        where = f"{name}.next_state[{q},{fn}]"
        ordinary_pair = q in comp.ordinary_states and fn in comp.ordinary_functions
        comm_pair = q in comp.communicating_states and fn in comp.communicating_functions
        if not (ordinary_pair or comm_pair):
            out.append(
                Violation(where, "ordinary states support ordinary functions and "
                                 "communicating states communicating functions")
            )
        if comm_pair:
            for t in targets:
                if t not in comp.ordinary_states:
                    out.append(
                        Violation(where, f"communicating function targets non-ordinary state {t!r}")
                    )

    for fname in sorted(comp.functions):
        fn = comp.functions[fname]
        # a function in neither partition is reported by the cover check
        declared = (ORDINARY if fname in comp.ordinary_functions else
                    COMMUNICATING if fname in comp.communicating_functions else None)
        if declared is not None and fn.kind != declared:
            out.append(
                Violation(f"{name}.functions[{fname}]", f"declared {declared} but built {fn.kind}")
            )
        if isinstance(fn, CsxmCaseFunction):
            for idx, case in enumerate(fn.cases):
                where = f"{name}.functions[{fname}].cases[{idx}]"
                if fn.kind == ORDINARY:
                    if case.input not in comp.inputs:
                        out.append(Violation(where, f"input {case.input!r} not in the alphabet"))
                    if case.output not in comp.outputs:
                        out.append(Violation(where, f"output {case.output!r} not in the alphabet"))
                    if case.send_to is not None:
                        out.append(Violation(where, "ordinary functions cannot send"))
                else:
                    if case.input != NULL:
                        out.append(Violation(where, "communicating cases consume no input symbol"))
                    if case.output != NULL:
                        out.append(Violation(where, "communicating cases emit no output symbol"))
                    if case.send_to is None:
                        out.append(Violation(where, "communicating case declares no target"))
                    if case.out_port is not None:
                        out.append(Violation(where, "communicating cases cannot set the out-port"))

    tables = [(fname, fn.cases) for fname, fn in sorted(comp.functions.items())
              if isinstance(fn, CsxmCaseFunction)]
    tails = tuple((sym, port) for sym in sorted(comp.inputs | {NULL})
                  for port in port_values(comp.in_port_domain))
    out += point_violations(comp, f"{name}.", tables, tails, port_values(comp.out_port_domain))

    for port_name, domain in (("in_port_domain", comp.in_port_domain),
                              ("out_port_domain", comp.out_port_domain)):
        for v in domain:
            if v == BOTTOM_M:
                continue
            if comp.memory_domain.contains(v) is False:
                out.append(
                    Violation(f"{name}.{port_name}",
                              f"port value {render(v)} outside the memory domain")
                )
        out += repeat_violations(domain, f"{name}.{port_name}")

    for atom in sorted(comp.inputs | comp.outputs):
        if TUPLE_SEPARATOR in atom:
            out.append(
                Violation(f"{name}", f"symbol {atom!r} contains the reserved separator "
                                     f"{TUPLE_SEPARATOR!r}")
            )
    return out


def validate_system(sys: CsxmSystem) -> list[Violation]:
    if not sys.components:
        return [Violation(sys.name, "a system needs at least one component")]
    out = [v for comp in sys.components for v in validate_csxm(comp)]
    return out + system_violations(sys)


def system_violations(sys: CsxmSystem) -> list[Violation]:
    """The system-level half of :func:`validate_system`: no two components
    share a name, and every send target of a communicating function names
    another component."""
    out = repeat_violations([comp.name for comp in sys.components], f"{sys.name}.components")
    n = len(sys.components)
    for idx, comp in enumerate(sys.components, start=1):
        for fname in sorted(comp.communicating_functions):
            fn = comp.functions.get(fname)
            targets = set()
            if isinstance(fn, CsxmCaseFunction):
                targets = {case.send_to for case in fn.cases if case.send_to is not None}
            for k in sorted(targets):
                where = f"{comp.name}.functions[{fname}]"
                if not 1 <= k <= n:
                    out.append(Violation(where, f"send target {k} outside 1..{n}"))
                elif k == idx:
                    out.append(Violation(where, "component cannot send to itself"))
    return out


def _enabled_changes(fn: CsxmFunction, ordinary: bool, i: int, symbol: str, memory: Value,
                     in_ports: Sequence[Value], out_port: Value):
    """The communicating-change rule: the changes of component ``i``
    (0-based) applying ``fn`` to ``symbol``, where ``in_ports`` holds every
    component's in-port.  The consuming mode (pass the loaded in-port and
    empty it) comes before the ignoring mode (pass the empty value).  A
    change is enabled when ``fn`` is defined and, for a send, the out-port
    is loaded and the target is another component with an empty in-port.
    Yields ``(result, new in-port, new out-port, 0-based target or None)``.
    """
    if not ordinary and out_port == BOTTOM_M:
        return
    in_port = in_ports[i]
    modes = ((in_port, BOTTOM_M),) if in_port != BOTTOM_M else ()
    for port_arg, new_in in modes + ((BOTTOM_M, in_port),):
        result = fn.evaluate(symbol, port_arg, memory)
        if result is None:
            continue
        if ordinary:
            yield result, new_in, result.out_port if result.set_out_port else out_port, None
            continue
        k = result.send_to
        if k is not None and k - 1 != i and 1 <= k <= len(in_ports) and in_ports[k - 1] == BOTTOM_M:
            yield result, new_in, BOTTOM_M, k - 1


def comm_output_symbol(component_index: int, function_position: int) -> str:
    """The identifying output symbol for communicating function number
    ``function_position`` (1-based, by name order) of component
    ``component_index`` (1-based)."""
    return f"[{component_index},{function_position}]"


def extend_for_testing(sys: CsxmSystem) -> CsxmSystem:
    """Make communication observable.

    Every communicating function of component i gains the fresh input symbol
    and the output symbol naming it; ordinary functions are untouched.
    Systems with no communicating functions come back structurally unchanged.
    """
    used_symbols = []
    for idx, comp in enumerate(sys.components, start=1):
        for pos, _ in enumerate(sorted(comp.communicating_functions), start=1):
            used_symbols.append(comm_output_symbol(idx, pos))
    for comp in sys.components:
        if COMM_SYMBOL in comp.inputs or COMM_SYMBOL in comp.outputs:
            raise AlphabetCollision(
                f"communication symbol {COMM_SYMBOL!r} already in {comp.name}'s alphabets"
            )
        for sym in used_symbols:
            if sym in comp.inputs or sym in comp.outputs:
                raise AlphabetCollision(
                    f"extension symbol {sym!r} already in {comp.name}'s alphabets"
                )

    new_components = []
    for idx, comp in enumerate(sys.components, start=1):
        if not comp.communicating_functions:
            new_components.append(comp)
            continue
        functions: Dict[str, CsxmFunction] = dict(comp.functions)
        added_outputs = set()
        for pos, fname in enumerate(sorted(comp.communicating_functions), start=1):
            symbol = comm_output_symbol(idx, pos)
            functions[fname] = ExtendedCommFunction(comp.functions[fname], symbol)
            added_outputs.add(symbol)
        new_components.append(
            replace(
                comp,
                inputs=comp.inputs | {COMM_SYMBOL},
                outputs=comp.outputs | added_outputs,
                functions=functions,
            )
        )
    return replace(sys, components=tuple(new_components))


# --- the product machine ----------------------------------------------------


# The per-component separator must not occur in any component symbol; the
# bracketed communication outputs [i,j] rule out the comma.
TUPLE_SEPARATOR = "|"


def encode_tuple_atom(parts: Sequence[str]) -> str:
    return "(" + TUPLE_SEPARATOR.join(parts) + ")"


class ProductFunction(ProcessingFunction):
    """One component's function lifted to the product machine; all other
    components run the identity and consume the do-nothing symbol.

    ``accepted`` maps each product input whose only active part is the
    component's, in sorted order, to that part's symbol: these are the
    function's ``candidate_inputs``, and it is undefined on every other
    input.
    """

    def __init__(self, index: int, inner: CsxmFunction, n: int, accepted: Mapping[str, str]):
        self.index = index  # 0-based component slot
        self.inner = inner
        self.n = n
        parts = ["id"] * n
        parts[index] = inner.name
        self.name = encode_tuple_atom(parts)
        self._accepted = accepted
        self.candidate_inputs = tuple(accepted)

    def evaluate(self, memory, input_symbol):
        symbol = self._accepted.get(input_symbol)
        if symbol is None:
            return None
        if not isinstance(memory, tuple) or len(memory) != self.n:
            return None
        _, local_memory, out_port = memory[self.index]
        # A function of memory and input takes the first enabled change, so
        # where both port modes are defined the ignoring move is dropped.
        changes = _enabled_changes(self.inner, self.inner.kind == ORDINARY, self.index, symbol,
                                   local_memory, [t[0] for t in memory], out_port)
        change = next(changes, None)
        if change is None:
            return None
        result, new_in, new_out, k = change
        triples = list(memory)
        triples[self.index] = (new_in, result.memory, new_out)
        if k is not None:
            _, target_mem, target_out = memory[k]
            triples[k] = (out_port, target_mem, target_out)
        output_parts = [NULL] * self.n
        output_parts[self.index] = result.output
        return encode_tuple_atom(output_parts), tuple(triples)


def build_product_sxm(sys: CsxmSystem) -> Sxm:
    """Extend a system as loaded (see :func:`extend_for_testing`) and fold
    it into a single stream X-machine.

    Input symbols are tuples over each component's alphabet plus the
    communication and do-nothing symbols (never all do-nothing); memory
    collects every component's (in-port, memory, out-port) triple, as the
    product of the port and memory domains, whose values are built only
    where they are enumerated.  Only function tuples with exactly one
    active component are realisable, so only those appear.
    """
    sys = extend_for_testing(sys)
    n = len(sys.components)

    input_parts = []
    output_parts = []
    for comp in sys.components:
        input_parts.append(sorted(comp.inputs | {COMM_SYMBOL, NULL}))
        output_parts.append(sorted(comp.outputs | {NULL}))
    inputs = {
        encode_tuple_atom(parts)
        for parts in product(*input_parts)
        if any(p != NULL for p in parts)
    }
    outputs = {
        encode_tuple_atom(parts)
        for parts in product(*output_parts)
        if any(p != NULL for p in parts)
    }
    accepted = []
    for i, symbols in enumerate(input_parts):
        atoms = {}
        for symbol in symbols:
            if symbol != NULL:
                parts = [NULL] * n
                parts[i] = symbol
                atoms[encode_tuple_atom(parts)] = symbol
        accepted.append(dict(sorted(atoms.items())))

    state_parts = [sorted(comp.states) for comp in sys.components]
    states = {encode_tuple_atom(parts) for parts in product(*state_parts)}
    initial = {
        encode_tuple_atom(parts)
        for parts in product(*[sorted(c.initial_states) for c in sys.components])
    }
    terminal = {
        encode_tuple_atom(parts)
        for parts in product(*[sorted(c.terminal_states) for c in sys.components])
    }

    domain = MemoryDomain(kind="product", parts=tuple(
        MemoryDomain(kind="product", parts=(
            MemoryDomain(kind="set", values=port_values(comp.in_port_domain)),
            comp.memory_domain,
            MemoryDomain(kind="set", values=port_values(comp.out_port_domain)),
        ))
        for comp in sys.components
    ))

    initial_memory = tuple(
        (BOTTOM_M, comp.initial_memory, BOTTOM_M) for comp in sys.components
    )

    functions: Dict[str, ProcessingFunction] = {}
    next_state: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    for i, comp in enumerate(sys.components):
        other_states = [
            sorted(c.states) if j != i else [None]
            for j, c in enumerate(sys.components)
        ]
        for (q, fname), targets in sorted(comp.next_state.items()):
            pf = ProductFunction(i, comp.functions[fname], n, accepted[i])
            functions.setdefault(pf.name, pf)
            for combo in product(*other_states):
                src_parts = [q if j == i else combo[j] for j in range(n)]
                src = encode_tuple_atom(src_parts)
                dsts = []
                for t in targets:
                    dst_parts = [t if j == i else combo[j] for j in range(n)]
                    dsts.append(encode_tuple_atom(dst_parts))
                key = (src, pf.name)
                existing = next_state.get(key, ())
                next_state[key] = tuple(sorted(set(existing) | set(dsts)))

    return Sxm(
        name=f"{sys.name}-product",
        inputs=frozenset(inputs),
        outputs=frozenset(outputs),
        states=frozenset(states),
        initial_states=frozenset(initial),
        terminal_states=frozenset(terminal),
        memory_domain=domain,
        initial_memory=initial_memory,
        functions=functions,
        next_state=next_state,
    )


# --- per-component design-for-test checks -----------------------------------


def _component_step(fn: CsxmFunction, memory: Value, point):
    port, symbol = point
    result = fn.evaluate(symbol, port, memory)
    if result is None:
        return None
    out_effect = result.out_port if result.set_out_port else "<keep>"
    return result.output, result.memory, (result.output, out_effect, result.send_to)


def check_csxm_dft(comp: Csxm) -> DftReport:
    """The three design-for-test conditions for one component.

    The component is a machine over the paired input alphabet (symbol,
    in-port value), so completeness quantifies existentially over pairs and
    witnesses carry (memory, port) in their memory slot.  Outputs are
    distinguished together with their out-port effect and send target.
    Set-valued next-state entries are left to the product arc scan, which
    reports them as product nondeterminism; here only the initial-state
    count is structural.  Witnesses stay in enumeration order.
    """
    from .dft import decide_conditions

    inputs = sorted(comp.inputs)
    return decide_conditions(
        comp,
        [(port, symbol) for port in port_values(comp.in_port_domain) for symbol in inputs],
        _component_step,
        lambda m, point: ((m, point[0]), point[1]),
    )


def generate_csxms_test_suite(sys: CsxmSystem, k: int) -> TestSuite:
    """Gate each extended component on the design-for-test conditions,
    build the product machine, and run W-method generation.

    Per-component design-for-test failures raise :class:`DftFailure`; a
    nondeterministic product raises :class:`NondeterministicProduct` naming
    the conflicting state and label (test generation for nondeterministic
    machines is out of scope).  The product machine itself is gated on its
    associated automaton only: its memory domain deliberately includes
    port states the communication protocol never reaches, so component-level
    checks are the meaningful ones.
    """
    from .testgen import build_w_suite

    extended = extend_for_testing(sys)
    for comp in extended.components:
        report = check_csxm_dft(comp)
        if not report.all_pass():
            raise DftFailure(f"component {comp.name!r} fails design-for-test checks", report)

    product = build_product_sxm(sys)
    automaton = associated_automaton(product)
    witness = automaton.nondeterministic_witness()
    if witness is not None:
        raise NondeterministicProduct(
            f"product automaton nondeterministic at state {witness[0]}, label {witness[1]}"
        )
    metadata = {
        "system": sys.name,
        "components": [comp.name for comp in sys.components],
        "tuple_order": [comp.name for comp in sys.components],
        "comm_symbol": COMM_SYMBOL,
        "null_symbol": NULL,
    }
    return build_w_suite(product, k, metadata=metadata)


# --- the step graph of system cores -----------------------------------------

SystemCore = Tuple[Tuple[Value, str, Value, Value], ...]


def initial_system_core(sys: CsxmSystem) -> SystemCore:
    """Every component in its first initial state with its initial memory
    and both ports undefined, so its first move must be ordinary."""
    return tuple((comp.initial_memory, sorted(comp.initial_states)[0], BOTTOM_M, BOTTOM_M)
                 for comp in sys.components)


def system_core_successors(sys: CsxmSystem, core: SystemCore):
    """Single-step core transitions with the input streams abstracted away:
    each labelled edge ((component, function, symbol), successor core)
    assumes the driver supplies the symbol the move needs.

    Every change :func:`_enabled_changes` enables is taken.  An ordinary
    function is offered each input of its component, an extended
    communicating one (:class:`ExtendedCommFunction`) the communication
    symbol, and any other communicating one the empty symbol.  A
    communicating change moves the sender's out-port value into the
    target's in-port and lands in an ordinary state.
    """
    in_ports = [c[2] for c in core]
    edges = set()
    for i, comp in enumerate(sys.components):
        memory, state, _, out_port = core[i]
        for (q, fname), targets in comp.next_state.items():
            if q != state:
                continue
            fn = comp.functions[fname]
            ordinary = fname in comp.ordinary_functions
            symbols = (sorted(comp.inputs) if ordinary else
                       (COMM_SYMBOL,) if isinstance(fn, ExtendedCommFunction) else (NULL,))
            for symbol in symbols:
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
                        edges.add(((i + 1, fname, symbol), tuple(succ)))
    return edges
