import hashlib
import sys
from collections import deque

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))

from gen_models import random_csxm_system
from product_walk import core_to_product, decode_tuple_atom, product_core_successors

from heterotest.csxms import (
    ORDINARY,
    Csxm,
    CsxmCase,
    CsxmCaseFunction,
    CsxmSystem,
    build_product_sxm,
    check_csxm_dft,
    encode_tuple_atom,
    extend_for_testing,
    generate_csxms_test_suite,
    initial_system_configuration,
    initial_system_core,
    system_core_successors,
    system_step,
    validate_csxm,
    validate_system,
)
from heterotest.errors import (
    AlphabetCollision,
    DftFailure,
    NondeterministicProduct,
    UnextendedSystem,
)
from heterotest.model_io import canonical_json, suite_to_dict
from heterotest.records import replace
from heterotest.sxm import MemoryDomain, sxm_run
from heterotest.values import BOTTOM_M, NULL

BOT = BOTTOM_M


def two_component_toy():
    """Component 1 computes locally, emits its memory and sends it to
    component 2, which reads its in-port."""
    c1 = Csxm(
        name="left",
        inputs=frozenset({"x", "e"}),
        outputs=frozenset({"u", "v"}),
        states=frozenset({"p", "c"}),
        initial_states=frozenset({"p"}),
        terminal_states=frozenset({"p", "c"}),
        memory_domain=MemoryDomain(kind="range", low=0, high=1),
        initial_memory=0,
        functions={
            "work": CsxmCaseFunction("work", "ordinary", [
                CsxmCase.build("?m", BOT, "x", "u", "(?m + 1) % 2"),
            ]),
            "emit": CsxmCaseFunction("emit", "ordinary", [
                CsxmCase.build("?m", BOT, "e", "v", "?m", out_port="?m"),
            ]),
            "ship": CsxmCaseFunction("ship", "communicating", [
                CsxmCase.build("?m", BOT, NULL, NULL, "?m", send_to=2),
            ]),
        },
        next_state={
            ("p", "work"): ("p",),
            ("p", "emit"): ("c",),
            ("c", "ship"): ("p",),
        },
        in_port_domain=(),
        out_port_domain=(0, 1),
        ordinary_states=frozenset({"p"}),
        communicating_states=frozenset({"c"}),
        ordinary_functions=frozenset({"work", "emit"}),
        communicating_functions=frozenset({"ship"}),
    )
    c2 = Csxm(
        name="right",
        inputs=frozenset({"y"}),
        outputs=frozenset({"w"}),
        states=frozenset({"r"}),
        initial_states=frozenset({"r"}),
        terminal_states=frozenset({"r"}),
        memory_domain=MemoryDomain(kind="range", low=0, high=1),
        initial_memory=0,
        functions={
            "take": CsxmCaseFunction("take", "ordinary", [
                CsxmCase.build("?m", "?p where ?p != ⊥_M", "y", "w", "?p"),
            ]),
        },
        next_state={("r", "take"): ("r",)},
        in_port_domain=(0, 1),
        out_port_domain=(),
        ordinary_states=frozenset({"r"}),
        communicating_states=frozenset(),
        ordinary_functions=frozenset({"take"}),
        communicating_functions=frozenset(),
    )
    return CsxmSystem(name="toy", components=(c1, c2))


class TestValidation:
    def test_toy_system_valid(self):
        assert validate_system(two_component_toy()) == []

    def test_partition_violations_detected(self):
        sys_ = two_component_toy()
        c1 = sys_.components[0]
        bad = replace(c1, ordinary_states=frozenset({"p", "c"}))
        report = validate_csxm(bad)
        assert any("both partitions" in v.message for v in report)

    def test_communicating_function_must_land_ordinary(self):
        sys_ = two_component_toy()
        c1 = sys_.components[0]
        ns = dict(c1.next_state)
        ns[("c", "ship")] = ("c",)
        bad = replace(c1, next_state=ns)
        assert any("non-ordinary" in v.message for v in validate_csxm(bad))

    def test_send_target_bounds(self):
        sys_ = two_component_toy()
        c1 = sys_.components[0]
        ship = CsxmCaseFunction("ship", "communicating", [
            CsxmCase.build("?m", BOT, NULL, NULL, "?m", send_to=5),
        ])
        functions = dict(c1.functions)
        functions["ship"] = ship
        bad_sys = replace(sys_, components=(replace(c1, functions=functions), sys_.components[1]))
        assert any("outside 1..2" in v.message for v in validate_system(bad_sys))


class TestSystemStep:
    def test_initial_configuration_only_ordinary_changes(self):
        sys_ = two_component_toy()
        cfg = initial_system_configuration(sys_, [("x",), ("y",)])
        for succ in system_step(sys_, cfg):
            # no port became non-empty except via ordinary out-port writes,
            # and no in-port was filled (a communicating change would)
            assert all(cc.in_port == BOT for cc in succ)

    def test_communicating_change_moves_port_value(self):
        sys_ = two_component_toy()
        cfg = (
            initial_system_configuration(sys_)[0].__class__(
                memory=1, state="c", remaining_input=(), output_so_far=(),
                in_port=BOT, out_port=1,
            ),
            initial_system_configuration(sys_)[1],
        )
        succ = system_step(sys_, cfg)
        assert len(succ) == 1
        after = succ[0]
        assert after[0].out_port == BOT
        assert after[1].in_port == 1
        assert after[0].state == "p"
        assert after[0].remaining_input == cfg[0].remaining_input
        assert after[0].output_so_far == cfg[0].output_so_far
        assert after[1].remaining_input == cfg[1].remaining_input

    def test_receiver_in_port_must_be_empty(self):
        sys_ = two_component_toy()
        base = initial_system_configuration(sys_)
        cfg = (
            replace(base[0], state="c", out_port=1),
            replace(base[1], in_port=0),
        )
        assert system_step(sys_, cfg) == []

    def test_deadlock_empty(self):
        sys_ = two_component_toy()
        cfg = initial_system_configuration(sys_)  # no inputs anywhere
        assert system_step(sys_, cfg) == []


class TestExtension:
    def test_alphabets_gain_symbols(self):
        sys_ = two_component_toy()
        ext = extend_for_testing(sys_)
        left = ext.components[0]
        assert "a" in left.inputs
        assert "[1,1]" in left.outputs
        right = ext.components[1]
        assert right.inputs == sys_.components[1].inputs  # no communicating fns
        assert ext.extended

    def test_no_communicating_functions_unchanged(self):
        sys_ = two_component_toy()
        lonely = CsxmSystem(name="solo", components=(sys_.components[1],))
        ext = extend_for_testing(lonely)
        assert ext.components[0] is lonely.components[0]
        assert ext.extended

    def test_two_components_one_function_each(self):
        sys_ = random_csxm_system(3)
        ext = extend_for_testing(sys_)
        assert "[1,1]" in ext.components[0].outputs
        assert "[2,1]" in ext.components[1].outputs
        assert "[1,1]" not in ext.components[1].outputs

    def test_collision_rejected(self):
        sys_ = two_component_toy()
        left = replace(sys_.components[0], inputs=sys_.components[0].inputs | {"a"})
        with pytest.raises(AlphabetCollision, match="communication symbol 'a' already in left"):
            extend_for_testing(replace(sys_, components=(left, sys_.components[1])))

    def test_partitions_preserved(self):
        ext = extend_for_testing(two_component_toy())
        for comp in ext.components:
            assert validate_csxm(comp) == []

    def test_extended_comm_step_consumes_symbol_and_emits(self):
        ext = extend_for_testing(two_component_toy())
        base = initial_system_configuration(ext, [("a",), ()])
        cfg = (replace(base[0], state="c", out_port=1), base[1])
        succ = system_step(ext, cfg)
        assert len(succ) == 1
        assert succ[0][0].remaining_input == ()
        assert succ[0][0].output_so_far == ("[1,1]",)
        assert succ[0][1].in_port == 1


class TestProduct:
    def test_alphabet_arithmetic(self):
        # |(S1 u {a,l}) x (S2 u {a,l})| - 1 with S1={x}, S2={y} is 8
        c1, c2 = two_component_toy().components
        c1 = replace(c1, inputs=frozenset({"x"}),
                     functions={"work": c1.functions["work"]},
                     next_state={("p", "work"): ("p",)},
                     states=frozenset({"p"}), communicating_states=frozenset(),
                     ordinary_states=frozenset({"p"}),
                     terminal_states=frozenset({"p"}), initial_states=frozenset({"p"}),
                     ordinary_functions=frozenset({"work"}),
                     communicating_functions=frozenset())
        c2 = replace(c2, inputs=frozenset({"y"}))
        sys_ = CsxmSystem("tiny", (c1, c2), extended=True)
        product = build_product_sxm(sys_)
        assert len(product.inputs) == 8
        assert len(product.states) == len(c1.states) * len(c2.states)

    def test_requires_extension(self):
        with pytest.raises(UnextendedSystem):
            build_product_sxm(two_component_toy())

    def test_product_run_matches_system_semantics(self):
        ext = extend_for_testing(two_component_toy())
        product = build_product_sxm(ext)
        # drive: work, emit, ship, take as tuple inputs
        word = [
            encode_tuple_atom(("x", NULL)),
            encode_tuple_atom(("e", NULL)),
            encode_tuple_atom(("a", NULL)),
            encode_tuple_atom((NULL, "y")),
        ]
        results = sxm_run(product, word)
        assert len(results) == 1
        (outputs, final), = results
        assert outputs == (
            encode_tuple_atom(("u", NULL)),
            encode_tuple_atom(("v", NULL)),
            encode_tuple_atom(("[1,1]", NULL)),
            encode_tuple_atom((NULL, "w")),
        )
        # component 2 ends up holding the shipped memory value
        assert final.memory[1][1] == 1

    def test_step_graphs_isomorphic_to_depth_four(self):
        ext = extend_for_testing(two_component_toy())
        product = build_product_sxm(ext)
        sys_nodes = {initial_system_core(ext)}
        prod_nodes = {core_to_product(initial_system_core(ext))}
        frontier = [initial_system_core(ext)]
        pfrontier = [core_to_product(initial_system_core(ext))]
        for _ in range(4):
            sys_edges = {
                (core_to_product(c), label, core_to_product(s))
                for c in frontier
                for label, s in system_core_successors(ext, c)
            }
            prod_edges = {
                (c, label, s)
                for c in pfrontier
                for label, s in product_core_successors(product, c)
            }
            assert sys_edges == prod_edges
            frontier = sorted(
                {s for c in frontier for _, s in system_core_successors(ext, c)},
                key=repr,
            )
            pfrontier = sorted({core_to_product(c) for c in frontier}, key=repr)

    def test_full_reachable_graph_isomorphic_random_systems(self):
        for seed in range(6):
            ext = extend_for_testing(random_csxm_system(seed))
            product = build_product_sxm(ext)
            start = initial_system_core(ext)
            nodes, edges = _explore(start, lambda c: system_core_successors(ext, c))
            pstart = core_to_product(start)
            pnodes, pedges = _explore(pstart, lambda c: product_core_successors(product, c))
            assert {core_to_product(c) for c in nodes} == pnodes
            assert {(core_to_product(a), l, core_to_product(b)) for a, l, b in edges} == pedges


def _explore(start, succ):
    nodes = {start}
    edges = set()
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for label, nxt in succ(node):
            edges.add((node, label, nxt))
            if nxt not in nodes:
                nodes.add(nxt)
                queue.append(nxt)
    return nodes, edges


def reference_product_evaluate(pf, memory, input_symbol):
    """``ProductFunction.evaluate`` as written before the product stepped
    through the system's change rule: the consuming mode whenever the
    function accepts the loaded in-port, else the ignoring mode, and the
    send checks only after the mode is chosen."""
    parts = decode_tuple_atom(input_symbol, pf.n)
    if parts is None:
        return None
    if any(part != NULL for j, part in enumerate(parts) if j != pf.index):
        return None
    symbol = parts[pf.index]
    if symbol == NULL:
        return None
    if not isinstance(memory, tuple) or len(memory) != pf.n:
        return None
    in_port, local_memory, out_port = memory[pf.index]

    result = None
    new_in = in_port
    if in_port != BOT:
        result = pf.inner.evaluate(symbol, in_port, local_memory)
        if result is not None:
            new_in = BOT
    if result is None:
        result = pf.inner.evaluate(symbol, BOT, local_memory)
        new_in = in_port
    if result is None:
        return None

    triples = list(memory)
    if pf.inner.kind == ORDINARY:
        new_out = result.out_port if result.set_out_port else out_port
        triples[pf.index] = (new_in, result.memory, new_out)
    else:
        if out_port == BOT:
            return None
        k = result.send_to
        if k is None or k - 1 == pf.index or not 1 <= k <= pf.n:
            return None
        if memory[k - 1][0] != BOT:
            return None
        triples[pf.index] = (new_in, result.memory, BOT)
        _, target_mem, target_out = memory[k - 1]
        triples[k - 1] = (out_port, target_mem, target_out)

    output_parts = [NULL] * pf.n
    output_parts[pf.index] = result.output
    return encode_tuple_atom(output_parts), tuple(triples)


def ignoring_send(pf, memory, input_symbol):
    """The product step of the send that ``pf`` makes in the ignoring mode
    at a point the reference rejects, or None where the system's rule
    enables no such send."""
    if pf.inner.kind == ORDINARY:
        return None
    symbol = decode_tuple_atom(input_symbol, pf.n)[pf.index]
    in_port, local_memory, out_port = memory[pf.index]
    result = pf.inner.evaluate(symbol, BOT, local_memory)
    if result is None or out_port == BOT:
        return None
    k = result.send_to - 1
    if k == pf.index or memory[k][0] != BOT:
        return None
    triples = list(memory)
    triples[pf.index] = (in_port, result.memory, BOT)
    triples[k] = (out_port,) + memory[k][1:]
    output_parts = [NULL] * pf.n
    output_parts[pf.index] = result.output
    return encode_tuple_atom(output_parts), tuple(triples)


def compare_with_reference(product):
    """Checks ``ProductFunction.evaluate`` against the reference at every
    memory x input point of ``product``; returns the number of points where
    only the new rule's ignoring-mode send is enabled."""
    memories, exhaustive = product.memory_values()
    assert exhaustive
    inputs = sorted(product.inputs)
    rescued = 0
    for pf in product.functions.values():
        for memory in memories:
            for atom in inputs:
                got = pf.evaluate(memory, atom)
                expected = reference_product_evaluate(pf, memory, atom)
                if got != expected:
                    assert expected is None, (pf.name, memory, atom)
                    assert got == ignoring_send(pf, memory, atom), (pf.name, memory, atom)
                    rescued += 1
    return rescued


def three_component_corner(ignoring_target=2):
    """Component 1 sends in its communicating state ``c``: to component 3
    when it consumes a loaded in-port, to ``ignoring_target`` when it
    ignores it.  Components 2 and 3 read their in-ports."""

    def reader(name, symbol):
        return Csxm(
            name=name,
            inputs=frozenset({symbol}),
            outputs=frozenset({"w" + symbol}),
            states=frozenset({"r"}),
            initial_states=frozenset({"r"}),
            terminal_states=frozenset({"r"}),
            memory_domain=MemoryDomain(kind="range", low=0, high=1),
            initial_memory=0,
            functions={
                "take": CsxmCaseFunction("take", "ordinary", [
                    CsxmCase.build("?m", "?p where ?p != ⊥_M", symbol, "w" + symbol, "?p"),
                ]),
            },
            next_state={("r", "take"): ("r",)},
            in_port_domain=(1,),
            out_port_domain=(),
            ordinary_states=frozenset({"r"}),
            communicating_states=frozenset(),
            ordinary_functions=frozenset({"take"}),
            communicating_functions=frozenset(),
        )

    sender = Csxm(
        name="sender",
        inputs=frozenset({"x"}),
        outputs=frozenset({"u"}),
        states=frozenset({"p", "c"}),
        initial_states=frozenset({"p"}),
        terminal_states=frozenset({"p", "c"}),
        memory_domain=MemoryDomain(kind="range", low=0, high=1),
        initial_memory=0,
        functions={
            "load": CsxmCaseFunction("load", "ordinary", [
                CsxmCase.build("?m", BOT, "x", "u", "?m", out_port="1"),
            ]),
            "ship": CsxmCaseFunction("ship", "communicating", [
                CsxmCase.build("?m", "?p where ?p != ⊥_M", NULL, NULL, "?m", send_to=3),
                CsxmCase.build("?m", BOT, NULL, NULL, "?m", send_to=ignoring_target),
            ]),
        },
        next_state={("p", "load"): ("c",), ("c", "ship"): ("p",)},
        in_port_domain=(1,),
        out_port_domain=(1,),
        ordinary_states=frozenset({"p"}),
        communicating_states=frozenset({"c"}),
        ordinary_functions=frozenset({"load"}),
        communicating_functions=frozenset({"ship"}),
    )
    return CsxmSystem("corner", (sender, reader("second", "y"), reader("third", "z")))


# Component 1 holds both ports loaded in its communicating state; the
# in-port of component 3 is occupied, that of component 2 empty.
CORNER = ((0, "c", 1, 1), (0, "r", BOT, BOT), (0, "r", 1, BOT))


class TestProductRule:
    def test_product_evaluate_matches_the_reference_on_random_systems(self):
        for seed in range(50):
            product = build_product_sxm(extend_for_testing(random_csxm_system(seed)))
            # two components have one send target each, so a send the
            # consuming mode loses is lost in the ignoring mode too
            assert compare_with_reference(product) == 0

    def test_product_evaluate_sends_in_the_ignoring_mode_where_the_reference_gives_up(self):
        ext = extend_for_testing(three_component_corner())
        assert validate_system(ext) == []
        assert compare_with_reference(build_product_sxm(ext)) > 0

    def test_corner_edges_agree(self):
        ext = extend_for_testing(three_component_corner())
        product = build_product_sxm(ext)
        edges = system_core_successors(ext, CORNER)
        shipped = ((0, "p", 1, BOT), (0, "r", 1, BOT), (0, "r", 1, BOT))
        assert ((1, "ship", "a"), shipped) in edges
        assert {(label, core_to_product(succ)) for label, succ in edges} == (
            product_core_successors(product, core_to_product(CORNER)))

    def test_product_drops_the_ignoring_send_where_both_modes_send(self):
        ext = extend_for_testing(three_component_corner())
        product = build_product_sxm(ext)
        both = ((0, "c", 1, 1), (0, "r", BOT, BOT), (0, "r", BOT, BOT))
        consumed = ((0, "p", BOT, BOT), (0, "r", BOT, BOT), (0, "r", 1, BOT))
        ignored = ((0, "p", 1, BOT), (0, "r", 1, BOT), (0, "r", BOT, BOT))
        label = (1, "ship", "a")
        assert system_core_successors(ext, both) == {(label, consumed), (label, ignored)}
        assert product_core_successors(product, core_to_product(both)) == {
            (label, core_to_product(consumed))}

    def test_no_send_to_the_sender(self):
        # with its in-port empty, the sender ignores it and targets itself
        ext = extend_for_testing(three_component_corner(ignoring_target=1))
        product = build_product_sxm(ext)
        core = ((0, "c", BOT, 1),) + CORNER[1:]
        edges = system_core_successors(ext, core)
        pedges = product_core_successors(product, core_to_product(core))
        # only component 3 moves: it reads its in-port
        assert {label for label, _ in edges} == {label for label, _ in pedges} == {
            (3, "take", "z")}


class TestSuiteGeneration:
    def test_deterministic_system_produces_suite(self):
        suite = generate_csxms_test_suite(two_component_toy(), 0)
        assert suite.cases
        assert suite.metadata["components"] == ["left", "right"]

    def test_component_determinism_failure_gates(self):
        sys_ = two_component_toy()
        c1 = sys_.components[0]
        # second function overlapping work's domain on the same state
        clash = CsxmCaseFunction("clash", "ordinary", [
            CsxmCase.build("?m", BOT, "x", "v", "?m"),
        ])
        functions = dict(c1.functions)
        functions["clash"] = clash
        ns = dict(c1.next_state)
        ns[("p", "clash")] = ("p",)
        bad = replace(
            c1,
            functions=functions,
            next_state=ns,
            ordinary_functions=c1.ordinary_functions | {"clash"},
        )
        with pytest.raises(DftFailure):
            generate_csxms_test_suite(replace(sys_, components=(bad, sys_.components[1])), 0)

    def test_multi_target_arc_surfaces_as_nondeterministic_product(self):
        sys_ = two_component_toy()
        c1 = sys_.components[0]
        ns = dict(c1.next_state)
        ns[("p", "work")] = ("p", "c")
        bad = replace(c1, next_state=ns)
        with pytest.raises(NondeterministicProduct) as err:
            generate_csxms_test_suite(replace(sys_, components=(bad, sys_.components[1])), 0)
        assert err.value.state is not None
        assert err.value.label is not None

    def test_component_dft_reports(self):
        ext = extend_for_testing(two_component_toy())
        for comp in ext.components:
            report = check_csxm_dft(comp)
            assert report.all_pass()
            assert report.exhaustive

    def test_component_dft_witnesses_replay_in_declared_memory_order(self):
        # f and g overlap at memories 2 and 1 with the same observable; f is
        # undefined at memory 0; e shares their output but sets the out-port,
        # so it stays distinguishable from both.
        comp = Csxm(
            name="faulty",
            inputs=frozenset({"x", "y"}),
            outputs=frozenset({"o", "p"}),
            states=frozenset({"s", "t"}),
            initial_states=frozenset({"s"}),
            terminal_states=frozenset({"s", "t"}),
            memory_domain=MemoryDomain(kind="set", values=(2, 0, 1)),
            initial_memory=0,
            functions={
                "e": CsxmCaseFunction("e", "ordinary", [
                    CsxmCase.build("_", BOT, "x", "o", "0", out_port="1"),
                ]),
                "f": CsxmCaseFunction("f", "ordinary", [
                    CsxmCase.build("?m where ?m != 0", "_", "x", "o", "?m"),
                ]),
                "g": CsxmCaseFunction("g", "ordinary", [
                    CsxmCase.build("_", BOT, "x", "o", "0"),
                ]),
                "h": CsxmCaseFunction("h", "ordinary", [
                    CsxmCase.build("_", "?p where ?p != ⊥_M", "y", "p", "?p"),
                ]),
            },
            next_state={
                ("s", "f"): ("t",),
                ("s", "g"): ("t",),
                ("t", "e"): ("s",),
                ("t", "h"): ("s",),
            },
            in_port_domain=(1,),
            out_port_domain=(1,),
            ordinary_states=frozenset({"s", "t"}),
            communicating_states=frozenset(),
            ordinary_functions=frozenset({"e", "f", "g", "h"}),
            communicating_functions=frozenset(),
        )
        assert validate_csxm(comp) == []
        report = check_csxm_dft(comp)
        assert not (report.deterministic or report.complete or report.output_distinguishable)
        assert report.structural_issues == ()
        assert [
            (w.state, w.fn1, w.fn2, w.memory, w.input) for w in report.determinism_witnesses
        ] == [("s", "f", "g", (2, BOT), "x"), ("s", "f", "g", (1, BOT), "x")]
        assert [(w.fn, w.memory) for w in report.completeness_witnesses] == [("f", 0)]
        assert [
            (w.fn1, w.fn2, w.memory, w.memory1, w.memory2, w.input, w.output)
            for w in report.distinguishability_witnesses
        ] == [("f", "g", (2, BOT), 2, 0, "x", "o"), ("f", "g", (1, BOT), 1, 0, "x", "o")]

        fns = comp.functions
        for w in report.determinism_witnesses:
            m, port = w.memory
            assert fns[w.fn1].evaluate(w.input, port, m) is not None
            assert fns[w.fn2].evaluate(w.input, port, m) is not None
        for w in report.completeness_witnesses:
            assert all(
                fns[w.fn].evaluate(sym, port, w.memory) is None
                for sym in comp.inputs for port in (BOT,) + comp.in_port_domain
            )
        for w in report.distinguishability_witnesses:
            m, port = w.memory
            r1 = fns[w.fn1].evaluate(w.input, port, m)
            r2 = fns[w.fn2].evaluate(w.input, port, m)
            assert r1.output == r2.output == w.output
            assert (r1.memory, r2.memory) == (w.memory1, w.memory2)


# sha256 of the canonical suite of random systems that pass the
# design-for-test checks, measured before the product machine stepped
# through the system's communicating-change rule.
@pytest.mark.parametrize("seed, k, digest", [
    (0, 0, "8163f8d13d4c599cd816b10b7d26c404fc7a18fc05290710a7036da1afbdeef2"),
    (0, 1, "763e95623ed6038d4401a017a1387e7f2881dfe0c4cd652c8b68d286b4df61f6"),
    (2, 0, "a11d1aa0105b6146c02dc4947e44e88fa9a9c329f87c4e061764aa427a3dc9a2"),
    (2, 1, "8ba94f6ef98b5fc27b96f32c4ef44e8286ecc266eb6fc0174263f1a80c425672"),
    (4, 0, "29f7a2abc165696f9f3c6f194cb1f7754833fe8b44f0aa7262f5bda07f4be2f7"),
    (4, 1, "9e1a4c574e8549de58ab35d49122740d3b55bfcfff0a3e936778ddecbf42af48"),
])
def test_random_system_suites_pinned(seed, k, digest):
    suite = generate_csxms_test_suite(random_csxm_system(seed), k)
    text = canonical_json(suite_to_dict(suite))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTupleAtoms:
    def test_round_trip(self):
        atom = encode_tuple_atom(("x", NULL, "a"))
        assert decode_tuple_atom(atom, 3) == ("x", NULL, "a")
        assert decode_tuple_atom(atom, 2) is None
        assert decode_tuple_atom("plain", 2) is None
