"""The product machine against the former construction.

``reference_build_product_sxm`` is ``build_product_sxm`` as it was when it
built the product's memory domain as one tuple of every combination of
the components' (in-port, memory, out-port) triples, and
``ReferenceProductFunction`` is the former ``ProductFunction``, which
decoded every input atom to find its active part.  The product now keeps
the port and memory domains as the parts of a product domain, whose size
is the product of theirs, and gives each function the inputs it may
accept.  Both are compared on the random systems of criterion 4, the
``ps2_heterotic`` product and the benchmark's three-component systems
(perfbench/gen.py, read from its file) at seeds 0-3.
"""

import importlib.util
import json
import pathlib
from itertools import product

import pytest
from gen_models import random_csxm_system
from product_walk import decode_tuple_atom
from test_testgen import _products

from heterotest import model_io, sxm
from heterotest.cli import main
from heterotest.csxms import (
    COMM_SYMBOL,
    ORDINARY,
    ProductFunction,
    _enabled_changes,
    build_product_sxm,
    encode_tuple_atom,
    extend_for_testing,
    port_values,
)
from heterotest.errors import ExplosionBoundExceeded, MissingSampleError
from heterotest.sxm import MemoryDomain, ProcessingFunction, Sxm
from heterotest.testgen import _choose_input
from heterotest.values import BOTTOM_M, NULL

GEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


class ReferenceProductFunction(ProcessingFunction):
    """``ProductFunction`` as it was before it held its candidate inputs."""

    def __init__(self, index, inner, n):
        self.index = index
        self.inner = inner
        self.n = n
        parts = ["id"] * n
        parts[index] = inner.name
        self.name = encode_tuple_atom(parts)

    def evaluate(self, memory, input_symbol):
        parts = decode_tuple_atom(input_symbol, self.n)
        if parts is None:
            return None
        if any(part != NULL for j, part in enumerate(parts) if j != self.index):
            return None
        symbol = parts[self.index]
        if symbol == NULL:
            return None
        if not isinstance(memory, tuple) or len(memory) != self.n:
            return None
        _, local_memory, out_port = memory[self.index]
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


def reference_build_product_sxm(sys):
    """``build_product_sxm`` of an extended system as it was when it built
    the memory tuple."""
    n = len(sys.components)
    input_parts = [sorted(comp.inputs | {COMM_SYMBOL, NULL}) for comp in sys.components]
    output_parts = [sorted(comp.outputs | {NULL}) for comp in sys.components]
    inputs = {encode_tuple_atom(parts) for parts in product(*input_parts)
              if any(p != NULL for p in parts)}
    outputs = {encode_tuple_atom(parts) for parts in product(*output_parts)
               if any(p != NULL for p in parts)}
    states = {encode_tuple_atom(parts)
              for parts in product(*[sorted(comp.states) for comp in sys.components])}
    initial = {encode_tuple_atom(parts)
               for parts in product(*[sorted(c.initial_states) for c in sys.components])}
    terminal = {encode_tuple_atom(parts)
                for parts in product(*[sorted(c.terminal_states) for c in sys.components])}

    memory_parts = []
    exhaustive = True
    for comp in sys.components:
        mem_values, comp_exhaustive = comp.memory_domain.enumerate(comp.name)
        exhaustive = exhaustive and comp_exhaustive
        ports_in, ports_out = port_values(comp.in_port_domain), port_values(comp.out_port_domain)
        memory_parts.append([(pi, m, po) for pi in ports_in for m in mem_values
                             for po in ports_out])
    memory_values = tuple(product(*memory_parts))
    domain = MemoryDomain(
        kind="set" if exhaustive else "open",
        values=memory_values if exhaustive else (),
        sample=() if exhaustive else memory_values,
    )
    initial_memory = tuple((BOTTOM_M, comp.initial_memory, BOTTOM_M) for comp in sys.components)

    functions = {}
    next_state = {}
    for i, comp in enumerate(sys.components):
        other_states = [sorted(c.states) if j != i else [None]
                        for j, c in enumerate(sys.components)]
        for (q, fname), targets in sorted(comp.next_state.items()):
            pf = ReferenceProductFunction(i, comp.functions[fname], n)
            functions.setdefault(pf.name, pf)
            for combo in product(*other_states):
                src = encode_tuple_atom([q if j == i else combo[j] for j in range(n)])
                dsts = [encode_tuple_atom([t if j == i else combo[j] for j in range(n)])
                        for t in targets]
                key = (src, pf.name)
                next_state[key] = tuple(sorted(set(next_state.get(key, ())) | set(dsts)))

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


def reference_product_summary_to_dict(model):
    values, exhaustive = model.memory_domain.enumerate(model.name)
    return dict(model_io._machine_header(model), functions=sorted(model.functions),
                memory_size=len(values), memory_exhaustive=exhaustive)


def reference_product_text(model, payload):
    """The text ``product`` printed."""
    lines = [
        f"product {model.name}",
        f"inputs: {len(model.inputs)}",
        f"outputs: {len(model.outputs)}",
        f"states: {len(model.states)}",
        f"functions: {len(model.functions)}",
        f"arcs: {sum(len(t) for t in model.next_state.values())}",
        f"memory values: {payload['memory_size']}",
    ]
    return "".join(line + "\n" for line in lines)


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def system_files(tmp_path_factory, models_dir):
    """(label, system file): the criterion-4 systems at seeds 0-54, written
    out, and the benchmark's heterotic_suite systems at seeds 0-3."""
    root = tmp_path_factory.mktemp("systems")
    files = []
    for seed in range(55):
        system = random_csxm_system(seed)
        path = root / f"{system.name}.json"
        path.write_text(json.dumps({
            "schema": 1, "name": system.name,
            "components": [model_io.sxm_to_dict(comp) for comp in system.components],
        }), encoding="utf-8")
        files.append((f"random{seed}", path))
    gen = _perfbench_gen()
    for seed in range(4):
        inputs = gen.write_inputs("heterotic_suite", seed, str(root / f"h{seed}"), str(models_dir))
        files += [(f"heterotic_suite{seed}.sys{i}", pathlib.Path(path))
                  for i, path in enumerate(inputs["systems"])]
    return files


def assert_products_agree(got, want):
    """Every field of the two products, the summary and the enumerated
    memory values, in order."""
    for field in Sxm._fields:
        mine, theirs = getattr(got, field), getattr(want, field)
        if field == "functions":
            assert list(mine) == list(theirs)
            # each product extends its own copy of the system, so an extended
            # communicating function is an equal object, not the same one
            assert all(
                isinstance(fn, ProductFunction)
                and (fn.name, fn.index, type(fn.inner), vars(fn.inner), fn.n)
                == (old.name, old.index, type(old.inner), vars(old.inner), old.n)
                for fn, old in zip(mine.values(), theirs.values())
            )
        elif field == "memory_domain":
            assert mine.kind == "product"
            assert (mine.size, mine.exhaustive) == (theirs.size, theirs.exhaustive)
            assert mine.contains(got.initial_memory) == theirs.contains(want.initial_memory)
        else:
            assert mine == theirs, field
    assert (got.memory_domain.enumerate(got.name)
            == want.memory_domain.enumerate(want.name))
    summary = model_io.product_summary_to_dict(got)
    assert summary == reference_product_summary_to_dict(want)
    return summary


def test_product_matches_the_former_construction(system_files, ps2_heterotic):
    systems = [model_io.load_model_file(path)[1] for _, path in system_files]
    sizes = []
    for system in systems + [ps2_heterotic.as_system]:
        summary = assert_products_agree(build_product_sxm(system),
                                        reference_build_product_sxm(extend_for_testing(system)))
        sizes.append(summary["memory_size"])
    # the benchmark's systems reach 110,592 values, under the cap
    assert max(sizes) == 110_592 <= sxm.DOMAIN_CAP


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_product_command_matches_the_former_construction(system_files, tmp_path, capsys, fmt):
    artifact = tmp_path / "product.json"
    for label, path in system_files:
        assert main(["--format", fmt, "product", str(path), "-o", str(artifact)]) == 0, label
        out, err = capsys.readouterr()
        want = reference_build_product_sxm(
            extend_for_testing(model_io.load_model_file(path)[1]))
        payload = reference_product_summary_to_dict(want)
        document = model_io.canonical_json(payload)
        assert artifact.read_text(encoding="utf-8") == document, label
        assert out == (document if fmt == "json" else reference_product_text(want, payload))
        assert err == ""


def _static_candidates(product_sxm, index):
    """The product's inputs, in sorted order, whose only active part is
    component ``index``'s."""
    n = len(product_sxm.initial_memory)
    out = []
    for atom in sorted(product_sxm.inputs):
        parts = decode_tuple_atom(atom, n)
        if all((part != NULL) == (j == index) for j, part in enumerate(parts)):
            out.append(atom)
    return tuple(out)


def test_candidate_inputs_choose_as_every_input_did(ps2_heterotic):
    # the products of tests/test_testgen.py's TestWalkAgainstReference
    products = list(_products())
    products.append(build_product_sxm(ps2_heterotic.as_system))
    choices = 0
    for product_sxm in products:
        inputs = sorted(product_sxm.inputs)
        memories, _ = product_sxm.memory_domain.enumerate(product_sxm.name)
        for name, pf in product_sxm.functions.items():
            assert pf.candidate_inputs == _static_candidates(product_sxm, pf.index)
            former = ReferenceProductFunction(pf.index, pf.inner, pf.n)
            for memory in memories:
                results = [former.evaluate(memory, atom) for atom in inputs]
                assert [pf.evaluate(memory, atom) for atom in inputs] == results
                chosen = next(((atom, result[1]) for atom, result in zip(inputs, results)
                               if result is not None), None)
                expected = (inputs[0], None, True) if chosen is None else (*chosen, False)
                assert _choose_input(product_sxm, inputs, memory, False, name) == expected
                choices += 1
    assert len(products) > 20 and choices > 10_000


def test_product_function_rejects_what_it_was_not_built_for():
    product_sxm = build_product_sxm(random_csxm_system(0))
    memory = product_sxm.initial_memory
    pf = product_sxm.functions["(loc|id)"]
    accepted = [atom for atom in pf.candidate_inputs if pf.evaluate(memory, atom) is not None]
    assert accepted
    atom = accepted[0]
    symbol = decode_tuple_atom(atom, 2)[0]
    for other in (f"({symbol}|{symbol})", f"({symbol})", f"({symbol}|{NULL}|{NULL})",
                  symbol, f"({NULL}|{NULL})", f"(zzz|{NULL})", atom[1:]):
        assert pf.evaluate(memory, other) is None, other
    assert pf.evaluate(memory[:1], atom) is None


def test_the_domain_size_is_read_from_the_declaration(monkeypatch):
    pair = MemoryDomain(kind="product", parts=(
        MemoryDomain(kind="range", low=0, high=1), MemoryDomain(kind="set", values=("a", "b", "c"))))
    assert (pair.size, pair.exhaustive) == (6, True)
    assert pair.enumerate("m") == (tuple(product((0, 1), ("a", "b", "c"))), True)
    assert pair.contains((1, "c")) and not pair.contains((2, "c")) and not pair.contains((1,))
    sampled = MemoryDomain(kind="product", parts=(pair, MemoryDomain(kind="open", sample=(7,))))
    assert (sampled.size, sampled.exhaustive, sampled.contains(((0, "a"), 7))) == (6, False, None)
    assert sampled.enumerate("m") == (tuple((v, 7) for v in pair.enumerate("m")[0]), False)
    with pytest.raises(MissingSampleError):
        MemoryDomain(kind="product", parts=(pair, MemoryDomain(kind="open"))).enumerate("m")
    assert MemoryDomain(kind="range", low=5, high=4).size == 0

    monkeypatch.setattr(sxm, "DOMAIN_CAP", 5)
    built = []
    monkeypatch.setattr(MemoryDomain, "_values", lambda self: built.append(self))
    for domain, size in ((pair, 6), (MemoryDomain(kind="range", low=0, high=10**12), 10**12 + 1)):
        with pytest.raises(ExplosionBoundExceeded,
                           match=f"^memory domain of m has {size} values, more than the cap of 5$"):
            domain.enumerate("m")
    assert built == []


def test_every_shipped_model_stays_under_the_cap(models_dir):
    checked = 0
    for path in sorted(models_dir.glob("*.json")):
        kind, model = model_io.load_model_file(path)
        if kind == "psystem":
            continue
        system = model.as_system if kind == "heterotic" else None
        domains = [model.memory_domain] if system is None else [
            comp.memory_domain for comp in system.components]
        if system is not None:
            domains.append(build_product_sxm(system).memory_domain)
        for domain in domains:
            assert domain.size <= sxm.DOMAIN_CAP, path.name
            checked += 1
    assert checked == 6
