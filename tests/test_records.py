"""Record classes against their ``dataclasses`` twins.

Every ``@record`` class of the package, the component configuration of
the stream-level system step in ``tests/product_walk.py`` and the stream
configuration of the machine step in ``tests/machine_walk.py`` is rebuilt
here as a frozen ``dataclasses`` class from the annotations and field
markers of its own source: a default stays a default, and ``aside()``
becomes ``field(compare=False, repr=False)``, a required field.  The records
reached by running the pipeline on the shipped models and on
benchmark-style inputs (perfbench/gen.py at seed 5, the pinned
``branch2_1`` P system) must agree with their twins on ``repr``, ``==``
(across classes too), ``hash``, the errors of assignment and deletion,
defaults, construction and ``replace``.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import pathlib
import sys
import textwrap
from collections import defaultdict

import pytest

from gen_models import random_csxm_system, random_messy_sxm
from machine_walk import StreamConfiguration, sxm_run, sxm_step
from product_walk import ComponentConfiguration, initial_system_configuration, system_step
from test_cli import BRANCHING

import heterotest
from heterotest.records import aside, record, replace

PACKAGE = pathlib.Path(heterotest.__file__).resolve().parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _record_classes():
    """Every class of the package whose definition is decorated ``@record``."""
    found = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"heterotest.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list):
                found.append(getattr(module, node.name))
    return found


RECORDS = _record_classes() + [ComponentConfiguration, StreamConfiguration]


def twin_class(cls):
    """A frozen dataclass with the fields, defaults and markers that the
    source of ``cls`` declares."""
    node = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0]
    namespace = vars(sys.modules[cls.__module__])
    fields = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if stmt.value is None:
            fields.append((stmt.target.id, object))
            continue
        default = eval(compile(ast.Expression(stmt.value), "<default>", "eval"), namespace)
        if isinstance(default, aside):
            spec = dataclasses.field(compare=False, repr=False)
        else:
            spec = dataclasses.field(default=default)
        fields.append((stmt.target.id, object, spec))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      namespace={"__qualname__": cls.__qualname__})


class Twins:
    """Maps a value to its twin: each record to an instance of its twin
    class, through tuples, lists, dicts and frozensets; anything else to
    itself."""

    def __init__(self, classes):
        self.classes = {cls: twin_class(cls) for cls in classes}
        self.memo = {}  # id -> (value, twin); holding the value keeps its id

    def __call__(self, value):
        hit = self.memo.get(id(value))
        if hit is not None:
            return hit[1]
        kind = type(value)
        if kind in self.classes:
            twin = self.classes[kind](*[self(getattr(value, name)) for name in value._fields])
        elif kind in (tuple, list, frozenset):
            items = [self(item) for item in value]
            # a rebuilt set may iterate, and so print, in another order
            same = all(twin is item for twin, item in zip(items, value))
            twin = value if same else kind(items)
        elif kind is dict:
            twin = {self(key): self(item) for key, item in value.items()}
        else:
            twin = value
        self.memo[id(value)] = (value, twin)
        return twin


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Terms that hold every node class, and texts that parse to equal nodes as a
# pattern and as an expression.
TERMS = ("[?x _ 3 idle {a a b}] where ?x < 2, ?x != 0", "?m where ?m >= 1")
EXPRESSIONS = ("[?x (-1) {a b} idle] ", "(?m + 2) * 3 % 4 - -?m")
SAME_VALUES = ("?m", "idle", "7", "{a b}", "[?m 1]")


def pipeline_roots(tmp_path, models_dir):
    """What the pipeline builds from the shipped models and benchmark-style
    inputs, as a list of roots to walk."""
    from heterotest import csxms, dft, heterotic, mutation, psystem, sxm, terms, testgen
    from heterotest.model_io import load_model_file

    gen = _perfbench_gen()
    heterotic_inputs = gen.write_inputs("heterotic_suite", 5, str(tmp_path / "h"), str(models_dir))
    machine_inputs = gen.write_inputs("sxm_mutation", 5, str(tmp_path / "m"), str(models_dir))
    branching = tmp_path / "branch2_1.json"
    branching.write_text(json.dumps(BRANCHING))
    paths = sorted(models_dir.glob("*.json")) + [branching, heterotic_inputs["heterotic"]]
    paths += heterotic_inputs["systems"] + [path for path, _ in machine_inputs["machines"]]
    loaded = [load_model_file(path) for path in paths]

    roots = []
    for kind, model in loaded:
        roots.append(model)
        if kind == "sxm":
            start = next(iter(sorted(model.initial_states)))
            roots += [sxm.validate_sxm(model), dft.check_dft(model), sxm.associated_automaton(model),
                      sxm_run(model, sorted(model.inputs)[:2]),
                      sxm_step(model, StreamConfiguration(
                          model.initial_memory, start, tuple(sorted(model.inputs)), ()))]
            if model.name != "counter":
                suite = testgen.generate_sxm_test_suite(model, 1)
                batch = mutation.mutate_model(model, seed=5, count=12)
                roots += [suite, batch, mutation.score_sxm_suite(model, batch, suite)]
        elif kind == "psystem":
            members, report = psystem.generate_coverage_test_set(model, 3)
            batch = mutation.mutate_model(model, seed=5, count=12)
            roots += [psystem.validate_psystem(model), psystem.psystem_run(model, 3),
                      psystem.psystem_run(model, 3, mode="seeded", seed=5),
                      psystem.explore(model, 3), report, batch,
                      mutation.score_psystem_testset(model, batch, members, 3)]
        elif kind == "heterotic":
            system = model.as_system
            start = initial_system_configuration(system)
            roots += [heterotic.run_heterotic(model, 2),
                      heterotic.generate_integration_tests(model, 0),
                      csxms.check_csxm_dft(model.control), start,
                      system_step(system, start)]
        elif kind == "system":
            roots.append(csxms.validate_system(model))
    # failing checks: violations and every kind of DFT witness
    ps2 = dict(loaded)["psystem"]
    bad_rule = psystem.PRule("rx", 2, ps2.initial[0], (("b", 3),))
    roots.append(psystem.validate_psystem(replace(ps2, rules=ps2.rules + (bad_rule,))))
    counter = dict(loaded)["sxm"]
    roots.append(sxm.validate_sxm(replace(counter, initial_states=frozenset({"nowhere"}))))
    roots += [dft.check_dft(random_messy_sxm(seed)) for seed in range(6)]
    # the benchmark systems' products print 4.5 MB each; this one is small
    system = random_csxm_system(5)
    roots += [system, [csxms.check_csxm_dft(c) for c in system.components],
              csxms.build_product_sxm(system)]
    roots += [terms.parse_pattern(text) for text in TERMS + SAME_VALUES]
    roots += [terms.parse_expr(text) for text in EXPRESSIONS + SAME_VALUES]
    return roots


def walk(roots):
    """The records reachable from ``roots``, by class, in walk order."""
    classes = set(RECORDS)
    found, seen, stack = defaultdict(list), set(), list(reversed(roots))
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        kind = type(obj)
        if kind in classes:
            found[kind].append(obj)
            stack += [getattr(obj, name) for name in reversed(obj._fields)]
        elif kind in (tuple, list, set, frozenset):
            stack += reversed(list(obj))
        elif kind is dict:
            stack += [part for item in reversed(obj.items()) for part in item]
        elif kind.__module__.startswith("heterotest."):
            # case functions, their shared tables and the Base's functions
            slots = getattr(kind, "__slots__", ())
            stack += [getattr(obj, name) for name in slots if hasattr(obj, name)]
            stack += list(getattr(obj, "__dict__", {}).values())
    return found


class Outer:
    @record
    class Inner:
        """A nested record, so that its repr must name ``Outer.Inner``."""

        x: int
        extra: dict = aside()
        cache: object = aside()
        y: str = "y"


class Sub(Outer.Inner):
    """Not decorated: a record of it never equals one of its base."""


@record
class Empty:
    pass


LOCAL = [Outer.Inner, Sub, Empty]
# The node classes that patterns and expressions share, checked once more on
# the nodes parsed in each role: "P" from a pattern's node, "E" from an
# expression.
SHARED_NODES = ("Atom", "Int", "Mset", "Seq", "Var")
ROLES = [(role, name) for role in "EP" for name in SHARED_NODES]
# Records checked per class, and per class in the pairwise equality check.
PER_CLASS = 40
PER_CLASS_PAIRED = 4


@pytest.fixture(scope="module")
def instances(tmp_path_factory, models_dir):
    found = walk(pipeline_roots(tmp_path_factory.mktemp("records"), models_dir))
    found[Outer.Inner] = [Outer.Inner(1, {}, None), Outer.Inner(2, {"k": 1}, object(), "z"),
                          Outer.Inner(x=1, y="y", extra={"k": 2}, cache=None)]
    found[Sub] = [Sub(1, {}, None), Sub(2, {}, None, "z")]
    found[Empty] = [Empty(), Empty()]
    from heterotest.terms import parse_expr, parse_pattern

    by_role = {"P": walk([parse_pattern(text).node for text in TERMS + SAME_VALUES]),
               "E": walk([parse_expr(text) for text in EXPRESSIONS + SAME_VALUES])}
    for role, name in ROLES:
        found[role, name] = [rec for cls, recs in by_role[role].items()
                             if cls.__name__ == name for rec in recs]
    return found


@pytest.fixture(scope="module")
def twins():
    twins = Twins(RECORDS + [Outer.Inner, Empty])
    twins.classes[Sub] = type("Sub", (twins.classes[Outer.Inner],), {"__qualname__": "Sub"})
    return twins


def _refusal(action):
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


def _hashed(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return f"TypeError: {exc}"


def _same_fields(record_obj, twin_obj, twins):
    """Every field, compared or not, holds the twin's value."""
    return all(twins(getattr(record_obj, f.name)) == getattr(twin_obj, f.name)
               for f in dataclasses.fields(twin_obj))


def check_record(rec, peers, twins):
    cls, tw = type(rec), twins(rec)
    twin_cls = type(tw)
    fields = dataclasses.fields(twin_cls)
    names = [f.name for f in fields]
    values = [getattr(rec, name) for name in names]
    assert rec._fields == tuple(names)
    assert repr(rec) == repr(tw)
    assert _hashed(rec) == _hashed(tw)

    # construction, positional and by keyword
    for built in (cls(*values), cls(**dict(zip(names, values)))):
        assert all(getattr(built, name) is value for name, value in zip(names, values))
        assert built == rec and repr(built) == repr(rec)

    # defaults
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    bare = cls(*[getattr(rec, name) for name in required])
    twin_bare = twin_cls(*[getattr(tw, name) for name in required])
    assert repr(bare) == repr(twin_bare) and _same_fields(bare, twin_bare, twins)
    if required:
        with pytest.raises(TypeError):
            cls(*[getattr(rec, name) for name in required[:-1]])

    # frozen, for fields and, on a decorated class, other names too (a
    # dataclass lets a subclass set names that are not fields; a record
    # refuses them)
    for name in names + (["not_a_field"] if "_fields" in vars(cls) else []):
        assert _refusal(lambda: setattr(rec, name, None)) == _refusal(lambda: setattr(tw, name, None))
        assert _refusal(lambda: delattr(rec, name)) == _refusal(lambda: delattr(tw, name))
    assert all(getattr(rec, name) is value for name, value in zip(names, values))

    # replace, field by field, with the values of records of the same class
    for peer in peers:
        for name in names:
            value = getattr(peer, name)
            got = replace(rec, **{name: value})
            want = dataclasses.replace(tw, **{name: twins(value)})
            assert repr(got) == repr(want) and _same_fields(got, want, twins)
            assert (got == rec) == (want == tw) and _hashed(got) == _hashed(want)
    with pytest.raises(TypeError):
        replace(rec, not_a_field=None)
    with pytest.raises(TypeError):
        dataclasses.replace(tw, not_a_field=None)


def test_every_record_class_is_reached(instances):
    assert len(RECORDS) == len(set(RECORDS))
    assert [cls.__qualname__ for cls in RECORDS if not instances.get(cls)] == []


def _case_id(case):
    if isinstance(case, tuple):
        role, name = case
        return f"terms.{role}{name}"
    return f"{case.__module__.rpartition('.')[2]}.{case.__qualname__}"


@pytest.mark.parametrize("case", RECORDS + LOCAL + ROLES, ids=_case_id)
def test_records_behave_as_their_twins(case, instances, twins):
    sample = instances[case][:PER_CLASS]
    assert sample
    for index, rec in enumerate(sample):
        check_record(rec, [rec, sample[(index + 1) % len(sample)]], twins)


def test_equality_and_hash_match_the_twins_across_classes(instances, twins):
    from heterotest.terms import parse_expr, parse_pattern

    pool = [rec for cls in RECORDS + LOCAL for rec in instances[cls][:PER_CLASS_PAIRED]]
    # a pattern's node and an expression over the same text: equal records
    # that are not the same object
    pool += [parse_pattern(text).node for text in SAME_VALUES]
    pool += [parse_expr(text) for text in SAME_VALUES]
    # equal records that are not the same object
    pool += [type(rec)(*[getattr(rec, name) for name in rec._fields]) for rec in pool]
    for a in pool:
        twin_a = twins(a)
        assert (a == tuple(vars(a).values())) == (twin_a == tuple(vars(twin_a).values()))
        for b in pool:
            twin_b = twins(b)
            assert (a.__eq__(b) is NotImplemented) == (twin_a.__eq__(twin_b) is NotImplemented)
            assert (a == b) == (twin_a == twin_b), (a, b)
            if a == b:
                assert _hashed(a) == _hashed(b)


def test_fields_come_from_the_class_annotations():
    from heterotest import errors

    assert errors.Violation._fields == ("where", "message")

    class LazyAnnotations(type):
        """Computes a class's annotations on access and keeps none in its
        ``__dict__``, as classes of a module without ``from __future__
        import annotations`` do from Python 3.14 on."""

        @property
        def __annotations__(cls):
            return {"x": int, "y": str}

    class Lazy(metaclass=LazyAnnotations):
        y = "y"

    assert "__annotations__" not in vars(Lazy)
    lazy = record(Lazy)
    assert lazy._fields == ("x", "y")
    assert repr(lazy(1)) == "test_fields_come_from_the_class_annotations.<locals>.Lazy(x=1, y='y')"
