"""The term language: patterns, guards and update expressions.

The two node trees that the one tree replaced, a pattern node and an
expression node per term form with a parser production each, are kept
here as the reference.  On every case string of the shipped models, of
the generated test models and of the benchmark inputs, and on seeded
random token strings, the one tree must parse to the same terms, raise
the same errors, match and evaluate to the same results and report the
same variables.
"""

import importlib.util
import pathlib
import random
import re
from typing import Dict, Optional, Tuple

import pytest

from gen_models import random_csxm_system, random_dft_sxm, random_messy_sxm
from heterotest.errors import TermError
from heterotest.model_io import load_json
from heterotest.multiset import Multiset
from heterotest.records import record
from heterotest.terms import (
    _RELOPS,
    _SINGLE,
    Guard,
    Pattern,
    _is_int,
    _tokenize,
    parse_expr,
    parse_pattern,
)
from heterotest.values import Value

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_integer_pattern():
    p = parse_pattern("7")
    assert p.match(7) == {}
    assert p.match(8) is None
    assert p.match("7") is None


def test_negative_integer_pattern():
    assert parse_pattern("-2").match(-2) == {}


def test_atom_pattern():
    p = parse_pattern("idle")
    assert p.match("idle") == {}
    assert p.match("busy") is None


def test_variable_binds():
    assert parse_pattern("?m").match(5) == {"m": 5}


def test_wildcard():
    assert parse_pattern("_").match(("a", 1)) == {}


def test_sequence_pattern():
    p = parse_pattern("[?x ?y]")
    assert p.match((1, 2)) == {"x": 1, "y": 2}
    assert p.match((1, 2, 3)) is None
    assert p.match("ab") is None


def test_repeated_variable_requires_equal_values():
    p = parse_pattern("[?x ?x]")
    assert p.match((3, 3)) == {"x": 3}
    assert p.match((3, 4)) is None


def test_multiset_pattern_exact():
    p = parse_pattern("{a a b}")
    assert p.match(Multiset({"a": 2, "b": 1})) == {}
    assert p.match(Multiset({"a": 1, "b": 1})) is None


def test_guards():
    p = parse_pattern("?m where ?m < 3")
    assert p.match(2) == {"m": 2}
    assert p.match(3) is None
    p2 = parse_pattern("?m where ?m >= 1, ?m % 2 == 0")
    assert p2.match(2) == {"m": 2}
    assert p2.match(1) is None


def test_guard_on_atoms():
    p = parse_pattern("?p where ?p != bottom")
    assert p.match("x") == {"p": "x"}
    assert p.match("bottom") is None


def test_guard_unbound_variable_rejected():
    with pytest.raises(TermError):
        parse_pattern("?m where ?q < 3")


@pytest.mark.parametrize("text", [
    "_ where ?x == 1",
    "[?a ?b] where ?a < ?c",
    "?m where ?m < 3, ?z > 1",
    "7 where ?m + 1 > 0",
])
def test_unbound_guards_are_rejected_at_parse_time(text):
    # Pattern.match does not check guard variables: a successful node match
    # binds every variable the node has, and parsing admits no other
    with pytest.raises(TermError, match="guard uses unbound variables"):
        parse_pattern(text)


def test_guards_over_sequence_variables_match():
    p = parse_pattern("[?a [?b _]] where ?a < ?b, ?b != 9")
    assert p.match((1, (2, "x"))) == {"a": 1, "b": 2}
    assert p.match((2, (1, "x"))) is None
    assert p.match((1, (9, "x"))) is None


def test_parsed_terms_are_shared_by_source_text():
    assert parse_pattern("?m where ?m < 3") is parse_pattern("?m where ?m < 3")
    assert parse_expr("(?m + 1) % 4") is parse_expr("(?m + 1) % 4")


def test_expr_arithmetic():
    e = parse_expr("(?m + 1) * 2 % 5")
    assert e.evaluate({"m": 3}) == 3
    assert parse_expr("-?m").evaluate({"m": 4}) == -4


def test_expr_constructors():
    assert parse_expr("[?x {a b}]").evaluate({"x": 1}) == (1, Multiset({"a": 1, "b": 1}))
    assert parse_expr("done").evaluate({}) == "done"


def test_expr_errors():
    with pytest.raises(TermError):
        parse_expr("?m + 1").evaluate({})  # unbound
    with pytest.raises(TermError):
        parse_expr("?m + 1").evaluate({"m": "atom"})  # non-integer arithmetic
    with pytest.raises(TermError):
        parse_expr("1 % 0").evaluate({})
    with pytest.raises(TermError):
        parse_expr("1 +")
    with pytest.raises(TermError):
        parse_pattern("?m extra tokens")


def test_reserved_atoms_tokenize():
    p = parse_pattern("⊥_M")
    assert p.match("⊥_M") == {}
    assert p.match("x") is None


@pytest.mark.parametrize("text", ["²", "¹", "٣"])
def test_only_ascii_digits_are_integers(text):
    # str.isdigit holds for each; int() rejects "²" and "¹", which ended in
    # a ValueError, and reads "٣" as 3
    pattern = parse_pattern(text)
    assert pattern.match(text) == {}
    assert pattern.match(2) is None and pattern.match(3) is None
    assert parse_expr(text).evaluate({}) == text


def test_a_non_ascii_digit_is_no_operand():
    with pytest.raises(TermError, match="expected integer after '-'"):
        parse_pattern("-²")
    with pytest.raises(TermError, match="arithmetic '\\+' needs integers, got 1, '¹'"):
        parse_expr("?m + ¹").evaluate({"m": 1})
    with pytest.raises(TermError, match="unary minus needs an integer"):
        parse_expr("-¹").evaluate({})


def test_one_node_class_per_form():
    assert parse_pattern("3").node == parse_expr("3")
    assert parse_pattern("[?m {a b} idle]").node == parse_expr("[?m {a b} idle]")


# --- the reference: one tree for patterns, one for expressions ----------------


class Expr:
    def evaluate(self, env: Dict[str, Value]) -> Value:
        raise NotImplementedError

    def variables(self) -> frozenset:
        return frozenset()


@record
class EInt(Expr):
    value: int

    def evaluate(self, env):
        return self.value


@record
class EAtom(Expr):
    name: str

    def evaluate(self, env):
        return self.name


@record
class EVar(Expr):
    name: str

    def evaluate(self, env):
        if self.name not in env:
            raise TermError(f"unbound variable ?{self.name}")
        return env[self.name]

    def variables(self):
        return frozenset({self.name})


@record
class ESeq(Expr):
    items: Tuple[Expr, ...]

    def evaluate(self, env):
        return tuple(item.evaluate(env) for item in self.items)

    def variables(self):
        return frozenset().union(*(i.variables() for i in self.items)) if self.items else frozenset()


@record
class EMset(Expr):
    mset: Multiset

    def evaluate(self, env):
        return self.mset


@record
class ENeg(Expr):
    inner: Expr

    def evaluate(self, env):
        v = self.inner.evaluate(env)
        if not isinstance(v, int) or isinstance(v, bool):
            raise TermError("unary minus needs an integer")
        return -v

    def variables(self):
        return self.inner.variables()


@record
class EBin(Expr):
    op: str
    left: Expr
    right: Expr

    def evaluate(self, env):
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if not isinstance(a, int) or not isinstance(b, int):
            raise TermError(f"arithmetic {self.op!r} needs integers, got {a!r}, {b!r}")
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "%":
            if b == 0:
                raise TermError("modulo by zero")
            return a % b
        raise TermError(f"unknown operator {self.op!r}")

    def variables(self):
        return self.left.variables() | self.right.variables()


class PatternNode:
    def match(self, value: Value, env: Dict[str, Value]) -> bool:
        raise NotImplementedError

    def variables(self) -> frozenset:
        return frozenset()


@record
class PInt(PatternNode):
    value: int

    def match(self, value, env):
        return isinstance(value, int) and not isinstance(value, bool) and value == self.value


@record
class PAtom(PatternNode):
    name: str

    def match(self, value, env):
        return isinstance(value, str) and value == self.name


@record
class PWild(PatternNode):
    def match(self, value, env):
        return True


@record
class PVar(PatternNode):
    name: str

    def match(self, value, env):
        if self.name in env:
            return env[self.name] == value
        env[self.name] = value
        return True

    def variables(self):
        return frozenset({self.name})


@record
class PSeq(PatternNode):
    items: Tuple[PatternNode, ...]

    def match(self, value, env):
        if not isinstance(value, tuple) or len(value) != len(self.items):
            return False
        return all(p.match(v, env) for p, v in zip(self.items, value))

    def variables(self):
        return frozenset().union(*(i.variables() for i in self.items)) if self.items else frozenset()


@record
class PMset(PatternNode):
    mset: Multiset

    def match(self, value, env):
        return isinstance(value, Multiset) and value == self.mset


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise TermError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise TermError(f"expected {tok!r}, got {got!r} in {self.text!r}")

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    # patterns

    def pattern(self) -> PatternNode:
        tok = self.next()
        if tok == "-":
            num = self.next()
            if not _is_int(num):
                raise TermError(f"expected integer after '-' in {self.text!r}")
            return PInt(-int(num))
        if _is_int(tok):
            return PInt(int(tok))
        if tok == "?":
            return PVar(self.next())
        if tok == "_":
            return PWild()
        if tok == "[":
            items = []
            while self.peek() != "]":
                items.append(self.pattern())
            self.expect("]")
            return PSeq(tuple(items))
        if tok == "{":
            return PMset(self._mset_body())
        if tok in _SINGLE or tok in _RELOPS or tok == "where":
            raise TermError(f"unexpected token {tok!r} in pattern {self.text!r}")
        return PAtom(tok)

    def _mset_body(self) -> Multiset:
        symbols = []
        while self.peek() != "}":
            tok = self.next()
            if tok in _SINGLE:
                raise TermError(f"bad multiset symbol {tok!r} in {self.text!r}")
            symbols.append(tok)
        self.expect("}")
        return Multiset.from_symbols(symbols)

    # expressions

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            node = EBin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek() in ("*", "%"):
            op = self.next()
            node = EBin(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek() == "-":
            self.next()
            return ENeg(self.unary())
        return self.primary()

    def primary(self) -> Expr:
        tok = self.next()
        if _is_int(tok):
            return EInt(int(tok))
        if tok == "?":
            return EVar(self.next())
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok == "[":
            items = []
            while self.peek() != "]":
                items.append(self.expr())
            self.expect("]")
            return ESeq(tuple(items))
        if tok == "{":
            return EMset(self._mset_body())
        if tok in _SINGLE or tok in _RELOPS or tok == "where":
            raise TermError(f"unexpected token {tok!r} in expression {self.text!r}")
        return EAtom(tok)

    def guard(self) -> Guard:
        left = self.expr()
        op = self.next()
        if op not in _RELOPS:
            raise TermError(f"expected a comparison, got {op!r} in {self.text!r}")
        return Guard(left, op, self.expr())


def reference_parse_pattern(text: str) -> Pattern:
    p = _Parser(text)
    node = p.pattern()
    guards: list[Guard] = []
    if p.peek() == "where":
        p.next()
        guards.append(p.guard())
        while p.peek() == ",":
            p.next()
            guards.append(p.guard())
    if not p.done():
        raise TermError(f"trailing tokens in pattern {text!r}")
    bound = node.variables()
    for g in guards:
        if g.variables() - bound:
            raise TermError(f"guard uses unbound variables in {text!r}")
    return Pattern(node, tuple(guards), text)


def reference_parse_expr(text: str) -> Expr:
    p = _Parser(text)
    node = p.expr()
    if not p.done():
        raise TermError(f"trailing tokens in expression {text!r}")
    return node


# --- the comparison -------------------------------------------------------------

TOKENS = "1 0 7 - + * % ( ) [ ] { } ? m x _ a b where < <= == != > , ² idle".split()
VALUES = (0, 1, 7, -1, True, "a", "idle", "_", (), (0,), (1, 7), (7, 7, 7), ("a", (0, 1)),
          Multiset({"a": 2, "b": 1}), Multiset())
# Terms the corpora below may miss: repeated variables, nested sequences,
# negative literals and the empty forms.
HAND_WRITTEN = ("[?x ?x]", "[?x [?x _]] where ?x != 0", "[?x ?y] where ?x < ?y", "-2",
                "[-1 ?x]", "[?x (-1)]", "{a a b}", "{}", "[]", "-?m", "(?m + 1) * 2 % 5",
                "?m where ?m % 2 == 0, ?m >= 1", "_")


def _tree(term):
    # the reference's P/E prefix names the tree, not the form
    return re.sub(r"\b[PE](Int|Atom|Var|Seq|Mset|Wild|Neg|Bin)\(", r"\1(", repr(term))


def _attempt(fn, arg):
    try:
        return repr(fn(arg))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def pattern_outcome(parse, text):
    """The parse error, or the parsed pattern, its variables and its
    match of every value."""
    try:
        pattern = parse(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (_tree(pattern), sorted(pattern.node.variables()),
            [sorted(guard.variables()) for guard in pattern.guards],
            [_attempt(pattern.match, value) for value in VALUES])


def expr_outcome(parse, text):
    """The parse error, or the parsed expression, its variables and its
    value under environments that bind its variables to the values in
    turn, and under the empty one."""
    try:
        expr = parse(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    names = sorted(expr.variables())
    envs = [{name: VALUES[(i + j) % len(VALUES)] for j, name in enumerate(names)}
            for i in range(len(VALUES) if names else 1)] + [{}]
    return _tree(expr), names, [_attempt(expr.evaluate, env) for env in envs]


def assert_same_as_the_reference(texts):
    for text in sorted(texts):
        assert pattern_outcome(parse_pattern, text) == pattern_outcome(
            reference_parse_pattern, text), text
        assert expr_outcome(parse_expr, text) == expr_outcome(reference_parse_expr, text), text


CASE_KEYS = ("mem_pattern", "port_pattern", "mem_next", "out_port")


def _case_texts(case):
    """The case strings of one case, with the guard and each comparison
    side of its memory pattern alone."""
    texts = {case[key] for key in CASE_KEYS if case.get(key) is not None}
    _, _, guards = case["mem_pattern"].partition(" where ")
    for guard in filter(None, guards.split(",")):
        texts.add(guard.strip())
        texts.update(side.strip() for side in re.split("<=|>=|==|!=|<|>", guard))
    return texts


def _json_cases(doc):
    if isinstance(doc, dict):
        if "mem_pattern" in doc:
            yield doc
        for item in doc.values():
            yield from _json_cases(item)
    elif isinstance(doc, list):
        for item in doc:
            yield from _json_cases(item)


def _machine_cases(model):
    for fn in model.functions.values():
        for case in fn.cases:
            yield {key: getattr(case, key, None) for key in CASE_KEYS}


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_model_terms_match_the_reference(tmp_path, models_dir):
    cases = [case for path in sorted(models_dir.glob("*.json"))
             for case in _json_cases(load_json(path))]
    gen = _perfbench_gen()
    for workload in ("sxm_mutation", "heterotic_suite"):  # the P-system inputs hold no terms
        gen.write_inputs(workload, 5, str(tmp_path / workload), str(models_dir))
        cases += [case for path in sorted((tmp_path / workload).glob("*.json"))
                  for case in _json_cases(load_json(path))]
    machines = [random_dft_sxm(seed) for seed in range(12)]
    machines += [random_messy_sxm(seed) for seed in range(12)]
    machines += [c for seed in range(12) for c in random_csxm_system(seed).components]
    cases += [case for model in machines for case in _machine_cases(model)]
    texts = set(HAND_WRITTEN).union(*map(_case_texts, cases))
    assert len(texts) > 50
    assert_same_as_the_reference(texts)


def test_random_token_strings_match_the_reference():
    rng = random.Random(17)
    texts = {" ".join(rng.choices(TOKENS, k=rng.randint(1, 7))) for _ in range(15000)}
    assert_same_as_the_reference(texts)
