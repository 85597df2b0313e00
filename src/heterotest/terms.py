"""A small term language for processing-function case tables.

Patterns match memory/port values and bind variables; update expressions
rebuild values from the bindings with integer arithmetic.  Both are trees
of the same nodes: each term form is one class that both matches and
evaluates.  Keeping the language closed (no user code) is what makes the
design-for-test checks decidable over declared finite domains.

Term forms, shared by patterns and expressions::

    7                integer literal
    idle             atom literal
    ?m               variable (a pattern binds the matched subterm)
    [?x ?y]          sequence of terms
    {a a b}          multiset literal, one token per occurrence

Patterns add negative literals (``-2``), the wildcard ``_`` and guards
(``?m where ?m < 3``, comma-separated comparisons).  Expressions add
``+ - * %`` on integers, unary minus and parentheses; there ``_`` is an
atom.  Sequence elements parse greedily; wrap negative expression elements
in parentheses (``[?x (-1)]``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from .errors import TermError
from .multiset import Multiset
from .records import record
from .values import Value, sort_key

_TWO_CHAR = ("<=", ">=", "==", "!=")
_SINGLE = set("()[]{}?,+-*%<>=!")
_RELOPS = {"<", "<=", ">", ">=", "==", "!="}


def _tokenize(text: str) -> list[str]:
    toks: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text[i : i + 2] in _TWO_CHAR:
            toks.append(text[i : i + 2])
            i += 2
            continue
        if ch in _SINGLE:
            toks.append(ch)
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in _SINGLE:
            j += 1
        toks.append(text[i:j])
        i = j
    return toks


def _is_int(tok: str) -> bool:
    # ASCII only: str.isdigit also holds for "²", which int() rejects
    return tok.isascii() and tok.isdigit()


# --- term nodes -------------------------------------------------------------
# Patterns call ``match`` and expressions ``evaluate``.  Only patterns hold
# a Wild, and only expressions a Neg or a Bin.


class Term:
    def match(self, value: Value, env: Dict[str, Value]) -> bool:
        raise NotImplementedError

    def evaluate(self, env: Dict[str, Value]) -> Value:
        raise NotImplementedError

    def variables(self) -> frozenset:
        return frozenset()


@record
class Int(Term):
    value: int

    def match(self, value, env):
        return isinstance(value, int) and not isinstance(value, bool) and value == self.value

    def evaluate(self, env):
        return self.value


@record
class Atom(Term):
    name: str

    def match(self, value, env):
        return isinstance(value, str) and value == self.name

    def evaluate(self, env):
        return self.name


@record
class Var(Term):
    name: str

    def match(self, value, env):
        if self.name in env:
            return env[self.name] == value
        env[self.name] = value
        return True

    def evaluate(self, env):
        if self.name not in env:
            raise TermError(f"unbound variable ?{self.name}")
        return env[self.name]

    def variables(self):
        return frozenset({self.name})


@record
class Seq(Term):
    items: Tuple[Term, ...]

    def match(self, value, env):
        if not isinstance(value, tuple) or len(value) != len(self.items):
            return False
        return all(p.match(v, env) for p, v in zip(self.items, value))

    def evaluate(self, env):
        return tuple(item.evaluate(env) for item in self.items)

    def variables(self):
        return frozenset().union(*(item.variables() for item in self.items))


@record
class Mset(Term):
    mset: Multiset

    def match(self, value, env):
        return isinstance(value, Multiset) and value == self.mset

    def evaluate(self, env):
        return self.mset


@record
class Wild(Term):
    def match(self, value, env):
        return True


@record
class Neg(Term):
    inner: Term

    def evaluate(self, env):
        v = self.inner.evaluate(env)
        if not isinstance(v, int) or isinstance(v, bool):
            raise TermError("unary minus needs an integer")
        return -v

    def variables(self):
        return self.inner.variables()


@record
class Bin(Term):
    op: str
    left: Term
    right: Term

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


@record
class Guard:
    left: Term
    op: str
    right: Term

    def holds(self, env: Dict[str, Value]) -> bool:
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "==":
            return a == b
        if self.op == "!=":
            return a != b
        ka, kb = sort_key(a), sort_key(b)
        if self.op == "<":
            return ka < kb
        if self.op == "<=":
            return ka <= kb
        if self.op == ">":
            return ka > kb
        if self.op == ">=":
            return ka >= kb
        raise TermError(f"unknown relation {self.op!r}")

    def variables(self):
        return self.left.variables() | self.right.variables()


@record
class Pattern:
    """A term pattern plus its guards, compiled from source text."""

    node: Term
    guards: Tuple[Guard, ...]
    source: str

    def match(self, value: Value) -> Optional[Dict[str, Value]]:
        # A successful node match binds every variable of the node, and
        # parse_pattern rejects guards over any other variable.
        env: Dict[str, Value] = {}
        if not self.node.match(value, env):
            return None
        for guard in self.guards:
            if not guard.holds(env):
                return None
        return env


# --- parser -----------------------------------------------------------------


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

    def _operand(self, tok: str, item: Callable[[], Term], what: str) -> Term:
        """The shared form that starts with ``tok``; ``item`` parses the
        elements of a sequence and ``what`` names the caller in errors."""
        if _is_int(tok):
            return Int(int(tok))
        if tok == "?":
            return Var(self.next())
        if tok == "[":
            items = []
            while self.peek() != "]":
                items.append(item())
            self.expect("]")
            return Seq(tuple(items))
        if tok == "{":
            symbols = []
            while self.peek() != "}":
                symbol = self.next()
                if symbol in _SINGLE:
                    raise TermError(f"bad multiset symbol {symbol!r} in {self.text!r}")
                symbols.append(symbol)
            self.expect("}")
            return Mset(Multiset.from_symbols(symbols))
        if tok in _SINGLE or tok in _RELOPS or tok == "where":
            raise TermError(f"unexpected token {tok!r} in {what} {self.text!r}")
        return Atom(tok)

    def pattern(self) -> Term:
        tok = self.next()
        if tok == "-":
            num = self.next()
            if not _is_int(num):
                raise TermError(f"expected integer after '-' in {self.text!r}")
            return Int(-int(num))
        if tok == "_":
            return Wild()
        return self._operand(tok, self.pattern, "pattern")

    def expr(self) -> Term:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Term:
        node = self.unary()
        while self.peek() in ("*", "%"):
            op = self.next()
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Term:
        tok = self.next()
        if tok == "-":
            return Neg(self.unary())
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        return self._operand(tok, self.expr, "expression")

    def guard(self) -> Guard:
        left = self.expr()
        op = self.next()
        if op not in _RELOPS:
            raise TermError(f"expected a comparison, got {op!r} in {self.text!r}")
        return Guard(left, op, self.expr())


# Parsed terms are immutable, so each source text is parsed once and its
# result shared: a model file and its mutants repeat the same case strings.
# A text that fails to parse is not cached and raises again.
@lru_cache(maxsize=4096)
def parse_pattern(text: str) -> Pattern:
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


@lru_cache(maxsize=4096)
def parse_expr(text: str) -> Term:
    p = _Parser(text)
    node = p.expr()
    if not p.done():
        raise TermError(f"trailing tokens in expression {text!r}")
    return node
