import pytest

from heterotest.errors import TermError
from heterotest.multiset import Multiset
from heterotest.terms import parse_expr, parse_pattern


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
