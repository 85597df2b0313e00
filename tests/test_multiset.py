import random

import pytest

from heterotest.multiset import Multiset


def test_canonical_form_sorted_and_repeated():
    m = Multiset({"c": 2, "f": 1})
    assert m.canonical() == "ccf"
    assert Multiset({"f": 1, "c": 2}) == m


def test_parse_single_char_symbols():
    assert Multiset.from_string("ccf") == Multiset({"c": 2, "f": 1})
    assert Multiset.from_string("") == Multiset()


def test_multichar_symbols_use_spaces():
    m = Multiset({"ab": 2, "c": 1})
    assert m.canonical() == "ab ab c"
    assert Multiset.from_string("ab ab c") == m


def test_add_sub_submultiset():
    a = Multiset({"a": 1, "b": 2})
    b = Multiset({"b": 1})
    assert (a + b).canonical() == "abbb"
    assert (a - b).canonical() == "ab"
    assert b <= a
    assert not a <= b
    with pytest.raises(ValueError):
        b - a


def test_counts():
    m = Multiset({"a": 2})
    assert m.count("zzz") == 0
    assert not m.is_empty()
    assert Multiset().is_empty()


def test_zero_counts_not_stored():
    m = Multiset({"a": 0, "b": 1})
    assert m.symbols() == ("b",)
    with pytest.raises(ValueError):
        Multiset({"a": -1})


def test_canonical_round_trip_seeded():
    rng = random.Random(7)
    symbols = list("abcdefg")
    for _ in range(200):
        counts = {s: rng.randint(1, 4) for s in rng.sample(symbols, rng.randint(0, 5))}
        m = Multiset(counts)
        assert Multiset.from_string(m.canonical()) == m
        assert m.canonical() == "".join(sorted(m.canonical()))
