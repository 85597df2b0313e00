"""Per-compartment enumeration of maximal rule multisets against the
enumeration that tried every count of every rule."""

import random

from heterotest import psystem
from heterotest.errors import ExplosionBoundExceeded
from heterotest.multiset import Multiset
from heterotest.psystem import HERE, PRule, _compartment_maximal_multisets

M = Multiset.from_string


def reference_compartment_maximal_multisets(rules, available):
    """Every count of every rule, in rule order, each leaf kept when no
    rule applies to its leftover."""
    results = []
    cap = psystem.ASSIGNMENT_CAP

    def applicable(leftover):
        return any(r.lhs <= leftover for r in rules)

    def dfs(idx, leftover, chosen):
        if len(results) > cap:
            raise ExplosionBoundExceeded(f"more than {cap} rule assignments in one compartment")
        if idx == len(rules):
            if not applicable(leftover):
                results.append(tuple((n, c) for n, c in chosen if c > 0))
            return
        rule = rules[idx]
        count, remaining = 0, leftover
        while True:
            chosen.append((rule.name, count))
            dfs(idx + 1, remaining, chosen)
            chosen.pop()
            if not rule.lhs <= remaining:
                break
            count, remaining = count + 1, remaining - rule.lhs

    dfs(0, available, [])
    return sorted(set(results))


def _outcome(enumerate_, rules, available):
    try:
        return enumerate_(rules, available)
    except ExplosionBoundExceeded as exc:
        return ("raised", str(exc))


def _random_compartment(rng):
    alphabet = "abcd"[:rng.randint(1, 4)]
    rules = []
    for i in range(rng.randint(1, 4)):
        lhs = Multiset({sym: rng.randint(1, 3) for sym in rng.sample(alphabet, min(len(alphabet), rng.randint(1, 2)))})
        rules.append(PRule(f"r{i}", 1, lhs, (("a", HERE),)))
    available = Multiset({sym: rng.randint(0, 9) for sym in alphabet})
    return rules, available


def test_equals_the_reference_on_random_compartments(monkeypatch):
    rng = random.Random(13)
    tripped = 0
    for trial in range(3000):
        rules, available = _random_compartment(rng)
        if trial % 3 == 0:
            monkeypatch.setattr(psystem, "ASSIGNMENT_CAP", rng.randint(0, 4))
        else:
            monkeypatch.setattr(psystem, "ASSIGNMENT_CAP", 10_000)
        expected = _outcome(reference_compartment_maximal_multisets, rules, available)
        assert _outcome(_compartment_maximal_multisets, rules, available) == expected, \
            (rules, available)
        tripped += expected[0] == "raised"
    assert tripped > 100


def test_a_rule_no_later_rule_competes_with_takes_its_largest_count(monkeypatch):
    # every count of r2 below the largest left an a a behind for it, and
    # each of r1's 401 counts tried all of them
    rules = (PRule("r1", 1, M("a"), (("b", HERE),)), PRule("r2", 1, M("aa"), (("b", HERE),)))
    available = Multiset({"a": 400})
    operations = []
    for name in ("__init__", "__le__", "__sub__"):
        method = getattr(Multiset, name)

        def counted(*args, _method=method, _name=name):
            operations.append(_name)
            return _method(*args)

        monkeypatch.setattr(Multiset, name, counted)
    got = _compartment_maximal_multisets(rules, available)
    monkeypatch.undo()
    assert got == reference_compartment_maximal_multisets(rules, available)
    assert len(got) == 201
    assert len(operations) < 4000  # 162,204 when every count was tried
