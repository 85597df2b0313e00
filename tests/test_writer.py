"""The canonical writer against its definition.

``model_io.canonical_json(obj)`` must equal ``json.dumps(obj, indent=2,
sort_keys=True, ensure_ascii=False) + "\\n"`` byte for byte, or raise what
``json.dumps`` raises.  The inputs are the payloads of the artifacts pinned
in ``tests/test_cli.py`` and of every command on the shipped models,
recorded as the CLI writes them, and seeded nested values.
"""

import collections
import enum
import json
import random

import pytest
from test_cli import BRANCHING

from heterotest import cli, model_io
from heterotest.cli import main
from heterotest.model_io import _indented, canonical_json


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _difference(got, want):
    """None when equal, else the first differing offset and its context;
    short, where pytest would diff two multi-megabyte strings."""
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return at, got[max(at - 30, 0):at + 30], want[max(at - 30, 0):at + 30]


def _outcome(fn, obj):
    try:
        return fn(obj)
    except (TypeError, ValueError, RecursionError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def _resolved(value):
    """``value`` with each ``LaidOut`` replaced by the value it lays out."""
    if isinstance(value, model_io.LaidOut):
        return _resolved(value.value)
    if isinstance(value, dict):
        return {k: _resolved(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolved(v) for v in value]
    return value


@pytest.fixture()
def recorded(monkeypatch):
    """(document, streamed text) for each document the CLI hands to the
    writer: a payload it emits (no streamed text), or a document it streams
    with ``canonical_pieces``, whole, with the items as the stream takes
    them, and the text of the pieces."""
    payloads = []
    emit, pieces = cli._emit, model_io.canonical_pieces

    def recording_emit(args, payload, text_lines):
        payloads.append((payload, None))
        emit(args, payload, text_lines)

    def recording_pieces(obj, key, items):
        items = list(items)
        document = {**obj, key: _resolved(items)}  # before the writer lays the items out
        written = list(pieces(obj, key, items))
        payloads.append((document, "".join(written)))
        return iter(written)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    monkeypatch.setattr(model_io, "canonical_pieces", recording_pieces)
    return payloads


def _commands(models, work):
    branching = work / "branch2_1.json"
    branching.write_text(json.dumps(BRANCHING))
    ps2, counter = str(models / "ps2.json"), str(models / "counter_testable.json")
    heterotic = str(models / "ps2_heterotic.json")
    out = lambda name: ["-o", str(work / name)]  # noqa: E731
    return [
        # the pinned artifacts
        ["simulate", str(branching), "--depth", "4", "--all-branches", *out("traces.json")],
        ["coverage", str(branching), "--depth", "4"],
        ["gen-tests", "psystem", str(branching), "--depth", "4"],
        ["gen-tests", "heterotic", heterotic, "--extra-states", "3"],
        # every command on the shipped models
        *(["validate", "--dft", str(models / name)] for name in (
            "counter.json", "counter_testable.json", "ps2.json", "ps2_control.json",
            "ps2_heterotic.json")),
        ["simulate", ps2, "--depth", "3", "--all-branches", *out("ps2_traces.json")],
        ["simulate", ps2, "--depth", "3", "--seed", "4", *out("ps2_seeded.json")],
        ["simulate", heterotic, "--rounds", "2"],
        ["coverage", ps2, "--depth", "3"],
        ["gen-tests", "psystem", ps2, *out("testset.json")],
        ["gen-tests", "sxm", counter, "--extra-states", "1", *out("suite.json")],
        ["mutate", ps2, "--count", "1000", *out("ps2_mutants.json")],
        ["mutate", counter, "--count", "1000", *out("counter_mutants.json")],
        ["score", ps2, "--mutants", str(work / "ps2_mutants.json"),
         "--test-set", str(work / "testset.json")],
        ["score", counter, "--mutants", str(work / "counter_mutants.json"),
         "--suite", str(work / "suite.json")],
    ]


def test_artifacts_match_json_dumps(models_dir, tmp_path, capsys, recorded):
    commands = _commands(models_dir, tmp_path)
    for command in commands:
        assert main(command) in (0, 1), command
        capsys.readouterr()
    assert len(recorded) == len(commands)
    for payload, streamed in recorded:
        expected = reference(payload)
        assert _difference(canonical_json(payload), expected) is None
        # written by the writer itself, not handed to json.dumps
        assert _difference(_indented(payload, "\n") + "\n", expected) is None
        if streamed is not None:
            assert _difference(streamed, expected) is None


TEXT = "aZ09 \"\\/\x00\x01\x1f\x7f\n\t\réü∅⟹→λ⊥  ﻿😀"
FLOATS = (0.0, -0.0, 1.0, -2.5, 0.1, 1e300, -1e300, 5e-324, 1e-7, 123456789.125, 1e16)
INTS = (0, 1, -1, 7, -42, 2**31, -(2**63), 2**64 + 1, 10**100, -(10**40))


def _text(rng):
    return "".join(rng.choice(TEXT) for _ in range(rng.randrange(6)))


def _key(rng, key_kinds):
    kind = rng.choice(key_kinds)
    if kind == "str":
        return _text(rng)
    if kind == "int":
        return rng.choice(INTS)
    return rng.choice((True, False))


def _value(rng, depth, key_kinds):
    """Containers down to depth 4, a leaf below; the top is a container."""
    kind = rng.randrange(0 if depth else 6, 10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.choice(INTS)
    if kind == 2:
        return rng.choice(FLOATS + (rng.uniform(-1e6, 1e6),))
    if kind == 3:
        return _text(rng)
    if kind == 4:
        return rng.choice(([], {}, (), ""))
    if kind == 5:
        return rng.choice(TEXT)
    items = [_value(rng, depth + 1, key_kinds) for _ in range(rng.randrange(6))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {_key(rng, key_kinds): value for value in items}


@pytest.mark.parametrize("key_kinds", [("str",), ("int",), ("bool", "int"), ("str", "int")])
def test_seeded_values_match_json_dumps(key_kinds):
    for seed in range(500):
        value = _value(random.Random(seed), 0, key_kinds)
        assert _outcome(canonical_json, value) == _outcome(reference, value), seed


def test_string_keys_sort_by_code_point():
    value = {"b": 1, "a": 2, "é": 3, "Z": 4, "": 5, "a\x00": 6, "😀": 7, "∅": 8}
    assert canonical_json(value) == reference(value)
    assert _indented(value, "\n") + "\n" == reference(value)


class Colour(enum.IntEnum):
    RED = 1


class Text(str):
    pass


class Ratio(float):
    pass


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), [float("-inf")], {"x": float("nan")},
    Colour.RED, {"c": Colour.RED}, Text("t"), {Text("k"): Text("v")}, Ratio(0.5),
    collections.OrderedDict(b=1, a=2), collections.namedtuple("Pair", "x y")(1, "y"),
    {1: "int key"}, {1.5: "float key"}, {None: "null key"}, {True: 1, 0: 2},
    {"mixed": 1, 2: "keys"}, {(1, 2): "tuple key"}, {"set": {1}}, object(), b"bytes",
])
def test_odd_values_behave_as_json_dumps(value):
    assert _outcome(canonical_json, value) == _outcome(reference, value)


def test_cycles_raise_as_json_dumps():
    loop = []
    loop.append(loop)
    deep = {"a": loop}
    for value in (loop, deep):
        assert _outcome(canonical_json, value) == _outcome(reference, value)
        assert _outcome(canonical_json, value)[1] == "ValueError"


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_pieces_join_to_the_canonical_text(count):
    """``canonical_pieces`` of a document and a list of items, against
    ``canonical_json`` of the document with the list under its key; the
    key sorts anywhere among the document's keys, and the items may hold
    NUL characters, which the writer cuts its pieces at."""
    for seed in range(200):
        rng = random.Random(seed)
        obj = {_text(rng): _value(rng, 2, ("str",)) for _ in range(rng.randrange(4))}
        key = _text(rng)
        items = [_value(rng, 1, ("str",)) for _ in range(count)]
        pieces = list(model_io.canonical_pieces(obj, key, iter(items)))
        assert "".join(pieces) == canonical_json({**obj, key: items}) == reference(
            {**obj, key: items}), seed
        assert len(pieces) == count + 1
