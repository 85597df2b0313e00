"""The one JSON form of a P-system configuration, ``{"1": ..., "n": ...}``.

``model_io.config_to_json`` is its only writer and ``config_from_json`` its
only reader.  The references below are the three readers it replaced, each
with its own key rule; on every well-formed input they must decode as the
one reader does.
"""

import json

import pytest

from heterotest import model_io
from heterotest.errors import SchemaError
from heterotest.model_io import config_from_json, config_to_json, load_json, psystem_from_dict
from heterotest.multiset import Multiset
from heterotest.psystem import explore, generate_coverage_test_set

from test_cli import BRANCHING, PAST_CAP


# --- the references ----------------------------------------------------------------


def reference_testset_member(entry):
    """Test sets: exactly the keys "1".."n", n the number of keys."""
    return tuple(Multiset.from_string(entry[str(i + 1)]) for i in range(len(entry)))


def reference_oracle_final(final_map, n):
    """Oracle replies: the keys "1".."n" read, any other key ignored."""
    return tuple(Multiset.from_string(final_map[str(i + 1)]) for i in range(n))


def reference_initial(initial, n):
    """A P system's ``initial``: an absent key empty, any other key dropped."""
    return tuple(Multiset.from_string(initial.get(str(comp), "")) for comp in range(1, n + 1))


# --- the inputs -------------------------------------------------------------------


def _psystem_docs(models_dir):
    docs = [load_json(path) for path in sorted(models_dir.glob("*.json"))]
    docs = [d for d in docs if "alphabet" in d and "rules" in d]
    assert [d["name"] for d in docs] == ["ps2"]
    # the benchmark skeleton, and ps2 with a compartment left out
    return docs + [BRANCHING, PAST_CAP, dict(docs[0], initial={"1": "s"}),
                   dict(docs[0], initial={"2": "t"}), dict(docs[0], initial={})]


def test_initial_decodes_as_the_reference(models_dir):
    for doc in _psystem_docs(models_dir):
        ps = psystem_from_dict(doc)
        assert ps.initial == reference_initial(doc["initial"], ps.n_compartments), doc
        assert config_to_json(ps.initial) == {
            str(i + 1): m.canonical() for i, m in enumerate(ps.initial)}


def test_absent_compartments_start_empty(models_dir):
    doc = dict(load_json(models_dir / "ps2.json"), initial={"2": "t"})
    assert psystem_from_dict(doc).initial == (Multiset(), Multiset.from_string("t"))


def test_test_set_members_decode_as_the_reference(models_dir):
    for doc in _psystem_docs(models_dir)[:2]:
        ps = psystem_from_dict(doc)
        for depth in (1, 2, 3, 4):
            members, report = generate_coverage_test_set(ps, depth)
            testset = json.loads(json.dumps(model_io.testset_to_dict(members, report, depth)))
            decoded = model_io.testset_members_from_dict(testset, ps)
            assert decoded == [reference_testset_member(e) for e in testset["members"]]
            assert decoded == list(members)


def test_replies_decode_as_the_reference(models_dir):
    """Every configuration ps2 and the benchmark skeleton reach within four
    steps, ps2's halting ones among them, written as a reply and read back."""
    checked = 0
    for doc in _psystem_docs(models_dir)[:2]:
        ps = psystem_from_dict(doc)
        n = ps.n_compartments
        for cfg in {cfg for layer in explore(ps, 4).layers for cfg in layer}:
            reply = json.loads(json.dumps({"final": config_to_json(cfg), "steps": 1}))
            got = config_from_json(reply["final"], n, "final")
            assert got == reference_oracle_final(reply["final"], n) == cfg
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("obj, message", [
    ({"1": "s", "2": "t", "3": "u"}, "final: unknown keys ['3']"),
    ({"1": "bdf", "2": "b", "x": 1}, "final: unknown keys ['x']"),
    ({"1": "s", "02": "t"}, "final: missing keys ['2']"),
    ({"1": "s"}, "final: missing keys ['2']"),
    ({"1": "s", "2": 5}, "final: 2 must be a string"),
    (["s", "t"], "final: expected an object"),
    ("st", "final: expected an object"),
])
def test_reader_accepts_exactly_the_compartment_ids(obj, message):
    with pytest.raises(SchemaError) as info:
        config_from_json(obj, 2, "final")
    assert str(info.value) == message


def test_a_configuration_of_no_compartments_is_the_empty_object():
    assert config_to_json(()) == {}
    assert config_from_json({}, 0, "final") == ()
