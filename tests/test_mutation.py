import json

import pytest

from gen_models import random_dft_sxm

from heterotest.errors import EmptyMutantSet, NoValidMutants, SchemaError
from heterotest.model_io import canonical_json, psystem_from_dict
from heterotest.multiset import Multiset
from heterotest.mutation import (
    Mutant,
    MutantBatch,
    enumerate_mutants,
    mutants_from_dict,
    mutants_to_dict,
    mutate_model,
    score_psystem_testset,
    score_sxm_suite,
    score_to_dict,
    _reachable_within,
)
from heterotest.psystem import PSystem, generate_coverage_test_set
from heterotest.records import replace
from heterotest.sxm import run_outputs
from heterotest.testgen import generate_sxm_test_suite

M = Multiset.from_string


class TestOperators:
    def test_rule_delete_r21_makes_ccf_c_unreachable(self, ps2):
        batch = enumerate_mutants(ps2, ["rule-delete"])
        mutant = next(m for m in batch.mutants if m.location == "r21")
        reachable = _reachable_within(mutant.model, 3)
        assert ("ccf", "c") not in reachable

    def test_target_swap_r13_starves_r22(self, ps2):
        batch = enumerate_mutants(ps2, ["rhs-target-swap"])
        mutant = next(m for m in batch.mutants if m.location == "r13.rhs[1]->here")
        # compartment 2 never receives an 'a', so r22 can never fire and
        # its product never shows up
        reachable = _reachable_within(mutant.model, 4)
        assert all(key[1] != "c" for key in reachable)

    def test_sxm_operators_enumerate(self, counter_testable):
        batch = enumerate_mutants(counter_testable)
        ops = {m.operator for m in batch.mutants}
        assert ops == {
            "transition-retarget",
            "transition-delete",
            "case-output-swap",
            "memory-update-perturb",
        }

    def test_invalid_mutants_counted(self, counter_testable):
        batch = enumerate_mutants(counter_testable, ["memory-update-perturb"])
        # inc's m<3 case perturbed +1 maps 3 outside 0..3 -> invalid
        assert batch.invalid >= 1

    def test_seeded_sample_reproducible(self, ps2):
        one = mutate_model(ps2, seed=42, count=5)
        two = mutate_model(ps2, seed=42, count=5)
        assert canonical_json(mutants_to_dict("psystem", one)) == canonical_json(
            mutants_to_dict("psystem", two)
        )
        other = mutate_model(ps2, seed=43, count=5)
        assert [m.mutant_id for m in one] != [m.mutant_id for m in other] or True
        assert len(one.mutants) == 5

    def test_count_at_least_one(self, ps2):
        with pytest.raises(ValueError):
            mutate_model(ps2, count=0)

    def test_no_valid_mutants(self):
        ps = PSystem("bare", frozenset("a"), {1: None}, (M("a"),), ())
        with pytest.raises(NoValidMutants):
            mutate_model(ps, count=3)

    def test_mutants_file_round_trip(self, ps2):
        batch = mutate_model(ps2, seed=1, count=4)
        doc = mutants_to_dict("psystem", batch)
        kind, again = mutants_from_dict(doc)
        assert kind == "psystem"
        assert [m.mutant_id for m in again] == [m.mutant_id for m in batch]


class TestScoring:
    def test_ps2_coverage_set_kills_seeded_faults(self, ps2):
        members, _ = generate_coverage_test_set(ps2, 3)
        batch = enumerate_mutants(ps2, ["rule-delete", "rhs-target-swap"])
        report = score_psystem_testset(ps2, batch, members, 3)
        verdicts = {v.mutant_id: v for v in report.per_mutant}
        assert verdicts["rule-delete:r21"].verdict == "killed"
        assert verdicts["rhs-target-swap:r13.rhs[1]->here"].verdict == "killed"
        # kill witnesses replay: the member really is unreachable
        for v in report.per_mutant:
            if v.verdict != "killed":
                continue
            mutant = next(m for m in batch.mutants if m.mutant_id == v.mutant_id)
            reachable = _reachable_within(mutant.model, 3)
            witness_key = tuple(v.witness.strip("()").split(","))
            assert witness_key not in reachable

    def test_identical_mutant_survives_and_is_excluded(self, ps2):
        members, _ = generate_coverage_test_set(ps2, 3)
        clone = Mutant(ps2.name, "noop", "nothing", ps2)
        killedable = enumerate_mutants(ps2, ["rule-delete"]).mutants[:1]
        batch = MutantBatch(killedable + (clone,), 0, 0)
        report = score_psystem_testset(ps2, batch, members, 3)
        verdicts = {v.mutant_id: v.verdict for v in report.per_mutant}
        assert verdicts["noop:nothing"] == "survived-identical"
        assert report.identical == 1
        assert report.non_equivalent_score == report.killed / (report.total - 1)

    def test_suite_on_unmutated_spec_zero_kills(self, counter_testable):
        suite = generate_sxm_test_suite(counter_testable, 0)
        clone = Mutant(counter_testable.name, "noop", "self", counter_testable)
        report = score_sxm_suite(counter_testable, MutantBatch((clone,), 0, 0), suite)
        assert report.killed == 0

    def test_retarget_out_of_unreachable_state_survives_bounded(self, counter_testable):
        next_state = dict(counter_testable.next_state)
        next_state[("u", "reset")] = ("q0",)
        spec = replace(
            counter_testable, states=counter_testable.states | {"u"}, next_state=next_state
        )
        suite = generate_sxm_test_suite(spec, 0)
        wanted = {
            "transition-retarget:next_state[q0,inc].to[0]=q1",
            "transition-retarget:next_state[u,reset].to[0]=q1",
        }
        candidates = enumerate_mutants(spec, ["transition-retarget"])
        picked = tuple(m for m in candidates if m.mutant_id in wanted)
        report = score_sxm_suite(spec, MutantBatch(picked, 0, 0), suite)
        verdicts = {v.mutant_id: v for v in report.per_mutant}
        survivor = verdicts["transition-retarget:next_state[u,reset].to[0]=q1"]
        assert survivor.verdict == "survived-bounded" and survivor.witness is None
        assert verdicts["transition-retarget:next_state[q0,inc].to[0]=q1"].verdict == "killed"
        assert (report.killed, report.survived, report.identical) == (1, 1, 0)
        assert report.non_equivalent_score == 0.5

    def test_rule_that_cannot_fire_within_depth_survives_bounded(self, ps2):
        # r14 needs b and c together in compartment 1, which first happens
        # after three steps.
        members, _ = generate_coverage_test_set(ps2, 2)
        picked = tuple(
            m for m in enumerate_mutants(ps2, ["rule-delete"]) if m.location in ("r14", "r21")
        )
        report = score_psystem_testset(ps2, MutantBatch(picked, 0, 0), members, 2)
        verdicts = {v.mutant_id: v for v in report.per_mutant}
        survivor = verdicts["rule-delete:r14"]
        assert survivor.verdict == "survived-bounded" and survivor.witness is None
        assert verdicts["rule-delete:r21"].verdict == "killed"
        assert (report.killed, report.survived, report.identical) == (1, 1, 0)
        assert report.non_equivalent_score == 0.5

    def test_sxm_kill_witness_replays(self):
        model = random_dft_sxm(3)
        suite = generate_sxm_test_suite(model, 1)
        batch = enumerate_mutants(model)
        report = score_sxm_suite(model, batch, suite)
        by_id = {m.mutant_id: m for m in batch.mutants}
        for v in report.per_mutant:
            if v.verdict != "killed":
                continue
            word = tuple(v.witness.split(" ")) if v.witness != "<empty input>" else ()
            case = next(c for c in suite.cases if c.input == word)
            assert run_outputs(by_id[v.mutant_id].model, word) != case.expected_outputs

    def test_empty_mutant_set_rejected(self, counter_testable):
        suite = generate_sxm_test_suite(counter_testable, 0)
        with pytest.raises(EmptyMutantSet):
            score_sxm_suite(counter_testable, MutantBatch((), 0, 0), suite)

    def test_score_totals_count_every_mutant(self, ps2, counter_testable):
        members, _ = generate_coverage_test_set(ps2, 3)
        pbatch = enumerate_mutants(ps2, ["rule-delete"])
        assert score_psystem_testset(ps2, pbatch, members, 3).total == len(pbatch.mutants)
        suite = generate_sxm_test_suite(counter_testable, 0)
        sbatch = enumerate_mutants(counter_testable, ["transition-retarget"])
        assert score_sxm_suite(counter_testable, sbatch, suite).total == len(sbatch.mutants)

    def test_score_report_serialises(self, ps2):
        members, _ = generate_coverage_test_set(ps2, 3)
        batch = enumerate_mutants(ps2, ["rule-delete"])
        report = score_psystem_testset(ps2, batch, members, 3)
        doc = score_to_dict(report)
        assert doc["total"] == report.total
        assert doc["killed"] == report.killed
        assert len(doc["per_mutant"]) == report.total

    def test_determinism_same_inputs_same_scores(self, ps2):
        members, _ = generate_coverage_test_set(ps2, 3)
        batch = mutate_model(ps2, seed=9, count=8)
        one = score_to_dict(score_psystem_testset(ps2, batch, members, 3))
        two = score_to_dict(score_psystem_testset(ps2, batch, members, 3))
        assert canonical_json(one) == canonical_json(two)


# --- the mutants parse: the parser that built every rule afresh is the reference ---


def reference_psystem_from_dict(d, default_name="psystem"):
    from heterotest.model_io import (
        _PSYSTEM, _RULE, _compartment_id, _structure_from_json, check_fields, config_from_json)
    from heterotest.psystem import PRule

    check_fields(d, _PSYSTEM, "psystem")
    parent = {}
    _structure_from_json(d["structure"], None, parent, "structure")
    n = len(parent)
    initial = config_from_json({**dict.fromkeys(map(str, range(1, n + 1)), ""), **d["initial"]},
                               n, "initial")
    rules = []
    for comp_str, bodies in sorted(d["rules"].items()):
        comp = _compartment_id(comp_str)
        if comp is None:
            raise SchemaError(f"psystem: rules key {comp_str!r} is not a compartment id")
        for entry in bodies:
            check_fields(entry, _RULE, f"rules[{comp_str}][]")
            rules.append(PRule(name=entry["name"], compartment=comp,
                               lhs=Multiset.from_string(entry["lhs"]),
                               rhs=tuple(map(tuple, entry["rhs"]))))
    return PSystem(name=d.get("name", default_name), alphabet=frozenset(d["alphabet"]),
                   parent=parent, initial=initial, rules=tuple(rules))


def reference_mutants_from_dict(d):
    from heterotest.model_io import MUTANT, MUTANTS, check_fields, sxm_from_dict

    check_fields(d, MUTANTS, "mutants")
    kind = d["kind"]
    build = sxm_from_dict if kind == "sxm" else reference_psystem_from_dict
    entries = [check_fields(e, MUTANT, f"mutants[{i}]") for i, e in enumerate(d["mutants"])]
    mutants = tuple(
        Mutant(e["base"], e["operator"], e["location"], build(e["model"])) for e in entries
    )
    return kind, MutantBatch(mutants, d.get("invalid", 0), d.get("duplicates", 0))


def _parsed(parse, doc):
    try:
        return parse(doc)
    except SchemaError as exc:
        return ("raised", str(exc))


def _mutants_doc(name, ps2):
    """The JSON file of every mutant of ``ps2``, ``branch0`` (the
    benchmark's ladder at seed 0) or ``BRANCHING``, as ``mutate`` writes it."""
    from test_cli import BRANCHING
    from test_psystem_dag import _ladder

    if name == "ps2":
        spec = ps2
    elif name == "branch0":
        spec = _ladder(0)[0][0]
    else:
        spec = psystem_from_dict(BRANCHING)
    return json.loads(canonical_json(mutants_to_dict("psystem", enumerate_mutants(spec))))


@pytest.mark.parametrize("name", ["ps2", "branch0", "BRANCHING"])
def test_mutants_parse_as_the_reference_and_share_rules(name, ps2):
    doc = _mutants_doc(name, ps2)
    kind, batch = mutants_from_dict(doc)
    assert (kind, batch) == reference_mutants_from_dict(doc)
    rules = [r for m in batch for r in m.model.rules]
    # each distinct rule is one object, shared by every mutant that holds it
    assert len({id(r) for r in rules}) == len(set(rules)) < len(rules) / 4


# Each edit breaks the file at one place; the error must be the reference's.
_BREAKS = {
    "no lhs": (lambda d: d["mutants"][3]["model"]["rules"]["1"][0].pop("lhs"),
               "rules[1][]: missing keys ['lhs']"),
    "unknown key": (lambda d: d["mutants"][7]["model"]["rules"]["2"][0].update(note="x"),
                    "rules[2][]: unknown keys ['note']"),
    "lhs not a string": (lambda d: d["mutants"][9]["model"]["rules"]["1"][1].update(lhs=3),
                         "rules[1][]: lhs must be a string"),
    "name not a string": (lambda d: d["mutants"][-1]["model"]["rules"]["1"][0].update(name=5),
                          "rules[1][]: name must be a string"),
    "bad target": (lambda d: d["mutants"][5]["model"]["rules"]["2"][0].update(
        rhs=[["c", "there"]]),
        'rules[2][]: rhs must be a list of [symbol, target] pairs, target "here" or an id'),
    "rules key": (lambda d: d["mutants"][4]["model"]["rules"].update(
        {"01": d["mutants"][4]["model"]["rules"]["1"]}),
        "psystem: rules key '01' is not a compartment id"),
    "no alphabet": (lambda d: d["mutants"][2]["model"].pop("alphabet"),
                    "psystem: missing keys ['alphabet']"),
    "rule not an object": (lambda d: d["mutants"][6]["model"]["rules"]["1"].append("r"),
                           "psystem: rules must be an object of lists of objects keyed by "
                           "compartment id"),
    "no model": (lambda d: d["mutants"][8].pop("model"), "mutants[8]: missing keys ['model']"),
}


@pytest.mark.parametrize("name", sorted(_BREAKS))
def test_a_broken_mutants_file_fails_as_the_reference(name, ps2):
    # every mutant before the broken one parses and shares its rules first
    doc = _mutants_doc("ps2", ps2)
    edit, message = _BREAKS[name]
    edit(doc)
    assert _parsed(mutants_from_dict, doc) == _parsed(reference_mutants_from_dict, doc) == (
        "raised", message)


def test_a_rule_entry_is_shared_only_within_its_compartment(ps2):
    # r11's entry moved to compartment 2 builds a rule of compartment 2
    doc = _mutants_doc("ps2", ps2)
    model = doc["mutants"][1]["model"]
    model["rules"]["2"].append(model["rules"]["1"][0])
    _, batch = mutants_from_dict(doc)
    assert batch == reference_mutants_from_dict(doc)[1]
    moved = [r for r in batch.mutants[1].model.rules if r.name == "r11"]
    assert [r.compartment for r in moved] == [1, 2]
