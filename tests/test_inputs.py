"""Every CLI input ends in a documented exit code, never a traceback.

Exit codes: 0 success, 1 validation failure, 2 generation failure or usage
error, 3 I/O or parse error.  Each regression below writes a model or
artifact that once crashed the toolkit; the fuzz test at the end swaps,
deletes, duplicates and renames single nodes of every shipped model, a
system file and every generated artifact.
"""

import json
import random
import resource
import shutil
import signal
import subprocess
import sys
import time

import pytest

from heterotest import sxm
from heterotest.cli import main
from test_cli import ENV


@pytest.fixture()
def work(models_dir, tmp_path):
    """A copy of the shipped models with a generated suite, test set and
    mutants file beside them."""
    for path in models_dir.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    for args in (
        ["gen-tests", "sxm", "counter_testable.json", "-o", "suite.json"],
        ["gen-tests", "psystem", "ps2.json", "-o", "testset.json"],
        ["mutate", "counter_testable.json", "--count", "3", "-o", "sxm_mutants.json"],
        ["mutate", "ps2.json", "--count", "3", "-o", "ps_mutants.json"],
    ):
        assert main([str(tmp_path / a) if a.endswith(".json") else a for a in args]) == 0
    return tmp_path


def _edit(path, change):
    """Apply ``change`` to the file's JSON in place; return the path."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _exits(code, args, message, tmp_path, capsys):
    out_file = tmp_path / "artifact.json"
    if args[0] != "validate":  # validate writes its report for an invalid model too
        args = args + ["-o", str(out_file)]
    try:
        got = main(args)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code, (args, err)
    assert message in out + err and "Traceback" not in err, err
    assert not out_file.exists()


@pytest.mark.parametrize("change, message", [
    (lambda d: d.update(memory_domain={"range": [0, 1, 2]}),
     "range must be a [low, high] pair of integers"),
    (lambda d: d.update(inputs=5), "inputs must be a list of strings"),
    (lambda d: d["functions"][0]["cases"][0].update(mem_pattern=3), "mem_pattern must be a string"),
    (lambda d: d["memory_domain"].update(set=[0]),
     "error: sxm: memory_domain must be a single-key object\n"),
    (lambda d: d["functions"].append(d["functions"][1]), "error: duplicate function 'reset'\n"),
    (lambda d: d["next_state"].append(d["next_state"][0]),
     "error: duplicate next_state entry ('q0', 'inc')\n"),
])
def test_machine_of_wrong_shape_exits_three(work, capsys, change, message):
    model = _edit(work / "counter_testable.json", change)
    for args in (["validate", model], ["gen-tests", "sxm", model]):
        _exits(3, args, message, work, capsys)


@pytest.mark.parametrize("change, message", [
    (lambda d: d.update(initial=["s", "t"]), "initial must be an object of strings"),
    (lambda d: d["rules"]["1"][0].update(lhs=5), "lhs must be a string"),
    (lambda d: d.update(rules=[]), "rules must be an object of lists of objects"),
    # keys that are not compartment ids were dropped before
    (lambda d: d.update(initial={"1": "s", "02": "t"}), "initial: unknown keys ['02']"),
    (lambda d: d.update(initial={"1": "s", "2": "t", "3": "u"}), "initial: unknown keys ['3']"),
    (lambda d: d.update(initial={"0": "s", "2": "t"}), "initial: unknown keys ['0']"),
    # read as compartments 1 and 2, and valid, before
    (lambda d: d["rules"].update({"01": d["rules"].pop("1")}),
     "psystem: rules key '01' is not a compartment id"),
    (lambda d: d["rules"].update({"٢": d["rules"].pop("2")}),
     "psystem: rules key '٢' is not a compartment id"),
    (lambda d: d["structure"]["children"][0].update(id=1),
     "error: structure.children[0]: duplicate compartment id 1\n"),
])
def test_psystem_of_wrong_shape_exits_three(work, capsys, change, message):
    model = _edit(work / "ps2.json", change)
    for args in (["validate", model], ["simulate", model, "--depth", "2"]):
        _exits(3, args, message, work, capsys)


@pytest.mark.parametrize("key", ["0", "5"])
def test_rules_of_an_unknown_compartment_fail_validation(work, capsys, key):
    model = _edit(work / "ps2.json", lambda d: d["rules"].update({key: d["rules"].pop("2")}))
    _exits(1, ["validate", model], f"rules[r21]: unknown compartment {key}", work, capsys)


def _score_sxm(work, suite="suite.json", mutants="sxm_mutants.json"):
    return ["score", str(work / "counter_testable.json"),
            "--mutants", str(work / mutants), "--suite", str(work / suite)]


def _score_psystem(work, testset="testset.json", mutants="ps_mutants.json"):
    return ["score", str(work / "ps2.json"),
            "--mutants", str(work / mutants), "--test-set", str(work / testset)]


def test_artifacts_of_wrong_shape_exit_three(work, capsys):
    _edit(work / "suite.json", lambda d: d["cases"][0].pop("expected_outputs"))
    _exits(3, _score_sxm(work), "suite.cases[0]: missing keys ['expected_outputs']", work, capsys)
    _edit(work / "testset.json", lambda d: d["members"].__setitem__(0, ["s", "t"]))
    _exits(3, _score_psystem(work), "test set: members must be", work, capsys)
    _edit(work / "ps_mutants.json", lambda d: d["mutants"][0].pop("base"))
    _exits(3, _score_psystem(work), "mutants[0]: missing keys ['base']", work, capsys)
    mutants = work / "sxm_mutants.json"
    mutants.write_text("[" + mutants.read_text(encoding="utf-8") + "]", encoding="utf-8")
    _exits(3, _score_sxm(work), "mutants: expected an object", work, capsys)


def test_mutants_file_of_unknown_kind_exits_three(work, capsys):
    _edit(work / "ps_mutants.json", lambda d: d.update(kind="csxm"))
    _exits(3, _score_psystem(work), 'kind must be "sxm" or "psystem"', work, capsys)


def test_score_rejects_mutant_validate_rejects(work, capsys):
    _edit(work / "sxm_mutants.json",
          lambda d: d["mutants"][0]["model"]["functions"][0].update(name="renamed"))
    _exits(1, _score_sxm(work), "unknown function", work, capsys)


@pytest.mark.parametrize("field", ["invalid", "duplicates"])
def test_mutants_file_counts_are_natural(work, capsys, field):
    # a negative count was once copied into the score artifact
    _edit(work / "sxm_mutants.json", lambda d: d.update({field: -5}))
    _exits(3, _score_sxm(work), f"{field} must be a non-negative integer", work, capsys)


def test_score_rejects_suite_input_outside_the_alphabet(work, capsys):
    # scored as if every mutant were killed, with witness "nope", before
    _edit(work / "suite.json", lambda d: d["cases"][3].update(input=["i", "nope"]))
    _exits(3, _score_sxm(work),
           "suite.cases[3]: input 'nope' is not in the input alphabet of counter_testable",
           work, capsys)


def test_heterotic_commands_validate_parts_before_wrapping(work, capsys):
    _edit(work / "ps2.json", lambda d: d["rules"]["1"][2]["rhs"].__setitem__(1, ["a", 5]))
    model = str(work / "ps2_heterotic.json")
    for args in (["validate", model], ["gen-tests", "heterotic", model], ["simulate", model]):
        _exits(1, args, "target 5 is neither the parent nor a child of compartment 1", work, capsys)


def test_negative_depth_cap_is_a_parse_error(work, capsys):
    # exited 2 with "ps2 did not halt within -1 steps from s|t" before
    model = _edit(work / "ps2_heterotic.json", lambda d: d.update(depth_cap=-1))
    for args in (["validate", model], ["simulate", model], ["gen-tests", "heterotic", model]):
        _exits(3, args, "heterotic: depth_cap must be a non-negative integer", work, capsys)


@pytest.mark.parametrize("args, message", [
    (["simulate", "ps2.json"], "simulate on a P system needs --depth"),
    (["score", "counter_testable.json", "--mutants", "sxm_mutants.json"],
     "score on a machine spec needs --suite"),
    (["score", "ps2.json", "--mutants", "ps_mutants.json"],
     "score on a P-system spec needs --test-set"),
])
def test_missing_per_kind_flag_is_a_usage_error(work, capsys, args, message):
    # exited 3, the code of an I/O or parse error, before
    args = [str(work / a) if a.endswith(".json") else a for a in args]
    _exits(2, args, message, work, capsys)


@pytest.mark.parametrize("args, flag", [
    (["simulate", "ps2_heterotic.json", "--depth", "3"], "--depth"),
    (["simulate", "ps2_heterotic.json", "--depth", "3", "--seed", "4"], "--depth"),
    (["simulate", "ps2_heterotic.json", "--seed", "4"], "--seed"),
    (["simulate", "ps2_heterotic.json", "--all-branches"], "--all-branches"),
    (["simulate", "ps2.json", "--depth", "2", "--rounds", "3"], "--rounds"),
    (["simulate", "ps2.json", "--depth", "2", "--rounds", "3", "--oracle-cmd", "false"],
     "--rounds"),
    (["simulate", "ps2.json", "--depth", "2", "--oracle-cmd", "false"], "--oracle-cmd"),
    (["simulate", "ps2.json", "--depth", "2", "--oracle-timeout-ms", "5"],
     "--oracle-timeout-ms"),
    (["simulate", "ps2.json", "--depth", "2", "--oracle-retries", "0"], "--oracle-retries"),
])
def test_simulate_flag_of_the_other_kind_is_a_usage_error(work, capsys, args, flag):
    # exited 0 before: a heterotic run used the file's seed, and a P-system
    # run never started the oracle
    args = [str(work / a) if a.endswith(".json") else a for a in args]
    _exits(2, args, f"simulate {flag} applies to", work, capsys)


@pytest.mark.parametrize("score, extra, message", [
    (_score_sxm, ["--test-set", "testset.json"], "score --test-set applies to P systems only"),
    (_score_sxm, ["--depth", "2"], "score --depth applies to P systems only"),
    (_score_psystem, ["--suite", "suite.json"], "score --suite applies to machine specs only"),
], ids=["machine --test-set", "machine --depth", "psystem --suite"])
def test_score_flag_of_the_other_kind_is_a_usage_error(work, capsys, score, extra, message):
    # exited 0 before, the flag unread
    args = score(work) + [str(work / a) if a.endswith(".json") else a for a in extra]
    _exits(2, args, message, work, capsys)


def test_communicating_open_domain_needs_a_sample(work, capsys):
    # validate exited 0, validate --dft and gen-tests heterotic exited 2 on
    # the missing sample, and simulate exited 0 before
    _edit(work / "ps2_control.json", lambda d: d.update(memory_domain={"open": {"sample": []}}))
    message = "ps2_control.memory_domain: open domain declares no test sample"
    control, heterotic = str(work / "ps2_control.json"), str(work / "ps2_heterotic.json")
    for args in (["validate", control], ["validate", "--dft", control],
                 ["gen-tests", "heterotic", heterotic], ["simulate", heterotic]):
        _exits(1, args, message, work, capsys)
    # as a machine's does
    machine = _edit(work / "counter_testable.json",
                    lambda d: d.update(memory_domain={"open": {"sample": []}}))
    _exits(1, ["validate", machine], "memory_domain: open domain declares no test sample",
           work, capsys)


@pytest.mark.parametrize("part, change, message", [
    ("ps2.json", lambda d: d["rules"]["1"][2]["rhs"].__setitem__(1, ["a", 5]),
     "target 5 is neither the parent nor a child of compartment 1"),
    ("ps2_control.json", lambda d: d.update(initial_memory=7),
     "initial memory 7 lies outside the declared domain"),
])
def test_validate_reports_heterotic_part_violations(work, capsys, part, change, message):
    _edit(work / part, change)
    report = work / "report.json"
    assert main(["validate", str(work / "ps2_heterotic.json"), "-o", str(report)]) == 1
    out, err = capsys.readouterr()
    assert message in out and "Traceback" not in err
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["kind"] == "heterotic"
    assert any(message in v["message"] for v in doc["violations"])


def test_validate_checks_each_heterotic_machine_once(work, capsys, monkeypatch):
    from heterotest import csxms

    checked, validate_csxm = [], csxms.validate_csxm

    def counting(machine):
        checked.append(machine.name)
        return validate_csxm(machine)

    # cli and model_io import it from csxms when they run
    monkeypatch.setattr(csxms, "validate_csxm", counting)
    assert main(["validate", str(work / "ps2_heterotic.json")]) == 0
    capsys.readouterr()
    assert sorted(checked) == ["base", "ps2_control"]


@pytest.mark.parametrize("target, message", [
    (2, "ps2_control.functions[send_back]: component cannot send to itself"),
    (3, "ps2_control.functions[send_back]: send target 3 outside 1..2"),
])
def test_heterotic_send_targets_are_checked_on_the_pair(work, capsys, target, message):
    # Control alone is valid: a send target is checked on the assembled pair
    _edit(work / "ps2_control.json",
          lambda d: d["functions"][2]["cases"][0].update(send_to=target))
    model = str(work / "ps2_heterotic.json")
    for args in (["validate", model], ["gen-tests", "heterotic", model], ["simulate", model]):
        _exits(1, args, message, work, capsys)


@pytest.mark.parametrize("member, message", [
    ({"1": "s"}, "test set: members[0] has 1 compartment(s), ps2 has 2"),
    ({"1": "zz", "2": "t"},
     'test set: members[0]["1"]: symbol \'z\' is not in the alphabet of ps2'),
])
def test_score_rejects_test_set_members_outside_the_model(work, capsys, member, message):
    _edit(work / "testset.json", lambda d: d["members"].__setitem__(0, member))
    _exits(3, _score_psystem(work), message, work, capsys)


def test_heterotic_rejects_control_emitting_a_non_configuration(work, capsys):
    # the reply [{s} {t}] stays declared, so Control alone is valid
    _edit(work / "ps2_control.json", lambda d: d["out_port_domain"].append(0))
    _exits(2, ["validate", str(work / "ps2_heterotic.json")],
           "re-initialisation 0 is not a configuration of ps2", work, capsys)


@pytest.mark.parametrize("reply, defect", [
    ("[1 2]", " is not a configuration"),
    ("[{s}]", " has 1 compartment(s), ps2 has 2"),
    ("[{s} {t} {t}]", " has 3 compartment(s), ps2 has 2"),
    ("[{z} {t}]", "[\"1\"]: symbol 'z' is not in the alphabet of ps2"),
])
def test_control_reply_is_checked_at_the_port(work, capsys, reply, defect):
    # validate checks the out-port values a Control sets only over a declared
    # memory domain; over an open one the driver checks each reply at the
    # port.  It recorded the reply and exited 0, or 1 on an AttributeError
    # traceback for the integers, before
    def change(d):
        d["functions"][0]["cases"][0].update(out_port=reply)
        d.update(memory_domain={"open": {"sample": d["memory_domain"]["set"]}})

    _edit(work / "ps2_control.json", change)
    heterotic = str(work / "ps2_heterotic.json")
    _exits(0, ["validate", heterotic], "heterotic: valid", work, capsys)
    _exits(2, ["simulate", heterotic, "--rounds", "2"], "ps2_control's reply" + defect,
           work, capsys)


@pytest.mark.parametrize("reply", ["[1 2]", "[{s}]", "[{s} {t} {t}]", "[{z} {t}]"])
def test_control_reply_outside_its_out_port_domain_is_invalid(work, capsys, reply):
    # the same replies over Control's declared memory domain
    _edit(work / "ps2_control.json",
          lambda d: d["functions"][0]["cases"][0].update(out_port=reply))
    _exits(1, ["validate", str(work / "ps2_heterotic.json")],
           "ps2_control.functions[check]: out-port at memory 0, input 'go', in-port (bdf, b) "
           "leaves the out-port domain", work, capsys)


def _duplicate_finish_case(d):
    d["functions"][1]["cases"].append(dict(d["functions"][1]["cases"][0], mem_next="99"))


@pytest.mark.parametrize("change, message", [
    (_duplicate_finish_case,
     "ps2_control.functions[finish]: cases 0 and 1 overlap at memory 0, input 'end', "
     "in-port (bdf, b)"),
    (lambda d: d["functions"][0]["cases"][0].update(out_port="[1 2]"),
     "ps2_control.functions[check]: out-port at memory 0, input 'go', in-port (bdf, b) "
     "leaves the out-port domain ((1, 2))"),
])
def test_control_point_violations_stop_every_command(work, capsys, change, message):
    # each passed validate and generated a 42-case suite before; simulate
    # exited 0 on the overlap and 2 on the reply
    control = _edit(work / "ps2_control.json", change)
    heterotic = str(work / "ps2_heterotic.json")
    for args in (["validate", control], ["validate", "--dft", heterotic],
                 ["gen-tests", "heterotic", heterotic], ["simulate", heterotic, "--rounds", "2"]):
        _exits(1, args, message, work, capsys)


@pytest.mark.parametrize("change, message", [
    (lambda d: d["next_state"][0].update(to=["nowhere"]), "unknown target state 'nowhere'"),
    (lambda d: d.update(initial_memory=7), "initial memory 7 lies outside the declared domain"),
])
def test_csxm_structure_checked_wherever_a_csxm_is_read(work, capsys, change, message):
    control = _edit(work / "ps2_control.json", change)
    _exits(1, ["validate", control], message, work, capsys)
    _exits(1, ["validate", str(work / "ps2_heterotic.json")], message, work, capsys)
    sending = json.loads((work / "ps2_control.json").read_text(encoding="utf-8"))
    receiving = json.loads((work / "ps2_control.json").read_text(encoding="utf-8"))
    receiving["name"] = "ps2_control_2"  # component names are distinct
    for fn in sending["functions"]:
        for case in fn["cases"]:
            if "send_to" in case:
                case["send_to"] = 2
    system = work / "pair.json"
    system.write_text(json.dumps({"schema": 1, "components": [sending, receiving]}))
    _exits(1, ["product", str(system)], message, work, capsys)


@pytest.mark.parametrize("args", [
    ["gen-tests", "sxm", "counter_testable.json", "--extra-states", "-1"],
    ["simulate", "ps2.json", "--depth", "-1"],
    ["coverage", "ps2.json", "--depth", "-1"],
    ["gen-tests", "psystem", "ps2.json", "--depth", "0"],
    ["mutate", "ps2.json", "--count", "0"],
    ["simulate", "ps2_heterotic.json", "--rounds", "0"],
    ["simulate", "ps2_heterotic.json", "--oracle-cmd", "true", "--oracle-retries", "-1"],
    ["simulate", "ps2_heterotic.json", "--oracle-cmd", "true", "--oracle-timeout-ms", "0"],
])
def test_out_of_range_flags_are_usage_errors(models_dir, tmp_path, capsys, args):
    args = [str(models_dir / a) if a.endswith(".json") else a for a in args]
    _exits(2, args, "must be at least", tmp_path, capsys)


def _limit_address_space():
    limit = 256 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("target, model, k", [
    ("heterotic", "ps2_heterotic.json", 7),
    ("sxm", "counter_testable.json", 25),
    ("heterotic", "ps2_heterotic.json", 1_000_000),
    ("sxm", "counter_testable.json", 1_000_000),
])
def test_suite_past_the_case_cap_exits_two(models_dir, target, model, k):
    # each listed every phi-sequence until it ran out of memory, a
    # MemoryError traceback and exit 1, before; the child gets 256 MB of
    # address space so that a run that builds the suite fails rather than
    # grows
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "heterotest.cli", "gen-tests", target,
         str(models_dir / model), "--extra-states", str(k)],
        capture_output=True, text=True, env=ENV, timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"more than 100000 cases in the W-method suite at k={k} (" in proc.stderr
    assert time.monotonic() - started < 5


def _wide_system(path, high):
    """A system file whose first component declares the range [0, high]."""
    from test_csxms import two_component_toy

    from heterotest.model_io import sxm_to_dict

    components = [sxm_to_dict(comp) for comp in two_component_toy().components]
    components[0]["memory_domain"] = {"range": [0, high]}
    path.write_text(json.dumps({"schema": 1, "name": "wide", "components": components}),
                    encoding="utf-8")
    return str(path)


def _child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.parametrize("high", [3_000_000, 1_000_000_000])
def test_memory_domain_past_the_cap_exits_two(models_dir, tmp_path, high):
    # before, under a 1.5 GB address-space limit, each command ran 17-26 s
    # over [0, 3000000] to 1.2-1.3 GB and a MemoryError traceback, exit 1,
    # and raised it at once over [0, 1000000000]; the domain's size is read
    # from its declaration, so each command stops before a value is built
    shutil.copy(models_dir / "counter.json", tmp_path / "counter.json")
    machine = _edit(tmp_path / "counter.json",
                    lambda d: d.update(memory_domain={"range": [0, high]}))
    system = _wide_system(tmp_path / "wide.json", high)
    rows = [(args + [machine], "counter")
            for args in (["validate"], ["validate", "--dft"], ["gen-tests", "sxm"], ["mutate"])]
    rows += [(["validate", system], "left"), (["product", system], "left")]
    for args, owner in rows:
        before = _child_cpu_s()
        proc = subprocess.run(
            [sys.executable, "-m", "heterotest.cli"] + args,
            capture_output=True, text=True, env=ENV, timeout=60,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr == (f"error: memory domain of {owner} has {high + 1} values, "
                               f"more than the cap of {sxm.DOMAIN_CAP}\n"), args
        assert _child_cpu_s() - before < 1, args


def _replies(final):
    return f"print(json.dumps({{'final': {final!r}, 'steps': 2}}))\n"


def _oracle(tmp_path, body):
    script = tmp_path / "oracle.py"
    script.write_text("import json, sys\nsys.stdin.readline()\n" + body)
    return f"{sys.executable} {script}"


@pytest.mark.parametrize("body, message", [
    ("sys.stderr.write('starting\\nno answer\\n')\nsys.exit(4)\n",
     "oracle exited with status 4: no answer"),
    ("print(json.dumps({'final': {'1': 'bdf', '2': 'b'}, 'steps': 'two'}))\n",
     "oracle reply steps must be an integer, got 'two'"),
    ("print(json.dumps({'final': {'1': 'bdf', '2': 'b'}, 'steps': True}))\n",
     "oracle reply steps must be an integer, got True"),
    # an extra compartment exited 0 before, the extra keys ignored
    (_replies({"1": "bdf", "2": "b", "3": "zzz", "x": 1}),
     "malformed oracle reply: final: unknown keys ['3', 'x']"),
    (_replies({"1": "bdf"}), "malformed oracle reply: final: missing keys ['2']"),
    (_replies({"1": "bdf", "2": ["b"]}), "malformed oracle reply: final: 2 must be a string"),
    (_replies("bdf|b"), "malformed oracle reply: final: expected an object"),
    ("", "malformed oracle reply: list index out of range"),
])
def test_oracle_failures_exit_two(models_dir, tmp_path, capsys, body, message):
    args = ["simulate", str(models_dir / "ps2_heterotic.json"),
            "--oracle-cmd", _oracle(tmp_path, body)]
    _exits(2, args, message, tmp_path, capsys)


def test_blank_oracle_command_is_a_usage_error(models_dir, tmp_path, capsys):
    args = ["simulate", str(models_dir / "ps2_heterotic.json"), "--oracle-cmd", " "]
    _exits(2, args, "the command is empty", tmp_path, capsys)


@pytest.mark.parametrize("flags, flag", [
    (["--oracle-retries", "3"], "--oracle-retries"),
    (["--oracle-timeout-ms", "5"], "--oracle-timeout-ms"),
    (["--oracle-retries", "3", "--oracle-timeout-ms", "5"], "--oracle-timeout-ms"),
])
def test_oracle_flags_need_an_oracle_command(models_dir, tmp_path, capsys, flags, flag):
    # exited 0 and ran in process before
    args = ["simulate", str(models_dir / "ps2_heterotic.json"), *flags]
    _exits(2, args, f"simulate {flag} needs --oracle-cmd", tmp_path, capsys)


@pytest.mark.parametrize("field, text, code, message", [
    ("mem_pattern", "²", 0, "sxm: valid"),
    ("mem_next", "?m + ¹", 1, "arithmetic '+' needs integers, got 0, '¹'"),
])
def test_digits_int_rejects_are_atoms(work, capsys, field, text, code, message):
    # a ValueError traceback, exit 1, before
    model = _edit(work / "counter.json",
                  lambda d: d["functions"][0]["cases"][0].update({field: text}))
    _exits(code, ["validate", model], message, work, capsys)


# Each row pins the whole report of ``validate`` on a model with one defect.
@pytest.mark.parametrize("name, change, report", [
    ("ps2_control.json", lambda d: d["ordinary_states"].append("replying"),
     "csxm: 1 violation(s)\n  ps2_control.states: states in both partitions: ['replying']\n"),
    ("ps2_control.json", lambda d: d["ordinary_states"].remove("done"),
     "csxm: 1 violation(s)\n  ps2_control.states: state partition does not cover the state set\n"),
    ("ps2_control.json", lambda d: d["ordinary_functions"].append("send_back"),
     "csxm: 2 violation(s)\n"
     "  ps2_control.functions: functions in both partitions: ['send_back']\n"
     "  ps2_control.functions[send_back]: declared ordinary but built communicating\n"),
    ("ps2_control.json", lambda d: d["ordinary_functions"].remove("finish"),
     "csxm: 2 violation(s)\n"
     "  ps2_control.functions: function partition does not cover the function set\n"
     "  ps2_control.next_state[wait_second,finish]: ordinary states support ordinary "
     "functions and communicating states communicating functions\n"),
    ("ps2_control.json", lambda d: d.update(initial_states=["replying"]),
     "csxm: 1 violation(s)\n"
     "  ps2_control.initial_states: initial state 'replying' is not ordinary\n"),
    ("ps2_control.json",
     lambda d: d["next_state"].append({"from": "replying", "fn": "check", "to": ["done"]}),
     "csxm: 1 violation(s)\n  ps2_control.next_state[replying,check]: ordinary states support "
     "ordinary functions and communicating states communicating functions\n"),
    ("ps2_control.json", lambda d: d["functions"][0]["cases"][0].update(send_to=1),
     "csxm: 1 violation(s)\n"
     "  ps2_control.functions[check].cases[0]: ordinary functions cannot send\n"),
    ("ps2_control.json", lambda d: d["functions"][2]["cases"][0].update(input="go"),
     "csxm: 1 violation(s)\n  ps2_control.functions[send_back].cases[0]: "
     "communicating cases consume no input symbol\n"),
    ("ps2_control.json", lambda d: d["functions"][2]["cases"][0].update(output="init"),
     "csxm: 1 violation(s)\n  ps2_control.functions[send_back].cases[0]: "
     "communicating cases emit no output symbol\n"),
    ("ps2_control.json", lambda d: d["functions"][2]["cases"][0].pop("send_to"),
     "csxm: 1 violation(s)\n  ps2_control.functions[send_back].cases[0]: "
     "communicating case declares no target\n"),
    ("ps2_control.json", lambda d: d["functions"][2]["cases"][0].update(out_port="[{s} {t}]"),
     "csxm: 1 violation(s)\n  ps2_control.functions[send_back].cases[0]: "
     "communicating cases cannot set the out-port\n"),
    ("ps2_control.json", lambda d: d["inputs"].append("g|o"),
     "csxm: 1 violation(s)\n"
     "  ps2_control: symbol 'g|o' contains the reserved separator '|'\n"),
    ("counter.json", lambda d: d.update(states=[]),
     "sxm: 8 violation(s)\n  states: state set is empty\n"
     "  initial_states: unknown state 'q0'\n  terminal_states: unknown state 'q0'\n"
     "  terminal_states: unknown state 'q1'\n"
     "  next_state[q0,inc]: unknown source state 'q0'\n"
     "  next_state[q0,inc]: unknown target state 'q0'\n"
     "  next_state[q0,reset]: unknown source state 'q0'\n"
     "  next_state[q0,reset]: unknown target state 'q1'\n"),
    ("counter.json", lambda d: d["inputs"].append("λ"),
     "sxm: 1 violation(s)\n  inputs: reserved atom 'λ' in input alphabet\n"),
    ("counter.json", lambda d: d["next_state"][0].update(to=[]),
     "sxm: 1 violation(s)\n  next_state[q0,inc]: entry has no target states\n"),
    ("counter.json", lambda d: d.update(memory_domain={"set": [0, 1, 1, 2, 3, 3, 1]}),
     "sxm: 2 violation(s)\n  memory_domain: value 1 listed more than once\n"
     "  memory_domain: value 3 listed more than once\n"),
    ("counter.json", lambda d: d.update(memory_domain={"open": {"sample": [0, 2, 0]}}),
     "sxm: 1 violation(s)\n  memory_domain: value 0 listed more than once\n"),
    ("ps2_control.json", lambda d: d["memory_domain"]["set"].append(0),
     "csxm: 1 violation(s)\n  ps2_control.memory_domain: value 0 listed more than once\n"),
    ("ps2_control.json", lambda d: d["in_port_domain"].append(d["in_port_domain"][0]),
     "csxm: 1 violation(s)\n"
     "  ps2_control.in_port_domain: value (bdf, b) listed more than once\n"),
    ("ps2_control.json", lambda d: d["out_port_domain"].append(d["out_port_domain"][0]),
     "csxm: 1 violation(s)\n"
     "  ps2_control.out_port_domain: value (s, t) listed more than once\n"),
    ("ps2.json", lambda d: d["structure"]["children"][0].update(id=3),
     "psystem: 1 violation(s)\n  structure: compartment ids must be 1..2, got [1, 3]\n"),
    ("ps2.json", lambda d: d["rules"]["1"][1].update(name="r11"),
     "psystem: 1 violation(s)\n  rules[r11]: duplicate rule name\n"),
], ids=["csxm states in both", "csxm states uncovered", "csxm functions in both",
        "csxm functions uncovered", "csxm initial not ordinary", "csxm arc of the other kind",
        "csxm ordinary send", "csxm communicating input", "csxm communicating output",
        "csxm communicating no target", "csxm communicating out-port", "csxm separator",
        "sxm no states", "sxm reserved atom", "sxm no targets", "sxm repeated set values",
        "sxm repeated sample value", "csxm repeated memory value", "csxm repeated in-port value",
        "csxm repeated out-port value", "psystem ids",
        "psystem duplicate rule"])
def test_validate_reports_each_structural_violation(work, capsys, name, change, report):
    _exits(1, ["validate", _edit(work / name, change)], report, work, capsys)


def test_validate_reports_a_system_without_components(tmp_path, capsys):
    system = tmp_path / "empty.json"
    system.write_text(json.dumps({"schema": 1, "components": []}), encoding="utf-8")
    _exits(1, ["validate", str(system)],
           "system: 1 violation(s)\n  empty: a system needs at least one component\n",
           tmp_path, capsys)


def test_score_rejects_mutants_of_the_other_kind(work, capsys):
    _exits(3, _score_sxm(work, mutants="ps_mutants.json"),
           "error: mutants are for a psystem model, spec is sxm\n", work, capsys)


def test_generation_on_a_model_failing_dft_prints_its_summary(work, capsys):
    _exits(1, ["gen-tests", "sxm", str(work / "counter.json")],
           "error: model 'counter' fails design-for-test checks\n"
           "  determinism: pass\n  completeness: FAIL\n"
           "    inc is undefined at memory 3 for every input\n"
           "  output distinguishability: pass\n  scope: exhaustive\n", work, capsys)


def _also_inc2(d):
    d["functions"].append(dict(d["functions"][0], name="inc2"))
    d["next_state"].append({"from": "q0", "fn": "inc2", "to": ["q0"]})


@pytest.mark.parametrize("name, change, report", [
    ("ps2_control.json", lambda d: d["inputs"].append("a"),
     "csxm: 1 violation(s)\n"
     "  ps2_control: communication symbol 'a' already in ps2_control's alphabets\n"),
    ("counter_testable.json", _also_inc2,
     "sxm: valid\ndft [counter_testable]:\n"
     "  determinism: FAIL\n"
     "    state q0: inc and inc2 both defined at memory 0, input 'i'\n"
     "    state q0: inc and inc2 both defined at memory 1, input 'i'\n"
     "    state q0: inc and inc2 both defined at memory 2, input 'i'\n"
     "    state q0: inc and inc2 both defined at memory 3, input 'i'\n"
     "  completeness: pass\n"
     "  output distinguishability: FAIL\n"
     "    inc and inc2 both map memory 0, input 'i' to output 'o' (memories 1 / 1)\n"
     "    inc and inc2 both map memory 1, input 'i' to output 'o' (memories 2 / 2)\n"
     "    inc and inc2 both map memory 2, input 'i' to output 'o' (memories 3 / 3)\n"
     "    inc and inc2 both map memory 3, input 'i' to output 'o' (memories 3 / 3)\n"
     "  scope: exhaustive\n"),
], ids=["extension symbol declared", "determinism and distinguishability witnesses"])
def test_validate_dft_report_pinned(work, capsys, name, change, report):
    _exits(1, ["validate", "--dft", _edit(work / name, change)], report, work, capsys)


def test_communicating_function_missing_from_functions_is_a_violation(work, capsys):
    # a KeyError traceback, exit 1, before
    renamed = json.loads((work / "ps2_control.json").read_text(encoding="utf-8"))
    renamed["functions"][2]["name"] = "send_back2"
    other = json.loads((work / "ps2_control.json").read_text(encoding="utf-8"))
    other["name"] = "ps2_control_2"  # component names are distinct
    system = work / "pair.json"
    system.write_text(json.dumps({"schema": 1, "components": [renamed, other]}),
                      encoding="utf-8")
    violations = (
        "5 violation(s)\n"
        "  ps2_control.next_state[replying,send_back]: unknown function 'send_back'\n"
        "  ps2_control.functions: function partition does not cover the function set\n"
        "  ps2_control.functions[send_back2].cases[0]: input 'λ' not in the alphabet\n"
        "  ps2_control.functions[send_back2].cases[0]: output 'λ' not in the alphabet\n"
        "  ps2_control.functions[send_back2].cases[0]: ordinary functions cannot send\n"
    )
    _exits(1, ["validate", str(system)], "system: " + violations, work, capsys)
    _exits(1, ["product", str(system)], "error: system model has " + violations, work, capsys)


def _open_sample_updates_raise(d):
    d.update(inputs=["i", "j"], memory_domain={"open": {"sample": ["y", ["z"]]}},
             initial_memory="y")
    d["functions"][0]["cases"] = [
        {"mem_pattern": "[?v]", "input": "i", "output": "o", "mem_next": "?v + 1"}]
    d["functions"][1]["cases"] = [
        {"mem_pattern": "?m", "input": "j", "output": "z", "mem_next": "?m - 1"}]


def test_open_sample_update_errors_are_violations(work, capsys):
    # validate exited 0, and validate --dft and gen-tests 2 on the first
    # error alone, before
    model = _edit(work / "counter_testable.json", _open_sample_updates_raise)
    violations = (
        "3 violation(s)\n"
        "  functions[inc]: update error at (z): arithmetic '+' needs integers, got 'z', 1\n"
        "  functions[reset]: update error at y: arithmetic '-' needs integers, got 'y', 1\n"
        "  functions[reset]: update error at (z): arithmetic '-' needs integers, "
        "got ('z',), 1\n")
    for args in (["validate", model], ["validate", "--dft", model]):
        _exits(1, args, "sxm: " + violations, work, capsys)
    _exits(1, ["gen-tests", "sxm", model], "error: sxm model has " + violations, work, capsys)


def test_components_sharing_a_name_are_a_violation(work, capsys):
    # one passing report of the second copy and exit 0, before
    control = json.loads((work / "ps2_control.json").read_text(encoding="utf-8"))
    first = json.loads(json.dumps(control))
    first["functions"][0]["cases"][0]["mem_pattern"] = "0"  # check fails completeness
    for case in (case for fn in first["functions"] for case in fn["cases"]):
        if "send_to" in case:
            case["send_to"] = 2
    system = work / "same_names.json"
    system.write_text(json.dumps({"schema": 1, "name": "pair", "components": [first, control]}),
                      encoding="utf-8")
    _exits(1, ["validate", "--dft", str(system)],
           "system: 1 violation(s)\n  pair.components: value ps2_control listed more than once\n",
           work, capsys)


def test_control_named_like_the_base_is_a_violation(work, capsys):
    # validate --dft printed Control's report under the Base's name and
    # exited 0, before
    _edit(work / "ps2_control.json", lambda d: d.update(name="base"))
    heterotic = str(work / "ps2_heterotic.json")
    violation = "1 violation(s)\n  ps2_heterotic.components: value base listed more than once\n"
    _exits(1, ["validate", "--dft", heterotic], "heterotic: " + violation, work, capsys)
    for args in (["gen-tests", "heterotic", heterotic], ["simulate", heterotic]):
        _exits(1, args, "error: heterotic model has " + violation, work, capsys)


# --- fuzz ---------------------------------------------------------------------

# Small replacement values: a large integer in a memory range would make
# ``validate`` enumerate it.
REPLACEMENTS = (None, True, -1, 0, 2, "x", "", [], ["x"], {}, {"x": 1})
# Seeded edits per file and kind; a call longer than this is a hang.
EDITS_PER_KIND = 25
CALL_SECONDS = 5


def _json_type(value):
    if value is None or isinstance(value, bool):
        return repr(value)
    return type(value).__name__


def _nodes(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _delete(parent, key):
    del parent[key]


def _duplicate(parent, key):
    parent.insert(key, parent[key])


def _setter(value):
    def change(parent, key):
        parent[key] = value
    return change


def _rename(parent, key):
    parent[key] += "2"


def _edited_copies(text, rng):
    """(edit, document) pairs: nodes swapped for a value of another JSON
    type, keys deleted, list elements deleted or duplicated, each kind
    ``EDITS_PER_KIND`` times at seeded places; then every entry of every
    ``*_functions`` and ``*_states`` list renamed, once each."""
    original = json.loads(text)
    paths = list(_nodes(original))
    in_dict = [p for p in paths if p and isinstance(_at(original, p[:-1]), dict)]
    in_list = [p for p in paths if p and isinstance(_at(original, p[:-1]), list)]

    def edit(path, change):
        doc = json.loads(text)
        change(_at(doc, path[:-1]), path[-1])
        return doc

    for _ in range(EDITS_PER_KIND):
        path = rng.choice(paths)
        value = rng.choice([v for v in REPLACEMENTS
                            if _json_type(v) != _json_type(_at(original, path))])
        yield ("swap", path, value), edit(path, _setter(value)) if path else value
    for kind, candidates, change in (("delete key", in_dict, _delete),
                                     ("delete element", in_list, _delete),
                                     ("duplicate element", in_list, _duplicate)):
        for _ in range(EDITS_PER_KIND if candidates else 0):
            path = rng.choice(candidates)
            yield (kind, path), edit(path, change)
    for path in paths:
        if len(path) > 1 and str(path[-2]).endswith(("_functions", "_states")):
            yield ("rename", path), edit(path, _rename)


class _Hang(BaseException):
    """A command ran past ``CALL_SECONDS``."""


def _raise_hang(signum, frame):
    raise _Hang


def test_fuzzed_files_end_in_an_exit_code(work, capsys):
    """Every edited file ends each command that reads it in 0, 1, 2 or 3
    within ``CALL_SECONDS``, with no exception escaping ``main``, and exit
    1 always prints violations or a failed design-for-test report."""
    def at(name):
        return str(work / name)

    # a valid system of two Control copies, the first sending to the second
    control = json.loads((work / "ps2_control.json").read_text(encoding="utf-8"))
    first = json.loads(json.dumps(control))
    for case in (case for fn in first["functions"] for case in fn["cases"]):
        if "send_to" in case:
            case["send_to"] = 2
    second = dict(control, name="ps2_control_2")  # component names are distinct
    (work / "pair.json").write_text(json.dumps({"schema": 1, "components": [first, second]}),
                                    encoding="utf-8")
    commands = {
        "counter.json": [["validate", "--dft", at("counter.json")]],
        "counter_testable.json": [["gen-tests", "sxm", at("counter_testable.json")],
                                  _score_sxm(work), ["mutate", at("counter_testable.json")],
                                  ["validate", "--dft", at("counter_testable.json")]],
        "pair.json": [["validate", at("pair.json")], ["product", at("pair.json")],
                      ["validate", "--dft", at("pair.json")]],
        "ps2.json": [["simulate", at("ps2.json"), "--depth", "2"], _score_psystem(work),
                     ["simulate", at("ps2_heterotic.json")],
                     ["coverage", at("ps2.json"), "--depth", "2"],
                     ["gen-tests", "psystem", at("ps2.json"), "--depth", "2"],
                     ["mutate", at("ps2.json")],
                     ["simulate", at("ps2.json"), "--depth", "2", "--all-branches"]],
        "ps2_control.json": [["validate", "--dft", at("ps2_control.json")],
                             ["gen-tests", "heterotic", at("ps2_heterotic.json")]],
        "ps2_heterotic.json": [["simulate", at("ps2_heterotic.json")]],
        "suite.json": [_score_sxm(work)],
        "testset.json": [_score_psystem(work)],
        "sxm_mutants.json": [_score_sxm(work)],
        "ps_mutants.json": [_score_psystem(work)],
    }
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    try:
        for name in sorted(commands):
            original = (work / name).read_text(encoding="utf-8")
            for edit, doc in _edited_copies(original, random.Random(f"4:{name}")):
                (work / name).write_text(json.dumps(doc), encoding="utf-8")
                for args in commands[name]:
                    case = (name, edit, args[0])
                    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
                    try:
                        code = main(args)
                    except _Hang:
                        pytest.fail(f"no exit within {CALL_SECONDS} s: {case}")
                    except Exception as exc:
                        pytest.fail(f"{type(exc).__name__}: {exc} escaped main: {case}")
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    out, err = capsys.readouterr()
                    assert code in (0, 1, 2, 3), case
                    assert code != 1 or "violation(s)" in out + err or "FAIL" in out + err, case
            (work / name).write_text(original, encoding="utf-8")
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("content, message", [
    (b'{"schema": ' + b"9" * 5000 + b"}", "Exceeds the limit"),
    (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    ('{"name": "café"}'.encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
], ids=["long-integer", "deep-nesting", "not-utf-8"])
def test_undecodable_json_exits_three(tmp_path, capsys, content, message):
    # a ValueError or RecursionError traceback, exit 1, before
    model = tmp_path / "model.json"
    model.write_bytes(content)
    _exits(3, ["validate", str(model)], f"{model} is not valid JSON: {message}", tmp_path, capsys)


def test_oracle_reply_nested_too_deep_exits_two(models_dir, tmp_path, capsys):
    # a RecursionError traceback, exit 1, before
    script = tmp_path / "oracle.py"
    script.write_text("import sys\nsys.stdin.readline()\nprint('[' * 200_000 + ']' * 200_000)\n")
    args = ["simulate", str(models_dir / "ps2_heterotic.json"), "--rounds", "1",
            "--oracle-cmd", f"{sys.executable} {script}"]
    _exits(2, args, "malformed oracle reply: maximum recursion depth exceeded", tmp_path, capsys)
