"""``simulate`` on a P system against the writer it replaced.

The reference is the former ``_cmd_simulate``: every computation turned
into a dictionary with the former ``ptrace_to_dict``, the whole payload's
``canonical_json`` text written to ``-o`` and, in JSON format, to stdout, and
in text format every line of the former ``render_ptrace`` printed, with the
computations in the order of the former ``ComputationTrace.key``.  The command now writes
both from the trace list one computation at a time, laying out each step of
the configuration DAG once; the ``-o`` bytes, the stdout bytes and the exit
codes must be the same.
"""

import json
import pathlib
import runpy
import sys

import pytest
from test_cli import BRANCHING, PAST_CAP

from heterotest import cli, model_io, psystem
from heterotest.cli import main
from heterotest.errors import UsageError
from heterotest.model_io import load_model_file

GEN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


# --- the reference: the whole payload, then its text ----------------------------


def reference_key(trace):
    return (
        len(trace.steps),
        tuple(psystem.config_canonical(c) for c in trace.configurations()),
        tuple(s.fired for s in trace.steps),
    )


def reference_ptrace_to_dict(trace):
    return {
        "initial": model_io.config_to_json(trace.initial),
        "steps": [
            {"fired": model_io._fired_to_json(step.fired),
             "result": model_io.config_to_json(step.result)}
            for step in trace.steps
        ],
        "halted": trace.halted,
    }


def reference_render_ptrace(trace):
    bits = [psystem.render_config(trace.initial)]
    for step in trace.steps:
        bits.append(f"⟹{psystem.render_fired(step.fired)}")
        bits.append(psystem.render_config(step.result))
    text = " ".join(bits)
    if trace.halted:
        text += "  [halted]"
    return text


def reference_emit(args, payload, text_lines):
    rendered = model_io.canonical_json(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    if args.format == "json":
        sys.stdout.write(rendered)
    else:
        for line in text_lines:
            print(line)


def reference_cmd_simulate(args):
    kind, model = cli._load(args.model, ("psystem", "heterotic"),
                            "simulate expects a P-system or heterotic model file")
    cli._reject_foreign_flags(args, kind)
    if kind == "heterotic":
        return cli._simulate_heterotic(args, model)
    if args.depth is None:
        raise UsageError("simulate on a P system needs --depth")
    mode = "seeded" if args.seed is not None else "all"
    # the computations in the order of the trace key, read anew
    traces = sorted(psystem.psystem_run(model, args.depth, mode=mode, seed=args.seed),
                    key=reference_key)
    payload = {
        "schema": 1,
        "system": model.name,
        "depth": args.depth,
        "mode": mode,
        "seed": args.seed,
        "traces": [reference_ptrace_to_dict(t) for t in traces],
    }
    lines = [reference_render_ptrace(t) for t in traces]
    reference_emit(args, payload, lines)
    return 0


def _outcome(argv, out_file, capsys):
    """(exit code, stdout, stderr, -o bytes or None) of one run."""
    if out_file.exists():
        out_file.unlink()
    code = main(argv + ["-o", str(out_file)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out_file.read_bytes() if out_file.exists() else None


def _compare(argv, tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "traces.json"
    for fmt in ("text", "json"):
        got = _outcome(["--format", fmt] + argv, out_file, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_cmd_simulate", reference_cmd_simulate)
            want = _outcome(["--format", fmt] + argv, out_file, capsys)
        assert got[:3] == want[:3], (fmt, argv)
        assert got[3] == want[3], (fmt, argv)


def _model(tmp_path, doc):
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("depth", range(5))
def test_ps2_all_branches_match_reference(models_dir, tmp_path, capsys, monkeypatch, depth):
    _compare(["simulate", str(models_dir / "ps2.json"), "--depth", str(depth), "--all-branches"],
             tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("seed", range(4))
def test_ps2_seeded_matches_reference(models_dir, tmp_path, capsys, monkeypatch, depth, seed):
    _compare(["simulate", str(models_dir / "ps2.json"), "--depth", str(depth), "--seed", str(seed)],
             tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("doc", [BRANCHING, PAST_CAP], ids=lambda doc: doc["name"])
def test_branching_all_branches_match_reference(tmp_path, capsys, monkeypatch, doc):
    _compare(["simulate", _model(tmp_path, doc), "--depth", "4", "--all-branches"],
             tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_ladder_matches_reference(tmp_path, capsys, monkeypatch, seed):
    """branch0 to branch2 of the benchmark's ladder (perfbench/gen.py, read
    only): about 10**2, 10**3 and 3 * 10**3 computations."""
    gen = runpy.run_path(str(GEN))
    for name, doc, _ in gen["psystem_ladder"](seed):
        if name != "pastcap":
            _compare(["simulate", _model(tmp_path, doc), "--depth", str(gen["PS_DEPTH"]),
                      "--all-branches"], tmp_path, capsys, monkeypatch)


# --- how the artifact is written ------------------------------------------------


class RecordingFile:
    """A text file that records each write handed to it."""

    def __init__(self, handle):
        self.handle, self.writes = handle, []

    def write(self, text):
        self.writes.append(text)
        return self.handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def test_no_write_holds_more_than_one_computation(tmp_path, capsys, monkeypatch):
    model = _model(tmp_path, BRANCHING)
    out_file = tmp_path / "traces.json"
    files = []

    def recording_open(path, *args, **kwargs):
        files.append(RecordingFile(open(path, *args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert main(["simulate", model, "--depth", "4", "--all-branches", "-o", str(out_file)]) == 0
    capsys.readouterr()
    [recording] = files
    text = out_file.read_text(encoding="utf-8")
    assert "".join(recording.writes) == text
    traces = json.loads(text)["traces"]
    assert len(traces) >= 1000
    header = text.index('"traces": [') + len('"traces": [\n    ')
    # each computation's text sits four spaces in from the document's left
    longest = max(len(json.dumps(t, indent=2, sort_keys=True, ensure_ascii=False).replace(
        "\n", "\n    ")) for t in traces)
    assert max(map(len, recording.writes)) <= header + longest
    assert len(recording.writes) > len(traces)


def test_each_dag_step_is_rendered_once(tmp_path, capsys, monkeypatch):
    """Both formats and the -o file render each step of the DAG once, in
    JSON and in text."""
    model = _model(tmp_path, BRANCHING)
    made = {"json": [], "text": []}
    to_dict, render = model_io.step_to_dict, psystem.render_step
    monkeypatch.setattr(model_io, "step_to_dict", lambda s: made["json"].append(s) or to_dict(s))
    monkeypatch.setattr(psystem, "render_step", lambda s: made["text"].append(s) or render(s))
    for fmt in ("text", "json"):
        made["json"].clear()
        made["text"].clear()
        assert main(["--format", fmt, "simulate", model, "--depth", "4", "--all-branches",
                     "-o", str(tmp_path / "traces.json")]) == 0
        assert len(capsys.readouterr().out) > 0
        edges = {id(step): step for trace in psystem.psystem_run(load_model_file(model)[1], 4)
                 for step in trace.steps}
        assert len(made["json"]) == len(edges)
        assert len(set(map(id, made["json"]))) == len(edges)
        assert len(made["text"]) == (len(edges) if fmt == "text" else 0)
