"""Benchmark of the heterotest command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed makes the workload's
input files (see gen.py); the program sees only those files.  Each
operation is one ``heterotest`` subcommand run as ``python -m
heterotest.cli`` with ``src`` on the path, in a fresh process, one at a
time (a closed loop with one client).  A pass runs a plain ``validate`` of
each input file (the set-up: start-up, import and parsing) and then every
operation of the workload once; passes repeat for S seconds, at least
twice, and each operation's time is its median over the passes.

Workloads:

* ``sxm_mutation`` -- seeded criterion-5 machines through ``validate
  --dft``, ``gen-tests sxm --extra-states 1``, ``mutate`` (every mutant) and
  ``score``.  Mutation scoring, machine runs and term matching dominate; no
  P-system or product code runs.
* ``heterotic_suite`` -- ``ps2`` with ``ps2_control``, the seed as the
  Base branch seed: ``validate --dft``, ``simulate --rounds 2`` in process
  and through ``--oracle-cmd``, ``gen-tests heterotic`` at k = 0, 1, 2, and
  ``product`` on seeded three-component systems.  Translation of function
  sequences over the product machine dominates; no mutation runs.  k = 3
  takes about 16 s, longer than a pass may, so the ladder stops at 2.
* ``psystem_branching`` -- a ladder of seeded P systems at about 10**2,
  10**3 and 3 * 10**3 traces through ``simulate --all-branches``,
  ``coverage`` and ``gen-tests psystem``; one system past the 10,000-branch
  cap (expected exit 2); ``mutate`` and ``score`` on ``ps2`` and on the
  smallest system.  All-branch exploration and large artifact writes
  dominate; no term or testgen code runs.

Correctness: every operation must exit with its expected code and write
an artifact whose sha256 equals the pinned one (pins.json, for the seeds it
holds) or, for other seeds, the one written in the first pass.  Three
independent checks run on the first pass's artifacts: the expected outputs
of every generated machine's suite are replayed here; the oracle-mode
``simulate`` artifact must equal the in-process one byte for byte; and the
``ps2`` paper facts hold (the criterion-1 trace, 7 of 7 rules covered, the
r12 witness (bdf,b)).  The trace counts of the generated P systems must
also equal the generator's own count.  Every mismatch is a failed
operation.

With ``--trace 1`` one untraced pass is followed by traced passes (see
tracer.py); the per-layer metrics are medians over the traced passes and
``trace.overhead_s`` is the traced pass time minus the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else,
including the metrics that apply only to some workloads, is printed above
it and kept in ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from tracer import COUNTED, RENAMED, SPANS  # noqa: E402

WORK_ROOT = ".perfbench_work"
REQUIRED_FILES = ("src/heterotest/cli.py", "models/ps2.json", "models/ps2_control.json")
# Every operation ends well inside this; a hung one is killed and counted
# as failed so that the run still ends within its time limit.
OP_TIMEOUT_S = 120
MIN_PASSES = 2
# More than any generated model has, so ``mutate`` returns every mutant.
ALL_MUTANTS = 1_000_000
PINS = os.path.join(HERE, "pins.json")

# Subcommand -> end-to-end metric holding its summed operation times.
SUBCOMMAND_METRICS = {
    "validate": "validate_s",
    "gen-tests": "gen_tests_s",
    "mutate": "mutate_s",
    "score": "score_s",
    "simulate": "simulate_s",
    "coverage": "coverage_s",
    "product": "product_s",
}
# Declared in BENCHMARK.json: present, and never zero, on every workload.
GATED_METRICS = ("wall_s", "setup_s", "gen_tests_s", "peak_rss_mb")
WORK_COUNTS = (
    ("testgen.phi_sequences", "count"),
    ("testgen.cases", "count"),
    ("testgen.cases_per_phi", "ratio"),
    ("mutation.candidates", "count"),
    ("mutation.valid_ratio", "ratio"),
    ("mutation.killed", "count"),
    ("mutation.replays_per_mutant", "ratio"),
    ("psystem.traces", "count"),
    ("psystem.distinct_configurations", "count"),
    ("model_io.bytes_written", "B"),
)


def layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("cli.import_s", "s")]
    for module_name, qualname in SPANS:
        full = f"{module_name}.{qualname}"
        if full in RENAMED:
            out += [(RENAMED[full] + ".calls", "count"), (RENAMED[full] + ".latency_s", "s")]
        else:
            out += [(full + ".calls", "count"), (full + ".self_s", "s")]
    out += [(f"{m}.{q}.calls", "count") for m, q in COUNTED if not q.startswith("_")]
    out += list(WORK_COUNTS)
    out.append(("trace.overhead_s", "s"))
    return out


class Op:
    """One CLI call: its id, the subcommand's arguments, the exit code it
    must return and the artifact it writes with ``-o``."""

    def __init__(self, op_id: str, args: list, output: str | None, exit_code: int = 0,
                 metric: str | None = None):
        self.id = op_id
        self.args = args + (["-o", output] if output else [])
        self.output = output
        self.exit_code = exit_code
        self.subcommand = args[0]
        self.metric = metric or SUBCOMMAND_METRICS[self.subcommand]


# --- workloads ------------------------------------------------------------------


def sxm_mutation(manifest: dict, seed: int, work: str):
    inputs, ops = [], []
    for path, doc in manifest["machines"]:
        name = doc["name"]
        suite, mutants = f"{work}/{name}.suite.json", f"{work}/{name}.mutants.json"
        inputs.append(path)
        ops += [
            Op(f"{name}.validate", ["validate", "--dft", path], f"{work}/{name}.dft.json"),
            Op(f"{name}.gen-tests", ["gen-tests", "sxm", path, "--extra-states", "1"], suite),
            Op(f"{name}.mutate", ["mutate", path, "--count", str(ALL_MUTANTS),
                                  "--seed", str(seed)], mutants),
            Op(f"{name}.score", ["score", path, "--mutants", mutants, "--suite", suite],
               f"{work}/{name}.score.json"),
        ]

    def checks():
        """Replay every suite case through the generator's own semantics."""
        results = []
        for path, doc in manifest["machines"]:
            suite = _load(f"{work}/{doc['name']}.suite.json")
            bad = [c["input"] for c in suite["cases"]
                   if c["expected_outputs"] != gen.machine_outputs(doc, c["input"])]
            results.append((f"{doc['name']}.replay", not bad, f"{len(bad)} case(s) differ"))
        return results

    return inputs, ops, checks


def heterotic_suite(manifest: dict, seed: int, work: str):
    model = manifest["heterotic"]
    oracle = " ".join([sys.executable, os.path.relpath(os.path.join(HERE, "oracle.py")),
                       manifest["ps2"], str(seed), str(manifest["depth_cap"])])
    ops = [
        Op("heterotic.validate", ["validate", "--dft", model], f"{work}/dft.json"),
        Op("heterotic.simulate", ["simulate", model, "--rounds", "2"], f"{work}/simulate.json"),
        Op("heterotic.simulate-oracle", ["simulate", model, "--rounds", "2", "--oracle-cmd", oracle],
           f"{work}/simulate_oracle.json"),
    ]
    ops += [Op(f"heterotic.gen-tests-k{k}", ["gen-tests", "heterotic", model,
                                              "--extra-states", str(k)], f"{work}/suite_k{k}.json")
            for k in (0, 1, 2)]
    ops += [Op(f"sys{i}.product", ["product", path], f"{work}/product{i}.json")
            for i, path in enumerate(manifest["systems"])]

    def checks():
        same = _read(f"{work}/simulate.json") == _read(f"{work}/simulate_oracle.json")
        return [("oracle-equals-in-process", same, "oracle-mode trace differs")]

    return [model] + manifest["systems"], ops, checks


def psystem_branching(manifest: dict, seed: int, work: str):
    depth = str(manifest["depth"])
    inputs, ops = [manifest["ps2"]], []
    for name, path, prof in manifest["ladder"]:
        inputs.append(path)
        if prof["traces"] is None:
            ops.append(Op(f"{name}.simulate", ["simulate", path, "--depth", depth, "--all-branches"],
                          f"{work}/{name}.traces.json", exit_code=2))
            continue
        ops += [
            Op(f"{name}.simulate", ["simulate", path, "--depth", depth, "--all-branches"],
               f"{work}/{name}.traces.json"),
            Op(f"{name}.coverage", ["coverage", path, "--depth", depth], f"{work}/{name}.coverage.json"),
            Op(f"{name}.gen-tests", ["gen-tests", "psystem", path, "--depth", depth],
               f"{work}/{name}.testset.json"),
        ]
    ps2 = manifest["ps2"]
    ops += [
        Op("ps2.simulate", ["simulate", ps2, "--depth", "3", "--all-branches"], f"{work}/ps2.traces.json"),
        Op("ps2.gen-tests", ["gen-tests", "psystem", ps2, "--depth", "3"], f"{work}/ps2.testset.json"),
    ]
    smallest = manifest["ladder"][0]
    for name, path in (("ps2", ps2), (smallest[0], smallest[1])):
        mutants = f"{work}/{name}.mutants.json"
        ops += [
            Op(f"{name}.mutate", ["mutate", path, "--count", str(ALL_MUTANTS), "--seed", str(seed)],
               mutants),
            Op(f"{name}.score", ["score", path, "--mutants", mutants,
                                 "--test-set", f"{work}/{name}.testset.json"], f"{work}/{name}.score.json"),
        ]

    def checks():
        results = []
        for name, _, prof in manifest["ladder"]:
            if prof["traces"] is not None:
                got = len(_load(f"{work}/{name}.traces.json")["traces"])
                results.append((f"{name}.trace-count", got == prof["traces"],
                                f"{got} traces, generator counts {prof['traces']}"))
        traces = _load(f"{work}/ps2.traces.json")["traces"]
        testset = _load(f"{work}/ps2.testset.json")
        rules = testset["report"]["rules"]
        r12 = [r.get("configuration") for r in rules if r["rule"] == "r12"]
        results += [
            ("ps2.criterion-1-trace", PS2_TRACE in traces, "paper computation missing"),
            ("ps2.rules-covered", testset["report"]["all_covered"] and len(rules) == 7,
             "not 7 of 7 rules covered"),
            ("ps2.r12-witness", r12 == [{"1": "bdf", "2": "b"}], f"r12 witness is {r12}"),
        ]
        return results

    return inputs, ops, checks


# The computation printed in the source paper (acceptance criterion 1).
PS2_TRACE = {
    "initial": {"1": "s", "2": "t"},
    "steps": [
        {"fired": {"1": {"r11": 1}, "2": {"r21": 1}}, "result": {"1": "abe", "2": "b"}},
        {"fired": {"1": {"r13": 1, "r15": 1}, "2": {}}, "result": {"1": "bcf", "2": "ab"}},
        {"fired": {"1": {"r14": 1}, "2": {"r22": 1}}, "result": {"1": "ccf", "2": "c"}},
    ],
    "halted": True,
}

WORKLOADS = {
    "sxm_mutation": sxm_mutation,
    "heterotic_suite": heterotic_suite,
    "psystem_branching": psystem_branching,
}


# --- running operations ---------------------------------------------------------


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def _load(path: str):
    return json.loads(_read(path) or b"null")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.pop("HETEROTEST_SEED", None)
    return env


def run_cli(args: list, env: dict, trace_file: str | None = None, op_id: str = "") -> tuple:
    """(exit code or None on timeout, wall seconds, stderr tail)."""
    if trace_file:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_file, op_id] + args
    else:
        argv = [sys.executable, "-m", "heterotest.cli"] + args
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - started, "timed out"
    return proc.returncode, time.perf_counter() - started, proc.stderr[-400:].decode(errors="replace")


class Run:
    """One benchmark run: its work directory, time budget and the failures
    seen so far."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.seconds, self.trace = seconds, trace
        self.work = os.path.join(WORK_ROOT, workload)
        self.env = _env()
        self.attempted = 0
        self.failures: list = []
        self.reference: dict = {}
        with open(PINS, encoding="utf-8") as handle:
            self.pins = json.load(handle).get(workload, {}).get(str(seed))

    def fail(self, what: str, detail: str) -> None:
        self.failures.append(f"{what}: {detail}")

    def run_pass(self, ops: list, label: str) -> dict:
        """Run every operation once; returns per-operation records."""
        records = {}
        trace_dir = os.path.join(self.work, "trace", label) if label.startswith("traced") else None
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
        for op in ops:
            if op.output and os.path.exists(op.output):
                os.remove(op.output)
            trace_file = os.path.join(trace_dir, op.id + ".json") if trace_dir else None
            code, seconds, stderr = run_cli(op.args, self.env, trace_file, op.id)
            data = _read(op.output) if op.output else None
            digest = hashlib.sha256(data).hexdigest() if data is not None else None
            self.attempted += 1
            if code != op.exit_code:
                self.fail(op.id, f"exit {code}, expected {op.exit_code}: {stderr.strip()}")
            expected = self.pins.get(op.id) if self.pins else self.reference.setdefault(op.id, digest)
            if digest != expected:
                self.fail(op.id, f"artifact sha256 {digest}, pinned {expected}")
            records[op.id] = {"seconds": seconds, "bytes": len(data) if data else 0,
                              "trace": trace_file}
        return records

    def timed_passes(self, ops: list, prefix: str, minimum: int, started: float) -> list:
        passes = []
        while True:
            begun = time.perf_counter()
            passes.append(self.run_pass(ops, f"{prefix}{len(passes)}"))
            length = time.perf_counter() - begun
            elapsed = time.perf_counter() - started
            if len(passes) >= minimum and elapsed + length > self.seconds:
                return passes


def op_medians(passes: list) -> dict:
    return {op_id: statistics.median(p[op_id]["seconds"] for p in passes) for op_id in passes[0]}


def end_to_end(ops: list, medians: dict) -> dict:
    metrics = {"wall_s": sum(medians[op.id] for op in ops if op.metric != "setup_s")}
    for op in ops:
        metrics[op.metric] = metrics.get(op.metric, 0.0) + medians[op.id]
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = kib / 1024.0
    return metrics


def work_counts(ops: list, first_pass: dict, score_replays: float) -> dict:
    """Counts of work read from the first pass's artifacts."""
    counts = dict.fromkeys((name for name, _ in WORK_COUNTS), 0)
    scored = 0
    for op in ops:
        doc = _load(op.output) if op.output else None
        counts["model_io.bytes_written"] += first_pass[op.id]["bytes"]
        if doc is None:
            continue
        if op.subcommand == "gen-tests" and "cases" in doc:
            counts["testgen.cases"] += len(doc["cases"])
            counts["testgen.phi_sequences"] += doc["metadata"]["phi_sequences"]
        elif op.subcommand == "mutate":
            kept = len(doc["mutants"])
            counts["mutation.candidates"] += kept + doc["invalid"] + doc["duplicates"]
            counts["mutation.valid_ratio"] += kept + doc["duplicates"]
        elif op.subcommand == "score":
            counts["mutation.killed"] += doc["killed"]
            scored += doc["total"]
        elif op.subcommand == "simulate" and "traces" in doc:
            counts["psystem.traces"] += len(doc["traces"])
            configs = set()
            for trace in doc["traces"]:
                configs.add(tuple(sorted(trace["initial"].items())))
                configs.update(tuple(sorted(s["result"].items())) for s in trace["steps"])
            counts["psystem.distinct_configurations"] += len(configs)
    if counts["testgen.phi_sequences"]:
        counts["testgen.cases_per_phi"] = counts["testgen.cases"] / counts["testgen.phi_sequences"]
    if counts["mutation.candidates"]:
        counts["mutation.valid_ratio"] /= counts["mutation.candidates"]
    if scored:
        counts["mutation.replays_per_mutant"] = score_replays / scored
    return counts


def layer_values(ops: list, records: dict) -> tuple:
    """Per-layer metrics of one traced pass, and the replays made while
    scoring (machine runs plus P-system reachability explorations)."""
    values = {name: 0.0 for name, _ in layer_metrics()}
    imports, replays, oracle_total = [], 0, 0.0
    for op in ops:
        doc = _load(records[op.id]["trace"]) or {"totals": {}, "counts": {}, "import_s": 0.0}
        imports.append(doc["import_s"])
        for name, (calls, self_s, total_s) in doc["totals"].items():
            if name == "heterotic.oracle":
                values[name + ".calls"] += calls
                oracle_total += total_s
            else:
                values[name + ".calls"] += calls
                values[name + ".self_s"] += self_s
        for name, calls in doc["counts"].items():
            if name + ".calls" in values:
                values[name + ".calls"] += calls
        if op.subcommand == "score":
            replays += doc["totals"].get("sxm.run_outputs", [0])[0]
            replays += doc["counts"].get("mutation._reachable_within", 0)
    values["cli.import_s"] = statistics.median(imports)
    if values["heterotic.oracle.calls"]:
        values["heterotic.oracle.latency_s"] = oracle_total / values["heterotic.oracle.calls"]
    return values, replays


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the heterotest command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [f for f in REQUIRED_FILES if not os.path.isfile(f)]
    if missing:
        print(f"error: run from the root of a heterotest checkout; missing {missing}", file=sys.stderr)
        return 2

    stamp = {"git_sha": git_sha(), "python": platform.python_version(),
             "nproc": len(os.sched_getaffinity(0)), "loadavg_1m": os.getloadavg()[0]}
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    manifest = gen.write_inputs(args.workload, args.seed, os.path.join(run.work, "inputs"))
    inputs, ops, checks = WORKLOADS[args.workload](manifest, args.seed, run.work)

    # Set-up is a plain validate of each input file: start-up, import,
    # parsing and, for heterotic files, Base wrapping.  It runs in every
    # pass, so its median, like every operation's, spans the whole run.
    ops = [Op(f"setup.{os.path.basename(path)}", ["validate", path], None, metric="setup_s")
           for path in inputs] + ops
    # Untimed warm-up: writes the bytecode cache, as an installed package has.
    run_cli(["validate", inputs[0]], run.env)
    started = time.perf_counter()
    if run.trace:
        untraced = [run.run_pass(ops, "pass0")]
    else:
        untraced = run.timed_passes(ops, "pass", MIN_PASSES, started)
    try:
        results = checks()
    except (TypeError, KeyError, ValueError) as exc:  # an artifact is missing or malformed
        results = [("independent checks", False, f"cannot read the artifacts: {exc!r}")]
    for name, ok, detail in results:
        run.attempted += 1
        if not ok:
            run.fail(name, detail)
    e2e = end_to_end(ops, op_medians(untraced))

    if run.trace:
        traced = run.timed_passes(ops, "traced", 1, started)
        per_pass = [layer_values(ops, p) for p in traced]
        replays = statistics.median(r for _, r in per_pass)
        metrics = {name: statistics.median(v[name] for v, _ in per_pass) for name, _ in layer_metrics()}
        metrics.update(work_counts(ops, untraced[0], replays))
        metrics["trace.overhead_s"] = (end_to_end(ops, op_medians(traced))["wall_s"]
                                       - e2e["wall_s"])
        units = dict(layer_metrics())
    else:
        metrics = {name: e2e[name] for name in GATED_METRICS}
        units = {name: "MB" if name.endswith("_mb") else "s" for name in GATED_METRICS}

    failed = len(run.failures)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "stamp": stamp, "passes": len(untraced), "pinned": run.pins is not None,
        "end_to_end": dict(e2e, error_rate=failed / run.attempted),
        "per_op_median_s": op_medians(untraced),
        "failures": run.failures,
    }
    if run.trace:
        report["per_layer"] = metrics
    with open(os.path.join(run.work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    print(f"heterotest benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"stamp  git={stamp['git_sha']} python={stamp['python']} nproc={stamp['nproc']} "
          f"loadavg={stamp['loadavg_1m']:.2f}  passes={len(untraced)} pinned={run.pins is not None}")
    for name, value in report["end_to_end"].items():
        unit = "ratio" if name == "error_rate" else "MB" if name.endswith("_mb") else "s"
        print(f"  {name:<34} {value:12.4f} {unit}")
    if run.trace:
        for name, unit in layer_metrics():
            print(f"  {name:<34} {metrics[name]:12.4f} {unit}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
