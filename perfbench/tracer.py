"""Run one heterotest CLI call with spans around each layer's public calls.

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json OP_ID <heterotest arguments>

The program is not changed: after importing it, this script replaces the
functions and methods named below with timing wrappers, in every
``heterotest`` module namespace that binds them (``testgen`` and
``mutation`` import ``run_outputs`` and ``canonical_json`` by name).
Spans (name, start, end, parent, op id) stay in memory and are written to
OUT.json at exit, together with per-name call counts, self times (a span's
duration minus its wrapped children) and total times.
"""

import json
import sys
import time

# (module, function or Class.method) pairs timed as spans.
SPANS = (
    ("model_io", "load_model_file"),
    ("model_io", "canonical_json"),
    ("terms", "Pattern.match"),
    ("sxm", "run_outputs"),
    ("dft", "check_dft"),
    ("testgen", "build_w_suite"),
    ("testgen", "minimize_automaton"),
    ("testgen", "state_cover"),
    ("testgen", "characterization_set"),
    ("testgen", "w_method_phi_sequences"),
    ("csxms", "check_csxm_dft"),
    ("csxms", "build_product_sxm"),
    ("heterotic", "wrap_psystem_as_csxm"),
    ("heterotic", "_invoke_oracle"),
    ("psystem", "psystem_run"),
    ("psystem", "step_choices"),
    ("psystem", "maximal_rule_multisets"),
    ("psystem", "apply_assignment"),
    ("mutation", "enumerate_mutants"),
    ("mutation", "score_sxm_suite"),
    ("mutation", "score_psystem_testset"),
)
# Hot calls that are only counted: timing them would cost more than the
# work they do, and their time stays in their caller's self time.
# ``_reachable_within`` is one P-system replay while scoring; it feeds
# mutation.replays_per_mutant and is not reported on its own.
COUNTED = (
    ("csxms", "ProductFunction.evaluate"),
    ("multiset", "Multiset.__le__"),
    ("mutation", "_reachable_within"),
)
# The oracle round trip is one private helper; report it under the name of
# what it measures.
RENAMED = {"heterotic._invoke_oracle": "heterotic.oracle"}
# Spans kept for the OUT.json span list; totals always count every call.
SPAN_LIMIT = 100_000


class Tracer:
    """Spans and counts of one process, that is of one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.stack = []  # [span id, start, time in wrapped children]
        self.spans = []
        self.totals = {}  # name -> [calls, self seconds, total seconds]
        self.counts = {}
        self.next_id = 0

    def timed(self, name, fn):
        clock = time.perf_counter
        stack, spans, totals = self.stack, self.spans, self.totals.setdefault(name, [0, 0.0, 0.0])
        op_id = self.op_id

        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                totals[0] += 1
                totals[1] += duration - frame[2]
                totals[2] += duration
                parent = None
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                if span_id < SPAN_LIMIT:
                    spans.append((span_id, name, frame[1], end, parent, op_id))

        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "heterotest"]
        for make, table in ((self.timed, SPANS), (self.counted, COUNTED)):
            for module_name, qualname in table:
                module = sys.modules[f"heterotest.{module_name}"]
                full = f"{module_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, make(RENAMED.get(full, full), owner.__dict__[attr]))
                    continue
                original = getattr(module, attr)
                wrapped = make(RENAMED.get(full, full), original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def dump(self, path: str, import_s: float, exit_code) -> None:
        doc = {
            "op": self.op_id,
            "exit_code": exit_code,
            "import_s": import_s,
            "totals": self.totals,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "spans_recorded": len(self.spans),
            "spans_total": self.next_id,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def main() -> int:
    out_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    started = time.perf_counter()
    from heterotest import cli

    import_s = time.perf_counter() - started
    tracer = Tracer(op_id)
    tracer.install()
    code = None
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(out_path, import_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
