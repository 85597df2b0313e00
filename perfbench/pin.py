"""Write pins.json: the sha256 of every operation's artifact, per workload
and seed, for the seeds FIRST..LAST.

    python3 perfbench/pin.py FIRST LAST

Run it from the root of a checkout whose artifacts are known to be right;
it stops without writing when an operation exits with the wrong code or an
independent check fails.  A change that is meant to keep every artifact
byte-identical must pass against the pins unchanged.
"""

import json
import os
import shutil
import sys

import run as bench


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    pins = {}
    for workload, build in bench.WORKLOADS.items():
        for seed in range(first, last + 1):
            run = bench.Run(workload, seed, 0, False)
            run.pins = None
            shutil.rmtree(run.work, ignore_errors=True)
            manifest = bench.gen.write_inputs(workload, seed, os.path.join(run.work, "inputs"))
            _, ops, checks = build(manifest, seed, run.work)
            run.run_pass(ops, "pin")
            failures = run.failures + [f"{name}: {detail}" for name, ok, detail in checks() if not ok]
            if failures:
                raise SystemExit(f"{workload} seed {seed}: {failures}")
            pins.setdefault(workload, {})[str(seed)] = run.reference
            print(workload, seed, "pinned", flush=True)
    with open(bench.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
