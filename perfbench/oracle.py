"""External P-system oracle for ``heterotest simulate --oracle-cmd``.

Follows the ``subprocess_oracle`` contract: one JSON request line on stdin,
``{"initial": {"1": "s", "2": "t"}}``, and one JSON response line on stdout,
``{"final": {...}, "steps": n}``.  The executor behind it is heterotest's
own seeded simulator, so an oracle-mode trace must be byte-equal to the
in-process one.

    PYTHONPATH=src python3 perfbench/oracle.py PSYSTEM.json SEED DEPTH_CAP

The CLI passes its environment on, so ``src`` is on the path there too.
"""

import json
import sys

from heterotest.heterotic import simulate_to_halt
from heterotest.model_io import load_json, psystem_from_dict
from heterotest.multiset import Multiset


def main() -> None:
    path, seed, depth_cap = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    ps = psystem_from_dict(load_json(path))
    request = json.loads(sys.stdin.readline())["initial"]
    start = tuple(Multiset.from_string(request[str(i + 1)]) for i in range(ps.n_compartments))
    final, steps, _ = simulate_to_halt(ps, start, seed, depth_cap)
    reply = {"final": {str(i + 1): m.canonical() for i, m in enumerate(final)}, "steps": steps}
    print(json.dumps(reply, sort_keys=True))


if __name__ == "__main__":
    main()
