#!/usr/bin/env python3
"""Record ``reference.json``: each op's output summary at the default seed.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

``run.py`` compares every op of a default-seed run against these values
within ``TOLERANCE``. Regenerate the file only when the program's outputs
change on purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run

# Ops recorded per workload: several times what one run reaches at the
# default length, so that a much faster program is still checked on every op.
OPS = {"sim_privacy_utility": 60, "sim_oja_baseline": 60, "session_tcp": 3000}
# Outputs are bit-identical run to run on one machine; the tolerance admits
# the last-digit differences another BLAS build or thread count may give.
TOLERANCE = {"rtol": 1e-9, "atol": 1e-12}


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS

    lines = []
    for name, count in OPS.items():
        wl = WORKLOADS[name]("full")
        ops = []
        for i in range(count):
            inp = wl.inputs(run.DEFAULT_SEED, i)
            ops.append(json.dumps(wl.check(inp, wl.run(inp))))
        lines.append(f'  "{name}": [\n    ' + ",\n    ".join(ops) + "\n  ]")
        print(f"{name}: {count} ops", flush=True)
    head = json.dumps({"seed": run.DEFAULT_SEED, "tolerance": TOLERANCE})[:-1]
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write(head + ', "workloads": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
