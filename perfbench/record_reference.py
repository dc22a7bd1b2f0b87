"""Write perfbench/reference.json: the outcomes of each workload's first operations at the default seed.

    python3 perfbench/record_reference.py

The benchmark counts an operation at the default seed as failed when its
verdict, draws, |H|, learner outcome, verification or collision rate differ
from this file.  Pivots, LP sizes and timings are left out on purpose: an
optimisation is expected to move them.  Re-record only for a change that is
meant to alter these outcomes.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.cap_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    ops = {}
    for name, wl in WORKLOADS.items():
        state = wl.setup(run.DEFAULT_SEED)
        results = [wl.check(state, wl.run(state, run.DEFAULT_SEED, i)) for i in range(run.REF_OPS)]
        if not all(r.ok and r.correct for r in results):
            print(f"error: {name} fails its own checks at seed {run.DEFAULT_SEED}", file=sys.stderr)
            return 1
        ops[name] = [r.reference for r in results]
    run.REFERENCE.write_text(json.dumps({"seed": run.DEFAULT_SEED, "ops": ops}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
