"""Record the per-case output digests of the default and held-out seeds into
bench/golden.json.  Run from the repository root, only when a change is meant
to alter spolink's outputs:

    python3 bench/record_golden.py

Every output must first pass the workload's own checks; nothing is recorded
otherwise.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    golden = {}
    for name, w in workloads.WORKLOADS.items():
        golden[name] = {}
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            runner = run.Runner(w, w.generate(seed))
            runner.run_pass()
            if runner.failed:
                print(f"{name} seed {seed}: {runner.failed} failed cases; nothing recorded")
                return 1
            golden[name][str(seed)] = runner.reference
            print(f"{name} seed {seed}: {len(runner.reference)} digests")
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
