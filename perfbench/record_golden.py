"""Record the output digests that ``run.py`` checks jobs against.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are known to be right; it runs
one untraced pass of every workload and rewrites ``perfbench/golden.json``.
The seeded reduce_pair batch is not recorded: it is checked by a law.
"""

import json
import os
import shutil
import sys

import run


def main():
    root = os.getcwd()
    work = os.path.join(root, ".perfbench-work", "golden")
    os.makedirs(work, exist_ok=True)
    golden = {}
    try:
        for workload in run.WORKLOADS:
            inputs = run.make_inputs(workload, 0)
            rec = run.run_pass(workload, inputs, root, work, "g", False, {},
                               float("inf"))
            errors = [f for f in rec["failed"] if "golden" not in f[1]]
            if errors:
                print(f"{workload}: {errors}", file=sys.stderr)
                return 1
            golden.update(rec["digests"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(golden)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
