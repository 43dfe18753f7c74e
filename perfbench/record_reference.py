"""Record the seed-independent output values of every benchmark operation
into ``reference.json``, which ``run.py`` checks later outputs against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are trusted.  Values that
depend on the seed are checked by invariants instead, so seed 0 serves all.
"""

import json
import sys
import time

from run import REFERENCE, RUN_LIMIT_S, spawn
from workloads import WORKLOADS, fixed_values, parse


def main():
    stop_at = time.perf_counter() + RUN_LIMIT_S
    reference = {}
    for ops in WORKLOADS.values():
        for op in ops:
            report = spawn(op, 0, False, stop_at)
            if report.get("exit") != 0 or report.get("error"):
                print(f"{op.name} failed: {report.get('error')}", file=sys.stderr)
                return 1
            reference[op.name] = fixed_values(op, parse(op, report["output"]))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} operations to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
