"""Write bench/pinned.json: the seed-0 energies of every workload.

    python3 bench/pin.py

The correctness gate of run.py compares every seed-0 point with these
values (E_FCI to 1e-8 Ha, E_VQE to 1e-6 Ha). Re-pin only at a commit whose
energies are trusted, and say so in the change that does it.
"""

import json
import shutil
import sys

from run import BENCH, OUT, count_failed, run_operation
from workloads import WORKLOADS


def main() -> int:
    pinned = {}
    for name, workload in WORKLOADS.items():
        work = OUT / f"pin-{name}"
        try:
            workload.write_inputs(workload.canonical, work / "inputs")
            op = run_operation(workload, workload.canonical, work / "inputs", work / "op",
                               pinned=None)
            if count_failed(op.problems, workload.canonical):
                return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        pinned[name] = [{"coordinate": p["coordinate"], "e_fci": p["e_fci"],
                         "e_vqe": p["e_vqe"]} for p in op.points]
        print(f"pinned {name}: {len(op.points)} points")
    (BENCH / "pinned.json").write_text(json.dumps(pinned, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
