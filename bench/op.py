"""One benchmark operation in a fresh interpreter; run.py starts it.

    python3 bench/op.py REQUEST.json RESULT.json

The request names the workload, its coordinates, the input and output
directories, the worker count and whether to trace. The result holds the
operation's wall seconds, the returned records or the error, and the spans
of a traced operation. The import of the package happens before the clock
starts, so every operation is timed in the same cold process state that a
`pnovqe` command line run has.
"""

import dataclasses
import json
import sys
import time
import traceback
from pathlib import Path

from pnovqe import workbench

import tracing
from workloads import WORKLOADS


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    workload = WORKLOADS[request["workload"]]
    config = workload.config(request["coordinates"], Path(request["inputs"]),
                             output_dir=request["output_dir"], workers=request["workers"])
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer) if request["trace"] else (lambda: None, [])
    result = {"missing": missing}
    start = time.perf_counter()
    try:
        if workload.scan:
            result["points"] = list(workbench.run_curve(config).points)
        else:
            result["points"] = [workbench.run_point(config)]
    except Exception as exc:  # reported to run.py, which fails every point
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["seconds"] = time.perf_counter() - start
    restore()
    result["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
