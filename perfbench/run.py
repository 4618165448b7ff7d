"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` adds a traced phase and reports the per-layer metrics instead.
Lines before the last are JSON records: the environment, then the run's
report (inputs, step counts, tail percentile, checks).  The last line is
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means every
output check passed; 1 means a check failed; 2 means the program to measure
is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

START = time.perf_counter()
LIMIT_S = 170.0  # every run must end within 180 s
RESERVE_S = 15.0  # kept back for checks and writing the trace
ROOT = Path(__file__).resolve().parents[1]


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    threads = min(int(asked), ncpu) if asked and asked.isdigit() and int(asked) > 0 else ncpu
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return ncpu


def blas_record() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas_vendor": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
            "numpy": np.__version__}


def budget(phases_left: int) -> float:
    """Wall-clock cap for the next timed phase, sharing what is left of the
    run's time limit among the phases still to run."""
    left = LIMIT_S - RESERVE_S - (time.perf_counter() - START)
    return max(left / phases_left, 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ttq" / "__init__.py").is_file():
        print(f"perfbench: no ttq sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    ncpu = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = {"nproc": ncpu, "load_avg_start": os.getloadavg(), **blas_record(),
           "python": sys.version.split()[0]}
    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), budget)
    env["load_avg_end"] = os.getloadavg()
    units = workloads.metric_units(bool(args.trace))
    correct = out.failed == 0 and set(out.metrics) == set(units)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"report": out.report, "problems": out.problems}, sort_keys=True))
    metrics = {k: {"value": out.metrics[k], "unit": units[k]} for k in units if k in out.metrics}
    print(json.dumps({"correct": correct, "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
