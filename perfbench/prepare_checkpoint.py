"""Write the INT8 checkpoint the inference workload loads.

    python3 perfbench/prepare_checkpoint.py WORKLOAD SEED PATH

Started by ``run.py`` as a child process, so preparing the checkpoint adds
nothing to the workload's timing or memory peak.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import workloads

    name, seed, path = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.prepare_checkpoint(workloads.WORKLOADS[name], seed, path)
