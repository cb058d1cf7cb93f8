"""One cold start of a workload, run in a fresh interpreter by run.py.

Imports cptsim, builds the inputs of the workload's first op (generating
and parsing its YAML for the scenario workloads), then makes one signal
evaluation and one ``zero_crossing`` on the workload's signal path, so
imports cptsim defers to first use are paid here.  run.py times the whole
process from launch to exit; this script prints nothing.

    python3 perfbench/coldstart.py <workload> <seed>
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the src path above)


def main(name: str, seed: int) -> None:
    workload = workloads.make(name, seed, os.path.join(ROOT, ".perfbench"))
    workload.first_use(workload.inputs(0))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
