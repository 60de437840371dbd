"""Set one training workload up in a fresh interpreter, then exit.

``setup_s`` of the training workloads is the wall clock of this script: the
interpreter start, importing ``repro``, and building the workload's inputs
(dataset, configuration, search and, where used, a fresh store), so work
moved into import time or set-up shows.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED RUN_DIR INDEX``
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    workload, seed, run_dir, index = argv
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import WORKLOADS

    WORKLOADS[workload].setup(int(seed), Path(run_dir), int(index))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
