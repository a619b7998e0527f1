"""One set-up, timed from outside by run.py: a fresh interpreter imports
`atkernel` and builds a workload's inputs, then exits.

    python3 perfbench/probe.py <workload> <seed> <workdir>
"""
import sys
from pathlib import Path

if __name__ == "__main__":
    import atkernel  # noqa: F401  (the import is part of what is measured)
    import cases

    cases.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
