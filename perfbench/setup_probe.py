"""Time the set-up a ``pdwg`` user pays in every fresh process.

Set-up is ``import pdwg`` plus construction of the workload's problems
and their level-0 meshes.  ``run.py`` calls :func:`measure_setup` first
thing in its own process and runs this file as a script for further
samples, each in a fresh interpreter:

    python3 perfbench/setup_probe.py SRC_DIR PROBLEM [PROBLEM ...]

prints the set-up seconds.  Nothing here may import numpy before the
clock starts.
"""

import sys
from time import perf_counter


def measure_setup(src_dir, problems):
    """Seconds to import ``pdwg`` from ``src_dir`` and build ``problems``."""
    sys.path.insert(0, src_dir)
    t0 = perf_counter()
    import pdwg

    for name in problems:
        pdwg.build_initial_mesh(pdwg.builtin(name).domain)
    return perf_counter() - t0


if __name__ == "__main__":
    print(repr(measure_setup(sys.argv[1], sys.argv[2:])))
