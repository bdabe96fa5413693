"""Set-up probe: import logmink, build the bandwidth-L grid, force its operators.

Run as ``python3 perfbench/probe.py SRC_DIR L``; prints ``ready`` once the grid
operators exist.  The parent times this process from spawn to that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402
from logmink import build_grid  # noqa: E402

grid = build_grid(int(sys.argv[2]))
grid.analyze_values(np.ones(grid.n_nodes))
print("ready", flush=True)
