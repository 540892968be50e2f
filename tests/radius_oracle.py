"""The per-axis box radius by explicit scans, the tests' oracle for
``constrained._axis_radius``.

Each search walks the envelope sample by sample: the first basin entry,
the first revival past it, and the earliest sample from which the
envelope stays below target up to the basin floor, taking the maximum of
the remaining slice at every step.
"""

import numpy as np

from semiclab.constrained import _TAIL_TARGET


def axis_radius(grid, env, scale):
    target = _TAIL_TARGET * scale
    level_in = 1e-6 * scale
    level_rev = 1e-3 * scale
    j_enter = None
    for j in range(len(grid) - 1):
        if env[j] < level_in and env[j + 1] < 10 * level_in:
            j_enter = j
            break
    if j_enter is None:
        return float(grid[int(np.argmin(env))])
    j_rev = len(grid)
    for j in range(j_enter + 1, len(grid)):
        if env[j] > level_rev:
            j_rev = j
            break
    j_floor = j_enter + int(np.argmin(env[j_enter:j_rev]))
    chosen = grid[j_floor]
    for j in range(j_floor + 1):
        if env[j: j_floor + 1].max() <= target:
            chosen = min(1.15 * grid[j], grid[j_floor])
            break
    return float(chosen)
