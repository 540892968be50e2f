"""The box-sizing envelope through ``_DisplacementFamily.pairings``, the
tests' oracle for the family's per-axis phase tables.

The radii r of the axis grid are the nodes of axis s, and every other axis
holds the single node 0, so the pairing tensor is the column of values at
r B_s (and at -r B_s), evaluated by the general walk over the overlaps.
"""

import numpy as np


def axis_envelope(fam, y1, y2, axis, radii):
    """max(|(Y1, U[r B_s] Y2)|, |(Y1, U[-r B_s] Y2)|) for each r in radii."""

    def along(nodes):
        axes = [nodes if s == axis else np.zeros(1) for s in range(fam.plane.k)]
        return np.abs(fam.pairings(y1, y2, axes).ravel())

    return np.maximum(along(radii), along(-radii))
