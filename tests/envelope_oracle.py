"""The box-sizing envelope through ``_DisplacementFamily.pairings``, the
tests' oracle for the family's per-axis phase tables.

Each radius r of the axis grid is a pairing node r B_s (and -r B_s) with
every other coordinate zero, evaluated by the general pairing path: the
k = 1 product or, on two axes, the table through W = V1+ V2.
"""

import numpy as np


def axis_envelope(fam, y1, y2, axis, radii):
    """max(|(Y1, U[r B_s] Y2)|, |(Y1, U[-r B_s] Y2)|) for each r in radii."""
    nodes = np.zeros((len(radii), fam.plane.k))
    nodes[:, axis] = radii
    plus = np.abs(fam.pairings(y1, y2, nodes))
    nodes[:, axis] = -radii
    minus = np.abs(fam.pairings(y1, y2, nodes))
    return np.maximum(plus, minus)
