"""The explicit per-node displacement product, the tests' oracle for
``_DisplacementFamily.pairings`` on any number of axes.

At each node (b_1, ..., b_k) of the tensor grid, Y2 is multiplied by
U_s(b_s) = V_s e^(b_s lam_s) V_s+ for s = k down to 1, every factor a full
matrix-vector product, and then paired with Y1; no overlap, no folding of
the vectors and no reordering of the products.
"""

import itertools

import numpy as np


def pairings(fam, y1, y2, axes):
    """(Y1, U_1(b_1) ... U_k(b_k) Y2) on the tensor grid of ``axes``."""
    z1, z2 = y1.embed(fam.big).coeffs, y2.embed(fam.big).coeffs
    adjoints = [v.conj().T for _, v in fam.eigs]
    out = np.empty([len(b) for b in axes], dtype=complex)
    for index in itertools.product(*(range(len(b)) for b in axes)):
        vec = z2
        for s in range(len(axes) - 1, -1, -1):
            lam, v = fam.eigs[s]
            vec = v @ (np.exp(axes[s][index[s]] * lam) * (adjoints[s] @ vec))
        out[index] = np.vdot(z1, vec)
    return out
