"""Dense ladder matrices built state by state, the tests' independent oracle.

The package keeps each a_i only as an index map (``fock.ladder_table``);
these matrices are rebuilt here from the occupation states alone, so the
oracle shares nothing with the table but the basis ordering.
"""

import math

import numpy as np


def lowering_matrices(basis):
    """Dense complex a_i, one per mode, on ``basis``."""
    index = {s: k for k, s in enumerate(basis.states)}
    mats = []
    for i in range(basis.modes):
        a = np.zeros((basis.size, basis.size), dtype=complex)
        for col, s in enumerate(basis.states):
            n = s[i]
            if n > 0:
                lowered = s[:i] + (n - 1,) + s[i + 1:]
                a[index[lowered], col] = math.sqrt(n)
        mats.append(a)
    return mats


def ladder_matrix(f, basis):
    """Dense A+[f] - A-[f*] = sum_i f_i a+_i - conj(f_i) a_i."""
    a = lowering_matrices(basis)
    return sum(fi * ai.conj().T - np.conj(fi) * ai for fi, ai in zip(f, a))
