"""Dense ladder matrices built state by state, the tests' independent oracle.

The package keeps each a_i only as an index map (``fock.ladder_table``);
these matrices are rebuilt here from the occupation states alone, so the
oracle shares nothing with the table but the basis ordering.  The dense
eigensolve of a displacement, which the package factors by grade and
Hermite Jacobi block, is done here with ``np.linalg.eigh``.
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


def state_phases(b, basis):
    """i^|n| e^(i n.phi) per occupation state n, for b_j = |b_j| e^(i phi_j)."""
    turns = np.array([1, 1j, -1, -1j])[basis.totals % 4]
    return turns * np.exp(1j * (np.array(basis.states) @ np.angle(b)))


def displacement_eig(b, basis):
    """The dense route to ``fock.displacement_eig``: eigh of the real
    symmetric X = sum_j |b_j| (a_j + a_j^T), whose eigenvectors carry the
    per-state phases.  Returns (lam, v) with lam = -i w, w ascending."""
    x = sum(abs(bj) * aj.real for bj, aj in zip(b, lowering_matrices(basis)))
    w, q = np.linalg.eigh(x + x.T)
    return -1j * w, state_phases(b, basis)[:, None] * q
