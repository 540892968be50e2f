"""u2, su11 and heisenberg as they were declared by hand, the oracle of the
families that ``GeneratorFamily`` derives from the classical forms: each
direction's representation matrix, its quadratic generator blocks and its
scalar hbar_i(X), written out apart.
"""

import numpy as np

from semiclab.fock import QuadraticGenerator


def u2():
    """(rep, generators, scalars) of the particle-conserving A+ h_i A- on two
    modes, h_i = diag(1, 0), diag(0, 1), sigma_x and sigma_y, rep -i h_i."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    hs = [
        np.diag([1.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0]).astype(complex),
        sx,
        sy,
    ]
    return ([-1j * h for h in hs], [QuadraticGenerator.from_blocks(hpm=h) for h in hs],
            lambda x: np.zeros(4))


def su11(central_offset=0.0):
    """(rep, generators, scalars) of rotation B0 and squeezes B1, B2."""
    rep = [
        np.array([[0.0, 0.5], [-0.5, 0.0]]),
        np.array([[0.0, -0.5], [-0.5, 0.0]]),
        np.array([[0.5, 0.0], [0.0, -0.5]]),
    ]
    generators = [
        QuadraticGenerator.from_blocks(hpm=[[0.5]]),
        QuadraticGenerator.from_blocks(hpp=[[0.5]]),
        QuadraticGenerator.from_blocks(hpp=[[0.5j]]),
    ]
    return rep, generators, lambda x: np.array([0.25 + central_offset, 0.0, 0.0])


def heisenberg(central_offset=0.0):
    """(rep, generators, scalars) of the translations B_q, B_p and B_c."""
    e12, e23, e13 = np.zeros((3, 3, 3))
    e12[0, 1] = e23[1, 2] = e13[0, 2] = 1.0
    generators = [QuadraticGenerator.from_blocks(modes=1)] * 3
    return ([e12, e23, e13], generators,
            lambda x: np.array([x[2] / 2, -x[1] / 2, 1.0 + central_offset]))


def generator(declared, a, x):
    """H(a: X) = sum_i a_i G_i + a . scalars(X) of a hand declaration."""
    _, generators, scalars = declared
    hpp, hpm = np.tensordot(a, [[g.hpp, g.hpm] for g in generators], 1)
    return QuadraticGenerator(hpp, hpm, float(a @ scalars(x)))
