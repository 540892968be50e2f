"""su11 and heisenberg as they were declared by hand, the oracle of the
families that ``GeneratorFamily.from_forms`` derives from the classical
forms: each direction's representation matrix, its quadratic generator
blocks and its scalar hbar_i(X), written out apart.
"""

import numpy as np

from semiclab.fock import QuadraticGenerator


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
