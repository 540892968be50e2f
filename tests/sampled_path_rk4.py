"""The one-parameter evolution by fixed-step RK4 on a sampled generator
path, the tests' oracle for the exact route of ``symmetry.one_param_u``.

The path tau -> H(sign(t) b: X(sign(t) tau)) on [0, |t|] reads the exact
classical states at every half step, so each RK4 stage looks its state up
exactly, and ``bogoliubov.integrate_flow`` steps the linear system over it.
The path is declared over a real basis of the quadratic generators on d
modes (4 on one mode, 11 on two): each basis generator's profile is its
coordinate in H.  The blocks of a family do not move with X, so their
coordinates are read once, from the contraction of the family's fixed
blocks; the scalar's coordinate is the family's scalar table at the
stage's half step, so RK4 integrates the scalar along the path, with no
use of the action identity of the exact route.
"""

import itertools

import numpy as np

from semiclab.bogoliubov import GeneratorPath, integrate_flow, step_count
from semiclab.fock import QuadraticGenerator
from semiclab.symmetry import OneParamResult


def real_basis(d):
    """(coordinate, generator) pairs of a real basis of the quadratic
    generators on d modes: H = sum coordinate(H) * generator."""
    out = []
    for i, j in itertools.combinations_with_replacement(range(d), 2):
        sym = np.zeros((d, d), dtype=complex)
        sym[i, j] = sym[j, i] = 1.0
        out += [
            (lambda g, i=i, j=j: g.hpp[i, j].real,
             QuadraticGenerator.from_blocks(hpp=sym)),
            (lambda g, i=i, j=j: g.hpp[i, j].imag,
             QuadraticGenerator.from_blocks(hpp=1j * sym)),
            (lambda g, i=i, j=j: g.hpm[i, j].real,
             QuadraticGenerator.from_blocks(hpm=sym)),
        ]
        if i < j:
            skew = np.zeros((d, d), dtype=complex)
            skew[i, j], skew[j, i] = 1j, -1j
            out.append((lambda g, i=i, j=j: g.hpm[i, j].imag,
                        QuadraticGenerator.from_blocks(hpm=skew)))
    out.append((lambda g: g.hbar, QuadraticGenerator.from_blocks(modes=d, hbar=1.0)))
    return out


def path(fam, b, t, x, dt):
    """(path, step, states): the sampled generator path of ``step_count(|t|,
    dt)`` uniform steps, that step, and X at the half steps 0, h/2, ..., t.
    A stage time off the half-step grid raises ``ValueError``."""
    b = np.asarray(b, dtype=float)
    n_steps = step_count(abs(t), dt)
    states = fam.system.trajectory(b, np.linspace(0.0, t, 2 * n_steps + 1), x)
    half = abs(t) / n_steps / 2
    basis = real_basis(fam.modes)
    signed = np.sign(t) * b
    blocks = fam._generator(signed, 0.0)
    coords = np.tile([coord(blocks) for coord, _ in basis], (len(states), 1))
    # the last coordinate of real_basis is the scalar: the table on (1, Q, P)
    scalars = np.column_stack([np.ones(len(states)), states[:, 1:]]) @ fam._scalars.T
    coords[:, -1] = scalars @ signed

    def profile(k):
        def at(tau):
            j = int(round(tau / half))
            if abs(tau - j * half) > 1e-9 * max(1.0, abs(t)):
                raise ValueError("generator path sampled off the stage grid")
            return coords[min(j, len(coords) - 1), k]
        return at

    terms = [(profile(k), gen) for k, (_, gen) in enumerate(basis)]
    return GeneratorPath(terms, abs(t)), abs(t) / n_steps, states


def one_param_u(fam, b, t, x, dt):
    """The evolution of ``symmetry.one_param_u`` by RK4 steps of at most dt."""
    generators, step, states = path(fam, b, t, x, dt)
    return OneParamResult(integrate_flow(generators, abs(t), step), states[-1])
