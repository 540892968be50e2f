"""The one-parameter evolution by fixed-step RK4 on a sampled generator
path, the tests' oracle for the exact route of ``symmetry.one_param_u``.

The path tau -> H(sign(t) b: X(sign(t) tau)) on [0, |t|] reads the exact
classical states at every half step, so each RK4 stage looks its state up
exactly, and ``bogoliubov.integrate_flow`` steps the linear system over it.
Nothing here assumes that the blocks of H are independent of X.
"""

import numpy as np

from semiclab.bogoliubov import GeneratorPath, integrate_flow, step_count
from semiclab.symmetry import OneParamResult


def path(fam, b, t, x, dt):
    """(path, step, states): the sampled generator path of ``step_count(|t|,
    dt)`` uniform steps, that step, and X at the half steps 0, h/2, ..., t.
    A stage time off the half-step grid raises ``ValueError``."""
    b = np.asarray(b, dtype=float)
    n_steps = step_count(abs(t), dt)
    states = fam.system.trajectory(b, np.linspace(0.0, t, 2 * n_steps + 1), x)
    half = abs(t) / n_steps / 2

    def gen(tau):
        j = int(round(tau / half))
        if abs(tau - j * half) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("generator path sampled off the stage grid")
        return fam.generator(np.sign(t) * b, states[min(j, len(states) - 1)])

    return GeneratorPath(gen, abs(t)), abs(t) / n_steps, states


def one_param_u(fam, b, t, x, dt):
    """The evolution of ``symmetry.one_param_u`` by RK4 steps of at most dt."""
    generators, step, states = path(fam, b, t, x, dt)
    return OneParamResult(integrate_flow(generators, abs(t), step), states[-1])
