"""The classical flow by fixed-step RK4, the tests' oracle for the exact
transport of ``symmetry.ClassicalSystem``.

The field is written out term by term from Hamilton's equations of
h = w^T H w on w = (q, p, 1), q and p in R^n, sharing nothing with the
package's block exponential but the declared forms, and stepped with
``bogoliubov.rk4``.
"""

import numpy as np

from semiclab.bogoliubov import rk4


def field(forms, a, x):
    """(S', Q', P') at x = (S, Q, P), Q and P of n degrees of freedom, along
    the direction a."""
    h = np.tensordot(np.asarray(a, dtype=float), forms, axes=1)
    n = len(x) // 2
    q, p = x[1:n + 1], x[n + 1:]
    w = np.concatenate([q, p, [1.0]])
    dq = 2 * h[n:2 * n] @ w  # dh/dp
    dp = -2 * h[:n] @ w  # -dh/dq
    return np.concatenate([[p @ dq - w @ h @ w], dq, dp])


def flow(forms, a, t, x, dt):
    """X(t) from X(0) = x by RK4 steps of at most dt; backwards for t < 0
    as the forward flow of -a."""
    a = np.sign(t) * np.asarray(a, dtype=float)
    return rk4(lambda _, y: field(forms, a, y),
               np.asarray(x, dtype=float), abs(t), dt)
