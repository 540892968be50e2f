"""The per-stage route of the flow layer, the tests' oracle for the
tabulated profiles and the RK4 step matrices of ``bogoliubov``.

Every RK4 stage evaluates and checks the path's profiles at its own time
and sums the terms afresh, and ``integrate_flow`` steps the packed state
[vec F, vec G, theta]; the stepping is the package's own ``rk4``, four
right-hand sides per step, where ``bogoliubov`` steps a linear system
y -> y + D y.
"""

import math

import numpy as np

from semiclab.bogoliubov import _linear_system, _metaplectic_phase, rk4
from semiclab.fock import quadratic_matrix


def profile_sum(terms, t, *per_term):
    """(w, sums) at the one time t: w_j = f_j(t), None for a constant term,
    and sum_j w_j parts[j] for each list of parts, summed left to right."""
    weights = tuple(None if f is None else float(f(t)) for f, _ in terms)
    for j, w in enumerate(weights):
        if not (w is None or math.isfinite(w)):
            raise ValueError(f"the profile of term {j} is {w} at t={t}")

    def total(parts):
        scaled = [part if w is None else w * part for w, part in zip(weights, parts)]
        return sum(scaled[1:], scaled[0])

    return weights, tuple(total(parts) for parts in per_term)


def integrate_flow(path, t, dt, stages=None):
    """(times, fs, gs, c) of ``bogoliubov.integrate_flow``, its profiles
    summed at every stage.  A list ``stages`` receives the G that each
    stage reads, in order."""
    d = path.modes
    n = 2 * d * d
    ks, rates = zip(*(_linear_system(gen) for _, gen in path.terms))

    def rhs(tau, y):
        fg = y[:n].reshape(2 * d, d)
        if stages is not None:
            stages.append(fg[d:])
        _, (k, rate) = profile_sum(path.terms, tau, ks, rates)
        return np.concatenate([(k @ fg).ravel(), [rate]])

    y0 = np.concatenate([np.zeros(d * d), np.eye(d).ravel(), [0.0]]).astype(complex)
    times, ys = rk4(rhs, y0, t, dt, keep=True)
    fgs = ys[:, :n].reshape(-1, 2 * d, d)
    fs, gs = fgs[:, :d], fgs[:, d:]
    return times, fs, gs, _metaplectic_phase(gs, ys[:, -1].real)[-1]


def schroedinger_rhs(path, basis):
    """-i H_t psi, the term matrices summed at every stage."""
    hs = [quadratic_matrix(gen, basis) for _, gen in path.terms]
    return lambda tau, psi: -1j * (profile_sum(path.terms, tau, hs)[1][0] @ psi)


def propagate_direct(psi0, path, t, dt):
    """The state of ``bogoliubov.propagate_direct``."""
    return rk4(schroedinger_rhs(path, psi0.basis), psi0.coeffs.copy(), t, dt)


def propagator_matrix(path, t, dt, basis):
    """The matrix of ``bogoliubov.propagator_matrix``."""
    return rk4(schroedinger_rhs(path, basis), np.eye(basis.size, dtype=complex), t, dt)
