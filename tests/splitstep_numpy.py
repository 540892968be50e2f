"""The split-step loop on ``numpy.fft``, allocating fresh arrays each step,
the tests' oracle for the in-place ``scipy.fft`` loop of
``packets.splitstep_evolve``.

Same fused Strang steps (half kick, then kinetic step and full kick, the
last kick a half one), same step count and same operand order, so on one
FFT backend the two agree to the last bit.  The potential is a callable of
(x, t), evaluated afresh at every kick, where ``splitstep_evolve`` sums
declared terms and reuses a kick's phase while the profile values stay.
"""

import numpy as np

from semiclab.bogoliubov import step_count


def evolve(psi0, potential, mass, t, dt):
    """Samples of psi(t) from the GridWave psi0 under the potential V(x, t),
    a callable evaluated at every kick, and the mass."""
    n_steps = step_count(t, dt)
    lam, grid = psi0.lam, psi0.grid
    k = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    x = grid.points
    h = t / max(n_steps, 1)
    kinetic = np.exp(-0.5j * h * lam * k**2 / mass)

    def kick(scale, now):
        return np.exp(scale * potential(x, now) / lam)

    half, full = -0.5j * h, -1j * h
    vals = psi0.values * kick(half, 0.0)
    now = 0.0
    for step in range(n_steps):
        vals = np.fft.ifft(kinetic * np.fft.fft(vals))
        now += h
        vals = vals * kick(full if step < n_steps - 1 else half, now)
    return vals
