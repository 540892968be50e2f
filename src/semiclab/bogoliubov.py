"""Quadratic-Hamiltonian evolution in the truncated Fock space.

Independent routes to the same dynamics are provided and cross-checked
against each other:

- ``integrate_flow``: fixed-step fourth-order integration of the linear
  system [F; G]' = K [F; G] and of the scalar theta' = 1/2 tr H+- - hbar;
  it serves every time-dependent generator path;
- ``exponential_flow``: the exact flow of a constant generator, one matrix
  exponential of the same 2d x 2d system matrix K; ``integrate_flow`` is
  its oracle in the tests;
- ``picard_flow``: the iterated-integral (Picard) series for the same system
  in the lab frame;
- ``propagate_direct``: fourth-order integration of the truncated
  Schroedinger equation itself, which serves as the oracle for the
  Gaussian-ansatz propagator ``propagate_gaussian``.

Both routes share K and the closed-form metaplectic phase: since
d log det G = i tr H+- + i tr(conj(H++) M), the phase equation
dc/dt = -i (1/2 tr(conj(H++) M) + hbar) c integrates to
c = det(G)^(-1/2) e^(i theta), the square root continued from det G(0) = 1
along the samples of the flow.  The Riccati matrix M = F G^-1 is formed
only where it is read.

A ``GeneratorPath`` declares H_t = sum_j f_j(t) H_j: fixed generators,
validated once when built, times real scalar profiles.  Every route builds
each term's operator once, so no stepping loop builds a generator.  One
rule, ``profile_sum``, tabulates the profiles over many times and forms
every profiled sum, here and in the split-step potential of ``packets``:
each profile is evaluated once per distinct time, and a value that is not
finite is named by its term and time before any step is taken.  An RK4
step reads its right-hand side only at t, t + h/2 and t + h, and t + h is
the next step's t, so n steps read 2n + 1 times (``_stage_times``), all
from one list of steps (``_rk4_steps``).

On a linear system y' = A(tau) y a classical RK4 step is one matrix:
y -> y + D y with D = h/6 (A1 + 2 A2 S2 + 2 A2 S3 + A4 S4), built from A at
the step's start, midpoint and end and the stage maps S_i
(``_step_matrices``).  ``integrate_flow`` steps [F; G] so on every path,
forming D in batched products a block of steps at a time, and the direct
routes of a constant path do, with one D per distinct step length.  The
update is y + D y, never (1 + D) y, which rounds every step the same way
and lifts the rounding floor.  The direct routes of a time-dependent path
keep ``rk4_step`` on -i H_tau psi and tabulate only the profile values,
never one matrix per stage.  ``rk4`` with the right-hand side summed at
every stage is the oracle of each step form in the tests.

``compose_flows`` composes flows exactly, metaplectic phase included, so a
product of evolutions stays one flow until ``propagator_from_flow``.

Every fixed-step integration in the package is the one classical
fourth-order Runge-Kutta scheme on the steps of ``step_count``: the stage
form ``rk4_step`` with its driver ``rk4``, or on a linear system its step
matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .fock import (
    ConvergenceError,
    FockVector,
    GaussianData,
    ModeBasis,
    QuadraticGenerator,
    apply_ladder,
    gaussian_state,
    quadratic_matrix,
)

__all__ = [
    "rk4_step",
    "rk4",
    "step_count",
    "profile_sum",
    "GeneratorPath",
    "BogoliubovFlow",
    "FlowResiduals",
    "CreatedState",
    "FlowError",
    "integrate_flow",
    "exponential_flow",
    "flow_invariants",
    "riccati_residual",
    "picard_flow",
    "PicardResult",
    "propagate_gaussian",
    "propagate_direct",
    "DirectResult",
    "propagator_matrix",
    "propagator_from_flow",
    "compose_flows",
]


# cond(G) guard and invariant gate: defaults of ``integrate_flow``, fixed
# in ``exponential_flow``
_COND_LIMIT = 1e8
_RESIDUAL_TOL = 1e-5
_PICARD_GRID = 801  # Simpson nodes of each Picard iterate (odd)
_INVARIANT_GATE = 1e-6
_NORM_GATE = 1e-6
_RICCATI_STRIDE = 10
_STAGE_BLOCK = 64  # steps, or rows of a stage table, formed at a time


class FlowError(RuntimeError):
    """Flow integration failed a numerical health check."""


def rk4_step(rhs: Callable, t: float, y, h: float):
    """One classical fourth-order Runge-Kutta step of y' = rhs(t, y) from t."""
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, y + h / 2 * k1)
    k3 = rhs(t + h / 2, y + h / 2 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def step_count(t: float, dt: float) -> int:
    """Number of steps of at most dt that cover [0, t].

    The slack is relative, so step_count(t, t / n) == n for all n < 1e12.
    """
    if not (math.isfinite(t) and math.isfinite(dt)):
        raise ValueError(f"t and dt must be finite, got t={t}, dt={dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return max(1, math.ceil(t / dt * (1 - 1e-12))) if t > 0 else 0


def _rk4_steps(t: float, dt: float) -> list:
    """(start, length) of each step of ``rk4`` over [0, t]: steps of dt, the
    last one shortened to land on t."""
    steps, now = [], 0.0
    for _ in range(step_count(t, dt)):
        h = min(dt, t - now)
        steps.append((now, h))
        now += h
    return steps


def _stage_times(steps: Sequence[tuple]) -> list:
    """The distinct times, in order, at which RK4 over ``steps`` reads its
    right-hand side, as ``rk4_step`` forms them: each step's start and
    midpoint, then the end (2n + 1 times for n steps)."""
    times = [tau for now, h in steps for tau in (now, now + h / 2)]
    return times + [now + h for now, h in steps[-1:]]


def _rk4_run(rhs: Callable, y0, steps: Sequence[tuple], keep: bool = False):
    """``rk4`` over a list of (start, length) steps."""
    y = y0
    times, ys = [0.0], [y0]
    for now, h in steps:
        y = rk4_step(rhs, now, y, h)
        if keep:
            times.append(now + h)
            ys.append(y)
    return (np.array(times), np.array(ys)) if keep else y


def rk4(rhs: Callable, y0, t: float, dt: float, keep: bool = False):
    """Integrate y' = rhs(t, y) from y(0) = y0 to time t with ``rk4_step``.

    Steps are of size dt, the last one shortened to land on t.  Returns
    y(t), or with ``keep`` the arrays (times, states) of every step,
    starting with (0, y0).
    """
    return _rk4_run(rhs, y0, _rk4_steps(t, dt), keep)


def _step_matrices(a1, a2, a4, h) -> tuple:
    """(D, S) of classical RK4 steps of a linear system y' = A(tau) y.

    ``a1``, ``a2`` and ``a4`` hold A at each step's start, midpoint and end,
    stacked over steps or single, and ``h`` the step lengths.  The step is
    y -> y + D y with

        D = h/6 (A1 + 2 A2 S2 + 2 A2 S3 + A4 S4),

    the same tableau as ``rk4_step``, and S stacks the stage maps
    S2 = 1 + h/2 A1, S3 = 1 + h/2 A2 S2 and S4 = 1 + h A2 S3 along the axis
    after the steps: stage i of a step from y reads S_i y.
    """
    h = np.reshape(h, np.shape(h) + (1, 1))
    eye = np.eye(np.shape(a1)[-1])
    s2 = eye + h / 2 * a1
    k2 = a2 @ s2
    s3 = eye + h / 2 * k2
    k3 = a2 @ s3
    s4 = eye + h * k3
    return h / 6 * (a1 + 2 * k2 + 2 * k3 + a4 @ s4), np.stack([s2, s3, s4], axis=-3)


def _cumulative_simpson_c(y: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """Complex-valued cumulative Simpson (scipy's handles only real input)."""
    # imported here: it costs every package import ~0.25 s, and only Picard needs it
    from scipy.integrate import cumulative_simpson
    re = cumulative_simpson(y.real, dx=dx, axis=axis, initial=0.0)
    im = cumulative_simpson(y.imag, dx=dx, axis=axis, initial=0.0)
    return re + 1j * im


def _weighted(terms: Sequence[tuple], w: Sequence, parts: Sequence):
    """sum_j w[j] parts[j], summed left to right, a constant term's part
    added unscaled.  ``w`` holds one profile value per term, or one column
    of values per term shaped to broadcast against its part, which gives
    the stacked sums."""
    total = None
    for (f, _), wj, part in zip(terms, w, parts):
        if f is None:
            total = part if total is None else total + part
        else:
            scaled = wj * part
            # total + scaled, written over scaled: a table's sum holds two
            # tables at a time, not three
            total = scaled if total is None else np.add(total, scaled, out=scaled)
    return total


def profile_sum(terms: Sequence[tuple], times: Sequence[float],
                *per_term: Sequence) -> tuple:
    """The profile values and the profiled sums of a declared sum of terms,
    tabulated over ``times``.

    ``terms`` are pairs whose first entries are the real profiles f_j of t,
    None for the constant 1.  Each profile is evaluated once per time and
    the table is checked once: a value that is not finite raises, naming its
    term and the first of ``times`` at which it occurs.  Returns (w, sums):
    the table w[i, j] = f_j(times[i]), 1 for a constant term, and for each
    list ``parts`` of per-term values the stacked sums
    sum_j w[i, j] parts[j], a constant term's part added unscaled, so row i
    is bitwise the sum at times[i] alone.
    """
    times = list(times)
    w = np.ones((len(times), len(terms)))
    for j, (f, _) in enumerate(terms):
        if f is not None:
            w[:, j] = [float(f(tau)) for tau in times]
    bad = np.argwhere(~np.isfinite(w))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"the profile of term {j} is {float(w[i, j])} at t={times[i]}")
    return w, tuple(_stacked(terms, w, parts) for parts in per_term)


def _stacked(terms: Sequence[tuple], w: np.ndarray, parts: Sequence) -> np.ndarray:
    """The stacked sums sum_j w[i, j] parts[j] over the rows of a table w of
    profile values (``_weighted`` on its columns)."""
    shape = np.shape(parts[0])
    columns = w.T.reshape(w.T.shape + (1,) * len(shape))
    return np.broadcast_to(_weighted(terms, columns, parts), (len(w),) + shape)


def _stage_reader(rows: Callable[[slice], Sequence]) -> Callable:
    """The reader of a table of the terms over ``_stage_times`` for one run
    of ``rk4``: called once per stage, in order, it returns the stage's row.
    ``rk4_step`` reads t, t + h/2, t + h/2 and t + h, so stage 4k + i of
    the run reads row 2k + (0, 1, 1, 2)[i].  The rows are read in order,
    so ``rows(block)`` forms them ``_STAGE_BLOCK`` at a time, and a long run
    holds one block of a table, not all of it."""
    stages = itertools.count()
    block = [-1, None]  # first row, rows

    def read():
        s = next(stages)
        row = 2 * (s >> 2) + (0, 1, 1, 2)[s & 3]
        first = row - row % _STAGE_BLOCK
        if first != block[0]:
            block[:] = first, None
            block[1] = rows(slice(first, first + _STAGE_BLOCK))
        return block[1][row - first]

    return read


@dataclass(frozen=True)
class GeneratorPath:
    """The generator path H_t = sum_j f_j(t) H_j on [0, t_max].

    ``terms`` holds pairs (f_j, H_j) of a real profile f_j of t, or None for
    the constant 1, and a fixed ``QuadraticGenerator`` H_j, validated once
    when it was built.  The integrators build each term's operator once and
    combine the operators with the profile values, tabulated once per
    distinct stage time.
    """

    terms: Sequence[tuple[Optional[Callable[[float], float]], QuadraticGenerator]]
    t_max: float

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a generator path needs at least one term")
        if len({gen.modes for _, gen in self.terms}) != 1:
            raise ValueError("the terms of a path act on different mode counts")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")

    @property
    def modes(self) -> int:
        return self.terms[0][1].modes

    def __call__(self, t: float) -> QuadraticGenerator:
        return QuadraticGenerator(*(table[0] for table in self._blocks([t])))

    def _blocks(self, times: Sequence[float]) -> tuple:
        """(H++, H+-, hbar) of H_t stacked over ``times``, with no generator
        built."""
        gens = [gen for _, gen in self.terms]
        return profile_sum(self.terms, times, [g.hpp for g in gens],
                           [g.hpm for g in gens], [g.hbar for g in gens])[1]

    def check_time(self, t: float) -> None:
        """Reject an end time outside [0, t_max]."""
        if t < 0 or t > self.t_max + 1e-12:
            raise ValueError("t outside the path domain")

    @staticmethod
    def constant(gen: QuadraticGenerator, t_max: float) -> "GeneratorPath":
        return GeneratorPath([(None, gen)], t_max)


@dataclass(frozen=True)
class BogoliubovFlow:
    """State of the (F, G) flow at time t, with Riccati M and phase c.

    ``times`` / ``fs`` / ``gs`` hold the stored trajectory when the flow
    came out of the integrator (used for residual diagnostics).
    """

    f: np.ndarray
    g: np.ndarray
    m: np.ndarray
    c: complex
    t: float
    times: Optional[np.ndarray] = None
    fs: Optional[np.ndarray] = None
    gs: Optional[np.ndarray] = None

    @property
    def modes(self) -> int:
        return self.f.shape[0]

    @staticmethod
    def identity(modes: int) -> "BogoliubovFlow":
        eye = np.eye(modes, dtype=complex)
        z = np.zeros((modes, modes), dtype=complex)
        return BogoliubovFlow(f=z, g=eye, m=z, c=1.0 + 0j, t=0.0)


@dataclass(frozen=True)
class FlowResiduals:
    gram: float          # ||G+G - F+F - 1||
    symmetry: float      # ||F^T G - G^T F||
    riccati_consistency: float  # ||M G - F||
    g_inverse_excess: float     # max(0, ||G^-1|| - 1)

    @property
    def max(self) -> float:
        return max(self.gram, self.symmetry, self.riccati_consistency,
                   self.g_inverse_excess)


def _check_cond(g: np.ndarray, cond_limit: float) -> None:
    """The cond(G) guard, on one G or in one batched cond on a stack of them."""
    if not np.all(np.linalg.cond(g) <= cond_limit):
        raise FlowError(f"G is numerically singular (cond > {cond_limit:.1e})")


def _split_m(f: np.ndarray, g: np.ndarray, cond_limit: float) -> np.ndarray:
    """Symmetrized M = F G^-1 of one flow or of a stack of them."""
    _check_cond(g, cond_limit)
    m = np.swapaxes(np.linalg.solve(np.swapaxes(g, -1, -2),
                                    np.swapaxes(f, -1, -2)), -1, -2)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _linear_system(gen: QuadraticGenerator) -> tuple:
    """(K, theta') of a generator: [F; G]' = K [F; G], theta' = 1/2 tr H+- - hbar.

    K = [[-i H+-, -i H++], [i conj(H++), i conj(H+-)]].
    """
    hpm, hpp = gen.hpm, gen.hpp
    k = np.block([[-1j * hpm, -1j * hpp],
                  [1j * np.conj(hpp), 1j * np.conj(hpm)]])
    return k, 0.5 * float(np.trace(hpm).real) - gen.hbar


def _metaplectic_phase(gs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """c = det(G)^(-1/2) e^(i theta) at every sample of a flow from G = 1.

    The square root is continued from det G(0) = 1 by unwrapping arg det G
    over the samples, which is exact while consecutive samples differ by
    less than pi/2; a larger move raises ``FlowError``.
    """
    dets = np.linalg.det(gs)
    arg = np.unwrap(np.angle(dets))
    if np.any(np.abs(np.diff(arg)) >= math.pi / 2):
        raise FlowError("arg det G moves by pi/2 or more between samples; the "
                        "step is too coarse to continue the square-root branch")
    return np.exp(-0.5 * (np.log(np.abs(dets)) + 1j * arg) + 1j * thetas)


def _phase_angles(hs: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """theta at every step of RK4 on theta' = rate(tau) from theta(0) = 0.

    ``hs`` are the step lengths and ``rates`` the rate at the 2n + 1 stage
    times (``_stage_times``).  The increments h/6 (r1 + 2 r2 + 2 r3 + r4)
    and their running sum are the operations of ``rk4`` on the scalar, in
    its order, so the angles are bitwise its states.
    """
    mid = rates[1::2]
    steps = hs / 6 * (rates[:-1:2] + 2 * mid + 2 * mid + rates[2::2])
    return np.concatenate([[0.0], np.cumsum(steps)])


def integrate_flow(
    path: GeneratorPath,
    t: float,
    dt: float,
    cond_limit: float = _COND_LIMIT,
    residual_tol: Optional[float] = _RESIDUAL_TOL,
) -> BogoliubovFlow:
    """Integrate the linear flow equations from (F, G) = (0, 1) to time t.

    Classical RK4 steps the (2d, d) state [F; G] of the linear system
    [F; G]' = K(tau) [F; G] with a fixed dt (the final step is shortened to
    land on t exactly) and keeps every step as the trajectory.  On a linear
    system an RK4 step is one matrix: [F; G] -> [F; G] + D [F; G], with D
    and the stage maps formed by ``_step_matrices`` from K at the step's
    start, midpoint and end, in batched products ``_STAGE_BLOCK`` steps at
    a time.  Each term's K_j and theta'_j are built once, and
    ``profile_sum`` tabulates the profile values once per distinct stage
    time.  theta' = 1/2 tr H+- - hbar is summed by the same tableau
    (``_phase_angles``).  The phase c = det(G)^(-1/2) e^(i theta) is formed
    at every kept step, its root continued over them, and M = F G^-1 only
    at the end point.  The G of every stage, the bottom rows of S_i [F; G],
    is checked against ``cond_limit`` in one batched cond after the loop.
    ``rk4`` on the per-stage right-hand side K(tau) [F; G] is the oracle of
    this step form in the tests.
    """
    path.check_time(t)
    d = path.modes
    steps = _rk4_steps(t, dt)
    n = len(steps)
    hs = np.array([h for _, h in steps])
    ks, rates = zip(*(_linear_system(gen) for _, gen in path.terms))
    w = profile_sum(path.terms, _stage_times(steps))[0]
    fgs = np.empty((n + 1, 2 * d, d), dtype=complex)
    fgs[0] = fg = np.concatenate([np.zeros((d, d)), np.eye(d)]).astype(complex)
    stage_g = np.empty((n, 4, d, d), dtype=complex)
    for first in range(0, n, _STAGE_BLOCK):
        last = min(first + _STAGE_BLOCK, n)
        k = _stacked(path.terms, w[2 * first:2 * last + 1], ks)
        ds, maps = _step_matrices(k[:-1:2], k[1::2], k[2::2], hs[first:last])
        for i, step in enumerate(ds, first + 1):
            fgs[i] = fg = fg + step @ fg
        starts = fgs[first:last]
        stage_g[first:last, 0] = starts[:, d:]
        stage_g[first:last, 1:] = maps[:, :, d:] @ starts[:, None]
    _check_cond(stage_g.reshape(-1, d, d), cond_limit)
    thetas = _phase_angles(hs, _stacked(path.terms, w, rates))
    fs, gs = fgs[:, :d], fgs[:, d:]
    c = _metaplectic_phase(gs, thetas)[-1]
    f, g = fs[-1], gs[-1]
    times = np.array([0.0] + [now + h for now, h in steps])
    flow = BogoliubovFlow(
        f=f, g=g, m=_split_m(f, g, cond_limit), c=c, t=float(times[-1]),
        times=times, fs=fs, gs=gs,
    )
    if residual_tol is not None:
        res = flow_invariants(flow)
        if not res.max <= residual_tol:
            raise FlowError(
                f"flow invariants off by {res.max:.3e} > {residual_tol:.1e}; "
                "the integration step is too coarse"
            )
    return flow


def exponential_flow(gen: QuadraticGenerator, t: float) -> BogoliubovFlow:
    """Exact flow of a constant generator from (F, G) = (0, 1) to time t.

    [F; G](t) = expm(K t) [0; 1] with K = [[-i H+-, -i H++],
    [i conj(H++), i conj(H+-)]], and the phase equation integrates to

        c = det(G)^(-1/2) exp(i t/2 tr conj(H+-) - i t hbar).

    The square root is the branch continued from det G(0) = 1.  Because
    ||M|| < 1, omega = |tr H+-| + d ||H++||_2 bounds |d arg det G / dt|, so
    on a uniform grid of floor(omega t / (pi/2)) + 1 intervals consecutive
    samples of arg det G differ by less than pi/2 and unwrapping them is
    exact.  The cond(G) guard and the invariant gate are those of
    ``integrate_flow`` at its defaults; the flow carries no trajectory.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    d = gen.modes
    k, rate = _linear_system(gen)
    omega = (abs(float(np.trace(gen.hpm).real))
             + d * float(np.linalg.norm(gen.hpp, 2)))
    n = math.floor(omega * t / (math.pi / 2)) + 1 if t > 0 else 0
    # [F; G] on the unwrap grid: [0; 1] first, the flow at t last
    grid = np.linspace(0.0, t, n + 1)
    ys = np.array([expm(k * s)[:, d:] for s in grid])
    f, g = ys[-1, :d], ys[-1, d:]
    c = complex(_metaplectic_phase(ys[:, d:], rate * grid)[-1])
    flow = BogoliubovFlow(f=f, g=g, m=_split_m(f, g, _COND_LIMIT), c=c, t=float(t))
    res = flow_invariants(flow)
    if not res.max <= _RESIDUAL_TOL:
        raise FlowError(f"flow invariants off by {res.max:.3e} > {_RESIDUAL_TOL:.1e}")
    return flow


def flow_invariants(flow: BogoliubovFlow) -> FlowResiduals:
    """Residuals of the canonical relations preserved by exact flows."""
    f, g, m = flow.f, flow.g, flow.m
    eye = np.eye(flow.modes)
    gram = np.linalg.norm(g.conj().T @ g - f.conj().T @ f - eye, 2)
    sym = np.linalg.norm(f.T @ g - g.T @ f, 2)
    mg = np.linalg.norm(m @ g - f, 2)
    ginv = max(0.0, float(np.linalg.norm(np.linalg.inv(g), 2)) - 1.0)
    return FlowResiduals(float(gram), float(sym), float(mg), ginv)


def riccati_residual(flow: BogoliubovFlow, path: GeneratorPath) -> float:
    """Max residual of i dM/dt = H++ + H+- M + M H-+ + M H-- M.

    dM/dt is taken by central differences on the stored trajectory, at
    every tenth step, with the path's blocks tabulated once at those steps.
    """
    if flow.times is None or len(flow.times) < 3:
        raise ValueError("flow carries no trajectory (or it is too short)")
    times = flow.times
    ms = _split_m(flow.fs, flow.gs, 1e12)
    steps = np.diff(times)
    rows = [j for j in range(1, len(times) - 1, _RICCATI_STRIDE)
            if abs(steps[j - 1] - steps[j]) <= 1e-12 * max(steps[j - 1], steps[j])]
    hpps, hpms, _ = path._blocks([float(times[j]) for j in rows])
    worst = 0.0
    for j, hpp, hpm in zip(rows, hpps, hpms):
        dm = (ms[j + 1] - ms[j - 1]) / (steps[j - 1] + steps[j])
        m = ms[j]
        rhs = hpp + hpm @ m + m @ hpm.conj() + m @ np.conj(hpp) @ m
        worst = max(worst, float(np.linalg.norm(1j * dm - rhs, 2)))
    return worst


@dataclass(frozen=True)
class PicardResult:
    f: np.ndarray             # series sums at t
    g: np.ndarray
    term_norms: tuple


def picard_flow(
    path: GeneratorPath,
    t: float,
    n_terms: int,
    tol: Optional[float] = 1e-6,
) -> PicardResult:
    """Partial sums of the iterated-integral series for the (F, G) system.

    Works in the lab frame: Y_tau = H+-_tau, Z_tau = H++_tau, tabulated
    once over the Simpson nodes by ``profile_sum``; f/g accumulate the
    Picard iterates; the last-term norm is returned as a convergence
    certificate (and checked against ``tol`` unless None).  A t outside the
    path's domain raises ``ValueError``.
    """
    path.check_time(t)
    if n_terms < 1:
        raise ValueError("need at least one term")
    d = path.modes
    taus = np.linspace(0.0, t, _PICARD_GRID)
    zs, ys, _ = path._blocks(taus.tolist())
    f_n = np.zeros((_PICARD_GRID, d, d), dtype=complex)
    g_n = np.tile(np.eye(d, dtype=complex), (_PICARD_GRID, 1, 1))
    f_sum = f_n.copy()
    g_sum = g_n.copy()
    term_norms = [1.0]
    dx = taus[1] - taus[0]
    for _ in range(1, n_terms):
        integrand_f = np.einsum("tij,tjk->tik", ys, f_n) + np.einsum(
            "tij,tjk->tik", zs, g_n)
        integrand_g = np.einsum("tij,tjk->tik", np.conj(zs), f_n) + np.einsum(
            "tij,tjk->tik", np.conj(ys), g_n)
        f_n = -1j * _cumulative_simpson_c(integrand_f, dx=dx, axis=0)
        g_n = 1j * _cumulative_simpson_c(integrand_g, dx=dx, axis=0)
        f_sum = f_sum + f_n
        g_sum = g_sum + g_n
        term_norms.append(
            float(max(np.linalg.norm(f_n[-1]), np.linalg.norm(g_n[-1])))
        )
    last = term_norms[-1]
    if tol is not None and not last <= tol:
        raise ConvergenceError(
            f"Picard series not converged: last term norm {last:.3e} > {tol:.1e}"
        )
    return PicardResult(f=f_sum[-1], g=g_sum[-1], term_norms=tuple(term_norms))


@dataclass(frozen=True)
class CreatedState:
    """Initial data Pi_j A+[f_j] |0> with an overall scalar."""

    vectors: tuple
    scalar: complex = 1.0

    def __init__(self, vectors: Sequence[np.ndarray] = (), scalar: complex = 1.0):
        vecs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in vectors)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "scalar", complex(scalar))

    @property
    def n_created(self) -> int:
        return len(self.vectors)


def _transported_create(flow: BogoliubovFlow, vec: np.ndarray,
                        psi: FockVector) -> FockVector:
    """A_t+[f] psi = A+[conj(G) f] psi - A-[F conj(f)] psi, max leakage."""
    up = apply_ladder(np.conj(flow.g) @ vec, psi, "create")
    down = apply_ladder(flow.f @ np.conj(vec), psi, "annihilate")
    return FockVector(psi.basis, up.coeffs - down.coeffs,
                      max(up.leakage, down.leakage))


def propagate_gaussian(
    init: CreatedState,
    flow: BogoliubovFlow,
    basis: ModeBasis,
) -> FockVector:
    """Evolve a created state through the flow by the Gaussian ansatz:

        Psi_t = Pi_j A_t+[f_j] |0>_t,
        A_t+[f] = A+[conj(G) f] - A-[F conj(f)],
        |0>_t   = c exp(1/2 A+ M A+)|0>.

    A flow whose invariants are off by more than 1e-6 is rejected.
    """
    if init.n_created > basis.cutoff:
        raise ValueError("more created quanta than the cutoff")
    res = flow_invariants(flow)
    if not res.max <= _INVARIANT_GATE:
        raise FlowError(f"flow invariants off by {res.max:.3e}")
    state = gaussian_state(GaussianData(flow.m, c=flow.c), basis)
    for vec in reversed(init.vectors):
        state = _transported_create(flow, vec, state)
    if init.scalar != 1.0:
        state = FockVector(basis, init.scalar * state.coeffs, state.leakage)
    return state


def _truncated_evolution(path: GeneratorPath, basis: ModeBasis, t: float,
                         dt: float, y0: np.ndarray) -> np.ndarray:
    """y(t) of dy/dt = -i H_tau y on the truncated basis, by classical RK4.

    Each term's matrix is assembled once.  On a constant path the system is
    y' = A y with one A = -i H, so a step is y -> y + D y, D formed once per
    distinct step length (``_step_matrices``).  Otherwise the profile values
    are tabulated once and ``rk4_step`` steps y' = -i H_tau y, a stage
    summing the term matrices with its row of the table.
    """
    path.check_time(t)
    steps = _rk4_steps(t, dt)
    mats = [quadratic_matrix(gen, basis) for _, gen in path.terms]
    if all(f is None for f, _ in path.terms):
        a = -1j * _weighted(path.terms, [1.0] * len(mats), mats)
        lengths = {h for _, h in steps}
        ds = {h: _step_matrices(a, a, a, h)[0] for h in lengths}
        y = y0
        for _, h in steps:
            y = y + ds[h] @ y
        return y
    w = profile_sum(path.terms, _stage_times(steps))[0]
    w_at = _stage_reader(lambda rows: w[rows].tolist())
    return _rk4_run(lambda _, psi: -1j * (_weighted(path.terms, w_at(), mats) @ psi),
                    y0, steps)


@dataclass(frozen=True)
class DirectResult:
    state: FockVector
    norm_drift: float


def propagate_direct(
    psi0: FockVector,
    path: GeneratorPath,
    t: float,
    dt: float,
) -> DirectResult:
    """Fourth-order integration of i dPsi/dt = H_t Psi on the truncated basis.

    The compressed H_t is Hermitian, so the exact truncated flow is unitary;
    the reported norm drift isolates pure integrator error, and a drift
    above 1e-6 raises ``FlowError``.  A constant path steps y -> y + D y
    with one RK4 step matrix D per step length; a time-dependent one steps
    with ``rk4_step``, reading profile values tabulated once
    (``_truncated_evolution``).  ``rk4`` on -i H_t Psi, H_t summed at every
    stage, is its oracle in the tests.
    """
    basis = psi0.basis
    n0 = np.linalg.norm(psi0.coeffs)
    v = _truncated_evolution(path, basis, t, dt, psi0.coeffs.copy())
    drift = abs(np.linalg.norm(v) - n0)
    if not drift <= _NORM_GATE:
        raise FlowError(f"norm drift {drift:.3e} > {_NORM_GATE:.1e}")
    return DirectResult(FockVector(basis, v, psi0.leakage), float(drift))


def propagator_matrix(
    path: GeneratorPath,
    t: float,
    dt: float,
    basis: ModeBasis,
) -> np.ndarray:
    """Matrix of the time-ordered evolution on the truncated basis.

    Fourth-order integration of dU/dt = -i H_t U from U = 1, by the step
    form of ``propagate_direct`` (``_truncated_evolution``); the oracle
    realization used to validate flow-based propagators.
    """
    return _truncated_evolution(path, basis, t, dt, np.eye(basis.size, dtype=complex))


def propagator_from_flow(flow: BogoliubovFlow, basis: ModeBasis) -> tuple:
    """Realize the flow's unitary as a matrix on the truncated basis.

    Column for |n> is prod_i (A_t+[e_i])^(n_i) / sqrt(n_i!) applied to the
    transported vacuum, modes in ascending order.  The unscaled product for
    n is one more A_t+[e_l] (l the last occupied mode) applied to the
    unscaled product for n - e_l, which precedes n in the graded order, so
    each column costs a single ladder pair.  Returns (matrix, max column
    leakage), each leakage scaled like its column.
    """
    vac = gaussian_state(GaussianData(flow.m, c=flow.c), basis)
    unit = np.eye(basis.modes)
    index = basis.index
    products = []
    cols = np.empty((basis.size, basis.size), dtype=complex)
    worst_leak = vac.leakage
    for col, occ in enumerate(basis.states):
        if col == 0:
            psi = vac
        else:
            last = max(mode for mode, n in enumerate(occ) if n)
            prev = products[index[occ[:last] + (occ[last] - 1,) + occ[last + 1:]]]
            psi = _transported_create(flow, unit[last], prev)
        products.append(psi)
        scale = 1.0
        for n in occ:
            if n:
                scale *= math.factorial(n)
        cols[:, col] = psi.coeffs / math.sqrt(scale)
        worst_leak = max(worst_leak, psi.leakage / scale)
    return cols, worst_leak


def compose_flows(second: BogoliubovFlow, first: BogoliubovFlow) -> BogoliubovFlow:
    """Flow of the concatenated evolution (first, then second).

    (F, G) compose through the block transfer matrices on (B, B*) pairs,
    so G12 = G2 (1 + X) G1 with X = G2^-1 conj(F2) M1, and the phase
    is c12 = c1 c2 det(1 + X)^(-1/2): the product of the principal roots of
    the eigenvalues of 1 + X, which ||X|| < 1 keeps in the right half plane.
    """
    d = first.modes

    def transfer(fl: BogoliubovFlow) -> np.ndarray:
        top = np.hstack([np.conj(fl.g), fl.f])
        bot = np.hstack([np.conj(fl.f), fl.g])
        return np.vstack([top, bot])

    tm = transfer(second) @ transfer(first)
    g = np.conj(tm[:d, :d])
    f = tm[:d, d:]
    m = _split_m(f, g, 1e12)
    x = np.linalg.solve(second.g, np.conj(second.f) @ first.m)
    c = second.c * first.c * np.prod(1 / np.sqrt(np.linalg.eigvals(np.eye(d) + x)))
    return BogoliubovFlow(f=f, g=g, m=m, c=complex(c), t=first.t + second.t)

