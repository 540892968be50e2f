"""Quadratic-Hamiltonian evolution in the truncated Fock space.

Independent routes to the same dynamics are provided and cross-checked
against each other:

- ``integrate_flow``: fixed-step fourth-order integration of the linear
  (F, G) system, with the Riccati matrix M = F G^-1 and the scalar phase c
  carried along; it serves every time-dependent generator path;
- ``exponential_flow``: the exact flow of a constant generator, one matrix
  exponential of the 2d x 2d system matrix with the phase in closed form
  and its square-root branch continued explicitly; ``integrate_flow`` is
  its oracle in the tests;
- ``picard_flow``: the iterated-integral (Picard) series for the same system
  in the interaction picture of the constant single-particle part L;
- ``propagate_direct``: fourth-order integration of the truncated
  Schroedinger equation itself, which serves as the oracle for the
  Gaussian-ansatz propagator ``propagate_gaussian``.

Every fixed-step integration in the package goes through one fourth-order
Runge-Kutta step ``rk4_step`` and one driver ``rk4`` with its step count
``step_count``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson
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
    "trajectory_to_csv",
]


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
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return max(1, math.ceil(t / dt * (1 - 1e-12))) if t > 0 else 0


def rk4(rhs: Callable, y0, t: float, dt: float, keep: bool = False):
    """Integrate y' = rhs(t, y) from y(0) = y0 to time t with ``rk4_step``.

    Steps are of size dt, the last one shortened to land on t.  Returns
    y(t), or with ``keep`` the arrays (times, states) of every step,
    starting with (0, y0).
    """
    now, y = 0.0, y0
    times, ys = [now], [y0]
    for _ in range(step_count(t, dt)):
        h = min(dt, t - now)
        y = rk4_step(rhs, now, y, h)
        now += h
        if keep:
            times.append(now)
            ys.append(y)
    return (np.array(times), np.array(ys)) if keep else y


def _cumulative_simpson_c(y: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """Complex-valued cumulative Simpson (scipy's handles only real input)."""
    re = cumulative_simpson(y.real, dx=dx, axis=axis, initial=0.0)
    im = cumulative_simpson(y.imag, dx=dx, axis=axis, initial=0.0)
    return re + 1j * im


@dataclass(frozen=True)
class GeneratorPath:
    """Time-dependent quadratic generator t -> H_t on [0, t_max].

    The constant single-particle block L must not vary along the path (it
    is the interaction-picture pivot).
    """

    generator: Callable[[float], QuadraticGenerator]
    t_max: float

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        probes = [self.generator(s * self.t_max) for s in (0.0, 0.5, 1.0)]
        l0 = probes[0].l_const
        for g in probes[1:]:
            if not np.allclose(g.l_const, l0, atol=1e-12):
                raise ValueError("the constant block L must be time-independent")

    @property
    def modes(self) -> int:
        return self.generator(0.0).modes

    def __call__(self, t: float) -> QuadraticGenerator:
        return self.generator(t)

    def check_time(self, t: float) -> None:
        """Reject an end time outside [0, t_max]."""
        if t < 0 or t > self.t_max + 1e-12:
            raise ValueError("t outside the path domain")

    @staticmethod
    def constant(gen: QuadraticGenerator, t_max: float) -> "GeneratorPath":
        return GeneratorPath(lambda t: gen, t_max)

    @staticmethod
    def from_samples(times: Sequence[float], gens: Sequence[QuadraticGenerator]):
        """Piecewise-linear interpolation of sampled generators."""
        times = np.asarray(times, dtype=float)
        if len(times) < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("need at least two strictly increasing sample times")
        gens = list(gens)
        l0 = gens[0].l_const

        def interp(t: float) -> QuadraticGenerator:
            j = int(np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2))
            w = (t - times[j]) / (times[j + 1] - times[j])
            w = float(np.clip(w, 0.0, 1.0))
            a, b = gens[j], gens[j + 1]
            return QuadraticGenerator(
                hpp=(1 - w) * a.hpp + w * b.hpp,
                l_const=l0,
                hsmall=(1 - w) * a.hsmall + w * b.hsmall,
                hbar=(1 - w) * a.hbar + w * b.hbar,
            )

        return GeneratorPath(interp, float(times[-1]))


@dataclass(frozen=True)
class BogoliubovFlow:
    """State of the (F, G) flow at time t, with Riccati M and phase c.

    ``times`` / ``fs`` / ``gs`` / ``cs`` hold the stored trajectory when the
    flow came out of the integrator (used for residual diagnostics).
    """

    f: np.ndarray
    g: np.ndarray
    m: np.ndarray
    c: complex
    t: float
    times: Optional[np.ndarray] = None
    fs: Optional[np.ndarray] = None
    gs: Optional[np.ndarray] = None
    cs: Optional[np.ndarray] = None

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


def _split_m(f: np.ndarray, g: np.ndarray, cond_limit: float) -> np.ndarray:
    if np.linalg.cond(g) > cond_limit:
        raise FlowError(f"G is numerically singular (cond > {cond_limit:.1e})")
    m = np.linalg.solve(g.T, f.T).T
    return 0.5 * (m + m.T)


def integrate_flow(
    path: GeneratorPath,
    t: float,
    dt: float,
    cond_limit: float = 1e8,
    residual_tol: Optional[float] = 1e-5,
) -> BogoliubovFlow:
    """Integrate the linear flow equations from (F, G) = (0, 1) to time t.

    ``rk4`` steps the packed state [vec F, vec G, c] with a fixed dt (the
    final step is shortened to land on t exactly) and keeps every step as
    the trajectory.  M is recovered as F G^-1 and symmetrized at every
    evaluation; c solves the phase equation alongside.
    """
    path.check_time(t)
    d = path.modes
    n = d * d

    def rhs(tau, y):
        f, g, c = y[:n].reshape(d, d), y[n:2 * n].reshape(d, d), y[-1]
        gen = path(tau)
        hpm, hpp = gen.hpm, gen.hpp
        df = -1j * (hpm @ f + hpp @ g)
        dg = 1j * (np.conj(hpm) @ g + np.conj(hpp) @ f)
        m = _split_m(f, g, cond_limit)
        dc = -1j * (0.5 * np.trace(np.conj(hpp) @ m) + gen.hbar) * c
        return np.concatenate([df.ravel(), dg.ravel(), [dc]])

    y0 = np.concatenate([np.zeros(n), np.eye(d).ravel(), [1.0]]).astype(complex)
    times, ys = rk4(rhs, y0, t, dt, keep=True)
    fs, gs = ys[:, :n].reshape(-1, d, d), ys[:, n:2 * n].reshape(-1, d, d)
    f, g = fs[-1], gs[-1]
    flow = BogoliubovFlow(
        f=f, g=g, m=_split_m(f, g, cond_limit), c=ys[-1, -1], t=float(times[-1]),
        times=times, fs=fs, gs=gs, cs=ys[:, -1],
    )
    if residual_tol is not None:
        res = flow_invariants(flow)
        if res.max > residual_tol:
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
    on a uniform grid of ceil(omega t / (pi/2)) intervals consecutive
    samples of arg det G differ by less than pi/2 and unwrapping them is
    exact.  The cond(G) guard and the invariant gate are those of
    ``integrate_flow`` at its defaults; the flow carries no trajectory.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    d = gen.modes
    hpm, hpp = gen.hpm, gen.hpp
    k = np.block([[-1j * hpm, -1j * hpp],
                   [1j * np.conj(hpp), 1j * np.conj(hpm)]])
    trace = float(np.trace(hpm).real)
    omega = abs(trace) + d * float(np.linalg.norm(hpp, 2))
    n = max(1, math.ceil(omega * t / (math.pi / 2))) if t > 0 else 0
    # [F; G] on the unwrap grid: [0; 1] first, the flow at t last
    ys = np.array([expm(k * s)[:, d:] for s in np.linspace(0.0, t, n + 1)])
    f, g = ys[-1, :d], ys[-1, d:]
    dets = np.linalg.det(ys[:, d:])
    arg = float(np.unwrap(np.angle(dets))[-1])
    log_det = math.log(abs(dets[-1])) + 1j * arg
    c = complex(np.exp(-0.5 * log_det + 0.5j * t * trace - 1j * t * gen.hbar))
    flow = BogoliubovFlow(f=f, g=g, m=_split_m(f, g, 1e8), c=c, t=float(t))
    res = flow_invariants(flow)
    if res.max > 1e-5:
        raise FlowError(f"flow invariants off by {res.max:.3e} > 1.0e-05")
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


def riccati_residual(flow: BogoliubovFlow, path: GeneratorPath, stride: int = 10) -> float:
    """Max residual of i dM/dt = H++ + H+- M + M H-+ + M H-- M.

    dM/dt is taken by central differences on the stored trajectory.
    """
    if flow.times is None or len(flow.times) < 3:
        raise ValueError("flow carries no trajectory (or it is too short)")
    times, fs, gs = flow.times, flow.fs, flow.gs
    ms = []
    for f, g in zip(fs, gs):
        ms.append(_split_m(f, g, 1e12))
    ms = np.array(ms)
    worst = 0.0
    idx = range(1, len(times) - 1, max(1, stride))
    for j in idx:
        h1, h2 = times[j] - times[j - 1], times[j + 1] - times[j]
        if abs(h1 - h2) > 1e-12 * max(h1, h2):
            continue
        dm = (ms[j + 1] - ms[j - 1]) / (h1 + h2)
        gen = path(float(times[j]))
        hpm, hpp = gen.hpm, gen.hpp
        m = ms[j]
        rhs = hpp + hpm @ m + m @ hpm.conj() + m @ np.conj(hpp) @ m
        worst = max(worst, float(np.linalg.norm(1j * dm - rhs, 2)))
    return worst


@dataclass(frozen=True)
class PicardResult:
    f: np.ndarray             # interaction-picture series sum
    g: np.ndarray
    f_lab: np.ndarray         # converted back: F = e^(-iLt) f, G = e^(iL*t) g
    g_lab: np.ndarray
    term_norms: tuple
    last_term_norm: float


def picard_flow(
    path: GeneratorPath,
    t: float,
    n_terms: int,
    n_grid: int = 801,
    tol: Optional[float] = 1e-6,
) -> PicardResult:
    """Partial sums of the iterated-integral series for the (F, G) system.

    Works in the interaction picture of the constant block L:
    Y_tau = e^(iL tau) Hsmall_tau e^(-iL tau),
    Z_tau = e^(iL tau) H++_tau e^(iL* tau),
    f/g accumulate the Picard iterates; the last-term norm is returned as a
    convergence certificate (and checked against ``tol`` unless None).
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    if n_grid < 5 or n_grid % 2 == 0:
        raise ValueError("n_grid must be odd and >= 5")
    d = path.modes
    taus = np.linspace(0.0, t, n_grid)
    gen0 = path(0.0)
    lw, lv = np.linalg.eigh(gen0.l_const)

    def e_il(tau):  # e^{i L tau}
        return (lv * np.exp(1j * lw * tau)) @ lv.conj().T

    ys = np.empty((n_grid, d, d), dtype=complex)
    zs = np.empty((n_grid, d, d), dtype=complex)
    for j, tau in enumerate(taus):
        gen = path(float(tau))
        e_plus = e_il(tau)
        e_minus = e_plus.conj().T
        ys[j] = e_plus @ gen.hsmall @ e_minus
        zs[j] = e_plus @ gen.hpp @ e_plus.T  # e^{iL* tau} = (e^{iL tau})^T
    f_n = np.zeros((n_grid, d, d), dtype=complex)
    g_n = np.tile(np.eye(d, dtype=complex), (n_grid, 1, 1))
    f_sum = f_n.copy()
    g_sum = g_n.copy()
    term_norms = [1.0]
    dx = taus[1] - taus[0] if n_grid > 1 else 0.0
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
    if tol is not None and last > tol:
        raise ConvergenceError(
            f"Picard series not converged: last term norm {last:.3e} > {tol:.1e}"
        )
    f_i, g_i = f_sum[-1], g_sum[-1]
    e_plus = e_il(t)
    f_lab = e_plus.conj().T @ f_i
    g_lab = e_plus.T @ g_i  # e^{iL* t} = (e^{iL t})^T
    return PicardResult(
        f=f_i, g=g_i, f_lab=f_lab, g_lab=g_lab,
        term_norms=tuple(term_norms), last_term_norm=last,
    )


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


def propagate_gaussian(
    init: CreatedState,
    flow: BogoliubovFlow,
    basis: ModeBasis,
    invariant_tol: float = 1e-6,
) -> FockVector:
    """Evolve a created state through the flow by the Gaussian ansatz:

        Psi_t = Pi_j A_t+[f_j] |0>_t,
        A_t+[f] = A+[conj(G) f] - A-[F conj(f)],
        |0>_t   = c exp(1/2 A+ M A+)|0>.
    """
    if init.n_created > basis.cutoff:
        raise ValueError("more created quanta than the cutoff")
    res = flow_invariants(flow)
    if res.max > invariant_tol:
        raise FlowError(f"flow invariants off by {res.max:.3e}")
    state = gaussian_state(GaussianData(flow.m, c=flow.c), basis)
    for vec in reversed(init.vectors):
        created = apply_ladder(np.conj(flow.g) @ vec, state, "create")
        killed = apply_ladder(flow.f @ np.conj(vec), state, "annihilate")
        state = FockVector(basis, created.coeffs - killed.coeffs,
                           max(created.leakage, killed.leakage))
    if init.scalar != 1.0:
        state = FockVector(basis, init.scalar * state.coeffs, state.leakage)
    return state


def _schroedinger_rhs(path: GeneratorPath, basis: ModeBasis) -> Callable:
    """The right-hand side -i H_t psi of the truncated Schroedinger equation."""
    return lambda tau, psi: -1j * (quadratic_matrix(path(tau), basis) @ psi)


@dataclass(frozen=True)
class DirectResult:
    state: FockVector
    norm_drift: float


def propagate_direct(
    psi0: FockVector,
    path: GeneratorPath,
    t: float,
    dt: float,
    norm_tol: Optional[float] = 1e-6,
) -> DirectResult:
    """Fourth-order integration of i dPsi/dt = H_t Psi on the truncated basis.

    The compressed H_t is Hermitian, so the exact truncated flow is unitary;
    the reported norm drift isolates pure integrator error.
    """
    path.check_time(t)
    basis = psi0.basis
    n0 = np.linalg.norm(psi0.coeffs)
    v = rk4(_schroedinger_rhs(path, basis), psi0.coeffs.copy(), t, dt)
    drift = abs(np.linalg.norm(v) - n0)
    if norm_tol is not None and drift > norm_tol:
        raise FlowError(f"norm drift {drift:.3e} > {norm_tol:.1e}")
    return DirectResult(FockVector(basis, v, psi0.leakage), float(drift))


def propagator_matrix(
    path: GeneratorPath,
    t: float,
    dt: float,
    basis: ModeBasis,
) -> np.ndarray:
    """Matrix of the time-ordered evolution on the truncated basis.

    Fourth-order integration of dU/dt = -i H_t U from U = 1; the oracle
    realization used to validate flow-based propagators.
    """
    path.check_time(t)
    return rk4(_schroedinger_rhs(path, basis), np.eye(basis.size, dtype=complex), t, dt)


def propagator_from_flow(flow: BogoliubovFlow, basis: ModeBasis) -> tuple:
    """Realize the flow's unitary as a matrix on the truncated basis.

    Column for |n> is prod_i (A_t+[e_i])^(n_i) / sqrt(n_i!) applied to the
    transported vacuum, modes in ascending order.  The unscaled product for
    n is one more A_t+[e_l] (l the last occupied mode) applied to the
    unscaled product for n - e_l, which precedes n in the graded order, so
    each column costs a single ladder pair.  Returns (matrix, max column
    leakage).
    """
    d = basis.modes
    vac = gaussian_state(GaussianData(flow.m, c=flow.c), basis)
    unit = np.eye(d)
    created = [np.conj(flow.g) @ unit[mode] for mode in range(d)]
    killed = [flow.f @ unit[mode] for mode in range(d)]  # conj(e_mode) = e_mode
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
            up = apply_ladder(created[last], prev, "create")
            down = apply_ladder(killed[last], prev, "annihilate")
            psi = FockVector(basis, up.coeffs - down.coeffs,
                             max(up.leakage, down.leakage))
        products.append(psi)
        scale = 1.0
        for n in occ:
            if n:
                scale *= math.factorial(n)
        cols[:, col] = psi.coeffs / math.sqrt(scale)
        worst_leak = max(worst_leak, psi.leakage)
    return cols, worst_leak


def compose_flows(second: BogoliubovFlow, first: BogoliubovFlow) -> BogoliubovFlow:
    """Flow of the concatenated evolution (first, then second).

    Composition acts through the block transfer matrix on (B, B*) pairs.
    The scalar is the naive product c2 * c1: the metaplectic phase
    correction of a Gaussian passing through the second flow is not applied
    here, so only (F, G, M) should be trusted downstream; fiber operators
    with correct phases come from per-factor propagation instead.
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
    return BogoliubovFlow(f=f, g=g, m=m, c=second.c * first.c,
                          t=first.t + second.t)


def trajectory_to_csv(flow: BogoliubovFlow, path_out, path: Optional[GeneratorPath] = None):
    """Write the stored trajectory as CSV: t, vec(F), vec(G), vec(M), c, residuals."""
    if flow.times is None:
        raise ValueError("flow carries no trajectory")
    d = flow.modes
    with open(path_out, "w", newline="") as fh:
        w = csv.writer(fh)
        head = ["t"]
        for name in ("F", "G", "M"):
            for i in range(d):
                for j in range(d):
                    head += [f"{name}{i}{j}_re", f"{name}{i}{j}_im"]
        head += ["c_re", "c_im", "res_gram", "res_sym", "res_mg", "res_ginv"]
        w.writerow(head)
        for k, tk in enumerate(flow.times):
            fk, gk, ck = flow.fs[k], flow.gs[k], flow.cs[k]
            mk = _split_m(fk, gk, 1e12)
            snap = BogoliubovFlow(f=fk, g=gk, m=mk, c=ck, t=float(tk))
            res = flow_invariants(snap)
            row = [f"{tk:.12g}"]
            for mat in (fk, gk, mk):
                for val in mat.reshape(-1):
                    row += [f"{val.real:.15g}", f"{val.imag:.15g}"]
            row += [f"{ck.real:.15g}", f"{ck.imag:.15g}",
                    f"{res.gram:.3e}", f"{res.symmetry:.3e}",
                    f"{res.riccati_consistency:.3e}", f"{res.g_inverse_excess:.3e}"]
            w.writerow(row)
