"""Prebuilt algebra families and verification scenarios.

Each family is declared by its classical forms alone, plus constant scalar
offsets; its algebra, generators, scalars and fiber form are their Weyl
quantization (``GeneratorFamily``).  They are chosen so that every
consistency identity has an independent closed-form anchor:

- ``u2_family``: passive rotations of two modes, whose generators are the
  particle-conserving A+ h A-; every direction fixes X = 0, so it is pure
  algebra there, used for group-law reconstruction.
- ``su11_family``: the rotation/squeeze triple on one mode with linear
  symplectic classical flows; carries the scalar central term whose shift
  injects an anomaly, and the double-valued loop phase.
- ``heisenberg_family``: translations of the phase plane with purely scalar
  generators depending on X; exercises the X-dependent terms of the
  consistency identities.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bogoliubov import rk4
from .fock import ConvergenceError, QuadraticGenerator
from .symmetry import MARGIN, GeneratorFamily, _restrict

__all__ = [
    "u2_family",
    "su11_family",
    "heisenberg_family",
    "Kind",
    "Check",
    "harmonic_orbit_manifold",
    "mixed_rotation_squeeze_path",
    "wkb_reference",
    "wkb_evolution_error",
    "Scenario",
    "build_checks",
]


def u2_family() -> GeneratorFamily:
    """Passive rotations of two modes, declared by their classical forms on
    w = (q1, q2, p1, p2, 1):

      B0: h = (q1^2 + p1^2)/2,  H = a1+ a1
      B1: h = (q2^2 + p2^2)/2,  H = a2+ a2
      B2: h = q1 q2 + p1 p2,    H = a1+ a2 + a2+ a1
      B3: h = q1 p2 - q2 p1,    H = -i (a1+ a2 - a2+ a1)

    H = A+ h_i A- for h_i = diag(1, 0), diag(0, 1), sigma_x and sigma_y: the
    offsets -tr(h_i)/2 remove the Weyl ordering constant, a character of
    u(2), so every scalar is 0.  X = 0 is every direction's fixed point.
    """
    q1, q2, p1, p2 = np.eye(5)[:4]

    def monomial(u, v):  # the symmetric form of (u . w) (v . w)
        return (np.outer(u, v) + np.outer(v, u)) / 2

    return GeneratorFamily([
        (monomial(q1, q1) + monomial(p1, p1)) / 2,
        (monomial(q2, q2) + monomial(p2, p2)) / 2,
        monomial(q1, q2) + monomial(p1, p2),
        monomial(q1, p2) - monomial(q2, p1),
    ], [-0.5, -0.5, 0.0, 0.0])


def su11_family(central_offset: float = 0.0) -> GeneratorFamily:
    """Rotation and squeeze on one mode, declared by their classical forms:

      B0: h = (q^2 + p^2)/4,  H = (n + 1/2)/2
      B1: h = (q^2 - p^2)/4,  H = (a+^2 + a^2)/4
      B2: h = q p / 2,        H = i(a+^2 - a^2)/4

    with brackets [B1,B2] = B0, [B0,B1] = -B2, [B0,B2] = B1.  The scalar 1/4
    of H(B0) is pinned by the central term of the consistency identity;
    ``central_offset`` shifts it to inject an anomaly.
    """
    return GeneratorFamily([
        np.diag([0.25, 0.25, 0.0]),
        np.diag([0.25, -0.25, 0.0]),
        [[0.0, 0.25, 0.0], [0.25, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ], [central_offset, 0.0, 0.0])


def heisenberg_family(central_offset: float = 0.0) -> GeneratorFamily:
    """Phase-plane translations with scalar X-dependent generators.

    Basis (B_q, B_p, B_c) of classical h = p, -q and 1: [B_q, B_p] = B_c,
    B_c central.  The classical flows translate Q, P and shift S along the
    central direction; the quadratic blocks vanish and the scalars
    H(B_q) = P/2, H(B_p) = -Q/2, H(B_c) = 1 close the identity.
    ``central_offset`` perturbs the central scalar to inject an anomaly.
    """
    # the central flow shifts S by -t: the coordinate vector fields then
    # anti-represent the bracket, [delta_q, delta_p] = -delta_central,
    # exactly as the commutator word of translations requires
    return GeneratorFamily([
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]],
        [[0.0, 0.0, -0.5], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.0]],
        np.diag([0.0, 0.0, 1.0]),
    ], [0.0, 0.0, central_offset])

# ---------------------------------------------------------------------------
# scenario check suites


@dataclass(frozen=True)
class Check:
    """A named verification with its anchor string and pass tolerance.

    ``fn`` returns the residual; the check passes when residual <= tolerance.
    """

    name: str
    anchor: str
    tolerance: float
    fn: "Callable[[], float]"


def _once(fn: Callable) -> Callable:
    """``fn`` memoized per argument tuple.

    Checks of one suite share their artifacts through such closures: the
    first check to ask computes an artifact, the others read it.  The
    runner calls checks one after another, but a built check list is a
    plain object any caller may run from its own threads, so the lock
    keeps an artifact computed at most once.
    """
    lock = threading.Lock()
    cached = functools.cache(fn)

    def get(*args):
        with lock:
            return cached(*args)

    return get


def _harmonic_orbit_point(a: float) -> np.ndarray:
    """X(a) on the unit harmonic orbit (Q, P) = (cos a, -sin a), with the
    action S' = P Q' = sin^2 a that isotropy fixes."""
    return np.array([a / 2 - math.sin(2 * a) / 4, math.cos(a), -math.sin(a)])


def harmonic_orbit_manifold(n_alpha: int = 64):
    from .packets import PacketManifold

    return PacketManifold(
        point=_harmonic_orbit_point,
        alphas=np.linspace(0, 2 * np.pi, n_alpha, endpoint=False),
        periodic_span=2 * np.pi,
    )


# the WKB evolution check: end time, initial point, cubic coefficient of
# V(x) = x^2/2 + cubic x^3, and the fiber shape's grid
_WKB_T, _WKB_Q0, _WKB_P0, _WKB_CUBIC = 0.1, 1.0, 0.0, 0.2
_WKB_N_XI, _WKB_XI_HALF_WIDTH = 256, 8.0


def wkb_reference() -> Callable[[float], float]:
    """The lambda-free half of the WKB oracle, and lam -> error against it.

    Integrates the classical trajectory with its action and the fiber
    shape under the quadratic fiber Hamiltonian p^2/2 + V''(Q_t) xi^2/2
    once, the fiber potential declared as the profile 1/2 V''(Q_t) times
    xi^2; the returned function runs the full split-step evolution at one
    lambda and measures its distance to the predicted packet.
    """
    from .packets import (
        GridWave,
        ShapeFunction,
        SplitStepProblem,
        UniformGrid,
        gaussian_shape,
        k_lambda,
        splitstep_evolve,
    )

    t, q0, p0, cubic = _WKB_T, _WKB_Q0, _WKB_P0, _WKB_CUBIC
    xi_half_width = _WKB_XI_HALF_WIDTH

    def v(x):
        return 0.5 * x**2 + cubic * x**3

    def v2(x):
        return 1.0 + 6.0 * cubic * x

    # classical trajectory with action, fixed fine step
    n_cl = 4096
    hcl = t / n_cl

    def cl_field(_, z):
        s, q, p = z
        return np.array([p * p - (p * p / 2 + v(q)), p, -q - 3 * cubic * q * q])

    _, zs = rk4(cl_field, np.array([0.0, q0, p0]), t, hcl, keep=True)

    # fiber shape under the quadratic fiber Hamiltonian (lambda-free)
    f0 = gaussian_shape(half_width=xi_half_width, n=_WKB_N_XI)
    fiber_wave = GridWave(f0.grid, f0.values, 1.0)

    def half_curvature(tau):
        return 0.5 * v2(zs[min(n_cl, max(0, int(round(tau / hcl)))), 1])

    fiber_t = splitstep_evolve(fiber_wave, SplitStepProblem(
        [(half_curvature, [0.0, 0.0, 1.0])]), t, hcl)
    f_t = ShapeFunction(f0.grid, fiber_t.values)
    q_span = max(abs(zs[:, 1].max()), abs(zs[:, 1].min()))
    p_max = np.abs(zs[:, 2]).max()

    def error_at(lam: float) -> float:
        # full evolution at this lambda
        root = math.sqrt(lam)
        half_width = q_span + (xi_half_width + 2) * root + 0.2
        k_need = (p_max + 6 * root) / lam + xi_half_width
        n_x = 64
        while math.pi * n_x / (2 * half_width) < 1.6 * k_need and n_x < 2**21:
            n_x *= 2
        grid = UniformGrid.centered(half_width, n_x)
        psi0 = k_lambda(zs[0], f0, lam, grid)
        dt = min(1e-3, lam / 8)
        psi_t = splitstep_evolve(psi0, SplitStepProblem.polynomial(
            [0.0, 0.0, 0.5, cubic]), t, dt)
        predicted = k_lambda(zs[-1], f_t, lam, grid, tail_tol=1e-4)
        diff = psi_t.values - predicted.values
        return float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.spacing))

    return error_at


def wkb_evolution_error(lam: float) -> float:
    """Distance of the split-step evolution to the packet-form prediction.

    The oracle assembles the predicted state from three independent
    integrations: the classical trajectory (with its action), and the
    shape evolved by the time-dependent quadratic fiber Hamiltonian
    p^2/2 + V''(Q_t) xi^2/2, both built by ``wkb_reference``.  The gap
    closes like sqrt(lambda) because the cubic Taylor remainder of the
    potential enters at that order.
    """
    return wkb_reference()(lam)


def mixed_rotation_squeeze_path(t_max: float = 8.0):
    """Time-dependent two-mode generator mixing rotation and squeezing:
    cos(0.7 t) H++ + (1 + 0.3 sin t) H+- + 0.1 t hbar.

    Serves as the reference path for integrator-order sweeps and the
    canonical-relation checks: rich enough that a fixed-step scheme
    accumulates visible fourth-order error.
    """
    from .bogoliubov import GeneratorPath

    hpm0 = np.array([[0.8, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
    hpp0 = np.array([[0.15, 0.05], [0.05, 0.10]])
    return GeneratorPath([
        (lambda t: math.cos(0.7 * t), QuadraticGenerator.from_blocks(hpp=hpp0)),
        (lambda t: 1.0 + 0.3 * math.sin(t), QuadraticGenerator.from_blocks(hpm=hpm0)),
        (lambda t: 0.1 * t, QuadraticGenerator.from_blocks(modes=2, hbar=1.0)),
    ], t_max)


def _rotation_checks(model: dict, run: dict, seed: int):
    from .bogoliubov import (
        CreatedState,
        GeneratorPath,
        flow_invariants,
        integrate_flow,
        propagate_direct,
        propagate_gaussian,
        riccati_residual,
    )
    from .fock import ModeBasis, vacuum_state

    omega, hbar, cutoff = model["omega"], model["hbar"], model["cutoff"]
    t, dt = run["t"], run["dt"]
    path = GeneratorPath.constant(
        QuadraticGenerator.from_blocks(hpm=[[omega]], hbar=hbar), 8.0)
    flow = _once(lambda: integrate_flow(path, t, dt))

    def closed_form():
        fl = flow()
        return float(
            abs(fl.g[0, 0] - np.exp(1j * omega * t))
            + abs(fl.f[0, 0]) + abs(fl.m[0, 0])
            + abs(fl.c - np.exp(-1j * hbar * t)))

    def vacuum_phase():
        out = propagate_gaussian(CreatedState(), flow(), ModeBasis(1, cutoff))
        return float(abs(out.coeffs[0] - np.exp(-1j * hbar * t))
                     + np.linalg.norm(out.coeffs[1:]))

    def norm_drift():
        basis = ModeBasis(1, cutoff)
        return propagate_direct(vacuum_state(basis), path, t, dt).norm_drift

    return [
        Check("rotation-closed-form", "flow.rotation", 1e-9, closed_form),
        Check("flow-invariants", "flow.canonical-relations", 1e-9,
              lambda: flow_invariants(flow()).max),
        Check("riccati-residual", "flow.riccati", 1e-9,
              lambda: riccati_residual(flow(), path)),
        Check("vacuum-phase", "propagator.gaussian-ansatz", 1e-9, vacuum_phase),
        Check("direct-norm-drift", "propagator.direct", 1e-8, norm_drift),
    ]


def _squeeze_artifacts(model: dict, run: dict):
    """The squeeze path and its lazily shared artifacts.

    Returns (path, flow, direct, equivalence): the flow up to a horizon, the
    vacuum evolved directly at a cutoff, and the distance between the
    Gaussian-ansatz and the direct vacuum at t on a cutoff.
    """
    from .bogoliubov import (
        CreatedState,
        GeneratorPath,
        integrate_flow,
        propagate_direct,
        propagate_gaussian,
    )
    from .fock import ModeBasis, vacuum_state

    t, dt = run["t"], run["dt"]
    path = GeneratorPath.constant(
        QuadraticGenerator.from_blocks(hpp=[[model["kappa"]]]), 8.0)
    flow = _once(lambda horizon: integrate_flow(path, horizon, dt))
    direct = _once(lambda n: propagate_direct(
        vacuum_state(ModeBasis(1, n)), path, t, dt).state)

    def equivalence(n: int) -> float:
        gauss = propagate_gaussian(CreatedState(), flow(t), ModeBasis(1, n))
        return float(np.linalg.norm(gauss.coeffs - direct(n).coeffs))

    return path, flow, direct, equivalence


def _vacuum_plane_residual() -> float:
    """Constrained vacuum norm on the one-mode unit plane against sqrt(2 pi)."""
    from .constrained import QuadSpec, inner_constrained, make_plane
    from .fock import ModeBasis, vacuum_state

    basis = ModeBasis(1, 32)
    plane = make_plane([np.array([1.0])])
    val = inner_constrained(vacuum_state(basis), vacuum_state(basis),
                            plane, QuadSpec(pad=12, order=48))
    return float(abs(val - math.sqrt(2 * math.pi)))


def _squeeze_checks(model: dict, run: dict, seed: int):
    from .bogoliubov import flow_invariants, picard_flow, riccati_residual
    from .constrained import QuadSpec, invariance_residual, make_plane
    from .fock import ModeBasis, vacuum_state

    path, flow, direct, equivalence = _squeeze_artifacts(model, run)
    kappa, cutoff = model["kappa"], model["cutoff"]
    t = run["t"]
    horizon = min(t, 1.0)
    series = _once(lambda: picard_flow(path, horizon, n_terms=25, tol=None))

    def closed_form():
        fl = flow(t)
        r = kappa * t
        return float(
            abs(fl.f[0, 0] + 1j * math.sinh(r))
            + abs(fl.g[0, 0] - math.cosh(r))
            + abs(fl.m[0, 0] + 1j * math.tanh(r))
            + abs(fl.c - math.cosh(r) ** -0.5))

    def picard_agreement():
        res = series()
        if not res.term_norms[-1] <= 1e-6:
            raise ConvergenceError(f"Picard series not converged: last term norm "
                                   f"{res.term_norms[-1]:.3e} > 1.0e-06")
        fl = flow(horizon)
        return float(np.linalg.norm(res.f - fl.f)
                     + np.linalg.norm(res.g - fl.g))

    def picard_factorial():
        k_const = max(kappa, 1e-12)
        worst = 0.0
        for n, tn in enumerate(series().term_norms[:20]):
            bound = (2 * k_const * horizon) ** n / math.factorial(n)
            worst = max(worst, tn / bound)
        return worst

    def tail_consistency():
        full, half = direct(cutoff), direct(cutoff // 2)
        kept = half.coeffs.size
        diff = np.linalg.norm(full.coeffs[:kept] - half.coeffs)
        q = math.tanh(kappa * t)
        tail = abs(full.coeffs[kept - 1]) * q / math.sqrt(1 - q * q) + 1e-12
        return float(diff / (10 * tail))

    def constrained_invariance():
        plane = make_plane([np.array([1.0])])
        return invariance_residual(vacuum_state(ModeBasis(1, cutoff)),
                                   direct(cutoff), plane, flow(t),
                                   QuadSpec(pad=16, order=64))

    return [
        Check("squeeze-closed-form", "flow.squeeze", 1e-9, closed_form),
        Check("flow-invariants", "flow.canonical-relations", 1e-9,
              lambda: flow_invariants(flow(t)).max),
        Check("riccati-residual", "flow.riccati", 1e-8,
              lambda: riccati_residual(flow(t), path)),
        Check("picard-agreement", "flow.picard-series", 1e-6, picard_agreement),
        Check("picard-term-bound", "flow.picard-factorial", 1.0, picard_factorial),
        Check("propagator-equivalence", "propagator.gaussian-vs-direct", 1e-6,
              lambda: equivalence(cutoff)),
        Check("cutoff-tail-consistency", "fock.gaussian-decay", 1.0,
              tail_consistency),
        Check("constrained-invariance", "constrained.flow-invariance", 1e-6,
              constrained_invariance),
        Check("constrained-vacuum-analytic", "constrained.gaussian-integral",
              1e-6, _vacuum_plane_residual),
    ]


def _u2_checks(model: dict, run: dict, seed: int):
    from scipy.linalg import expm

    from .fock import ModeBasis
    from .symmetry import (
        GroupWord,
        _theorem_word,
        check_group_law,
        second_kind_coords,
        word_product,
    )

    fam = u2_family()
    basis = ModeBasis(2, model["cutoff"])
    dt, n_pairs, scale = run["dt"], run["n_pairs"], run["pair_scale"]
    x0 = np.zeros(5)  # S = 0, Q = P = 0 in R^2: every direction's fixed point

    def group_law_pairs():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_pairs):
            a1 = scale * rng.normal(size=4)
            a2 = scale * rng.normal(size=4)
            g1 = expm(sum(c * r for c, r in zip(a1, fam.algebra.rep)))
            g2 = expm(sum(c * r for c, r in zip(a2, fam.algebra.rep)))
            worst = max(worst, check_group_law(fam, g1, g2, x0, basis, dt=dt))
        return worst

    def closed_word_distance(word):
        res = word_product(fam, word, x0, basis, dt=dt)
        if not res.classical_is_loop:
            raise RuntimeError(
                f"word {word.factors} does not close classically, so its "
                "operator product has no loop distance")
        return float(res.loop_distance)

    def contractible_loop():
        return closed_word_distance(GroupWord([(2, 2 * math.pi)]))

    def commutator_word():
        s, t = 0.4, 0.7
        g1 = expm(s * fam.algebra.rep[2])
        g2 = expm(t * fam.algebra.rep[3])
        residue = np.linalg.inv(g2) @ np.linalg.inv(g1) @ g2 @ g1
        alphas = second_kind_coords(np.linalg.inv(residue), fam.algebra)
        word = GroupWord([(2, s), (3, t), (2, -s), (3, -t)]
                         + list(_theorem_word(alphas).factors))
        return closed_word_distance(word)

    return [
        Check("group-law-random-pairs", "group.reconstruction", 1e-6,
              group_law_pairs),
        Check("contractible-loop", "group.closed-word", 1e-6, contractible_loop),
        Check("commutator-word", "group.closed-word", 1e-6, commutator_word),
    ]


def _metaplectic_checks(model: dict, run: dict, seed: int):
    from .fock import ModeBasis
    from .symmetry import GroupWord, word_product

    fam = su11_family()
    cutoff, dt = model["cutoff"], run["dt"]
    basis = ModeBasis(1, cutoff)
    x0 = np.zeros(3)
    loop = _once(lambda: word_product(fam, GroupWord([(0, 4 * math.pi)]), x0,
                                      basis, dt=dt))

    def classical_identity():
        res = loop()
        return float(np.linalg.norm(res.rep_matrix - np.eye(len(res.rep_matrix)), 2)
                     + np.abs(res.x_out - x0).max())

    def global_sign():
        sub = _restrict(loop().matrix, basis)
        return float(np.abs(sub + np.eye(len(sub))).max())

    return [
        Check("classical-loop-identity", "group.loop-base", 1e-8,
              classical_identity),
        Check("loop-phase-pi", "group.double-valued-lift", 1e-8,
              lambda: float(abs(abs(loop().loop_phase) - math.pi))),
        Check("global-sign", "group.double-valued-lift", 1e-8, global_sign),
    ]


def _anomaly_checks(model: dict, run: dict, seed: int):
    from .fock import ModeBasis
    from .symmetry import check_f3, check_x6, omega_matrix

    eps, cutoff = model["offset"], model["cutoff"]
    fam = su11_family(central_offset=eps)
    basis = ModeBasis(1, cutoff)
    x0 = np.zeros(3)
    a = np.array([0.0, 1.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    f3 = _once(lambda: check_f3(fam, a, b, x0))
    x6 = _once(lambda: check_x6(fam, a, b, x0, basis))

    def omega_commutant():
        r = x6().residual
        worst = 0.0
        for dx in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.3, -0.8])):
            om = omega_matrix(fam, x0, dx, basis)
            comm = r @ om - om @ r
            worst = max(worst, float(np.linalg.norm(_restrict(comm, basis), 2)))
        return worst

    return [
        Check("f3-scalar-recovery", "anomaly.scalar-relation", 1e-6,
              lambda: float(abs(f3().hbar_residual - eps))),
        Check("f3-quadratic-clean", "anomaly.quadratic-relations", 1e-10,
              lambda: f3().max_quadratic),
        Check("x6-scalar-recovery", "anomaly.c-number-form", 1e-6,
              lambda: float(abs(x6().scalar - 1j * eps))),
        Check("x6-off-scalar", "anomaly.c-number-form", 1e-6,
              lambda: x6().off_scalar_norm),
        Check("omega-commutant", "anomaly.commutant", 1e-6, omega_commutant),
    ]


def _packet_checks(model: dict, run: dict, seed: int):
    from .packets import (
        ComposedPacket,
        derivative_identity_residual,
        direct_inner,
        asymptotic_inner,
        expansion_check,
        fit_loglog_slope,
        gaussian_shape,
        k_lambda,
        omega_commutator_residual,
        packet_grid,
        splitstep_evolve,
        SplitStepProblem,
        UniformGrid,
        wave_moments,
    )

    lam_sweep, h = run["lambda_sweep"], run["h"]

    def klambda_norm():
        f = gaussian_shape(n=512)
        x = np.array([0.4, 1.3, -0.7])
        worst = 0.0
        for lam in (1.0, 0.01):
            wave = k_lambda(x, f, lam, packet_grid(x, f, lam))
            worst = max(worst, abs(wave.norm() - f.norm()))
        return worst

    def deriv_identity():
        f = gaussian_shape()
        x = np.array([0.1, -0.4, 1.2])
        return max(derivative_identity_residual(x, f, 0.05, dx, h=h)
                   for dx in np.eye(3))

    def deriv_lambda_indep():
        f = gaussian_shape()
        x, dq = np.array([0.0, 0.2, 1.0]), np.array([0.0, 1.0, 0.0])
        r1 = derivative_identity_residual(x, f, 1e-3, dq, h=1e-3)
        r2 = derivative_identity_residual(x, f, 5e-4, dq, h=1e-3)
        return abs(r1 - r2) / max(r1, r2)

    def omega_comms():
        g = gaussian_shape()
        return max(omega_commutator_residual(u, v, g)
                   for u in np.eye(3) for v in np.eye(3))

    def expansion_slope():
        slope, _ = expansion_check(harmonic_orbit_manifold(), gaussian_shape(),
                                   beta=0.7, lams=lam_sweep, alpha=0.5)
        return 0.45 - slope

    def inner_convergence():
        cp = ComposedPacket(harmonic_orbit_manifold(), gaussian_shape())
        asym = asymptotic_inner(cp, cp)
        gaps = []
        for lam in lam_sweep:
            d = direct_inner(cp, cp, lam)
            gaps.append(abs(d - asym) / abs(asym))
        monotone = max(
            (gaps[i + 1] - gaps[i] for i in range(len(gaps) - 1)), default=0.0)
        slope = fit_loglog_slope(lam_sweep, gaps)
        return max(monotone, 0.45 - slope)

    def splitstep_classical():
        lam = 0.1
        f = gaussian_shape(n=192, half_width=6)
        x0 = np.array([0.0, 1.0, 0.0])
        grid = UniformGrid.centered(4.5, 1024)
        psi = k_lambda(x0, f, lam, grid)
        t = 1.0
        out = splitstep_evolve(psi, SplitStepProblem.polynomial([0, 0, 0.5]),
                               t, 1e-4)
        q, p = wave_moments(out)
        return float(abs(q - math.cos(t)) + abs(p + math.sin(t)))

    def wkb_slope():
        error_at = wkb_reference()
        errs = [error_at(lam) for lam in lam_sweep]
        return 0.45 - fit_loglog_slope(lam_sweep, errs)

    return [
        Check("klambda-norm-preservation", "packet.normalization", 1e-12,
              klambda_norm),
        Check("derivative-identity", "packet.form-identity", 1e-6,
              deriv_identity),
        Check("derivative-identity-lambda-independence",
              "packet.form-identity", 0.1, deriv_lambda_indep),
        Check("omega-commutators", "packet.form-commutators", 1e-8,
              omega_comms),
        Check("expansion-slope", "packet.shift-expansion", 0.0,
              expansion_slope),
        Check("inner-composed-convergence", "packet.asymptotic-inner", 0.0,
              inner_convergence),
        Check("splitstep-classical-tracking", "packet.evolution", 1e-6,
              splitstep_classical),
        Check("wkb-form-slope", "packet.form-preservation", 0.0, wkb_slope),
    ]


def _constrained_checks(model: dict, run: dict, seed: int):
    from .constrained import (
        QuadSpec,
        decay_profile,
        inner_constrained,
        inner_constrained_detailed,
        make_plane,
        regularized_inner,
    )
    from .fock import FockVector, ModeBasis, number_state, vacuum_state

    n_random = run["n_random"]

    def null_vector():
        basis = ModeBasis(1, 48)
        plane = make_plane([np.array([1.0])])
        psi = number_state(basis, (1,))
        return float(abs(inner_constrained(psi, psi, plane,
                                           QuadSpec(pad=14, order=64))))

    def positivity():
        rng = np.random.default_rng(seed)
        basis = ModeBasis(1, 24)
        plane = make_plane([np.array([1.0])])
        spec = QuadSpec(pad=140, order=64)
        worst = 0.0
        for _ in range(n_random):
            c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
            c[basis.totals > 6] = 0
            c /= np.linalg.norm(c)
            val = inner_constrained(FockVector(basis, c), FockVector(basis, c),
                                    plane, spec)
            worst = max(worst, -val.real)
        return worst

    def regularized_limit():
        basis = ModeBasis(1, 32)
        plane = make_plane([np.array([1.0])])
        v = vacuum_state(basis)
        worst = 0.0
        for eps in (1.0, 0.1, 0.01):
            val = regularized_inner(v, plane, eps, QuadSpec(order=64, pad=12))
            exact = math.sqrt(2 * math.pi / (1 + 2 * eps))
            worst = max(worst, abs(val - exact), -val)
        return worst

    def basis_scaling():
        basis = ModeBasis(1, 24)
        v = vacuum_state(basis)
        a = inner_constrained(v, v, make_plane([np.array([1.0])]),
                              QuadSpec(pad=14, order=48))
        b = inner_constrained(v, v, make_plane([np.array([1.6])], a=1.6),
                              QuadSpec(pad=14, order=48))
        return float(abs(a - b))

    def decay_bound():
        rng = np.random.default_rng(seed + 1)
        basis = ModeBasis(1, 20)
        plane = make_plane([np.array([1.0])])
        c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        c[basis.totals > 6] = 0
        c /= np.linalg.norm(c)
        y = FockVector(basis, c)
        prof = decay_profile(y, y, plane, m=4)
        return float(prof.worst_ratio - 1.0)

    def self_consistency():
        basis = ModeBasis(1, 24)
        plane = make_plane([np.array([1.0])])
        _, cert = inner_constrained_detailed(
            vacuum_state(basis), vacuum_state(basis), plane,
            QuadSpec(pad=12, order=48))
        return cert.order_doubling_delta

    return [
        Check("vacuum-analytic", "constrained.gaussian-integral", 1e-6,
              _vacuum_plane_residual),
        Check("null-vector", "constrained.null-class", 1e-8, null_vector),
        Check("positivity", "constrained.nonnegativity", 1e-10, positivity),
        Check("regularized-limit", "constrained.regularization", 1e-1,
              regularized_limit),
        Check("basis-change-scaling", "constrained.basis-invariance", 1e-8,
              basis_scaling),
        Check("decay-bound", "constrained.weighted-decay", 1e-9, decay_bound),
        Check("quadrature-self-consistency", "constrained.quadrature", 1e-8,
              self_consistency),
    ]


# ---------------------------------------------------------------------------
# sweeps: one residual as a function of one parameter


def _dt_self_convergence(model: dict, run: dict) -> Callable[[float], float]:
    # integrator order on the mixed reference path, by self-convergence
    # against an 8x refined step (the canonical-relation residuals
    # themselves superconverge through drift cancellation)
    from .bogoliubov import integrate_flow

    path = mixed_rotation_squeeze_path()

    def residual(dt: float) -> float:
        coarse = integrate_flow(path, run["t"], dt, residual_tol=None)
        fine = integrate_flow(path, run["t"], dt / 8, residual_tol=None)
        return float(np.linalg.norm(coarse.f - fine.f)
                     + np.linalg.norm(coarse.g - fine.g))

    return residual


def _equivalence_by_cutoff(model: dict, run: dict) -> Callable[[float], float]:
    # one flow for every cutoff of the sweep
    *_, equivalence = _squeeze_artifacts(model, run)
    return lambda n: equivalence(int(n))


def _field_algebra_residual(model: dict, run: dict) -> Callable[[float], float]:
    from .symmetry import check_vector_field_algebra

    fam = su11_family()
    x = np.array([0.0, 0.8, -0.3])
    a = np.array([1.0, 0.2, 0.0])
    b = np.array([0.0, 0.4, 1.0])
    return lambda h: check_vector_field_algebra(fam.system, fam.algebra, a, b,
                                                x, h=h)


# ---------------------------------------------------------------------------
# declarations


@dataclass(frozen=True)
class Kind:
    """The values a config key (or a sweep grid) accepts.

    ``must`` completes the sentence "<key> must ...".
    """

    must: str
    ok: Callable[[object], bool]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


REAL = Kind("be a finite number", _is_real)
POSITIVE = Kind("be a positive number", lambda v: _is_real(v) and v > 0)
CUTOFF = Kind("be a positive integer", lambda v: _is_int(v) and v >= 1)
ABOVE_MARGIN = Kind(f"be an integer above the margin width {MARGIN}",
                    lambda v: _is_int(v) and v > MARGIN)
COUNT = Kind("be a non-negative integer", lambda v: _is_int(v) and v >= 0)
INTEGER = Kind("be an integer", _is_int)
GRID = Kind("list at least two positive values",
            lambda v: isinstance(v, list) and len(v) >= 2
            and all(POSITIVE.ok(x) for x in v))
WHOLE = Kind("be a positive whole number",
             lambda v: POSITIVE.ok(v) and float(v).is_integer())


@dataclass(frozen=True)
class Scenario:
    """Everything one scenario knows.

    ``model`` and ``run`` map each config key the scenario reads to its
    ``(default, Kind)``.  ``checks(model, run, seed)`` builds the check list
    from the settings, every key resolved to its value or its default, and
    reads them all while building; the checks compute their shared
    artifacts lazily, at most once per build.  ``sweeps`` maps each
    parameter the scenario sweeps to ``(Kind, prepare)``:
    ``prepare(model, run)`` builds what the residual does not take from the
    swept value, once per sweep, and returns ``residual(value)``.
    """

    model: dict
    run: dict
    checks: Callable
    sweeps: dict = field(default_factory=dict)

    def settings(self, model: dict, run: dict) -> tuple:
        return ({k: model.get(k, d) for k, (d, _) in self.model.items()},
                {k: run.get(k, d) for k, (d, _) in self.run.items()})


_DT_SWEEP = {"dt": (POSITIVE, _dt_self_convergence)}

SCENARIOS = {
    "rotation": Scenario(
        model={"cutoff": (12, CUTOFF), "omega": (0.8, REAL),
               "hbar": (0.3, REAL)},
        run={"t": (1.7, POSITIVE), "dt": (1e-3, POSITIVE)},
        checks=_rotation_checks, sweeps=_DT_SWEEP),
    "squeeze": Scenario(
        model={"cutoff": (24, CUTOFF), "kappa": (0.2, REAL)},
        run={"t": (1.0, POSITIVE), "dt": (1e-3, POSITIVE)},
        checks=_squeeze_checks,
        sweeps={**_DT_SWEEP, "N": (WHOLE, _equivalence_by_cutoff)}),
    "u2-grouplaw": Scenario(
        model={"cutoff": (12, ABOVE_MARGIN)},
        run={"dt": (2e-3, POSITIVE), "n_pairs": (20, COUNT),
             "pair_scale": (0.3, REAL)},
        checks=_u2_checks),
    "su11-metaplectic-loop": Scenario(
        model={"cutoff": (14, ABOVE_MARGIN)},
        run={"dt": (1e-3, POSITIVE)},
        checks=_metaplectic_checks,
        sweeps={"h": (POSITIVE, _field_algebra_residual)}),
    "anomaly-injection": Scenario(
        model={"cutoff": (16, ABOVE_MARGIN), "offset": (0.05, REAL)},
        run={},
        checks=_anomaly_checks),
    "packet-harmonic": Scenario(
        model={},
        run={"h": (1e-4, POSITIVE),
             "lambda_sweep": ([1e-1, 1e-2, 1e-3, 1e-4], GRID)},
        checks=_packet_checks,
        sweeps={"lambda": (POSITIVE, lambda model, run: wkb_reference())}),
    "constrained-basics": Scenario(
        model={},
        run={"n_random": (100, COUNT)},
        checks=_constrained_checks),
}


def build_checks(scenario: str, model: dict, run: dict, seed: int):
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    spec = SCENARIOS[scenario]
    return spec.checks(*spec.settings(model, run), seed)
