"""Prebuilt algebra families and verification scenarios.

Each family couples a Lie algebra, a classical action on the extended phase
space, and quadratic Fock generators, chosen so that every consistency
identity has an independent closed-form anchor:

- ``u2_family``: particle-conserving generators on two modes with a trivial
  classical action; pure algebra, used for group-law reconstruction.
- ``su11_family``: the rotation/squeeze triple on one mode with linear
  symplectic classical flows; carries the scalar central term whose removal
  injects an anomaly, and the double-valued loop phase.
- ``heisenberg_family``: translations of the phase plane with purely scalar
  generators depending on X; exercises the X-dependent terms of the
  consistency identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bogoliubov import rk4_step
from .fock import QuadraticGenerator
from .symmetry import (
    AffineGenerator,
    ClassicalSystem,
    GeneratorFamily,
    LieAlgebra,
)

__all__ = [
    "u2_family",
    "su11_family",
    "heisenberg_family",
    "standard_phi",
]


def standard_phi(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The one-mode fiber form phi[dX] = (dQ + i dP) / sqrt(2)."""
    dx = np.asarray(dx, dtype=float).reshape(3)
    return np.array([(dx[1] + 1j * dx[2]) / math.sqrt(2)])


def u2_family() -> GeneratorFamily:
    """Particle-conserving u(2) generators A+ h A- on two modes.

    The classical action is trivial and the fiber form vanishes: the
    content is the operator algebra [dGamma(h_i), dGamma(h_j)] =
    dGamma([h_i, h_j]).
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    hs = [
        np.diag([1.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0]).astype(complex),
        sx,
        sy,
    ]
    m = len(hs)
    structure = np.zeros((m, m, m))
    # brackets [B_i, B_j] from -i [h_i, h_j] expanded over the basis
    flat = np.stack([h.reshape(-1) for h in hs], axis=1)
    for i in range(m):
        for j in range(m):
            comm = -1j * (hs[i] @ hs[j] - hs[j] @ hs[i])
            coeff, *_ = np.linalg.lstsq(flat, comm.reshape(-1), rcond=None)
            structure[:, i, j] = coeff.real
    rep = [-1j * h for h in hs]
    algebra = LieAlgebra([f"b{k}" for k in range(m)], structure, rep)
    system = ClassicalSystem.trivial(m)

    def quad_gen(a: np.ndarray, x: np.ndarray) -> QuadraticGenerator:
        h = sum(float(ai) * hi for ai, hi in zip(a, hs))
        return QuadraticGenerator.from_blocks(hpm=h, modes=2)

    def phi(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
        return np.zeros(2, dtype=complex)

    return GeneratorFamily(algebra=algebra, system=system, quad_gen=quad_gen,
                           phi=phi, modes=2)


def su11_family(central_offset: float = 0.0) -> GeneratorFamily:
    """Rotation and squeeze generators on one mode.

    Basis and generators:
      B0: H = (n + 1/2)/2          classical h = (q^2 + p^2)/4
      B1: H = (a+^2 + a^2)/4       classical h = (q^2 - p^2)/4
      B2: H = i(a+^2 - a^2)/4      classical h = q p / 2

    with brackets [B1,B2] = B0, [B0,B1] = -B2, [B0,B2] = B1.  The scalar
    part of H(B0) is pinned by the central term of the consistency
    identity; ``central_offset`` shifts it to inject an anomaly.
    """
    structure = np.zeros((3, 3, 3))
    structure[0, 1, 2] = 1.0
    structure[0, 2, 1] = -1.0
    structure[2, 0, 1] = -1.0
    structure[2, 1, 0] = 1.0
    structure[1, 0, 2] = 1.0
    structure[1, 2, 0] = -1.0
    rep = [
        np.array([[0.0, 0.5], [-0.5, 0.0]]),
        np.array([[0.0, -0.5], [-0.5, 0.0]]),
        np.array([[0.5, 0.0], [0.0, -0.5]]),
    ]
    algebra = LieAlgebra(["rotation", "squeeze-x", "squeeze-xy"], structure, rep)
    system = ClassicalSystem([
        AffineGenerator(rep[0], np.zeros(2), lambda q, p: (q * q + p * p) / 4),
        AffineGenerator(rep[1], np.zeros(2), lambda q, p: (q * q - p * p) / 4),
        AffineGenerator(rep[2], np.zeros(2), lambda q, p: q * p / 2),
    ])
    hbar0 = 0.25 + central_offset

    def quad_gen(a: np.ndarray, x: np.ndarray) -> QuadraticGenerator:
        hpm = np.array([[0.5 * a[0]]], dtype=complex)
        hpp = np.array([[0.5 * a[1] + 0.5j * a[2]]], dtype=complex)
        return QuadraticGenerator.from_blocks(hpp=hpp, hpm=hpm,
                                              hbar=hbar0 * a[0])

    return GeneratorFamily(algebra=algebra, system=system, quad_gen=quad_gen,
                           phi=standard_phi, modes=1)


def heisenberg_family(central_offset: float = 0.0) -> GeneratorFamily:
    """Phase-plane translations with scalar X-dependent generators.

    Basis (B_q, B_p, B_c): [B_q, B_p] = B_c, B_c central.  The classical
    flows translate Q, P and shift S along the central direction; the
    quadratic blocks vanish and the scalars H(B_q) = P/2, H(B_p) = -Q/2,
    H(B_c) = 1 close the identity.  ``central_offset`` perturbs the
    central scalar to inject an anomaly.
    """
    structure = np.zeros((3, 3, 3))
    structure[2, 0, 1] = 1.0
    structure[2, 1, 0] = -1.0
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    e23 = np.zeros((3, 3))
    e23[1, 2] = 1.0
    e13 = np.zeros((3, 3))
    e13[0, 2] = 1.0
    algebra = LieAlgebra(["shift-q", "shift-p", "central"], structure,
                         [e12, e23, e13])
    # central flow shifts S by -t: the coordinate vector fields then
    # anti-represent the bracket, [delta_q, delta_p] = -delta_central,
    # exactly as the commutator word of translations requires
    system = ClassicalSystem([
        AffineGenerator(np.zeros((2, 2)), np.array([1.0, 0.0]),
                        lambda q, p: p),
        AffineGenerator(np.zeros((2, 2)), np.array([0.0, 1.0]),
                        lambda q, p: -q),
        AffineGenerator(np.zeros((2, 2)), np.zeros(2), lambda q, p: 1.0),
    ])

    def quad_gen(a: np.ndarray, x: np.ndarray) -> QuadraticGenerator:
        hbar = (a[0] * x[2] / 2 - a[1] * x[1] / 2
                + a[2] * (1.0 + central_offset))
        return QuadraticGenerator.from_blocks(hbar=float(hbar), modes=1)

    return GeneratorFamily(algebra=algebra, system=system, quad_gen=quad_gen,
                           phi=standard_phi, modes=1)


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


def harmonic_orbit_manifold(n_alpha: int = 64):
    from .packets import PacketManifold

    return PacketManifold(
        s_of=lambda a: a / 2 - math.sin(2 * a) / 4,
        q_of=math.cos,
        p_of=lambda a: -math.sin(a),
        alphas=np.linspace(0, 2 * np.pi, n_alpha, endpoint=False),
        periodic_span=2 * np.pi,
    )


def wkb_evolution_error(
    lam: float,
    t: float = 0.1,
    q0: float = 1.0,
    p0: float = 0.0,
    cubic: float = 0.2,
    n_xi: int = 256,
    xi_half_width: float = 8.0,
) -> float:
    """Distance of the split-step evolution to the packet-form prediction.

    The oracle assembles the predicted state from three independent
    integrations: the classical trajectory (with its action), and the
    shape evolved by the time-dependent quadratic fiber Hamiltonian
    p^2/2 + V''(Q_t) xi^2/2.  The gap closes like sqrt(lambda) because the
    cubic Taylor remainder of the potential enters at that order.
    """
    from .packets import (
        GridWave,
        PacketPoint,
        ShapeFunction,
        SplitStepProblem,
        UniformGrid,
        gaussian_shape,
        k_lambda,
        splitstep_evolve,
    )

    def v(x):
        return 0.5 * x**2 + cubic * x**3

    def v2(x):
        return 1.0 + 6.0 * cubic * x

    # classical trajectory with action, fixed fine step
    n_cl = 4096
    hcl = t / n_cl
    zs = np.empty((n_cl + 1, 3))
    zs[0] = (0.0, q0, p0)

    def cl_field(_, z):
        s, q, p = z
        return np.array([p * p - (p * p / 2 + v(q)), p, -q - 3 * cubic * q * q])

    for j in range(n_cl):
        zs[j + 1] = rk4_step(cl_field, 0.0, zs[j], hcl)
    s_t, q_t, p_t = zs[-1]

    # fiber shape under the quadratic fiber Hamiltonian (lambda-free)
    f0 = gaussian_shape(half_width=xi_half_width, n=n_xi)
    fiber_wave = GridWave(f0.grid, f0.values, 1.0)

    def fiber_potential(xi, tau):
        j = min(n_cl, max(0, int(round(tau / hcl))))
        return 0.5 * v2(zs[j, 1]) * xi**2

    fiber_t = splitstep_evolve(
        fiber_wave, SplitStepProblem(potential=fiber_potential), t, hcl)
    f_t = ShapeFunction(f0.grid, fiber_t.values)

    # full evolution at this lambda
    root = math.sqrt(lam)
    q_span = max(abs(zs[:, 1].max()), abs(zs[:, 1].min()))
    half_width = q_span + (xi_half_width + 2) * root + 0.2
    p_max = np.abs(zs[:, 2]).max()
    k_need = (p_max + 6 * root) / lam + xi_half_width
    n_x = 64
    while math.pi * n_x / (2 * half_width) < 1.6 * k_need and n_x < 2**21:
        n_x *= 2
    grid = UniformGrid.centered(half_width, n_x)
    psi0 = k_lambda(PacketPoint(0.0, q0, p0), f0, lam, grid)
    dt = min(1e-3, lam / 8)
    psi_t = splitstep_evolve(psi0, SplitStepProblem.polynomial(
        [0.0, 0.0, 0.5, cubic]), t, dt)
    predicted = k_lambda(PacketPoint(s_t, q_t, p_t), f_t, lam, grid,
                         tail_tol=1e-4)
    diff = psi_t.values - predicted.values
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.spacing))


def _flow_paths(kind: str, p: dict):
    from .bogoliubov import GeneratorPath
    from .fock import QuadraticGenerator

    if kind == "rotation":
        gen = QuadraticGenerator.from_blocks(
            hpm=[[p.get("omega", 0.8)]], hbar=p.get("hbar", 0.3))
    elif kind == "squeeze":
        gen = QuadraticGenerator.from_blocks(hpp=[[p.get("kappa", 0.2)]])
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return GeneratorPath.constant(gen, p.get("t_max", 8.0))


def mixed_rotation_squeeze_path(t_max: float = 8.0):
    """Time-dependent two-mode generator mixing rotation and squeezing.

    Serves as the reference path for integrator-order sweeps and the
    canonical-relation checks: rich enough that a fixed-step scheme
    accumulates visible fourth-order error.
    """
    from .bogoliubov import GeneratorPath
    from .fock import QuadraticGenerator

    hpm0 = np.array([[0.8, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
    hpp0 = np.array([[0.15, 0.05], [0.05, 0.10]])

    def gen(t: float) -> QuadraticGenerator:
        return QuadraticGenerator.from_blocks(
            hpp=hpp0 * math.cos(0.7 * t),
            hpm=hpm0 * (1.0 + 0.3 * math.sin(t)),
            hbar=0.1 * t,
        )

    return GeneratorPath(gen, t_max)


def _rotation_checks(model: dict, run: dict):
    import numpy as np

    from .bogoliubov import (
        CreatedState,
        flow_invariants,
        integrate_flow,
        propagate_direct,
        propagate_gaussian,
        riccati_residual,
    )
    from .fock import ModeBasis, vacuum_state

    omega = model.get("omega", 0.8)
    hbar = model.get("hbar", 0.3)
    t = run.get("t", 1.7)
    dt = run.get("dt", 1e-3)
    cutoff = model.get("cutoff", 12)
    path = _flow_paths("rotation", {"omega": omega, "hbar": hbar})

    def closed_form():
        flow = integrate_flow(path, t, dt)
        return float(
            abs(flow.g[0, 0] - np.exp(1j * omega * t))
            + abs(flow.f[0, 0]) + abs(flow.m[0, 0])
            + abs(flow.c - np.exp(-1j * hbar * t)))

    def invariants():
        return flow_invariants(integrate_flow(path, t, dt)).max

    def riccati():
        flow = integrate_flow(path, t, dt)
        return riccati_residual(flow, path)

    def vacuum_phase():
        basis = ModeBasis(1, cutoff)
        flow = integrate_flow(path, t, dt)
        out = propagate_gaussian(CreatedState(), flow, basis)
        return float(abs(out.coeffs[0] - np.exp(-1j * hbar * t))
                     + np.linalg.norm(out.coeffs[1:]))

    def norm_drift():
        basis = ModeBasis(1, cutoff)
        return propagate_direct(vacuum_state(basis), path, t, dt).norm_drift

    return [
        Check("rotation-closed-form", "flow.rotation", 1e-9, closed_form),
        Check("flow-invariants", "flow.canonical-relations", 1e-9, invariants),
        Check("riccati-residual", "flow.riccati", 1e-9, riccati),
        Check("vacuum-phase", "propagator.gaussian-ansatz", 1e-9, vacuum_phase),
        Check("direct-norm-drift", "propagator.direct", 1e-8, norm_drift),
    ]


def _squeeze_checks(model: dict, run: dict):
    import numpy as np

    from .bogoliubov import (
        CreatedState,
        flow_invariants,
        integrate_flow,
        picard_flow,
        propagate_direct,
        propagate_gaussian,
        riccati_residual,
    )
    from .constrained import QuadSpec, invariance_check, make_plane
    from .fock import ModeBasis, vacuum_state

    kappa = model.get("kappa", 0.2)
    cutoff = model.get("cutoff", 24)
    t = run.get("t", 1.0)
    dt = run.get("dt", 1e-3)
    path = _flow_paths("squeeze", {"kappa": kappa})

    def closed_form():
        flow = integrate_flow(path, t, dt)
        r = kappa * t
        return float(
            abs(flow.f[0, 0] + 1j * math.sinh(r))
            + abs(flow.g[0, 0] - math.cosh(r))
            + abs(flow.m[0, 0] + 1j * math.tanh(r))
            + abs(flow.c - math.cosh(r) ** -0.5))

    def invariants():
        return flow_invariants(integrate_flow(path, t, dt)).max

    def riccati():
        return riccati_residual(integrate_flow(path, t, dt), path)

    def picard_agreement():
        flow = integrate_flow(path, min(t, 1.0), dt)
        res = picard_flow(path, min(t, 1.0), n_terms=25)
        return float(np.linalg.norm(res.f_lab - flow.f)
                     + np.linalg.norm(res.g_lab - flow.g))

    def picard_factorial():
        horizon = min(t, 1.0)
        res = picard_flow(path, horizon, n_terms=20, tol=None)
        k_const = max(kappa, 1e-12)
        worst = 0.0
        for n, tn in enumerate(res.term_norms):
            bound = (2 * k_const * horizon) ** n / math.factorial(n)
            worst = max(worst, tn / bound)
        return worst

    def propagator_equivalence():
        basis = ModeBasis(1, cutoff)
        flow = integrate_flow(path, t, dt)
        gauss = propagate_gaussian(CreatedState(), flow, basis)
        direct = propagate_direct(vacuum_state(basis), path, t, dt)
        return float(np.linalg.norm(gauss.coeffs - direct.state.coeffs))

    def tail_consistency():
        small = ModeBasis(1, cutoff // 2)
        big = ModeBasis(1, cutoff)
        full = propagate_direct(vacuum_state(big), path, t, dt).state
        half = propagate_direct(vacuum_state(small), path, t, dt).state
        diff = np.linalg.norm(full.coeffs[: small.size] - half.coeffs)
        q = math.tanh(kappa * t)
        tail = abs(full.coeffs[small.size - 1]) * q / math.sqrt(1 - q * q) + 1e-12
        return float(diff / (10 * tail))

    def constrained_invariance():
        basis = ModeBasis(1, cutoff)
        plane = make_plane([np.array([1.0])])
        return invariance_check(vacuum_state(basis), plane, path, t, dt,
                                quad=QuadSpec(pad=16, order=64))

    def constrained_vacuum():
        from .constrained import inner_constrained

        basis = ModeBasis(1, 32)
        plane = make_plane([np.array([1.0])])
        val = inner_constrained(vacuum_state(basis), vacuum_state(basis),
                                plane, QuadSpec(pad=12, order=48))
        return float(abs(val - math.sqrt(2 * math.pi)))

    return [
        Check("squeeze-closed-form", "flow.squeeze", 1e-9, closed_form),
        Check("flow-invariants", "flow.canonical-relations", 1e-9, invariants),
        Check("riccati-residual", "flow.riccati", 1e-8, riccati),
        Check("picard-agreement", "flow.picard-series", 1e-6, picard_agreement),
        Check("picard-term-bound", "flow.picard-factorial", 1.0, picard_factorial),
        Check("propagator-equivalence", "propagator.gaussian-vs-direct", 1e-6,
              propagator_equivalence),
        Check("cutoff-tail-consistency", "fock.gaussian-decay", 1.0,
              tail_consistency),
        Check("constrained-invariance", "constrained.flow-invariance", 1e-6,
              constrained_invariance),
        Check("constrained-vacuum-analytic", "constrained.gaussian-integral",
              1e-6, constrained_vacuum),
    ]


def _u2_checks(model: dict, run: dict, seed: int):
    import numpy as np
    from scipy.linalg import expm

    from .fock import ModeBasis
    from .symmetry import (
        GroupWord,
        check_group_law,
        second_kind_coords,
        word_product,
    )

    fam = u2_family()
    cutoff = model.get("cutoff", 12)
    basis = ModeBasis(2, cutoff)
    dt = run.get("dt", 2e-3)
    n_pairs = run.get("n_pairs", 20)
    scale = run.get("pair_scale", 0.3)
    x0 = np.zeros(3)

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
        word = GroupWord(
            [(2, s), (3, t), (2, -s), (3, -t)]
            + [(k, float(alphas[k])) for k in range(len(alphas) - 1, -1, -1)])
        return closed_word_distance(word)

    return [
        Check("group-law-random-pairs", "group.reconstruction", 1e-6,
              group_law_pairs),
        Check("contractible-loop", "group.closed-word", 1e-6, contractible_loop),
        Check("commutator-word", "group.closed-word", 1e-6, commutator_word),
    ]


def _metaplectic_checks(model: dict, run: dict):
    import numpy as np

    from .fock import ModeBasis
    from .symmetry import GroupWord, word_product

    fam = su11_family()
    cutoff = model.get("cutoff", 14)
    basis = ModeBasis(1, cutoff)
    dt = run.get("dt", 1e-3)
    x0 = np.zeros(3)

    def run_word():
        return word_product(fam, GroupWord([(0, 4 * math.pi)]), x0, basis, dt=dt)

    def classical_identity():
        res = run_word()
        return float(np.linalg.norm(res.rep_matrix - np.eye(2), 2)
                     + np.abs(res.x_out - x0).max())

    def loop_phase():
        res = run_word()
        return float(abs(abs(res.loop_phase) - math.pi))

    def global_sign():
        res = run_word()
        keep = basis.grade_size(cutoff - 4)
        sub = res.matrix[:keep, :keep]
        return float(np.abs(sub + np.eye(keep)).max())

    return [
        Check("classical-loop-identity", "group.loop-base", 1e-8,
              classical_identity),
        Check("loop-phase-pi", "group.double-valued-lift", 1e-8, loop_phase),
        Check("global-sign", "group.double-valued-lift", 1e-8, global_sign),
    ]


def _anomaly_checks(model: dict, run: dict):
    import numpy as np

    from .fock import ModeBasis, quadratic_matrix
    from .symmetry import check_f3, check_x6, omega_matrix

    eps = model.get("offset", 0.05)
    fam = su11_family(central_offset=eps)
    cutoff = model.get("cutoff", 16)
    basis = ModeBasis(1, cutoff)
    x0 = np.zeros(3)
    a = np.array([0.0, 1.0, 0.0])
    b = np.array([0.0, 0.0, 1.0])

    def f3_scalar():
        rep = check_f3(fam, a, b, x0)
        return float(abs(rep.hbar_residual - eps))

    def f3_quadratic():
        rep = check_f3(fam, a, b, x0)
        return rep.max_quadratic

    def x6_scalar():
        rep = check_x6(fam, a, b, x0, basis)
        return float(abs(rep.scalar - 1j * eps))

    def x6_off_scalar():
        return check_x6(fam, a, b, x0, basis).off_scalar_norm

    def omega_commutant():
        r = -(quadratic_matrix(fam.generator(a, x0), basis)
              @ quadratic_matrix(fam.generator(b, x0), basis)
              - quadratic_matrix(fam.generator(b, x0), basis)
              @ quadratic_matrix(fam.generator(a, x0), basis))
        r += 1j * quadratic_matrix(
            fam.generator(fam.algebra.bracket(a, b), x0), basis)
        keep = basis.grade_size(cutoff - 4)
        worst = 0.0
        for dx in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.3, -0.8])):
            om = omega_matrix(fam, x0, dx, basis)
            comm = r @ om - om @ r
            worst = max(worst, float(np.linalg.norm(comm[:keep, :keep], 2)))
        return worst

    return [
        Check("f3-scalar-recovery", "anomaly.scalar-relation", 1e-6, f3_scalar),
        Check("f3-quadratic-clean", "anomaly.quadratic-relations", 1e-10,
              f3_quadratic),
        Check("x6-scalar-recovery", "anomaly.c-number-form", 1e-6, x6_scalar),
        Check("x6-off-scalar", "anomaly.c-number-form", 1e-6, x6_off_scalar),
        Check("omega-commutant", "anomaly.commutant", 1e-6, omega_commutant),
    ]


def _packet_checks(model: dict, run: dict):
    import numpy as np

    from .packets import (
        ComposedPacket,
        PacketForms,
        PacketPoint,
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

    lam_sweep = run.get("lambda_sweep", [1e-1, 1e-2, 1e-3, 1e-4])
    h = run.get("h", 1e-4)

    def klambda_norm():
        f = gaussian_shape(n=512)
        x = PacketPoint(0.4, 1.3, -0.7)
        worst = 0.0
        for lam in (1.0, 0.01):
            wave = k_lambda(x, f, lam, packet_grid(x, f, lam))
            worst = max(worst, abs(wave.norm() - f.norm()))
        return worst

    def deriv_identity():
        f = gaussian_shape()
        x = PacketPoint(0.1, -0.4, 1.2)
        return max(derivative_identity_residual(x, f, 0.05, c, h=h)
                   for c in ("s", "q", "p"))

    def deriv_lambda_indep():
        f = gaussian_shape()
        x = PacketPoint(0.0, 0.2, 1.0)
        r1 = derivative_identity_residual(x, f, 1e-3, "q", h=1e-3)
        r2 = derivative_identity_residual(x, f, 5e-4, "q", h=1e-3)
        return abs(r1 - r2) / max(r1, r2)

    def omega_comms():
        forms = PacketForms()
        g = gaussian_shape()
        return max(omega_commutator_residual(forms, i, j, g)
                   for i in forms.components for j in forms.components)

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
        x0 = PacketPoint(0.0, 1.0, 0.0)
        grid = UniformGrid.centered(4.5, 1024)
        psi = k_lambda(x0, f, lam, grid)
        t = 1.0
        out = splitstep_evolve(psi, SplitStepProblem.polynomial([0, 0, 0.5]),
                               t, 1e-4)
        q, p = wave_moments(out)
        return float(abs(q - math.cos(t)) + abs(p + math.sin(t)))

    def wkb_slope():
        errs = [wkb_evolution_error(lam) for lam in lam_sweep]
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
    import numpy as np

    from .constrained import (
        QuadSpec,
        decay_profile,
        inner_constrained,
        inner_constrained_detailed,
        make_plane,
        regularized_inner,
    )
    from .fock import FockVector, ModeBasis, number_state, vacuum_state

    def vacuum_analytic():
        basis = ModeBasis(1, 32)
        plane = make_plane([np.array([1.0])])
        val = inner_constrained(vacuum_state(basis), vacuum_state(basis),
                                plane, QuadSpec(pad=12, order=48))
        return float(abs(val - math.sqrt(2 * math.pi)))

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
        for _ in range(run.get("n_random", 100)):
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
              vacuum_analytic),
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


SCENARIOS = {
    "rotation": lambda model, run, seed: _rotation_checks(model, run),
    "squeeze": lambda model, run, seed: _squeeze_checks(model, run),
    "u2-grouplaw": _u2_checks,
    "su11-metaplectic-loop": lambda model, run, seed: _metaplectic_checks(model, run),
    "anomaly-injection": lambda model, run, seed: _anomaly_checks(model, run),
    "packet-harmonic": lambda model, run, seed: _packet_checks(model, run),
    "constrained-basics": _constrained_checks,
}


def build_checks(scenario: str, model: dict, run: dict, seed: int = 0):
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return SCENARIOS[scenario](model, run, seed)
