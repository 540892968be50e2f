"""Lie-symmetry machinery over the extended phase space and its Fock fibers.

A scenario supplies three coupled pieces:

- a ``LieAlgebra``: structure constants plus a faithful matrix representation
  used for all group-side computations (words, canonical coordinates);
- a ``ClassicalSystem``: flows on points X = (S, Q, P), here affine
  symplectic maps on (Q, P) with the action coordinate transported by
  integrating P dQ - h dt;
- a ``GeneratorFamily``: the map (algebra element, X) -> quadratic Fock
  generator, together with the fiber 1-form phi that realizes the operator
  form Omega[dX] = -i (A+ phi - A- phi*).

The checks in this module measure, at finite truncation, the infinitesimal
consistency identities of such a family, integrate one-parameter evolutions
into group words, reconstruct group elements through canonical coordinates
of the second kind, and report anomaly residuals as scalars.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import expm, logm

from .bogoliubov import (
    BogoliubovFlow,
    GeneratorPath,
    compose_flows,
    exponential_flow,
    flow_invariants,
    integrate_flow,
    propagator_from_flow,
    rk4_step,
    step_count,
)
from .fock import (
    FockVector,
    ModeBasis,
    QuadraticGenerator,
    lowering_matrices,
    quadratic_matrix,
)

__all__ = [
    "LieAlgebra",
    "AffineGenerator",
    "ClassicalSystem",
    "GeneratorFamily",
    "GroupWord",
    "classical_flow",
    "check_vector_field_algebra",
    "check_f3",
    "F3Report",
    "check_x6",
    "X6Report",
    "check_form_conditions",
    "one_param_u",
    "OneParamResult",
    "word_product",
    "WordResult",
    "second_kind_coords",
    "check_group_law",
    "group_element_action",
    "GroupAction",
    "omega_matrix",
    "anomaly_record",
]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c[k, i, j] with [B_i, B_j] = sum_k c[k,i,j] B_k,
    plus a faithful matrix representation of the basis."""

    labels: tuple
    structure: np.ndarray
    rep: tuple

    def __init__(self, labels: Sequence[str], structure: np.ndarray,
                 rep: Sequence[np.ndarray]):
        labels = tuple(labels)
        structure = np.asarray(structure, dtype=float)
        rep = tuple(np.asarray(r, dtype=complex) for r in rep)
        m = len(labels)
        if structure.shape != (m, m, m):
            raise ValueError("structure constants must have shape (m, m, m)")
        if len(rep) != m:
            raise ValueError("need one representation matrix per basis element")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "rep", rep)
        anti = structure + structure.transpose(0, 2, 1)
        if np.abs(anti).max() > 1e-12:
            raise ValueError("structure constants are not antisymmetric")
        if self.jacobi_residual() > 1e-12:
            raise ValueError("structure constants violate the Jacobi identity")
        if self.rep_residual() > 1e-12:
            raise ValueError("matrix representation does not match the brackets")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of [A, B] for A = sum a_i B_i, B = sum b_j B_j."""
        return np.einsum("kij,i,j->k", self.structure, a, b)

    def jacobi_residual(self) -> float:
        m = self.dim
        worst = 0.0
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    e = np.zeros(m)
                    ei, ej, ek = e.copy(), e.copy(), e.copy()
                    ei[i] = ej[j] = ek[k] = 1.0
                    total = (
                        self.bracket(ei, self.bracket(ej, ek))
                        + self.bracket(ej, self.bracket(ek, ei))
                        + self.bracket(ek, self.bracket(ei, ej))
                    )
                    worst = max(worst, float(np.abs(total).max()))
        return worst

    def rep_residual(self) -> float:
        worst = 0.0
        for i in range(self.dim):
            for j in range(self.dim):
                comm = self.rep[i] @ self.rep[j] - self.rep[j] @ self.rep[i]
                expect = sum(self.structure[k, i, j] * self.rep[k]
                             for k in range(self.dim))
                worst = max(worst, float(np.abs(comm - expect).max()))
        return worst

    def rep_of(self, a: np.ndarray) -> np.ndarray:
        return sum(float(ai) * ri for ai, ri in zip(a, self.rep))


@dataclass(frozen=True)
class AffineGenerator:
    """Affine symplectic vector field dz/dt = lin z + off on (Q, P),
    with the classical Hamiltonian used for the action transport."""

    lin: np.ndarray
    off: np.ndarray
    ham: Callable[[float, float], float]

    def __init__(self, lin, off, ham):
        object.__setattr__(self, "lin", np.asarray(lin, dtype=float).reshape(2, 2))
        object.__setattr__(self, "off", np.asarray(off, dtype=float).reshape(2))
        object.__setattr__(self, "ham", ham)


class ClassicalSystem:
    """Flows on packed points X = (S, Q, P) generated per algebra direction."""

    def __init__(self, generators: Sequence[AffineGenerator]):
        self.generators = tuple(generators)

    @staticmethod
    def trivial(m: int) -> "ClassicalSystem":
        zero = AffineGenerator(np.zeros((2, 2)), np.zeros(2), lambda q, p: 0.0)
        return ClassicalSystem([zero] * m)

    @property
    def dim(self) -> int:
        return len(self.generators)

    def _field(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        s, q, p = x
        z = np.array([q, p])
        dz = np.zeros(2)
        h = 0.0
        for ai, gen in zip(a, self.generators):
            if ai == 0.0:
                continue
            dz += ai * (gen.lin @ z + gen.off)
            h += ai * gen.ham(q, p)
        return np.array([p * dz[0] - h, dz[0], dz[1]])

    def is_fixed_point(self, a: np.ndarray, x: np.ndarray) -> bool:
        """True when the field of direction a vanishes exactly at x.

        Every stage of the integrator then returns x unchanged, so the flow
        of a stays at x for all times.
        """
        a = np.asarray(a, dtype=float)
        return not np.any(self._field(a, np.asarray(x, dtype=float).reshape(3)))

    def flow(self, a: np.ndarray, t: float, x: np.ndarray,
             dt: float = 1e-3) -> np.ndarray:
        return self.trajectory(a, t, x, dt)[-1]

    def trajectory(self, a: np.ndarray, t: float, x: np.ndarray,
                   dt: float = 1e-3) -> np.ndarray:
        """States at half-step resolution 0, h/2, h, ..., t.

        ``step_count(|t|, dt)`` uniform ``rk4_step`` steps h of the sign of
        t.  The half-step states let a fixed-step integrator look its stage
        points up exactly.
        """
        a = np.asarray(a, dtype=float)
        cur = np.asarray(x, dtype=float).reshape(3).copy()
        n_steps = step_count(abs(t), dt)
        h = t / max(n_steps, 1)

        def field(_, y):
            return self._field(a, y)

        out = [cur.copy()]
        for _ in range(n_steps):
            out.append(rk4_step(field, 0.0, cur, h / 2))
            cur = rk4_step(field, 0.0, cur, h)
            out.append(cur.copy())
        return np.array(out)

    def tangent(self, a: np.ndarray, t: float, x: np.ndarray, dx: np.ndarray,
                eps: float = 1e-6, dt: float = 1e-3) -> np.ndarray:
        """Pushforward of a tangent vector along the flow, by differencing."""
        dx = np.asarray(dx, dtype=float).reshape(3)
        plus = self.flow(a, t, x + eps * dx, dt)
        minus = self.flow(a, t, x - eps * dx, dt)
        return (plus - minus) / (2 * eps)


def classical_flow(system: ClassicalSystem, a: np.ndarray, t: float,
                   x: np.ndarray, dt: float = 1e-3) -> np.ndarray:
    """Transport X = (S, Q, P) along the flow of the algebra direction a."""
    return system.flow(np.asarray(a, dtype=float), t, np.asarray(x, dtype=float), dt)


@dataclass(frozen=True)
class GeneratorFamily:
    """Quadratic generators and the fiber 1-form of a symmetry scenario.

    ``quad_gen(a, X)`` must be linear in the algebra coefficients a;
    ``phi(X, dX)`` maps a tangent vector to the C^d constraint vector.
    """

    algebra: LieAlgebra
    system: ClassicalSystem
    quad_gen: Callable[[np.ndarray, np.ndarray], QuadraticGenerator]
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    modes: int

    def generator(self, a: np.ndarray, x: np.ndarray) -> QuadraticGenerator:
        return self.quad_gen(np.asarray(a, dtype=float), np.asarray(x, dtype=float))


def _delta_matrix(fam: GeneratorFamily, a: np.ndarray, block: str,
                  b: np.ndarray, x: np.ndarray, h: float):
    """delta[A] of a generator block of H(B: X) by central differences."""
    xp = fam.system.flow(a, h, x)
    xm = fam.system.flow(a, -h, x)
    gp = fam.generator(b, xp)
    gm = fam.generator(b, xm)
    return (getattr(gp, block) - getattr(gm, block)) / (2 * h)


def check_vector_field_algebra(system: ClassicalSystem, alg: LieAlgebra,
                               a: np.ndarray, b: np.ndarray, x: np.ndarray,
                               h: float = 1e-4) -> float:
    """Residual of ([delta[A], delta[B]] + delta([A, B])) F on coordinates."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)

    def delta(direction, func, point):
        return (func(system.flow(direction, h, point))
                - func(system.flow(direction, -h, point))) / (2 * h)

    worst = 0.0
    for comp in range(3):
        func = lambda pt, c=comp: pt[c]
        ab = delta(a, lambda pt: delta(b, func, pt), x)
        ba = delta(b, lambda pt: delta(a, func, pt), x)
        cc = delta(alg.bracket(a, b), func, x)
        worst = max(worst, abs(ab - ba + cc))
    return worst


@dataclass(frozen=True)
class F3Report:
    hpp_residual: float
    hpm_residual: float
    hbar_residual: float   # signed scalar: the anomaly candidate
    phi_residual: float

    @property
    def max_quadratic(self) -> float:
        return max(self.hpp_residual, self.hpm_residual)


def check_f3(fam: GeneratorFamily, a: np.ndarray, b: np.ndarray,
             x: np.ndarray, h: float = 1e-4,
             dx: Optional[np.ndarray] = None) -> F3Report:
    """Residuals of the infinitesimal consistency relations of the family.

    The scalar relation's discrepancy is returned signed: a constant offset
    here is the anomaly candidate that the operator-level check should see
    as a multiple of the identity.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    ga = fam.generator(a, x)
    gb = fam.generator(b, x)
    gc = fam.generator(fam.algebra.bracket(a, b), x)
    hpp_a, hpp_b = ga.hpp, gb.hpp
    hpm_a, hpm_b = ga.hpm, gb.hpm

    # the delta-terms enter as delta[B] M(A) - delta[A] M(B), the order the
    # operator identity itself produces; the closed Weyl commutator word of
    # the translation family pins this orientation
    rhs_pp = -1j * (
        hpm_a @ hpp_b + hpp_b @ np.conj(hpm_a)
        - hpm_b @ hpp_a - hpp_a @ np.conj(hpm_b)
    )
    rhs_pp = rhs_pp + _delta_matrix(fam, b, "hpp", a, x, h) \
        - _delta_matrix(fam, a, "hpp", b, x, h)
    hpp_res = float(np.linalg.norm(gc.hpp - rhs_pp, 2))

    rhs_pm = -1j * (
        hpp_b @ np.conj(hpp_a) - hpp_a @ np.conj(hpp_b)
        + hpm_a @ hpm_b - hpm_b @ hpm_a
    )
    rhs_pm = rhs_pm + (
        _delta_matrix(fam, b, "hsmall", a, x, h)
        - _delta_matrix(fam, a, "hsmall", b, x, h)
    )
    hpm_res = float(np.linalg.norm(gc.hpm - rhs_pm, 2))

    rhs_bar = -0.5j * np.trace(
        hpp_b @ np.conj(hpp_a) - hpp_a @ np.conj(hpp_b))
    rhs_bar = complex(rhs_bar) \
        + _delta_matrix(fam, b, "hbar", a, x, h) \
        - _delta_matrix(fam, a, "hbar", b, x, h)
    hbar_res = float((gc.hbar - rhs_bar).real)
    if abs((gc.hbar - rhs_bar).imag) > 1e-9:
        raise RuntimeError("scalar relation produced an imaginary residual")

    # i (delta[A] phi)[dX] = H+-(A) phi[dX] + H++(A) conj(phi[dX])
    if dx is None:
        dx = np.array([0.3, 1.0, -0.7])
    xp = fam.system.flow(a, h, x)
    xm = fam.system.flow(a, -h, x)
    dxp = fam.system.tangent(a, h, x, dx)
    dxm = fam.system.tangent(a, -h, x, dx)
    dphi = (fam.phi(xp, dxp) - fam.phi(xm, dxm)) / (2 * h)
    phi0 = fam.phi(x, dx)
    phi_res = float(np.linalg.norm(
        1j * dphi - (hpm_a @ phi0 + hpp_a @ np.conj(phi0))))
    return F3Report(hpp_res, hpm_res, hbar_res, phi_res)


@dataclass(frozen=True)
class X6Report:
    residual_norm: float
    is_scalar: bool
    scalar: complex
    off_scalar_norm: float

    def to_record(self) -> dict:
        return {
            "relation": "commutator-consistency",
            "residual": self.residual_norm,
            "is_scalar_multiple_of_identity": self.is_scalar,
            "scalar_estimate": [self.scalar.real, self.scalar.imag],
        }


def anomaly_record(report: X6Report) -> str:
    return json.dumps(report.to_record())


def _restrict(mat: np.ndarray, basis: ModeBasis, margin: int) -> np.ndarray:
    keep = basis.grade_size(basis.cutoff - margin)
    return mat[:keep, :keep]


def check_x6(fam: GeneratorFamily, a: np.ndarray, b: np.ndarray,
             x: np.ndarray, basis: ModeBasis, h: float = 1e-4,
             margin: int = 4, scalar_tol: float = 1e-6) -> X6Report:
    """Operator residual of the commutator consistency identity:

        R = -[H(A:X), H(B:X)] - i delta[B] H(A:X) + i delta[A] H(B:X)
            + i H([A,B]: X),

    margin-restricted so truncation cannot masquerade as an anomaly.  An
    anomalous family leaves R equal to a scalar multiple of the identity.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    ha = quadratic_matrix(fam.generator(a, x), basis)
    hb = quadratic_matrix(fam.generator(b, x), basis)
    hc = quadratic_matrix(fam.generator(fam.algebra.bracket(a, b), x), basis)

    def delta_gen_matrix(direction, other):
        xp = fam.system.flow(direction, h, x)
        xm = fam.system.flow(direction, -h, x)
        gp = quadratic_matrix(fam.generator(other, xp), basis)
        gm = quadratic_matrix(fam.generator(other, xm), basis)
        return (gp - gm) / (2 * h)

    r = -(ha @ hb - hb @ ha)
    r = r - 1j * delta_gen_matrix(b, a) + 1j * delta_gen_matrix(a, b) + 1j * hc
    sub = _restrict(r, basis, margin)
    dim = sub.shape[0]
    scalar = complex(np.trace(sub) / dim)
    off = sub - scalar * np.eye(dim)
    off_norm = float(np.linalg.norm(off, 2))
    return X6Report(
        residual_norm=float(np.linalg.norm(sub, 2)),
        is_scalar=off_norm <= scalar_tol,
        scalar=scalar,
        off_scalar_norm=off_norm,
    )


def omega_matrix(fam: GeneratorFamily, x: np.ndarray, dx: np.ndarray,
                 basis: ModeBasis) -> np.ndarray:
    """Matrix of Omega[dX] = -i (A+ phi - A- phi*) on the truncated basis."""
    phi = np.asarray(fam.phi(x, dx), dtype=complex).reshape(-1)
    mats = lowering_matrices(basis)
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for i in range(basis.modes):
        out += phi[i] * mats[i].conj().T - np.conj(phi[i]) * mats[i]
    return -1j * out


def check_form_conditions(fam: GeneratorFamily, a: np.ndarray, x: np.ndarray,
                          dx: np.ndarray, basis: ModeBasis,
                          h: float = 1e-4, margin: int = 4) -> tuple[float, float]:
    """(omega residual, Omega residual) of the invariance conditions.

    omega: |delta[A] (P dQ - dS)| with the pushforward of dX included.
    Omega: ||(delta[A] Omega)[dX] - i [Omega[dX], H(A:X)]|| restricted.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float).reshape(3)

    def omega_scalar(point, tangent):
        return point[2] * tangent[1] - tangent[0]

    xp = fam.system.flow(a, h, x)
    xm = fam.system.flow(a, -h, x)
    dxp = fam.system.tangent(a, h, x, dx)
    dxm = fam.system.tangent(a, -h, x, dx)
    omega_res = abs(
        (omega_scalar(xp, dxp) - omega_scalar(xm, dxm)) / (2 * h))

    om_p = omega_matrix(fam, xp, dxp, basis)
    om_m = omega_matrix(fam, xm, dxm, basis)
    d_om = (om_p - om_m) / (2 * h)
    om0 = omega_matrix(fam, x, dx, basis)
    hmat = quadratic_matrix(fam.generator(a, x), basis)
    target = 1j * (om0 @ hmat - hmat @ om0)
    omega_op_res = float(np.linalg.norm(_restrict(d_om - target, basis, margin), 2))
    return float(omega_res), omega_op_res


@dataclass(frozen=True)
class OneParamResult:
    matrix: np.ndarray
    flow: BogoliubovFlow
    x_out: np.ndarray
    leakage: float


def one_param_u(fam: GeneratorFamily, b: np.ndarray, t: float, x: np.ndarray,
                basis: ModeBasis, dt: float = 1e-3) -> OneParamResult:
    """Solve the one-parameter evolution along the classical flow of B.

    The generator path tau -> H(B: u_(g_B(tau)) X) feeds the linear flow
    solver; the resulting (F, G, M, c) is realized as a matrix on the
    truncated basis.  Unitary up to the reported leakage.

    When X is a fixed point of the classical flow of B
    (``ClassicalSystem.is_fixed_point``) the path is the constant generator
    H(B: X) and ``exponential_flow`` solves it exactly, so ``dt`` is not
    used.  Points that move are integrated by ``integrate_flow`` with a
    step of at most ``dt`` on the sampled trajectory.
    """
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        return OneParamResult(np.eye(basis.size, dtype=complex),
                              BogoliubovFlow.identity(basis.modes), x.copy(), 0.0)
    if fam.system.is_fixed_point(b, x):
        flow = exponential_flow(fam.generator(np.sign(t) * b, x), abs(t))
        matrix, leak = propagator_from_flow(flow, basis)
        return OneParamResult(matrix, flow, x.copy(), leak)
    n_steps = step_count(abs(t), dt)
    dt_eff = abs(t) / n_steps
    states = fam.system.trajectory(b, t, x, dt_eff)
    half = (t / n_steps) / 2

    def path_gen(tau: float) -> QuadraticGenerator:
        j = int(round(tau / abs(half)))
        if abs(tau - j * abs(half)) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("generator path sampled off the stage grid")
        j = min(j, len(states) - 1)
        return fam.generator(np.sign(t) * b, states[j])

    path = GeneratorPath(path_gen, abs(t))
    flow = integrate_flow(path, abs(t), dt_eff)
    matrix, leak = propagator_from_flow(flow, basis)
    return OneParamResult(matrix, flow, states[-1], leak)


@dataclass(frozen=True)
class GroupWord:
    """Sequence of (basis index, duration) factors, applied first to last."""

    factors: tuple

    def __init__(self, factors: Sequence[tuple]):
        object.__setattr__(self, "factors",
                           tuple((int(i), float(t)) for i, t in factors))


@dataclass(frozen=True)
class WordResult:
    matrix: np.ndarray
    flow: BogoliubovFlow
    x_out: np.ndarray
    rep_matrix: np.ndarray
    leakage: float
    classical_is_loop: bool
    loop_phase: Optional[float]
    loop_distance: Optional[float]


def word_product(fam: GeneratorFamily, word: GroupWord, x: np.ndarray,
                 basis: ModeBasis, dt: float = 1e-3, margin: int = 4,
                 loop_tol: float = 1e-8) -> WordResult:
    """Compose one-parameter evolutions along a word of basis directions.

    When the word's classical product is the identity (in the matrix
    representation and on the transported point), the result reports the
    distance of the operator product to a global phase, and that phase.
    """
    x = np.asarray(x, dtype=float)
    m = fam.algebra.dim
    u_total = np.eye(basis.size, dtype=complex)
    flow_total = BogoliubovFlow.identity(basis.modes)
    rep = np.eye(fam.algebra.rep[0].shape[0], dtype=complex)
    x_cur = x.copy()
    leak = 0.0
    for idx, duration in word.factors:
        direction = np.zeros(m)
        direction[idx] = 1.0
        step = one_param_u(fam, direction, duration, x_cur, basis, dt)
        u_total = step.matrix @ u_total
        flow_total = compose_flows(step.flow, flow_total)
        rep = expm(duration * fam.algebra.rep[idx]) @ rep
        x_cur = step.x_out
        leak = max(leak, step.leakage)
    eye = np.eye(rep.shape[0])
    is_loop = (
        float(np.linalg.norm(rep - eye, 2)) <= loop_tol
        and float(np.abs(x_cur - x).max()) <= max(1e-7, loop_tol)
    )
    loop_phase = None
    loop_distance = None
    if is_loop:
        sub = _restrict(u_total, basis, margin)
        dim = sub.shape[0]
        tr = complex(np.trace(sub) / dim)
        loop_phase = float(np.angle(tr))
        loop_distance = float(
            np.linalg.norm(sub - np.exp(1j * loop_phase) * np.eye(dim), 2))
    return WordResult(
        matrix=u_total,
        flow=flow_total,
        x_out=x_cur,
        rep_matrix=rep,
        leakage=leak,
        classical_is_loop=is_loop,
        loop_phase=loop_phase,
        loop_distance=loop_distance,
    )


def second_kind_coords(g: np.ndarray, alg: LieAlgebra, tol: float = 1e-12,
                       max_iter: int = 50) -> np.ndarray:
    """Solve g = g_(B_1)(a_1) ... g_(B_m)(a_m) in the matrix representation.

    Newton iteration seeded by the first-kind coordinates (matrix
    logarithm projected onto the representation basis).
    """
    g = np.asarray(g, dtype=complex)
    m = alg.dim
    basis_stack = np.stack([r.reshape(-1) for r in alg.rep], axis=1)
    mu = logm(g)
    seed, *_ = np.linalg.lstsq(basis_stack, mu.reshape(-1), rcond=None)
    alphas = seed.real.astype(float)

    def factors(vals):
        return [expm(vals[k] * alg.rep[k]) for k in range(m)]

    for _ in range(max_iter):
        fs = factors(alphas)
        prod = np.eye(g.shape[0], dtype=complex)
        prefixes = [prod]
        for f in fs:
            prod = prod @ f
            prefixes.append(prod)
        err = prod - g
        err_norm = float(np.linalg.norm(err))
        if err_norm <= tol:
            return alphas
        suffixes = [np.eye(g.shape[0], dtype=complex)]
        for f in reversed(fs):
            suffixes.append(f @ suffixes[-1])
        suffixes.reverse()
        jac = np.empty((g.size, m), dtype=complex)
        for k in range(m):
            dk = prefixes[k] @ alg.rep[k] @ fs[k] @ suffixes[k + 1]
            jac[:, k] = dk.reshape(-1)
        jr = np.concatenate([jac.real, jac.imag], axis=0)
        er = np.concatenate([err.reshape(-1).real, err.reshape(-1).imag])
        step, *_ = np.linalg.lstsq(jr, -er, rcond=None)
        alphas = alphas + step
    raise RuntimeError(
        f"second-kind coordinates did not converge (residual {err_norm:.3e}); "
        "the element is outside the local chart"
    )


def _theorem_word(alphas: np.ndarray) -> GroupWord:
    """The canonical factor order: the last basis direction acts first."""
    m = len(alphas)
    return GroupWord([(k, float(alphas[k])) for k in range(m - 1, -1, -1)])


@dataclass(frozen=True)
class GroupAction:
    unitary: np.ndarray
    flow: BogoliubovFlow
    x_out: np.ndarray
    alphas: np.ndarray
    word: GroupWord
    _fam: GeneratorFamily
    _dt: float

    def map_point(self, x: np.ndarray) -> np.ndarray:
        x_cur = np.asarray(x, dtype=float).copy()
        m = self._fam.algebra.dim
        for idx, duration in self.word.factors:
            direction = np.zeros(m)
            direction[idx] = 1.0
            x_cur = self._fam.system.flow(direction, duration, x_cur)
        return x_cur


def group_element_action(fam: GeneratorFamily, g: np.ndarray,
                         x: Optional[np.ndarray], basis: ModeBasis,
                         dt: float = 1e-3) -> GroupAction:
    """Build U_g(u_g X <- X) through canonical coordinates of the second kind."""
    if x is None:
        x = np.zeros(3)
    alphas = second_kind_coords(np.asarray(g, dtype=complex), fam.algebra)
    word = _theorem_word(alphas)
    res = word_product(fam, word, np.asarray(x, dtype=float), basis, dt)
    return GroupAction(
        unitary=res.matrix,
        flow=res.flow,
        x_out=res.x_out,
        alphas=alphas,
        word=word,
        _fam=fam,
        _dt=dt,
    )


def check_group_law(fam: GeneratorFamily, g1: np.ndarray, g2: np.ndarray,
                    x: np.ndarray, basis: ModeBasis, dt: float = 1e-3,
                    margin: int = 4) -> float:
    """|| U_(g1)(u_(g1 g2) X <- u_(g2) X) U_(g2)(u_(g2) X <- X)
        - U_(g1 g2)(u_(g1 g2) X <- X) ||, margin-restricted."""
    x = np.asarray(x, dtype=float)
    act2 = group_element_action(fam, g2, x, basis, dt)
    act1 = group_element_action(fam, g1, act2.x_out, basis, dt)
    act12 = group_element_action(fam, np.asarray(g1) @ np.asarray(g2), x, basis, dt)
    lhs = act1.unitary @ act2.unitary
    diff = _restrict(lhs - act12.unitary, basis, margin)
    return float(np.linalg.norm(diff, 2))
