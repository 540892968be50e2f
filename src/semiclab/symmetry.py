"""Lie-symmetry machinery over the extended phase space and its Fock fibers.

A scenario supplies three coupled pieces:

- a ``LieAlgebra``: declared by a faithful matrix representation alone,
  used for all group-side computations (words, canonical coordinates); its
  structure constants are derived from the representation once, when built;
- a ``ClassicalSystem``: flows on points X = (S, Q, P) of n degrees of
  freedom, finite float arrays of shape (2n + 1,) (``packets`` takes the
  one-dof points as they are), one quadratic Hamiltonian form per
  direction, so affine symplectic maps on (Q, P) with the action
  P . dQ - h dt carried along, all exact in closed form; the action form
  omega[dX] = P . dQ - dS is ``action_form``;
- a ``GeneratorFamily``: declared by its classical forms and constant
  scalar offsets alone, and their Weyl quantization: one fixed quadratic
  Fock generator on n modes per direction and the per-direction scalars
  hbar_i(X), so H(a: X) = sum_i a_i G_i + a . hbar(X), the algebra in its
  Jacobi representation, and the fiber 1-form phi (``standard_phi``) that
  realizes the operator form Omega[dX] = -i (A+ phi - A- phi*).

The checks in this module measure, at finite truncation, the infinitesimal
consistency identities of such a family, integrate one-parameter evolutions
into group words, reconstruct group elements through canonical coordinates
of the second kind, and report anomaly residuals as scalars.

Every one-parameter evolution is exact: only a family's scalar moves with
X, and its integral along a classical flow is read off the flow's action
(``one_param_u``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import expm, logm

from .bogoliubov import (
    BogoliubovFlow,
    compose_flows,
    exponential_flow,
    propagator_from_flow,
)
from .fock import (
    ModeBasis,
    QuadraticGenerator,
    ladder_table,
    quadratic_matrix,
)

__all__ = [
    "LieAlgebra",
    "ClassicalSystem",
    "GeneratorFamily",
    "GroupWord",
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
    "action_form",
    "standard_phi",
]

_CLOSURE_TOL = 1e-12  # residual and imaginary part allowed in a derived bracket


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra declared by a faithful matrix representation, the basis
    matrices B_i of ``rep``.  Its structure constants c = ``structure``, of
    [B_i, B_j] = sum_k c[k, i, j] B_k, are derived once, when built, by
    projecting each commutator on the basis through the Gram matrix,
    (F^H F) c = F^H [B_i, B_j] with F the flattened basis: antisymmetric and
    Jacobi by construction.  A linearly dependent basis, a commutator outside
    its span, or complex coefficients raise ``ValueError``."""

    rep: tuple

    def __post_init__(self):
        rep = tuple(np.asarray(r, dtype=complex) for r in self.rep)
        object.__setattr__(self, "rep", rep)
        m = len(rep)
        flat = np.stack([r.reshape(-1) for r in rep], axis=1)
        if np.linalg.matrix_rank(flat) < m:
            raise ValueError("the basis matrices are linearly dependent")
        comms = np.array([(ri @ rj - rj @ ri).reshape(-1) for ri in rep for rj in rep]).T
        coeffs = np.linalg.solve(flat.conj().T @ flat, flat.conj().T @ comms)
        residual = float(np.abs(flat @ coeffs - comms).max())
        if residual > _CLOSURE_TOL:
            raise ValueError("the basis does not close under commutators: "
                             f"residual {residual:.3e} outside its span")
        imag = float(np.abs(coeffs.imag).max())
        if imag > _CLOSURE_TOL:
            raise ValueError("the basis closes only with complex structure "
                             f"constants (imaginary part {imag:.3e})")
        object.__setattr__(self, "structure", coeffs.real.reshape(m, m, m))

    @property
    def dim(self) -> int:
        return len(self.rep)

    @property
    def labels(self) -> tuple:
        """Names b0, b1, ... of the basis directions, a key of perfbench's tracer."""
        return tuple(f"b{k}" for k in range(self.dim))

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of [A, B] for A = sum a_i B_i, B = sum b_j B_j."""
        return np.einsum("kij,i,j->k", self.structure, a, b)


def _coefficients(a, dim: int, name: str = "algebra coefficients") -> np.ndarray:
    """A finite float vector of length dim, one per direction, or ValueError."""
    a = np.asarray(a, dtype=float)
    if a.shape != (dim,):
        raise ValueError(f"need {dim} {name}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, got {a}")
    return a


def _point(x, size: int = 3) -> np.ndarray:
    """A point X = (S, Q, P) of n = (size - 1) / 2 degrees of freedom as a
    finite float array of shape (size,), or ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (size,):
        raise ValueError(f"a point X = (S, Q, P) has shape ({size},), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"a point X = (S, Q, P) must be finite, got {x}")
    return x


def action_form(x: np.ndarray, dx: np.ndarray) -> float:
    """The action form omega[dX] = P . dQ - dS at X = (S, Q, P); its
    vanishing along a manifold is isotropy."""
    n = len(x) // 2
    return x[n + 1:] @ dx[1:n + 1] - dx[0]


def standard_phi(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """The fiber form phi[dX] = (dQ + i dP) / sqrt(2) on n modes, for a
    tangent dX = (dS, dQ, dP) of n degrees of freedom."""
    dx = np.asarray(dx, dtype=float).reshape(-1)
    n = len(dx) // 2
    return (dx[1:n + 1] + 1j * dx[n + 1:]) / math.sqrt(2)


def _checked_forms(forms: Sequence[np.ndarray]) -> np.ndarray:
    """Hamiltonian forms as one float (m, 2n + 1, 2n + 1) array, each finite,
    symmetric and of its first form's size, or ValueError."""
    forms = [np.asarray(f, dtype=float) for f in forms]
    if not forms:
        raise ValueError("a classical system needs at least one form")
    shape = forms[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 3 or shape[0] % 2 == 0:
        raise ValueError("a Hamiltonian form is (2n+1)x(2n+1), n >= 1, on w = (q, p, 1) "
                         f"of n degrees of freedom, got shape {shape}")
    for h in forms:
        if h.shape != shape:
            raise ValueError(f"the forms of a system are {shape[0]}x{shape[0]} like "
                             f"its first, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("a Hamiltonian form must be finite")
        if not np.array_equal(h, h.T):
            raise ValueError("a Hamiltonian form must be symmetric")
    return np.array(forms)


def _hamilton_field(h: np.ndarray) -> np.ndarray:
    """The matrix A of w' = A w, w = (Q, P, 1), from Hamilton's equations
    Q' = dh/dP = 2 (H w)_P, P' = -dh/dQ = -2 (H w)_Q of h = w^T H w."""
    n = len(h) // 2
    return np.concatenate([2 * h[n:2 * n], -2 * h[:n], np.zeros((1, len(h)))])


class ClassicalSystem:
    """Flows on packed points X = (S, Q, P), one per algebra direction.

    Direction i is declared by a finite symmetric (2n+1)x(2n+1) form H_i,
    the Hamiltonian h_i(q, p) = w^T H_i w on w = (q, p, 1) of n degrees of
    freedom.  Hamilton's equations make the field affine, w' = A w, and the
    action follows S' = P . Q' - h = w^T R w with R = E_P A_Q - H, E_P
    the embedding of the P rows.  Both are exact in closed form:

        exp(t [[-A^T, R], [0, A]]) = [[., E], [0, e^(A t)]],
        w(t) = e^(A t) w,   S(t) = S + w(t) . (E w),

    the action integral by Van Loan's block-triangular exponential.  Points
    and tangents are checked (``_point``).
    """

    def __init__(self, forms: Sequence[np.ndarray]):
        self.forms = _checked_forms(forms)

    @property
    def dim(self) -> int:
        return len(self.forms)

    def _point(self, x) -> np.ndarray:
        return _point(x, self.forms.shape[1])

    def _form(self, a: np.ndarray) -> np.ndarray:
        """The form sum_i a_i H_i of direction a."""
        a = _coefficients(a, self.dim)
        return (a @ self.forms.reshape(self.dim, -1)).reshape(self.forms.shape[1:])

    def trajectory(self, a: np.ndarray, times: Sequence[float],
                   x: np.ndarray) -> np.ndarray:
        """Exact states X(tau), one row per tau of ``times``, from one
        batched matrix exponential."""
        x = self._point(x)
        times = np.asarray(times, dtype=float)
        h = self._form(a)
        field = _hamilton_field(h)
        size, n = len(h), len(h) // 2
        gen = np.zeros((2 * size, 2 * size))
        gen[:size, :size] = -field.T
        gen[:size, size:] = np.eye(size, n, -n) @ field[:n] - h  # S' = P . Q' - h
        gen[size:, size:] = field
        blocks = expm(np.multiply.outer(times, gen))
        w = np.append(x[1:], 1.0)
        moved = blocks[:, size:, size:] @ w
        action = np.sum(moved * (blocks[:, :size, size:] @ w), axis=-1)
        return np.column_stack([x[0] + action, moved[:, :-1]])

    def is_fixed_point(self, a: np.ndarray, x: np.ndarray) -> bool:
        """True when the field of direction a vanishes exactly at x, so
        the flow of a stays at x: Q' = P' = 0 is (H w)[:2n] = 0, and then
        S' = -h = -(H w)[2n]."""
        return not np.any(self._form(a) @ np.append(self._point(x)[1:], 1.0))

    def flow(self, a: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
        return self.trajectory(a, [t], x)[0]

    def tangent(self, a: np.ndarray, t: float, x: np.ndarray,
                dx: np.ndarray) -> np.ndarray:
        """Exact pushforward of the tangent vector dx along the flow of a.

        The flow is quadratic in X, so its central difference at unit step
        is its derivative exactly.
        """
        x, dx = self._point(x), self._point(dx)
        return (self.flow(a, t, x + dx) - self.flow(a, t, x - dx)) / 2


@dataclass(frozen=True, eq=False)
class GeneratorFamily:
    """A symmetry family: its classical forms and scalar offsets, and their
    Weyl quantization, derived once, when built.

    A form F_i = [[K_i, L_i], [L_i^T, c_i]] on w = (q, p, 1) of n degrees of
    freedom is direction i's Hamiltonian.  Derived: ``system``; ``algebra``,
    the forms' Poisson algebra in the Jacobi representation rho(F) =
    [[0, 2 F[2n]], [0, A]], A the Hamilton field, so forms that do not close
    raise ``ValueError``; a fixed generator G_i on n modes per direction,
    H++ = Kqq - Kpp + i (Kqp + Kqp^T) and H+- = Kqq + Kpp - i (Kqp - Kqp^T);
    and the scalars hbar_i(X) = L_i . (Q, P) + c_i + tr(K_i) / 2 + offsets_i
    (the Weyl symbol's h - X . grad(h) / 2, its ordering constant and a
    declared constant, where an anomaly is injected), tabulated on (1, Q, P).
    So H(a: X) = sum_i a_i G_i + a . hbar(X), whose blocks do not move with
    X.  ``phi`` is ``standard_phi``.  Families compare and hash by identity:
    two declarations of the same forms are two families.
    """

    forms: np.ndarray
    offsets: np.ndarray

    phi = staticmethod(standard_phi)

    def __post_init__(self):
        system = ClassicalSystem(self.forms)
        forms, m, n = system.forms, system.dim, len(system.forms[0]) // 2
        offsets = _coefficients(self.offsets, m, "offsets")
        rho = np.zeros((m, 2 * n + 2, 2 * n + 2))
        for r, f in zip(rho, forms):
            r[0, 1:], r[1:, 1:] = 2 * f[-1], _hamilton_field(f)
        k = forms[:, :2 * n, :2 * n]
        kqq, kqp, kpp = k[:, :n, :n], k[:, :n, n:], k[:, n:, n:]
        kpq = kqp.transpose(0, 2, 1)
        # tr(K_i) / 2 + offsets_i, and the scalars' table on (1, Q, P)
        ordering = np.trace(k, axis1=1, axis2=2) / 2 + offsets
        for name, value in (
                ("forms", forms), ("offsets", offsets), ("system", system),
                ("algebra", LieAlgebra(tuple(rho))), ("_ordering", ordering),
                ("_scalars", np.column_stack([forms[:, -1, -1] + ordering,
                                              forms[:, :-1, -1]])),
                ("_blocks", np.stack([kqq - kpp + 1j * (kqp + kpq),
                                      kqq + kpp + 1j * (kpq - kqp)], axis=1))):
            object.__setattr__(self, name, value)

    @property
    def modes(self) -> int:
        return len(self.forms[0]) // 2

    def generator(self, a: np.ndarray, x: np.ndarray) -> QuadraticGenerator:
        a = _coefficients(a, self.algebra.dim)
        return self._generator(a, self._scalar(a, x))

    def _scalar(self, a: np.ndarray, x: np.ndarray) -> float:
        """The scalar a . hbar(X) of H(a: X)."""
        return float(a @ (self._scalars @ np.append(1.0, x[1:])))

    def _generator(self, a: np.ndarray, hbar: float) -> QuadraticGenerator:
        """H(a: .) with the scalar hbar: one contraction over the blocks."""
        hpp, hpm = np.tensordot(a, self._blocks, 1)
        return QuadraticGenerator(hpp, hpm, hbar)


def _delta(system: ClassicalSystem, a: np.ndarray, x: np.ndarray, h: float,
           func: Callable, dx: Optional[np.ndarray] = None):
    """delta[A] func at x by the central difference (func(+h) - func(-h)) / (2 h)
    along the flow of a; with a tangent dx, func also takes its pushforward."""
    def at(s):
        point = system.flow(a, s, x)
        return func(point) if dx is None else func(point, system.tangent(a, s, x, dx))

    return (at(h) - at(-h)) / (2 * h)


def _delta_scalars(fam: GeneratorFamily, a: np.ndarray, b: np.ndarray,
                   x: np.ndarray) -> float:
    """delta[B] hbar(A: X) - delta[A] hbar(B: X), the delta-terms of the
    consistency identities, exact: the scalars are affine in (Q, P), with
    gradients ``_scalars[:, 1:]``, and the flow of C moves (Q, P) at the rate
    (A_C w)[:2n], A_C its Hamilton field."""
    w = np.append(x[1:], 1.0)
    rate_a, rate_b = ((_hamilton_field(fam.system._form(c)) @ w)[:-1] for c in (a, b))
    grads = fam._scalars[:, 1:]
    return float(a @ grads @ rate_b - b @ grads @ rate_a)


def check_vector_field_algebra(system: ClassicalSystem, alg: LieAlgebra,
                               a: np.ndarray, b: np.ndarray, x: np.ndarray,
                               h: float = 1e-4) -> float:
    """Residual of ([delta[A], delta[B]] + delta([A, B])) F on coordinates."""
    a, b = (_coefficients(v, alg.dim) for v in (a, b))
    x = system._point(x)

    worst = 0.0
    for comp in range(len(x)):
        func = lambda pt, c=comp: pt[c]
        ab = _delta(system, a, x, h, lambda pt: _delta(system, b, pt, h, func))
        ba = _delta(system, b, x, h, lambda pt: _delta(system, a, pt, h, func))
        cc = _delta(system, alg.bracket(a, b), x, h, func)
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

    The quadratic relations carry no delta-terms: a family's blocks do not
    move with X, and the scalar's are exact.  The scalar relation's
    discrepancy is returned signed: a constant offset here is the anomaly
    candidate that the operator-level check should see as a multiple of the
    identity.  delta[A] phi is a central difference of step h along dx,
    by default dS = 0.3, dQ = 1 and dP = -0.7 in every degree of freedom.
    """
    a, b = (_coefficients(v, fam.algebra.dim) for v in (a, b))
    x = fam.system._point(x)
    ga = fam.generator(a, x)
    gb = fam.generator(b, x)
    gc = fam.generator(fam.algebra.bracket(a, b), x)
    hpp_a, hpp_b = ga.hpp, gb.hpp
    hpm_a, hpm_b = ga.hpm, gb.hpm

    rhs_pp = -1j * (
        hpm_a @ hpp_b + hpp_b @ np.conj(hpm_a)
        - hpm_b @ hpp_a - hpp_a @ np.conj(hpm_b)
    )
    hpp_res = float(np.linalg.norm(gc.hpp - rhs_pp, 2))

    rhs_pm = -1j * (
        hpp_b @ np.conj(hpp_a) - hpp_a @ np.conj(hpp_b)
        + hpm_a @ hpm_b - hpm_b @ hpm_a
    )
    hpm_res = float(np.linalg.norm(gc.hpm - rhs_pm, 2))

    # the delta-term enters as delta[B] hbar(A) - delta[A] hbar(B), the order
    # the operator identity itself produces; the closed Weyl commutator word
    # of the translation family pins this orientation
    rhs_bar = -0.5j * np.trace(
        hpp_b @ np.conj(hpp_a) - hpp_a @ np.conj(hpp_b))
    rhs_bar = complex(rhs_bar) + _delta_scalars(fam, a, b, x)
    hbar_res = float((gc.hbar - rhs_bar).real)
    if abs((gc.hbar - rhs_bar).imag) > 1e-9:
        raise RuntimeError("scalar relation produced an imaginary residual")

    # i (delta[A] phi)[dX] = H+-(A) phi[dX] + H++(A) conj(phi[dX])
    if dx is None:
        dx = np.repeat([0.3, 1.0, -0.7], [1, fam.modes, fam.modes])
    dphi = _delta(fam.system, a, x, h, fam.phi, dx)
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
    residual: np.ndarray  # R on the whole truncated basis, unrestricted


MARGIN = 4  # grades below the cutoff where truncated products are exact
_X6_SCALAR_TOL = 1e-6  # off-scalar norm of an x6 residual read as a scalar
# a word is a loop when its matrix returns to 1 and its point to the start
_LOOP_REP_TOL, _LOOP_POINT_TOL = 1e-8, 1e-7
_NEWTON_TOL, _NEWTON_ITERATIONS = 1e-12, 50  # second-kind coordinates


def _restrict(mat: np.ndarray, basis: ModeBasis, margin: int = MARGIN) -> np.ndarray:
    """The block of ``mat`` on total quanta <= cutoff - margin, past the vacuum."""
    if basis.cutoff <= margin:
        raise ValueError(f"cutoff {basis.cutoff} leaves at most the vacuum below "
                         f"the margin of {margin} quanta")
    keep = basis.grade_size(basis.cutoff - margin)
    return mat[:keep, :keep]


def check_x6(fam: GeneratorFamily, a: np.ndarray, b: np.ndarray,
             x: np.ndarray, basis: ModeBasis, margin: int = MARGIN) -> X6Report:
    """Operator residual of the commutator consistency identity:

        R = -[H(A:X), H(B:X)] - i delta[B] H(A:X) + i delta[A] H(B:X)
            + i H([A,B]: X),

    margin-restricted so truncation cannot masquerade as an anomaly.  An
    anomalous family leaves R equal to a scalar multiple of the identity.
    Only a family's scalars move with X, so the delta-terms are a scalar,
    taken exactly (``_delta_scalars``).
    """
    a, b = (_coefficients(v, fam.algebra.dim) for v in (a, b))
    x = fam.system._point(x)
    ha = quadratic_matrix(fam.generator(a, x), basis)
    hb = quadratic_matrix(fam.generator(b, x), basis)
    hc = quadratic_matrix(fam.generator(fam.algebra.bracket(a, b), x), basis)

    r = -(ha @ hb - hb @ ha) + 1j * hc
    r.flat[:: basis.size + 1] -= 1j * _delta_scalars(fam, a, b, x)
    sub = _restrict(r, basis, margin)
    dim = sub.shape[0]
    scalar = complex(np.trace(sub) / dim)
    off = sub - scalar * np.eye(dim)
    off_norm = float(np.linalg.norm(off, 2))
    return X6Report(
        residual_norm=float(np.linalg.norm(sub, 2)),
        is_scalar=off_norm <= _X6_SCALAR_TOL,
        scalar=scalar,
        off_scalar_norm=off_norm,
        residual=r,
    )


def omega_matrix(fam: GeneratorFamily, x: np.ndarray, dx: np.ndarray,
                 basis: ModeBasis) -> np.ndarray:
    """Matrix of Omega[dX] = -i (A+ phi - A- phi*) on the truncated basis."""
    phi = np.asarray(fam.phi(x, dx), dtype=complex).reshape(-1)
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for p, (rows, cols, vals) in zip(phi, ladder_table(basis).lower):
        out[cols, rows] = p * vals
        out[rows, cols] = -(np.conj(p) * vals)
    return -1j * out


def check_form_conditions(fam: GeneratorFamily, a: np.ndarray, x: np.ndarray,
                          dx: np.ndarray, basis: ModeBasis,
                          h: float = 1e-4, margin: int = MARGIN) -> tuple[float, float]:
    """(omega residual, Omega residual) of the invariance conditions.

    omega: |delta[A] (P dQ - dS)| with the pushforward of dX included.
    Omega: ||(delta[A] Omega)[dX] - i [Omega[dX], H(A:X)]|| restricted.
    """
    a = _coefficients(a, fam.algebra.dim)
    x, dx = fam.system._point(x), fam.system._point(dx)

    omega_res = abs(_delta(fam.system, a, x, h, action_form, dx))
    d_om = _delta(fam.system, a, x, h,
                  lambda point, tangent: omega_matrix(fam, point, tangent, basis), dx)
    om0 = omega_matrix(fam, x, dx, basis)
    hmat = quadratic_matrix(fam.generator(a, x), basis)
    target = 1j * (om0 @ hmat - hmat @ om0)
    omega_op_res = float(np.linalg.norm(_restrict(d_om - target, basis, margin), 2))
    return float(omega_res), omega_op_res


@dataclass(frozen=True)
class OneParamResult:
    flow: BogoliubovFlow
    x_out: np.ndarray


def one_param_u(fam: GeneratorFamily, b: np.ndarray, t: float,
                x: np.ndarray) -> OneParamResult:
    """Solve the one-parameter evolution along the classical flow of B.

    The generator path is tau -> H(B: u_(g_B(tau)) X); only its scalar
    hbar_b(X(tau)) moves (``GeneratorFamily``), and a scalar commutes with
    every operator, so the evolution is ``exponential_flow`` of the blocks
    of H(B) with the scalar's path mean.  Its integral is exact from the
    action: hbar_b = h_b - (P . Q' - Q . P') / 2 + tr(K_b) / 2 + b . offsets
    and S' = P . Q' - h_b, so from X = (S, Q, P) to X(t) = (S', Q', P') it
    is S - S' + (Q' . P' - Q . P) / 2 + (tr(K_b) / 2 + b . offsets) t, for
    either sign of t.  At a fixed point of the flow of B
    (``ClassicalSystem.is_fixed_point``) the scalar is read at X.

    Returns the Bogoliubov flow (F, G, M, c) and the transported point;
    ``propagator_from_flow`` realizes the flow on a truncated basis.  A
    point x that is not a finite (S, Q, P) array raises ``ValueError``.
    """
    b = _coefficients(b, fam.algebra.dim)
    x = fam.system._point(x)
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"duration t = {t} is not finite")
    if t == 0.0:
        return OneParamResult(BogoliubovFlow.identity(fam.modes), x.copy())
    signed = np.sign(t) * b
    if fam.system.is_fixed_point(b, x):
        hbar, x_out = fam._scalar(signed, x), x.copy()
    else:
        x_out = fam.system.flow(b, t, x)
        n = fam.modes
        integral = (x[0] - x_out[0]
                    + (x_out[1:n + 1] @ x_out[n + 1:] - x[1:n + 1] @ x[n + 1:]) / 2
                    + (b @ fam._ordering) * t)
        hbar = float(integral) / abs(t)
    return OneParamResult(exponential_flow(fam._generator(signed, hbar), abs(t)), x_out)


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
                 basis: ModeBasis, dt: float = 1e-3,
                 margin: int = MARGIN) -> WordResult:
    """Compose one-parameter evolutions along a word of basis directions.

    The factor flows are composed (``compose_flows``) and the word's flow
    is realized once, by ``propagator_from_flow``.  When the word's
    classical product is the identity (in the matrix representation and on
    the transported point), the result reports the distance of the operator
    to a global phase, and that phase.  A factor whose index is outside
    ``range(algebra.dim)`` or whose duration is not finite, or a point x
    that is not a finite (S, Q, P) array (``_point``), raises
    ``ValueError``.  ``dt`` is accepted and unused: every factor is exact
    (``one_param_u``); it stays while scenario configs pass ``run.dt``.
    """
    x = fam.system._point(x)
    m = fam.algebra.dim
    for k, (idx, duration) in enumerate(word.factors):
        if not 0 <= idx < m:
            raise ValueError(f"factor {k} of the word, {(idx, duration)}: "
                             f"index {idx} is outside range({m})")
        if not np.isfinite(duration):
            raise ValueError(f"factor {k} of the word, {(idx, duration)}: "
                             f"duration {duration} is not finite")
    flow_total = BogoliubovFlow.identity(fam.modes)
    rep = np.eye(fam.algebra.rep[0].shape[0], dtype=complex)
    x_cur = x.copy()
    for k, (idx, duration) in enumerate(word.factors):
        step = one_param_u(fam, np.eye(m)[idx], duration, x_cur)
        flow_total = compose_flows(step.flow, flow_total) if k else step.flow
        rep = expm(duration * fam.algebra.rep[idx]) @ rep
        x_cur = step.x_out
    u_total, leak = propagator_from_flow(flow_total, basis)
    eye = np.eye(rep.shape[0])
    is_loop = (
        float(np.linalg.norm(rep - eye, 2)) <= _LOOP_REP_TOL
        and float(np.abs(x_cur - x).max()) <= _LOOP_POINT_TOL
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


def second_kind_coords(g: np.ndarray, alg: LieAlgebra) -> np.ndarray:
    """Solve g = g_(B_1)(a_1) ... g_(B_m)(a_m) in the matrix representation.

    Newton iteration seeded by the first-kind coordinates (matrix
    logarithm projected onto the representation basis).
    """
    g = np.asarray(g, dtype=complex)
    n, m = len(alg.rep[0]), alg.dim
    if g.shape != (n, n):
        raise ValueError(f"a group element of this algebra is {n}x{n}, got shape {g.shape}")
    basis_stack = np.stack([r.reshape(-1) for r in alg.rep], axis=1)
    mu = logm(g)
    seed, *_ = np.linalg.lstsq(basis_stack, mu.reshape(-1), rcond=None)
    alphas = seed.real.astype(float)

    def factors(vals):
        return [expm(vals[k] * alg.rep[k]) for k in range(m)]

    for _ in range(_NEWTON_ITERATIONS):
        fs = factors(alphas)
        prod = np.eye(g.shape[0], dtype=complex)
        prefixes = [prod]
        for f in fs:
            prod = prod @ f
            prefixes.append(prod)
        err = prod - g
        err_norm = float(np.linalg.norm(err))
        if err_norm <= _NEWTON_TOL:
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

    def map_point(self, x: np.ndarray) -> np.ndarray:
        x_cur = self._fam.system._point(x).copy()
        m = self._fam.algebra.dim
        for idx, duration in self.word.factors:
            x_cur = self._fam.system.flow(np.eye(m)[idx], duration, x_cur)
        return x_cur


def group_element_action(fam: GeneratorFamily, g: np.ndarray,
                         x: Optional[np.ndarray], basis: ModeBasis) -> GroupAction:
    """Build U_g(u_g X <- X) through canonical coordinates of the second kind."""
    if x is None:
        x = np.zeros(len(fam.forms[0]))
    alphas = second_kind_coords(np.asarray(g, dtype=complex), fam.algebra)
    word = _theorem_word(alphas)
    res = word_product(fam, word, np.asarray(x, dtype=float), basis)
    return GroupAction(
        unitary=res.matrix,
        flow=res.flow,
        x_out=res.x_out,
        alphas=alphas,
        word=word,
        _fam=fam,
    )


def check_group_law(fam: GeneratorFamily, g1: np.ndarray, g2: np.ndarray,
                    x: np.ndarray, basis: ModeBasis, dt: float = 1e-3,
                    margin: int = MARGIN) -> float:
    """|| U_(g1)(u_(g1 g2) X <- u_(g2) X) U_(g2)(u_(g2) X <- X)
        - U_(g1 g2)(u_(g1 g2) X <- X) ||, margin-restricted.

    ``dt`` is accepted and unused, as in ``word_product``."""
    x = np.asarray(x, dtype=float)
    act2 = group_element_action(fam, g2, x, basis)
    act1 = group_element_action(fam, g1, act2.x_out, basis)
    act12 = group_element_action(fam, np.asarray(g1) @ np.asarray(g2), x, basis)
    lhs = act1.unitary @ act2.unitary
    diff = _restrict(lhs - act12.unitary, basis, margin)
    return float(np.linalg.norm(diff, 2))
