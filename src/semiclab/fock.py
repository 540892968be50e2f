"""Finite truncation of the bosonic Fock space over d modes.

The single-particle space is C^d and the many-body basis enumerates all
occupation multi-indices n with sum(n) <= N in graded lexicographic order
(grade = total quanta, ascending; lexicographic within a grade).  Because
the ordering is graded, the basis with cutoff N is an exact prefix of the
basis with cutoff N+k, so embedding and truncation are array slices.

Operators follow a drop-above-cutoff policy: amplitude raised past the
cutoff is removed and its squared mass is accumulated in the vector's
``leakage`` field, which keeps every operation linear and makes truncation
error observable instead of fatal; ``FockVector.truncate`` is the one
place it is counted.  Every operator reads one representation, the cached
``LadderTable`` of its basis: a_i as index maps and the pair products as
maps composed from them.  Dense matrices appear only as outputs
(``quadratic_matrix``, ``one_body_matrix``, ``symmetry.omega_matrix`` and
``displacement_eig``'s eigenvectors), in margin-restricted norms and in the
tests' oracle; ``displacement_eig`` factors its eigensolve into grade
blocks and Hermite Jacobi blocks and forms no operator matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Optional, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

__all__ = [
    "ModeBasis",
    "FockVector",
    "LadderTable",
    "ladder_table",
    "QuadraticGenerator",
    "WeightOperator",
    "GaussianData",
    "LeakageError",
    "ConvergenceError",
    "vacuum_state",
    "number_state",
    "apply_ladder",
    "apply_quadratic",
    "quadratic_matrix",
    "one_body_matrix",
    "displacement",
    "displacement_eig",
    "gaussian_state",
    "gaussian_tail_bound",
    "gaussian_perturb_series",
    "weighted_norm",
    "inner",
]


class LeakageError(RuntimeError):
    """Truncation leakage exceeded a configured threshold."""


class ConvergenceError(RuntimeError):
    """An iterative construction failed its convergence certificate."""


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _enumerate_states(modes: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for grade in range(cutoff + 1):
        out.extend(_compositions(grade, modes))
    return tuple(out)


@dataclass(frozen=True)
class ModeBasis:
    """Occupation basis of a d-mode Fock space truncated at total quanta N."""

    modes: int
    cutoff: int

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("need at least one mode")
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")

    @property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return _enumerate_states(self.modes, self.cutoff)

    @property
    def size(self) -> int:
        return math.comb(self.cutoff + self.modes, self.modes)

    @property
    def index(self) -> dict[tuple[int, ...], int]:
        return _state_index(self.modes, self.cutoff)

    @property
    def totals(self) -> np.ndarray:
        """Total quanta per basis state, shape (size,)."""
        return _totals(self.modes, self.cutoff)

    def padded(self, extra: int) -> "ModeBasis":
        return ModeBasis(self.modes, self.cutoff + extra)

    def grade_size(self, max_total: int) -> int:
        """Number of basis states with total quanta <= max_total."""
        m = min(max_total, self.cutoff)
        if m < 0:
            return 0
        return math.comb(m + self.modes, self.modes)


@lru_cache(maxsize=None)
def _state_index(modes: int, cutoff: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(_enumerate_states(modes, cutoff))}


@lru_cache(maxsize=None)
def _totals(modes: int, cutoff: int) -> np.ndarray:
    t = np.array([sum(s) for s in _enumerate_states(modes, cutoff)])
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class LadderTable:
    """Index maps of the ladder operators on one truncated basis.

    ``lower[i] = (rows, cols, vals)``: a_i[rows, cols] = vals = sqrt(n_i), no
    row or column repeated, as a_i is one-to-one on occupation states.  The
    pair products a+_i a+_j, a+_i a_j, a_i a_j put ``pair_vals`` at flat
    positions ``pair_at`` for the coefficient at ``pair_slot`` in (Hpp, Hpm,
    Hmm) flattened, slots ascending; products past the cutoff are absent.
    """

    dim: int
    lower: tuple
    pair_at: np.ndarray
    pair_slot: np.ndarray
    pair_vals: np.ndarray


@lru_cache(maxsize=32)
def ladder_table(basis: ModeBasis) -> LadderTable:
    """The ladder table of ``basis``, built once per basis."""
    d, dim = basis.modes, basis.size
    occ = np.array(basis.states)
    # where a_i ("a") and a+_i ("a+") send each state, -1 for nowhere, and
    # the factor sqrt(n) picked up on the way
    to = {"a": np.full((d, dim), -1), "a+": np.full((d, dim), -1)}
    factor = {"a": np.sqrt(occ.T.astype(float)), "a+": np.sqrt(occ.T + 1.0)}
    lower = []
    for i in range(d):
        cols = np.flatnonzero(occ[:, i])
        lowered = (occ[cols] - np.eye(d, dtype=int)[i]).tolist()
        rows = np.array([basis.index[tuple(s)] for s in lowered], dtype=int)
        to["a"][i, cols], to["a+"][i, rows] = rows, cols
        lower.append((rows, cols, factor["a"][i, cols]))
    pairs = [(outer, i, inner, j)
             for outer, inner in [("a+", "a+"), ("a+", "a"), ("a", "a")]
             for i in range(d) for j in range(d)]
    parts = []
    for slot, (outer, i, inner, j) in enumerate(pairs):
        cols = np.flatnonzero(to[inner][j] >= 0)
        mid = to[inner][j, cols]
        keep = to[outer][i, mid] >= 0
        cols, mid = cols[keep], mid[keep]
        parts.append((to[outer][i, mid] * dim + cols, np.full(cols.size, slot),
                      factor[outer][i, mid] * factor[inner][j, cols]))
    at, slots, vals = (np.concatenate(p) for p in zip(*parts))
    for arr in (at, slots, vals, *(a for m in lower for a in m)):
        arr.flags.writeable = False
    return LadderTable(dim, tuple(lower), at, slots, vals)


@dataclass(frozen=True)
class FockVector:
    """Coefficient vector over a truncated occupation basis.

    ``leakage`` carries the accumulated squared amplitude mass dropped at
    the cutoff by the operations that produced this vector.
    """

    basis: ModeBasis
    coeffs: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected ({self.basis.size},)"
            )
        object.__setattr__(self, "coeffs", c)
        if self.leakage < 0:
            raise ValueError("leakage must be nonnegative")

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def with_leakage(self, leakage: float) -> "FockVector":
        return FockVector(self.basis, self.coeffs, leakage)

    def embed(self, basis: ModeBasis) -> "FockVector":
        """Embed into a larger basis (same modes, cutoff >= current)."""
        if basis.modes != self.basis.modes or basis.cutoff < self.basis.cutoff:
            raise ValueError("can only embed into a larger basis over the same modes")
        c = np.zeros(basis.size, dtype=complex)
        c[: self.basis.size] = self.coeffs
        return FockVector(basis, c, self.leakage)

    def truncate(self, basis: ModeBasis) -> "FockVector":
        """Project onto a smaller basis; dropped mass goes to leakage."""
        if basis.modes != self.basis.modes or basis.cutoff > self.basis.cutoff:
            raise ValueError("can only truncate to a smaller basis over the same modes")
        kept = self.coeffs[: basis.size]
        dropped = float(np.sum(np.abs(self.coeffs[basis.size:]) ** 2))
        return FockVector(basis, kept, self.leakage + dropped)


def vacuum_state(basis: ModeBasis) -> FockVector:
    c = np.zeros(basis.size, dtype=complex)
    c[0] = 1.0
    return FockVector(basis, c)


def number_state(basis: ModeBasis, occupation: Sequence[int]) -> FockVector:
    occ = tuple(occupation)
    if len(occ) != basis.modes:
        raise ValueError(f"occupation needs {basis.modes} entries")
    if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in occ):
        raise ValueError(f"occupations must be nonnegative integers, got {occ}")
    if sum(occ) > basis.cutoff:
        raise ValueError("occupation exceeds the cutoff")
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index[occ]] = 1.0
    return FockVector(basis, c)


def _allclose(a: np.ndarray, b: np.ndarray, atol: float = 1e-12) -> bool:
    """``np.allclose(a, b, atol=atol)``'s predicate |a - b| <= atol + 1e-5 |b|
    at a fraction of its cost; NaN and inf entries are rejected."""
    return bool(np.isfinite(a).all() and np.isfinite(b).all()
                and (np.abs(a - b) <= atol + 1e-5 * np.abs(b)).all())


def _check_mode_vector(f: np.ndarray, basis: ModeBasis) -> np.ndarray:
    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.shape != (basis.modes,):
        raise ValueError(f"mode vector has length {f.size}, expected {basis.modes}")
    return f


def apply_ladder(
    f: np.ndarray,
    psi: FockVector,
    mode: Literal["create", "annihilate"],
) -> FockVector:
    """Apply A+[f] (create) or its adjoint A-[f*] (annihilate).

    create:      sum_i f_i a+_i, amplitudes raised past the cutoff are
                 dropped into leakage.
    annihilate:  sum_i conj(f_i) a_i, exact on the truncated space.
    """
    f = _check_mode_vector(f, psi.basis)
    if mode == "annihilate":
        out = np.zeros(psi.basis.size, dtype=complex)
        for fi, (rows, cols, vals) in zip(f, ladder_table(psi.basis).lower):
            if fi != 0:
                out[rows] += np.conj(fi) * (vals * psi.coeffs[cols])
        return FockVector(psi.basis, out, psi.leakage)
    if mode != "create":
        raise ValueError("mode must be 'create' or 'annihilate'")
    # raise into one extra grade, then truncate it into leakage; a+ on the
    # padded basis reads grades <= N only, so psi itself is the source
    big = psi.basis.padded(1)
    out = np.zeros(big.size, dtype=complex)
    for fi, (rows, cols, vals) in zip(f, ladder_table(big).lower):
        if fi != 0:
            out[cols] += fi * (vals * psi.coeffs[rows])
    return FockVector(big, out, psi.leakage).truncate(psi.basis)


@dataclass(frozen=True)
class QuadraticGenerator:
    """Quadratic Fock-space Hamiltonian

        H = 1/2 A+ Hpp A+ + A+ Hpm A- + 1/2 A- Hmm A- + hbar,

    with Hpp symmetric, Hpm Hermitian and Hmm = conj(Hpp).
    """

    hpp: np.ndarray
    hpm: np.ndarray
    hbar: float = 0.0

    def __post_init__(self):
        hpp = np.atleast_2d(np.asarray(self.hpp, dtype=complex))
        hpm = np.atleast_2d(np.asarray(self.hpm, dtype=complex))
        d = hpp.shape[0]
        for name, m in (("hpp", hpp), ("hpm", hpm)):
            if m.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}")
        if not _allclose(hpp, hpp.T):
            raise ValueError("hpp must be symmetric")
        if not _allclose(hpm, hpm.conj().T):
            raise ValueError("hpm must be Hermitian")
        object.__setattr__(self, "hpp", hpp)
        object.__setattr__(self, "hpm", hpm)
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def modes(self) -> int:
        return self.hpp.shape[0]

    @property
    def hmm(self) -> np.ndarray:
        return self.hpp.conj()

    @staticmethod
    def from_blocks(hpp=None, hpm=None, hbar: float = 0.0, modes: Optional[int] = None):
        """Build from the blocks given; a block not given is zero."""
        if hpp is None and hpm is None and modes is None:
            raise ValueError("cannot infer the number of modes")
        if modes is None:
            probe = hpp if hpp is not None else hpm
            modes = np.atleast_2d(np.asarray(probe)).shape[0]
        z = np.zeros((modes, modes), dtype=complex)
        hpp = z if hpp is None else np.atleast_2d(np.asarray(hpp, dtype=complex))
        hpm = z if hpm is None else np.atleast_2d(np.asarray(hpm, dtype=complex))
        return QuadraticGenerator(hpp=hpp, hpm=hpm, hbar=hbar)


def _dense(table: LadderTable, coeffs: np.ndarray) -> np.ndarray:
    """Sum coeffs[slot] * value over the pair entries into a dim x dim matrix,
    in table order: the order a sum over (i, j) of dense products adds them."""
    n = table.dim
    w = coeffs[table.pair_slot] * table.pair_vals
    out = np.empty((n, n), dtype=complex)
    out.real = np.bincount(table.pair_at, w.real, minlength=n * n).reshape(n, n)
    out.imag = np.bincount(table.pair_at, w.imag, minlength=n * n).reshape(n, n)
    return out


def quadratic_matrix(gen: QuadraticGenerator, basis: ModeBasis) -> np.ndarray:
    """Dense matrix of the generator on the truncated basis.

    This is the compression P H P of the untruncated operator: exact on
    vectors supported at total quanta <= N-2.
    """
    if gen.modes != basis.modes:
        raise ValueError("generator and basis mode counts differ")
    h = _dense(ladder_table(basis), np.concatenate(
        [(0.5 * gen.hpp).ravel(), gen.hpm.ravel(), (0.5 * gen.hmm).ravel()]))
    h.flat[:: basis.size + 1] += gen.hbar
    return h


def one_body_matrix(t: np.ndarray, basis: ModeBasis) -> np.ndarray:
    """Second quantization sum_ij T_ij a+_i a_j on the truncated basis."""
    t = np.atleast_2d(np.asarray(t, dtype=complex))
    if t.shape != (basis.modes, basis.modes):
        raise ValueError("matrix size does not match the mode count")
    z = np.zeros(t.size)
    return _dense(ladder_table(basis), np.concatenate([z, t.ravel(), z]))


def apply_quadratic(gen: QuadraticGenerator, psi: FockVector) -> FockVector:
    """Apply the quadratic generator with exact drop-above-cutoff accounting."""
    src = psi.embed(psi.basis.padded(2))
    out = quadratic_matrix(gen, src.basis) @ src.coeffs
    return FockVector(src.basis, out, src.leakage).truncate(psi.basis)


def displacement_eig(b: np.ndarray, basis: ModeBasis):
    """Eigendecomposition of K = A+[B] - A-[B*] so exp(beta K) = V e^(beta lam) V+.

    Returns (lam, v) with lam = -i w purely imaginary (K is anti-Hermitian
    on the truncated space, so every exp(beta K) is exactly unitary), w
    ascending, and v unitary.

    The eigensolve is real.  Write b_j = |b_j| e^(i phi_j) and take the
    diagonal unitaries D = diag(e^(i n.phi)) and S = diag(i^|n|) over the
    occupation states n.  Since D a+_j D+ = e^(i phi_j) a+_j and
    S+ (a+_j - a_j) S = -i (a_j + a_j^T),

        i K = (D S) X (D S)+,   X = sum_j |b_j| (a_j + a_j^T),

    with X real symmetric, and v = D S Q for X = Q diag(w) Q^T: a phase
    per occupation state times a real orthogonal Q.

    X is never formed.  With r = |(|b_1|, ..., |b_d|)| and R the rotation
    in one plane that takes e_1 to |b| / r, X = r Gamma(R) (a_1 + a_1^T)
    Gamma(R)^T, where Gamma(R) is the real orthogonal Fock-space image of
    R.  Gamma(R) keeps the total quanta, so on the graded basis it is one
    block per grade, exp(theta L_n) with L_n the grade block of the
    one-body generator of R.  The middle factor keeps the occupations n'
    of modes 2..d, and on each n' it is r times the Jacobi matrix of the
    Hermite polynomials on n_1 = 0..N - |n'|; blocks of one size share one
    tridiagonal eigensolve.  V is formed grade by grade, Gamma_n times the
    grade-n rows of the block eigenvectors.
    """
    b = _check_mode_vector(b, basis)
    amp = np.abs(b)
    r = float(np.linalg.norm(amp))
    # eigenvector k of the block of n' is labelled by the state (k, n')
    w, blocks = np.empty(basis.size), []
    for rows in _jacobi_blocks(basis):
        m = rows.shape[1]
        z, zv = eigh_tridiagonal(np.zeros(m), r * np.sqrt(np.arange(1.0, m)))
        w[rows] = z
        blocks.append((rows, zv))
    order = np.argsort(w, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(basis.size)
    q = np.zeros((basis.size, basis.size))
    for rows, zv in blocks:
        q[rows[:, :, None], column[rows][:, None, :]] = zv
    for grade, gamma in _rotation_blocks(amp / r if r else amp, basis):
        q[grade] = gamma @ q[grade]
    return -1j * w[order], _state_phases(b, basis)[:, None] * q


@lru_cache(maxsize=32)
def _jacobi_blocks(basis: ModeBasis) -> tuple:
    """Basis indices of the Hermite Jacobi blocks of a_1 + a_1^T, one
    (blocks, size) array per block size: row t lists the states
    (0, n'), (1, n'), ... of one occupation n' of modes 2..d."""
    by_tail: dict = {}
    for i, s in enumerate(basis.states):
        by_tail.setdefault(s[1:], []).append(i)
    by_size: dict = {}
    for rows in by_tail.values():
        by_size.setdefault(len(rows), []).append(rows)
    out = tuple(np.array(rows) for rows in by_size.values())
    for arr in out:
        arr.flags.writeable = False
    return out


def _rotation_blocks(u: np.ndarray, basis: ModeBasis) -> list:
    """(grade slice, block) pairs of Gamma(R), R the rotation in the plane
    of e_1 and the real unit vector u that takes e_1 to u; no pairs when u
    is e_1 (or zero), where Gamma(R) is the identity.

    With e the unit vector of u - u_1 e_1 and theta = atan2(|u - u_1 e_1|,
    u_1), R = exp(theta A) for A = e e_1^T - e_1 e^T, and Gamma(R) =
    exp(theta L) for the one-body generator L = sum_ij A_ij a+_i a_j, which
    maps each grade to itself.
    """
    d, dim = basis.modes, basis.size
    perp = u.copy()
    perp[0] = 0.0
    sin = float(np.linalg.norm(perp))
    if sin == 0.0:
        return []
    gen = np.zeros((d, d))
    gen[:, 0], gen[0, :] = perp / sin, -perp / sin
    theta = math.atan2(sin, float(u[0]))
    # the a+_i a_j entries of the ladder table, placed in one flat array
    # that holds the grade blocks one after another
    table = ladder_table(basis)
    one_body = (table.pair_slot >= d * d) & (table.pair_slot < 2 * d * d)
    rows, cols = np.divmod(table.pair_at[one_body], dim)
    coef = gen.ravel()[table.pair_slot[one_body] - d * d] * table.pair_vals[one_body]
    starts = np.array([basis.grade_size(n - 1) for n in range(basis.cutoff + 2)])
    sizes = np.diff(starts)
    offsets = np.concatenate([[0], np.cumsum(sizes**2)])
    grade = basis.totals[rows]
    at = offsets[grade] + (rows - starts[grade]) * sizes[grade] + cols - starts[grade]
    flat = np.bincount(at, coef, minlength=offsets[-1])
    return [(slice(starts[n], starts[n + 1]),
             expm(theta * flat[offsets[n]: offsets[n + 1]].reshape(m, m)))
            for n, m in enumerate(sizes)]


def _state_phases(b: np.ndarray, basis: ModeBasis) -> np.ndarray:
    """i^|n| prod_j (b_j / |b_j|)^(n_j) for each occupation state n, the
    phase of row n of displacement_eig's v (a b_j of 0 counts as phase 1).
    The powers are running products of the unit phases, so on a real b
    every phase is exactly a power of i, up to sign."""
    amp = np.abs(b)
    unit = np.ones(b.size, dtype=complex)
    unit[amp > 0] = b[amp > 0] / amp[amp > 0]
    powers = np.ones((basis.cutoff + 1, b.size), dtype=complex)
    powers[1:] = unit
    powers = np.cumprod(powers, axis=0)  # powers[k, j] = unit_j^k
    return (np.array([1, 1j, -1, -1j])[basis.totals % 4]
            * np.prod(powers[np.array(basis.states), np.arange(b.size)], axis=1))


def displacement(
    b,
    psi: FockVector,
    pad: int = 8,
    leak_threshold: Optional[float] = None,
) -> FockVector:
    """Apply the unitary U[B] = exp(A+[B] - A-[B*]).

    Computed by exact exponentiation on a basis padded by ``pad`` quanta,
    then projected back; the projected-away mass is the leakage.  Amplitudes
    that are not finite raise ``ValueError``.
    """
    b = _check_mode_vector(b, psi.basis)
    if not np.all(np.isfinite(b)):
        raise ValueError(f"displacement amplitudes must be finite, got {b}")
    big = psi.basis.padded(pad)
    lam, v = displacement_eig(b, big)
    src = psi.embed(big).coeffs
    out = v @ (np.exp(lam) * np.conj(v.T @ np.conj(src)))
    moved = FockVector(big, out).truncate(psi.basis)
    if leak_threshold is not None and moved.leakage > leak_threshold:
        raise LeakageError(
            f"displacement leaked {moved.leakage:.3e} > {leak_threshold:.3e}; "
            "the cutoff is too small for this displacement"
        )
    return moved.with_leakage(psi.leakage + moved.leakage)


@dataclass(frozen=True)
class GaussianData:
    """Parameters (M, c) of the Gaussian state c exp(1/2 A+ M A+)|0>."""

    m: np.ndarray
    c: complex = 1.0

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.m, dtype=complex))
        if m.shape[0] != m.shape[1]:
            raise ValueError("M must be square")
        if not _allclose(m, m.T):
            raise ValueError("M must be symmetric")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", complex(self.c))

    @property
    def modes(self) -> int:
        return self.m.shape[0]

    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.m, 2))


def _raise_quadratic(m: np.ndarray, coeffs: np.ndarray, basis: ModeBasis) -> np.ndarray:
    """Apply 1/2 A+ M A+ within a fixed basis (no padding)."""
    lower = ladder_table(basis).lower
    out = np.zeros_like(coeffs)
    for i, (rows_i, cols_i, vals_i) in enumerate(lower):
        for j, (rows_j, cols_j, vals_j) in enumerate(lower):
            if m[i, j] != 0:
                raised = np.zeros_like(coeffs)
                raised[cols_j] = vals_j * coeffs[rows_j]
                out[cols_i] += 0.5 * m[i, j] * (vals_i * raised[rows_i])
    return out


def _exp_raise(m: np.ndarray, coeffs: np.ndarray, n_terms: int, basis: ModeBasis):
    """The first n_terms terms of exp(1/2 A+ M A+) coeffs summed within the
    basis, and the norm of each term."""
    term, acc, norms = coeffs, coeffs.copy(), [float(np.linalg.norm(coeffs))]
    for k in range(1, n_terms):
        term = _raise_quadratic(m, term, basis) / k
        acc += term
        norms.append(float(np.linalg.norm(term)))
    return acc, norms


def gaussian_state(gd: GaussianData, basis: ModeBasis) -> FockVector:
    """Evaluate c exp(1/2 A+ M A+)|0> summed to the cutoff.

    The state's ``leakage`` field is set to the squared tail estimate from
    the exponential decay of the grade norms (||component at grade n|| <=
    A e^(-alpha n) with alpha = -log(||M||)/2).
    """
    if gd.modes != basis.modes:
        raise ValueError("Gaussian data and basis mode counts differ")
    q = gd.spectral_norm()
    if q >= 1.0:
        raise ValueError(f"||M|| = {q:.6f} >= 1: state is not normalizable")
    acc, norms = _exp_raise(gd.m, vacuum_state(basis).coeffs, basis.cutoff // 2 + 1,
                            basis)
    tail = gaussian_tail_bound(q, last_term=norms[-1])
    return FockVector(basis, gd.c * acc, leakage=abs(gd.c) ** 2 * tail**2)


def gaussian_tail_bound(m_norm: float, last_term: float) -> float:
    """Geometric estimate of the norm dropped past the cutoff.

    Successive grade components of exp(1/2 A+ M A+)|0> shrink at least
    like ||M|| per 2 quanta asymptotically; the dropped tail is bounded by
    the last kept term times the geometric series in ||M||.
    """
    if m_norm >= 1.0:
        return float("inf")
    if m_norm == 0.0:
        return 0.0
    r = m_norm
    return last_term * r / math.sqrt(max(1e-300, 1.0 - r * r))


def gaussian_perturb_series(
    m: np.ndarray,
    dm: np.ndarray,
    n_terms: int,
    basis: ModeBasis,
) -> FockVector:
    """Expand exp(1/2 A+ (M + dM) A+)|0> as a series in (1/2 A+ dM A+).

    The admissible perturbation size comes from the convergence argument:
    with alpha = -log(||M||)/4 the series of term bounds is geometric when
    ||dM||_HS exp(3 alpha / 2) <= alpha.
    """
    gd = GaussianData(m)
    dm = np.atleast_2d(np.asarray(dm, dtype=complex))
    if not _allclose(dm, dm.T):
        raise ValueError("dM must be symmetric")
    q = gd.spectral_norm()
    if q >= 1.0:
        raise ValueError("||M|| must be < 1")
    if q > 0:
        alpha = -0.25 * math.log(q)
        radius = alpha * math.exp(-1.5 * alpha)
        hs = float(np.linalg.norm(dm, "fro"))
        if hs > radius:
            raise ValueError(
                f"||dM||_HS = {hs:.3e} exceeds the convergence radius {radius:.3e}"
            )
    if np.linalg.norm(m + dm, 2) >= 1.0:
        raise ValueError("||M + dM|| must be < 1")
    base = gaussian_state(gd, basis)
    acc, norms = _exp_raise(dm, base.coeffs, n_terms, basis)
    if n_terms >= 4 and not (norms[-1] <= norms[-2] <= norms[-3]):
        raise ConvergenceError(
            "perturbation series term norms are not decreasing; "
            f"last three: {norms[-3]:.3e}, {norms[-2]:.3e}, {norms[-1]:.3e}"
        )
    return FockVector(basis, acc, leakage=base.leakage)


@dataclass(frozen=True)
class WeightOperator:
    """Hermitian single-particle weight T with spectrum >= 1."""

    t: np.ndarray

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.t, dtype=complex))
        if t.shape[0] != t.shape[1]:
            raise ValueError("T must be square")
        if not _allclose(t, t.conj().T):
            raise ValueError("T must be Hermitian")
        if np.linalg.eigvalsh(t).min() < 1.0 - 1e-10:
            raise ValueError("T must have eigenvalues >= 1")
        object.__setattr__(self, "t", t)

    @property
    def modes(self) -> int:
        return self.t.shape[0]


def weighted_norm(psi: FockVector, m: float, t: Optional[WeightOperator] = None) -> float:
    """||(n_hat + 1)^m psi||, or ||(A+ T A- + 1)^m psi|| when T is given."""
    if m < 0:
        raise ValueError("weight exponent must be nonnegative")
    if t is None:
        w = (psi.basis.totals + 1.0) ** m
        return float(np.linalg.norm(w * psi.coeffs))
    if t.modes != psi.basis.modes:
        raise ValueError("weight operator mode count mismatch")
    op = one_body_matrix(t.t, psi.basis) + np.eye(psi.basis.size)
    if float(m).is_integer():
        vec = psi.coeffs
        for _ in range(int(m)):
            vec = op @ vec
        return float(np.linalg.norm(vec))
    w, v = np.linalg.eigh(op)
    vec = v @ (w**m * (v.conj().T @ psi.coeffs))
    return float(np.linalg.norm(vec))


def inner(psi1: FockVector, psi2: FockVector) -> complex:
    """Fock inner product, conjugate-linear in the first argument."""
    if psi1.basis != psi2.basis:
        raise ValueError("vectors live on different bases")
    return complex(np.vdot(psi1.coeffs, psi2.coeffs))
