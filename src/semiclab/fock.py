"""Finite truncation of the bosonic Fock space over d modes.

The single-particle space is C^d and the many-body basis enumerates all
occupation multi-indices n with sum(n) <= N in graded lexicographic order
(grade = total quanta, ascending; lexicographic within a grade).  Because
the ordering is graded, the basis with cutoff N is an exact prefix of the
basis with cutoff N+k, so embedding and truncation are array slices.

Operators follow a drop-above-cutoff policy: amplitude raised past the
cutoff is removed and its squared mass is accumulated in the vector's
``leakage`` field, which keeps every operation linear and makes truncation
error observable instead of fatal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Optional, Sequence

import numpy as np

__all__ = [
    "ModeBasis",
    "FockVector",
    "QuadraticGenerator",
    "WeightOperator",
    "GaussianData",
    "DisplacementVector",
    "LeakageError",
    "ConvergenceError",
    "vacuum_state",
    "number_state",
    "apply_ladder",
    "apply_quadratic",
    "quadratic_matrix",
    "number_matrix",
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


@lru_cache(maxsize=32)
def _lowering_matrices(modes: int, cutoff: int) -> tuple[np.ndarray, ...]:
    """Dense matrices of the per-mode annihilation operators a_i."""
    states = _enumerate_states(modes, cutoff)
    index = _state_index(modes, cutoff)
    dim = len(states)
    mats = []
    for i in range(modes):
        a = np.zeros((dim, dim), dtype=complex)
        for col, s in enumerate(states):
            n = s[i]
            if n > 0:
                lowered = s[:i] + (n - 1,) + s[i + 1:]
                a[index[lowered], col] = math.sqrt(n)
        a.flags.writeable = False
        mats.append(a)
    return tuple(mats)


def lowering_matrices(basis: ModeBasis) -> tuple[np.ndarray, ...]:
    return _lowering_matrices(basis.modes, basis.cutoff)


@lru_cache(maxsize=16)
def _pair_product_stacks(modes: int, cutoff: int):
    """Stacks of a+_i a+_j, a+_i a_j and a_i a_j for fast H assembly."""
    a = _lowering_matrices(modes, cutoff)
    d = modes
    dim = a[0].shape[0]
    adad = np.empty((d, d, dim, dim), dtype=complex)
    ada = np.empty((d, d, dim, dim), dtype=complex)
    aa = np.empty((d, d, dim, dim), dtype=complex)
    for i in range(d):
        adi = a[i].conj().T
        for j in range(d):
            adad[i, j] = adi @ a[j].conj().T
            ada[i, j] = adi @ a[j]
            aa[i, j] = a[i] @ a[j]
    for arr in (adad, ada, aa):
        arr.flags.writeable = False
    return adad, ada, aa


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

    def to_json(self) -> str:
        payload = {
            "modes": self.basis.modes,
            "cutoff": self.basis.cutoff,
            "coeffs": [[float(z.real), float(z.imag)] for z in self.coeffs],
            "leakage": self.leakage,
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "FockVector":
        payload = json.loads(text)
        basis = ModeBasis(payload["modes"], payload["cutoff"])
        coeffs = np.array([complex(re, im) for re, im in payload["coeffs"]])
        return FockVector(basis, coeffs, payload.get("leakage", 0.0))

    def to_bytes(self) -> bytes:
        """Coefficients as little-endian float64 (re, im) pairs."""
        flat = np.empty(2 * self.basis.size, dtype="<f8")
        flat[0::2] = self.coeffs.real
        flat[1::2] = self.coeffs.imag
        return flat.tobytes()


def vacuum_state(basis: ModeBasis) -> FockVector:
    c = np.zeros(basis.size, dtype=complex)
    c[0] = 1.0
    return FockVector(basis, c)


def number_state(basis: ModeBasis, occupation: Sequence[int]) -> FockVector:
    occ = tuple(int(n) for n in occupation)
    if len(occ) != basis.modes:
        raise ValueError(f"occupation needs {basis.modes} entries")
    if sum(occ) > basis.cutoff:
        raise ValueError("occupation exceeds the cutoff")
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index[occ]] = 1.0
    return FockVector(basis, c)


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
        a = lowering_matrices(psi.basis)
        out = np.zeros_like(psi.coeffs)
        for i in range(psi.basis.modes):
            if f[i] != 0:
                out += np.conj(f[i]) * (a[i] @ psi.coeffs)
        return FockVector(psi.basis, out, psi.leakage)
    if mode != "create":
        raise ValueError("mode must be 'create' or 'annihilate'")
    big = psi.basis.padded(1)
    a = lowering_matrices(big)
    src = np.zeros(big.size, dtype=complex)
    src[: psi.basis.size] = psi.coeffs
    out = np.zeros(big.size, dtype=complex)
    for i in range(psi.basis.modes):
        if f[i] != 0:
            out += f[i] * (a[i].conj().T @ src)
    kept = out[: psi.basis.size]
    dropped = float(np.sum(np.abs(out[psi.basis.size:]) ** 2))
    return FockVector(psi.basis, kept, psi.leakage + dropped)


@dataclass(frozen=True)
class QuadraticGenerator:
    """Quadratic Fock-space Hamiltonian

        H = 1/2 A+ Hpp A+ + A+ (L + Hsmall) A- + 1/2 A- Hmm A- + hbar,

    with Hmm = conj(Hpp).  L is the constant Hermitian part of the
    particle-conserving block, Hsmall the variable Hermitian part.
    """

    hpp: np.ndarray
    l_const: np.ndarray
    hsmall: np.ndarray
    hbar: float = 0.0

    def __post_init__(self):
        hpp = np.atleast_2d(np.asarray(self.hpp, dtype=complex))
        l_const = np.atleast_2d(np.asarray(self.l_const, dtype=complex))
        hsmall = np.atleast_2d(np.asarray(self.hsmall, dtype=complex))
        d = hpp.shape[0]
        for name, m in (("hpp", hpp), ("l_const", l_const), ("hsmall", hsmall)):
            if m.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}")
        if not np.allclose(hpp, hpp.T, atol=1e-12):
            raise ValueError("hpp must be symmetric")
        if not np.allclose(l_const, l_const.conj().T, atol=1e-12):
            raise ValueError("l_const must be Hermitian")
        if not np.allclose(hsmall, hsmall.conj().T, atol=1e-12):
            raise ValueError("hsmall must be Hermitian")
        object.__setattr__(self, "hpp", hpp)
        object.__setattr__(self, "l_const", l_const)
        object.__setattr__(self, "hsmall", hsmall)
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def modes(self) -> int:
        return self.hpp.shape[0]

    @property
    def hpm(self) -> np.ndarray:
        """Full particle-conserving block L + Hsmall."""
        return self.l_const + self.hsmall

    @property
    def hmm(self) -> np.ndarray:
        return self.hpp.conj()

    @staticmethod
    def from_blocks(hpp=None, hpm=None, hbar: float = 0.0, modes: Optional[int] = None):
        """Build with the whole particle-conserving block in hsmall, L = 0."""
        if hpp is None and hpm is None and modes is None:
            raise ValueError("cannot infer the number of modes")
        if modes is None:
            probe = hpp if hpp is not None else hpm
            modes = np.atleast_2d(np.asarray(probe)).shape[0]
        z = np.zeros((modes, modes), dtype=complex)
        hpp = z if hpp is None else np.atleast_2d(np.asarray(hpp, dtype=complex))
        hpm = z if hpm is None else np.atleast_2d(np.asarray(hpm, dtype=complex))
        return QuadraticGenerator(hpp=hpp, l_const=z, hsmall=hpm, hbar=hbar)


def quadratic_matrix(gen: QuadraticGenerator, basis: ModeBasis) -> np.ndarray:
    """Dense matrix of the generator on the truncated basis.

    This is the compression P H P of the untruncated operator: exact on
    vectors supported at total quanta <= N-2.
    """
    if gen.modes != basis.modes:
        raise ValueError("generator and basis mode counts differ")
    adad, ada, aa = _pair_product_stacks(basis.modes, basis.cutoff)
    h = 0.5 * np.einsum("ij,ijkl->kl", gen.hpp, adad)
    h += np.einsum("ij,ijkl->kl", gen.hpm, ada)
    h += 0.5 * np.einsum("ij,ijkl->kl", gen.hmm, aa)
    h += gen.hbar * np.eye(basis.size)
    return h


def one_body_matrix(t: np.ndarray, basis: ModeBasis) -> np.ndarray:
    """Second quantization sum_ij T_ij a+_i a_j on the truncated basis."""
    t = np.atleast_2d(np.asarray(t, dtype=complex))
    if t.shape != (basis.modes, basis.modes):
        raise ValueError("matrix size does not match the mode count")
    _, ada, _ = _pair_product_stacks(basis.modes, basis.cutoff)
    return np.einsum("ij,ijkl->kl", t, ada)


def number_matrix(basis: ModeBasis) -> np.ndarray:
    return one_body_matrix(np.eye(basis.modes), basis)


def apply_quadratic(gen: QuadraticGenerator, psi: FockVector) -> FockVector:
    """Apply the quadratic generator with exact drop-above-cutoff accounting."""
    big = psi.basis.padded(2)
    h = quadratic_matrix(gen, big)
    src = np.zeros(big.size, dtype=complex)
    src[: psi.basis.size] = psi.coeffs
    out = h @ src
    kept = out[: psi.basis.size]
    dropped = float(np.sum(np.abs(out[psi.basis.size:]) ** 2))
    return FockVector(psi.basis, kept, psi.leakage + dropped)


def displacement_eig(b: np.ndarray, basis: ModeBasis):
    """Eigendecomposition of K = A+[B] - A-[B*] so exp(beta K) = V e^(beta lam) V+.

    Returns (lam, v) with lam purely imaginary (K is anti-Hermitian on the
    truncated space, so every exp(beta K) is exactly unitary), sorted by
    ascending Im(lam), and v unitary.

    The eigensolve is real.  Write b_j = |b_j| e^(i phi_j) and take the
    diagonal unitaries D = diag(e^(i n.phi)) and S = diag(i^|n|) over the
    occupation states n.  Since D a+_j D+ = e^(i phi_j) a+_j and
    S+ (a+_j - a_j) S = -i (a_j + a_j^T),

        i K = (D S) X (D S)+,   X = sum_j |b_j| (a_j + a_j^T),

    with X real symmetric: on one mode it is the Jacobi matrix of the
    Hermite polynomials.  So eigh(X) = (w, Q) gives lam = -i w and
    v = D S Q, a phase per occupation state times a real orthogonal Q.
    """
    b = _check_mode_vector(b, basis)
    a = lowering_matrices(basis)
    x = np.zeros((basis.size, basis.size))
    for i in range(basis.modes):
        x += abs(b[i]) * a[i].real
    w, q = np.linalg.eigh(x + x.T)
    phase = np.array([1, 1j, -1, -1j])[basis.totals % 4]
    phase *= np.exp(1j * (np.array(basis.states) @ np.angle(b)))
    return -1j * w, phase[:, None] * q


def displacement(
    b,
    psi: FockVector,
    pad: int = 8,
    leak_threshold: Optional[float] = None,
) -> FockVector:
    """Apply the unitary U[B] = exp(A+[B] - A-[B*]).

    Computed by exact exponentiation on a basis padded by ``pad`` quanta,
    then projected back; the projected-away mass is the leakage.
    """
    if isinstance(b, DisplacementVector):
        b = b.b
    big = psi.basis.padded(pad)
    lam, v = displacement_eig(b, big)
    src = np.zeros(big.size, dtype=complex)
    src[: psi.basis.size] = psi.coeffs
    out = v @ (np.exp(lam) * np.conj(v.T @ np.conj(src)))
    kept = out[: psi.basis.size]
    dropped = float(np.sum(np.abs(out[psi.basis.size:]) ** 2))
    if leak_threshold is not None and dropped > leak_threshold:
        raise LeakageError(
            f"displacement leaked {dropped:.3e} > {leak_threshold:.3e}; "
            "the cutoff is too small for this displacement"
        )
    return FockVector(psi.basis, kept, psi.leakage + dropped)


@dataclass(frozen=True)
class DisplacementVector:
    """Amplitude vector B of the displacement U[B] = exp(A+[B] - A-[B*])."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(b.view(float))):
            raise ValueError("displacement amplitudes must be finite")
        object.__setattr__(self, "b", b)

    @property
    def modes(self) -> int:
        return self.b.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.b))


@dataclass(frozen=True)
class GaussianData:
    """Parameters (M, c) of the Gaussian state c exp(1/2 A+ M A+)|0>."""

    m: np.ndarray
    c: complex = 1.0

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.m, dtype=complex))
        if m.shape[0] != m.shape[1]:
            raise ValueError("M must be square")
        if not np.allclose(m, m.T, atol=1e-12):
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
    a = lowering_matrices(basis)
    out = np.zeros_like(coeffs)
    d = basis.modes
    for i in range(d):
        adi = a[i].conj().T
        for j in range(d):
            if m[i, j] != 0:
                out += 0.5 * m[i, j] * (adi @ (a[j].conj().T @ coeffs))
    return out


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
    term = np.zeros(basis.size, dtype=complex)
    term[0] = 1.0
    acc = term.copy()
    n_terms = basis.cutoff // 2
    last = 1.0
    for k in range(1, n_terms + 1):
        term = _raise_quadratic(gd.m, term, basis) / k
        acc += term
        last = float(np.linalg.norm(term))
    tail = gaussian_tail_bound(q, basis.cutoff, last_term_norm=last)
    return FockVector(basis, gd.c * acc, leakage=abs(gd.c) ** 2 * tail**2)


def gaussian_tail_bound(m_norm: float, cutoff: int, last_term_norm: float = 1.0) -> float:
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
    return last_term_norm * r / math.sqrt(max(1e-300, 1.0 - r * r))


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
    if not np.allclose(dm, dm.T, atol=1e-12):
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
    term = base.coeffs.copy()
    acc = term.copy()
    norms = [float(np.linalg.norm(term))]
    for k in range(1, n_terms):
        term = _raise_quadratic(dm, term, basis) / k
        acc += term
        norms.append(float(np.linalg.norm(term)))
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
        if not np.allclose(t, t.conj().T, atol=1e-12):
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
