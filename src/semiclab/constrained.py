"""Constrained Fock spaces over isotropic planes.

The inner product integrates displacement matrix elements over the plane:

    <Y1, Y2>_L = a * int dbeta  (Y1, U[sum_s beta_s B_s] Y2),

which converges because the integrand decays polynomially in |beta| (with
rate set by the weighted norms of Y1, Y2) and is nonnegative on the diagonal
whenever the plane is isotropic, Im(B_i, B_j) = 0.

Displacements along one plane direction commute with those along another on
an isotropic plane, so the quadrature engine factorizes U[beta] into
per-axis one-parameter unitary groups, each diagonalized once on a padded
basis by ``displacement_eig`` (factored into grade blocks and Hermite
Jacobi blocks; V is a phase per occupation state times a real orthogonal
matrix).  The padding keeps the integrand trustworthy out to the box edge;
the vectors themselves stay at their own cutoff.

A plane integral is one walk along the family's k - 1 adjacent overlaps
W_s = V_s+ V_(s+1), built with the family from the real factors of V_s and
V_(s+1), and real on a real plane.  The box rule is separable and the
integrand a product of per-axis exponentials, so each axis's weights c_i
are contracted into one row sum_i c_i e^(x_i lam_s), and the walk carries
vectors.  With lam_s = -i w_s and the rule symmetric about 0 the sines
cancel: the row is sum_i c_i cos(x_i w_s) over the nonnegative half of the
nodes, the middle one of an odd rule counted once.  ``pairings``, the
contracted rule's oracle, walks the rows e^(b lam_s) of every node to the
pairing tensor.  The vectors are folded into the rows of the first and
last axes, and the last overlap is multiplied in the order that keeps the
intermediate smallest.

Every plane integral runs through one body: the pairing is checked at the
boundary, and the box is always sized from the integrand's decay.  That
decay is scanned on a fixed grid per axis, whose phase table the family
builds once, so an envelope costs two matrix-vector products per axis.  A
family is complete when it is built and never changes afterwards; the
family cache holds the newest families up to a byte budget.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bogoliubov import BogoliubovFlow, GeneratorPath, integrate_flow, propagate_direct
from .fock import FockVector, ModeBasis, _state_phases, displacement_eig, weighted_norm
from .quadrature import QuadCertificate, _expi, integrate_box, trapezoid_weights

__all__ = [
    "IsotropicPlane",
    "QuadSpec",
    "ComposedFockState",
    "make_plane",
    "inner_constrained",
    "inner_constrained_detailed",
    "regularized_inner",
    "decay_profile",
    "DecayProfile",
    "evolve_plane",
    "invariance_check",
    "invariance_residual",
    "composed_inner",
    "transform_composed",
]


# the box: each axis ends where the envelope stays below _TAIL_TARGET
# times |Y1| |Y2|, and no scan reaches past _RADIUS_CAP
_TAIL_TARGET, _RADIUS_CAP = 1e-12, 40.0
_DECAY_SAMPLES = 160  # radii per ray on which decay_profile samples
_ENVELOPE_SAMPLES = 320  # radii per axis on which _auto_radius scans
# bytes of cached displacement families; one dim-630 two-axis family on a
# real plane holds about 22.3 MB (25.5 MB with a complex overlap), so two
# of them fit and three do not
_FAMILY_BUDGET = 64e6
# largest |Im(B_i, B_j)| of a caller's plane, and of a transported one
_ISOTROPY_TOL, _TRANSPORTED_ISOTROPY_TOL = 1e-12, 1e-10
_SUBSPACE_TOL = 1e-6  # projector gap between transported and recomputed planes


@dataclass(frozen=True)
class IsotropicPlane:
    """Real span of constraint vectors B_1..B_k with Im(B_i, B_j) = 0.

    ``a`` is the measure constant: dsigma = a dbeta_1 ... dbeta_k.
    """

    bs: tuple
    a: float = 1.0

    def __init__(self, bs: Sequence[np.ndarray], a: float = 1.0):
        vecs = tuple(np.asarray(b, dtype=complex).reshape(-1) for b in bs)
        object.__setattr__(self, "bs", vecs)
        object.__setattr__(self, "a", float(a))

    @property
    def k(self) -> int:
        return len(self.bs)

    @property
    def modes(self) -> int:
        return self.bs[0].size

    def gram(self) -> np.ndarray:
        mat = np.array([[np.vdot(bi, bj) for bj in self.bs] for bi in self.bs])
        return mat


def _isotropy_defect(plane: IsotropicPlane, tol: float) -> Optional[str]:
    """Why the constraint vectors do not span an isotropic k-plane, or None."""
    for j, b in enumerate(plane.bs):
        if not np.all(np.isfinite(b)):
            return f"constraint vector {j} has a non-finite entry: {b}"
    worst = float(np.max(np.abs(plane.gram().imag)))
    if worst > tol:
        return f"plane is not isotropic: max |Im(B_i, B_j)| = {worst:.3e}"
    sv = np.linalg.svd(
        np.array([np.concatenate([b.real, b.imag]) for b in plane.bs]),
        compute_uv=False,
    )
    if sv.min() <= 1e-10 * max(1.0, sv.max()):
        return "constraint vectors are linearly dependent over the reals"
    return None


def make_plane(bs: Sequence[np.ndarray], a: float = 1.0) -> IsotropicPlane:
    """Validate and build an isotropic plane.

    Rejects a measure constant that is not finite and positive, vectors
    with non-finite entries or whose pairwise inner products have nonzero
    imaginary part, and real-linearly dependent families.
    """
    plane = IsotropicPlane(bs, a)
    if not (math.isfinite(plane.a) and plane.a > 0):
        raise ValueError(f"measure constant must be finite and positive, got {plane.a}")
    if plane.k == 0:
        raise ValueError("need at least one constraint vector")
    defect = _isotropy_defect(plane, _ISOTROPY_TOL)
    if defect is not None:
        raise ValueError(defect)
    return plane


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature controls for plane integrals, whose box is always sized
    from the integrand's decay.

    ``order``: Gauss-Legendre nodes per axis (the certificate doubles it);
    ``pad``: extra quanta for the displacement family so the integrand
    stays accurate out to the box edge; ``self_check``: the order-doubling
    change allowed, relative to max(1, |value|).
    """

    order: int = 48
    pad: int = 12
    self_check: float = 1e-8

    def __post_init__(self):
        # a NaN or infinite tolerance would pass every order doubling
        if not (self.order >= 1 and self.pad >= 0
                and math.isfinite(self.self_check) and self.self_check > 0):
            raise ValueError(f"need order >= 1, pad >= 0 and a finite positive "
                             f"self_check, got {self}")


class _DisplacementFamily:
    """Per-axis diagonalized displacements U[beta] = prod_s V_s e^(b_s lam_s) V_s+.

    Everything is built here and never changed afterwards, so one family
    serves any number of threads: each axis's eigenpairs (lam_s, V_s), its
    envelope grid and phase rows e^(r lam_s) on that grid, and the k - 1
    adjacent overlaps W_s = V_s+ V_(s+1).  ``nbytes`` is the size of those
    arrays.

    Each V_s is a phase p_s per occupation state times a real orthogonal
    R_s, so W_s = R_s^T diag(conj(p_s) p_(s+1)) R_(s+1).  On a real plane
    the phase ratio is +-1 and W_s is a real array.
    """

    def __init__(self, plane: IsotropicPlane, basis: ModeBasis, pad: int):
        self.plane = plane
        self.big = basis.padded(pad)
        self.eigs = [displacement_eig(b, self.big) for b in plane.bs]
        phases = [_state_phases(b, self.big) for b in plane.bs]
        # R_s = Re(conj(p_s) V_s), with no complex copy of V_s
        real = [p.real[:, None] * v.real + p.imag[:, None] * v.imag
                for p, (_, v) in zip(phases, self.eigs)]
        self.overlaps = []
        for s in range(plane.k - 1):
            ratio = np.conj(phases[s]) * phases[s + 1]
            if not ratio.imag.any():
                ratio = ratio.real
            self.overlaps.append(real[s].T @ (ratio[:, None] * real[s + 1]))
        del real  # before the tables are built, to lower the build's peak memory
        self.grids = [
            np.linspace(0.05, min(_RADIUS_CAP, self.trust_radius(s)), _ENVELOPE_SAMPLES)
            for s in range(plane.k)
        ]
        self.tables = self.phase_rows(self.grids)
        arrays = ([a for pair in self.eigs for a in pair] + self.grids + self.tables
                  + self.overlaps)
        self.nbytes = sum(a.nbytes for a in arrays)

    def phase_rows(self, axes: Sequence) -> list:
        """The rows e^(b lam_s) of the nodes b of each axis's node array
        ``axes[s]``, one (nodes x dim) block per axis."""
        return [_expi(np.outer(b, lam.imag)) for b, (lam, _) in zip(axes, self.eigs)]

    def pairings(self, y1: FockVector, y2: FockVector, axes: Sequence) -> np.ndarray:
        """(Y1, U_1(b_1) ... U_k(b_k) Y2) on the tensor grid of the per-axis
        node arrays ``axes``, one array of beta_s values per axis."""
        return self._walk(*self._ends(y1, y2), self.phase_rows(axes))

    def integral(self, y1: FockVector, y2: FockVector, axes: Sequence,
                 weights: Sequence) -> complex:
        """The sum of ``pairings(y1, y2, axes)`` against the outer product of
        the per-axis ``weights``, for rules symmetric about 0, on which each
        axis's contracted row sum_i c_i e^(x_i lam_s) is real (its sines
        cancel), so the walk carries one vector."""
        rows = []
        for x, c, (lam, _) in zip(axes, weights, self.eigs):
            if not (np.array_equal(x[::-1], -x) and np.array_equal(c[::-1], c)):
                raise ValueError("every axis's rule must be symmetric about 0")
            half = len(x) // 2
            x, c = x[half:], c[half:]
            rows.append((np.where(x > 0, 2 * c, c) @ np.cos(np.outer(x, lam.imag)))[None])
        return self._walk(*self._ends(y1, y2), rows).item()

    def _ends(self, y1: FockVector, y2: FockVector) -> tuple:
        """head = V_1^T conj(y1) and tail = V_k+ y2 (V+ y formed as
        conj(V^T conj(y)), which copies no dim x dim matrix)."""
        c1, c2 = (np.conj(y.embed(self.big).coeffs) for y in (y1, y2))
        return self.eigs[0][1].T @ c1, np.conj(self.eigs[-1][1].T @ c2)

    def _walk(self, head: np.ndarray, tail: np.ndarray, rows: Sequence) -> np.ndarray:
        """The tensor of pairings from the ends of ``_ends`` and one
        (m_s x dim) block of rows R_s per axis:

            head^T diag(R_1[i_1]) W_1 ... W_(k-1) diag(R_k[i_k]) tail,

        exact because isotropy makes the axis generators commute.  The
        walk carries transposed rows, eigen-index first and in C order, so
        a real W multiplies their real and imaginary parts in one real
        product.
        """
        if not self.overlaps:
            return rows[0] @ (head * tail)
        dim = len(head)
        # left[m, i_1 ... i_s]: the column after axis s, grid axes flattened
        left = np.multiply(head[:, None], rows[0].T, order="C")
        for w, phases in zip(self.overlaps[:-1], rows[1:-1]):
            left = np.multiply(_times(w.T, left)[:, :, None], phases.T[:, None, :],
                               order="C").reshape(dim, -1)
        right = np.multiply(tail[:, None], rows[-1].T, order="C")
        if left.shape[1] < right.shape[1]:
            table = _times(self.overlaps[-1].T, left).T @ right
        else:
            table = left.T @ _times(self.overlaps[-1], right)
        return table.reshape([len(r) for r in rows])

    def axis_envelope(self, y1: FockVector, y2: FockVector, axis: int) -> np.ndarray:
        """max(|pairing at +r B_s|, |pairing at -r B_s|) on the axis's grid r.

        U[r B_s] involves axis s alone, so with u = (V_s^T c1) conj(V_s^T c2)
        the +r pairings are T_s u.  lam_s is purely imaginary, so the -r
        table is conj(T_s), and |conj(T_s) u| = |T_s conj(u)|.
        """
        c1, c2 = (np.conj(y.embed(self.big).coeffs) for y in (y1, y2))
        v = self.eigs[axis][1]
        u = (v.T @ c1) * np.conj(v.T @ c2)
        table = self.tables[axis]
        return np.maximum(np.abs(table @ u), np.abs(table @ np.conj(u)))

    def trust_radius(self, axis: int) -> float:
        """Displacement reach the padded cutoff can still represent.

        A displacement by beta B shifts occupation up to roughly
        (beta ||B||)^2 / 2 extra quanta; beyond that the truncated
        integrand degenerates into cutoff artifacts.
        """
        return 0.8 * math.sqrt(2.0 * self.big.cutoff) / np.linalg.norm(
            self.plane.bs[axis])


def _times(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """w @ z for a complex C-ordered z; a real w acts on z's real and
    imaginary parts, interleaved in memory, in one real product."""
    if np.iscomplexobj(w):
        return w @ z
    return (w @ z.view(float)).view(complex)


_FAMILY_CACHE: dict = {}
_FAMILY_LOCK = threading.Lock()


def _get_family(plane: IsotropicPlane, basis: ModeBasis, pad: int) -> _DisplacementFamily:
    """Cache keyed on (constraint vectors, basis, pad).

    The family never looks at the measure constant, so planes differing
    only in ``a`` share an entry.  The oldest families are evicted while
    the cached ``nbytes`` exceed ``_FAMILY_BUDGET``; the newest one always
    stays, however large.
    """
    key = (
        tuple(b.tobytes() for b in plane.bs),
        basis.modes,
        basis.cutoff,
        pad,
    )
    fam = _FAMILY_CACHE.get(key)
    if fam is None:
        fam = _DisplacementFamily(plane, basis, pad)
        # the cache is module state, reachable from any caller's threads;
        # a family built twice is identical, so the first one stored wins
        # and the lock only keeps the store and the eviction atomic
        with _FAMILY_LOCK:
            fam = _FAMILY_CACHE.setdefault(key, fam)
            total = sum(f.nbytes for f in _FAMILY_CACHE.values())
            while total > _FAMILY_BUDGET and len(_FAMILY_CACHE) > 1:
                total -= _FAMILY_CACHE.pop(next(iter(_FAMILY_CACHE))).nbytes
    return fam


def _axis_radius(grid: np.ndarray, env: np.ndarray, scale: float) -> float:
    """Smallest radius of ``grid`` past which the envelope ``env`` sampled
    on it stays below _TAIL_TARGET * scale.

    The truncated integrand is only faithful while it decays; past its
    floor it revives into cutoff artifacts.  The scan therefore stops at
    the envelope's global minimum and looks for the earliest radius from
    which the envelope stays below target up to that point.
    """
    level_in, level_rev = 1e-6 * scale, 1e-3 * scale
    # locate the first decay basin: entry point, then its floor before
    # the envelope revives into cutoff artifacts
    enter = np.flatnonzero((env[:-1] < level_in) & (env[1:] < 10 * level_in))
    if not enter.size:
        return float(grid[int(np.argmin(env))])
    j_enter = int(enter[0])
    revive = np.flatnonzero(env[j_enter + 1:] > level_rev)
    j_rev = j_enter + 1 + int(revive[0]) if revive.size else len(grid)
    j_floor = j_enter + int(np.argmin(env[j_enter:j_rev]))
    # stays[j]: max(env[j], ..., env[j_floor]) is below target
    stays = np.maximum.accumulate(env[j_floor::-1])[::-1] <= _TAIL_TARGET * scale
    if not stays.any():
        return float(grid[j_floor])
    return float(min(1.15 * grid[int(np.argmax(stays))], grid[j_floor]))


def _auto_radius(fam: _DisplacementFamily, y1: FockVector,
                 y2: FockVector) -> tuple:
    """Per-axis box radii: each axis's sampled envelope sets one
    (``_axis_radius``), and a tilted plane widens them to a common box."""
    scale = max(y1.norm() * y2.norm(), 1e-30)
    radii = [_axis_radius(fam.grids[s], fam.axis_envelope(y1, y2, s), scale)
             for s in range(fam.plane.k)]
    if fam.plane.k > 1:
        # the integrand decays in |sum beta_s B_s|, whose level sets are
        # tilted ellipsoids when the Gram matrix has off-diagonal weight;
        # bound the level set reached on the axes by its enclosing box
        gram = fam.plane.gram().real
        level = max(
            r * math.sqrt(gram[s, s]) for s, r in enumerate(radii)
        )
        ginv_diag = np.diag(np.linalg.inv(gram))
        radii = [
            min(1.02 * level * math.sqrt(max(ginv_diag[s], 0.0)),
                fam.trust_radius(s))
            for s in range(fam.plane.k)
        ]
    return tuple(radii)


def _checked_family(y1: FockVector, y2: FockVector, plane: IsotropicPlane,
                    pad: int) -> _DisplacementFamily:
    """The pairing's family, after the checks every plane integral makes:
    one basis, the plane's mode count, finite weighted norms of order k/2 + 1."""
    if y1.basis != y2.basis:
        raise ValueError(f"vectors live on different bases: {y1.basis} and {y2.basis}")
    if plane.modes != y1.basis.modes:
        raise ValueError(f"plane mode count {plane.modes} does not match the "
                         f"vectors' {y1.basis.modes}")
    required = plane.k / 2 + 1
    for y in (y1, y2):
        if not np.isfinite(weighted_norm(y, required)):
            raise ValueError("weighted-norm precondition failed")
    return _get_family(plane, y1.basis, pad)


def _plane_integral(y1: FockVector, y2: FockVector, plane: IsotropicPlane,
                    quad: QuadSpec, weight: Optional[Callable] = None) -> QuadCertificate:
    """Certified int dbeta (Y1, U[sum_s beta_s B_s] Y2) over the
    decay-sized box, without the measure constant.  A ``weight`` g, even
    in its argument, weights the integrand by g(beta_1) ... g(beta_k)."""
    fam = _checked_family(y1, y2, plane, quad.pad)

    def integrand(axes, weights):
        if weight is not None:
            weights = [c * weight(x) for x, c in zip(axes, weights)]
        return fam.integral(y1, y2, axes, weights)

    return integrate_box(integrand, _auto_radius(fam, y1, y2), quad.order,
                         self_check_tol=quad.self_check)


def inner_constrained_detailed(
    y1: FockVector,
    y2: FockVector,
    plane: IsotropicPlane,
    quad: QuadSpec = QuadSpec(),
) -> tuple[complex, QuadCertificate]:
    """Constrained inner product with its quadrature certificate."""
    cert = _plane_integral(y1, y2, plane, quad)
    return plane.a * cert.value, cert


def inner_constrained(
    y1: FockVector,
    y2: FockVector,
    plane: IsotropicPlane,
    quad: QuadSpec = QuadSpec(),
) -> complex:
    value, _ = inner_constrained_detailed(y1, y2, plane, quad)
    return value


def regularized_inner(
    y: FockVector,
    plane: IsotropicPlane,
    eps: float,
    quad: QuadSpec = QuadSpec(),
) -> float:
    """Gaussian-regularized self inner product; nonnegative on isotropic planes.

    The weight e^(-eps |beta|^2) = prod_s e^(-eps beta_s^2) is contracted
    into each axis's weights on the decay-sized Gauss-Legendre box, which
    is uniformly accurate in eps.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    cert = _plane_integral(y, y, plane, quad, weight=lambda x: np.exp(-eps * x**2))
    value = plane.a * cert.value
    if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
        raise RuntimeError(f"regularized inner product came out non-real: {value}")
    return float(value.real)


@dataclass(frozen=True)
class DecayProfile:
    constant: float
    worst_ratio: float


def decay_profile(
    y1: FockVector,
    y2: FockVector,
    plane: IsotropicPlane,
    m: int,
) -> DecayProfile:
    """Certify |(Y1, U[sum beta_s B_s] Y2)| <= C / |beta|^m on sampled rays.

    C combines the binomial weighted-norm bound with the smallest eigenvalue
    of the plane's real Gram matrix; a sampled violation signals a
    weighted-norm miscomputation and raises.  The axes (and the diagonal
    when k > 1) are sampled on the family of the default padding.
    """
    fam = _checked_family(y1, y2, plane, QuadSpec().pad)
    g_min = float(np.linalg.eigvalsh(plane.gram().real).min())
    if g_min <= 0:
        raise ValueError("degenerate plane")
    c = sum(
        math.comb(m, j) * weighted_norm(y1, j / 2) * weighted_norm(y2, (m - j) / 2)
        for j in range(m + 1)
    )
    c *= g_min ** (-m / 2)
    k = plane.k
    reach = min([_RADIUS_CAP] + [fam.trust_radius(s) for s in range(k)])
    radii = np.linspace(0.3, reach, _DECAY_SAMPLES)
    # an axis ray puts [0.0] on every other axis, so its pairing tensor is
    # the ray; the diagonal is walked radius by radius on singleton axes,
    # so no walk holds more than a few vectors at any k; the vectors are
    # embedded and their ends formed once for every ray
    ends = fam._ends(y1, y2)
    rays = [fam._walk(*ends, fam.phase_rows(
        [radii if t == s else np.zeros(1) for t in range(k)])) for s in range(k)]
    if k > 1:
        rays.append(np.array([fam._walk(*ends, fam.phase_rows([np.array([r])] * k))
                              for r in radii * (1 / math.sqrt(k))]))
    worst = 0.0
    for vals in rays:
        ratios = np.abs(vals.reshape(-1)) * radii**m / c
        worst = max(worst, float(ratios.max()))
        if worst > 1 + 1e-9:
            raise RuntimeError(
                f"sampled decay violates the certified bound (ratio {worst:.3f}); "
                "weighted norms are inconsistent with the integrand"
            )
    return DecayProfile(constant=float(c), worst_ratio=worst)


def evolve_plane(plane: IsotropicPlane, flow: BogoliubovFlow) -> IsotropicPlane:
    """Transport the plane through a flow: B -> F conj(B) + conj(G) B.

    The measure constant rides along unchanged.  A transported plane that
    is no longer an isotropic k-plane raises ``RuntimeError``.
    """
    new_bs = [flow.f @ np.conj(b) + np.conj(flow.g) @ b for b in plane.bs]
    out = IsotropicPlane(new_bs, plane.a)
    defect = _isotropy_defect(out, _TRANSPORTED_ISOTROPY_TOL)
    if defect is not None:
        raise RuntimeError(f"evolved plane: {defect}")
    return out


def invariance_check(
    y: FockVector,
    plane: IsotropicPlane,
    path: GeneratorPath,
    t: float,
    dt: float = 1e-3,
    quad: QuadSpec = QuadSpec(),
) -> float:
    """|<Psi_t, Psi_t>_(L_t) - <Y, Y>_L| for the evolved state and plane."""
    flow = integrate_flow(path, t, dt)
    psi_t = propagate_direct(y, path, t, dt).state
    return invariance_residual(y, psi_t, plane, flow, quad)


def invariance_residual(
    y: FockVector,
    psi_t: FockVector,
    plane: IsotropicPlane,
    flow: BogoliubovFlow,
    quad: QuadSpec = QuadSpec(),
) -> float:
    """|<Psi_t, Psi_t>_(L_t) - <Y, Y>_L| for Psi_t, the state Y evolved
    along the path whose Bogoliubov flow is ``flow``; L_t is the plane
    transported through that flow."""
    before, _ = inner_constrained_detailed(y, y, plane, quad)
    plane_t = evolve_plane(plane, flow)
    after, _ = inner_constrained_detailed(psi_t, psi_t, plane_t, quad)
    return abs(after - before)


@dataclass(frozen=True)
class ComposedFockState:
    """Fibered state over an isotropic manifold grid.

    ``alphas``: (n,) parameter grid (single-parameter manifolds); ``density``:
    d(Sigma)/d(alpha) at the grid points; ``fibers``: representative vector per
    point; ``constraints``: (n, k, d) constraint vectors; ``periodic_span``:
    length of the parameter circle when the manifold closes.
    """

    alphas: np.ndarray
    density: np.ndarray
    fibers: tuple
    constraints: np.ndarray
    periodic_span: Optional[float] = None

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        density = np.asarray(self.density, dtype=float)
        constraints = np.asarray(self.constraints, dtype=complex)
        n = len(alphas)
        if density.shape != (n,) or len(self.fibers) != n:
            raise ValueError("grid, density and fibers must share one length")
        if constraints.ndim != 3 or constraints.shape[0] != n:
            raise ValueError("constraints must have shape (n, k, modes)")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "constraints", constraints)
        for j in range(n):
            make_plane(list(constraints[j]), a=max(density[j], 1e-300))

    @property
    def k(self) -> int:
        return self.constraints.shape[1]

    def plane(self, j: int) -> IsotropicPlane:
        return IsotropicPlane(list(self.constraints[j]), a=float(self.density[j]))

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights on the alpha grid (periodic when the manifold closes)."""
        return trapezoid_weights(self.alphas, self.periodic_span)


def composed_inner(
    s1: ComposedFockState,
    s2: ComposedFockState,
    quad: QuadSpec = QuadSpec(),
) -> complex:
    """int dSigma <Z1(alpha), Z2(alpha)> over the shared manifold grid.

    The measure density enters twice, exactly as the coordinate-invariant
    construction demands: once in the base quadrature and once as each
    fiber plane's measure constant.
    """
    if not np.allclose(s1.alphas, s2.alphas):
        raise ValueError("composed states must share the manifold grid")
    if not np.allclose(s1.constraints, s2.constraints, atol=1e-10):
        raise ValueError("composed states must share constraint planes")
    weights = s1.quad_weights()
    total = 0.0 + 0.0j
    for j in range(len(s1.alphas)):
        val, _ = inner_constrained_detailed(
            s1.fibers[j], s2.fibers[j], s1.plane(j), quad)
        total += weights[j] * s1.density[j] * val
    return complex(total)


def transform_composed(
    state: ComposedFockState,
    fam,
    g,
    basis: ModeBasis,
    point: Optional[Callable[[float], np.ndarray]] = None,
) -> ComposedFockState:
    """Transport a composed state through a group element of a quadratic family.

    The manifold is mapped by the classical action, fibers by the group
    unitary, and the constraint planes are transported through the
    element's Bogoliubov flow.  When the manifold's ``point`` callable is
    supplied, the constraints are also recomputed from the transformed
    manifold with ``standard_phi`` and the two plane families are compared
    as real subspaces; a projector gap beyond 1e-6 signals an anomalous
    family.
    """
    from .symmetry import group_element_action, standard_phi

    n = len(state.alphas)
    new_fibers = []
    new_constraints = np.empty_like(state.constraints)
    for j in range(n):
        x0 = point(state.alphas[j]) if point is not None else None
        action = group_element_action(fam, g, x0, basis)
        psi = state.fibers[j]
        new_fibers.append(FockVector(basis, action.unitary @ psi.coeffs, psi.leakage))
        evolved = evolve_plane(state.plane(j), action.flow)
        for s, b in enumerate(evolved.bs):
            new_constraints[j, s] = b
        if point is not None:
            h = 1e-5
            x_plus = action.map_point(point(state.alphas[j] + h))
            x_minus = action.map_point(point(state.alphas[j] - h))
            dx = (np.asarray(x_plus) - np.asarray(x_minus)) / (2 * h)
            recomputed = np.atleast_2d(standard_phi(action.map_point(x0), dx))
            dist = _real_span_distance(recomputed, np.atleast_2d(evolved.bs))
            if dist > _SUBSPACE_TOL:
                raise RuntimeError(
                    f"transported plane disagrees with the transformed manifold "
                    f"(subspace distance {dist:.3e}); the family is anomalous"
                )
    return ComposedFockState(
        alphas=state.alphas,
        density=state.density,
        fibers=tuple(new_fibers),
        constraints=new_constraints,
        periodic_span=state.periodic_span,
    )


def _real_span_distance(bs1: np.ndarray, bs2: np.ndarray) -> float:
    """Distance between real spans of complex vector families (projector gap)."""

    def projector(bs):
        stack = np.array([np.concatenate([b.real, b.imag]) for b in bs]).T
        q, _ = np.linalg.qr(stack)
        return q @ q.T

    return float(np.linalg.norm(projector(bs1) - projector(bs2), 2))
