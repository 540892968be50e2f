"""Complex-WKB wave packets on spatial grids (one spatial dimension).

An elementary packet is the wave

    psi(x) = lam^(-1/4) e^(i S / lam) e^(i P (x - Q) / lam) f((x - Q) / sqrt(lam))

built from a point X = (S, Q, P) of the extended phase space and a rapidly
decaying shape f.  A point is the float array (S, Q, P) that ``symmetry``'s
flows produce, checked at each entry that takes one; the action form
omega[dX] = P dQ - dS is ``symmetry.action_form`` and the fiber operator
form Omega[dX] = dP xi - dQ (1/i) d/dxi is ``fiber_form``, each written
once.  Composed packets superpose elementary ones over a curve X(alpha), one
map alpha -> X, carrying an isotropy condition omega[X'] = 0; their norm
concentrates on the curve and admits a lambda-free fiber expression that
this module evaluates independently of the grid.

Shapes are sampled on uniform grids and evaluated off-grid by trigonometric
interpolation with zero extension: the samples decay below 1e-10 of their
peak at the grid edge (``_EDGE_DECAY``, checked by fiber integrals and
``fiber_displacement``), so the periodization error is negligible and
shifted copies never wrap around.  Shifted grids are inverse FFTs of the
phase-shifted spectrum, and one batched kernel forms every fiber
displacement exp(i beta Omega[dX]).  The beta box of a fiber
integral and its node count come from the fibers' supports
and spectral bands, with no probe scan.  Split-step evolution runs on a
declared potential, polynomials of degree <= 4 times real scalar profiles,
validated once when the problem is built: it fuses the half kicks that meet
between kinetic steps, evaluates each polynomial once per evolution,
tabulates the profile values at the kick times once (``profile_sum``) and
rebuilds a kick's phase only when they change, and the loop
transforms and multiplies in place.  Every transform is ``scipy.fft``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy import fft

from .bogoliubov import _weighted, profile_sum, step_count
from .quadrature import _expi, gauss_legendre, trapezoid_weights
from .symmetry import _point, action_form

__all__ = [
    "UniformGrid",
    "ShapeFunction",
    "GridWave",
    "PacketManifold",
    "ComposedPacket",
    "gaussian_shape",
    "packet_grid",
    "k_lambda",
    "fiber_form",
    "derivative_identity_residual",
    "omega_commutator_residual",
    "compose_packet",
    "direct_inner",
    "asymptotic_inner",
    "gauge_transform",
    "project_fiber",
    "expansion_check",
    "fiber_displacement",
    "SplitStepProblem",
    "splitstep_evolve",
    "wave_moments",
    "fit_loglog_slope",
]

# fiber samples and spectral coefficients below this fraction of their
# peak lie outside the fiber's support and band
_SUPPORT_TARGET = 1e-13
_EDGE_DECAY = 1e-10  # largest edge sample of a fiber integral's fibers, per peak
# a displacement component c counts as zero when |c| times the grid
# extent is below this
_FLAT_SHIFT = 1e-10
# beta rules: _RULE_BASE nodes plus _RULE_PER_RADIAN per radian of phase
# the integrand's bandwidth sweeps over the half-box, rounded up to a
# multiple of _RULE_STEP so that the gauss_legendre cache hits
_RULE_BASE, _RULE_PER_RADIAN, _RULE_STEP = 16, 0.5, 32
# splitstep_evolve: largest share of spectral power above 0.8 of the
# Nyquist wavenumber
_NYQUIST_POWER_TOL = 1e-8


@dataclass(frozen=True)
class UniformGrid:
    lo: float
    n: int
    spacing: float

    @property
    def points(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n)

    @property
    def hi(self) -> float:
        return self.lo + (self.n - 1) * self.spacing

    @staticmethod
    def centered(half_width: float, n: int) -> "UniformGrid":
        spacing = 2 * half_width / n
        return UniformGrid(-half_width, n, spacing)


class ShapeFunction:
    """Complex samples on a uniform grid with spectral off-grid evaluation."""

    def __init__(self, grid: UniformGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n,):
            raise ValueError("sample count does not match the grid")
        self.grid = grid
        self.values = values
        self._spectrum = None

    @property
    def spectrum(self):
        if self._spectrum is None:
            coeffs = fft.fft(self.values) / self.grid.n
            freqs = 2 * np.pi * fft.fftfreq(self.grid.n, d=self.grid.spacing)
            self._spectrum = (coeffs, freqs)
        return self._spectrum

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.spacing))

    def tail_fraction(self) -> float:
        """Largest boundary sample relative to the peak."""
        peak = np.abs(self.values).max()
        if peak == 0:
            return 0.0
        edge = max(np.abs(self.values[:2]).max(), np.abs(self.values[-2:]).max())
        return float(edge / peak)

    def at(self, points: np.ndarray) -> np.ndarray:
        """Trigonometric interpolation, zero outside the grid extent."""
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1)
        out = np.zeros(flat.shape, dtype=complex)
        inside = (flat >= self.grid.lo) & (flat <= self.grid.hi)
        if inside.any():
            coeffs, freqs = self.spectrum
            rel = flat[inside] - self.grid.lo
            out[inside] = _expi(np.outer(rel, freqs)) @ coeffs
        return out.reshape(points.shape)

    def at_shifted_grid(self, shifts: np.ndarray) -> np.ndarray:
        """Rows of samples at (grid points + shift), one row per shift.

        On the grid e^(i w_k (xi_j - lo)) = e^(2 pi i k j / n), so each row
        is the unnormalized inverse FFT of the coefficients times
        e^(i w shift); points past the grid are zeroed as in ``at``.
        """
        shifts = np.asarray(shifts, dtype=float).reshape(-1)
        coeffs, freqs = self.spectrum
        vals = fft.ifft(coeffs * _expi(np.outer(shifts, freqs)),
                        axis=1, norm="forward")
        pts = self.grid.points[None, :] + shifts[:, None]
        outside = (pts < self.grid.lo) | (pts > self.grid.hi)
        vals[outside] = 0.0
        return vals

    def derivative(self) -> "ShapeFunction":
        """Spectral derivative: one inverse FFT of the cached spectrum."""
        coeffs, freqs = self.spectrum
        dvals = fft.ifft(1j * freqs * coeffs, norm="forward")
        return ShapeFunction(self.grid, dvals)

    def times_xi(self) -> "ShapeFunction":
        return ShapeFunction(self.grid, self.grid.points * self.values)

    def __add__(self, other: "ShapeFunction") -> "ShapeFunction":
        _require_same_grid(self, other)
        return ShapeFunction(self.grid, self.values + other.values)

    def scaled(self, z: complex) -> "ShapeFunction":
        return ShapeFunction(self.grid, z * self.values)

    def inner(self, other: "ShapeFunction") -> complex:
        _require_same_grid(self, other)
        return complex(np.vdot(self.values, other.values) * self.grid.spacing)


def _require_same_grid(f: ShapeFunction, g: ShapeFunction) -> None:
    if f.grid != g.grid:
        raise ValueError("shapes live on different grids")


def gaussian_shape(half_width: float = 10.0, n: int = 256,
                   width: float = 1.0, center: float = 0.0,
                   momentum: float = 0.0) -> ShapeFunction:
    grid = UniformGrid.centered(half_width, n)
    xi = grid.points
    vals = (np.pi * width**2) ** -0.25 * np.exp(
        -((xi - center) ** 2) / (2 * width**2) + 1j * momentum * (xi - center))
    return ShapeFunction(grid, vals)


class GridWave:
    """Wave samples on a uniform x-grid at semiclassical parameter lambda."""

    def __init__(self, grid: UniformGrid, values: np.ndarray, lam: float):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n,):
            raise ValueError("sample count does not match the grid")
        if lam <= 0:
            raise ValueError("lambda must be positive")
        self.grid = grid
        self.values = values
        self.lam = lam

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.spacing))

    def inner(self, other: "GridWave") -> complex:
        if other.grid != self.grid:
            raise ValueError("waves live on different grids")
        return complex(np.vdot(self.values, other.values) * self.grid.spacing)


def k_lambda(x: np.ndarray, f: ShapeFunction, lam: float,
             xgrid: UniformGrid, tail_tol: float = 1e-6) -> GridWave:
    """Sample the elementary packet at the point X = (S, Q, P) on the x-grid.

    Requires the grid to contain the mapped support of the shape.
    """
    s, q, p = _point(x)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if f.tail_fraction() > tail_tol:
        raise ValueError("shape does not decay at its grid boundary")
    root = math.sqrt(lam)
    lo_need = q + f.grid.lo * root
    hi_need = q + f.grid.hi * root
    if lo_need < xgrid.lo - 1e-12 or hi_need > xgrid.hi + 1e-12:
        raise ValueError(
            f"x-grid [{xgrid.lo:.3g}, {xgrid.hi:.3g}] does not contain the "
            f"packet support [{lo_need:.3g}, {hi_need:.3g}]"
        )
    pts = xgrid.points
    xi = (pts - q) / root
    # times 1/lam, as numpy's complex division scales an imaginary exponent,
    # so the phase equals np.exp(1j * p * (pts - q) / lam) bitwise
    vals = (
        lam ** -0.25
        * np.exp(1j * s / lam)
        * _expi(p * (pts - q) * (1 / lam))
        * f.at(xi)
    )
    return GridWave(xgrid, vals, lam)


def packet_grid(x: np.ndarray, f: ShapeFunction, lam: float,
                margin: float = 0.0) -> UniformGrid:
    """The x-grid aligned with the shape grid under xi = (x - Q)/sqrt(lam).

    With zero margin the packet samples are exactly the shape samples times
    phases, which makes norm preservation exact.
    """
    q = _point(x)[1]
    root = math.sqrt(lam)
    extra = int(math.ceil(margin / (f.grid.spacing * root)))
    lo = q + (f.grid.lo - extra * f.grid.spacing) * root
    return UniformGrid(lo, f.grid.n + 2 * extra, f.grid.spacing * root)


def fiber_form(dx: np.ndarray, f: ShapeFunction) -> ShapeFunction:
    """The fiber operator form Omega[dX] f = (dP xi - dQ (1/i) d/dxi) f."""
    _, dq, dp = dx
    return f.times_xi().scaled(dp) + f.derivative().scaled(1j * dq)


# the commutator convention [Omega[u], Omega[v]] = -i (d_u omega[v] -
# d_v omega[u]), fixed numerically by the (p, q) pair on the grid
# ([xi, d/dxi] = -1) and applied consistently
_COMMUTATOR_SIGN = -1.0


def omega_commutator_residual(u: np.ndarray, v: np.ndarray,
                              g: ShapeFunction) -> float:
    """|| ([Omega[u], Omega[v]] - sign * i * curl) g || / || g || for
    tangent vectors u and v.

    The curl d_u omega[v] - d_v omega[u] is the central difference of the
    action form in X at unit step, exact because omega is affine in X.
    """
    left = fiber_form(u, fiber_form(v, g))
    right = fiber_form(v, fiber_form(u, g))
    comm = left + right.scaled(-1.0)
    origin = np.zeros(3)
    curl = ((action_form(origin + u, v) - action_form(origin - u, v)) / 2
            - (action_form(origin + v, u) - action_form(origin - v, u)) / 2)
    expected = g.scaled(_COMMUTATOR_SIGN * 1j * curl)
    diff = comm + expected.scaled(-1.0)
    return diff.norm() / g.norm()


def derivative_identity_residual(
    x: np.ndarray,
    f: ShapeFunction,
    lam: float,
    dx: np.ndarray,
    h: float = 1e-4,
) -> float:
    """Residual of i lam d_X K = K (omega[dX] - sqrt(lam) Omega[dX]) f along
    the tangent vector dX at the point X.

    The parameter step scales with lambda (the phase S/lam varies on that
    scale), which makes the central-difference residual O(h^2) uniformly in
    lambda.
    """
    x = _point(x)
    dx = np.asarray(dx, dtype=float)
    step = h * lam
    if step < 1e-13:
        raise ValueError("differencing step too small; cancellation would dominate")
    grid = packet_grid(x, f, lam, margin=2 * step + 4 * math.sqrt(lam))
    plus = k_lambda(x + step * dx, f, lam, grid)
    minus = k_lambda(x - step * dx, f, lam, grid)
    lhs = 1j * lam * (plus.values - minus.values) / (2 * step)
    if np.abs(plus.values - minus.values).max() < 1e-12 * np.abs(plus.values).max():
        raise ValueError("differencing step too small; cancellation detected")
    inner = f.scaled(action_form(x, dx)) + fiber_form(dx, f).scaled(-math.sqrt(lam))
    rhs = k_lambda(x, inner, lam, grid, tail_tol=1e-4)
    diff = lhs - rhs.values
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.spacing))


@dataclass(frozen=True)
class PacketManifold:
    """A curve alpha -> X = (S, Q, P) in the extended phase space.

    ``point`` maps any real alpha to X as an array of shape (3,); for closed
    manifolds ``periodic_span`` gives the parameter circumference (S itself
    need not close: on a harmonic orbit it gains the enclosed action per
    turn).
    """

    point: Callable[[float], np.ndarray]
    alphas: np.ndarray
    periodic_span: Optional[float] = None
    density: Optional[Callable[[float], float]] = None

    def tangent(self, alpha: float) -> np.ndarray:
        """dX/dalpha by one central difference of ``point``."""
        h = 1e-6
        return (np.asarray(self.point(alpha + h), dtype=float)
                - np.asarray(self.point(alpha - h), dtype=float)) / (2 * h)

    def isotropy_residual(self) -> float:
        """Largest |omega[dX/dalpha]| over the grid."""
        return max(abs(action_form(self.point(a), self.tangent(a)))
                   for a in map(float, self.alphas))

    def quad_weights(self) -> np.ndarray:
        return trapezoid_weights(self.alphas, self.periodic_span)

    def density_at(self, alpha: float) -> float:
        return 1.0 if self.density is None else float(self.density(alpha))


@dataclass(frozen=True)
class ComposedPacket:
    """Manifold plus fiber shapes g(alpha, .).

    The fiber may be a single shape (alpha-independent) or a callable.
    The superposition constant is lambda^(-1/4), which normalizes the
    composed L2 norm to the lambda-free fiber expression.
    """

    manifold: PacketManifold
    fiber: Union[ShapeFunction, Callable[[float], ShapeFunction]]

    def fiber_at(self, alpha: float) -> ShapeFunction:
        if callable(self.fiber):
            return self.fiber(alpha)
        return self.fiber


def _displaced_rows(g: ShapeFunction, dx: np.ndarray,
                    betas: np.ndarray) -> np.ndarray:
    """Samples of exp(i beta Omega[dX]) g, one row per beta.

    Splitting the exponent gives the exact one-dimensional formula
    e^(-i beta^2 dP dQ / 2) e^(i beta dP xi) g(xi - beta dQ); the shift is
    evaluated spectrally with zero extension, so nothing wraps around.
    """
    _, dq, dp = dx
    betas = np.asarray(betas, dtype=float).reshape(-1)
    phases = _expi(-0.5 * betas**2 * dp * dq)[:, None] * _expi(
        np.outer(betas, dp * g.grid.points))
    return phases * g.at_shifted_grid(-betas * dq)


def _require_edge_decay(g: ShapeFunction) -> None:
    """Reject a fiber whose edge sample exceeds ``_EDGE_DECAY`` of its peak:
    its displacements would ring over the whole grid."""
    if g.tail_fraction() > _EDGE_DECAY:
        raise ValueError(f"fiber does not decay at its grid edge: edge "
                         f"{g.tail_fraction():.3g} of the peak > {_EDGE_DECAY:g}")


def fiber_displacement(g: ShapeFunction, dx: np.ndarray,
                       beta: float) -> ShapeFunction:
    """Apply exp(i beta Omega[dX]) to a shape that decays at its grid edge."""
    _require_edge_decay(g)
    return ShapeFunction(g.grid, _displaced_rows(g, dx, beta)[0])


def _displacement_pairings(g1: ShapeFunction, g2: ShapeFunction,
                           dx: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """(g1, e^(i beta Omega[dX]) g2) for a batch of betas."""
    _require_same_grid(g1, g2)
    return _displaced_rows(g2, dx, betas) @ np.conj(g1.values) * g1.grid.spacing


def _beta_box(g1: ShapeFunction, g2: ShapeFunction, dx: np.ndarray,
              reach: Optional[float] = None) -> tuple[float, int]:
    """Half-width R and Gauss-Legendre order of a beta integral of fibers
    displaced by e^(i beta Omega[dX]), with a = dP and b = dQ.

    ``reach`` defaults to where the supports stop meeting, max |xi1 - xi2|
    / |b|, capped at the alias limit |beta a| = pi / (2 spacing), past which
    e^(i beta a xi) folds back: a pairing not decayed there raises, as do
    a = b = 0 and an edge sample above ``_EDGE_DECAY`` of a fiber's peak.
    The order follows the integrand's beta bandwidth, at most |a| X + |b| K
    + |a b| R, with X and K the largest |xi| and |k| of the supports and
    bands.  A zero fiber's support is its whole grid.
    """
    _, b, a = dx
    supports, bands = [], []
    for g in (g1, g2):
        _require_edge_decay(g)
        coeffs, freqs = g.spectrum
        mag, spec = np.abs(g.values), np.abs(coeffs)
        supports.append(g.grid.points[mag >= _SUPPORT_TARGET * mag.max()])
        bands.append(np.abs(freqs[spec >= _SUPPORT_TARGET * spec.max()]))
    s1, s2 = supports
    if reach is None:
        extent = g1.grid.hi - g1.grid.lo
        if max(abs(a), abs(b)) * extent < _FLAT_SHIFT:
            raise ValueError("degenerate tangent: the displacement direction "
                             "(a, b) vanishes, so the beta integral has no box")
        alias = 0.5 * math.pi / (g1.grid.spacing * abs(a)) if a else math.inf
        meet = max(s1[-1] - s2[0], s2[-1] - s1[0])
        reach = min(meet / abs(b) if b else math.inf, alias)
        if reach == alias:
            edge = _displacement_pairings(g1, g2, dx, [reach, -reach])
            if np.abs(edge).max() > _SUPPORT_TARGET * g1.norm() * g2.norm():
                raise ValueError(
                    "xi-grid cannot resolve the fiber: the pairing has not "
                    f"decayed at the alias limit |beta| = {reach:.4g}; refine "
                    "the xi-grid")
    x = max(abs(s1[0]), abs(s1[-1]), abs(s2[0]), abs(s2[-1]))
    k = max(bands[0].max(), bands[1].max())
    rate = abs(a) * x + abs(b) * k + abs(a * b) * reach
    order = _RULE_BASE + math.ceil(_RULE_PER_RADIAN * reach * rate)
    return float(reach), _RULE_STEP * math.ceil(order / _RULE_STEP)


def asymptotic_inner(cp1: ComposedPacket, cp2: ComposedPacket) -> complex:
    """The lambda-free fiber inner product

        int dalpha rho1 rho2 (g1, int dbeta e^(i beta Omega[X'(alpha)]) g2),

    with the beta box and its rule sized from the fibers at each grid point
    (``_beta_box``).  A degenerate tangent, or fibers the xi-grid cannot
    resolve or that do not decay at its edge, raise ``ValueError`` naming alpha.
    """
    m1, m2 = cp1.manifold, cp2.manifold
    if not np.allclose(m1.alphas, m2.alphas):
        raise ValueError("composed packets must share the manifold grid")
    weights = m1.quad_weights()
    total = 0.0 + 0.0j
    for j, alpha in enumerate(m1.alphas):
        alpha = float(alpha)
        dx = m1.tangent(alpha)
        g1 = cp1.fiber_at(alpha)
        g2 = cp2.fiber_at(alpha)
        _require_same_grid(g1, g2)
        try:
            span, order = _beta_box(g1, g2, dx)
        except ValueError as exc:
            raise ValueError(f"at alpha = {alpha:.6g}: {exc}") from None
        nodes, wq = gauss_legendre(order)
        vals = _displacement_pairings(g1, g2, dx, nodes * span)
        total += (weights[j] * m1.density_at(alpha) * m2.density_at(alpha)
                  * span * np.sum(wq * vals))
    return complex(total)


def compose_packet(
    cp: ComposedPacket,
    lam: float,
    xgrid: UniformGrid,
    isotropy_tol: Optional[float] = None,
    self_check: Optional[float] = None,
) -> GridWave:
    """Superpose elementary packets over the manifold grid.

    When ``isotropy_tol`` is given, a manifold violating the isotropy
    condition raises; by default the violation is allowed (it is used by
    negative tests that measure the resulting norm collapse).
    """
    if isotropy_tol is not None:
        res = cp.manifold.isotropy_residual()
        if res > isotropy_tol:
            raise ValueError(f"manifold is not isotropic: residual {res:.3e}")
    weights = cp.manifold.quad_weights()
    alphas = cp.manifold.alphas

    def assemble(idx):
        total = np.zeros(xgrid.n, dtype=complex)
        for j in idx:
            alpha = float(alphas[j])
            x = cp.manifold.point(alpha)
            g = cp.fiber_at(alpha)
            wave = k_lambda(x, g, lam, xgrid)
            total += weights[j] * cp.manifold.density_at(alpha) * wave.values
        return lam ** -0.25 * total

    full = assemble(range(len(alphas)))
    if self_check is not None:
        if len(alphas) < 6 or len(alphas) % 2:
            raise ValueError("self-check needs an even grid of at least 6 points")
        half = assemble(range(0, len(alphas), 2)) * 2.0
        drift = np.sqrt(np.sum(np.abs(full - half) ** 2) * xgrid.spacing)
        scale = max(np.sqrt(np.sum(np.abs(full) ** 2) * xgrid.spacing), 1e-30)
        if drift > self_check * scale:
            raise ValueError(
                f"alpha-grid too coarse: halving changes the wave by {drift:.3e}"
            )
    return GridWave(xgrid, full, lam)


# direct_inner integrates u = (alpha' - alpha)/sqrt(lam) over [-_U_SPAN, _U_SPAN]
_U_SPAN = 12.0


def direct_inner(
    cp1: ComposedPacket,
    cp2: ComposedPacket,
    lam: float,
    n_u: int = 48,
) -> complex:
    """The exact L2 pairing of the composed waves at finite lambda.

    Each pair of elementary packets integrates in closed form onto the
    fiber grid:

        e^(i(S'-S)/lam) e^(i P'(Q-Q')/lam) int dxi conj(g1(xi))
            g2(xi + (Q-Q')/sqrt(lam)) e^(i (P'-P) xi / sqrt(lam)),

    and the alpha' integration runs over u = (alpha' - alpha)/sqrt(lam),
    where the overlap profile is lambda-uniform on isotropic manifolds.
    The substitution absorbs the lam^(-1/2) of the squared superposition
    constant, so the value is directly comparable to the fiber expression.
    Each pair is weighted by rho1(alpha) rho2(alpha'), as in the waves.
    """
    m1, m2 = cp1.manifold, cp2.manifold
    if not np.allclose(m1.alphas, m2.alphas):
        raise ValueError("composed packets must share the manifold grid")
    weights = m1.quad_weights()
    root = math.sqrt(lam)
    u_nodes, u_weights = gauss_legendre(n_u)
    u_nodes = u_nodes * _U_SPAN
    u_weights = u_weights * _U_SPAN
    total = 0.0 + 0.0j
    for j, alpha in enumerate(m1.alphas):
        alpha = float(alpha)
        s1, q1, p1 = m1.point(alpha)
        g1 = cp1.fiber_at(alpha)
        alpha_ps = alpha + root * u_nodes
        s2, q2, p2 = np.array([m2.point(ap) for ap in alpha_ps], dtype=float).T
        rho2 = np.array([m2.density_at(ap) for ap in alpha_ps])
        shifts = (q1 - q2) / root
        if callable(cp2.fiber):
            fibers = [cp2.fiber_at(float(ap)) for ap in alpha_ps]
            shifted = np.concatenate([g2.at_shifted_grid(shift)
                                      for g2, shift in zip(fibers, shifts)])
        else:
            fibers = [cp2.fiber]
            shifted = cp2.fiber.at_shifted_grid(shifts)
        for g2 in fibers:
            _require_same_grid(g1, g2)
        # times 1/root, as in k_lambda's phase
        phase_xi = _expi(np.outer(p2 - p1, g1.grid.points) * (1 / root))
        rows = (shifted * phase_xi) @ np.conj(g1.values) * g1.grid.spacing
        phases = np.exp(1j * (s2 - s1) / lam) * np.exp(
            1j * p2 * (q1 - q2) / lam)
        total += weights[j] * m1.density_at(alpha) * np.sum(
            u_weights * rho2 * phases * rows)
    return complex(total)


def gauge_transform(cp: ComposedPacket, chi) -> ComposedPacket:
    """Shift the fiber by the constraint operator:

        g <- g + Omega[X'(alpha)] chi.

    ``chi`` is a shape or a callable alpha -> shape.  The new fiber is
    memoized per alpha so repeated grid sweeps reuse spectra.
    """
    cache: dict = {}

    def new_fiber(alpha: float) -> ShapeFunction:
        key = float(alpha)
        if key not in cache:
            g = cp.fiber_at(alpha)
            c = chi(alpha) if callable(chi) else chi
            cache[key] = g + fiber_form(cp.manifold.tangent(alpha), c)
        return cache[key]

    return ComposedPacket(manifold=cp.manifold, fiber=new_fiber)


def project_fiber(cp: ComposedPacket, alpha: float) -> ShapeFunction:
    """f(alpha, xi) = int dbeta e^(i beta Omega[X'(alpha)]) g(alpha, xi).

    Requires the integrand to decay along beta, which happens exactly when
    the shift component dQ/dalpha moves the window off the shape's support
    (the germ condition); a flat direction raises instead of silently
    producing a divergent integral.  The box reaches to where the shifted
    shape has left the grid, grid extent / |dQ|, so the integrand vanishes
    at its edge, and the rule comes from ``_beta_box``.
    """
    g = cp.fiber_at(alpha)
    dx = cp.manifold.tangent(alpha)
    extent = g.grid.hi - g.grid.lo
    if abs(dx[1]) * extent < _FLAT_SHIFT:
        raise ValueError(
            "projection integrand does not decay (flat shift direction); "
            "germ condition violated"
        )
    reach = extent / abs(dx[1])
    if reach * abs(dx[2]) > 0.5 * math.pi / g.grid.spacing:
        raise ValueError(
            "shape grid too coarse to resolve the projection phases over the "
            "beta box; refine the xi-grid"
        )
    span, order = _beta_box(g, g, dx, reach)
    nodes, weights = gauss_legendre(order)
    total = (span * weights) @ _displaced_rows(g, dx, nodes * span)
    return ShapeFunction(g.grid, total)


def expansion_check(
    manifold: PacketManifold,
    g: ShapeFunction,
    beta: float,
    lams: Sequence[float],
    alpha: float = 0.0,
) -> tuple[float, list]:
    """Relative error of the sqrt(lambda)-shift expansion, per lambda.

    Compares K at X(alpha + sqrt(lam) beta) with the phase-corrected fiber
    displacement at X(alpha); returns the fitted log-log slope and the
    error list.
    """
    def omega_along(a):
        return action_form(manifold.point(a), manifold.tangent(a))

    errors = []
    for lam in lams:
        root = math.sqrt(lam)
        x0 = manifold.point(alpha)
        x1 = manifold.point(alpha + root * beta)
        dx = manifold.tangent(alpha)
        omega_t = action_form(x0, dx)
        h = 1e-5
        d_omega = (omega_along(alpha + h) - omega_along(alpha - h)) / (2 * h)
        phase = np.exp(-1j * omega_t * beta / root) * np.exp(
            -0.5j * beta**2 * d_omega)
        moved = fiber_displacement(g, dx, beta)
        margin = abs(x1[1] - x0[1]) + 4 * root
        grid = packet_grid(x0, g, lam, margin=margin)
        lhs = k_lambda(x1, g, lam, grid)
        rhs = k_lambda(x0, moved, lam, grid, tail_tol=1e-4)
        err = np.sqrt(
            np.sum(np.abs(lhs.values - phase * rhs.values) ** 2) * grid.spacing)
        errors.append(float(err) / g.norm())
    slope = fit_loglog_slope(lams, errors)
    return slope, errors


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float],
                     floor: float = 1e-13) -> float:
    """Least-squares slope of log(max(y, floor)) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), floor)
    if xs.shape != ys.shape:
        raise ValueError(f"{len(xs)} x values but {len(ys)} y values")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    if not (xs > 0).all():
        raise ValueError("every x must be positive")
    coeffs = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(coeffs[0])


@dataclass(frozen=True)
class SplitStepProblem:
    """i lam psi_t = (-lam^2/(2 m) d_xx + V(x, t)) psi, with the declared
    potential V(x, t) = sum_j f_j(t) V_j(x).

    ``terms`` pairs a real profile f_j of t, or None for the constant 1,
    with the coefficients (c_0, ..., c_n), n <= 4, of the polynomial
    V_j(x) = sum_i c_i x^i; they are validated once, when the problem is
    built.
    """

    terms: Sequence[tuple[Optional[Callable[[float], float]], Sequence[float]]]
    mass: float = 1.0

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a split-step problem needs at least one potential term")
        for j, (_, coeffs) in enumerate(self.terms):
            arr = np.asarray(coeffs, dtype=float)
            if arr.ndim != 1 or len(arr) > 5:
                raise ValueError(f"the potential of term {j} must have degree at most 4")
            if not np.isfinite(arr).all():
                raise ValueError(f"the potential coefficients of term {j} must be finite")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    @staticmethod
    def polynomial(coeffs: Sequence[float], mass: float = 1.0) -> "SplitStepProblem":
        """Time-independent potential sum_j coeffs[j] x^j (degree <= 4)."""
        return SplitStepProblem([(None, coeffs)], mass)


def _kicks(problem: SplitStepProblem, x: np.ndarray, lam: float,
           n_steps: int, h: float) -> Callable:
    """kick(scale, i): the phase exp(scale V(x, t_i) / lam) at the i-th of
    the n + 1 kick times t_0 = 0, t_(i+1) = t_i + h.

    Each V_j is evaluated on the grid once.  The profile values at the kick
    times are tabulated and checked once, by ``profile_sum``; a problem with
    no profiled term needs no table.  A phase is summed and rebuilt only
    when its scale's profile values change, so a static problem builds its
    half and full phases once.
    """
    potentials = [np.polyval(np.asarray(coeffs, dtype=float)[::-1], x)
                  for _, coeffs in problem.terms]
    weights = None
    if any(f is not None for f, _ in problem.terms):
        kick_times = [0.0]
        for _ in range(n_steps):
            kick_times.append(kick_times[-1] + h)
        weights = profile_sum(problem.terms, kick_times)[0]
    built = {}  # scale -> (profile values, phase)

    def kick(scale, i):
        values = [1.0] * len(potentials) if weights is None else weights[i].tolist()
        if scale not in built or built[scale][0] != values:
            v = _weighted(problem.terms, values, potentials)
            built[scale] = values, np.exp(scale * v / lam)
        return built[scale][1]

    return kick


def splitstep_evolve(
    psi0: GridWave,
    problem: SplitStepProblem,
    t: float,
    dt: float,
) -> GridWave:
    """Strang-split evolution: half potential, full kinetic, half potential.

    ``step_count(t, dt)`` uniform steps cover [0, t]; the two half kicks
    that meet between steps act at one time and are applied as one full
    kick.  The profile values at the n + 1 kick times are tabulated and
    checked once, before the first transform, and a kick's phase is rebuilt
    only when its profile values change (``_kicks``): with no profiled term
    the half and full phases are built once.  Each step transforms in place
    (``overwrite_x``) and multiplies into its operand; ``psi0`` is never
    written.  Raises when a profile value is not finite (naming the term
    and the first time it occurs at), when the grid cannot resolve the
    packet's oscillation (spectral mass too close to the Nyquist
    frequency), and, through ``step_count``, when t or dt is not finite.
    """
    n_steps = step_count(t, dt)
    h = t / max(n_steps, 1)
    lam = psi0.lam
    grid = psi0.grid
    kick = _kicks(problem, grid.points, lam, n_steps, h)
    k = 2 * np.pi * fft.fftfreq(grid.n, d=grid.spacing)
    spec = fft.fft(psi0.values)
    power = np.abs(spec) ** 2
    cut = np.abs(k) > 0.8 * np.abs(k).max()
    if power[cut].sum() > _NYQUIST_POWER_TOL * power.sum():
        raise ValueError(
            "grid cannot resolve the wave's oscillation "
            "(spectral mass near the Nyquist frequency)"
        )
    kinetic = np.exp(-0.5j * h * lam * k**2 / problem.mass)
    half, full = -0.5j * h, -1j * h
    # the first kick makes vals a fresh array, so the transforms may
    # overwrite it and never reach psi0.values
    vals = psi0.values * kick(half, 0)
    for step in range(n_steps):
        spec = fft.fft(vals, overwrite_x=True)
        np.multiply(kinetic, spec, out=spec)
        vals = fft.ifft(spec, overwrite_x=True)
        np.multiply(vals, kick(full if step < n_steps - 1 else half, step + 1),
                    out=vals)
    return GridWave(grid, vals, lam)


def wave_moments(psi: GridWave) -> tuple[float, float]:
    """Position and momentum expectation values (momentum in P units)."""
    x = psi.grid.points
    dens = np.abs(psi.values) ** 2
    total = dens.sum()
    q = float((x * dens).sum() / total)
    k = 2 * np.pi * fft.fftfreq(psi.grid.n, d=psi.grid.spacing)
    spec = fft.fft(psi.values)
    dpsi = fft.ifft(1j * k * spec)
    p = psi.lam * float(
        np.imag(np.vdot(psi.values, dpsi)) / total)
    return q, p

