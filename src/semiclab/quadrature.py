"""Tensor quadrature over decay-sized boxes, with built-in self-checks.

Integrands here decay rapidly away from the origin (Gaussian-like profiles
with polynomial guarantees), so a finite box with a certified tail plus
Gauss-Legendre nodes converges superalgebraically.  Every integration
certifies itself by order doubling.  An integrand sees the box as its
per-axis nodes and weights and returns the rule's weighted sum; the rule
is separable (Golub & Welsch, Math. Comp. 23, 1969), so a product
integrand contracts the weights per axis and never forms the n^k grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["QuadratureError", "QuadCertificate", "gauss_legendre",
           "integrate_box", "trapezoid_weights"]


class QuadratureError(RuntimeError):
    """A quadrature self-check failed."""


@dataclass(frozen=True)
class QuadCertificate:
    radius: tuple
    order: int
    value: complex
    order_doubling_delta: float


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only,
    and exactly symmetric about 0 (``leggauss`` symmetrizes them)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _expi(theta) -> np.ndarray:
    """e^(i theta) for real theta, formed as cos theta + i sin theta: the
    values of np.exp(1j * theta) without a complex exp of a zero real part."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def trapezoid_weights(grid, periodic_span: Optional[float] = None) -> np.ndarray:
    """Trapezoid weights on a sorted grid, or equal weights span/n on a closed one."""
    if periodic_span is not None:
        return np.full(len(grid), periodic_span / len(grid))
    w = np.zeros(len(grid))
    w[1:-1] = (grid[2:] - grid[:-2]) / 2
    w[0] = (grid[1] - grid[0]) / 2
    w[-1] = (grid[-1] - grid[-2]) / 2
    return w


def integrate_box(
    f: Callable[[list, list], complex],
    radius: Sequence[float],
    order: int,
    self_check_tol: float = 1e-8,
) -> QuadCertificate:
    """Integrate over the box, certifying by order doubling.

    ``f`` maps the per-axis node arrays [x_1, ..., x_k] and weight arrays
    [w_1, ..., w_k] of the tensor Gauss-Legendre rule on the box to its
    weighted sum, the sum over (i_1, ..., i_k) of
    w_1[i_1] ... w_k[i_k] f(x_1[i_1], ..., x_k[i_k]).
    """
    radius = tuple(float(r) for r in np.atleast_1d(radius))

    def rule(n):
        x, w = gauss_legendre(n)
        return complex(f([r * x for r in radius], [r * w for r in radius]))

    value, value2 = rule(order), rule(2 * order)
    delta = abs(value2 - value)
    scale = max(1.0, abs(value2))
    if delta > self_check_tol * scale:
        raise QuadratureError(
            f"order doubling changed the integral by {delta:.3e} "
            f"(tolerance {self_check_tol:.1e} x {scale:.3g}); "
            "the quadrature order or box is inadequate"
        )
    return QuadCertificate(
        radius=radius,
        order=2 * order,
        value=value2,
        order_doubling_delta=delta,
    )
