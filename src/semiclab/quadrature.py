"""Tensor quadrature over decay-sized boxes, with built-in self-checks.

Integrands here decay rapidly away from the origin (Gaussian-like profiles
with polynomial guarantees), so a finite box with a certified tail plus
Gauss-Legendre nodes converges superalgebraically.  Every integration
certifies itself by order doubling.  An integrand sees the box as its
per-axis node arrays and returns its values on their tensor grid; nothing
flattens the grid into node rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
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
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    f: Callable[[list], np.ndarray],
    radius: Sequence[float],
    order: int,
    self_check_tol: float = 1e-8,
) -> QuadCertificate:
    """Integrate a tensor-grid integrand over the box, certifying by order doubling.

    ``f`` maps the per-axis node arrays [x_1, ..., x_k] to the k-dimensional
    tensor of its values at (x_1[i_1], ..., x_k[i_k]).  That tensor is summed
    against the outer product of the per-axis weights, flattened in C order.
    """
    radius = tuple(float(r) for r in np.atleast_1d(radius))

    def rule(n):
        x, w = gauss_legendre(n)
        weights = reduce(np.multiply.outer, [r * w for r in radius])
        return complex(np.sum((weights * f([r * x for r in radius])).ravel()))

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
