"""Tensor quadrature over decay-sized boxes, with built-in self-checks.

Integrands here decay rapidly away from the origin (Gaussian-like profiles
with polynomial guarantees), so a finite box with a certified tail plus
Gauss-Legendre nodes converges superalgebraically.  Every integration
certifies itself by order doubling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["QuadratureError", "QuadCertificate", "gauss_legendre",
           "tensor_legendre", "integrate_box", "trapezoid_weights"]


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


def tensor_legendre(radius: Sequence[float], order: int):
    """Nodes (n^k, k) and weights (n^k,) for the box prod_s [-r_s, r_s]."""
    radius = np.atleast_1d(np.asarray(radius, dtype=float))
    x, w = gauss_legendre(order)
    axes_nodes = [r * x for r in radius]
    axes_weights = [r * w for r in radius]
    grids = np.meshgrid(*axes_nodes, indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*axes_weights, indexing="ij")
    weights = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=-1), axis=-1)
    return nodes, weights


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
    f_batch: Callable[[np.ndarray], np.ndarray],
    radius: Sequence[float],
    order: int,
    self_check_tol: float = 1e-8,
) -> QuadCertificate:
    """Integrate a vectorized integrand over the box, certifying by order doubling.

    ``f_batch`` maps an (n, k) node array to n complex values.
    """
    radius = tuple(float(r) for r in np.atleast_1d(radius))
    nodes, weights = tensor_legendre(radius, order)
    value = complex(np.sum(weights * f_batch(nodes)))
    nodes2, weights2 = tensor_legendre(radius, 2 * order)
    value2 = complex(np.sum(weights2 * f_batch(nodes2)))
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
