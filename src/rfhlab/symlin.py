"""Exact and floating-point symplectic linear algebra.

Everything downstream (index calculus, gradient flows, gradings) is built
on the standard complex structure

    J_m = [[0, -I_m], [I_m, 0]]

on R^{2m} and the bilinear form omega_m(u, v) = u . (J_m v).  Matrices are
dense and never exceed a few dozen dimensions.
"""

from __future__ import annotations

import numpy as np


def standard_jmat(m: int) -> np.ndarray:
    """Standard complex structure J_m on R^{2m}, coordinates (x_1..x_m, y_1..y_m)."""
    if m < 1:
        raise ValueError(f"half-dimension must be >= 1, got {m}")
    jmat = np.zeros((2 * m, 2 * m))
    jmat[:m, m:] = -np.eye(m)
    jmat[m:, :m] = np.eye(m)
    return jmat


def symplectic_defect(mat, form: np.ndarray | None = None) -> float:
    """Max-norm of M^T Omega M - Omega, the deviation from Sp(2m)."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] % 2 != 0:
        raise ValueError(f"symplectic matrices have even dimension, got {a.shape[0]}")
    if form is None:
        form = standard_jmat(a.shape[0] // 2)
    return float(np.max(np.abs(a.T @ form @ a - form)))


def random_symmetric(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random symmetric matrix with entries of the given scale."""
    a = rng.standard_normal((dim, dim)) * scale
    return 0.5 * (a + a.T)

