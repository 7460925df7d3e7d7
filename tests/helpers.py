"""Reference functions that only the tests call: the inverse of the real
lifting, and the first-order optimality residual of a box-constrained
least-squares point."""

import numpy as np

from sapsm.cost import QuadraticResidualCost
from sapsm.errors import DimensionMismatch
from sapsm.geometry import BoxSet, project_box


def complexify(H: np.ndarray) -> np.ndarray:
    """Inverse of :func:`sapsm.mimo.realify` (top blocks only)."""
    n2, k2 = H.shape
    if n2 % 2 or k2 % 2:
        raise DimensionMismatch("realified matrix must have even dimensions")
    n, k = n2 // 2, k2 // 2
    return H[:n, :k] + 1j * H[n:, :k]


def complexify_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    if v.size % 2:
        raise DimensionMismatch("realified vector must have even length")
    k = v.size // 2
    return v[:k] + 1j * v[k:]


def first_order_residual(cost: QuadraticResidualCost, x: np.ndarray,
                         box: BoxSet) -> float:
    """Fixed-point residual ||x - P_B(x - grad/L)|| of the projected step,
    with L = 2 * lambda_max(H'H) the gradient's Lipschitz constant."""
    lipschitz = 2.0 * float(np.linalg.eigvalsh(cost.gram)[-1])
    return float(np.linalg.norm(x - project_box(x - cost.gradient(x) / lipschitz, box)))
