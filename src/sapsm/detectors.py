"""End-to-end detectors: the iterative variants plus closed-form and
exhaustive baselines.

Linear baselines are solved by factorization (never an explicit inverse);
the box-relaxation reference is a projected-gradient solve with step 1/L,
and the exhaustive search refuses candidate sets past a fixed budget.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .apsm import IterateTrace, apsm_run
from .cost import ApsmConfig, QuadraticResidualCost, standard_config
from .errors import CandidateBudget, ConfigError, SolverFailure
from .geometry import BoxSet, Constellation, project_box
from .mimo import ChannelInstance

ML_CANDIDATE_LIMIT = 10**6
_ML_CHUNK = 1 << 15


class DetectorKind(str, Enum):
    APSM_PLAIN = "apsm_plain"
    APSM_L2 = "apsm_l2"
    APSM_L1 = "apsm_l1"
    LMMSE = "lmmse"
    CONSTRAINED_LMMSE = "constrained_lmmse"
    BOX_ORACLE = "box_oracle"
    ML_BRUTEFORCE = "ml_bruteforce"


_APSM_VARIANT = {
    DetectorKind.APSM_PLAIN: "plain",
    DetectorKind.APSM_L2: "l2",
    DetectorKind.APSM_L1: "l1",
}


def _solve_spd(A: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Cholesky solve that raises a structured error on (near-)singularity
    instead of returning an inaccurate result with a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            return scipy.linalg.solve(A, rhs, assume_a="pos")
        except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
            raise SolverFailure(f"{what} singular to machine precision: {exc}") from exc


def detect_lmmse(instance: ChannelInstance) -> np.ndarray:
    """Regularized linear estimate solving (H'H + sigma2 I) x = H'y."""
    H, y = instance.H, instance.y
    A = H.T @ H + instance.sigma2 * np.eye(H.shape[1])
    return _solve_spd(A, H.T @ y, "regularized normal equations")


def detect_constrained_lmmse(instance: ChannelInstance) -> np.ndarray:
    """Per-column bias-corrected linear estimate.

    Scales each coordinate of the regularized estimate by
    alpha_k = 1 / (h_k' (HH' + sigma2 I)^-1 h_k), with h_k the k-th column.
    """
    H = instance.H
    base = detect_lmmse(instance)
    A = H @ H.T + instance.sigma2 * np.eye(H.shape[0])
    U = _solve_spd(A, H, "output covariance")
    quad = np.einsum("ij,ij->j", H, U)
    return base / quad


class BoxOracleResult(NamedTuple):
    x: np.ndarray
    converged: bool
    iterations: int
    lipschitz: float


def first_order_residual(cost: QuadraticResidualCost, x: np.ndarray,
                         box: BoxSet, lipschitz: float) -> float:
    """Fixed-point residual ||x - P_B(x - grad/L)|| of the projected step."""
    return float(np.linalg.norm(x - project_box(x - cost.gradient(x) / lipschitz, box)))


def detect_box_oracle(instance: ChannelInstance, box: BoxSet,
                      tol: float = 1e-10,
                      max_iters: int = 100_000) -> BoxOracleResult:
    """Box-relaxation reference solution by projected gradient.

    Minimizes ||Hx - y||^2 over the box with constant step 1/L, where
    L = 2 * lambda_max(H'H) is the gradient's Lipschitz constant, until
    successive iterates move less than ``tol``.
    """
    if not tol > 0:
        raise SolverFailure("tol must be positive")
    cost = QuadraticResidualCost(instance.H, instance.y)
    L = 2.0 * float(np.linalg.eigvalsh(cost.gram)[-1])
    if L <= 0:
        raise SolverFailure("channel matrix has no energy")
    x = np.zeros(cost.dim_in)
    for it in range(1, max_iters + 1):
        x_next = project_box(x - cost.gradient(x) / L, box)
        d = x_next - x
        delta = math.sqrt(d @ d)
        x = x_next
        if delta <= tol:
            return BoxOracleResult(x, True, it, L)
    return BoxOracleResult(x, False, max_iters, L)


def detect_ml_bruteforce(instance: ChannelInstance, c: Constellation) -> np.ndarray:
    """Exact exhaustive minimizer of ||Hx - y||^2 over the lattice.

    Candidates are enumerated lexicographically (first coordinate most
    significant); exact objective ties keep the earliest candidate.
    """
    H, y = instance.H, instance.y
    dim = H.shape[1]
    total = c.size**dim
    if total > ML_CANDIDATE_LIMIT:
        raise CandidateBudget(total, ML_CANDIDATE_LIMIT)
    shape = (c.size,) * dim
    best_obj = math.inf
    best_idx = -1
    for start in range(0, total, _ML_CHUNK):
        idx = np.arange(start, min(start + _ML_CHUNK, total))
        digits = np.stack(np.unravel_index(idx, shape), axis=1)
        X = c.levels[digits]
        R = X @ H.T - y
        obj = np.einsum("ij,ij->i", R, R)
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_idx = int(idx[j])
    digits = np.unravel_index(best_idx, shape)
    return c.levels[np.asarray(digits)]


def detect(kind: DetectorKind, instance: ChannelInstance, c: Constellation,
           cfg: ApsmConfig | None = None,
           record_iterates: bool = False) -> tuple[np.ndarray, IterateTrace | None]:
    """Dispatch a detector on one channel realization.

    Iterative kinds return their trace; the baselines return ``None``. A
    ``cfg`` supplied for an iterative kind must be of that kind's variant.
    """
    kind = DetectorKind(kind)
    if kind in _APSM_VARIANT:
        variant = _APSM_VARIANT[kind]
        if cfg is None:
            cfg = standard_config(variant)
        elif cfg.variant != variant:
            raise ConfigError(f"{kind.value} needs a {variant!r} config, "
                              f"got {cfg.variant!r}")
        cost = QuadraticResidualCost(instance.H, instance.y)
        x, trace = apsm_run(cost, cfg, c, record_iterates=record_iterates)
        return x, trace
    if kind is DetectorKind.LMMSE:
        return detect_lmmse(instance), None
    if kind is DetectorKind.CONSTRAINED_LMMSE:
        return detect_constrained_lmmse(instance), None
    if kind is DetectorKind.BOX_ORACLE:
        return detect_box_oracle(instance, c.box()).x, None
    if kind is DetectorKind.ML_BRUTEFORCE:
        return detect_ml_bruteforce(instance, c), None
    raise ValueError(f"unhandled detector kind {kind!r}")
