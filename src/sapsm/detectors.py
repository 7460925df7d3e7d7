"""End-to-end detectors: the iterative variants plus closed-form and
exhaustive baselines.

Linear baselines are solved by factorization (never an explicit inverse),
with numpy alone, on a whole stack of realizations at once: a Cholesky
factor certifies the normal equations before they are solved. The
box-relaxation reference is solved exactly by an active-set method on the
normal equations, and the exhaustive search refuses candidate sets past a
fixed budget.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .apsm import IterateTrace, apsm_run
from .cost import ApsmConfig, QuadraticResidualCost, normal_equations, standard_config
from .errors import CandidateBudget, ConfigError, SolverFailure
from .geometry import BoxSet, Constellation, project_box
from .mimo import ChannelInstance

ML_CANDIDATE_LIMIT = 10**6
_ML_CHUNK = 1 << 15
# Cap on the linear solves of one box-oracle call: a solve that cycles
# returns unconverged instead of looping.
ACTIVE_SET_SOLVES = 1_000
# KKT tolerance of the box oracle, relative to the rounding scale of each
# gradient entry.
_KKT_RTOL = 1e-12
# Largest squared Cholesky pivot ratio at which _solve_stack refuses the
# normal equations as singular to machine precision. On H'H with one column
# of H repeated up to a perturbation of relative size 1e-8 or less, 8 eps
# refuses every case, where eps alone misses about a quarter of them.
_SINGULAR_RATIO = 8.0 * np.finfo(float).eps


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
# the kinds that detect_lmmse_batch solves
_LMMSE_KINDS = (DetectorKind.LMMSE, DetectorKind.CONSTRAINED_LMMSE)


def run_config(kind: DetectorKind, cfg: ApsmConfig | None = None) -> ApsmConfig:
    """The run config of an iterative detector: ``cfg``, which must be of the
    kind's variant, or by default ``standard_config`` of that variant."""
    variant = _APSM_VARIANT[kind]
    if cfg is None:
        return standard_config(variant)
    if cfg.variant != variant:
        raise ConfigError(f"{kind.value} needs a {variant!r} config, got {cfg.variant!r}")
    return cfg


def _solve_stack(A: np.ndarray, gram: np.ndarray, hty: np.ndarray,
                 kinds: tuple[DetectorKind, ...]) -> dict[DetectorKind, np.ndarray]:
    """The linear baselines ``kinds`` of each row of the stack
    A = H'H + sigma2 I (B, d, d), raising a structured error instead of
    returning an inaccurate result.

    A non-finite entry of A or H'y raises ``ValueError``. ``SolverFailure``
    is raised when A has no Cholesky factor L, when the squared pivot ratio
    (min L_ii / max L_ii)^2 is at most ``_SINGULAR_RATIO``, when the LU
    solve meets an exactly zero pivot, or when a bias denominator is zero.
    Each squared pivot lies in [lambda_min, lambda_max], so the ratio is at
    least 1 / cond_2(A): no A with cond_2(A) < 1 / _SINGULAR_RATIO is
    refused. For a Gram matrix B'B, L_kk is the distance of column k of B
    from the span of the columns before it, so a (nearly) repeated column
    gives a pivot at rounding level. A stack raises the error of one of its
    bad rows, not necessarily the first.
    """
    if not (np.isfinite(A).all() and np.isfinite(hty).all()):
        raise ValueError("regularized normal equations hold a non-finite entry")
    out = {}
    try:
        pivots = np.diagonal(np.linalg.cholesky(A), axis1=1, axis2=2)
        ratio = (pivots.min(axis=1) / pivots.max(axis=1)).min() ** 2
        if not ratio > _SINGULAR_RATIO:
            raise np.linalg.LinAlgError(f"squared Cholesky pivot ratio {ratio:.3g}")
        if DetectorKind.LMMSE in kinds:
            out[DetectorKind.LMMSE] = np.linalg.solve(A, hty[..., None])[..., 0]
        if DetectorKind.CONSTRAINED_LMMSE in kinds:
            sol = np.linalg.solve(A, np.concatenate([hty[..., None], gram], axis=2))
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"regularized normal equations singular to machine "
                            f"precision: {exc}") from exc
    if DetectorKind.CONSTRAINED_LMMSE in kinds:
        denom = np.diagonal(sol[..., 1:], axis1=1, axis2=2)
        if not denom.all():
            col = np.argwhere(denom == 0)[0, 1]
            raise SolverFailure(f"column {col} of H carries no energy")
        out[DetectorKind.CONSTRAINED_LMMSE] = sol[..., 0] / denom
    return out


def detect_lmmse_batch(H: np.ndarray, y: np.ndarray, sigma2: np.ndarray,
                       kinds: tuple[DetectorKind, ...]) -> dict[DetectorKind, np.ndarray]:
    """The linear baselines ``kinds`` (``lmmse`` and ``constrained_lmmse``)
    of a stack of realizations H (B, 2N, 2K), y (B, 2N), sigma2 (B,), as
    {kind: estimates (B, 2K)}; only the kinds asked for are solved.

    ``lmmse`` solves (H'H + sigma2 I) x = H'y. ``constrained_lmmse`` scales
    each coordinate of that estimate by alpha_k = 1 / (h_k' (HH' + sigma2
    I)^-1 h_k), with h_k the k-th column. By the push-through identity the
    denominator is the k-th diagonal entry of (H'H + sigma2 I)^-1 H'H, so
    one solve against [H'y, H'H] in the 2K-dimensional input space gives
    both the estimate and every alpha_k. With sigma2 = 0 and H of full
    column rank, every alpha_k is 1: zero forcing. An all-zero column has
    no alpha_k (a zero denominator) and raises ``SolverFailure``.

    One normal-equation build, one Cholesky certificate and one solve per
    kind serve the whole stack. Stacked matmul, cholesky and solve make one
    BLAS/LAPACK call per row, so each row's estimate is bitwise the one it
    gets alone. A stack with bad rows raises what its first bad row raises
    alone: the stack is certified first, and only if that fails, row by
    row. sigma2 is added to the diagonal alone, so an infinite sigma2
    leaves the off-diagonal entries finite.
    """
    if not set(kinds) <= set(_LMMSE_KINDS):
        raise ConfigError(f"a stacked linear solve takes lmmse kinds only, got {kinds}")
    gram, hty, _ = normal_equations(np.asarray(H, dtype=float), np.asarray(y, dtype=float))
    A = gram.copy()
    A.reshape(len(A), -1)[:, ::A.shape[-1] + 1] += np.asarray(sigma2, dtype=float)[:, None]
    try:
        return _solve_stack(A, gram, hty, kinds)
    except (ValueError, SolverFailure):
        if len(A) == 1:
            raise
        for i in range(len(A)):
            rows = slice(i, i + 1)
            _solve_stack(A[rows], gram[rows], hty[rows], kinds)
        raise


def _detect_lmmse_one(kind: DetectorKind, instance: ChannelInstance) -> np.ndarray:
    """``detect_lmmse_batch`` of ``kind`` on a stack of one realization."""
    x = detect_lmmse_batch(np.asarray(instance.H)[None], np.asarray(instance.y)[None],
                           np.array([instance.sigma2], dtype=float), (kind,))
    return x[kind][0]


def detect_lmmse(instance: ChannelInstance) -> np.ndarray:
    """Regularized linear estimate solving (H'H + sigma2 I) x = H'y."""
    return _detect_lmmse_one(DetectorKind.LMMSE, instance)


def detect_constrained_lmmse(instance: ChannelInstance) -> np.ndarray:
    """Per-column bias-corrected linear estimate (see ``detect_lmmse_batch``)."""
    return _detect_lmmse_one(DetectorKind.CONSTRAINED_LMMSE, instance)


class BoxOracleResult(NamedTuple):
    x: np.ndarray
    converged: bool
    iterations: int


def _kkt_excess(cost: QuadraticResidualCost, abs_gram: np.ndarray,
                x: np.ndarray, free: np.ndarray) -> np.ndarray:
    """How far each coordinate of x breaks the box KKT conditions.

    A free coordinate's gradient must vanish; a bound coordinate's must
    point out of the box (sign(x_i) * grad_i <= 0). Each entry is the
    breach minus a tolerance of _KKT_RTOL times the entry's rounding scale
    2(|G||x| + |h|), so x passes where every entry is <= 0.
    """
    g = cost.gradient(x)
    tol = 2.0 * _KKT_RTOL * (abs_gram @ np.abs(x) + np.abs(cost.hty))
    return np.where(free, np.abs(g), np.sign(x) * g) - tol


def _solve_block(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve that raises a structured error on an exactly singular block;
    an inaccurate solve of a near-singular one fails the KKT check instead.
    (``_solve_stack``'s Cholesky certificate would add a factorization to
    each of these small solves.)"""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"box-oracle normal equations singular: {exc}") from exc


def detect_box_oracle(instance: ChannelInstance, box: BoxSet) -> BoxOracleResult:
    """Box-relaxation reference: the exact minimizer of ||Hx - y||^2 over
    the box, by a primal active-set solve on the normal equations
    (bounded-variable least squares; Stark & Parker, Comput. Stat. 1995).

    Starts from the unconstrained solution of H'H x = H'y with every
    coordinate outside the box fixed at its nearest bound. Each step solves
    the free block with the bound coordinates held. A solution that leaves
    the box is followed only up to the first bound it meets, which fixes the
    coordinates there; a solution inside the box is kept, and the bound
    coordinate whose gradient points most strongly into the box is freed.
    ``converged`` means the returned x passes the KKT check of
    ``_kkt_excess``; ``iterations`` counts the linear solves, at most
    ACTIVE_SET_SOLVES.

    H must have full column rank, as every ``make_instance`` channel has: a
    repeated column makes H'H singular, which raises ``SolverFailure`` or,
    where rounding hides the zero pivot, leaves ``converged`` to tell.
    """
    cost = QuadraticResidualCost(instance.H, instance.y)
    G, h, a = cost.gram, cost.hty, box.a_max
    if not np.trace(G) > 0:
        raise SolverFailure("channel matrix has no energy")
    abs_gram = np.abs(G)
    x = _solve_block(G, h)
    free = np.abs(x) <= a
    x = project_box(x, box)
    settled = bool(free.all())
    for solves in range(1, ACTIVE_SET_SOLVES + 1):
        if settled:
            excess = _kkt_excess(cost, abs_gram, x, free)
            if np.all(excess <= 0):
                return BoxOracleResult(x, True, solves)
            excess[free] = -np.inf
            j = int(np.argmax(excess))
            if not excess[j] > 0:
                # only free coordinates breach: the block solve was inaccurate
                break
            free[j] = True
        if solves == ACTIVE_SET_SOLVES:
            break
        fi, bi = np.flatnonzero(free), np.flatnonzero(~free)
        zf = _solve_block(G[fi[:, None], fi], h[fi] - G[fi[:, None], bi] @ x[bi])
        out = np.abs(zf) > a
        settled = not out.any()
        if settled:
            x[fi] = zf
            continue
        xf = x[fi]
        dist = np.full(zf.shape, np.inf)
        dist[out] = (np.copysign(a, zf[out]) - xf[out]) / (zf[out] - xf[out])
        step = dist.min()
        xf = xf + step * (zf - xf)
        hit = (dist <= step) | (np.abs(xf) >= a)
        xf[hit] = np.copysign(a, xf[hit])
        x[fi] = xf
        free[fi[hit]] = False
    return BoxOracleResult(x, False, solves)


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
        cost = QuadraticResidualCost(instance.H, instance.y)
        return apsm_run(cost, run_config(kind, cfg), c, record_iterates=record_iterates)
    if kind in _LMMSE_KINDS:
        return _detect_lmmse_one(kind, instance), None
    if kind is DetectorKind.BOX_ORACLE:
        return detect_box_oracle(instance, c.box()).x, None
    if kind is DetectorKind.ML_BRUTEFORCE:
        return detect_ml_bruteforce(instance, c), None
    raise ValueError(f"unhandled detector kind {kind!r}")
