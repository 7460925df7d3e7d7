"""Residual sublevel cost family, its subgradient, schedules and the
relaxed subgradient-projection map.

The cost at iteration n is ``(||Hx - y||^2 - rho_n)_+``: nonnegative, convex,
and zero exactly on the sublevel set of radius ``rho_n``. Normal-equation
terms (H'H, H'y, y'y) are cached once so each evaluation costs a single
matrix-vector product in the low-dimensional space.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .geometry import BoxSet, project_box

class QuadraticResidualCost:
    """Quadratic data-fit residual ||Hx - y||^2 with cached Gram terms."""

    def __init__(self, H: np.ndarray, y: np.ndarray):
        H = np.asarray(H, dtype=float)
        y = np.asarray(y, dtype=float)
        if H.ndim != 2 or y.ndim != 1 or H.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"H has shape {H.shape}, y has shape {y.shape}"
            )
        self.gram, self.hty, yty = normal_equations(H, y)
        self.yty = float(yty)

    @property
    def dim_in(self) -> int:
        return self.gram.shape[0]

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim_in,):
            raise DimensionMismatch(
                f"x has shape {x.shape}, expected ({self.dim_in},)"
            )
        return x

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient 2H'(Hx - y) of the residual (no shape check: hot loops)."""
        return 2.0 * (self.gram @ x - self.hty)

    def residual_sq(self, x: np.ndarray) -> float:
        x = self._check(x)
        return float(residuals(self.hty, self.yty, x, self.gram @ x))


def normal_equations(H: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H'H, H'y, y'y) of one problem, or of each row of a stack of problems
    H (B, m, d) and y (B, m). Each row is bitwise the problem alone: matmul
    makes one BLAS call per row (syrk, as for ``H.T @ H``), and np.matvec
    and np.vecdot too (see ``residuals``)."""
    return np.matmul(H.mT, H), np.matvec(H.mT, y), np.vecdot(y, y)


def stack_costs(costs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gram stack (B, d, d), the H'y stack (B, d) and y'y per row of
    B costs that share one dimension."""
    dims = {cost.dim_in for cost in costs}
    if len(dims) != 1:
        raise DimensionMismatch(f"a stack needs costs of one dimension, got {sorted(dims)}")
    return (np.stack([cost.gram for cost in costs]),
            np.stack([cost.hty for cost in costs]),
            np.array([cost.yty for cost in costs]))


# Row-wise products of stacks, here and in the engine: np.matvec and
# np.vecdot make one BLAS call per row (gemv for G_i z_i, ddot for a_i . b_i),
# the very call ``G @ z`` and ``a @ b`` make on one row, so every row is
# bitwise independent of the stack it sits in. einsum sums in its own order
# and is not.
def residuals(hty: np.ndarray, yty: np.ndarray, x: np.ndarray,
              gx: np.ndarray) -> np.ndarray:
    """||H_i x_i - y_i||^2 per row as x'Gx - 2h'x + y'y, from the Gram
    matvecs gx, clamped at 0 against cancellation.

    The clamps here and in ``sublevel_theta`` are np.maximum, whose SIMD
    loops may differ from Python's max on -0.0 alone. Neither clamped value
    can be -0.0: the sum ends by adding y'y, which is +0.0 or positive, and
    theta subtracts a nonnegative rho from that.
    """
    return np.maximum(np.vecdot(x, gx) - 2.0 * np.vecdot(hty, x) + yty, 0.0)


def sublevel_theta(gram: np.ndarray, hty: np.ndarray, yty: np.ndarray, z: np.ndarray,
                   rho: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the Gram matvecs G_i z_i, and the cost theta = (||H_i z_i - y_i||^2
    - rho)_+) per row of z, which is (B, d) or an (m, B, d) stack of them
    against the (B, d, d) Gram stack, each (iteration, row) bitwise its
    (B, d) call; ``rho`` broadcasts against the rows."""
    gz = np.matvec(gram, z)
    return gz, np.maximum(residuals(hty, yty, z, gz) - rho, 0.0)


def _gradient_test(take: np.ndarray, gn2: np.ndarray, z: np.ndarray) -> int:
    """Drop from ``take`` each row whose gradient norm sqrt(gn2) is at most
    1e-12 (1 + ||z||), the scale-aware stand-in for the exact test
    "subgradient != 0"; return the rows left."""
    take &= np.sqrt(gn2) > 1e-12 * (1.0 + np.sqrt(np.vecdot(z, z)))
    return np.count_nonzero(take)


def sublevel_step(gram: np.ndarray, hty: np.ndarray, yty: np.ndarray,
                  z: np.ndarray, rho: float | np.ndarray, mu: float | np.ndarray,
                  box: BoxSet, z_bound: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """One relaxed subgradient projection of each row of z toward its
    rho-sublevel set, clamped to the box.

    Takes the stacks of ``stack_costs`` and z as (B, d); ``rho`` and ``mu``
    are scalars or one value per row. Returns (next iterates, theta) with
    theta = (||H_i z_i - y_i||^2 - rho)_+ the cost value at z, one per row.
    A row keeps z when its theta is zero or its subgradient 2H'(Hz - y)
    vanishes (``_gradient_test``).

    ``z_bound`` bounds every |z_ij| (a few ulps past it change nothing).
    The test's right-hand side is then below 2e-12 (1 + sqrt(2d) z_bound):
    z'z is at most d z_bound^2 before rounding, which costs it at most a
    factor 1 + d 2^-53, and the few roundings after it cost far less than
    the factor 2. When the least gn2 of all rows exceeds the floor
    (4e-12 (1 + sqrt(2d) z_bound))^2, every sqrt(gn2), as sqrt rounds
    monotonically, is about twice that right-hand side or more: every row
    passes, so the test is skipped and its result is the count already
    made. A nan gn2 fails the comparison, and a non-finite bound (the
    default, inf) makes the floor inf or nan: both take the full test.
    """
    gz, theta = sublevel_theta(gram, hty, yty, z, rho)
    take = theta > 0.0
    stepping = np.count_nonzero(take)
    if stepping:
        # the gradient 2(Gz - H'y), formed in the matvec's buffer
        grad = np.subtract(gz, hty, out=gz)
        grad *= 2.0
        gn2 = np.vecdot(grad, grad)
        floor = 4e-12 * (1.0 + math.sqrt(2.0 * z.shape[-1]) * z_bound)
        if not gn2.min() > floor * floor:
            stepping = _gradient_test(take, gn2, z)
        if stepping == take.size:
            grad *= (mu * theta / gn2)[:, None]
            z = z - grad
        elif stepping:
            grad *= (mu * theta / np.where(take, gn2, 1.0))[:, None]
            z = np.subtract(z, grad, out=z.copy(), where=take[:, None])
    return project_box(z, box), theta


def apsm_map(cost: QuadraticResidualCost, x: np.ndarray, rho: float,
             mu: float, box: BoxSet) -> np.ndarray:
    """The iteration map: subgradient projection toward the rho-sublevel set,
    relaxed by mu, then clamped to the box."""
    if not 0.0 < mu < 2.0:
        raise ConfigError("mu must lie in (0, 2)")
    if rho < 0:
        raise ConfigError("rho must be nonnegative")
    x = cost._check(x)[None]
    return sublevel_step(*stack_costs([cost]), x, rho, mu, box)[0][0]


RHO_MAX = 1e12


@dataclass(frozen=True)
class RhoSchedule:
    """Geometric radius schedule rho0 * growth^n, saturating at RHO_MAX."""

    rho0: float
    growth: float = 1.0

    def __post_init__(self):
        if not self.rho0 > 0:
            raise ConfigError("rho0 must be positive")
        if not 1.0 <= self.growth < math.inf:
            raise ConfigError("growth must be finite and >= 1 (radii must not shrink)")
        if self.rho0 > RHO_MAX:
            raise ConfigError(f"rho0 must be <= {RHO_MAX:g}")

    def at(self, n: int) -> float:
        if n < 0:
            raise ConfigError("iteration index must be nonnegative")
        if self.growth == 1.0:
            return self.rho0
        # cap the exponent before exponentiating so long runs cannot overflow
        n_sat = math.log(RHO_MAX / self.rho0) / math.log(self.growth)
        if n >= n_sat:
            return RHO_MAX
        return self.rho0 * self.growth**n


@dataclass(frozen=True)
class BetaSchedule:
    """Perturbation scaling sequence: geometric b^n, constant, or zero."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "constant", "geometric"):
            raise ConfigError(f"unknown beta schedule kind {self.kind!r}")
        if self.kind == "geometric" and not 0.0 < self.value < 1.0:
            raise ConfigError("geometric beta needs b in (0, 1)")
        if self.kind == "constant" and not 0.0 <= self.value < math.inf:
            raise ConfigError("constant beta must be finite and nonnegative")
        # one zero schedule, so equal runs compare, hash and group alike
        if self.kind == "none" and not (self.value == 0.0
                                        and math.copysign(1.0, self.value) > 0):
            raise ConfigError(f"beta kind 'none' holds value 0.0, not {self.value!r}")

    @classmethod
    def none(cls) -> "BetaSchedule":
        return cls("none", 0.0)

    @classmethod
    def constant(cls, value: float) -> "BetaSchedule":
        return cls("constant", value)

    @classmethod
    def geometric(cls, base: float) -> "BetaSchedule":
        return cls("geometric", base)

    def at(self, n: int) -> float:
        if self.kind == "geometric":
            return self.value**n
        if self.kind == "constant":
            return self.value
        return 0.0

    @property
    def summable(self) -> bool:
        """Whether the full series converges (the resilience hypothesis)."""
        return self.kind != "constant" or self.value == 0.0


@functools.lru_cache(maxsize=256)
def schedule_table(schedule: RhoSchedule | BetaSchedule, n_terms: int) -> np.ndarray:
    """The values ``schedule.at(n)`` at n = 0 .. n_terms - 1. Tabulated once
    per (schedule, length) and shared, so the array is read-only."""
    table = np.array([schedule.at(n) for n in range(n_terms)], dtype=float)
    table.flags.writeable = False
    return table


VARIANTS = ("plain", "l2", "l1")

# margins of the relaxation window: mu must lie in [EPS1, 2 - EPS2]; MU is
# the relaxation of every standard run
EPS1 = 0.05
EPS2 = 0.05
MU = 0.7


@dataclass(frozen=True)
class ApsmConfig:
    """Full parameterization of one superiorized run. The unperturbed
    ``plain`` takes no ``beta``; only ``l1`` reads ``tau``."""

    rho: RhoSchedule
    mu: float = MU
    beta: BetaSchedule = field(default_factory=BetaSchedule.none)
    tau: float = 0.0
    variant: str = "plain"
    max_iters: int = 300

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not EPS1 <= self.mu <= 2.0 - EPS2:
            raise ConfigError(f"mu={self.mu} outside [{EPS1}, {2.0 - EPS2}]")
        if not 0.0 <= self.tau < math.inf:
            raise ConfigError("tau must be finite and nonnegative")
        if self.variant == "plain" and self.beta != BetaSchedule.none():
            raise ConfigError("the plain variant takes no perturbation schedule")
        if self.variant != "l1" and self.tau != 0.0:
            raise ConfigError(f"tau applies only to the l1 variant, not {self.variant}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")

    def config_hash(self) -> str:
        payload = json.dumps(
            {
                "rho": [self.rho.rho0, self.rho.growth, RHO_MAX],
                "mu": self.mu,
                "beta": [self.beta.kind, self.beta.value],
                "tau": self.tau,
                "variant": self.variant,
                "max_iters": self.max_iters,
                # no config sets a stop (a sweep's certified stop keeps the
                # full run's decisions); the key keeps hashes stable
                "stop_eps": 0.0,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def standard_config(variant: str, max_iters: int = 300) -> ApsmConfig:
    """Default run parameters per variant.

    All variants share the radius schedule 5e-5 * 1.06^n and relaxation MU.
    The hard-slicing variant scales its perturbations by 0.9^n; the
    soft-thresholded variant uses tau 0.005 with a constant 0.9999 scaling
    (not summable, so the resilience guarantee is void; ``beta.summable``
    says so, on the config and on every trace's ``cfg``).
    """
    perturbation = {"l2": {"beta": BetaSchedule.geometric(0.9)},
                    "l1": {"beta": BetaSchedule.constant(0.9999), "tau": 0.005}}
    return ApsmConfig(rho=RhoSchedule(5e-5, 1.06), variant=variant,
                      max_iters=max_iters, **perturbation.get(variant, {}))
