"""Residual sublevel cost family, its subgradient, schedules and the
relaxed subgradient-projection map.

The cost at iteration n is ``(||Hx - y||^2 - rho_n)_+``: nonnegative, convex,
and zero exactly on the sublevel set of radius ``rho_n``. Normal-equation
terms (H'H, H'y, y'y) are cached once so each evaluation costs a single
matrix-vector product in the low-dimensional space.
"""

from __future__ import annotations

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
        self.gram = H.T @ H
        self.hty = H.T @ y
        self.yty = float(y @ y)

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

    def _residual(self, x: np.ndarray, gx: np.ndarray) -> float:
        # x'Gx - 2h'x + y'y from the Gram matvec gx = Gx, clamped at 0
        # against cancellation
        return max(float(x @ gx - 2.0 * (self.hty @ x) + self.yty), 0.0)

    def eval(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Residual ||Hx - y||^2 and its gradient 2H'(Hx - y), sharing one
        Gram matvec."""
        x = self._check(x)
        gx = self.gram @ x
        return self._residual(x, gx), 2.0 * (gx - self.hty)

    def residual_sq(self, x: np.ndarray) -> float:
        x = self._check(x)
        return self._residual(x, self.gram @ x)


def sublevel_step(cost: QuadraticResidualCost, z: np.ndarray, rho: float,
                  mu: float, box: BoxSet) -> tuple[np.ndarray, float, float]:
    """One relaxed subgradient projection of z toward the rho-sublevel set,
    clamped to the box.

    Returns (next iterate, residual ||Hz - y||^2, theta) with
    theta = (residual - rho)_+ the cost value at z. The step is skipped when
    theta is zero or the subgradient 2H'(Hz - y) vanishes.
    """
    gz = cost.gram @ z
    resid = cost._residual(z, gz)
    theta = max(resid - rho, 0.0)
    if theta > 0.0:
        grad = 2.0 * (gz - cost.hty)
        gn2 = float(grad @ grad)
        # scale-aware stand-in for the exact test "subgradient != 0"
        if math.sqrt(gn2) > 1e-12 * (1.0 + math.sqrt(float(z @ z))):
            z = z - (mu * theta / gn2) * grad
    return project_box(z, box), resid, theta


def apsm_map(cost: QuadraticResidualCost, x: np.ndarray, rho: float,
             mu: float, box: BoxSet) -> np.ndarray:
    """The iteration map: subgradient projection toward the rho-sublevel set,
    relaxed by mu, then clamped to the box."""
    if not 0.0 < mu < 2.0:
        raise ConfigError("mu must lie in (0, 2)")
    if rho < 0:
        raise ConfigError("rho must be nonnegative")
    return sublevel_step(cost, cost._check(x), rho, mu, box)[0]


@dataclass(frozen=True)
class RhoSchedule:
    """Geometric radius schedule rho0 * growth^n, saturating at rho_max."""

    rho0: float
    growth: float = 1.0
    rho_max: float = 1e12

    def __post_init__(self):
        if not self.rho0 > 0:
            raise ConfigError("rho0 must be positive")
        if self.growth < 1.0:
            raise ConfigError("growth must be >= 1 (radii must not shrink)")
        if self.rho_max < self.rho0:
            raise ConfigError("rho_max must be >= rho0")


def rho_at(schedule: RhoSchedule, n: int) -> float:
    if n < 0:
        raise ConfigError("iteration index must be nonnegative")
    if schedule.growth == 1.0:
        return schedule.rho0
    # cap the exponent before exponentiating so long runs cannot overflow
    n_sat = math.log(schedule.rho_max / schedule.rho0) / math.log(schedule.growth)
    if n >= n_sat:
        return schedule.rho_max
    return schedule.rho0 * schedule.growth**n


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
        if self.kind == "constant" and self.value < 0.0:
            raise ConfigError("constant beta must be nonnegative")

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

    def series_sum(self, n_terms: int) -> float:
        """Sum of the full series when summable, else of the finite run."""
        if self.kind == "geometric":
            return 1.0 / (1.0 - self.value)
        if self.kind == "constant":
            return self.value * n_terms
        return 0.0


VARIANTS = ("plain", "l2", "l1")

# margins of the relaxation window: mu must lie in [EPS1, 2 - EPS2]
EPS1 = 0.05
EPS2 = 0.05


@dataclass(frozen=True)
class ApsmConfig:
    """Full parameterization of one superiorized run."""

    rho: RhoSchedule
    mu: float = 0.7
    beta: BetaSchedule = field(default_factory=BetaSchedule.none)
    tau: float = 0.0
    variant: str = "plain"
    max_iters: int = 300
    stop_eps: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not EPS1 <= self.mu <= 2.0 - EPS2:
            raise ConfigError(f"mu={self.mu} outside [{EPS1}, {2.0 - EPS2}]")
        if self.tau < 0:
            raise ConfigError("tau must be nonnegative")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.stop_eps < 0:
            raise ConfigError("stop_eps must be nonnegative")

    def config_hash(self) -> str:
        payload = json.dumps(
            {
                "rho": [self.rho.rho0, self.rho.growth, self.rho.rho_max],
                "mu": self.mu,
                "beta": [self.beta.kind, self.beta.value],
                "tau": self.tau,
                "variant": self.variant,
                "max_iters": self.max_iters,
                "stop_eps": self.stop_eps,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def standard_config(variant: str, max_iters: int = 300,
                    stop_eps: float = 0.0) -> ApsmConfig:
    """Default run parameters per variant.

    All variants share the radius schedule 5e-5 * 1.06^n and relaxation 0.7.
    The hard-slicing variant scales its perturbations by 0.9^n; the
    soft-thresholded variant uses tau 0.005 with a constant 0.9999 scaling
    (not summable, so the resilience guarantee is void and flagged as such
    in trace metadata).
    """
    rho = RhoSchedule(5e-5, 1.06)
    if variant == "plain":
        beta, tau = BetaSchedule.none(), 0.0
    elif variant == "l2":
        beta, tau = BetaSchedule.geometric(0.9), 0.0
    elif variant == "l1":
        beta, tau = BetaSchedule.constant(0.9999), 0.005
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    return ApsmConfig(rho=rho, mu=0.7, beta=beta, tau=tau, variant=variant,
                      max_iters=max_iters, stop_eps=stop_eps)
