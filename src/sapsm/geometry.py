"""Projections, proximal operators and superiorization perturbations.

Everything here acts coordinate-wise on real vectors: the box ``B`` is the
hypercube of radius ``a_max``, the lattice ``S`` is the per-coordinate
constellation alphabet, and the two perturbation families push an iterate
towards ``S`` either by hard slicing or by soft-thresholded slicing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_ENERGY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Constellation:
    """Real per-coordinate alphabet with unit average complex-symbol energy.

    ``levels`` must be strictly increasing and symmetric about zero; a pair of
    real coordinates (k, k+K) forms one complex symbol, so unit symbol energy
    means ``2 * mean(levels**2) == 1``.
    """

    name: str
    levels: np.ndarray
    bits_per_real_dim: int
    midpoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or levels.size < 2:
            raise ConfigError("constellation needs at least two levels")
        if not np.all(np.diff(levels) > 0):
            raise ConfigError("constellation levels must be strictly increasing")
        if not np.allclose(levels, -levels[::-1], rtol=0, atol=1e-15):
            raise ConfigError("constellation levels must be symmetric about 0")
        energy = 2.0 * np.mean(levels**2)
        if abs(energy - 1.0) > _ENERGY_TOL:
            raise ConfigError(
                f"average complex-symbol energy is {energy!r}, expected 1"
            )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "midpoints", (levels[:-1] + levels[1:]) / 2.0)

    @property
    def a_max(self) -> float:
        return float(self.levels[-1])

    @property
    def size(self) -> int:
        return self.levels.size

    def box(self) -> "BoxSet":
        return BoxSet(self.a_max)

    def nearest_indices(self, x: np.ndarray) -> np.ndarray:
        """Index of the nearest level per coordinate (hard slicing).

        Exact midpoints resolve to the smaller level, making the selection
        deterministic.
        """
        return self.midpoints.searchsorted(x, side="left")

    def nearest(self, x: np.ndarray) -> np.ndarray:
        """Projection onto the lattice S: the nearest level per coordinate."""
        return self.levels.take(self.nearest_indices(x))


@dataclass(frozen=True)
class BoxSet:
    """Hypercube {x : ||x||_inf <= a_max}, the convex hull of the lattice."""

    a_max: float

    def __post_init__(self):
        if not self.a_max > 0:
            raise ConfigError("a_max must be positive")


_FACTORIES = {
    "qpsk": (np.array([-1.0, 1.0]), 1),
    "16qam": (np.array([-3.0, -1.0, 1.0, 3.0]), 2),
    "64qam": (np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0]), 3),
}


def constellation(name: str) -> Constellation:
    """Build a named constellation, scaled to unit average symbol energy."""
    try:
        raw, bits = _FACTORIES[name.lower()]
    except KeyError:
        raise ConfigError(f"unknown modulation {name!r}") from None
    scale = np.sqrt(2.0 * np.mean(raw**2))
    return Constellation(name.lower(), raw / scale, bits)


def project_box(x: np.ndarray, box: BoxSet) -> np.ndarray:
    """Coordinate-wise clamp onto the box."""
    out = np.maximum(x, -box.a_max)
    return np.minimum(out, box.a_max, out=out)


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    """Shrinkage sign(x) * max(|x| - tau, 0), the prox of tau * l1-norm.

    The result carries the sign of x, also when it is zero, so that
    soft_threshold(-x) is -soft_threshold(x) bit for bit; -0.0 maps to -0.0.
    """
    if tau < 0:
        raise ConfigError("tau must be nonnegative")
    return np.copysign(np.maximum(np.abs(x) - tau, 0.0), x)


def prox_l1_levels(x: np.ndarray, tau: float, c: Constellation) -> np.ndarray:
    """Soft-thresholded slicing: shrink the residual to the lattice.

    This is the proximal mapping of the nonconvex distance-to-lattice
    objective tau * ||x - P_S(x)||_1; it reduces to P_S(x) when every
    residual magnitude is at most tau, and to x when tau is zero.
    """
    x = np.asarray(x, dtype=float)
    if tau == 0:
        # identity, kept exact (adding and subtracting the slice would round)
        return x.copy()
    sliced = c.nearest(x)
    return soft_threshold(x - sliced, tau) + sliced


def perturbation_l2(x: np.ndarray, c: Constellation) -> np.ndarray:
    """Hard-slicing perturbation P_S(x) - x (zero exactly on the lattice)."""
    return c.nearest(x) - x


def perturbation_l1(x: np.ndarray, tau: float, c: Constellation) -> np.ndarray:
    """Soft-thresholded slicing perturbation prox(x) - x (zero when tau=0)."""
    return prox_l1_levels(x, tau, c) - x
