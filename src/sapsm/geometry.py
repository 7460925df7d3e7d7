"""Projections, proximal operators and superiorization perturbations.

Everything here acts coordinate-wise on real vectors: the box ``B`` is the
hypercube of radius ``a_max``, the lattice ``S`` is the per-coordinate
constellation alphabet, and the two perturbation families push an iterate
towards ``S`` either by hard slicing or by soft-thresholded slicing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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

    levels: np.ndarray
    midpoints: np.ndarray = field(init=False, repr=False)
    # level i slices from the interval (edges[i], edges[i + 1]]
    edges: np.ndarray = field(init=False, repr=False)

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
        edges = np.r_[-np.inf, (levels[:-1] + levels[1:]) / 2.0, np.finfo(float).max]
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "midpoints", edges[1:-1])

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
    "qpsk": np.array([-1.0, 1.0]),
    "16qam": np.array([-3.0, -1.0, 1.0, 3.0]),
    "64qam": np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0]),
}


def constellation(name: str) -> Constellation:
    """The named constellation, scaled to unit average symbol energy. Each
    name is built once and shared; its arrays are read-only."""
    try:
        return _named_constellation(name.lower())
    except KeyError:
        raise ConfigError(f"unknown modulation {name!r}") from None


@lru_cache(maxsize=None)
def _named_constellation(name: str) -> Constellation:
    raw = _FACTORIES[name]
    scale = np.sqrt(2.0 * np.mean(raw**2))
    c = Constellation(raw / scale)
    for a in (c.levels, c.midpoints, c.edges):
        a.flags.writeable = False
    return c


def project_box(x: np.ndarray, box: BoxSet, out: np.ndarray | None = None) -> np.ndarray:
    """Coordinate-wise clamp onto the box, into ``out`` when given."""
    out = np.maximum(x, -box.a_max, out=out)
    return np.minimum(out, box.a_max, out=out)


def soft_slice(x: np.ndarray, tau: float | np.ndarray, c: Constellation,
               sliced: np.ndarray | None = None) -> np.ndarray:
    """The residual r = x - P_S(x) shrunk to sign(r) max(|r| - tau, 0), plus
    P_S(x); tau unchecked and broadcast against x. The shrunk residual keeps
    the sign of r, also when it is zero; at tau = inf the result is P_S(x)
    bitwise for every finite x (nan at +-inf). ``sliced``, when given, is
    P_S(x), found earlier (unchecked)."""
    if sliced is None:
        sliced = c.nearest(x)
    r = x - sliced
    return np.copysign(np.maximum(np.abs(r) - tau, 0.0), r) + sliced


def prox_l1_levels(x: np.ndarray, tau: float | np.ndarray, c: Constellation) -> np.ndarray:
    """Soft-thresholded slicing: shrink the residual to the lattice.

    This is the proximal mapping of the nonconvex distance-to-lattice
    objective tau * ||x - P_S(x)||_1; it reduces to P_S(x) when every
    residual magnitude is at most tau, and to x when tau is zero. ``tau``
    is a scalar or an array broadcast against x, each element bitwise the
    scalar call on it.
    """
    x = np.asarray(x, dtype=float)
    tau = np.asarray(tau, dtype=float)
    # "not >= 0" refuses nan too
    if not np.all(tau >= 0):
        raise ConfigError("tau must be nonnegative")
    # an element with tau = 0 keeps its x exactly (adding and subtracting
    # the slice would round)
    return np.where(tau == 0, x, soft_slice(x, tau, c))


def perturbation_l2(x: np.ndarray, c: Constellation) -> np.ndarray:
    """Hard-slicing perturbation P_S(x) - x, zero exactly on the lattice."""
    return soft_slice(x, np.inf, c) - x


def perturbation_l1(x: np.ndarray, tau: float, c: Constellation) -> np.ndarray:
    """Soft-thresholded slicing perturbation prox(x) - x (zero when tau=0)."""
    return prox_l1_levels(x, tau, c) - x
