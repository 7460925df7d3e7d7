"""Real-valued MIMO signal model: stacking, channels, noise and error counts.

Complex N x K systems are lifted to real 2N x 2K ones; real coordinate k
pairs with k+K as one complex symbol. Channels come column-normalized
(perfect power allocation), either i.i.d. Gaussian or Kronecker-correlated
with exponential correlation profiles.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .geometry import Constellation

log = logging.getLogger(__name__)

_COLUMN_TOL = 1e-12


@dataclass(frozen=True)
class ChannelModel:
    """Channel family: iid Gaussian or Kronecker-correlated Rayleigh."""

    kind: str = "iid"
    rho_tx: float = 0.0
    rho_rx: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid", "kronecker"):
            raise ConfigError(f"unknown channel kind {self.kind!r}")
        if self.kind == "iid" and (self.rho_tx or self.rho_rx):
            raise ConfigError("the iid channel takes no correlation; use kronecker")
        if not (0.0 <= self.rho_tx < 1.0 and 0.0 <= self.rho_rx < 1.0):
            raise ConfigError("correlation magnitudes must lie in [0, 1)")


@dataclass
class ChannelInstance:
    """One realization (H, s, w, y, sigma2) of the real-valued model y = Hs + w."""

    H: np.ndarray
    s: np.ndarray
    w: np.ndarray
    y: np.ndarray
    sigma2: float
    seed: int


def realify(Hc: np.ndarray) -> np.ndarray:
    """Lift a complex N x K matrix to the real 2N x 2K block form
    [[Re, -Im], [Im, Re]]."""
    Hc = np.asarray(Hc)
    re, im = Hc.real, Hc.imag
    return np.block([[re, -im], [im, re]])


def complexify(H: np.ndarray) -> np.ndarray:
    """Inverse of :func:`realify` (top blocks only)."""
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


@lru_cache(maxsize=16)
def _corr_sqrt(rho: float, n: int) -> np.ndarray:
    """Symmetric square root of the exponential correlation matrix
    R[i, j] = rho^|i-j|. Cached; callers must not mutate the result."""
    idx = np.arange(n)
    R = rho ** np.abs(idx[:, None] - idx[None, :])
    vals, vecs = np.linalg.eigh(R)
    root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    root.setflags(write=False)
    return root


def gen_channel(model: ChannelModel, N: int, K: int,
                rng: np.random.Generator) -> np.ndarray:
    """Draw a complex N x K channel and normalize its columns to unit 2-norm."""
    if not N >= K >= 1:
        raise ConfigError(f"need N >= K >= 1, got N={N}, K={K}")
    G = (rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))) / np.sqrt(2.0)
    if model.kind == "kronecker" and (model.rho_tx > 0 or model.rho_rx > 0):
        G = _corr_sqrt(model.rho_rx, N) @ G @ _corr_sqrt(model.rho_tx, K)
    norms = np.linalg.norm(G, axis=0)
    resampled = 0
    while np.any(norms < _COLUMN_TOL):
        # probability-zero event, but a zero column cannot be normalized
        for j in np.nonzero(norms < _COLUMN_TOL)[0]:
            G[:, j] = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.sqrt(2.0)
            resampled += 1
        norms = np.linalg.norm(G, axis=0)
    if resampled:
        log.warning("resampled %d degenerate channel columns", resampled)
    return G / norms


def transmit(c: Constellation, K: int, rng: np.random.Generator) -> np.ndarray:
    """Draw 2K real coordinates independently and uniformly from the alphabet."""
    return c.levels[rng.integers(0, c.size, size=2 * K)]


def add_noise(hs: np.ndarray, sigma2: float,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Add real Gaussian noise of per-coordinate variance sigma2/2.

    Returns (w, y) with y = hs + w holding exactly: w is recomputed as
    y - hs after rounding so the identity is bitwise true.
    """
    if sigma2 < 0:
        raise ConfigError("sigma2 must be nonnegative")
    if sigma2 == 0:
        return np.zeros_like(hs), np.asarray(hs, dtype=float).copy()
    w = rng.normal(0.0, np.sqrt(sigma2 / 2.0), size=hs.shape)
    y = hs + w
    return y - hs, y


def snr_to_sigma2(snr_db: float, N: int, K: int) -> float:
    """Complex noise variance for a target receive SNR in dB.

    With unit-norm columns and unit-energy symbols the total receive signal
    power is K and the noise power N * sigma2, so sigma2 = K / (N * 10^(SNR/10)).
    """
    return K / (N * 10.0 ** (snr_db / 10.0))


def trial_seed(*parts: int) -> int:
    """Counter-based seed mix; stable regardless of execution schedule."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def make_instance(model: ChannelModel, c: Constellation, K: int, N: int,
                  snr_db: float, seed: int) -> ChannelInstance:
    """Generate one paired (channel, transmit, noise) realization."""
    rng = np.random.default_rng(seed)
    H = realify(gen_channel(model, N, K, rng))
    s = transmit(c, K, rng)
    sigma2 = snr_to_sigma2(snr_db, N, K)
    w, y = add_noise(H @ s, sigma2, rng)
    return ChannelInstance(H=H, s=s, w=w, y=y, sigma2=sigma2, seed=seed)


def symbol_errors(x_hat: np.ndarray, s: np.ndarray,
                  c: Constellation) -> int | np.ndarray:
    """Count wrong complex symbols after hard slicing.

    Coordinates k and k+K form one symbol; the symbol is wrong when either
    real component slices to a different level than the reference. A stack
    of estimates (one per row) gives one count per row, against one
    reference or against a stack of references of the same shape.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    s = np.asarray(s, dtype=float)
    if x_hat.ndim not in (1, 2) or s.shape not in (x_hat.shape, x_hat.shape[-1:]):
        raise DimensionMismatch(f"shapes {x_hat.shape} vs {s.shape}")
    if s.shape[-1] % 2:
        raise DimensionMismatch("vectors must have even length")
    k = s.shape[-1] // 2
    wrong = c.nearest_indices(x_hat) != c.nearest_indices(s)
    errors = np.count_nonzero(wrong[..., :k] | wrong[..., k:], axis=-1)
    return errors if x_hat.ndim == 2 else int(errors)
