"""Real-valued MIMO signal model: real lifting, channels, noise, error counts.

Complex N x K systems are lifted to real 2N x 2K ones; real coordinate k
pairs with k+K as one complex symbol. Channels come column-normalized
(perfect power allocation), either i.i.d. Gaussian or Kronecker-correlated
with exponential correlation profiles. A realization carries the received
y = Hs + w, not the noise w itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .geometry import Constellation


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
    """One realization (H, s, y, sigma2) of the real-valued model y = Hs + w,
    with complex noise variance sigma2."""

    H: np.ndarray
    s: np.ndarray
    y: np.ndarray
    sigma2: float


def realify(Hc: np.ndarray) -> np.ndarray:
    """Lift a complex N x K matrix to the real 2N x 2K block form
    [[Re, -Im], [Im, Re]]."""
    Hc = np.asarray(Hc)
    n, k = Hc.shape
    re, im = Hc.real, Hc.imag
    H = np.empty((2 * n, 2 * k), dtype=re.dtype)
    H[:n, :k] = re
    np.negative(im, out=H[:n, k:])
    H[n:, :k] = im
    H[n:, k:] = re
    return H


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
    """Draw a complex N x K channel and normalize its columns to unit 2-norm
    (continuous entries and full-rank correlation roots for rho < 1: a zero
    column has probability zero)."""
    if not N >= K >= 1:
        raise ConfigError(f"need N >= K >= 1, got N={N}, K={K}")
    G = (rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))) / np.sqrt(2.0)
    if model.kind == "kronecker" and (model.rho_tx > 0 or model.rho_rx > 0):
        G = _corr_sqrt(model.rho_rx, N) @ G @ _corr_sqrt(model.rho_tx, K)
    return G / np.linalg.norm(G, axis=0)


def transmit(c: Constellation, K: int, rng: np.random.Generator) -> np.ndarray:
    """Draw 2K real coordinates independently and uniformly from the alphabet."""
    return c.levels[rng.integers(0, c.size, size=2 * K)]


def add_noise(hs: np.ndarray, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Return y = hs + w for real Gaussian noise w of per-coordinate
    variance sigma2/2; a copy of hs, drawing nothing, when sigma2 is 0."""
    if sigma2 < 0:
        raise ConfigError("sigma2 must be nonnegative")
    if sigma2 == 0:
        return np.asarray(hs, dtype=float).copy()
    return hs + rng.normal(0.0, np.sqrt(sigma2 / 2.0), size=hs.shape)


def snr_to_sigma2(snr_db: float, N: int, K: int) -> float:
    """Complex noise variance for a target receive SNR in dB.

    With unit-norm columns and unit-energy symbols the total receive signal
    power is K and the noise power N * sigma2, so sigma2 = K / (N * 10^(SNR/10)).
    An SNR too large for 10^(SNR/10) gives sigma2 = 0, as +inf dB does; an
    SNR whose sigma2 is not finite (nan, -inf, or too far below 0 dB) is a
    ``ConfigError``.
    """
    try:
        sigma2 = K / (N * 10.0 ** (float(snr_db) / 10.0))
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise ConfigError(f"snr {snr_db} dB gives no finite noise variance")
    return sigma2


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
    return ChannelInstance(H=H, s=s, y=add_noise(H @ s, sigma2, rng), sigma2=sigma2)


def slicing_interval(s: np.ndarray, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of each reference coordinate: the slicing interval
    (lower, upper] of its level."""
    i = c.nearest_indices(s)
    return c.edges[i], c.edges[i + 1]


def interval_errors(x_hat: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Wrong complex symbols along the last axis of ``x_hat``, any leading
    shape, against the slicing intervals (lower, upper] of the reference,
    which broadcast against ``x_hat``: coordinates k and k+K form one symbol,
    wrong when either lies outside its interval (a non-finite one always does)."""
    k = x_hat.shape[-1] // 2
    right = x_hat > lower
    right &= x_hat <= upper
    return k - (right[..., :k] & right[..., k:]).sum(axis=-1)


def symbol_errors(x_hat: np.ndarray, s: np.ndarray,
                  c: Constellation) -> int | np.ndarray:
    """Count wrong complex symbols after hard slicing.

    Coordinates k and k+K form one symbol; it is wrong when either real
    component lies outside the slicing interval of the reference's level (a
    non-finite one always does). A stack of estimates (one per row) gives one
    count per row, against one reference or a stack of references of its shape.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    s = np.asarray(s, dtype=float)
    if x_hat.ndim not in (1, 2) or s.shape not in (x_hat.shape, x_hat.shape[-1:]):
        raise DimensionMismatch(f"shapes {x_hat.shape} vs {s.shape}")
    if s.shape[-1] % 2:
        raise DimensionMismatch("vectors must have even length")
    errors = interval_errors(x_hat, *slicing_interval(s, c))
    return errors if x_hat.ndim == 2 else int(errors)
