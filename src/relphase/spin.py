"""Spin-N/2 coherent states and their large-N contraction to ordinary
(Weyl-Heisenberg) coherent states.

The stereographic parameter convention used throughout: for a two-mode
coherent pair (alpha, beta) the block at total photon number N equals the
spin-N/2 coherent state with xi = alpha / beta, i.e. |xi| = |alpha|/|beta|
and arg(xi) = the relative phase arg(alpha) - arg(beta).  (The sign of xi
is fixed by requiring the block identity to hold exactly; see
params_from_modes.)
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import SizeLimitError, _clamp_unit, _deviance, _log_poisson, _stirling_remainder

__all__ = [
    "MAX_SPIN_N",
    "SpinParams",
    "contraction_overlap",
    "embed_wh",
    "params_from_modes",
    "spin_coherent",
]

# Largest spin size contraction_overlap accepts; a larger N raises
# SizeLimitError (exit 3 in the CLI).  It no longer guards memory: the overlap
# touches only the window of k where the WH profile is representable, O(|z|)
# entries at any N.  It keeps the accepted range of N as documented; the
# mpmath stress rows check N up to 10**6.
MAX_SPIN_N = 2**24

# Half-widths of the WH window in _wh_window: outside it every amplitude,
# rescaled by the largest one at k <= N, is below e^-745 and underflows to 0.
# With mu = |z|^2 the squared profile is a Poisson law, whose log falls by at
# least t^2 / (2 mu) at k = mu - t and by t^2 / (2 (mu + t/3)) at k = mu + t;
# 1490 = 2 * 745 is reached by t = 56|z| + 10 below and 56|z| + 1000 above.
WINDOW_WIDTH = 56.0
WINDOW_MARGIN_BELOW = 10.0
WINDOW_MARGIN_ABOVE = 1000.0


@dataclass(frozen=True)
class SpinParams:
    """Polar/relative-phase angles plus the stereographic parameter xi.

    theta is reporting-only and satisfies |tan(theta/2)| = |xi|; xi is the
    computational parameter.
    """

    theta: float
    phi_r: float
    xi: complex


def params_from_modes(alpha: complex, beta: complex) -> SpinParams:
    """Spin parameters of the difference register of |alpha> (x) |beta>.

    phi_r = arg(alpha) - arg(beta) and xi = alpha / beta, so that
    spin_coherent(N, xi) reproduces every block of the two-mode state up to
    a global phase.  A non-finite amplitude raises ValueError.
    """
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError(f"mode amplitudes must be finite, got ({alpha}, {beta})")
    if beta == 0:
        raise ValueError("relative phase is undefined for beta = 0")
    phi_r = float(np.angle(alpha) - np.angle(beta))
    xi = complex(alpha / beta)
    theta = 2.0 * math.atan(abs(xi))
    return SpinParams(theta=theta, phi_r=phi_r, xi=xi)


def spin_coherent(big_n: int, xi: complex) -> np.ndarray:
    """Spin-N/2 coherent state over the index k = N/2 + M = 0..N:

    amplitude(k) = sqrt(binom(N, k)) (1+|xi|^2)^{-N/2} xi^k,

    unit norm by the binomial theorem.  Computed in log space.  A
    non-finite xi raises ValueError.
    """
    if big_n < 0:
        raise ValueError(f"N must be >= 0, got {big_n}")
    if not np.isfinite(xi):
        raise ValueError(f"spin parameter xi must be finite, got {xi}")
    if xi == 0 or big_n == 0:
        amps = np.zeros(big_n + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    k = np.arange(big_n + 1)
    return np.exp(_log_spin_profile(big_n, float(abs(xi)), k) + 1j * np.angle(xi) * k)


def _log_spin_profile(big_n: int, xi_mag: float, k: np.ndarray) -> np.ndarray:
    """log |amplitude(k)| of the spin-N/2 coherent state with |xi| = xi_mag > 0.

    |amplitude(k)|^2 is the binomial mass of k in N trials with success
    probability p = |xi|^2/(1+|xi|^2), q = 1 - p, in Loader's form
    log Binom(k; N, p) = R(N) - R(k) - R(N-k) - D(k, Np) - D(N-k, Nq), with
    Nq = N/(1+|xi|^2) and Np = Nq |xi|^2, so Np/Nq is |xi|^2 to one rounding.
    """
    xi2 = xi_mag * xi_mag
    if xi2 == math.inf:  # the binomial is symmetric under k, xi -> N-k, 1/xi
        return _log_spin_profile(big_n, 1.0 / xi_mag, big_n - k)
    remainders = _stirling_remainder(big_n) - _stirling_remainder(k)
    remainders -= _stirling_remainder(big_n - k)
    if xi2 > 0.0 and 1.0 / xi2 < math.inf:
        nq = big_n / (1.0 + xi2)
        return 0.5 * (remainders - _deviance(k, nq * xi2) - _deviance(big_n - k, nq))
    # |xi|^2 underflows: Nq is N, and D(k, Np) is D(k, 1) - 1 - k ln(N |xi|^2) up to Np
    moved = 1.0 + (math.log(big_n) + 2.0 * math.log(xi_mag)) * k - _deviance(k, 1.0)
    return 0.5 * (remainders - _deviance(big_n - k, big_n) + moved)


def _poisson_window(center: float, below: float, above: float, n_max: int):
    """Integer edges (lo, hi) of the photon numbers center - below ...
    center + above, clipped to [0, n_max]: the window of a Poisson-like
    profile peaked at center.  above = inf keeps every n up to n_max."""
    lo = min(n_max, math.floor(max(0.0, center - below)))
    hi = n_max if center + above >= n_max else math.ceil(center + above)
    return lo, hi


def _wh_window(z: complex, big_n: int) -> np.ndarray:
    """The k <= N outside which every WH amplitude of z, rescaled by the
    largest one at k <= N, is below e^-745 and so is every raw amplitude.

    The profile k ln|z| - log(k!)/2 is concave with its top at
    p = min(|z|^2, N), so the window is p - 56|z| - 10 ... p + 56|z| + 1000,
    clipped to [0, N]: O(|z|) entries at any N.  z = 0 gives k = [0].  A
    non-finite z raises ValueError.
    """
    if not np.isfinite(z):
        raise ValueError(f"coherent amplitude must be finite, got {z}")
    if z == 0:
        return np.zeros(1, dtype=int)
    mag = float(abs(z))
    spread = WINDOW_WIDTH * mag
    lo, hi = _poisson_window(
        min(mag * mag, big_n), spread + WINDOW_MARGIN_BELOW, spread + WINDOW_MARGIN_ABOVE, big_n
    )
    return np.arange(lo, hi + 1)


def _log_wh_window(z: complex, big_n: int):
    """The WH coherent profile of amplitude z on the window k of _wh_window,
    in log space and rescaled by its largest value: (k, log |w_k| - max_j
    log |w_j|)."""
    k = _wh_window(z, big_n)
    if z == 0:
        return k, np.zeros(1)
    mag = float(abs(z))
    if math.isfinite(mag * mag):
        log_w = 0.5 * _log_poisson(k, mag)
    else:  # |z|^2 overflows: the same profile up to a constant, from mean 1
        log_w = 0.5 * _log_poisson(k, 1.0) + math.log(mag) * k
    return k, log_w - log_w.max()


def embed_wh(z: complex, big_n: int) -> np.ndarray:
    """Weyl-Heisenberg coherent amplitudes truncated to k <= N, renormalized.

    Built from the rescaled log profile of _log_wh_window, so it stays finite
    and normalized when every raw amplitude up to N underflows (|z| above
    about 27).  For N past |z|^2 + 10|z| + 10 the renormalization factor is 1
    to well under 1e-10 (Poisson tail).  A non-finite z raises ValueError.
    """
    k, log_w = _log_wh_window(z, big_n)
    amps = np.zeros(big_n + 1, dtype=complex)
    amps[k] = np.exp(log_w + 1j * np.angle(z) * k)
    return amps / np.linalg.norm(amps)


def contraction_overlap(z: complex, big_n: int) -> float:
    """|<embed_wh(z, N) | spin_coherent(N, z/sqrt(N))>|^2.

    Approaches 1 as N grows at fixed z: the spin family contracts onto the
    WH coherent state when the stereographic parameter shrinks like
    1/sqrt(N).  Both states carry the phase arg(z) k, so the overlap is
    (sum_k |w_k| |s_k|)^2 / sum_k |w_k|^2, summed in log space over the
    window of _log_wh_window only.  N above MAX_SPIN_N raises SizeLimitError.
    """
    if big_n < 1:
        raise ValueError(f"N must be >= 1, got {big_n}")
    if big_n > MAX_SPIN_N:
        raise SizeLimitError(f"N = {big_n} is above the limit of {MAX_SPIN_N}")
    k, log_w = _log_wh_window(z, big_n)
    if z == 0:
        return 1.0
    log_s = _log_spin_profile(big_n, float(abs(z)) / math.sqrt(big_n), k)
    cross = np.sum(np.exp(log_w + log_s))
    return _clamp_unit(float(cross * cross / np.sum(np.exp(2.0 * log_w))))
