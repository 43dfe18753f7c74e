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
from scipy.special import gammaln

from .fock import SizeLimitError, coherent_vector

__all__ = [
    "MAX_SPIN_N",
    "SpinParams",
    "contraction_overlap",
    "embed_wh",
    "params_from_modes",
    "spin_coherent",
]

# Largest spin size contraction_overlap will evaluate: its two length-(N+1)
# profiles and their log-gamma temporaries take about 1 GB at 2**24.
MAX_SPIN_N = 2**24


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
    a global phase.
    """
    if beta == 0:
        raise ValueError("relative phase is undefined for beta = 0")
    phi_r = float(np.angle(alpha) - np.angle(beta))
    xi = complex(alpha / beta)
    theta = 2.0 * math.atan(abs(xi))
    return SpinParams(theta=theta, phi_r=phi_r, xi=xi)


def spin_coherent(big_n: int, xi: complex) -> np.ndarray:
    """Spin-N/2 coherent state over the index k = N/2 + M = 0..N:

    amplitude(k) = sqrt(binom(N, k)) (1+|xi|^2)^{-N/2} xi^k,

    unit norm by the binomial theorem.  Computed in log space.
    """
    if big_n < 0:
        raise ValueError(f"N must be >= 0, got {big_n}")
    if xi == 0:
        amps = np.zeros(big_n + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    k = np.arange(big_n + 1)
    log_binom = gammaln(big_n + 1.0) - gammaln(k + 1.0) - gammaln(big_n - k + 1.0)
    mag = abs(xi)
    log_mag = 0.5 * log_binom + k * np.log(mag) - 0.5 * big_n * np.log1p(mag * mag)
    return np.exp(log_mag + 1j * np.angle(xi) * k)


def embed_wh(z: complex, big_n: int) -> np.ndarray:
    """Weyl-Heisenberg coherent amplitudes truncated to k <= N, renormalized.

    For N past |z|^2 + 10|z| + 10 the renormalization factor is 1 to well
    under 1e-10 (Poisson tail).  A non-finite z raises ValueError.
    """
    amps = coherent_vector(z, big_n)
    return amps / np.linalg.norm(amps)


def contraction_overlap(z: complex, big_n: int) -> float:
    """|<embed_wh(z, N) | spin_coherent(N, z/sqrt(N))>|^2.

    Approaches 1 as N grows at fixed z: the spin family contracts onto the
    WH coherent state when the stereographic parameter shrinks like
    1/sqrt(N).  N above MAX_SPIN_N raises SizeLimitError before anything is
    allocated.
    """
    if big_n < 1:
        raise ValueError(f"N must be >= 1, got {big_n}")
    if big_n > MAX_SPIN_N:
        raise SizeLimitError(f"N = {big_n} is above the limit of {MAX_SPIN_N}")
    overlap = np.vdot(embed_wh(z, big_n), spin_coherent(big_n, z / math.sqrt(big_n)))
    return min(float(abs(overlap) ** 2), 1.0)
