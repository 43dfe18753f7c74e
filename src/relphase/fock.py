"""Truncated single-mode Fock-space primitives.

Pure states are plain 1-D complex numpy arrays indexed by photon number
n = 0..n_max.  All factorial work happens in log space so amplitudes stay
finite for photon numbers in the thousands.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DensityMatrix",
    "SizeLimitError",
    "coherent_vector",
    "fidelity_pure_mixed",
    "hs_distance",
    "inner",
    "log_binomial",
    "log_factorial",
    "log_falling_ratio",
    "purity",
]

# Values outside [0, 1] by less than this are float noise and get clamped;
# larger excursions indicate a bug upstream and raise.
CLAMP_TOL = 1e-9


# Mean photon number |alpha|^2 from which coherent amplitudes take their log
# magnitude from the Poisson deviance.  Below it the direct sum
# -|alpha|^2/2 + n ln|alpha| - log(n!)/2 is used, bit for bit as before; its
# terms are about n ln n, so the rounding of ln|alpha| alone tilts the
# profile by e^{n delta} and moves the norm by up to about |alpha|^2 * 1e-15
# (2e-8 at |alpha| = 3000, where the deviance form keeps it near 1e-14).
DEVIANCE_FROM = 2.0**16


class SizeLimitError(ValueError):
    """Raised before allocating an array larger than a module's size limit."""


# log n! is read from a math.lgamma table below STIRLING_FROM and summed from
# the Stirling series above it: log n! = n (ln n - 1) + ln(2 pi n) / 2 + S(n),
# S(n) = 1/(12n) - 1/(360n^3) + 1/(1260n^5) - 1/(1680n^7) + 1/(1188n^9).  The
# first dropped term, 691/(360360 n^11), is below 1e-19 at n = 32.
STIRLING_FROM = 32
_LOG_FACTORIAL_TABLE = np.array([math.lgamma(n + 1.0) for n in range(STIRLING_FROM)])
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_series(x):
    inv2 = 1.0 / (x * x)
    return (1 / 12 + inv2 * (-1 / 360 + inv2 * (1 / 1260 + inv2 * (-1 / 1680 + inv2 / 1188)))) / x


def _small_stirling_table() -> np.ndarray:
    """S(n) for 1 <= n < STIRLING_FROM (entry 0 unused), stepped down from
    the series at STIRLING_FROM by S(n) = S(n+1) + (n + 1/2) log1p(1/n) - 1,
    so neighbouring entries differ by one rounding, not by two lgamma ulps."""
    table = [0.0] * (STIRLING_FROM + 1)
    table[STIRLING_FROM] = _stirling_series(float(STIRLING_FROM))
    for n in range(STIRLING_FROM - 1, 0, -1):
        table[n] = table[n + 1] + (n + 0.5) * math.log1p(1.0 / n) - 1.0
    return np.array(table[:STIRLING_FROM])


_STIRLING_TABLE = _small_stirling_table()


def _as_counts(n) -> np.ndarray:
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("factorial arguments must be >= 0")
    return n


def _stirling_tail(n: np.ndarray) -> np.ndarray:
    """S(n) for integers n >= 1: the table below STIRLING_FROM, the series above."""
    small = n < STIRLING_FROM
    series = _stirling_series(np.maximum(n, STIRLING_FROM).astype(float))
    return np.where(small, _STIRLING_TABLE[np.where(small, n, 0)], series)


def log_factorial(n):
    """log n! for integers n >= 0, elementwise (a scalar gives a 0-d array)."""
    n = _as_counts(n)
    small = n < STIRLING_FROM
    big = np.maximum(n, STIRLING_FROM).astype(float)
    log_big = np.log(big)
    stirling = big * (log_big - 1.0) + _HALF_LOG_TWO_PI + 0.5 * log_big + _stirling_series(big)
    return np.where(small, _LOG_FACTORIAL_TABLE[np.where(small, n, 0)], stirling)


def log_falling_ratio(big_n, m):
    """log(N! / ((N-m)! N^m)), the log of prod_{j<m} (1 - j/N), for integers
    0 <= m <= N/2, elementwise.

    With r = log1p(-m/N) it is -(N-m) r - m - r/2 + S(N) - S(N-m).  No
    log N! - sized terms are formed, so the absolute error stays within a
    few ulps of m at any N, where log N! - log (N-m)! loses ulps of N ln N.
    """
    big_n = _as_counts(big_n)
    m = _as_counts(m)
    if np.any(2 * m > big_n):
        raise ValueError("falling ratio needs m <= N/2")
    top = np.maximum(big_n, 1)  # N = 0 has m = 0, where every term vanishes
    r = np.log1p(-m / top)
    return -(top - m) * r - m - 0.5 * r + _stirling_tail(top) - _stirling_tail(top - m)


def log_binomial(big_n, k):
    """log binom(N, k) for integers 0 <= k <= N, elementwise: with
    m = min(k, N-k) it is m ln N + log_falling_ratio(N, m) - log m!."""
    big_n = _as_counts(big_n)
    k = _as_counts(k)
    if np.any(k > big_n):
        raise ValueError("binomial needs k <= N")
    m = np.minimum(k, big_n - k)
    return m * np.log(np.maximum(big_n, 1)) + log_falling_ratio(big_n, m) - log_factorial(m)


class DenseReads:
    """The reads that ``expectation`` and ``purity`` make of a state, taken
    from its dense ``matrix``."""

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    def entries(self, rows, cols) -> np.ndarray:
        """rho[rows[i], cols[i]] for each i."""
        return self.matrix[rows, cols]

    def trace_square(self) -> complex:
        """Tr(rho^2) = sum_ij rho_ij rho_ji."""
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        return complex(np.sum(m * m.T))


@dataclass(frozen=True)
class DensityMatrix(DenseReads):
    """Hermitian matrix plus a tag naming its index convention.

    ``basis`` is one of ``"fock"`` (photon number n), ``"block"`` (total
    photon number N major, difference index k minor) or ``"lattice_rel"``
    (relative lattice coordinate x_r).  Hermiticity, unit trace and
    positivity are contracts verified by the test suite, not on every
    construction.
    """

    matrix: np.ndarray
    basis: str


def coherent_vector(alpha: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n = 0..n_max.

    Magnitudes are assembled as exp(log magnitude) with log_factorial; the
    squared norm equals the Poisson CDF at n_max with mean
    |alpha|^2, so truncation can only lose norm.  A non-finite alpha raises
    ValueError.
    """
    return _coherent_window(alpha, 0, n_max)


def _coherent_window(alpha: complex, n_min: int, n_max: int) -> np.ndarray:
    """The amplitudes of coherent_vector(alpha, n_max) at n = n_min..n_max
    only, each the same float: a Poisson window of a mode with nothing
    below it allocated."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    n = np.arange(n_min, n_max + 1)
    if alpha == 0:
        return (n == 0).astype(complex)
    mag = abs(alpha)
    mean = mag * mag
    if mean < DEVIANCE_FROM:
        log_mag = -0.5 * mean + n * np.log(mag) - 0.5 * log_factorial(n)
    else:
        # -mean/2 + n ln|alpha| - log(n!)/2 with Stirling's log n! is
        # -(D + ln(2 pi n)/2 + S(n))/2, D = n ln(n/mean) - (n - mean) the
        # Poisson deviance; D is a few units where its terms are n ln n.
        top = np.maximum(n, 1)
        deviance = top * np.log1p((top - mean) / mean) - (top - mean)
        log_mag = -0.5 * (deviance + _HALF_LOG_TWO_PI + 0.5 * np.log(top) + _stirling_tail(top))
        log_mag = np.where(n == 0, -0.5 * mean, log_mag)
    return np.exp(log_mag + 1j * np.angle(alpha) * n)


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return complex(np.vdot(u, v))


def _clamp_unit(value: float) -> float:
    """A fidelity or overlap clamped into [0, 1]; an excursion beyond
    CLAMP_TOL raises ValueError instead of being hidden."""
    if not -CLAMP_TOL <= value <= 1.0 + CLAMP_TOL:  # NaN fails too
        raise ValueError(f"value {value!r} lies outside [0, 1] beyond float noise")
    return min(max(value, 0.0), 1.0)


def fidelity_pure_mixed(psi: np.ndarray, rho: DensityMatrix) -> float:
    """<psi|rho|psi> for a normalized vector against a density matrix."""
    psi = np.asarray(psi, dtype=complex)
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise ValueError("psi must be normalized to 1e-10")
    if rho.matrix.shape != (psi.size, psi.size):
        raise ValueError(
            f"dimension mismatch: vector of size {psi.size} vs matrix {rho.matrix.shape}"
        )
    value = np.vdot(psi, rho.matrix @ psi)
    if not abs(value.imag) <= 1e-12:  # NaN fails too
        raise ValueError(f"fidelity has imaginary residue {value.imag:.3e}")
    return _clamp_unit(float(value.real))


def purity(rho) -> float:
    """Tr(rho^2) of a trace-normalized state, as the state computes it."""
    value = complex(rho.trace_square())
    if not abs(value.imag) <= 1e-12:  # NaN fails too
        raise ValueError(f"purity has imaginary residue {value.imag:.3e}")
    return float(value.real)


def hs_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two density matrices."""
    if rho.basis != sigma.basis:
        raise ValueError(f"basis mismatch: {rho.basis!r} vs {sigma.basis!r}")
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError(f"dimension mismatch: {rho.matrix.shape} vs {sigma.matrix.shape}")
    return float(np.linalg.norm(rho.matrix - sigma.matrix))
