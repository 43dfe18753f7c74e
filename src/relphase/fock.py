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
    "purity",
]

# Values outside [0, 1] by less than this are float noise and get clamped;
# larger excursions indicate a bug upstream and raise.
CLAMP_TOL = 1e-9


class SizeLimitError(ValueError):
    """Raised before allocating an array larger than a module's size limit."""


# log n! = n ln n - n + R(n), with the Stirling remainder
# R(n) = ln(2 pi n)/2 + S(n) and S(n) = 1/(12n) - 1/(360n^3) + 1/(1260n^5)
# - 1/(1680n^7) + 1/(1188n^9) from STIRLING_FROM on, a table below it.  The
# first dropped term, 691/(360360 n^11), is below 1e-19 at n = 32.
STIRLING_FROM = 32
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_series(x):
    inv2 = 1.0 / (x * x)
    return (1 / 12 + inv2 * (-1 / 360 + inv2 * (1 / 1260 + inv2 * (-1 / 1680 + inv2 / 1188)))) / x


def _small_remainder_table() -> np.ndarray:
    """R(n) for 0 <= n < STIRLING_FROM, with S(n) stepped down from the
    series at STIRLING_FROM by S(n) = S(n+1) + (n + 1/2) log1p(1/n) - 1;
    R(0) = 0 and R(1) = 1 exactly."""
    table = [0.0, 1.0] + [0.0] * (STIRLING_FROM - 2)
    s = _stirling_series(float(STIRLING_FROM))
    for n in range(STIRLING_FROM - 1, 1, -1):
        s += (n + 0.5) * math.log1p(1.0 / n) - 1.0
        table[n] = _HALF_LOG_TWO_PI + 0.5 * math.log(n) + s
    return np.array(table)


_REMAINDER_TABLE = _small_remainder_table()


def _stirling_remainder(n):
    """R(n) = log n! - (n ln n - n) = ln(2 pi n)/2 + S(n) for integers
    n >= 0, elementwise: the table below STIRLING_FROM, the series above."""
    big = np.maximum(n, STIRLING_FROM).astype(float)
    series = _HALF_LOG_TWO_PI + 0.5 * np.log(big) + _stirling_series(big)
    return np.where(n < STIRLING_FROM, _REMAINDER_TABLE[np.minimum(n, STIRLING_FROM - 1)], series)


def _deviance(x, mean):
    """Poisson deviance D(x, m) = x ln(x/m) - (x - m) >= 0 for x >= 0 and a
    mean m > 0 with x/m a float, elementwise over arrays; D(0, m) = m.

    No term of size x ln x is formed only to cancel.  With
    v = (x - m)/(x + m), ln(x/m) = 2 atanh(v), so D = (x - m) v +
    2x (atanh(v) - v), summed as a series for |v| < 0.1 (Loader's bd0);
    further out D = x log1p((x - m)/m) - (x - m) is well above its rounding.
    """
    diff = x - mean
    v = diff / (x + mean)
    v2 = v * v
    # atanh(v) - v = v^3 (1/3 + v^2/5 + ... + v^12/15); the rest is below
    # |v|^15/17 < 6e-17 of D
    series = 1.0 / 15.0
    for odd in (13.0, 11.0, 9.0, 7.0, 5.0, 3.0):
        series = series * v2 + 1.0 / odd
    near = v * (diff + 2.0 * x * v2 * series)
    far = x * np.log1p((np.where(x > 0, x, mean) - mean) / mean) - diff
    return np.where(np.abs(v) < 0.1, near, far)


def _log_poisson(n, mag):
    """log of the Poisson mass at integers n >= 0 with mean mag^2 > 0,
    elementwise: -D(n, mag^2) - R(n).

    Where mag^2 or n/mag^2 leaves the float range (mag below about 1e-154,
    or mag^2 overflowing), the law of mean 1 is moved to mean mag^2 by
    log P(n; m) = log P(n; 1) + n ln m - m + 1, with ln m = 2 ln mag.
    """
    mag = float(mag)
    mean = mag * mag
    if 0.0 < mean < math.inf and float(np.max(n)) / mean < math.inf:
        return -_deviance(n, mean) - _stirling_remainder(n)
    return (_log_poisson(n, 1.0) + 1.0) + (2.0 * math.log(mag) * n - mean)


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

    Each magnitude is the square root of the Poisson mass at n with mean
    |alpha|^2, taken as exp(log P / 2) from its deviance form; the squared
    norm equals the Poisson CDF at n_max, so truncation can only lose norm.
    A non-finite alpha raises ValueError.
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
    return np.exp(0.5 * _log_poisson(n, abs(alpha)) + 1j * np.angle(alpha) * n)


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
    """Hilbert-Schmidt (Frobenius) distance between two density matrices.
    A non-finite entry in either raises ValueError."""
    if rho.basis != sigma.basis:
        raise ValueError(f"basis mismatch: {rho.basis!r} vs {sigma.basis!r}")
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError(f"dimension mismatch: {rho.matrix.shape} vs {sigma.matrix.shape}")
    if not (np.isfinite(rho.matrix).all() and np.isfinite(sigma.matrix).all()):
        raise ValueError("density matrix entries must be finite, got nan or inf")
    return float(np.linalg.norm(rho.matrix - sigma.matrix))
