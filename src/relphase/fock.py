"""Truncated single-mode Fock-space primitives.

Pure states are plain 1-D complex numpy arrays indexed by photon number
n = 0..n_max.  All factorial work happens in log space so amplitudes stay
finite for photon numbers in the thousands.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian matrix plus a tag naming its index convention.

    ``basis`` is one of ``"fock"`` (photon number n), ``"block"`` (total
    photon number N major, difference index k minor), ``"lattice_pair"``
    (cyclic pair coordinates x_r * d + x_a) or ``"lattice_rel"`` (relative
    coordinate only).  Hermiticity, unit trace and positivity are contracts
    verified by the test suite, not on every construction.
    """

    matrix: np.ndarray
    basis: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def coherent_vector(alpha: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n = 0..n_max.

    Magnitudes are assembled as exp(log magnitude) with log-gamma
    factorials; the squared norm equals the Poisson CDF at n_max with mean
    |alpha|^2, so truncation can only lose norm.  A non-finite alpha raises
    ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    if alpha == 0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(n_max + 1)
    mag = abs(alpha)
    log_mag = -0.5 * mag * mag + n * np.log(mag) - 0.5 * gammaln(n + 1.0)
    return np.exp(log_mag + 1j * np.angle(alpha) * n)


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return complex(np.vdot(u, v))


def _clamp_unit(value: float) -> float:
    if value < -CLAMP_TOL or value > 1.0 + CLAMP_TOL:
        raise ValueError(f"value {value!r} lies outside [0, 1] beyond float noise")
    return min(max(value, 0.0), 1.0)


def fidelity_pure_mixed(psi: np.ndarray, rho: DensityMatrix) -> float:
    """<psi|rho|psi> for a normalized vector against a density matrix."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("psi must be normalized to 1e-10")
    if rho.matrix.shape != (psi.size, psi.size):
        raise ValueError(
            f"dimension mismatch: vector of size {psi.size} vs matrix {rho.matrix.shape}"
        )
    value = np.vdot(psi, rho.matrix @ psi)
    if abs(value.imag) > 1e-12:
        raise ValueError(f"fidelity has imaginary residue {value.imag:.3e}")
    return _clamp_unit(float(value.real))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2) of a trace-normalized density matrix."""
    m = rho.matrix
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    value = complex(np.sum(m * m.T))
    if abs(value.imag) > 1e-12:
        raise ValueError(f"purity has imaginary residue {value.imag:.3e}")
    return float(value.real)


def hs_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two density matrices."""
    if rho.basis != sigma.basis:
        raise ValueError(f"basis mismatch: {rho.basis!r} vs {sigma.basis!r}")
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError(f"dimension mismatch: {rho.matrix.shape} vs {sigma.matrix.shape}")
    return float(np.linalg.norm(rho.matrix - sigma.matrix))
