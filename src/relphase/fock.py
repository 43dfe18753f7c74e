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
    "MAX_ENTRIES",
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


# Largest array, in entries, that an input-sized allocation may take: 2**23
# complex entries are 134 MB.  Each allocation whose size follows from the
# input calls check_entries just before it allocates.
MAX_ENTRIES = 2**23

# Entries that a chunked walk takes at once: a tile of the sector sums
# over a grid window (whole rows, or a run of one longer row) and a chunk of
# whole rows of the chi table of a phase twirl.  A block of complex entries
# is then 64 kB, small enough that the allocator reuses freed memory for
# the next block's temporaries instead of mapping fresh pages: at 2**16
# entries the HS walk of a factorization report in a new interpreter took
# up to twice as long.
CHUNK_ENTRIES = 2**12


class SizeLimitError(ValueError):
    """Raised before allocating an array of more than MAX_ENTRIES entries, or
    for a photon number that floats do not count exactly."""


def check_exact(n, what: str):
    """Raise SizeLimitError if the photon number n is 2^53 or more, where a
    float stops counting integers exactly; ``what`` names n."""
    if n >= 2**53:
        raise SizeLimitError(f"{what} of 2^53 or more is beyond exact floats")


def check_count(value, what: str, low=0) -> int:
    """value as an int, if it is an integer (numpy's too, but not a float
    such as 3.0) of at least ``low``; low=None sets no lower bound.
    Anything else, a bool included, raises a one-line ValueError naming
    ``what``."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or low is not None and value < low:
        rule = "an integer" if low is None else f"an integer >= {low}"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return int(value)


def check_finite(value, what: str):
    """value, if it is finite (every entry of it, for an array).  Anything
    else raises a one-line ValueError naming ``what``; an array is quoted
    as "nan or inf"."""
    if not np.isfinite(value).all():
        got = "nan or inf" if np.ndim(value) else value
        raise ValueError(f"{what} must be finite, got {got}")
    return value


def check_match(what: str, a, b):
    """Raise a one-line ValueError naming ``what`` unless a == b: the shape,
    basis or view of one operand against what the other, or the call,
    needs."""
    if a != b:
        raise ValueError(f"{what} mismatch: {a!r} vs {b!r}")


def check_normalized(psi, what: str, tol: float):
    """psi, if its norm is 1 within ``tol``.  Anything else, a NaN norm
    included, raises a one-line ValueError naming ``what``.  The squared
    norm is numpy's pairwise sum over chunks of CHUNK_ENTRIES entries, and
    again over the chunk sums, so the check holds no input-sized
    temporary: ``np.linalg.norm`` takes a BLAS dot, whose rounding grows
    with the number of terms, 1.2e-12 over the d^2 equal terms of a
    d = 1001 momentum pair."""
    chunks = np.nditer(psi, ("external_loop", "buffered", "zerosize_ok"), buffersize=CHUNK_ENTRIES)
    if not abs(math.sqrt(np.sum([np.sum(_abs2(c)) for c in chunks])) - 1.0) <= tol:  # NaN fails too
        raise ValueError(f"{what} must be normalized to {tol:g}")
    return psi


def check_entries(rows: int, cols: int):
    """Raise SizeLimitError if a rows x cols array would exceed MAX_ENTRIES,
    before anything of that size is allocated."""
    if rows * cols > MAX_ENTRIES:
        size = f"a {rows} x {cols} grid has {rows * cols} entries"
        raise SizeLimitError(f"{size}, above the limit of {MAX_ENTRIES}")


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 entry by entry, as x.real**2 + x.imag**2."""
    return x.real**2 + x.imag**2


def _conj_products(x: np.ndarray, y: np.ndarray) -> tuple:
    """x^* y entry by entry, as its real and imaginary parts, two real
    arrays from real products: y = x gives exactly x.real**2 + x.imag**2
    and 0, which a fused complex multiply does not.  A charge or sector sum
    of each part is then one bincount of a real array."""
    return x.real * y.real + x.imag * y.imag, x.real * y.imag - x.imag * y.real


def _lag_zero(chi_a: np.ndarray, chi_b: np.ndarray) -> bool:
    """Whether both chi tables vanish at every lag but 0, as the uniform
    prior's do: then neither twirled state holds a coherence between two
    charges, and the phase of each charge is invisible."""
    return np.count_nonzero(chi_a) == np.count_nonzero(chi_b) == 1


def _alignment(real, imag, chi_a, chi_b) -> np.ndarray:
    """Per charge, t - 1 for the phase t = e^{-i arg c} that turns a ket y
    towards x, from the real and imaginary parts of the per-charge sums
    c = sum x^* y: the phase of each charge's own c where both twirls
    vanish off lag 0, else the one phase of the whole sum, which no twirl
    sees.  The difference of x and the turned y is then
    d = (y - x) + (t - 1) y, and t - 1 is taken as -2 sin^2(theta/2) -
    i sin(theta), so that d keeps its relative precision where t is near 1:
    y t itself rounds off by an ulp of y.  t - 1 is 0 where c is 0 or real
    and positive, as for y = x."""
    c = real + 1j * imag
    theta = np.angle(c if _lag_zero(chi_a, chi_b) else np.full_like(c, c.sum()))
    return -2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)


def _hs_from_sums(mass, real, imag, resid, chi_a, chi_b) -> float:
    """||rho - sigma|| for the twirls rho of a ket x and sigma of a ket y
    over the same charges, with chi tables chi_a and chi_b (chi(m) at
    ``chi[m + max q]``), from the per-charge real sums mass = x^* x,
    real + i imag = x^* d and resid = d^* d of the difference d of x and
    y, y turned towards x first (``_alignment``).

    The block of rho - sigma at charges (q, q') with lag m = q - q' is
    a x x'^dag - b (d x'^dag + x d'^dag + d d'^dag), with a = chi_a(m) -
    chi_b(m) and b = chi_b(m), and its squared norm is a Gram form in the
    sums at q and q'.  Summed over the pairs at each lag, every term is a
    correlation sum_q f_q g_{q-m} of two per-charge sums, weighted by |a|^2,
    |b|^2 or a^* b; chi(-m) = chi(m)^* folds the pairs (f, g) and (g, f)
    together.  Where both tables vanish off lag 0 (the uniform prior) only
    lag 0 is evaluated, where a = 0 and b = 1, and each charge gives
    ||x x^dag - y y^dag||^2 = 2 P S + 2 Re R^2 + 4 S Re R + S^2
    (P, R, S its mass, x^* d and resid).  So y = x gives exactly 0, and a
    small distance is read from d, not from the difference of two nearly
    equal states.
    """
    lag_zero = _lag_zero(chi_a, chi_b)

    def lags(f, g):
        return f * g if lag_zero else np.correlate(f, np.conj(g), "full")

    # the |b|^2 terms, real: Re R_q R_q' = Re R_q Re R_q' - Im R_q Im R_q'
    total = 2.0 * (lags(mass, resid) + lags(real, real) - lags(imag, imag))
    total += 4.0 * lags(real, resid) + lags(resid, resid)
    if not lag_zero:
        a, b = chi_a - chi_b, chi_b
        lagged = real + 1j * imag
        cross = lags(mass, lagged.conj()) + lags(lagged, mass) + lags(lagged, lagged.conj())
        total = np.abs(a) ** 2 * lags(mass, mass) + np.abs(b) ** 2 * total
        total -= 2.0 * (np.conj(a) * b * cross).real
    return math.sqrt(max(float(np.sum(total)), 0.0))


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
    """Poisson deviance D(x, m) = x ln(x/m) - (x - m) >= 0 for an array
    x >= 0 and a mean m > 0 with x/m a float, elementwise; D(0, m) = m.

    No term of size x ln x is formed only to cancel.  With
    v = (x - m)/(x + m), ln(x/m) = 2 atanh(v), so D = (x - m) v +
    2x (atanh(v) - v), summed as a series for |v| < 0.1 (Loader's bd0);
    further out D = x log1p((x - m)/m) - (x - m) is well above its rounding.
    Each form is evaluated on its own entries only.
    """
    diff = x - mean
    v = diff / (x + mean)
    near = np.abs(v) < 0.1
    out = np.empty_like(v)
    xn, vn = x[near], v[near]
    v2 = vn * vn
    # atanh(v) - v = v^3 (1/3 + v^2/5 + ... + v^12/15); the rest is below
    # |v|^15/17 < 6e-17 of D
    series = 1.0 / 15.0
    for odd in (13.0, 11.0, 9.0, 7.0, 5.0, 3.0):
        series = series * v2 + 1.0 / odd
    out[near] = vn * (diff[near] + 2.0 * xn * v2 * series)
    far = ~near
    xf = x[far]
    # (x - m)/m rounds to -1 for 0 < x < m 2^-53, where log1p would give -inf;
    # -53 ln 2 in place of ln(x/m) there moves D by x ln(2^-53 m/x) < 2^-53 m/e,
    # under half an ulp of D, and leaves every other entry's bits alone
    excess = np.maximum((np.where(xf > 0, xf, mean) - mean) / mean, 2.0**-53 - 1.0)
    out[far] = xf * np.log1p(excess) - diff[far]
    return out


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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian matrix plus a tag naming its index convention.

    ``basis`` is one of ``"fock"`` (photon number n), ``"block"`` (total
    photon number N major, difference index k minor) or ``"lattice_rel"``
    (relative lattice coordinate x_r).  Hermiticity, unit trace and
    positivity are contracts verified by the test suite, not on every
    construction.  The reads that ``expectation``, ``purity`` and
    ``fidelity_pure_mixed`` make of a state (``shape``, ``entries``,
    ``trace_square``, ``overlap``) are taken from ``matrix``.
    """

    matrix: np.ndarray
    basis: str

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

    def overlap(self, phi: np.ndarray) -> complex:
        """<phi|rho|phi>."""
        return complex(np.vdot(phi, self.matrix @ phi))


def coherent_vector(alpha: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n = 0..n_max.

    Each magnitude is the square root of the Poisson mass at n with mean
    |alpha|^2, taken as exp(log P / 2) from its deviance form; the squared
    norm equals the Poisson CDF at n_max, so truncation can only lose norm.
    A non-finite alpha, or an n_max that is not an integer >= 0
    (``check_count``), raises ValueError.
    """
    return _coherent_window(alpha, 0, n_max)


def _coherent_window(alpha: complex, n_min: int, n_max: int) -> np.ndarray:
    """The amplitudes of coherent_vector(alpha, n_max) at n = n_min..n_max
    only, each the same float: a Poisson window of a mode with nothing
    below it allocated.  An n_max of 2^53 or more, where a float stops
    counting photon numbers exactly, or a window above MAX_ENTRIES raises
    SizeLimitError."""
    n_max = check_count(n_max, "n_max")
    check_exact(n_max, "a photon-number cutoff")
    check_finite(alpha, "coherent amplitude")
    check_entries(1, n_max - n_min + 1)
    n = np.arange(n_min, n_max + 1)
    if alpha == 0:
        return (n == 0).astype(complex)
    return np.exp(0.5 * _log_poisson(n, abs(alpha)) + 1j * np.angle(alpha) * n)


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot; a
    non-finite result raises ValueError."""
    u, v = np.asarray(u), np.asarray(v)
    check_match("dimension", u.shape, v.shape)
    return check_finite(complex(np.vdot(u, v)), "inner product")


def _clamp_unit(value: float) -> float:
    """A fidelity or overlap clamped into [0, 1]; an excursion beyond
    CLAMP_TOL raises ValueError instead of being hidden."""
    if not -CLAMP_TOL <= value <= 1.0 + CLAMP_TOL:  # NaN fails too
        raise ValueError(f"value {value!r} lies outside [0, 1] beyond float noise")
    return min(max(value, 0.0), 1.0)


def _real_part(value, what: str, tol: float) -> float:
    """The real part of a value that is real up to rounding, such as a
    fidelity, purity or expectation: an imaginary part beyond ``tol``, a
    NaN one included, or a real part that is not finite raises ValueError
    naming ``what``."""
    if not abs(value.imag) <= tol:  # NaN fails too
        raise ValueError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(check_finite(value.real, what))


def fidelity_pure_mixed(psi: np.ndarray, rho) -> float:
    """<psi|rho|psi> for a normalized vector against a ``DensityMatrix`` or
    a twirled state, as the state computes it."""
    psi = check_normalized(np.asarray(psi, dtype=complex), "psi", 1e-10)
    check_match("dimension", (psi.size, psi.size), rho.shape)
    return _clamp_unit(_real_part(rho.overlap(psi), "fidelity", 1e-12))


def purity(rho) -> float:
    """Tr(rho^2) of a trace-normalized state, as the state computes it."""
    return _real_part(rho.trace_square(), "purity", 1e-12)


def hs_distance(rho, sigma) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two states of one basis
    and shape.  Two twirled states of one kind are compared from their
    factors (``_hs_from_sums``), with no dense matrix: every public
    constructor fixes the charge labels from the basis and shape, and a
    hand-built pair over different labels raises ValueError.  A
    ``DensityMatrix`` operand is compared entry by entry with the other
    state's dense matrix, and a non-finite entry in either raises
    ValueError.  A twirled state's ket is finite by construction."""
    check_match("basis", rho.basis, sigma.basis)
    check_match("dimension", rho.shape, sigma.shape)
    if type(rho) is type(sigma) is not DensityMatrix:
        return _hs_from_sums(*rho._hs_sums(sigma))
    a, b = (check_finite(state.matrix, "density matrix entries") for state in (rho, sigma))
    return float(np.linalg.norm(a - b))
