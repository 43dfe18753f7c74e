"""Product-state approximation of a two-mode coherent state and its
convergence diagnostics.

The construction: expand |alpha> (x) |beta> over total photon number N and
replace every block's difference-index profile by one fixed Weyl-Heisenberg
coherent profile of amplitude z = |alpha| e^{i phi_r}, keeping the
Poissonian weights over N.  The replacement becomes exact as
<N> ~ |beta|^2 grows at fixed alpha, i.e. when |beta|^2 >> |alpha|^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import _grid, cutoff_or_default, mean_photon_number
from .fock import CHUNK_ENTRIES, _abs2, _alignment, _clamp_unit, _coherent_window
from .fock import _conj_products, _hs_from_sums, check_entries, check_exact, check_finite
from .fock import check_match, check_normalized
from .spin import _check_modes, _poisson_window, _wh_window

__all__ = [
    "FactorizationReport",
    "InsufficientCutoffError",
    "approx_product",
    "approx_product_balanced",
    "factorization_fidelity",
    "relative_state_overlap",
    "relative_target",
    "sweep_fidelity",
    "twirled_hs_distance",
]

# Minimum squared norm the truncation must retain before any comparison is
# trusted.
MIN_RETAINED_MASS = 1.0 - 1e-8

class InsufficientCutoffError(ValueError):
    """Raised when the requested truncation loses too much state mass."""


@dataclass(frozen=True)
class FactorizationReport:
    """Comparison of the exact two-mode coherent state against its product
    approximation at one parameter point.  ``exact_mass`` and
    ``product_mass`` are the squared norms the window rows lo1..n1_max x
    columns lo2..n2_max retains of each state, before normalization."""

    alpha: complex
    beta: complex
    pure_fidelity: float
    twirled_hs_distance: float
    relative_state_overlap: float
    n1_max: int
    n2_max: int
    condition_ratio: float
    exact_mass: float
    product_mass: float
    lo1: int
    lo2: int


def _normal(x: complex) -> complex:
    """x, or x 2^64 where |x| is subnormal: the same phase, with a magnitude
    that numpy can divide by (it multiplies by 1/|x|, which overflows there)."""
    return x * 2.0**64 if abs(x) < np.finfo(float).tiny else x


def relative_target(alpha: complex, beta: complex) -> complex:
    """WH amplitude z = |alpha| e^{i phi_r} carried by every block of the
    product construction (phi_r = arg(alpha) - arg(beta)).  A mean photon
    number |alpha|^2 + |beta|^2 of 2^53 or more raises SizeLimitError
    before any square is formed in numpy, where it could overflow.  A
    non-finite amplitude or beta = 0 raises ValueError."""
    _check_modes(alpha, beta)
    mag = math.hypot(abs(alpha), abs(beta))
    check_exact(mag * mag, "a mean photon number")
    beta = _normal(beta)
    return complex(alpha * np.conj(beta) / abs(beta))


def _fsum(values: np.ndarray) -> float:
    """The correctly rounded sum of a float array (math.fsum reads a list
    faster than an array)."""
    return math.fsum(values.tolist())


def _by_sector(values: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """A per-sector vector read at the sector label of each entry of the tile
    of the slices ``rows`` and ``cols`` (start and stop set): the strided
    view of the contiguous ``values`` whose entry (i, j) is
    values[rows.start + cols.start + i + j]."""
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    step = values.itemsize
    return np.ndarray(shape, values.dtype, values, (rows.start + cols.start) * step, (step, step))


def _sector_sums(shape, tile_values) -> list:
    """Sums over the entries of each sector of the arrays that
    ``tile_values(rows, cols)`` gives for the tile of the slices ``rows``
    and ``cols``, one sum per array; entry (i, j) lies in sector i + j, the
    total photon number less lo1 + lo2 on the window from (lo1, lo2).  The
    window is walked in tiles of at most CHUNK_ENTRIES entries, whole rows
    where a row fits, else a run of one row, so no caller makes a whole
    long row.  Each tile is one bincount per array over its sector labels
    in row-major order, added to the sums of the tiles before it."""
    rows, cols = shape
    width = max(1, min(cols, CHUNK_ENTRIES))
    height = max(1, CHUNK_ENTRIES // width)
    # the labels of a full tile; their prefix labels a shorter last tile
    labels = np.add.outer(np.arange(height), np.arange(width)).ravel()
    sums = []
    for top in range(0, rows, height):
        for left in range(0, cols, width):
            tile = slice(top, min(top + height, rows)), slice(left, min(left + width, cols))
            values = [value.ravel() for value in tile_values(*tile)]
            sums = sums or [np.zeros(rows + cols - 1) for _ in values]
            count = values[0].size
            size = labels[count - 1] + 1  # the tile's largest label, plus one
            for total, value in zip(sums, values):
                total[top + left : top + left + size] += np.bincount(labels[:count], value, size)
    return sums


def _wh_profile(z: complex, lo1: int, n1_max: int, n_lo: int, n_top: int):
    """WH amplitudes w_k of amplitude z for k = lo1..n1_max and the factors
    W_N^{-1/2}, W_N = sum_{k <= N} |w_k|^2, that renormalize them over block
    N = n_lo..n_top.  Only the window of spin._wh_window is computed: every
    amplitude outside it underflows to 0.  Where W_N underflows to 0 (|z|
    above about 27, lowest N) the factor is 0: a block whose Poisson weight
    has mean >= |z|^2 holds less than W_N there.
    """
    k = _wh_window(z, n_top)
    wh = _coherent_window(z, k[0], k[-1])
    rows = np.zeros(n1_max - lo1 + 1, dtype=complex)
    inside = (k >= lo1) & (k <= n1_max)
    rows[k[inside] - lo1] = wh[inside]
    w_cum = np.concatenate(([0.0], np.cumsum(np.abs(wh) ** 2)))
    w_cum = w_cum[np.clip(np.arange(n_lo, n_top + 1) - k[0] + 1, 0, k.size)]
    inv_norm = np.divide(1.0, np.sqrt(w_cum), out=np.zeros_like(w_cum), where=w_cum > 0)
    return rows, inv_norm


def _product_profiles(
    nhat: float, collective_phase: complex, z: complex, n1_max: int, n2_max: int, lo1=0, lo2=0
):
    """The unnormalized product-construction window, rows lo1..n1_max x
    columns lo2..n2_max, as 1-D profiles (s, wh, inv_norm, p_b): entry
    (i, j) is s[i + j] * wh[i], and p_b holds the squared mass of each
    sector.

    Block N carries the Poissonian amplitude
    p_N = e^{-nhat/2} (sqrt(nhat) * collective_phase)^N / sqrt(N!) times the
    WH profile w_k of amplitude z renormalized over k = 0..N, so
    s_N = p_N W_N^{-1/2} (inv_norm holds W_N^{-1/2}) and sector N holds
    |s_N|^2 times the |w_k|^2 of its rows.
    """
    n_lo, n_top = lo1 + lo2, n1_max + n2_max
    poisson = _coherent_window(math.sqrt(nhat) * collective_phase, n_lo, n_top)
    wh, inv_norm = _wh_profile(z, lo1, n1_max, n_lo, n_top)
    s = poisson * inv_norm
    return s, wh, inv_norm, _abs2(s) * np.convolve(_abs2(wh), np.ones(n2_max - lo2 + 1))


def _product_grid(
    nhat: float, collective_phase: complex, z: complex, n1_max: int, n2_max: int, lo1=0, lo2=0
):
    """Unnormalized product-construction grid over the window rows
    lo1..n1_max x columns lo2..n2_max (_product_profiles), plus its retained
    squared mass."""
    check_entries(n1_max - lo1 + 1, n2_max - lo2 + 1)
    s, wh, _, mass = _product_profiles(nhat, collective_phase, z, n1_max, n2_max, lo1, lo2)
    return _by_sector(s, slice(0, wh.size), slice(0, n2_max - lo2 + 1)) * wh[:, None], _fsum(mass)


def _normalized(grid: np.ndarray, mass: float) -> np.ndarray:
    """grid / sqrt(mass); a mass below the smallest normal float, which the
    cutoffs leave when they miss the state's support, raises
    InsufficientCutoffError instead of a NaN grid."""
    if mass < np.finfo(float).tiny:
        cutoffs = tuple(size - 1 for size in grid.shape)
        raise InsufficientCutoffError(f"cutoffs {cutoffs} retain only {mass!r} of the product state")
    return grid / math.sqrt(mass)


def approx_product(alpha: complex, beta: complex, n1_max=None, n2_max=None) -> np.ndarray:
    """Normalized product approximation of |alpha> (x) |beta>.

    Every block's difference profile is the truncated WH coherent state of
    amplitude relative_target(alpha, beta), independent of N; the state is
    renormalized globally after truncation, not block by block.  A cutoff
    of None is default_cutoff of its mode's magnitude; any other must be an
    integer >= 0 (``check_count``), as in factorization_fidelity.
    """
    z = relative_target(alpha, beta)
    n1_max = cutoff_or_default(n1_max, abs(alpha), "n1_max")
    n2_max = cutoff_or_default(n2_max, abs(beta), "n2_max")
    nhat, phase = mean_photon_number(alpha, beta), _normal(beta)
    return _normalized(*_product_grid(nhat, phase / abs(phase), z, n1_max, n2_max))


def approx_product_balanced(alpha: complex, phi_r: float, n_max=None) -> np.ndarray:
    """Product construction in the balanced regime |beta| = |alpha|, where
    the block profile target is z = sqrt(2) |alpha| e^{i phi_r} (the
    contracted amplitude of the typical block, N ~ 2|alpha|^2).

    The implied second mode has magnitude |alpha| and argument
    arg(alpha) - phi_r.  At unit mode ratio the true difference profiles
    drift like sqrt(N) across the Poissonian spread instead of settling on
    one fixed profile, so this construction compares poorly against the
    exact state and keeps degrading as |alpha| grows; it exists as the
    counterpoint to the asymmetric route.

    A non-finite alpha or phi_r raises ValueError, and a mean photon number
    2|alpha|^2 of 2^53 or more SizeLimitError, before any numpy arithmetic.
    """
    mag = float(abs(check_finite(alpha, "alpha")))
    check_finite(phi_r, "phi_r")
    nhat = 2.0 * mag * mag
    check_exact(nhat, "a mean photon number")
    n_max = cutoff_or_default(n_max, mag, "n_max")
    z = math.sqrt(2) * mag * np.exp(1j * phi_r)
    collective_phase = np.exp(1j * (np.angle(alpha) - phi_r))
    return _normalized(*_product_grid(nhat, collective_phase, z, n_max, n_max))


def _uniform_twirled_hs(shape, mass, real, imag, pair, mass_a=1.0, mass_b=1.0) -> float:
    """The HS distance of the uniform twirls of x / sqrt(mass_a) and
    y / sqrt(mass_b) on a window of the given shape, from the sector sums
    mass = ||x||^2 and real + i imag = <x, y> of the unnormalized x and y
    and ``pair(rows, cols)``, their entries (x, y) on a tile.  y is turned
    towards x sector by sector and scaled to x's norm, by a factor
    r t = 1 + (r t - 1) with r = sqrt(mass_a / mass_b) and t the phase,
    then differenced entry by entry in one walk of the window, so no entry
    is rounded by a normalization; ``fock._hs_from_sums`` closes at lag 0."""
    chi = np.ones(1)  # the uniform prior's table: chi(0) = 1, 0 at every other lag
    ratio = math.sqrt(mass_a / mass_b)
    ratio_less_one = (mass_a - mass_b) / (mass_b * (ratio + 1.0))
    turn = ratio * _alignment(real, imag, chi, chi) + ratio_less_one

    def difference(rows, cols):
        x, y = pair(rows, cols)
        d = y - x
        d += _by_sector(turn, rows, cols) * y
        return (*_conj_products(x, d), _abs2(d))

    real, imag, resid = _sector_sums(shape, difference)
    scale = 1.0 / mass_a  # x^* d times the reciprocal, as numpy divides a complex array
    return _hs_from_sums(mass / mass_a, real * scale, imag * scale, resid / mass_a, chi, chi)


def twirled_hs_distance(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Hilbert-Schmidt distance between the uniform phase twirls of two
    normalized two-mode pure states.

    The uniform twirl block-diagonalizes both, so the squared distance
    splits into rank-one pieces per total photon number N.  With x, y the
    entries of block N in the two states and y turned to make <x, y> real
    and positive, d = y - x is summed entry by entry, and the piece
    ||x x^dag - y y^dag||^2 is read from the sector sums ||x||^2, <x, d> and
    ||d||^2 (``fock._hs_from_sums``), so nearly identical blocks do not
    cancel catastrophically and identical ones give exactly 0.  Only the
    relative sector label matters, so the grids may be any common window of
    the (n1, n2) plane.  A non-finite entry in either grid, or a grid not
    normalized to 1e-10, raises ValueError.
    """
    a, b = _grid(state_a), _grid(state_b)
    check_match("grid shape", a.shape, b.shape)
    check_normalized(a, "state_a", 1e-10)
    check_normalized(b, "state_b", 1e-10)

    def pair(rows, cols):
        return a[rows, cols], b[rows, cols]

    def sums(rows, cols):
        x, y = pair(rows, cols)
        return _abs2(x), *_conj_products(x, y)

    return _uniform_twirled_hs(a.shape, *_sector_sums(a.shape, sums), pair)


def _weighted_overlap(real, imag, inv_norm: np.ndarray, mass: float) -> float:
    """relative_state_overlap from the real and imaginary parts of the
    sector sums rel_N = sum_k x_k w_k^* of a state of squared norm ``mass``
    and the factors W_N^{-1/2} of _wh_profile: sum_N |rel_N|^2 / W_N over
    the mass, clamped into [0, 1]."""
    if mass == 0.0:
        raise ValueError("state has no populated blocks")
    return _clamp_unit(float(np.sum((real * inv_norm) ** 2 + (imag * inv_norm) ** 2)) / mass)


def relative_state_overlap(state: np.ndarray, z: complex) -> float:
    """Poisson-weighted mean over populated blocks of
    |<v_N | embed_wh(z, N)>|^2: how uniformly the difference profiles match
    one fixed WH coherent state.

    With x the grid entries of block N and w_k the WH amplitudes, the
    weighted term is |sum_k x_k^* w_k|^2 / W_N, W_N = sum_{k <= N} |w_k|^2.
    """
    state = _grid(state)
    rows, cols = state.shape
    wh, inv_norm = _wh_profile(z, 0, rows - 1, 0, rows + cols - 2)

    def sums(rows, cols):
        rel = state[rows, cols] * wh[rows, None].conj()
        return rel.real, rel.imag

    return _weighted_overlap(*_sector_sums(state.shape, sums), inv_norm, float(np.sum(_abs2(state))))


def _retained_mass(mass: float, n1: int, n2: int, state: str) -> float:
    """``mass``, the squared norm that the cutoffs (n1, n2) retain of
    ``state``; a mass below MIN_RETAINED_MASS raises InsufficientCutoffError."""
    if mass < MIN_RETAINED_MASS:
        raise InsufficientCutoffError(f"cutoffs ({n1}, {n2}) retain only {mass!r} of the {state}")
    return mass


def factorization_fidelity(alpha: complex, beta: complex, n1_max=None, n2_max=None) -> FactorizationReport:
    """Compare the exact two-mode coherent state with its product
    approximation: pure overlap, uniformly twirled HS distance, and the
    block-profile overlap of the exact state with the WH target.

    Every window entry is a product of 1-D profiles: u_i v_j for the exact
    state (the Poisson windows of the two modes) and s_{i+j} w_i for the
    product state (_product_profiles).  So every sector sum but those of
    the HS difference is a convolution of profiles, the normalization is
    applied to the sector sums, and only the difference walks the window,
    generating its entries a tile at a time.
    """
    z = relative_target(alpha, beta)
    n1_max = cutoff_or_default(n1_max, abs(alpha), "n1_max")
    n2_max = cutoff_or_default(n2_max, abs(beta), "n2_max")
    # Each axis starts at its window edge, 10 standard deviations below the
    # mean.  The rows of both windows spread like the first mode, |alpha|.
    # The columns n2 = N - n1 of the product window spread wider than the
    # exact state's |beta|: N and n1 fluctuate independently there, so the
    # variance is |beta|^2 + 2 |alpha|^2.
    def start(mean, variance, n_max):
        return _poisson_window(mean, 10.0 * math.sqrt(variance) + 10.0, math.inf, n_max)[0]

    alpha_sq, beta_sq = abs(alpha) ** 2, abs(beta) ** 2
    lo1 = start(alpha_sq, alpha_sq, n1_max)
    lo2 = start(beta_sq, beta_sq + 2.0 * alpha_sq, n2_max)
    nhat = mean_photon_number(alpha, beta)

    # the HS difference walks this window: it refuses |beta| = 19064 at |alpha| = 1
    check_entries(n1_max - lo1 + 1, n2_max - lo2 + 1)
    u = _coherent_window(alpha, lo1, n1_max)
    v = _coherent_window(beta, lo2, n2_max)
    pa = np.convolve(_abs2(u), _abs2(v))
    exact_mass = _retained_mass(_fsum(pa), n1_max, n2_max, "exact state")
    phase = _normal(beta)
    s, wh, inv_norm, pb = _product_profiles(nhat, phase / abs(phase), z, n1_max, n2_max, lo1, lo2)
    product_mass = _retained_mass(_fsum(pb), n1_max, n2_max, "product state")
    # rel_N = sum of u_i v_j w_i^* over sector N; the cross sum <x, y> there
    # is rel_N^* s_N, held as its real and imaginary parts
    rel = np.convolve(u * wh.conj(), v)
    cross = _conj_products(rel, s)
    overlap2 = sum(_fsum(part) ** 2 for part in cross)

    def pair(rows, cols):
        return u[rows, None] * v[cols], _by_sector(s, rows, cols) * wh[rows, None]

    return FactorizationReport(
        alpha=complex(alpha),
        beta=complex(beta),
        pure_fidelity=_clamp_unit(overlap2 / (exact_mass * product_mass)),
        twirled_hs_distance=_uniform_twirled_hs(
            (u.size, v.size), pa, *cross, pair, exact_mass, product_mass
        ),
        relative_state_overlap=_weighted_overlap(rel.real, rel.imag, inv_norm, exact_mass),
        n1_max=n1_max,
        n2_max=n2_max,
        # Python floats: a subnormal alpha_sq gives inf, not a numpy overflow warning
        condition_ratio=float(nhat) / float(alpha_sq) if alpha_sq > 0 else math.inf,
        exact_mass=exact_mass,
        product_mass=product_mass,
        lo1=lo1,
        lo2=lo2,
    )


def sweep_fidelity(alpha: complex, beta_magnitudes, phi_beta: float = 0.0, n1_max=None, n2_max=None):
    """One FactorizationReport per |beta|, cutoffs auto-scaled per magnitude
    unless overridden.  Reports come back in input order."""
    beta_magnitudes = list(beta_magnitudes)
    if not beta_magnitudes:
        raise ValueError("beta magnitude list must be nonempty")
    reports = []
    for mag in beta_magnitudes:
        beta = mag * np.exp(1j * phi_beta)
        reports.append(factorization_fidelity(alpha, beta, n1_max=n1_max, n2_max=n2_max))
    return reports
