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

from .blocks import check_grid_size, default_cutoff, mean_photon_number, total_number, two_mode_coherent
from .fock import _clamp_unit, coherent_vector

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
    approximation at one parameter point."""

    alpha: complex
    beta: complex
    pure_fidelity: float
    twirled_hs_distance: float
    relative_state_overlap: float
    n1_max: int
    n2_max: int
    condition_ratio: float


def relative_target(alpha: complex, beta: complex) -> complex:
    """WH amplitude z = |alpha| e^{i phi_r} carried by every block of the
    product construction (phi_r = arg(alpha) - arg(beta))."""
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError(f"mode amplitudes must be finite, got alpha={alpha}, beta={beta}")
    if beta == 0:
        raise ValueError("relative phase is undefined for beta = 0")
    return complex(alpha * np.conj(beta) / abs(beta))


def _sector_sums(big_n: np.ndarray, values: np.ndarray, n_sectors: int) -> np.ndarray:
    """Sum of ``values`` over the entries of each total-photon-number sector:
    one reduction over the charge label N instead of a block-by-block loop."""
    labels = big_n.ravel()
    values = values.ravel()
    if np.iscomplexobj(values):
        return np.bincount(labels, values.real, n_sectors) + 1j * np.bincount(
            labels, values.imag, n_sectors
        )
    return np.bincount(labels, values, n_sectors)


def _wh_profile(z: complex, n_top: int):
    """WH amplitudes w_k of amplitude z for k = 0..n_top and the factors
    W_N^{-1/2}, W_N = sum_{k <= N} |w_k|^2, that renormalize them over block N.
    Where W_N underflows to 0 (|z| above about 27, lowest N) the factor is 0:
    a block whose Poisson weight has mean >= |z|^2 holds less than W_N there.
    """
    wh = coherent_vector(z, n_top)
    w_cum = np.cumsum(np.abs(wh) ** 2)
    inv_norm = np.divide(1.0, np.sqrt(w_cum), out=np.zeros_like(w_cum), where=w_cum > 0)
    return wh, inv_norm


def _product_grid(nhat: float, collective_phase: complex, z: complex, n1_max: int, n2_max: int):
    """Unnormalized product-construction grid plus its retained squared mass.

    Block N carries the Poissonian amplitude
    p_N = e^{-nhat/2} (sqrt(nhat) * collective_phase)^N / sqrt(N!) times the
    WH profile of amplitude z renormalized over k = 0..N; entry (n1, n2) of
    the grid is p_N w_{n1} / sqrt(W_N) with N = n1 + n2.
    """
    check_grid_size(n1_max, n2_max)
    n_top = n1_max + n2_max
    poisson = coherent_vector(math.sqrt(nhat) * collective_phase, n_top)
    wh, inv_norm = _wh_profile(z, n_top)
    big_n = total_number((n1_max + 1, n2_max + 1))
    grid = (poisson * inv_norm)[big_n] * wh[: n1_max + 1, None]
    return grid, float(np.vdot(grid, grid).real)


def approx_product(alpha: complex, beta: complex, n1_max=None, n2_max=None) -> np.ndarray:
    """Normalized product approximation of |alpha> (x) |beta>.

    Every block's difference profile is the truncated WH coherent state of
    amplitude relative_target(alpha, beta), independent of N; the state is
    renormalized globally after truncation, not block by block.
    """
    z = relative_target(alpha, beta)
    n1_max = default_cutoff(abs(alpha)) if n1_max is None else n1_max
    n2_max = default_cutoff(abs(beta)) if n2_max is None else n2_max
    nhat = mean_photon_number(alpha, beta)
    grid, mass = _product_grid(nhat, beta / abs(beta), z, n1_max, n2_max)
    return grid / math.sqrt(mass)


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
    """
    mag = abs(alpha)
    n_max = default_cutoff(mag) if n_max is None else n_max
    z = math.sqrt(2) * mag * np.exp(1j * phi_r)
    collective_phase = np.exp(1j * (np.angle(alpha) - phi_r))
    grid, mass = _product_grid(2.0 * mag * mag, collective_phase, z, n_max, n_max)
    return grid / math.sqrt(mass)


def twirled_hs_distance(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Hilbert-Schmidt distance between the uniform phase twirls of two
    normalized two-mode pure states.

    The uniform twirl block-diagonalizes both, so the squared distance
    splits into rank-one pieces per total photon number N.  Each piece is
    evaluated in the 2-D span of the unit block vectors v, w via the
    orthogonal residual r = w - g v, g = <v, w>, which keeps nearly
    identical blocks from cancelling catastrophically:
    ||p_a v v^dag - p_b w w^dag||^2 = (p_a - p_b |g|^2)^2
                                      + 2 p_b^2 |g|^2 ||r||^2 + p_b^2 ||r||^4.
    An empty block has v = 0, so g = 0 and ||r||^2 = ||w||^2.
    """
    state_a = np.asarray(state_a, dtype=complex)
    state_b = np.asarray(state_b, dtype=complex)
    if state_a.shape != state_b.shape:
        raise ValueError(f"grid shape mismatch: {state_a.shape} vs {state_b.shape}")
    big_n = total_number(state_a.shape)
    n_sectors = sum(state_a.shape) - 1

    def masses_and_units(state):
        mass = _sector_sums(big_n, np.abs(state) ** 2, n_sectors)
        norm = np.sqrt(mass)[big_n]
        return mass, np.divide(state, norm, out=np.zeros_like(state), where=norm > 0)

    pa, unit_a = masses_and_units(state_a)
    pb, unit_b = masses_and_units(state_b)
    gram = _sector_sums(big_n, unit_a.conj() * unit_b, n_sectors)
    residual2 = _sector_sums(big_n, np.abs(unit_b - gram[big_n] * unit_a) ** 2, n_sectors)
    overlap2 = np.abs(gram) ** 2
    hs2 = np.sum(
        (pa - pb * overlap2) ** 2
        + 2.0 * pb * pb * overlap2 * residual2
        + pb * pb * residual2 * residual2
    )
    return math.sqrt(max(float(hs2), 0.0))


def relative_state_overlap(state: np.ndarray, z: complex) -> float:
    """Poisson-weighted mean over populated blocks of
    |<v_N | embed_wh(z, N)>|^2: how uniformly the difference profiles match
    one fixed WH coherent state.

    With x the grid entries of block N and w_k the WH amplitudes, the
    weighted term is |sum_k x_k^* w_k|^2 / W_N, W_N = sum_{k <= N} |w_k|^2.
    """
    state = np.asarray(state, dtype=complex)
    big_n = total_number(state.shape)
    mass = float(np.vdot(state, state).real)
    if mass == 0.0:
        raise ValueError("state has no populated blocks")
    n_top = sum(state.shape) - 2
    wh, inv_norm = _wh_profile(z, n_top)
    cross = _sector_sums(big_n, state.conj() * wh[: state.shape[0], None], n_top + 1)
    return _clamp_unit(float(np.sum(np.abs(cross * inv_norm) ** 2)) / mass)


def factorization_fidelity(alpha: complex, beta: complex, n1_max=None, n2_max=None) -> FactorizationReport:
    """Compare the exact two-mode coherent state with its product
    approximation: pure overlap, uniformly twirled HS distance, and the
    block-profile overlap of the exact state with the WH target."""
    z = relative_target(alpha, beta)
    n1_max = default_cutoff(abs(alpha)) if n1_max is None else n1_max
    n2_max = default_cutoff(abs(beta)) if n2_max is None else n2_max
    nhat = mean_photon_number(alpha, beta)

    exact = two_mode_coherent(alpha, beta, n1_max, n2_max)
    exact_mass = float(np.vdot(exact, exact).real)
    if exact_mass < MIN_RETAINED_MASS:
        raise InsufficientCutoffError(
            f"cutoffs ({n1_max}, {n2_max}) retain only {exact_mass!r} of the exact state"
        )
    approx_grid, approx_mass = _product_grid(nhat, beta / abs(beta), z, n1_max, n2_max)
    if approx_mass < MIN_RETAINED_MASS:
        raise InsufficientCutoffError(
            f"cutoffs ({n1_max}, {n2_max}) retain only {approx_mass!r} of the product state"
        )
    exact = exact / math.sqrt(exact_mass)
    approx = approx_grid / math.sqrt(approx_mass)

    fidelity = _clamp_unit(float(abs(np.vdot(exact, approx)) ** 2))
    alpha_sq = abs(alpha) ** 2
    return FactorizationReport(
        alpha=complex(alpha),
        beta=complex(beta),
        pure_fidelity=fidelity,
        twirled_hs_distance=twirled_hs_distance(exact, approx),
        relative_state_overlap=relative_state_overlap(exact, z),
        n1_max=n1_max,
        n2_max=n2_max,
        condition_ratio=nhat / alpha_sq if alpha_sq > 0 else math.inf,
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
