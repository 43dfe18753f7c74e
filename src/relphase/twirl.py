"""Phase twirling: equivalence-class density matrices under a prior on an
unobservable overall phase, and the observables that cannot see the prior.

A prior is either the exact ``UNIFORM`` marker or a discrete ``PriorGrid``
of (angle, weight) points.  On a state written over a charge label q (photon
number n for one mode, total photon number N in the block basis) the twirl
is a Schur product with the prior's characteristic function,

    rho_ij = psi_i psi_j^* chi(q_i - q_j),   chi(m) = sum_g w_g e^{-i phi_g m},

and ``UNIFORM`` is chi(m) = delta(m), which zeroes every coherence between
different charges exactly.  Observables that commute with the charge give
the same expectation under every prior.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .blocks import block_dim, block_offset, to_blocks
from .fock import DensityMatrix

__all__ = [
    "Observable",
    "PriorGrid",
    "UNIFORM",
    "UniformPrior",
    "coherence_witness",
    "expectation",
    "grid_prior_from_csv",
    "parse_prior",
    "point_prior",
    "random_commutant_observable",
    "twirl_single_mode",
    "twirl_two_mode",
    "two_point_prior",
    "von_mises_prior",
]

TWO_PI = 2.0 * np.pi

# Default resolution for named continuous prior families; doubling it moves
# reported expectations by far less than 1e-9.
GRID_RESOLUTION = 256


class UniformPrior:
    """Marker for the uniform prior: characteristic function delta(m)."""

    def __repr__(self):
        return "UniformPrior()"


UNIFORM = UniformPrior()


@dataclass(frozen=True)
class PriorGrid:
    """Discrete prior on phase angles: strictly increasing angles in
    [0, 2pi) with nonnegative weights summing to 1."""

    angles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "weights", weights)
        if angles.ndim != 1 or angles.shape != weights.shape or angles.size == 0:
            raise ValueError("prior needs matching nonempty angle and weight sequences")
        if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(weights))):
            raise ValueError("prior angles and weights must be finite")
        if np.any(weights < 0):
            raise ValueError("prior weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"prior weights must sum to 1, got {weights.sum()!r}")
        if angles[0] < 0 or angles[-1] >= TWO_PI:
            raise ValueError("prior angles must lie in [0, 2pi)")
        if angles.size > 1 and np.any(np.diff(angles) <= 0):
            raise ValueError("prior angles must be strictly increasing")


def _wrap(phi: float) -> float:
    """phi mod 2pi in [0, 2pi); a tiny negative phi's remainder rounds to 2pi."""
    wrapped = phi % TWO_PI
    return 0.0 if wrapped == TWO_PI else wrapped


def point_prior(phi: float) -> PriorGrid:
    """All weight on a single angle."""
    return PriorGrid(angles=np.array([_wrap(phi)]), weights=np.array([1.0]))


def two_point_prior(phi1: float, phi2: float) -> PriorGrid:
    """Equal weight on two distinct angles."""
    angles = np.sort(np.array([_wrap(phi1), _wrap(phi2)]))
    return PriorGrid(angles=angles, weights=np.array([0.5, 0.5]))


def von_mises_prior(kappa: float, n_points: int = GRID_RESOLUTION, center: float = 0.0) -> PriorGrid:
    """Concentrated prior with weights proportional to exp(kappa cos(phi - center))
    on n_points equally spaced angles.  The exponent is shifted by its
    maximum, so no finite kappa can overflow or underflow every weight."""
    if not np.isfinite(kappa):
        raise ValueError(f"von Mises kappa must be finite, got {kappa!r}")
    angles = TWO_PI * np.arange(n_points) / n_points
    exponent = kappa * np.cos(angles - center)
    weights = np.exp(exponent - exponent.max())
    return PriorGrid(angles=angles, weights=weights / weights.sum())


def grid_prior_from_csv(path) -> PriorGrid:
    """Load CSV rows ``angle,weight`` (radians in [0, 2pi))."""
    angles = []
    weights = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 2:
                raise ValueError(f"prior file row must be 'angle,weight', got {row!r}")
            angles.append(float(row[0]))
            weights.append(float(row[1]))
    return PriorGrid(angles=np.array(angles), weights=np.array(weights))


def parse_prior(spec: str):
    """Parse the shared prior syntax: ``uniform``, ``point:<phi>``,
    ``twopoint:<phi1>,<phi2>``, ``vonmises:<kappa>``, ``grid:<path>``."""
    name, _, arg = spec.partition(":")
    if name == "uniform":
        if arg:
            raise ValueError("uniform prior takes no parameter")
        return UNIFORM
    if name == "point":
        return point_prior(float(arg))
    if name == "twopoint":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError(f"twopoint prior needs two angles, got {arg!r}")
        return two_point_prior(float(parts[0]), float(parts[1]))
    if name == "vonmises":
        return von_mises_prior(float(arg))
    if name == "grid":
        return grid_prior_from_csv(arg)
    raise ValueError(f"unknown prior spec {spec!r}")


def _twirl(psi: np.ndarray, labels: np.ndarray, prior) -> np.ndarray:
    """psi psi^dag (Schur) chi(q_i - q_j) for nonnegative charge labels q,
    with chi(m) = sum_g w_g e^{-i phi_g m} tabulated once for |m| <= max q."""
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("input state must be normalized to 1e-10")
    span = labels.max()
    m = np.arange(-span, span + 1)
    if isinstance(prior, UniformPrior):
        chi = (m == 0).astype(complex)
    else:
        chi = np.exp(-1j * np.outer(m, prior.angles)) @ prior.weights
    return np.outer(psi, psi.conj()) * chi[labels[:, None] - labels[None, :] + span]


def twirl_single_mode(psi: np.ndarray, prior) -> DensityMatrix:
    """Average U(phi)|psi><psi|U(phi)^dag over the prior, where
    U(phi)|n> = e^{-i phi n}|n>: the charge label is the photon number n."""
    psi = np.asarray(psi, dtype=complex)
    return DensityMatrix(_twirl(psi, np.arange(psi.size), prior), basis="fock")


def twirl_two_mode(state: np.ndarray, prior) -> DensityMatrix:
    """Two-mode twirl in the block basis: the phase multiplies both modes,
    acting as e^{-i phi N} on each total-photon-number block, so the charge
    label is N.  Within-block structure is untouched by any prior."""
    blocks = to_blocks(state)
    n_top = blocks.n_max
    labels = np.repeat(np.arange(n_top + 1), np.arange(1, n_top + 2))
    return DensityMatrix(_twirl(blocks.flatten(), labels, prior), basis="block")


@dataclass(frozen=True)
class Observable:
    """Hermitian operator plus the index convention it is written in."""

    matrix: np.ndarray
    basis: str


def random_commutant_observable(n_max: int, seed: int, basis: str = "fock") -> Observable:
    """Seeded Hermitian observable commuting with total photon number.

    ``"fock"`` gives a random real diagonal over n = 0..n_max; ``"block"``
    gives independent random Hermitian blocks over k = 0..N for each
    N <= n_max.  Zero coherence between number sectors by construction.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rng = np.random.default_rng(seed)
    if basis == "fock":
        return Observable(np.diag(rng.standard_normal(n_max + 1)).astype(complex), basis)
    if basis == "block":
        dim = block_dim(n_max)
        matrix = np.zeros((dim, dim), dtype=complex)
        for big_n in range(n_max + 1):
            size = big_n + 1
            raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            lo = block_offset(big_n)
            matrix[lo : lo + size, lo : lo + size] = (raw + raw.conj().T) / 2.0
        return Observable(matrix, basis)
    raise ValueError(f"unknown observable basis {basis!r}")


def coherence_witness(n: int, n_max: int) -> Observable:
    """|n><n+1| + |n+1><n| in the Fock basis: a fixed observable that does
    not commute with photon number, so its expectation depends on the prior."""
    if not 0 <= n < n_max:
        raise ValueError(f"need 0 <= n < n_max, got n={n}, n_max={n_max}")
    matrix = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    matrix[n, n + 1] = 1.0
    matrix[n + 1, n] = 1.0
    return Observable(matrix, "fock")


def expectation(obs: Observable, rho: DensityMatrix) -> float:
    """Tr(O rho), checked real to 1e-10."""
    if obs.basis != rho.basis:
        raise ValueError(f"basis mismatch: observable {obs.basis!r} vs state {rho.basis!r}")
    if obs.matrix.shape != rho.matrix.shape:
        raise ValueError(f"dimension mismatch: {obs.matrix.shape} vs {rho.matrix.shape}")
    value = complex(np.sum(obs.matrix * rho.matrix.T))
    if abs(value.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)
