"""Phase twirling: equivalence-class density matrices under a prior on an
unobservable overall phase, and the observables that cannot see the prior.

A prior is either the exact ``UNIFORM`` marker or a discrete ``PriorGrid``
of (angle, weight) points.  On a state written over a charge label q (photon
number n for one mode, total photon number N in the block basis) the twirl
is a Schur product with the prior's characteristic function,

    rho_ij = psi_i psi_j^* chi(q_i - q_j),   chi(m) = sum_g w_g e^{-i phi_g m},

and ``UNIFORM`` is chi(m) = delta(m), which zeroes every coherence between
different charges exactly.  chi(0) is stored as exactly 1, so every
same-charge entry is the same float under every prior.  A twirled state is
held as (psi, q, chi); its dense matrix is built only when read.
Observables are stored by their nonzero entries; one that commutes with the
charge reads only same-charge entries, so its expectation is the same under
every prior, bit for bit.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .blocks import block_dim, block_index, block_offset

__all__ = [
    "Observable",
    "PhaseTwirl",
    "PriorGrid",
    "UNIFORM",
    "UniformPrior",
    "coherence_witness",
    "expectation",
    "grid_prior_from_csv",
    "parse_prior",
    "point_prior",
    "random_commutant_observable",
    "read_prior_rows",
    "read_prior_spec",
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
        _check_prior_weights(weights, "prior", angles.size)
        if angles[0] < 0 or angles[-1] >= TWO_PI:
            raise ValueError("prior angles must lie in [0, 2pi)")
        if angles.size > 1 and np.any(np.diff(angles) <= 0):
            raise ValueError("prior angles must be strictly increasing")


def _check_prior_weights(weights, label: str, size: int) -> np.ndarray:
    """Weights of a phase or shift prior: ``size`` of them, finite,
    nonnegative, summing to 1 within 1e-12.  ``label`` names the prior."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (size,):
        raise ValueError(f"{label} must have {size} weights, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"{label} weights must be finite")
    if np.any(weights < 0):
        raise ValueError(f"{label} weights must be nonnegative")
    if not abs(weights.sum() - 1.0) <= 1e-12:
        raise ValueError(f"{label} weights must sum to 1, got {weights.sum()!r}")
    return weights


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


def von_mises_prior(kappa: float, n_points: int = GRID_RESOLUTION) -> PriorGrid:
    """Concentrated prior with weights proportional to exp(kappa cos(phi))
    on n_points equally spaced angles.  The exponent is shifted by its
    maximum, so no finite kappa can overflow or underflow every weight.
    The shift is taken in halves, which cannot overflow, and floored where
    e^{2 x} is 0 anyway; elsewhere 2 x is the shifted exponent exactly."""
    if not np.isfinite(kappa):
        raise ValueError(f"von Mises kappa must be finite, got {kappa!r}")
    angles = TWO_PI * np.arange(n_points) / n_points
    half = 0.5 * kappa * np.cos(angles)
    weights = np.exp(2.0 * np.maximum(half - half.max(), -1000.0))
    return PriorGrid(angles=angles, weights=weights / weights.sum())


def read_prior_rows(path, value_name: str) -> list:
    """(value, weight) float pairs from the rows ``<value>,<weight>`` of a
    prior file; blank lines and lines starting with ``#`` are skipped."""
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"prior file row must be '{value_name},weight', got {line!r}")
            rows.append((float(parts[0]), float(parts[1])))
    return rows


def grid_prior_from_csv(path) -> PriorGrid:
    """Load rows ``angle,weight`` (radians in [0, 2pi))."""
    rows = read_prior_rows(path, "angle")
    return PriorGrid(angles=np.array([a for a, _ in rows]), weights=np.array([w for _, w in rows]))


def read_prior_spec(spec: str, value_name: str, *, uniform, point, two_point, von_mises, grid):
    """Read the shared prior syntax, ``uniform``, ``point:<x>``,
    ``twopoint:<x1>,<x2>``, ``vonmises:<kappa>`` or ``grid:<path>``, and
    build the prior with the group's constructors: ``uniform()``,
    ``point(x)``, ``two_point(x1, x2)``, ``von_mises(kappa)``, ``grid(path)``.
    ``value_name`` ("angle" or "shift") names x in the messages."""
    name, _, arg = spec.partition(":")
    if name == "uniform":
        if arg:
            raise ValueError("uniform prior takes no parameter")
        return uniform()
    if name == "point":
        return point(float(arg))
    if name == "twopoint":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError(f"twopoint prior needs two {value_name}s, got {arg!r}")
        return two_point(float(parts[0]), float(parts[1]))
    if name == "vonmises":
        return von_mises(float(arg))
    if name == "grid":
        return grid(arg)
    raise ValueError(f"unknown prior spec {spec!r}")


def parse_prior(spec: str):
    """Phase prior from the shared prior syntax; numeric parameters are
    angles in radians."""
    return read_prior_spec(
        spec,
        "angle",
        uniform=lambda: UNIFORM,
        point=point_prior,
        two_point=two_point_prior,
        von_mises=von_mises_prior,
        grid=grid_prior_from_csv,
    )


@dataclass(frozen=True)
class PhaseTwirl:
    """psi psi^dag (Schur) chi(q_i - q_j), held as the ket psi, its charge
    labels q (nonnegative integers) and chi(m) for |m| <= max q, at
    ``chi[m + max q]``.

    ``matrix`` is the dense density matrix in the index convention
    ``basis``, built on first read and kept; ``entries`` and
    ``trace_square`` read the factors.
    """

    psi: np.ndarray
    labels: np.ndarray
    chi: np.ndarray
    basis: str

    @property
    def shape(self) -> tuple:
        return (self.psi.size, self.psi.size)

    def entries(self, rows, cols) -> np.ndarray:
        """rho[rows[i], cols[i]] for each i, as ``matrix`` holds them."""
        psi, labels, span = self.psi, self.labels, self.chi.size // 2
        return (psi[rows] * psi[cols].conj()) * self.chi[labels[rows] - labels[cols] + span]

    def trace_square(self) -> float:
        """Tr(rho^2) = sum_m |chi(m)|^2 sum_q p_q p_{q+m}, with p_q the mass
        of psi at charge q."""
        mass = np.bincount(self.labels, weights=np.abs(self.psi) ** 2)
        return float(np.dot(np.abs(self.chi) ** 2, np.correlate(mass, mass, "full")))

    @cached_property
    def matrix(self) -> np.ndarray:
        """One row band per run of equal charge q: psi_i psi^dag, then times
        chi(q - q_j), so no full-size temporary is made."""
        psi, labels, span = self.psi, self.labels, self.chi.size // 2
        # 2-D operands, as np.outer has: numpy takes another path, which rounds
        # complex products differently, for a broadcast 1-element 1-D operand
        conj = psi.conj()[None, :]
        out = np.empty(self.shape, dtype=complex)
        edges = [0, *(np.flatnonzero(np.diff(labels)) + 1), psi.size]
        for lo, hi in zip(edges[:-1], edges[1:]):
            band = out[lo:hi]
            np.multiply(psi[lo:hi, None], conj, out=band)
            band *= self.chi[labels[lo] - labels[None, :] + span]
        return out


def _phase_twirl(psi: np.ndarray, labels: np.ndarray, prior, basis) -> PhaseTwirl:
    """The twirl of psi over charge labels q, with chi(m) = sum_g w_g
    e^{-i phi_g m} tabulated once for |m| <= max q."""
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("input state must be normalized to 1e-10")
    span = labels.max()
    m = np.arange(-span, span + 1)
    if isinstance(prior, UniformPrior):
        chi = (m == 0).astype(complex)
    else:
        chi = np.exp(-1j * np.outer(m, prior.angles)) @ prior.weights
    chi[span] = 1.0  # the total weight, 1 to 1e-12 (_check_prior_weights)
    return PhaseTwirl(psi, labels, chi, basis)


def _twirl(psi: np.ndarray, labels: np.ndarray, prior) -> np.ndarray:
    """The dense matrix psi psi^dag (Schur) chi(q_i - q_j)."""
    return _phase_twirl(psi, labels, prior, None).matrix


def twirl_single_mode(psi: np.ndarray, prior) -> PhaseTwirl:
    """Average U(phi)|psi><psi|U(phi)^dag over the prior, where
    U(phi)|n> = e^{-i phi n}|n>: the charge label is the photon number n."""
    psi = np.asarray(psi, dtype=complex)
    return _phase_twirl(psi, np.arange(psi.size), prior, "fock")


def twirl_two_mode(state: np.ndarray, prior) -> PhaseTwirl:
    """Two-mode twirl in the block basis: the phase multiplies both modes,
    acting as e^{-i phi N} on each total-photon-number block, so the charge
    label is N.  Within-block structure is untouched by any prior."""
    state = np.asarray(state, dtype=complex)
    index = block_index(state.shape)
    n_top = sum(state.shape) - 2
    psi = np.zeros(block_dim(n_top), dtype=complex)
    psi[index] = state
    labels = np.repeat(np.arange(n_top + 1), np.arange(1, n_top + 2))
    return _phase_twirl(psi, labels, prior, "block")


@dataclass(frozen=True)
class Observable:
    """Hermitian operator on a ``dim``-dimensional space, stored by its
    nonzero entries: ``values[i]`` sits at row ``index[0][i]``, column
    ``index[1][i]`` (the ``(rows, cols)`` form of ``np.nonzero``), in the
    index convention ``basis``."""

    index: tuple
    values: np.ndarray
    dim: int
    basis: str


def random_commutant_observable(n_max: int, seed: int, basis: str = "fock") -> Observable:
    """Seeded Hermitian observable commuting with total photon number.

    ``"fock"`` gives a random real diagonal over n = 0..n_max; ``"block"``
    gives independent random Hermitian blocks over k = 0..N for each
    N <= n_max, stored as the (N+1)^2 entries of each block in turn.  Zero
    coherence between number sectors by construction.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rng = default_rng(seed)
    if basis == "fock":
        diagonal = rng.standard_normal(n_max + 1)
        return Observable(np.diag_indices(n_max + 1), diagonal, n_max + 1, basis)
    if basis == "block":
        positions, values = [], []
        for size in range(1, n_max + 2):
            raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            positions.append(block_offset(size - 1) + np.indices((size, size)).reshape(2, -1))
            values.append(((raw + raw.conj().T) / 2.0).ravel())
        rows, cols = np.concatenate(positions, axis=1)
        return Observable((rows, cols), np.concatenate(values), block_dim(n_max), basis)
    raise ValueError(f"unknown observable basis {basis!r}")


def coherence_witness(n: int, n_max: int) -> Observable:
    """|n><n+1| + |n+1><n| in the Fock basis: a fixed observable that does
    not commute with photon number, so its expectation depends on the prior."""
    if not 0 <= n < n_max:
        raise ValueError(f"need 0 <= n < n_max, got n={n}, n_max={n_max}")
    return Observable((np.array([n, n + 1]), np.array([n + 1, n])), np.ones(2), n_max + 1, "fock")


def expectation(obs: Observable, rho) -> float:
    """Tr(O rho) = sum_ij O_ij rho_ji over the stored entries of O, checked
    real to 1e-10.  ``rho`` is a ``DensityMatrix`` or a ``PhaseTwirl``."""
    if obs.basis != rho.basis:
        raise ValueError(f"basis mismatch: observable {obs.basis!r} vs state {rho.basis!r}")
    if (obs.dim, obs.dim) != rho.shape:
        raise ValueError(f"dimension mismatch: {(obs.dim, obs.dim)} vs {rho.shape}")
    rows, cols = obs.index
    value = complex(np.sum(obs.values * rho.entries(cols, rows)))
    if not abs(value.imag) <= 1e-10:  # NaN fails too
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)
