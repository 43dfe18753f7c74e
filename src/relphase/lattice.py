"""Cyclic-lattice pair register: relative/collective coordinates,
displacement twirls over arbitrary shift priors, and the gates that respect
them.

The lattice dimension d must be odd so that the coordinate change
(x1, x2) <-> (x_r, x_a) = (x1 - x2, x1 + x2) mod d is a bijection (2 is
invertible mod d).  Displacing both registers by X leaves x_r fixed and
moves x_a by 2X.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import DensityMatrix, _alignment, _conj_products, check_count, check_entries, check_finite
from .twirl import TWO_PI, PhaseTwirl, PriorGrid, _check_prior_weights, _phase_twirl
from .twirl import _difference_sums, read_prior_rows, read_prior_spec, von_mises_prior

__all__ = [
    "PairTwirl",
    "QuditPairState",
    "displace",
    "from_relative_basis",
    "momentum_eigenstate",
    "product_pair",
    "reduced_relative",
    "relative_pair",
    "shift_prior",
    "sum_gate",
    "to_relative_basis",
    "twirl_displacement",
    "twirled_relative",
]

PRODUCT = "product"
RELATIVE = "relative"


def _require_odd(d: int) -> int:
    """d as an int, if it is an integer (``check_count``), odd and >= 3,
    and its d x d pair grid is within MAX_ENTRIES."""
    d = check_count(d, "lattice dimension", None)
    if d % 2 == 0 or d < 3:
        raise ValueError(f"lattice dimension must be odd and >= 3, got {d}")
    check_entries(d, d)
    return d


@dataclass(frozen=True)
class QuditPairState:
    """Normalized amplitudes over a d x d cyclic lattice, in either the
    (x1, x2) product view or the (x_r, x_a) relative view."""

    amplitudes: np.ndarray
    view: str = PRODUCT

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
            raise ValueError(f"amplitudes must form a square grid, got shape {amps.shape}")
        _require_odd(amps.shape[0])
        if self.view not in (PRODUCT, RELATIVE):
            raise ValueError(f"unknown view {self.view!r}")
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-12:
            raise ValueError("pair state must be normalized to 1e-12")

    @property
    def d(self) -> int:
        return self.amplitudes.shape[0]


def product_pair(psi1: np.ndarray, psi2: np.ndarray) -> QuditPairState:
    """|psi1> (x) |psi2> over the (x1, x2) registers."""
    return QuditPairState(np.outer(psi1, psi2), view=PRODUCT)


def relative_pair(psi_r: np.ndarray, psi_a: np.ndarray) -> QuditPairState:
    """|psi_r> (x) |psi_a> over the (x_r, x_a) registers."""
    return QuditPairState(np.outer(psi_r, psi_a), view=RELATIVE)


def _pair_labels(d: int) -> tuple:
    """(x1 - x2, x1 + x2) mod d at every point (x1, x2) of the d x d grid:
    the relative coordinates (x_r, x_a) of a product-view point."""
    x1, x2 = np.arange(d)[:, None], np.arange(d)
    x_r, x_a = x1 - x2, x1 + x2
    x_r %= d
    x_a %= d
    return x_r, x_a


def to_relative_basis(state: QuditPairState) -> QuditPairState:
    """Relabel (x1, x2) -> (x_r, x_a) = (x1 - x2, x1 + x2) mod d."""
    if state.view != PRODUCT:
        raise ValueError(f"expected a product-view state, got {state.view!r}")
    out = np.empty_like(state.amplitudes)
    out[_pair_labels(state.d)] = state.amplitudes
    return QuditPairState(out, view=RELATIVE)


def from_relative_basis(state: QuditPairState) -> QuditPairState:
    """Relabel (x_r, x_a) -> (x1, x2) = ((x_a+x_r)/2, (x_a-x_r)/2) mod d."""
    if state.view != RELATIVE:
        raise ValueError(f"expected a relative-view state, got {state.view!r}")
    return QuditPairState(state.amplitudes[_pair_labels(state.d)], view=PRODUCT)


def displace(state: QuditPairState, shift: int) -> QuditPairState:
    """Shift both registers by X: |x1, x2> -> |x1+X, x2+X> mod d.

    In the relative view x_r is untouched and x_a moves by 2X.  X is any
    integer (``check_count``); anything else raises ValueError.
    """
    shift = check_count(shift, "lattice shift", None) % state.d
    if state.view == PRODUCT:
        moved = np.roll(state.amplitudes, (shift, shift), axis=(0, 1))
    else:
        moved = np.roll(state.amplitudes, 2 * shift, axis=1)
    return QuditPairState(moved, view=state.view)


def shift_prior(spec: str, d: int) -> np.ndarray:
    """Shift weights over Z_d from the shared prior syntax (``read_prior_spec``).

    Numeric parameters are lattice shifts, taken as int(X) mod d; weights of
    equal shifts add.  ``vonmises:<kappa>`` weights exp(kappa cos(2 pi X / d))
    and ``grid:<path>`` reads ``shift,weight`` rows.  d is a lattice
    dimension (``_require_odd``).
    """
    d = _require_odd(d)

    def shifts(*pairs) -> np.ndarray:
        weights = np.zeros(d)
        for shift, weight in pairs:
            weights[int(check_finite(shift, "lattice shift")) % d] += weight
        return weights

    return read_prior_spec(
        spec,
        "shift",
        uniform=lambda: np.full(d, 1.0 / d),
        point=lambda x: shifts((x, 1.0)),
        two_point=lambda x1, x2: shifts((x1, 0.5), (x2, 0.5)),
        von_mises=lambda kappa: von_mises_prior(kappa, n_points=d).weights,
        grid=lambda path: shifts(*read_prior_rows(path, "shift")),
    )


def _momentum(amplitudes: np.ndarray) -> np.ndarray:
    """Relative-view amplitudes A[x_r, x_a] in the collective-momentum basis,
    a unitary FFT along x_a, flattened to index x_r * d + p.  The FFT runs
    in extended precision where numpy has it: in double precision its
    rounding moved the total mass, and so the purity, by up to 1.1e-15."""
    wide = np.fft.fft(amplitudes.astype(np.clongdouble), axis=1, norm="ortho")
    return wide.astype(complex).ravel()


@dataclass(frozen=True)
class PairTwirl:
    """sum_X P(X) D(X)|psi><psi|D(X)^dag over the pair lattice, held as the
    relative-view amplitudes A[x_r, x_a] and the shift weights P(X).

    ``matrix`` is the d^2 x d^2 density matrix in the relative basis (flat
    index x_r * d + x_a), built on first read and kept.  ``entries`` sums
    the shifted amplitudes over the prior's support; ``trace_square`` and
    ``overlap`` and ``hs_distance`` read the phase twirl over collective
    momentum.
    """

    amplitudes: np.ndarray
    weights: np.ndarray
    basis = "lattice_pair"  # a class constant, not a field

    @property
    def shape(self) -> tuple:
        return (self.amplitudes.size, self.amplitudes.size)

    @cached_property
    def momentum_twirl(self) -> PhaseTwirl:
        """The same state over collective momentum p: D(X) multiplies the
        amplitude at p by e^{-i (2 pi k / d) p} with k = 2X mod d, so it is
        the phase twirl with labels p and weight P(k (d+1)/2 mod d) on the
        angle 2 pi k / d.  Its flat index is x_r * d + p, so its basis tag
        is ``"lattice_momentum"``, not the pair twirl's."""
        d = self.amplitudes.shape[0]
        k = np.arange(d)
        prior = PriorGrid(TWO_PI * k / d, self.weights[k * ((d + 1) // 2) % d])
        return _phase_twirl(_momentum(self.amplitudes), np.tile(k, d), prior, "lattice_momentum")

    def entries(self, rows, cols) -> np.ndarray:
        """rho[rows[i], cols[i]] = sum_X P(X) k_X[rows[i]] k_X[cols[i]]^*, with
        k_X = D(X)|psi> over the flat relative index, so
        k_X[r * d + a] = A[r, (a - 2X) mod d]: each shifted entry is read
        from A by index arithmetic, so no copy of A is made and the work
        per support point follows the number of entries read."""
        d, flat = self.amplitudes.shape[0], self.amplitudes.ravel()
        (row_r, row_a), (col_r, col_a) = np.divmod(rows, d), np.divmod(cols, d)
        row_r, col_r = row_r * d, col_r * d
        out = np.zeros(np.shape(rows), dtype=complex)
        for shift in np.flatnonzero(self.weights):
            ket_rows = flat[row_r + (row_a - 2 * shift) % d]
            ket_cols = flat[col_r + (col_a - 2 * shift) % d]
            out += self.weights[shift] * (ket_rows * ket_cols.conj())
        return out

    def trace_square(self) -> float:
        return self.momentum_twirl.trace_square()

    def overlap(self, phi: np.ndarray) -> complex:
        """<phi|rho|phi> for a ket phi over the flat relative index."""
        return self.momentum_twirl.overlap(_momentum(np.reshape(phi, self.amplitudes.shape)))

    def _hs_sums(self, other):
        """The arguments of ``fock._hs_from_sums`` for this twirl against
        ``other``, over collective momentum.  The difference is taken of the
        relative-view amplitudes, after one global phase turns other's
        towards these (``fock._alignment``), and then moved to momentum: the
        FFT is linear, so d stays exact where two FFT outputs would
        cancel."""
        x, y = self.amplitudes, other.amplitudes
        mine, chi_b = self.momentum_twirl, other.momentum_twirl.chi
        # one sum over every entry, so its phase is global under any prior
        cross = (np.sum(part, keepdims=True) for part in _conj_products(x, y))
        d = _momentum((y - x) + _alignment(*cross, mine.chi, chi_b) * y)
        return (*_difference_sums(mine.psi, d, mine.labels, x.shape[0]), mine.chi, chi_b)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The d^2 x d^2 density matrix, from the shifted kets: not yet under
        MAX_ENTRIES, because the perfbench tracer still reads it for the
        d = 61 pair twirls of ``way-demo`` (13.8M entries, above the limit);
        the check comes once the tracer reads the factors instead."""
        shifts = np.flatnonzero(self.weights)
        rotated = np.stack([np.roll(self.amplitudes, 2 * int(s), axis=1).ravel() for s in shifts])
        return (rotated.T * self.weights[shifts]) @ rotated.conj()


def twirl_displacement(state: QuditPairState, prior) -> PairTwirl:
    """sum_X P(X) D(X)|psi><psi|D(X)^dag for shift weights P over Z_d.  The
    prior is validated here; no d^2 x d^2 array is built until ``matrix`` is
    read."""
    weights = _check_prior_weights(prior, "shift prior", state.d)
    rel = to_relative_basis(state) if state.view == PRODUCT else state
    return PairTwirl(rel.amplitudes, weights)


def reduced_relative(rho: PairTwirl) -> DensityMatrix:
    """Partial trace over the collective register x_a.

    D(X) moves only x_a, so the trace leaves A A^dag under every prior,
    where A holds the relative-view amplitudes A[x_r, x_a].
    """
    if not isinstance(rho, PairTwirl):
        raise ValueError(f"expected a lattice_pair density matrix, got {rho.basis!r}")
    return DensityMatrix(rho.amplitudes @ rho.amplitudes.conj().T, basis="lattice_rel")


def twirled_relative(state: QuditPairState, prior) -> DensityMatrix:
    """reduced_relative(twirl_displacement(state, prior))."""
    return reduced_relative(twirl_displacement(state, prior))


def sum_gate(state: QuditPairState) -> QuditPairState:
    """|x_r, x_a> -> |x_r, x_a + x_r mod d>: a permutation that commutes
    with every displacement."""
    if state.view != RELATIVE:
        raise ValueError(f"expected a relative-view state, got {state.view!r}")
    x_r = np.arange(state.d)[:, None]
    target = x_r + np.arange(state.d)  # the one d x d label grid, x_a + x_r mod d
    target %= state.d
    out = np.empty_like(state.amplitudes)
    out[x_r, target] = state.amplitudes
    return QuditPairState(out, view=RELATIVE)


def momentum_eigenstate(d: int, p: int) -> np.ndarray:
    """Fourier vector over one register: amplitude e^{2 pi i p x / d}/sqrt(d).

    Eigenvector of the cyclic shift with a unit-modulus eigenvalue.  The
    momentum p is an integer (numpy's too); anything else raises
    ValueError, since no other p gives an eigenvector.
    """
    d = _require_odd(d)
    p = check_count(p, "momentum p", None)
    x = np.arange(d)
    return np.exp(2j * np.pi * (p % d) * x / d) / np.sqrt(d)
