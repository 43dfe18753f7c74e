"""Cyclic-lattice pair register: relative/collective coordinates,
displacement twirls over arbitrary shift priors, and the gates that respect
them.

The lattice dimension d must be odd so that the coordinate change
(x1, x2) <-> (x_r, x_a) = (x1 - x2, x1 + x2) mod d is a bijection (2 is
invertible mod d).  Displacing both registers by X leaves x_r fixed and
moves x_a by 2X.
"""

from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix
from .twirl import _check_prior_weights, read_prior_rows, read_prior_spec, von_mises_prior

__all__ = [
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
    if d % 2 == 0 or d < 3:
        raise ValueError(f"lattice dimension must be odd and >= 3, got {d}")
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
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
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


def to_relative_basis(state: QuditPairState) -> QuditPairState:
    """Relabel (x1, x2) -> (x_r, x_a) = (x1 - x2, x1 + x2) mod d."""
    if state.view != PRODUCT:
        raise ValueError(f"expected a product-view state, got {state.view!r}")
    d = state.d
    inv2 = (d + 1) // 2  # multiplicative inverse of 2 mod d
    x_r, x_a = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    x1 = (inv2 * (x_a + x_r)) % d
    x2 = (inv2 * (x_a - x_r)) % d
    return QuditPairState(state.amplitudes[x1, x2], view=RELATIVE)


def from_relative_basis(state: QuditPairState) -> QuditPairState:
    """Relabel (x_r, x_a) -> (x1, x2) = ((x_a+x_r)/2, (x_a-x_r)/2) mod d."""
    if state.view != RELATIVE:
        raise ValueError(f"expected a relative-view state, got {state.view!r}")
    d = state.d
    x1, x2 = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    x_r = (x1 - x2) % d
    x_a = (x1 + x2) % d
    return QuditPairState(state.amplitudes[x_r, x_a], view=PRODUCT)


def displace(state: QuditPairState, shift: int) -> QuditPairState:
    """Shift both registers by X: |x1, x2> -> |x1+X, x2+X> mod d.

    In the relative view x_r is untouched and x_a moves by 2X.
    """
    shift = int(shift) % state.d
    if state.view == PRODUCT:
        moved = np.roll(state.amplitudes, (shift, shift), axis=(0, 1))
    else:
        moved = np.roll(state.amplitudes, 2 * shift, axis=1)
    return QuditPairState(moved, view=state.view)


def shift_prior(spec: str, d: int) -> np.ndarray:
    """Shift weights over Z_d from the shared prior syntax (``read_prior_spec``).

    Numeric parameters are lattice shifts, taken as int(X) mod d; weights of
    equal shifts add.  ``vonmises:<kappa>`` weights exp(kappa cos(2 pi X / d))
    and ``grid:<path>`` reads ``shift,weight`` rows.
    """

    def shifts(*pairs) -> np.ndarray:
        weights = np.zeros(d)
        for shift, weight in pairs:
            if not np.isfinite(shift):
                raise ValueError(f"lattice shift must be finite, got {shift!r}")
            weights[int(shift) % d] += weight
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


def twirl_displacement(state: QuditPairState, prior) -> DensityMatrix:
    """sum_X P(X) D(X)|psi><psi|D(X)^dag, indexed in the relative basis
    (flat index x_r * d + x_a)."""
    weights = _check_prior_weights(prior, "shift prior", state.d)
    rel = to_relative_basis(state) if state.view == PRODUCT else state
    shifts = np.flatnonzero(weights)
    rotated = np.stack([np.roll(rel.amplitudes, 2 * int(s), axis=1).ravel() for s in shifts])
    rho = (rotated.T * weights[shifts]) @ rotated.conj()
    return DensityMatrix(rho, basis="lattice_pair")


def reduced_relative(rho: DensityMatrix) -> DensityMatrix:
    """Partial trace over the collective register x_a."""
    if rho.basis != "lattice_pair":
        raise ValueError(f"expected a lattice_pair density matrix, got {rho.basis!r}")
    d = int(round(np.sqrt(rho.dim)))
    if d * d != rho.dim:
        raise ValueError(f"pair dimension {rho.dim} is not a perfect square")
    reshaped = rho.matrix.reshape(d, d, d, d)
    return DensityMatrix(np.einsum("iaja->ij", reshaped), basis="lattice_rel")


def twirled_relative(state: QuditPairState, prior) -> DensityMatrix:
    """reduced_relative(twirl_displacement(state, prior)) without the
    d^2 x d^2 matrix.

    D(X) moves only x_a, so tracing x_a out leaves A A^dag for every prior,
    where A holds the relative-view amplitudes A[x_r, x_a].  The prior is
    still validated.
    """
    _check_prior_weights(prior, "shift prior", state.d)
    rel = to_relative_basis(state) if state.view == PRODUCT else state
    amps = rel.amplitudes
    return DensityMatrix(amps @ amps.conj().T, basis="lattice_rel")


def sum_gate(state: QuditPairState) -> QuditPairState:
    """|x_r, x_a> -> |x_r, x_a + x_r mod d>: a permutation that commutes
    with every displacement."""
    if state.view != RELATIVE:
        raise ValueError(f"expected a relative-view state, got {state.view!r}")
    out = np.empty_like(state.amplitudes)
    for x_r in range(state.d):
        out[x_r] = np.roll(state.amplitudes[x_r], x_r)
    return QuditPairState(out, view=RELATIVE)


def momentum_eigenstate(d: int, p: int) -> np.ndarray:
    """Fourier vector over one register: amplitude e^{2 pi i p x / d}/sqrt(d).

    Eigenvector of the cyclic shift with a unit-modulus eigenvalue.
    """
    _require_odd(d)
    x = np.arange(d)
    return np.exp(2j * np.pi * (p % d) * x / d) / np.sqrt(d)
