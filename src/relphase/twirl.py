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

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import _block_ket, block_dim, block_offset
from .fock import CHUNK_ENTRIES, _abs2, _alignment, _conj_products, _lag_zero, check_count
from .fock import _real_part, check_entries, check_finite

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
        object.__setattr__(self, "angles", angles)
        if angles.ndim != 1 or angles.size == 0:
            raise ValueError("prior needs a nonempty 1-D angle sequence")
        object.__setattr__(self, "weights", _check_prior_weights(self.weights, "prior", angles.size))
        check_finite(angles, "prior angles")
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
    if np.any(check_finite(weights, f"{label} weights") < 0):
        raise ValueError(f"{label} weights must be nonnegative")
    if not abs(weights.sum() - 1.0) <= 1e-12:
        raise ValueError(f"{label} weights must sum to 1, got {float(weights.sum())}")
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
    e^{2 x} is 0 anyway; elsewhere 2 x is the shifted exponent exactly.
    An n_points that is not an integer >= 1 raises ValueError."""
    n_points = check_count(n_points, "n_points", 1)
    check_finite(kappa, "von Mises kappa")
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
    ``basis``, built on first read and kept; ``entries``, ``trace_square``,
    ``overlap`` and ``hs_distance`` read the factors.
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
        mass = np.bincount(self.labels, np.abs(self.psi) ** 2, self.chi.size // 2 + 1)
        return float(_lag_sum(np.abs(self.chi) ** 2, mass, mass))

    def overlap(self, phi: np.ndarray) -> complex:
        """<phi|rho|phi> = sum_m chi(m) sum_q c_q c_{q-m}^*, with c_q the
        overlap of phi with psi at charge q, sum_{q_i = q} phi_i^* psi_i."""
        size = self.chi.size // 2 + 1
        real, imag = (np.bincount(self.labels, part, size) for part in _conj_products(phi, self.psi))
        c = real + 1j * imag
        return complex(_lag_sum(self.chi, c, c))

    def _hs_sums(self, other):
        """The arguments of ``fock._hs_from_sums`` for this twirl against
        ``other``: other's ket turned towards this one
        (``fock._alignment``), differenced, and summed per charge.  Twirls
        over different charge labels, which only a hand-built pair can be,
        raise ValueError."""
        if not np.array_equal(self.labels, other.labels):
            raise ValueError("twirled states over different charge labels")
        x, y, labels, size = self.psi, other.psi, self.labels, self.chi.size // 2 + 1
        cross = (np.bincount(labels, part, size) for part in _conj_products(x, y))
        turn = _alignment(*cross, self.chi, other.chi)
        d = (y - x) + turn[labels] * y
        return (*_difference_sums(x, d, labels, size), self.chi, other.chi)

    @cached_property
    def matrix(self) -> np.ndarray:
        """One row band per run of consecutive rows with one charge q and
        psi_i != 0: psi_i psi^dag, then times chi(q - q_j), so no full-size
        temporary is made.  Rows where psi is 0 stay +0 from ``np.zeros``
        and are never written.  A matrix above MAX_ENTRIES raises
        SizeLimitError before it is allocated."""
        check_entries(*self.shape)
        psi, labels, span = self.psi, self.labels, self.chi.size // 2
        # 2-D operands, as np.outer has: numpy takes another path, which rounds
        # complex products differently, for a broadcast 1-element 1-D operand
        conj = psi.conj()[None, :]
        out = np.zeros(self.shape, dtype=complex)
        runs = np.where(psi != 0, labels, -1)  # -1 marks a zero row
        edges = [0, *(np.flatnonzero(np.diff(runs)) + 1), psi.size]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if runs[lo] < 0:
                continue
            band = out[lo:hi]
            np.multiply(psi[lo:hi, None], conj, out=band)
            band *= self.chi[labels[lo] - labels[None, :] + span]
        return out


def _lag_sum(chi: np.ndarray, f: np.ndarray, g: np.ndarray):
    """sum_m chi(m) sum_q f_q g_{q-m}^* for per-charge sums f and g of one
    length, with chi(m) at ``chi[m + max q]``.  Where chi vanishes at every
    lag but 0 (the uniform prior, ``fock._lag_zero``), only lag 0 is formed:
    the "valid" correlation of two arrays of one length, O(size) where
    "full" is O(size^2), and the same float as the centre of "full"."""
    if _lag_zero(chi, chi):
        return np.correlate(f, g, "valid")[0]
    return np.dot(chi, np.correlate(f, g, "full"))


def _difference_sums(x: np.ndarray, d: np.ndarray, labels: np.ndarray, size: int) -> tuple:
    """The per-charge sums x^* x, x^* d (its real and imaginary parts) and
    d^* d over charges 0..size-1, each one bincount of a real array."""
    parts = (_abs2(x), *_conj_products(x, d), _abs2(d))
    return tuple(np.bincount(labels, part, size) for part in parts)


def _phase_twirl(psi: np.ndarray, labels: np.ndarray, prior, basis) -> PhaseTwirl:
    """The twirl of psi over charge labels q, with chi(m) = sum_g w_g
    e^{-i phi_g m} tabulated once for 0 <= m <= max q, as an elementwise
    sum over whole rows of the prior's angles, about ``CHUNK_ENTRIES``
    entries at a time: each row is its own sum, so the table has the same
    bits for any chunk, and the temporaries of one chunk do not grow with
    max q.  chi(-m) is its conjugate, the same bits as the sum for -m."""
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("input state must be normalized to 1e-10")
    span = labels.max()
    half = np.zeros(span + 1, dtype=complex)
    if not isinstance(prior, UniformPrior):
        check_entries(span + 1, prior.angles.size)  # bounds every chunk
        rows = max(1, CHUNK_ENTRIES // prior.angles.size)
        for lo in range(0, span + 1, rows):
            m = np.arange(lo, min(lo + rows, span + 1))
            terms = np.exp(-1j * np.outer(m, prior.angles)) * prior.weights
            half[lo : lo + rows] = terms.sum(axis=1)
    half[0] = 1.0  # the total weight, 1 to 1e-12 (_check_prior_weights)
    return PhaseTwirl(psi, labels, np.concatenate([half[:0:-1].conj(), half]), basis)


def twirl_single_mode(psi: np.ndarray, prior) -> PhaseTwirl:
    """Average U(phi)|psi><psi|U(phi)^dag over the prior, where
    U(phi)|n> = e^{-i phi n}|n>: the charge label is the photon number n.
    A ket that is not 1-D raises ValueError."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"expected a 1-D ket, got shape {psi.shape}")
    return _phase_twirl(psi, np.arange(psi.size), prior, "fock")


def twirl_two_mode(state: np.ndarray, prior) -> PhaseTwirl:
    """Two-mode twirl in the block basis: the phase multiplies both modes,
    acting as e^{-i phi N} on each total-photon-number block, so the charge
    label is N.  Within-block structure is untouched by any prior."""
    psi, n_top = _block_ket(state)
    labels = np.repeat(np.arange(n_top + 1), np.arange(1, n_top + 2))
    return _phase_twirl(psi, labels, prior, "block")


@dataclass(frozen=True)
class Observable:
    """Hermitian operator on a ``dim``-dimensional space, stored by its
    nonzero entries: ``values[i]`` sits at row ``index[0][i]``, column
    ``index[1][i]`` (the ``(rows, cols)`` form of ``np.nonzero``), in the
    index convention ``basis``.  The indices must be two 1-D integer
    sequences of the length of ``values``, in [0, dim) for an integer
    dim >= 1, and the values finite; anything else raises ValueError.
    Both are stored as the arrays that were checked, ``index`` as a tuple
    of two, and ``dim`` as an int."""

    index: tuple
    values: np.ndarray
    dim: int
    basis: str

    def __post_init__(self):
        values = np.asarray(self.values)
        index = tuple(np.asarray(part) for part in self.index)
        if len(index) != 2 or values.ndim != 1 or any(
            part.shape != values.shape or part.dtype.kind not in "iu" for part in index
        ):
            raise ValueError("observable needs two 1-D integer index sequences matching its values")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "values", check_finite(values, "observable values"))
        object.__setattr__(self, "dim", check_count(self.dim, "observable dim", 1))
        if values.size and not 0 <= min(map(np.min, index)) <= max(map(np.max, index)) < self.dim:
            raise ValueError(f"observable indices must lie in [0, {self.dim})")


class _Gaussians:
    """Seeded complex Gaussian draws with independent N(0, 1) real and
    imaginary parts: Box-Muller on pairs of 53-bit uniforms from the
    standard library's Mersenne Twister, which the interpreter has loaded
    anyway.  The seed must be a nonnegative integer (``random.Random``
    would take -s as s)."""

    def __init__(self, seed):
        self._source = random.Random(check_count(seed, "seed"))

    def __call__(self, count: int) -> np.ndarray:
        """The next ``count`` draws."""
        bits = np.frombuffer(self._source.randbytes(16 * count), dtype="<u8") >> 11
        u, v = (bits * 2.0**-53).reshape(2, count)  # uniform in [0, 1)
        return np.sqrt(-2.0 * np.log1p(-u)) * np.exp(1j * (TWO_PI * v))


def random_commutant_observable(n_max: int, seed: int, basis: str = "fock") -> Observable:
    """Seeded Hermitian observable commuting with total photon number.

    ``"fock"`` gives a random real diagonal over n = 0..n_max; ``"block"``
    gives independent random Hermitian blocks over k = 0..N for each
    N <= n_max, stored as the (N+1)^2 entries of each block in turn.  Zero
    coherence between number sectors by construction.  ``n_max`` and
    ``seed`` are integers >= 0 (``check_count``); entries are Gaussian,
    N(0, 1) on the diagonal and N(0, 1/2) in each part off it.
    """
    n_max = check_count(n_max, "n_max")
    draw = _Gaussians(seed)
    if basis == "fock":
        check_entries(1, n_max + 1)
        diagonal = draw(n_max + 1).real
        return Observable(np.diag_indices(n_max + 1), diagonal, n_max + 1, basis)
    if basis == "block":
        # one draw z per entry on or above each block's diagonal, row by row;
        # H = (T + T^dag) / 2 with T_kk = z and T_kl = sqrt(2) z above it, so
        # H_kk = Re z is N(0, 1) and H_kl = H_lk^* has N(0, 1/2) parts
        n_entries = (n_max + 1) * (n_max + 2) * (2 * n_max + 3) // 6
        check_entries(1, n_entries)
        above = np.tri(n_max + 1, dtype=bool).T
        scale = np.where(np.eye(n_max + 1, dtype=bool), 1.0, np.sqrt(2.0))
        draws = draw((n_max + 1) * (n_max + 2) * (n_max + 3) // 6)
        index, values = np.empty((2, n_entries), dtype=int), np.empty(n_entries, dtype=complex)
        drawn = stored = 0
        for size in range(1, n_max + 2):
            upper = np.zeros((size, size), dtype=complex)
            upper[above[:size, :size]] = draws[drawn : drawn + size * (size + 1) // 2]
            upper *= scale[:size, :size]
            block = slice(stored, stored + size * size)
            index[:, block] = block_offset(size - 1) + np.indices((size, size)).reshape(2, -1)
            values[block] = ((upper + upper.conj().T) / 2.0).ravel()
            drawn += size * (size + 1) // 2
            stored += size * size
        return Observable((index[0], index[1]), values, block_dim(n_max), basis)
    raise ValueError(f"unknown observable basis {basis!r}")


def coherence_witness(n: int, n_max: int) -> Observable:
    """|n><n+1| + |n+1><n| in the Fock basis: a fixed observable that does
    not commute with photon number, so its expectation depends on the prior.
    n and n_max are integers (numpy's too) with 0 <= n < n_max, so n_max
    is at least n + 1; anything else raises ValueError."""
    n = check_count(n, "n")
    n_max = check_count(n_max, "n_max", n + 1)
    return Observable((np.array([n, n + 1]), np.array([n + 1, n])), np.ones(2), n_max + 1, "fock")


def expectation(obs: Observable, rho) -> float:
    """Tr(O rho) = sum_ij O_ij rho_ji over the stored entries of O, checked
    real to 1e-10.  ``rho`` is a ``DensityMatrix``, a ``PhaseTwirl`` or a
    ``PairTwirl``.  The products O_ij rho_ji are read ``CHUNK_ENTRIES``
    entries at a time into one buffer of the whole product's dtype and
    summed once, so the value has the bits of the one-line sum while the
    state's entries are gathered a chunk at a time."""
    if obs.basis != rho.basis:
        raise ValueError(f"basis mismatch: observable {obs.basis!r} vs state {rho.basis!r}")
    if (obs.dim, obs.dim) != rho.shape:
        raise ValueError(f"dimension mismatch: {(obs.dim, obs.dim)} vs {rho.shape}")
    (rows, cols), values = obs.index, obs.values
    # real times real stays real: np.sum rounds a float array differently
    # from the same values cast to complex
    products = np.empty(values.size, (values[:0] * rho.entries(cols[:0], rows[:0])).dtype)
    for lo in range(0, values.size, CHUNK_ENTRIES):
        piece = slice(lo, lo + CHUNK_ENTRIES)
        np.multiply(values[piece], rho.entries(cols[piece], rows[piece]), out=products[piece])
    return _real_part(np.sum(products), "expectation", 1e-10)
