"""Two-mode coherent states and the total/difference block decomposition.

A two-mode pure state is a 2-D complex grid indexed by (n1, n2).  The same
state can be stored as a direct sum over the total photon number N = n1 + n2:
one complex weight c_N plus a unit vector over the difference index
k = n1 = 0..N.  The difference quantum number M = (n1 - n2)/2 = k - N/2 is
half-integer for odd N; the integer index k is canonical in storage.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import SizeLimitError, check_count, check_entries, check_finite, coherent_vector

__all__ = [
    "BlockState",
    "block_dim",
    "block_index",
    "block_offset",
    "default_cutoff",
    "from_blocks",
    "mean_photon_number",
    "to_blocks",
    "two_mode_coherent",
]

def default_cutoff(mag: float) -> int:
    """Photon-number truncation with a 10-standard-deviation Poisson guard.

    ceil(|a|^2 + 10|a| + 10) keeps the lost tail mass far below 1e-10 at
    desk scale.  A non-finite magnitude raises ValueError; one whose cutoff
    overflows a float raises SizeLimitError.
    """
    mag = check_finite(float(abs(mag)), "magnitude")
    cutoff = mag * mag + 10.0 * mag + 10.0
    if not math.isfinite(cutoff):
        raise SizeLimitError(f"the cutoff for magnitude {mag!r} overflows a float")
    return math.ceil(cutoff)


def cutoff_or_default(n_max, mag: float, what: str) -> int:
    """The photon-number cutoff n_max under the integer rule, named ``what``
    (``check_count``), or default_cutoff(mag) where n_max is None."""
    return default_cutoff(mag) if n_max is None else check_count(n_max, what)


def mean_photon_number(alpha: complex, beta: complex) -> float:
    """<N> = |alpha|^2 + |beta|^2."""
    return abs(alpha) ** 2 + abs(beta) ** 2


def two_mode_coherent(alpha: complex, beta: complex, n1_max: int, n2_max: int) -> np.ndarray:
    """Amplitude grid of |alpha> (x) |beta>:

    amplitude(n1, n2) = e^{-(|alpha|^2+|beta|^2)/2} alpha^n1 beta^n2 / sqrt(n1! n2!).
    At |alpha| = 1 the full grid reaches MAX_ENTRIES near |beta| = 620.
    """
    n1_max, n2_max = check_count(n1_max, "n1_max"), check_count(n2_max, "n2_max")
    check_entries(n1_max + 1, n2_max + 1)
    return np.outer(coherent_vector(alpha, n1_max), coherent_vector(beta, n2_max))


def block_offset(big_n: int) -> int:
    """Flat index of (N, k=0) when blocks are concatenated in N order."""
    return big_n * (big_n + 1) // 2


def block_dim(n_top: int) -> int:
    """Total flattened dimension of blocks N = 0..n_top."""
    return (n_top + 1) * (n_top + 2) // 2


def block_index(shape) -> np.ndarray:
    """Flat block index block_offset(N) + n1 of every entry of an (n1, n2)
    grid of the given shape, with blocks concatenated in N order: N = n1 + n2
    is the total photon number that sorts entries into blocks."""
    n1 = np.arange(shape[0])
    return block_offset(np.add.outer(n1, np.arange(shape[1]))) + n1[:, None]


@dataclass(frozen=True)
class BlockState:
    """Direct-sum form {c_N (x) v_N} of a two-mode state.

    ``weights[N]`` is the complex block amplitude c_N and ``vectors[N]`` the
    length-(N+1) difference-index vector, unit norm with its peak entry
    real positive (the extracted phase lives in c_N), or identically zero
    for unpopulated blocks.  The peak is the entry of largest magnitude;
    magnitudes within 1e-14 (relative) of the largest tie, and the tie goes
    to the lowest k, so that rounding in the phase division cannot move it.
    """

    weights: np.ndarray
    vectors: tuple

    @property
    def n_max(self) -> int:
        return len(self.weights) - 1

    def flatten(self) -> np.ndarray:
        """Amplitudes c_N * v_N concatenated in (N, k) order."""
        return np.concatenate([w * v for w, v in zip(self.weights, self.vectors)])

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(w) ** 2 for w in self.weights)))


def _grid(state) -> np.ndarray:
    """``state`` as a complex (n1, n2) amplitude grid; any other number of
    axes, a grid with no entries or a non-finite entry raises ValueError."""
    state = np.asarray(state, dtype=complex)
    if state.ndim != 2 or state.size == 0:
        raise ValueError(f"expected a nonempty 2-D amplitude grid, got shape {state.shape}")
    return check_finite(state, "grid entries")


def _block_ket(state: np.ndarray) -> tuple:
    """(ket, n_top): the entries of an (n1, n2) grid scattered to the flat
    block index block_offset(N) + n1 of blocks N = 0..n_top, zero where a
    block reaches outside the grid.  The ket has block_dim(n1 + n2) entries,
    quadratic in n1 + n2, and reaches MAX_ENTRIES near n1 + n2 = 4095."""
    state = _grid(state)
    n_top = sum(state.shape) - 2
    check_entries(1, block_dim(n_top))
    index = block_index(state.shape)
    ket = np.zeros(block_dim(n_top), dtype=complex)
    ket[index] = state
    return ket, n_top


def to_blocks(state: np.ndarray) -> BlockState:
    """Reindex an (n1, n2) grid into total/difference blocks.

    Block N collects amplitude(n1=k, n2=N-k) over k = 0..N; entries whose
    (n1, n2) fall outside the grid are zero.  The reindexing is an isometry.
    """
    flat, n_top = _block_ket(state)
    weights = np.zeros(n_top + 1, dtype=complex)
    vectors = []
    for big_n, raw in enumerate(np.split(flat, block_offset(np.arange(1, n_top + 1)))):
        mag = np.linalg.norm(raw)
        if mag == 0.0:
            vectors.append(raw)
            continue
        unit = raw / mag
        size = np.abs(unit)
        peak = int(np.argmax(size >= (1.0 - 1e-14) * size.max()))  # the lowest k of a tie
        phase = unit[peak] / abs(unit[peak])
        vectors.append(unit / phase)
        weights[big_n] = mag * phase
    return BlockState(weights=weights, vectors=tuple(vectors))


def from_blocks(blocks: BlockState, n1_max: int, n2_max: int):
    """Inverse reindexing onto a target (n1, n2) grid.

    Returns ``(grid, dropped)`` where ``dropped`` counts nonzero amplitudes
    that fell outside the target bounds and were discarded.  A cutoff that
    is not an integer >= 0 raises ValueError.
    """
    n1_max, n2_max = (check_count(n, "target cutoff") for n in (n1_max, n2_max))
    flat = blocks.flatten()
    check_entries(n1_max + 1, n2_max + 1)
    index = block_index((n1_max + 1, n2_max + 1))
    inside = index < flat.size  # entries with N above the blocks' n_max stay zero
    grid = np.zeros(index.shape, dtype=complex)
    grid[inside] = flat[index[inside]]
    return grid, np.count_nonzero(flat) - np.count_nonzero(grid)
