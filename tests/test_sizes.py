"""The one rule for sizes, ``fock.check_count``: a photon number, block
total, spin size, seed, grid resolution or lattice dimension is an integer
(numpy's too, never a float such as 3.0) in its range, and anything else is
refused with a one-line ValueError before anything of its size is built."""

import numpy as np
import pytest

from relphase import (
    UNIFORM,
    coherence_witness,
    coherent_vector,
    contraction_overlap,
    embed_wh,
    from_blocks,
    momentum_eigenstate,
    random_commutant_observable,
    shift_prior,
    spin_coherent,
    to_blocks,
    twirl_single_mode,
    two_mode_coherent,
    von_mises_prior,
)
from relphase.fock import check_count

from conftest import assert_refused

BLOCKS = to_blocks(two_mode_coherent(1, 1, 4, 4))

# (call, the whole message); each call raised IndexError, TypeError or a
# RuntimeWarning, gave numpy's message or was accepted before the one rule
REFUSED = {
    "coherent-n_max-2.5": (
        lambda: coherent_vector(1, 2.5),
        "n_max must be an integer >= 0, got 2.5",
    ),
    "coherent-n_max-3.0": (
        lambda: coherent_vector(1, 3.0),
        "n_max must be an integer >= 0, got 3.0",
    ),
    "two-mode-n1_max-2.5": (
        lambda: two_mode_coherent(1, 1, 2.5, 3),
        "n_max must be an integer >= 0, got 2.5",
    ),
    "from-blocks-2.5": (
        lambda: from_blocks(BLOCKS, 2.5, 2),
        "target cutoff must be an integer >= 0, got 2.5",
    ),
    "spin-coherent-2.5": (lambda: spin_coherent(2.5, 0.3), "N must be an integer >= 0, got 2.5"),
    "spin-coherent-negative": (lambda: spin_coherent(-1, 0.3), "N must be an integer >= 0, got -1"),
    "contraction-2.5": (lambda: contraction_overlap(1, 2.5), "N must be an integer >= 1, got 2.5"),
    "contraction-0": (lambda: contraction_overlap(1, 0), "N must be an integer >= 1, got 0"),
    "embed-wh-negative": (lambda: embed_wh(1, -1), "N must be an integer >= 0, got -1"),
    "embed-wh-2.5": (lambda: embed_wh(1, 2.5), "N must be an integer >= 0, got 2.5"),
    "seed-1.5": (
        lambda: random_commutant_observable(3, 1.5),
        "seed must be an integer >= 0, got 1.5",
    ),
    "seed-negative": (
        lambda: random_commutant_observable(3, -1, "block"),
        "seed must be an integer >= 0, got -1",
    ),
    "observable-n_max-2.5": (
        lambda: random_commutant_observable(2.5, 1),
        "n_max must be an integer >= 0, got 2.5",
    ),
    "witness-n-1.5": (lambda: coherence_witness(1.5, 3), "n must be an integer >= 0, got 1.5"),
    "witness-n-negative": (lambda: coherence_witness(-1, 3), "n must be an integer >= 0, got -1"),
    "witness-n_max-at-n": (lambda: coherence_witness(3, 3), "n_max must be an integer >= 4, got 3"),
    "von-mises-0-points": (
        lambda: von_mises_prior(1.0, 0),
        "n_points must be an integer >= 1, got 0",
    ),
    "von-mises-2.5-points": (
        lambda: von_mises_prior(1.0, 2.5),
        "n_points must be an integer >= 1, got 2.5",
    ),
    "momentum-d-5.0": (
        lambda: momentum_eigenstate(5.0, 1),
        "lattice dimension must be an integer, got 5.0",
    ),
    "momentum-p-1.5": (
        lambda: momentum_eigenstate(5, 1.5),
        "momentum p must be an integer, got 1.5",
    ),
    "shift-prior-d-2.5": (
        lambda: shift_prior("point:1", 2.5),
        "lattice dimension must be an integer, got 2.5",
    ),
    "shift-prior-d-4": (
        lambda: shift_prior("uniform", 4),
        "lattice dimension must be odd and >= 3, got 4",
    ),
    "ket-2-d": (
        lambda: twirl_single_mode(np.eye(2) / np.sqrt(2), UNIFORM),
        r"expected a 1-D ket, got shape \(2, 2\)",
    ),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_bad_size_is_refused(call, message):
    assert_refused(call, ValueError, f"^{message}$")


# (call at a size n, n): each call's result at numpy integers must equal it
# at Python ints
SIZED = {
    "coherent_vector": (lambda n: coherent_vector(1, n), 7),
    "two_mode_coherent": (lambda n: two_mode_coherent(1, 1, n, n), 5),
    "from_blocks": (lambda n: from_blocks(BLOCKS, n, n)[0], 3),
    "spin_coherent": (lambda n: spin_coherent(n, 0.3), 9),
    "contraction_overlap": (lambda n: contraction_overlap(1, n), 25),
    "embed_wh": (lambda n: embed_wh(1, n), 9),
    "fock-observable": (lambda n: random_commutant_observable(n, n).values, 6),
    "block-observable": (lambda n: random_commutant_observable(n, n, "block").values, 4),
    "coherence_witness": (lambda n: coherence_witness(n, 2 * n).index, 3),
    "von_mises_prior": (lambda n: von_mises_prior(2.0, n).weights, 16),
    "momentum_eigenstate": (lambda n: momentum_eigenstate(n, n - 1), 7),
    "shift_prior": (lambda n: shift_prior("vonmises:4", n), 9),
}


@pytest.mark.parametrize("kind", [np.int32, np.int64])
@pytest.mark.parametrize("call, n", SIZED.values(), ids=SIZED.keys())
def test_numpy_integer_sizes_give_the_same_result(call, n, kind):
    assert np.array_equal(call(kind(n)), call(n))


def test_check_count_returns_a_python_int():
    for value in (3, np.int32(3), np.int64(3), np.uint8(3)):
        count = check_count(value, "size")
        assert (type(count), count) == (int, 3)
    assert check_count(-7, "momentum", None) == -7
    assert check_count(2**70, "size") == 2**70
    for value, low in ((3.0, 0), (np.float64(3), 0), ("3", 0), (None, 0), (2, 3), (1.5, None)):
        with pytest.raises(ValueError, match="^size must be an integer"):
            check_count(value, "size", low)
