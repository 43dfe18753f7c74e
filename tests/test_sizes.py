"""The one rule for sizes, ``fock.check_count``: a photon number, block
total, spin size, seed, grid resolution, lattice dimension or shift is an
integer (numpy's too, never a float such as 3.0 or a bool) in its range, and
anything else is refused with a one-line ValueError before anything of its
size is built.  And the one rule for values, ``fock.check_finite``: an
amplitude, angle, weight, grid or matrix entry, or a read such as a purity,
is finite, and anything else is refused with one ValueError line."""

import math
import re

import numpy as np
import pytest

from relphase import (
    UNIFORM,
    DensityMatrix,
    Observable,
    PriorGrid,
    approx_product,
    approx_product_balanced,
    coherence_witness,
    coherent_vector,
    contraction_overlap,
    default_cutoff,
    displace,
    embed_wh,
    expectation,
    factorization_fidelity,
    from_blocks,
    hs_distance,
    inner,
    momentum_eigenstate,
    params_from_modes,
    purity,
    random_commutant_observable,
    relative_pair,
    shift_prior,
    spin_coherent,
    to_blocks,
    twirl_single_mode,
    two_mode_coherent,
    von_mises_prior,
)
from relphase.cli import COMMANDS, parse_args
from relphase.fock import check_count

from conftest import assert_refused

BLOCKS = to_blocks(two_mode_coherent(1, 1, 4, 4))
PAIR = relative_pair(np.eye(5)[0], np.eye(5)[1])

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
        "n1_max must be an integer >= 0, got 2.5",
    ),
    "two-mode-n1_max-str": (
        lambda: two_mode_coherent(1, 1, "3", 3),
        "n1_max must be an integer >= 0, got '3'",
    ),
    "coherent-n_max-bool": (
        lambda: coherent_vector(1, True),
        "n_max must be an integer >= 0, got True",
    ),
    "approx-product-n1_max-negative": (
        lambda: approx_product(1, 2, n1_max=-1),
        "n1_max must be an integer >= 0, got -1",
    ),
    "approx-product-n2_max-negative": (
        lambda: approx_product(1, 2, n2_max=-1),
        "n2_max must be an integer >= 0, got -1",
    ),
    "approx-product-n1_max--40": (
        lambda: approx_product(1, 2, n1_max=-40),
        "n1_max must be an integer >= 0, got -40",
    ),
    "approx-product-n1_max-str": (
        lambda: approx_product(1, 2, n1_max="3"),
        "n1_max must be an integer >= 0, got '3'",
    ),
    "balanced-n_max-2.5": (
        lambda: approx_product_balanced(1, 0, n_max=2.5),
        "n_max must be an integer >= 0, got 2.5",
    ),
    "fidelity-n1_max-bool": (
        lambda: factorization_fidelity(1, 3, n1_max=True),
        "n1_max must be an integer >= 0, got True",
    ),
    "fidelity-n2_max-negative": (
        lambda: factorization_fidelity(1, 3, n2_max=-1),
        "n2_max must be an integer >= 0, got -1",
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
    "displace-2.5": (
        lambda: displace(PAIR, 2.5),
        "lattice shift must be an integer, got 2.5",
    ),
    "displace-str": (
        lambda: displace(PAIR, "1"),
        "lattice shift must be an integer, got '1'",
    ),
    "observable-dim-2.5": (
        lambda: Observable((np.array([0]), np.array([0])), np.ones(1), 2.5, "fock"),
        "observable dim must be an integer >= 1, got 2.5",
    ),
    "ket-2-d": (
        lambda: twirl_single_mode(np.eye(2) / np.sqrt(2), UNIFORM),
        r"expected a 1-D ket, got shape \(2, 2\)",
    ),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_bad_size_is_refused(call, message):
    assert_refused(call, ValueError, f"^{message}$")


def _run(*argv):
    """One CLI command run in-process up to its first error."""
    args = parse_args(list(argv))
    COMMANDS[args.command][0](args)


def _matrix(x):
    """A 2 x 2 Fock-basis DensityMatrix with every entry x."""
    return DensityMatrix(np.full((2, 2), x), "fock")


GOOD = _matrix(0.25)

# (call at a non-finite value x, the whole message, with {x} for str(x)); an
# array is quoted as "nan or inf".  The DensityMatrix purity and expectation
# rows and the inner row returned nan or inf before the one rule
NON_FINITE = {
    "coherent-amplitude": (
        lambda x: coherent_vector(x, 3),
        "coherent amplitude must be finite, got {x}",
    ),
    "hs-distance-rho": (
        lambda x: hs_distance(_matrix(x), GOOD),
        "density matrix entries must be finite, got nan or inf",
    ),
    "hs-distance-sigma": (
        lambda x: hs_distance(GOOD, _matrix(x)),
        "density matrix entries must be finite, got nan or inf",
    ),
    "default-cutoff": (default_cutoff, "magnitude must be finite, got {x}"),
    "grid": (
        lambda x: to_blocks(np.full((2, 2), x)),
        "grid entries must be finite, got nan or inf",
    ),
    "modes-alpha": (lambda x: params_from_modes(x, 1), "alpha must be finite, got {x}"),
    "modes-beta": (lambda x: params_from_modes(1, x), "beta must be finite, got {x}"),
    "spin-xi": (lambda x: spin_coherent(3, x), "spin parameter xi must be finite, got {x}"),
    "wh-window": (lambda x: embed_wh(x, 3), "coherent amplitude must be finite, got {x}"),
    "prior-angles": (
        lambda x: PriorGrid(np.array([0.0, x]), np.array([0.5, 0.5])),
        "prior angles must be finite, got nan or inf",
    ),
    "prior-weights": (
        lambda x: PriorGrid(np.array([0.0, 1.0]), np.array([x, 0.5])),
        "prior weights must be finite, got nan or inf",
    ),
    "von-mises-kappa": (von_mises_prior, "von Mises kappa must be finite, got {x}"),
    "observable-values": (
        lambda x: Observable((np.array([0]), np.array([0])), np.array([x]), 1, "fock"),
        "observable values must be finite, got nan or inf",
    ),
    "balanced-alpha": (lambda x: approx_product_balanced(x, 0.0), "alpha must be finite, got {x}"),
    "balanced-phi_r": (lambda x: approx_product_balanced(1.0, x), "phi_r must be finite, got {x}"),
    "lattice-shift": (
        lambda x: shift_prior(f"point:{x}", 5),
        "lattice shift must be finite, got {x}",
    ),
    "cli-magnitude": (
        lambda x: _run("contract-overlap", f"--z={x}"),
        "--z must be finite, got {x}",
    ),
    "cli-phase": (
        lambda x: _run("contract-overlap", "--z=1", f"--z-phase={x}"),
        "--z-phase must be finite, got {x}",
    ),
    "cli-beta-phase": (
        lambda x: _run("factorize-sweep", "--alpha=1", "--beta-list=2", f"--beta-phase={x}"),
        "--beta-phase must be finite, got {x}",
    ),
    "purity": (
        lambda x: purity(DensityMatrix(np.array([[x]]), "fock")),
        "purity must be finite, got {x}",
    ),
    "expectation": (
        lambda x: expectation(coherence_witness(0, 1), _matrix(x)),
        "expectation must be finite, got {x}",
    ),
    "inner": (
        lambda x: inner(np.array([x]), np.array([1.0])),
        "inner product must be finite, got ({x}+0j)",
    ),
}


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("call, message", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_value_is_refused(call, message, x):
    assert_refused(lambda: call(x), ValueError, f"^{re.escape(message.format(x=x))}$")


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
    "displace": (lambda n: displace(PAIR, n).amplitudes, 3),
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
    for value, low in ((3.0, 0), (np.float64(3), 0), ("3", 0), (None, 0), (2, 3), (1.5, None),
                       (True, 0), (False, None)):
        with pytest.raises(ValueError, match="^size must be an integer"):
            check_count(value, "size", low)
