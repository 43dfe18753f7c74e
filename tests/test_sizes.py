"""The one rule for sizes, ``fock.check_count``: a photon number, block
total, spin size, seed, grid resolution, lattice dimension or shift is an
integer (numpy's too, never a float such as 3.0 or a bool) in its range, and
anything else is refused with a one-line ValueError before anything of its
size is built.  The one rule for values, ``fock.check_finite``: an
amplitude, angle, weight, grid or matrix entry, or a read such as a purity,
is finite, and anything else is refused with one ValueError line.  And the
two operand rules, ``fock.check_match`` and ``fock.check_normalized``: two
operands agree in basis, shape or view, and a ket has unit norm.

Every callable in ``relphase.__all__`` has a refusal row here keyed
``<public name>-...``, or sits on ``EXEMPT``."""

import math
import re

import numpy as np
import pytest

import relphase
from relphase import (
    UNIFORM,
    BlockState,
    DensityMatrix,
    Observable,
    PriorGrid,
    QuditPairState,
    approx_product,
    approx_product_balanced,
    block_dim,
    block_index,
    block_offset,
    coherence_witness,
    coherent_vector,
    contraction_overlap,
    default_cutoff,
    displace,
    embed_wh,
    expectation,
    factorization_fidelity,
    fidelity_pure_mixed,
    from_blocks,
    from_relative_basis,
    grid_prior_from_csv,
    hs_distance,
    inner,
    mean_photon_number,
    momentum_eigenstate,
    params_from_modes,
    parse_prior,
    point_prior,
    product_pair,
    purity,
    random_commutant_observable,
    read_prior_rows,
    read_prior_spec,
    reduced_relative,
    relative_pair,
    relative_state_overlap,
    relative_target,
    shift_prior,
    spin_coherent,
    sum_gate,
    sweep_fidelity,
    to_blocks,
    to_relative_basis,
    twirl_displacement,
    twirl_single_mode,
    twirl_two_mode,
    two_mode_coherent,
    two_point_prior,
    twirled_hs_distance,
    twirled_relative,
    von_mises_prior,
)
from relphase.cli import COMMANDS, parse_args
from relphase.fock import check_count

from conftest import FIXTURES, assert_refused

BLOCKS = to_blocks(two_mode_coherent(1, 1, 4, 4))
PAIR = relative_pair(np.eye(5)[0], np.eye(5)[1])
PRODUCT_PAIR = product_pair(np.eye(5)[0], np.eye(5)[1])
KET = np.eye(3)[0]
GRID = np.eye(2)  # a 2 x 2 grid of norm sqrt(2)
UNIT_GRID = GRID / np.sqrt(2)
FOCK_2, FOCK_3 = DensityMatrix(np.eye(2) / 2, "fock"), DensityMatrix(np.eye(3) / 3, "fock")
BLOCK_2 = DensityMatrix(np.eye(2) / 2, "block")
NO_WEIGHT = FIXTURES / "prior_row_without_weight.csv"


def _run(*argv):
    """One CLI command run in-process up to its first error."""
    args = parse_args(list(argv))
    COMMANDS[args.command][0](args)


# (call, the whole message); each call raised IndexError, TypeError or a
# RuntimeWarning, gave numpy's message or was accepted before the one rule.
# Only rows keyed "<public name>-..." count for
# test_refusal_tables_hold_every_public_name; the short keys do not
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
        "expected a 1-D ket, got shape (2, 2)",
    ),
    "block_dim-2.5": (lambda: block_dim(2.5), "n_top must be an integer >= 0, got 2.5"),
    "block_dim-nan": (lambda: block_dim(math.nan), "n_top must be an integer >= 0, got nan"),
    "block_offset-negative": (lambda: block_offset(-3), "N must be an integer >= 0, got -3"),
    "block_index-2.5": (
        lambda: block_index((2.5, 3)),
        "grid size must be an integer >= 0, got 2.5",
    ),
    "block_index-negative": (
        lambda: block_index((-1, 3)),
        "grid size must be an integer >= 0, got -1",
    ),
    "cli-n-observables-negative": (
        lambda: _run("twirl-demo", "--n-observables", "-1"),
        "--n-observables must be an integer >= 0, got -1",
    ),
    "cli-n-max-0": (
        lambda: _run("twirl-demo", "--n-max", "0"),
        "--n-max must be an integer >= 1, got 0",
    ),
    "coherent_vector-n_max-negative": (
        lambda: coherent_vector(1, -1),
        "n_max must be an integer >= 0, got -1",
    ),
    "two_mode_coherent-n2_max-negative": (
        lambda: two_mode_coherent(1, 1, 3, -1),
        "n2_max must be an integer >= 0, got -1",
    ),
    "approx_product-n2_max-str": (
        lambda: approx_product(1, 2, n2_max="3"),
        "n2_max must be an integer >= 0, got '3'",
    ),
    "approx_product_balanced-n_max-negative": (
        lambda: approx_product_balanced(1, 0, n_max=-1),
        "n_max must be an integer >= 0, got -1",
    ),
    "factorization_fidelity-n1_max-2.5": (
        lambda: factorization_fidelity(1, 3, n1_max=2.5),
        "n1_max must be an integer >= 0, got 2.5",
    ),
    "from_blocks-negative": (
        lambda: from_blocks(BLOCKS, 2, -1),
        "target cutoff must be an integer >= 0, got -1",
    ),
    "default_cutoff-overflow": (
        lambda: default_cutoff(1e200),
        "the cutoff for magnitude 1e+200 overflows a float",
    ),
    "spin_coherent-str": (lambda: spin_coherent("3", 0.3), "N must be an integer >= 0, got '3'"),
    "contraction_overlap-negative": (
        lambda: contraction_overlap(1, -1),
        "N must be an integer >= 1, got -1",
    ),
    "embed_wh-bool": (lambda: embed_wh(1, True), "N must be an integer >= 0, got True"),
    "random_commutant_observable-n_max-negative": (
        lambda: random_commutant_observable(-1, 1),
        "n_max must be an integer >= 0, got -1",
    ),
    "coherence_witness-str": (
        lambda: coherence_witness("0", 3),
        "n must be an integer >= 0, got '0'",
    ),
    "von_mises_prior-negative-points": (
        lambda: von_mises_prior(1.0, -1),
        "n_points must be an integer >= 1, got -1",
    ),
    "momentum_eigenstate-d-4": (
        lambda: momentum_eigenstate(4, 1),
        "lattice dimension must be odd and >= 3, got 4",
    ),
    "relative_pair-d-4": (
        lambda: relative_pair(np.eye(4)[0], np.eye(4)[0]),
        "lattice dimension must be odd and >= 3, got 4",
    ),
    "shift_prior-d-str": (
        lambda: shift_prior("uniform", "5"),
        "lattice dimension must be an integer, got '5'",
    ),
    "displace-1.5": (lambda: displace(PAIR, 1.5), "lattice shift must be an integer, got 1.5"),
    "Observable-dim-0": (
        lambda: Observable((np.array([0]), np.array([0])), np.ones(1), 0, "fock"),
        "observable dim must be an integer >= 1, got 0",
    ),
    "twirl_single_mode-0-d": (
        lambda: twirl_single_mode(np.array(1.0), UNIFORM),
        "expected a 1-D ket, got shape ()",
    ),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_bad_size_is_refused(call, message):
    assert_refused(call, ValueError, f"^{re.escape(message)}$")


# (call, the whole message): operands that disagree in basis, shape or view
# (``check_match``), a ket whose norm is not 1 (``check_normalized``, a NaN
# norm included), and a prior that is neither UNIFORM nor a PriorGrid.  The
# twirled_hs_distance norm rows, the prior rows and the NaN-norm row were
# accepted, or raised AttributeError, before the operand rules
OPERANDS = {
    "inner-dimension": (
        lambda: inner(np.ones(2), np.ones(3)),
        "dimension mismatch: (2,) vs (3,)",
    ),
    "fidelity_pure_mixed-dimension": (
        lambda: fidelity_pure_mixed(KET, FOCK_2),
        "dimension mismatch: (3, 3) vs (2, 2)",
    ),
    "fidelity_pure_mixed-not-normalized": (
        lambda: fidelity_pure_mixed(2 * KET, FOCK_3),
        "psi must be normalized to 1e-10",
    ),
    "fidelity_pure_mixed-nan": (
        lambda: fidelity_pure_mixed(np.full(3, math.nan), FOCK_3),
        "psi must be normalized to 1e-10",
    ),
    "hs_distance-basis": (lambda: hs_distance(FOCK_2, BLOCK_2), "basis mismatch: 'fock' vs 'block'"),
    "hs_distance-dimension": (
        lambda: hs_distance(FOCK_2, FOCK_3),
        "dimension mismatch: (2, 2) vs (3, 3)",
    ),
    "expectation-basis": (
        lambda: expectation(coherence_witness(0, 1), BLOCK_2),
        "basis mismatch: 'fock' vs 'block'",
    ),
    "expectation-dimension": (
        lambda: expectation(coherence_witness(0, 2), FOCK_2),
        "dimension mismatch: (3, 3) vs (2, 2)",
    ),
    "twirled_hs_distance-grid-shape": (
        lambda: twirled_hs_distance(UNIT_GRID, np.eye(3)[:1]),
        "grid shape mismatch: (2, 2) vs (1, 3)",
    ),
    "twirled_hs_distance-state_a-zero": (
        lambda: twirled_hs_distance(np.zeros((2, 2)), np.zeros((2, 2))),
        "state_a must be normalized to 1e-10",
    ),
    "twirled_hs_distance-state_b-double": (
        lambda: twirled_hs_distance(UNIT_GRID, 2 * UNIT_GRID),
        "state_b must be normalized to 1e-10",
    ),
    "to_relative_basis-view": (
        lambda: to_relative_basis(PAIR),
        "view mismatch: 'relative' vs 'product'",
    ),
    "from_relative_basis-view": (
        lambda: from_relative_basis(PRODUCT_PAIR),
        "view mismatch: 'product' vs 'relative'",
    ),
    "sum_gate-view": (lambda: sum_gate(PRODUCT_PAIR), "view mismatch: 'product' vs 'relative'"),
    "QuditPairState-not-normalized": (
        lambda: QuditPairState(2 * PAIR.amplitudes),
        "pair state must be normalized to 1e-12",
    ),
    "product_pair-not-normalized": (
        lambda: product_pair(np.ones(5), np.eye(5)[0]),
        "pair state must be normalized to 1e-12",
    ),
    "twirl_single_mode-not-normalized": (
        lambda: twirl_single_mode(2 * KET, UNIFORM),
        "input state must be normalized to 1e-10",
    ),
    "twirl_two_mode-not-normalized": (
        lambda: twirl_two_mode(GRID, UNIFORM),
        "input state must be normalized to 1e-10",
    ),
    "twirl_single_mode-prior-str": (
        lambda: twirl_single_mode(KET, "uniform"),
        "prior must be UNIFORM or a PriorGrid, got 'uniform'",
    ),
    "twirl_two_mode-prior-None": (
        lambda: twirl_two_mode(UNIT_GRID, None),
        "prior must be UNIFORM or a PriorGrid, got None",
    ),
}


@pytest.mark.parametrize("call, message", OPERANDS.values(), ids=OPERANDS.keys())
def test_bad_operand_is_refused(call, message):
    assert_refused(call, ValueError, f"^{re.escape(message)}$")


# (call, the whole message): one refusal of each public name that no table
# above holds, outside the three rules: a grid of the wrong rank, a state
# with no populated block, a prior spec, file row or weight vector that the
# prior grammar refuses, a lattice view or observable basis it does not know
OUTSIDE_THE_DOMAIN = {
    "to_blocks-1-d": (
        lambda: to_blocks(np.ones(3)),
        "expected a nonempty 2-D amplitude grid, got shape (3,)",
    ),
    "relative_state_overlap-no-blocks": (
        lambda: relative_state_overlap(np.zeros((2, 2)), 1.0),
        "state has no populated blocks",
    ),
    "relative_target-beta-0": (
        lambda: relative_target(1, 0),
        "relative phase is undefined for beta = 0",
    ),
    "params_from_modes-beta-0": (
        lambda: params_from_modes(1, 0),
        "relative phase is undefined for beta = 0",
    ),
    "sweep_fidelity-empty": (lambda: sweep_fidelity(1, []), "beta magnitude list must be nonempty"),
    "reduced_relative-fock": (
        lambda: reduced_relative(FOCK_2),
        "expected a lattice_pair density matrix, got 'fock'",
    ),
    "twirl_displacement-weights": (
        lambda: twirl_displacement(PAIR, np.ones(3) / 3),
        "shift prior must have 5 weights, got shape (3,)",
    ),
    "twirled_relative-weights": (
        lambda: twirled_relative(PAIR, np.full(5, 0.5)),
        "shift prior weights must sum to 1, got 2.5",
    ),
    "shift_prior-spec": (lambda: shift_prior("bogus", 5), "unknown prior spec 'bogus'"),
    "parse_prior-spec": (lambda: parse_prior("bogus"), "unknown prior spec 'bogus'"),
    "parse_prior-uniform-parameter": (
        lambda: parse_prior("uniform:1"),
        "uniform prior takes no parameter",
    ),
    "read_prior_spec-twopoint": (
        lambda: read_prior_spec(
            "twopoint:1", "shift", uniform=None, point=None, two_point=None, von_mises=None, grid=None
        ),
        "twopoint prior needs two shifts, got '1'",
    ),
    "read_prior_rows-no-weight": (
        lambda: read_prior_rows(NO_WEIGHT, "angle"),
        "prior file row must be 'angle,weight', got '0.1'",
    ),
    "grid_prior_from_csv-no-weight": (
        lambda: grid_prior_from_csv(NO_WEIGHT),
        "prior file row must be 'angle,weight', got '0.1'",
    ),
    "PriorGrid-angle-range": (
        lambda: PriorGrid(np.array([7.0]), np.array([1.0])),
        "prior angles must lie in [0, 2pi)",
    ),
    "two_point_prior-equal-angles": (
        lambda: two_point_prior(1.0, 1.0),
        "prior angles must be strictly increasing",
    ),
    "QuditPairState-view": (
        lambda: QuditPairState(PAIR.amplitudes, "diagonal"),
        "unknown view 'diagonal'",
    ),
    "random_commutant_observable-basis": (
        lambda: random_commutant_observable(3, 1, "lattice"),
        "unknown observable basis 'lattice'",
    ),
}


@pytest.mark.parametrize("call, message", OUTSIDE_THE_DOMAIN.values(), ids=OUTSIDE_THE_DOMAIN.keys())
def test_input_outside_the_domain_is_refused(call, message):
    assert_refused(call, ValueError, f"^{re.escape(message)}$")


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
    "mean_photon_number-alpha": (
        lambda x: mean_photon_number(x, 1),
        "alpha must be finite, got {x}",
    ),
    "mean_photon_number-beta": (
        lambda x: mean_photon_number(1, x),
        "beta must be finite, got {x}",
    ),
    "from_blocks-weight": (
        lambda x: from_blocks(BlockState(np.array([x]), (np.ones(1),)), 1, 1),
        "block amplitudes must be finite, got nan or inf",
    ),
    "point_prior": (point_prior, "prior angles must be finite, got nan or inf"),
}


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("call, message", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_value_is_refused(call, message, x):
    assert_refused(lambda: call(x), ValueError, f"^{re.escape(message.format(x=x))}$")


# the public names that validate nothing by design: records built by the
# library's own constructors, exception classes, the prior marker's class,
# and main, whose every flag the argv fuzz of test_cli draws
EXEMPT = {
    "BlockState",
    "DensityMatrix",
    "FactorizationReport",
    "InsufficientCutoffError",
    "PairTwirl",
    "PhaseTwirl",
    "SizeLimitError",
    "SpinParams",
    "UniformPrior",
    "main",
}


def test_refusal_tables_hold_every_public_name():
    # a callable added to relphase.__all__ needs a row keyed by its name in
    # one of the tables above, or a place on EXEMPT
    public = {name for name in relphase.__all__ if callable(getattr(relphase, name))}
    tables = (REFUSED, OPERANDS, OUTSIDE_THE_DOMAIN, NON_FINITE)
    keyed = {key.partition("-")[0] for table in tables for key in table}
    assert EXEMPT <= public
    assert sorted(public - EXEMPT - keyed) == []


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
