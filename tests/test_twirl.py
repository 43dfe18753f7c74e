import math
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relphase import (
    UNIFORM,
    DensityMatrix,
    Observable,
    PriorGrid,
    QuditPairState,
    SizeLimitError,
    UniformPrior,
    coherence_witness,
    coherent_vector,
    default_cutoff,
    expectation,
    mean_photon_number,
    parse_prior,
    point_prior,
    purity,
    random_commutant_observable,
    to_blocks,
    twirl,
    twirl_displacement,
    twirl_single_mode,
    twirl_two_mode,
    two_mode_coherent,
    two_point_prior,
    von_mises_prior,
)
from relphase.blocks import block_dim, block_offset
from relphase.fock import CHUNK_ENTRIES
from relphase.twirl import PhaseTwirl, _Gaussians, _phase_twirl

from conftest import assert_refused, random_state_vector


def loop_twirl(psi, labels, prior):
    """Reference twirl: one rotated outer product per prior angle, and the
    uniform prior as exact dephasing between different charge labels."""
    if isinstance(prior, UniformPrior):
        return np.outer(psi, psi.conj()) * (labels[:, None] == labels[None, :])
    rho = np.zeros((psi.size, psi.size), dtype=complex)
    for phi, weight in zip(prior.angles, prior.weights):
        rotated = np.exp(-1j * phi * labels) * psi
        rho += weight * np.outer(rotated, rotated.conj())
    return rho


def dense_twirl(psi, labels, prior):
    """The kernel's dense matrix psi psi^dag (Schur) chi(q_i - q_j) for any
    ket psi and charge labels q."""
    return _phase_twirl(psi, labels, prior, None).matrix


def full_chi(span, prior):
    """Reference: chi(m) for -span <= m <= span as one elementwise sum over
    the whole table, with no chunks and without taking chi(-m) as the
    conjugate of chi(m)."""
    m = np.arange(-span, span + 1)
    if isinstance(prior, UniformPrior):
        chi = (m == 0).astype(complex)
    else:
        chi = (np.exp(-1j * np.outer(m, prior.angles)) * prior.weights).sum(axis=1)
    chi[span] = 1.0
    return chi


def schur_twirl(psi, labels, prior):
    """Reference: the one-line Schur product psi psi^dag * chi(q_i - q_j)
    that the kernel was before it built the matrix one row band at a time."""
    span = labels.max()
    chi = full_chi(span, prior)
    return np.outer(psi, psi.conj()) * chi[labels[:, None] - labels[None, :] + span]


def block_ket(state):
    """Reference scatter of a two-mode grid into the block basis, entry by
    entry: (n1, n2) goes to block_offset(n1 + n2) + n1."""
    n_top = sum(state.shape) - 2
    psi = np.zeros(block_dim(n_top), dtype=complex)
    for (n1, n2), value in np.ndenumerate(state):
        psi[block_offset(n1 + n2) + n1] = value
    return psi


def total_number_labels(n_top):
    return np.concatenate([np.full(big_n + 1, big_n) for big_n in range(n_top + 1)])


def random_grid_prior(rng, n_points=32):
    angles = np.sort(rng.uniform(0, 2 * np.pi, n_points))
    weights = rng.uniform(0.1, 1.0, n_points)
    return PriorGrid(angles=angles, weights=weights / weights.sum())


def dense(obs):
    """The full dim x dim matrix of an observable stored by its entries."""
    matrix = np.zeros((obs.dim, obs.dim), dtype=complex)
    matrix[obs.index] = obs.values
    return matrix


def from_dense(matrix, basis):
    """An observable from a dense matrix: its nonzero entries, in the
    (rows, cols) order of np.nonzero."""
    matrix = np.asarray(matrix)
    index = np.nonzero(matrix)
    return Observable(index, matrix[index], matrix.shape[0], basis)


def dense_commutant_observable(n_max, seed, basis="fock"):
    """Reference: the dense commutant matrices that random_commutant_observable
    built before observables kept only their nonzero entries, from the same
    seeded draws in the same order."""
    draw = _Gaussians(seed)
    if basis == "fock":
        return np.diag(draw(n_max + 1).real).astype(complex)
    dim = block_dim(n_max)
    matrix = np.zeros((dim, dim), dtype=complex)
    draws = draw(sum((big_n + 1) * (big_n + 2) // 2 for big_n in range(n_max + 1)))
    for big_n in range(n_max + 1):
        size = big_n + 1
        rows, cols = np.triu_indices(size)
        raw = np.zeros((size, size), dtype=complex)
        raw[rows, cols] = draws[: rows.size] * np.where(rows == cols, 1.0, np.sqrt(2.0))
        draws = draws[rows.size :]
        lo = block_offset(big_n)
        matrix[lo : lo + size, lo : lo + size] = (raw + raw.conj().T) / 2.0
    return matrix


def prior_family(rng):
    return [
        UNIFORM,
        point_prior(0.7),
        two_point_prior(0.1, 2.5),
        von_mises_prior(4.0),
        random_grid_prior(rng),
    ]


class TestPriorGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PriorGrid(angles=np.array([0.0, 1.0]), weights=np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="sum to 1"):
            PriorGrid(angles=np.array([0.0, 1.0]), weights=np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="strictly increasing"):
            PriorGrid(angles=np.array([1.0, 1.0]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="2pi"):
            PriorGrid(angles=np.array([0.0, 7.0]), weights=np.array([0.5, 0.5]))

    def test_non_finite_rejected(self):
        for angles, weights in (
            ([0.0, np.nan], [0.5, 0.5]),
            ([0.0, np.inf], [0.5, 0.5]),
            ([0.0, 1.0], [np.nan, 0.5]),
            ([0.0, 1.0], [np.inf, -np.inf]),
        ):
            with pytest.raises(ValueError, match="finite"):
                PriorGrid(angles=np.array(angles), weights=np.array(weights))
        with pytest.raises(ValueError, match="finite"):
            point_prior(np.inf)
        with pytest.raises(ValueError, match="finite"):
            parse_prior("twopoint:0,nan")
        with pytest.raises(ValueError, match="finite"):
            von_mises_prior(np.inf)

    def test_von_mises_large_kappa_finite(self):
        vm = von_mises_prior(1e4)
        assert np.all(np.isfinite(vm.weights))
        assert vm.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(vm.weights) == 0
        flipped = von_mises_prior(-1e4)
        assert np.all(np.isfinite(flipped.weights))
        assert np.argmax(flipped.weights) == 128

    def test_von_mises_matches_unshifted_weights(self):
        angles = 2 * np.pi * np.arange(256) / 256
        old = np.exp(4.0 * np.cos(angles))
        old /= old.sum()
        assert np.max(np.abs(von_mises_prior(4.0).weights - old)) <= 1e-15

    def test_named_families(self):
        assert point_prior(9.0).angles[0] == pytest.approx(9.0 % (2 * np.pi))
        assert point_prior(-1e-17).angles[0] == 0.0
        assert two_point_prior(-1e-17, 1.0).angles.tolist() == [0.0, 1.0]
        two = two_point_prior(3.0, 1.0)
        assert np.all(np.diff(two.angles) > 0)
        vm = von_mises_prior(4.0)
        assert vm.angles.size == 256
        assert vm.weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_parse_prior_syntax(self, tmp_path):
        assert isinstance(parse_prior("uniform"), UniformPrior)
        assert parse_prior("point:1.5").angles[0] == 1.5
        assert parse_prior("twopoint:0.2,0.9").weights.tolist() == [0.5, 0.5]
        assert parse_prior("vonmises:2.0").angles.size == 256
        path = tmp_path / "prior.csv"
        path.write_text("0.0,0.25\n1.0,0.75\n")
        grid = parse_prior(f"grid:{path}")
        assert grid.weights.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError, match="unknown prior"):
            parse_prior("gaussian:1.0")
        with pytest.raises(ValueError, match="two angles"):
            parse_prior("twopoint:1.0")


class TestTwirlSingleMode:
    def test_uniform_gives_poisson_diagonal(self):
        alpha = 1.3
        psi = coherent_vector(alpha, 30)
        psi /= np.linalg.norm(psi)
        rho = twirl_single_mode(psi, UNIFORM)
        assert rho.basis == "fock"
        off_diag = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.max(np.abs(off_diag)) == 0.0
        mean = abs(alpha) ** 2
        for n in range(25):
            expected = math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
            assert abs(rho.matrix[n, n].real - expected) < 1e-10

    def test_point_prior_is_pure_rotation(self):
        rng = np.random.default_rng(9)
        psi = random_state_vector(rng, 8)
        phi0 = 1.1
        rho = twirl_single_mode(psi, point_prior(phi0))
        rotated = np.exp(-1j * phi0 * np.arange(8)) * psi
        assert np.max(np.abs(rho.matrix - np.outer(rotated, rotated.conj()))) < 1e-14
        assert np.sum(rho.matrix * rho.matrix.T).real == pytest.approx(1.0, abs=1e-12)

    def test_two_point_prior_hand_example(self):
        psi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        rho = twirl_single_mode(psi, two_point_prior(0.0, np.pi))
        expected = np.diag([0.5, 0.5, 0.0]).astype(complex)
        assert np.max(np.abs(rho.matrix - expected)) < 1e-15

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            twirl_single_mode(np.array([1.0, 1.0]), UNIFORM)

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            twirl_single_mode(np.array([math.nan, 0.0]), UNIFORM)


class TestTwirlTwoMode:
    def setup_method(self):
        self.state = two_mode_coherent(0.8, 1.1, 12, 16)
        self.state /= np.linalg.norm(self.state)

    def test_uniform_is_block_diagonal_with_poisson_weights(self):
        rho = twirl_two_mode(self.state, UNIFORM)
        assert rho.basis == "block"
        mean = mean_photon_number(0.8, 1.1)
        n_top = 28
        for big_n in range(n_top + 1):
            lo = block_offset(big_n)
            hi = lo + big_n + 1
            outside = rho.matrix[lo:hi].copy()
            outside[:, lo:hi] = 0.0
            assert np.max(np.abs(outside)) == 0.0
            block_weight = np.trace(rho.matrix[lo:hi, lo:hi]).real
            if big_n <= 12:
                expected = math.exp(-mean + big_n * math.log(mean) - math.lgamma(big_n + 1))
                assert abs(block_weight - expected) < 1e-10

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            twirl_two_mode(np.full((2, 2), math.nan), UNIFORM)

    def test_point_prior_preserves_purity(self):
        rho = twirl_two_mode(self.state, point_prior(0.4))
        assert np.sum(rho.matrix * rho.matrix.T).real == pytest.approx(1.0, abs=1e-12)

    def test_within_block_structure_prior_independent(self):
        rng = np.random.default_rng(17)
        rho_uniform = twirl_two_mode(self.state, UNIFORM)
        for prior in prior_family(rng)[1:]:
            rho = twirl_two_mode(self.state, prior)
            for big_n in range(0, 20, 3):
                lo = block_offset(big_n)
                hi = lo + big_n + 1
                diff = rho.matrix[lo:hi, lo:hi] - rho_uniform.matrix[lo:hi, lo:hi]
                assert np.max(np.abs(diff)) < 1e-12


class TestCommutantObservables:
    def test_block_structure_exact(self):
        matrix = dense(random_commutant_observable(6, seed=3, basis="block"))
        for big_n in range(7):
            lo = block_offset(big_n)
            hi = lo + big_n + 1
            projector = np.zeros_like(matrix)
            projector[lo:hi, lo:hi] = np.eye(big_n + 1)
            commutator = projector @ matrix - matrix @ projector
            assert np.max(np.abs(commutator)) == 0.0
        assert np.max(np.abs(matrix - matrix.conj().T)) == 0.0

    def test_fock_variant_is_diagonal(self):
        matrix = dense(random_commutant_observable(9, seed=5))
        assert np.max(np.abs(matrix - np.diag(np.diag(matrix)))) == 0.0

    def test_deterministic_per_seed(self):
        a = random_commutant_observable(8, seed=1, basis="block")
        b = random_commutant_observable(8, seed=1, basis="block")
        assert np.array_equal(dense(a), dense(b))

    def test_distinct_seeds_differ(self):
        a = random_commutant_observable(8, seed=1)
        b = random_commutant_observable(8, seed=2)
        assert np.max(np.abs(dense(a) - dense(b))) > 1e-6

    @pytest.mark.parametrize("basis", ["fock", "block"])
    @pytest.mark.parametrize("n_max", [0, 1, 7, 20])
    def test_entries_are_the_dense_nonzeros(self, n_max, basis):
        obs = random_commutant_observable(n_max, seed=n_max + 11, basis=basis)
        want = from_dense(dense_commutant_observable(n_max, n_max + 11, basis), basis)
        assert obs.dim == want.dim
        assert obs.basis == basis
        assert np.array_equal(obs.index[0], want.index[0])
        assert np.array_equal(obs.index[1], want.index[1])
        assert np.array_equal(obs.values, want.values)

    def test_stores_only_the_blocks(self):
        obs = random_commutant_observable(30, seed=0, basis="block")
        assert obs.values.size == sum((big_n + 1) ** 2 for big_n in range(31))
        assert obs.dim == block_dim(30)
        assert random_commutant_observable(30, seed=0).values.shape == (31,)

    def test_witness_is_two_entries(self):
        witness = coherence_witness(3, 9)
        assert witness.values.size == 2
        want = np.zeros((10, 10), dtype=complex)
        want[3, 4] = want[4, 3] = 1.0
        assert np.array_equal(dense(witness), want)


class TestExpectation:
    def test_identity_gives_trace(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), basis="fock")
        obs = from_dense(np.eye(2, dtype=complex), basis="fock")
        assert expectation(obs, rho) == pytest.approx(1.0, abs=1e-14)

    def test_projector_on_own_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), basis="fock")
        obs = from_dense(np.diag([1.0, 0.0]).astype(complex), basis="fock")
        assert expectation(obs, rho) == 1.0

    def test_linearity(self):
        rng = np.random.default_rng(31)
        obs = random_commutant_observable(5, seed=8)
        psi1 = random_state_vector(rng, 6)
        psi2 = random_state_vector(rng, 6)
        rho1 = DensityMatrix(np.outer(psi1, psi1.conj()), basis="fock")
        rho2 = DensityMatrix(np.outer(psi2, psi2.conj()), basis="fock")
        mix = DensityMatrix(0.5 * rho1.matrix + 0.5 * rho2.matrix, basis="fock")
        assert expectation(obs, mix) == pytest.approx(
            0.5 * expectation(obs, rho1) + 0.5 * expectation(obs, rho2), abs=1e-12
        )

    def test_basis_mismatch_rejected(self):
        obs = random_commutant_observable(3, seed=0, basis="block")
        rho = DensityMatrix(np.eye(10, dtype=complex) / 10, basis="fock")
        with pytest.raises(ValueError, match="basis mismatch"):
            expectation(obs, rho)

    def test_dimension_mismatch_rejected(self):
        obs = random_commutant_observable(3, seed=0)
        rho = DensityMatrix(np.eye(5, dtype=complex) / 5, basis="fock")
        with pytest.raises(ValueError, match=r"dimension mismatch: \(4, 4\) vs \(5, 5\)"):
            expectation(obs, rho)

    def test_imaginary_residue_rejected(self):
        skew = from_dense(np.array([[0.0, 1j], [0.0, 0.0]]), basis="fock")
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), basis="fock")
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation(skew, rho)

    def test_nan_state_rejected(self):
        rho = DensityMatrix(np.full((2, 2), math.nan, dtype=complex), basis="fock")
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation(coherence_witness(0, 1), rho)


@pytest.mark.parametrize(
    "index, values, message",
    [
        # numpy would wrap -1 to the last index, 8
        (([-1], [-1]), [1.0], r"must lie in \[0, 9\)"),
        (([0], [9]), [1.0], r"must lie in \[0, 9\)"),
        (([0], [0]), [math.nan], "must be finite"),
        (([0, 1], [1, 0]), [1.0, complex(math.inf, 0)], "must be finite"),
        (([0, 1], [0]), [1.0, 1.0], "index sequences matching"),
        (([0], [0]), [1.0, 1.0], "index sequences matching"),
        (([0], [0], [0]), [1.0], "two 1-D integer"),
        (([0.0], [0.0]), [1.0], "integer index"),
        ((np.zeros((1, 1), int), np.zeros((1, 1), int)), np.ones((1, 1)), "1-D"),
    ],
    ids=["negative", "past-dim", "nan", "inf", "rows-cols", "values", "three", "float", "2-D"],
)
def test_observable_refuses_bad_entries(index, values, message):
    assert_refused(lambda: Observable(index, values, 9, "lattice_pair"), ValueError, message)


PRIORS = prior_family(np.random.default_rng(41))


class TestPriorIndependence:
    def test_commutant_sees_no_prior_single_mode(self):
        psi = coherent_vector(1.3, 25)
        psi /= np.linalg.norm(psi)
        rng = np.random.default_rng(2)
        priors = prior_family(rng)
        pure = DensityMatrix(np.outer(psi, psi.conj()), basis="fock")
        for seed in range(100):
            obs = random_commutant_observable(25, seed=seed)
            values = [expectation(obs, twirl_single_mode(psi, prior)) for prior in priors]
            assert max(values) - min(values) < 1e-10
            assert abs(values[0] - expectation(obs, pure)) < 1e-10

    def test_commutant_sees_no_prior_block_basis(self):
        state = two_mode_coherent(0.8, 1.1, 8, 10)
        state /= np.linalg.norm(state)
        rng = np.random.default_rng(12)
        priors = prior_family(rng)
        for seed in range(20):
            obs = random_commutant_observable(18, seed=seed, basis="block")
            values = [expectation(obs, twirl_two_mode(state, prior)) for prior in priors]
            assert max(values) - min(values) < 1e-10

    @pytest.mark.parametrize("basis", ["fock", "block"])
    def test_commutant_equal_across_priors_bit_for_bit(self, basis):
        if basis == "fock":
            psi = coherent_vector(2.0, 40)
            rhos = [twirl_single_mode(psi / np.linalg.norm(psi), prior) for prior in PRIORS]
            n_max = 40
        else:
            state = two_mode_coherent(1.0, 1.0, 21, 21)
            rhos = [twirl_two_mode(state / np.linalg.norm(state), prior) for prior in PRIORS]
            n_max = 42
        for seed in range(10):
            obs = random_commutant_observable(n_max, seed=seed, basis=basis)
            assert len({expectation(obs, rho) for rho in rhos}) == 1

    def test_control_witness_depends_on_prior(self, oracle):
        psi = coherent_vector(1.0, 21)
        psi /= np.linalg.norm(psi)
        witness = coherence_witness(0, 21)
        at_point = expectation(witness, twirl_single_mode(psi, point_prior(0.0)))
        at_uniform = expectation(witness, twirl_single_mode(psi, UNIFORM))
        spread = abs(at_point - at_uniform)
        assert spread > 1e-3
        assert spread == pytest.approx(oracle["witness_spread_alpha1"], abs=1e-9)


# Random states and priors for the channel and kernel-vs-loop properties.
unit_floats = st.floats(-1.0, 1.0, allow_nan=False)
angles_st = st.floats(0.0, 2 * np.pi, allow_nan=False, exclude_max=True)


def unit_vectors(size):
    """Normalized complex vectors of one size; a near-zero draw becomes |0>."""

    def normalize(pairs):
        vec = np.array([complex(re, im) for re, im in pairs])
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 1e-3 else np.eye(size, dtype=complex)[0]

    return st.lists(st.tuples(unit_floats, unit_floats), min_size=size, max_size=size).map(
        normalize
    )


single_mode_states = st.integers(1, 24).flatmap(unit_vectors)
two_mode_states = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: unit_vectors(shape[0] * shape[1]).map(lambda vec: vec.reshape(shape))
)


@st.composite
def grid_priors(draw):
    n_points = draw(st.integers(1, 64))
    angles = draw(st.lists(angles_st, min_size=n_points, max_size=n_points, unique=True))
    weights = np.array(
        draw(st.lists(st.floats(0.01, 1.0), min_size=n_points, max_size=n_points))
    )
    return PriorGrid(angles=np.sort(angles), weights=weights / weights.sum())


priors_st = st.one_of(
    st.just(UNIFORM),
    st.floats(-20.0, 20.0, allow_nan=False).map(point_prior),
    st.tuples(angles_st, angles_st)
    .filter(lambda pair: pair[0] != pair[1])
    .map(lambda pair: two_point_prior(*pair)),
    st.floats(0.0, 50.0).map(von_mises_prior),
    grid_priors(),
)


def seeded_channel_examples(test):
    """Five seeded 12-entry kets under the seeded prior family, as explicit
    examples of the channel property."""
    rng = np.random.default_rng(23)
    priors = prior_family(rng)
    for _ in range(5):
        psi = random_state_vector(rng, 12)
        for prior in priors:
            test = example(case=(twirl_single_mode, psi), prior=prior)(test)
    return test


class TestChannelProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        case=st.one_of(
            single_mode_states.map(lambda psi: (twirl_single_mode, psi)),
            two_mode_states.map(lambda state: (twirl_two_mode, state)),
        ),
        prior=priors_st,
    )
    @seeded_channel_examples
    def test_trace_preserving_and_positive(self, case, prior):
        kernel, state = case
        rho = kernel(state, prior).matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_uniform_twirl_idempotent(self):
        rng = np.random.default_rng(29)
        psi = random_state_vector(rng, 10)
        rho = twirl_single_mode(psi, UNIFORM)
        # dephasing an already-dephased state: re-twirl each eigenvector
        # weighted by its population and compare
        again = np.zeros_like(rho.matrix)
        for n in range(10):
            basis_vec = np.zeros(10, dtype=complex)
            basis_vec[n] = 1.0
            again += rho.matrix[n, n] * twirl_single_mode(basis_vec, UNIFORM).matrix
        assert np.max(np.abs(again - rho.matrix)) < 1e-12

    def test_grid_refinement_converged(self):
        psi = coherent_vector(1.0, 21)
        psi /= np.linalg.norm(psi)
        witness = coherence_witness(0, 21)
        coarse = expectation(witness, twirl_single_mode(psi, von_mises_prior(4.0, 256)))
        fine = expectation(witness, twirl_single_mode(psi, von_mises_prior(4.0, 512)))
        assert abs(coarse - fine) < 1e-9


def assert_channel_properties(rho, reference, observable, pure):
    assert np.max(np.abs(rho.matrix - reference)) <= 1e-13
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12
    assert abs(expectation(observable, rho) - expectation(observable, pure)) <= 1e-10


class TestKernelMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(psi=single_mode_states, prior=priors_st, seed=st.integers(0, 2**16))
    def test_single_mode(self, psi, prior, seed):
        rho = twirl_single_mode(psi, prior)
        reference = loop_twirl(psi, np.arange(psi.size), prior)
        observable = random_commutant_observable(psi.size - 1, seed)
        pure = DensityMatrix(np.outer(psi, psi.conj()), basis="fock")
        assert_channel_properties(rho, reference, observable, pure)

    @settings(max_examples=40, deadline=None)
    @given(state=two_mode_states, prior=priors_st, seed=st.integers(0, 2**16))
    def test_two_mode(self, state, prior, seed):
        rho = twirl_two_mode(state, prior)
        blocks = to_blocks(state)
        psi = blocks.flatten()
        reference = loop_twirl(psi, total_number_labels(blocks.n_max), prior)
        observable = random_commutant_observable(blocks.n_max, seed, basis="block")
        pure = DensityMatrix(np.outer(psi, psi.conj()), basis="block")
        assert_channel_properties(rho, reference, observable, pure)


def previous_twirl_two_mode(state, prior):
    """twirl_two_mode as it was before the direct scatter: the kernel applied
    to the flattened BlockState of the grid."""
    blocks = to_blocks(state)
    return dense_twirl(blocks.flatten(), total_number_labels(blocks.n_max), prior)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    prior_index=st.integers(0, 4),
)
def test_two_mode_scatter_matches_block_flatten(rows, cols, seed, prior_index):
    rng = np.random.default_rng(seed)
    state = random_state_vector(rng, rows * cols).reshape(rows, cols)
    big_n = np.add.outer(np.arange(rows), np.arange(cols))
    state[big_n == rng.integers(0, rows + cols - 1)] = 0.0  # one empty block
    if not state.any():
        state[0, 0] = 1.0
    state /= np.linalg.norm(state)
    prior = prior_family(rng)[prior_index]
    rho = twirl_two_mode(state, prior).matrix
    assert np.max(np.abs(rho - previous_twirl_two_mode(state, prior))) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    prior_index=st.integers(0, 4),
    basis=st.sampled_from(["fock", "block"]),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
)
def test_expectation_matches_dense_reference(seed, prior_index, basis, shape):
    rng = np.random.default_rng(seed)
    prior = prior_family(rng)[prior_index]
    state = random_state_vector(rng, shape[0] * shape[1])
    if basis == "fock":
        rho = twirl_single_mode(state, prior)
    else:
        rho = twirl_two_mode(state.reshape(shape), prior)
    n_max = state.size - 1 if basis == "fock" else sum(shape) - 2
    observables = [random_commutant_observable(n_max, seed % 1000, basis)]
    if basis == "fock" and n_max > 0:
        observables.append(coherence_witness(0, n_max))
    for obs in observables:
        want = complex(np.sum(dense(obs) * rho.matrix.T))
        assert abs(expectation(obs, rho) - want.real) <= 1e-13


def chunk_test_state(kind, rng):
    """A state of one kind that ``expectation`` reads: a phase twirl of a
    40-entry ket, a pair twirl at d = 5 whose shift weights may hold zeros,
    or a 40 x 40 Hermitian ``DensityMatrix`` with complex or real entries."""
    if kind == "phase":
        return twirl_single_mode(random_state_vector(rng, 40), prior_family(rng)[rng.integers(5)])
    if kind == "pair":
        grid = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        weights = np.where(rng.uniform(size=5) < 0.5, 0.0, rng.uniform(size=5))
        weights[rng.integers(5)] = 1.0
        state = QuditPairState(grid / np.linalg.norm(grid), view="relative")
        return twirl_displacement(state, weights / weights.sum())
    raw = rng.standard_normal((40, 40))
    if kind == "complex":
        raw = raw + 1j * rng.standard_normal((40, 40))
    return DensityMatrix(raw + raw.conj().T, "fock")


def hermitian_observable(rng, rho, count, real):
    """``count`` stored entries of a Hermitian observable on rho's space:
    count // 2 entries (i, j), then their mirrors (j, i) with conjugate
    values, then one diagonal entry if count is odd.  Real values if
    ``real``, complex ones otherwise."""
    dim, half = rho.shape[0], count // 2
    i, j = rng.integers(0, dim, (2, half))
    values = rng.standard_normal(half) + (0 if real else 1j * rng.standard_normal(half))
    diagonal = rng.integers(0, dim, count % 2)
    index = (np.concatenate([i, j, diagonal]), np.concatenate([j, i, diagonal]))
    values = np.concatenate([values, values.conj(), rng.standard_normal(count % 2)])
    return Observable(index, values, dim, rho.basis)


@pytest.mark.parametrize("kind", ["phase", "pair", "complex", "real"])
@pytest.mark.parametrize(
    "count",
    [0, 1, CHUNK_ENTRIES - 1, CHUNK_ENTRIES, CHUNK_ENTRIES + 1, 3 * CHUNK_ENTRIES + 5],
)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_chunked_expectation_has_the_whole_array_bits(kind, count, seed):
    # the products are read a chunk at a time and summed once; the value is
    # the one-line sum's, and a real state with real values sums as real
    rng = np.random.default_rng(seed)
    rho = chunk_test_state(kind, rng)
    obs = hermitian_observable(rng, rho, count, real=kind == "real")
    rows, cols = obs.index
    whole = float(complex(np.sum(obs.values * rho.entries(cols, rows))).real)
    assert expectation(obs, rho) == whole


def test_observable_stores_arrays():
    rng = np.random.default_rng(47)
    rho = chunk_test_state("phase", rng)
    obs = hermitian_observable(rng, rho, 11, real=False)
    index = tuple(part.tolist() for part in obs.index)
    as_lists = Observable(index, obs.values.tolist(), obs.dim, obs.basis)
    assert all(isinstance(part, np.ndarray) for part in (*as_lists.index, as_lists.values))
    assert expectation(as_lists, rho) == expectation(obs, rho)


def test_expectation_memory_is_one_product_buffer():
    # the alpha = 3 block commutant stores 328,350 entries, so its complex
    # product buffer is 5.3 MB; the rest of the read is one chunk's gathers
    n_max = default_cutoff(3)
    state = two_mode_coherent(3, 3, n_max, n_max)
    rho = twirl_two_mode(state / np.linalg.norm(state), von_mises_prior(4.0))
    obs = random_commutant_observable(2 * n_max, 0, "block")
    tracemalloc.start()
    try:
        expectation(obs, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * obs.values.size + 2**20


def assert_factored_reads_match_dense(rho, reference, observables):
    """The reads of a PhaseTwirl, made before its matrix exists, against the
    dense reference: purity within 1e-13, expectations bit for bit."""
    purity_value = purity(rho)
    values = [expectation(obs, rho) for obs in observables]
    assert "matrix" not in vars(rho)
    assert np.array_equal(rho.matrix, reference)
    assert abs(purity_value - np.sum(reference * reference.T).real) <= 1e-13
    dense_rho = DensityMatrix(rho.matrix, rho.basis)
    assert values == [expectation(obs, dense_rho) for obs in observables]


class TestFactoredTwirl:
    @settings(max_examples=60, deadline=None)
    @given(psi=single_mode_states, prior_index=st.integers(0, 4), seed=st.integers(0, 2**16))
    def test_single_mode(self, psi, prior_index, seed):
        prior = prior_family(np.random.default_rng(seed))[prior_index]
        rho = twirl_single_mode(psi, prior)
        assert isinstance(rho, PhaseTwirl)
        reference = schur_twirl(psi, np.arange(psi.size), prior)
        observables = [random_commutant_observable(psi.size - 1, seed)]
        if psi.size > 1:
            observables.append(coherence_witness(seed % (psi.size - 1), psi.size - 1))
        assert_factored_reads_match_dense(rho, reference, observables)

    @settings(max_examples=60, deadline=None)
    @given(state=two_mode_states, prior_index=st.integers(0, 4), seed=st.integers(0, 2**16))
    def test_two_mode(self, state, prior_index, seed):
        prior = prior_family(np.random.default_rng(seed))[prior_index]
        rho = twirl_two_mode(state, prior)
        n_top = sum(state.shape) - 2
        reference = schur_twirl(block_ket(state), total_number_labels(n_top), prior)
        observables = [random_commutant_observable(n_top, seed + j, "block") for j in range(3)]
        assert_factored_reads_match_dense(rho, reference, observables)

    @settings(max_examples=80, deadline=None)
    @given(
        state=st.one_of(single_mode_states, two_mode_states),
        prior_index=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_overlap_matches_dense(self, state, prior_index, seed):
        # sum_m chi(m) sum_q c_q c_{q-m}^* against <phi| matrix |phi>, for
        # phi the twirled ket itself and a random one
        rng = np.random.default_rng(seed)
        prior = prior_family(rng)[prior_index]
        if state.ndim == 1:
            rho = twirl_single_mode(state, prior)
        else:
            rho = twirl_two_mode(state, prior)
        for phi in (rho.psi, random_state_vector(rng, rho.psi.size)):
            value = rho.overlap(phi)
            assert abs(value - np.vdot(phi, rho.matrix @ phi)) <= 1e-15

    @pytest.mark.parametrize("basis", ["fock", "block"])
    def test_reads_build_no_dense_matrix(self, basis):
        # the dense twirl is 64 MB (n <= 2000) or 160 MB (N <= 78) here; the
        # two-point chi table is under 0.3 MB
        prior = two_point_prior(0.1, 2.5)
        tracemalloc.start()
        try:
            if basis == "fock":
                psi = coherent_vector(3.0, 2000)
                rho = twirl_single_mode(psi / np.linalg.norm(psi), prior)
                observables = [random_commutant_observable(2000, 0), coherence_witness(0, 2000)]
            else:
                state = two_mode_coherent(2.0, 2.0, 39, 39)
                rho = twirl_two_mode(state / np.linalg.norm(state), prior)
                observables = [random_commutant_observable(78, 0, basis)]
            for obs in observables:
                expectation(obs, rho)
            purity(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rho.psi.size**2 * 16 / 8
        assert "matrix" not in vars(rho)


@settings(max_examples=60, deadline=None)
@given(prior=priors_st, span=st.one_of(st.integers(0, 64), st.integers(65, 2895)))
def test_chi_half_table_matches_full_table(prior, span):
    psi = np.zeros(span + 1, dtype=complex)
    psi[0] = 1.0
    chi = twirl_single_mode(psi, prior).chi
    assert np.array_equal(chi, full_chi(span, prior))
    # chi(-m) = chi(m)^* for m = 1..span, bit for bit; chi(0) is exactly 1
    assert chi[:span][::-1].tobytes() == chi[span + 1 :].conj().tobytes()


@settings(max_examples=40, deadline=None)
@given(prior=priors_st, span=st.integers(0, 300), chunk=st.integers(1, 2**15))
def test_chi_table_independent_of_chunk_size(prior, span, chunk):
    psi = np.zeros(span + 1, dtype=complex)
    psi[0] = 1.0
    table = twirl_single_mode(psi, prior).chi
    with mock.patch.object(twirl, "CHUNK_ENTRIES", chunk):
        assert twirl_single_mode(psi, prior).chi.tobytes() == table.tobytes()


def mpmath_chi(m, prior):
    """chi(m) summed in 40 digits over the prior's float angles and weights,
    and sum_g w_g |fl(m phi_g) - m phi_g|, the most that rounding the
    arguments m phi_g to floats, before any sum, can move chi(m)."""
    with mp.workdps(40):
        exact = rounding = mp.mpf(0)
        for angle, weight in zip(prior.angles, prior.weights):
            argument = m * mp.mpf(angle)
            exact += weight * mp.expj(-argument)
            rounding += weight * abs(mp.mpf(m * angle) - argument)
        return complex(exact), float(rounding)


@pytest.mark.parametrize(
    "prior, flat",
    # a flat 1e-13 holds for vonmises:4 (8.0e-14 at m = 2895), but not for
    # every 32-point grid: rounding m phi_g alone reaches 1.3e-13 there
    [(von_mises_prior(4.0), 1e-13), (random_grid_prior(np.random.default_rng(43)), math.inf)],
    ids=["vonmises:4", "grid"],
)
def test_chi_table_matches_mpmath_sum(prior, flat):
    psi = np.zeros(2896, dtype=complex)
    psi[0] = 1.0
    chi = twirl_single_mode(psi, prior).chi
    for m in (1, 1447, 2895):
        exact, rounding = mpmath_chi(m, prior)
        error = abs(chi[2895 + m] - exact)
        assert error <= min(flat, 1e-15 + rounding), m


def test_chi_table_memory_does_not_grow_with_max_q():
    # one 2896 x 256 table is 11.9 MB per complex temporary; a chunk of
    # CHUNK_ENTRIES entries is 0.07 MB
    psi = np.full(2896, 1 / math.sqrt(2896), dtype=complex)
    prior = von_mises_prior(4.0)
    tracemalloc.start()
    try:
        twirl_single_mode(psi, prior)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def with_zeros(vec, zero):
    """vec with exact zeros where ``zero`` holds, renormalized; |0...0> in
    vec's shape if nothing is left."""
    vec = np.where(zero, 0.0, vec)
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.zeros_like(vec)
        vec.flat[0] = norm = 1.0
    return vec / norm


def kets_with_zeros(shape):
    size = math.prod(shape)
    zero_masks = st.lists(st.booleans(), min_size=size, max_size=size).map(np.array)
    return st.tuples(unit_vectors(size), zero_masks).map(
        lambda pair: with_zeros(*pair).reshape(shape)
    )


# single-mode kets, where every charge is one entry, and two-mode grids,
# whose block kets hold structural zeros (most of them for 1 x k and k x 1)
states_with_zeros = st.one_of(
    st.integers(1, 24).map(lambda n: (n,)),
    st.integers(1, 12).map(lambda k: (1, k)),
    st.integers(1, 12).map(lambda k: (k, 1)),
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
).flatmap(kets_with_zeros)


@settings(max_examples=100, deadline=None)
@given(state=states_with_zeros, prior_index=st.integers(0, 4), seed=st.integers(0, 2**16))
# zero first and last entries, and whole zero charges
@example(state=np.array([0.0, 0.6, 0.8, 0.0], dtype=complex), prior_index=3, seed=0)
# block N = 2 is 0.8, 0, 0.6: a zero inside one charge's run; N = 0, 1, 3, 4 are zero
@example(state=np.fliplr(np.diag([0.8, 0.0, 0.6])).astype(complex), prior_index=4, seed=1)
@example(state=np.full((1, 4), 0.5, dtype=complex), prior_index=2, seed=0)
@example(state=np.full((4, 1), 0.5, dtype=complex), prior_index=0, seed=0)
def test_dense_build_leaves_zero_rows_untouched(state, prior_index, seed):
    prior = prior_family(np.random.default_rng(seed))[prior_index]
    if state.ndim == 1:
        rho = twirl_single_mode(state, prior)
        reference = schur_twirl(state, np.arange(state.size), prior)
    else:
        rho = twirl_two_mode(state, prior)
        n_top = sum(state.shape) - 2
        reference = schur_twirl(block_ket(state), total_number_labels(n_top), prior)
    assert np.array_equal(rho.matrix, reference)
    # the reference may hold -0.0 in a zero row; the build leaves +0.0
    dead = rho.matrix[rho.psi == 0].view(float)
    assert np.all(dead == 0.0) and not np.any(np.signbit(dead))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda psi: twirl_single_mode(psi, von_mises_prior(4)), "a 32769 x 256 grid"),
        (lambda psi: random_commutant_observable(400, 0, "block"), "21574201 entries"),
        (lambda psi: random_commutant_observable(2**23, 0), "8388609 entries"),
    ],
    ids=["chi-table", "block-observable", "fock-observable"],
)
def test_oversize_table_refused_before_allocation(call, message):
    # the 256-point chi table of 32769 labels (134 MB), the stored entries of
    # 401 Hermitian blocks (345 MB) and a diagonal of 2^23 + 1 draws are
    # above MAX_ENTRIES
    psi = np.zeros(32769, dtype=complex)
    psi[0] = 1.0
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=message):
            call(psi)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_oversize_dense_matrix_refused_before_allocation():
    # 2897^2 entries (134 MB) are just above MAX_ENTRIES; the factors of the
    # twirl are 2897 entries each
    psi = np.zeros(2897, dtype=complex)
    psi[0] = 1.0
    assert_refused(
        lambda: twirl_single_mode(psi, UNIFORM).matrix,
        SizeLimitError,
        "a 2897 x 2897 grid has 8392609 entries",
    )


class TestSeededDraws:
    """The one seeded generator behind every random observable and state."""

    def test_complex_gaussian_law(self):
        n = 10**5
        draws = _Gaussians(2024)(n)
        assert draws.shape == (n,)
        for part in (draws.real, draws.imag):
            assert abs(part.mean()) <= 5 / math.sqrt(n)
            assert abs(part.var() - 1.0) <= 5 * math.sqrt(2 / n)
        assert abs(np.corrcoef(draws.real, draws.imag)[0, 1]) <= 5 / math.sqrt(n)

    def test_block_observable_law(self):
        # the law of (X + X^dag) / 2 with X_kl = N(0, 1) + i N(0, 1): the
        # diagonal N(0, 1), each part above it N(0, 1/2)
        obs = random_commutant_observable(200, seed=5, basis="block")
        rows, cols = obs.index
        diagonal = obs.values[rows == cols]
        assert np.all(diagonal.imag == 0.0)
        above = obs.values[rows < cols]
        for part, variance in ((diagonal.real, 1.0), (above.real, 0.5), (above.imag, 0.5)):
            # the mean is known to be 0, so the mean square estimates the variance
            assert abs(np.mean(part**2) - variance) <= 5 * variance * math.sqrt(2 / part.size)

    @pytest.mark.parametrize("basis", ["fock", "block"])
    def test_seed_contract(self, basis):
        with pytest.raises(ValueError, match="nonnegative"):
            random_commutant_observable(4, -1, basis)
        with pytest.raises(TypeError):
            random_commutant_observable(4, 1.5, basis)
        numpy_seed = random_commutant_observable(4, np.int64(9), basis)
        assert np.array_equal(numpy_seed.values, random_commutant_observable(4, 9, basis).values)
