import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relphase import (
    UNIFORM,
    DensityMatrix,
    PriorGrid,
    UniformPrior,
    coherence_witness,
    coherent_vector,
    expectation,
    mean_photon_number,
    parse_prior,
    point_prior,
    random_commutant_observable,
    to_blocks,
    twirl_single_mode,
    twirl_two_mode,
    two_mode_coherent,
    two_point_prior,
    von_mises_prior,
)
from relphase.blocks import block_offset

from conftest import random_state_vector


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


def total_number_labels(n_top):
    return np.concatenate([np.full(big_n + 1, big_n) for big_n in range(n_top + 1)])


def random_grid_prior(rng, n_points=32):
    angles = np.sort(rng.uniform(0, 2 * np.pi, n_points))
    weights = rng.uniform(0.1, 1.0, n_points)
    return PriorGrid(angles=angles, weights=weights / weights.sum())


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
        obs = random_commutant_observable(6, seed=3, basis="block")
        for big_n in range(7):
            lo = block_offset(big_n)
            hi = lo + big_n + 1
            projector = np.zeros_like(obs.matrix)
            projector[lo:hi, lo:hi] = np.eye(big_n + 1)
            commutator = projector @ obs.matrix - obs.matrix @ projector
            assert np.max(np.abs(commutator)) == 0.0
        assert np.max(np.abs(obs.matrix - obs.matrix.conj().T)) == 0.0

    def test_fock_variant_is_diagonal(self):
        obs = random_commutant_observable(9, seed=5)
        assert np.max(np.abs(obs.matrix - np.diag(np.diag(obs.matrix)))) == 0.0

    def test_deterministic_per_seed(self):
        a = random_commutant_observable(8, seed=1, basis="block")
        b = random_commutant_observable(8, seed=1, basis="block")
        assert np.array_equal(a.matrix, b.matrix)

    def test_distinct_seeds_differ(self):
        a = random_commutant_observable(8, seed=1)
        b = random_commutant_observable(8, seed=2)
        assert np.max(np.abs(a.matrix - b.matrix)) > 1e-6


class TestExpectation:
    def test_identity_gives_trace(self):
        from relphase import Observable

        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), basis="fock")
        obs = Observable(np.eye(2, dtype=complex), basis="fock")
        assert expectation(obs, rho) == pytest.approx(1.0, abs=1e-14)

    def test_projector_on_own_state(self):
        from relphase import Observable

        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), basis="fock")
        obs = Observable(np.diag([1.0, 0.0]).astype(complex), basis="fock")
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

    def test_imaginary_residue_rejected(self):
        from relphase import Observable

        skew = Observable(np.array([[0.0, 1j], [0.0, 0.0]]), basis="fock")
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), basis="fock")
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation(skew, rho)


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

    def test_control_witness_depends_on_prior(self, oracle):
        psi = coherent_vector(1.0, 21)
        psi /= np.linalg.norm(psi)
        witness = coherence_witness(0, 21)
        at_point = expectation(witness, twirl_single_mode(psi, point_prior(0.0)))
        at_uniform = expectation(witness, twirl_single_mode(psi, UNIFORM))
        spread = abs(at_point - at_uniform)
        assert spread > 1e-3
        assert spread == pytest.approx(oracle["witness_spread_alpha1"], abs=1e-9)


class TestChannelProperties:
    def test_trace_preserving_and_positive(self):
        rng = np.random.default_rng(23)
        priors = prior_family(rng)
        for _ in range(5):
            psi = random_state_vector(rng, 12)
            for prior in priors:
                rho = twirl_single_mode(psi, prior)
                assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
                assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
                assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

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


# Random states and priors for the kernel-vs-loop properties.
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
