import numpy as np
import pytest

from relphase import (
    QuditPairState,
    displace,
    fidelity_pure_mixed,
    from_relative_basis,
    momentum_eigenstate,
    product_pair,
    purity,
    reduced_relative,
    relative_pair,
    sum_gate,
    to_relative_basis,
    twirl_displacement,
    twirled_relative,
)

from conftest import random_state_vector


def random_pair(rng, d, view="relative"):
    grid = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return QuditPairState(grid / np.linalg.norm(grid), view=view)


def shift_prior_family(rng, d):
    point = np.zeros(d)
    point[1 % d] = 1.0
    two = np.zeros(d)
    two[0] = 0.5
    two[2 % d] += 0.5
    concentrated = np.exp(3.0 * np.cos(2 * np.pi * np.arange(d) / d))
    concentrated /= concentrated.sum()
    raw = rng.uniform(0.1, 1.0, d)
    return [np.full(d, 1.0 / d), point, two, concentrated, raw / raw.sum()]


class TestStateConstruction:
    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            QuditPairState(np.eye(4, dtype=complex) / 2.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            QuditPairState(np.ones((3, 3), dtype=complex))

    def test_unknown_view_rejected(self):
        grid = np.zeros((3, 3), dtype=complex)
        grid[0, 0] = 1.0
        with pytest.raises(ValueError, match="view"):
            QuditPairState(grid, view="diagonal")


class TestBasisChange:
    def test_origin_maps_to_origin(self):
        grid = np.zeros((5, 5), dtype=complex)
        grid[0, 0] = 1.0
        rel = to_relative_basis(QuditPairState(grid))
        assert rel.amplitudes[0, 0] == 1.0
        assert np.count_nonzero(rel.amplitudes) == 1

    def test_modular_arithmetic_example(self):
        # d=5: (x1, x2) = (3, 1) -> (x_r, x_a) = (2, 4)
        grid = np.zeros((5, 5), dtype=complex)
        grid[3, 1] = 1.0
        rel = to_relative_basis(QuditPairState(grid))
        assert rel.amplitudes[2, 4] == 1.0

    def test_round_trip_random_states(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.choice([3, 5, 7, 11]))
            state = random_pair(rng, d, view="product")
            back = from_relative_basis(to_relative_basis(state))
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-15

    def test_isometry(self):
        rng = np.random.default_rng(13)
        state = random_pair(rng, 7, view="product")
        rel = to_relative_basis(state)
        assert np.linalg.norm(rel.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_view_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="product-view"):
            to_relative_basis(random_pair(rng, 5, view="relative"))
        with pytest.raises(ValueError, match="relative-view"):
            from_relative_basis(random_pair(rng, 5, view="product"))


class TestDisplace:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(15)
        state = random_pair(rng, 5, view="product")
        assert np.array_equal(displace(state, 0).amplitudes, state.amplitudes)

    def test_relative_marginal_invariant(self):
        rng = np.random.default_rng(16)
        state = random_pair(rng, 7, view="product")
        rel = to_relative_basis(state)
        marginal = np.sum(np.abs(rel.amplitudes) ** 2, axis=1)
        for shift in range(7):
            shifted = to_relative_basis(displace(state, shift))
            assert np.allclose(
                np.sum(np.abs(shifted.amplitudes) ** 2, axis=1), marginal, atol=1e-14
            )

    def test_collective_coordinate_moves_by_two_shifts(self):
        # d=7, X=4: x_a component moves by 8 mod 7 = 1
        grid = np.zeros((7, 7), dtype=complex)
        grid[2, 3] = 1.0
        state = QuditPairState(grid, view="relative")
        moved = displace(state, 4)
        assert moved.amplitudes[2, (3 + 8) % 7] == 1.0

    def test_product_and_relative_actions_agree(self):
        rng = np.random.default_rng(18)
        state = random_pair(rng, 5, view="product")
        for shift in range(5):
            via_product = to_relative_basis(displace(state, shift))
            via_relative = displace(to_relative_basis(state), shift)
            assert np.max(np.abs(via_product.amplitudes - via_relative.amplitudes)) < 1e-15

    def test_is_isometry(self):
        rng = np.random.default_rng(19)
        state = random_pair(rng, 7, view="product")
        for shift in (1, 3, 6):
            moved = displace(state, shift)
            assert np.linalg.norm(moved.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestTwirlDisplacement:
    def test_point_prior_returns_projector(self):
        rng = np.random.default_rng(20)
        state = random_pair(rng, 5)
        prior = np.zeros(5)
        prior[0] = 1.0
        rho = twirl_displacement(state, prior)
        psi = state.amplitudes.ravel()
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-15

    def test_separable_input_keeps_pure_relative_factor(self):
        rng = np.random.default_rng(22)
        for d in (3, 5, 7):
            priors = shift_prior_family(rng, d)
            for _ in range(5):
                psi_r = random_state_vector(rng, d)
                psi_a = random_state_vector(rng, d)
                state = relative_pair(psi_r, psi_a)
                for prior in priors:
                    rho_rel = reduced_relative(twirl_displacement(state, prior))
                    assert purity(rho_rel) == pytest.approx(1.0, abs=1e-10)
                    assert fidelity_pure_mixed(psi_r, rho_rel) >= 1.0 - 1e-10

    def test_sum_entangled_purity_matches_oracle(self, oracle):
        amps = np.array(oracle["sum_entangled_purity_d5"]["amps"], dtype=complex)
        psi_r = amps / np.linalg.norm(amps)
        psi_a = np.zeros(5, dtype=complex)
        psi_a[0] = 1.0
        entangled = sum_gate(relative_pair(psi_r, psi_a))
        rho_rel = reduced_relative(twirl_displacement(entangled, np.full(5, 0.2)))
        assert purity(rho_rel) == pytest.approx(
            oracle["sum_entangled_purity_d5"]["value"], abs=1e-12
        )
        assert purity(rho_rel) < 1.0

    def test_max_entangled_purity_is_one_over_d(self, oracle):
        for d in (3, 5):
            state = QuditPairState(np.eye(d, dtype=complex) / np.sqrt(d), view="relative")
            rho_rel = reduced_relative(twirl_displacement(state, np.full(d, 1.0 / d)))
            assert purity(rho_rel) == pytest.approx(1.0 / d, abs=1e-10)
            assert purity(rho_rel) == pytest.approx(
                oracle["max_entangled_purity"][str(d)], abs=1e-12
            )

    def test_twirl_matches_direct_entrywise_formula(self):
        # direct evaluation of the twirled entangled state: the (x_r, x_r')
        # coherence factor tensored with prior-shifted collective outer
        # products, entry by entry
        d = 5
        rng = np.random.default_rng(24)
        state = random_pair(rng, d)
        prior = rng.uniform(0.1, 1.0, d)
        prior /= prior.sum()
        rho = twirl_displacement(state, prior).matrix
        psi = state.amplitudes
        direct = np.zeros((d * d, d * d), dtype=complex)
        for x_r in range(d):
            for x_rp in range(d):
                for x_a in range(d):
                    for x_ap in range(d):
                        value = 0.0
                        for shift in range(d):
                            value += (
                                prior[shift]
                                * psi[x_r, (x_a - 2 * shift) % d]
                                * np.conj(psi[x_rp, (x_ap - 2 * shift) % d])
                            )
                        direct[x_r * d + x_a, x_rp * d + x_ap] = value
        assert np.max(np.abs(rho - direct)) < 1e-12

    def test_output_is_hermitian_trace_one_psd(self):
        rng = np.random.default_rng(25)
        for d in (3, 7):
            state = random_pair(rng, d)
            prior = rng.uniform(0.1, 1.0, d)
            rho = twirl_displacement(state, prior / prior.sum())
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_unnormalized_prior_rejected(self):
        rng = np.random.default_rng(26)
        state = random_pair(rng, 5)
        with pytest.raises(ValueError, match="sum to 1"):
            twirl_displacement(state, np.full(5, 0.3))


class TestReducedRelative:
    def test_product_structure_extracted(self):
        rng = np.random.default_rng(27)
        psi_r = random_state_vector(rng, 5)
        psi_a = random_state_vector(rng, 5)
        state = relative_pair(psi_r, psi_a)
        prior = np.zeros(5)
        prior[0] = 1.0
        rho_rel = reduced_relative(twirl_displacement(state, prior))
        expected = np.outer(psi_r, psi_r.conj())
        assert np.max(np.abs(rho_rel.matrix - expected)) < 1e-14

    def test_trace_one(self):
        rng = np.random.default_rng(28)
        state = random_pair(rng, 7)
        rho_rel = reduced_relative(twirl_displacement(state, np.full(7, 1.0 / 7)))
        assert np.trace(rho_rel.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_wrong_basis_rejected(self):
        from relphase import DensityMatrix

        with pytest.raises(ValueError, match="lattice_pair"):
            reduced_relative(DensityMatrix(np.eye(25, dtype=complex) / 25, basis="fock"))


class TestTwirledRelative:
    def test_matches_dense_twirl_then_trace(self):
        rng = np.random.default_rng(38)
        for d in (3, 5, 7, 11, 31):
            priors = shift_prior_family(rng, d)
            for view in ("product", "relative"):
                state = random_pair(rng, d, view=view)
                for prior in priors:
                    dense = reduced_relative(twirl_displacement(state, prior))
                    direct = twirled_relative(state, prior)
                    assert direct.basis == "lattice_rel"
                    assert np.max(np.abs(direct.matrix - dense.matrix)) <= 1e-13

    def test_bad_priors_rejected(self):
        rng = np.random.default_rng(39)
        state = random_pair(rng, 5)
        with pytest.raises(ValueError, match="5 weights"):
            twirled_relative(state, np.full(3, 1.0 / 3))
        with pytest.raises(ValueError, match="nonnegative"):
            twirled_relative(state, np.array([1.5, -0.5, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="sum to 1"):
            twirled_relative(state, np.full(5, 0.3))
        with pytest.raises(ValueError, match="finite"):
            twirled_relative(state, np.array([np.nan, 0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            twirl_displacement(state, np.array([np.inf, 0.0, 0.0, 0.0, 0.0]))


class TestSumGate:
    def test_zero_control_slice_fixed(self):
        rng = np.random.default_rng(30)
        state = random_pair(rng, 5)
        out = sum_gate(state)
        assert np.array_equal(out.amplitudes[0], state.amplitudes[0])

    def test_commutes_with_displacements(self):
        rng = np.random.default_rng(32)
        for d in (5, 7):
            state = random_pair(rng, d)
            for shift in range(d):
                a = sum_gate(displace(state, shift)).amplitudes
                b = displace(sum_gate(state), shift).amplitudes
                assert np.max(np.abs(a - b)) < 1e-12

    def test_is_isometry(self):
        rng = np.random.default_rng(33)
        state = random_pair(rng, 7)
        assert np.linalg.norm(sum_gate(state).amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_momentum_eigenstate_stays_unentangled(self):
        # phase kickback: a momentum eigenstate on the collective register
        # cannot become entangled with the relative register
        rng = np.random.default_rng(34)
        for d in (5, 7):
            psi_r = random_state_vector(rng, d)
            for p in range(d):
                state = relative_pair(psi_r, momentum_eigenstate(d, p))
                out = sum_gate(state)
                singular_values = np.linalg.svd(out.amplitudes, compute_uv=False)
                assert singular_values[1] < 1e-12

    def test_uniform_twirl_commutes_with_gate(self):
        d = 5
        rng = np.random.default_rng(35)
        state = random_pair(rng, d)
        uniform = np.full(d, 1.0 / d)
        twirl_then_gate = twirl_displacement(sum_gate(state), uniform).matrix
        # conjugate the twirled matrix by the gate permutation
        perm = np.array([x_r * d + (x_a + x_r) % d for x_r in range(d) for x_a in range(d)])
        gate = np.zeros((d * d, d * d))
        gate[perm, np.arange(d * d)] = 1.0
        gate_then_twirl = gate @ twirl_displacement(state, uniform).matrix @ gate.T
        assert np.max(np.abs(twirl_then_gate - gate_then_twirl)) < 1e-12

    def test_requires_relative_view(self):
        rng = np.random.default_rng(36)
        with pytest.raises(ValueError, match="relative-view"):
            sum_gate(random_pair(rng, 5, view="product"))


class TestMomentumEigenstate:
    def test_zero_momentum_is_uniform(self):
        vec = momentum_eigenstate(5, 0)
        assert np.allclose(vec, np.full(5, 1 / np.sqrt(5)), atol=1e-15)

    def test_shift_gives_global_phase_only(self):
        for d, p in ((5, 2), (7, 3)):
            vec = momentum_eigenstate(d, p)
            shifted = np.roll(vec, 1)
            assert abs(np.vdot(vec, shifted)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self):
        d = 7
        for p in range(d):
            for q in range(p + 1, d):
                overlap = np.vdot(momentum_eigenstate(d, p), momentum_eigenstate(d, q))
                assert abs(overlap) < 1e-12

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            momentum_eigenstate(4, 1)


def test_product_pair_helper():
    rng = np.random.default_rng(37)
    psi1 = random_state_vector(rng, 5)
    psi2 = random_state_vector(rng, 5)
    state = product_pair(psi1, psi2)
    assert state.view == "product"
    assert np.max(np.abs(state.amplitudes - np.outer(psi1, psi2))) < 1e-15
