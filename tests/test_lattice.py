import json
import math
import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relphase import (
    Observable,
    QuditPairState,
    SizeLimitError,
    displace,
    expectation,
    fidelity_pure_mixed,
    from_relative_basis,
    momentum_eigenstate,
    parse_prior,
    product_pair,
    purity,
    random_commutant_observable,
    reduced_relative,
    relative_pair,
    shift_prior,
    sum_gate,
    to_relative_basis,
    twirl_displacement,
    twirl_single_mode,
    twirl_two_mode,
    twirled_relative,
    von_mises_prior,
)
from relphase.lattice import PairTwirl, _pair_labels
from relphase.twirl import PhaseTwirl

from conftest import FIXTURES, HAS_VMHWM, assert_refused, peak_mb, random_state_vector

STRESS = json.loads((FIXTURES / "oracle_stress.json").read_text())
LATTICE_CHI, LATTICE_PURITY = STRESS["lattice_chi"], STRESS["lattice_purity"]


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


@st.composite
def pairs_and_shift_weights(draw):
    """A random pair state with d <= 9 in either view and random shift
    weights, exact zeros included, not yet normalized: every weight vector
    up to scale, as the largest weight is 1."""
    d = draw(st.sampled_from([3, 5, 7, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_pair(rng, d, view=draw(st.sampled_from(["product", "relative"])))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    weights[draw(st.integers(0, d - 1))] = 1.0
    return state, weights


def roll_pair_entries(rho, rows, cols):
    """Reference: PairTwirl.entries as it was before it read the shifted
    amplitudes by index arithmetic, one np.roll of the whole grid per
    support point."""
    out = np.zeros(np.shape(rows), dtype=complex)
    for shift in np.flatnonzero(rho.weights):
        ket = np.roll(rho.amplitudes, 2 * shift, axis=1).ravel()
        out += rho.weights[shift] * (ket[rows] * ket[cols].conj())
    return out


def seeded_psd_examples(test):
    """A d = 3 and then a d = 7 state and shift weights from one seeded
    stream, as explicit examples of the positivity property."""
    rng = np.random.default_rng(25)
    for d in (3, 7):
        state = random_pair(rng, d)
        test = example(case=(state, rng.uniform(0.1, 1.0, d)))(test)
    return test


class TestStateConstruction:
    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            QuditPairState(np.eye(4, dtype=complex) / 2.0)
        with pytest.raises(ValueError, match="must form a square grid"):
            QuditPairState(np.full((3, 5), 1 / np.sqrt(15), dtype=complex))

    def test_oversize_dimension_rejected(self):
        # a read-only view: the check comes before any entry is read
        grid = np.broadcast_to(np.zeros(1, dtype=complex), (2897, 2897))
        with pytest.raises(SizeLimitError, match="2897 x 2897"):
            QuditPairState(grid)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            QuditPairState(np.ones((3, 3), dtype=complex))

    def test_exactly_normalized_large_grid_accepted(self):
        # a million equal terms of 1/1001: a BLAS dot read this norm 1.2e-12
        # off, and the pairwise sum reads it exactly
        psi = momentum_eigenstate(1001, 0)
        assert product_pair(psi, psi).d == 1001

    def test_large_grid_off_by_1e_11_rejected(self):
        psi = momentum_eigenstate(1001, 0)
        grid = np.outer(psi, psi) * (1 + 1e-11)
        with pytest.raises(ValueError, match="^pair state must be normalized to 1e-12$"):
            QuditPairState(grid)

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            QuditPairState(np.full((3, 3), np.nan, dtype=complex))

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
        with pytest.raises(ValueError, match="^view mismatch: 'relative' vs 'product'$"):
            to_relative_basis(random_pair(rng, 5, view="relative"))
        with pytest.raises(ValueError, match="^view mismatch: 'product' vs 'relative'$"):
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

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from(range(3, 32, 2)),
        prior_index=st.integers(0, 4),
        view=st.sampled_from(["product", "relative"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reads_match_the_pair_matrix(self, d, prior_index, view, seed):
        # purity and overlaps come from the phase twirl over collective
        # momentum and entries from the shifted amplitudes, all read before
        # the matrix exists
        rng = np.random.default_rng(seed)
        state = random_pair(rng, d, view=view)
        rho = twirl_displacement(state, shift_prior_family(rng, d)[prior_index])
        kets = [rho.amplitudes.ravel(), random_state_vector(rng, d * d)]
        rows, cols = rng.integers(0, d * d, (2, 200))
        value = purity(rho)
        fidelities = [fidelity_pure_mixed(ket, rho) for ket in kets]
        entries = rho.entries(rows, cols)
        assert "matrix" not in vars(rho)
        m = rho.matrix
        assert abs(value - np.sum(m * m.T).real) <= 1e-15
        for ket, fidelity in zip(kets, fidelities):
            assert abs(fidelity - np.vdot(ket, m @ ket).real) <= 1e-15
        assert np.max(np.abs(entries - m[rows, cols])) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([3, 5, 7, 31]),
        prior_index=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entries_match_roll_reference(self, d, prior_index, seed):
        # every entry of the matrix for d <= 7, 2000 random ones at d = 31
        rng = np.random.default_rng(seed)
        rho = twirl_displacement(random_pair(rng, d), shift_prior_family(rng, d)[prior_index])
        if d <= 7:
            rows, cols = np.indices((d * d, d * d)).reshape(2, -1)
        else:
            rows, cols = rng.integers(0, d * d, (2, 2000))
        assert np.array_equal(rho.entries(rows, cols), roll_pair_entries(rho, rows, cols))

    def test_reads_build_no_matrix(self, monkeypatch):
        def refuse(rho):
            raise AssertionError(f"{type(rho).__name__}.matrix was read")

        monkeypatch.setattr(PhaseTwirl, "matrix", property(refuse))
        monkeypatch.setattr(PairTwirl, "matrix", property(refuse))
        rng = np.random.default_rng(21)
        prior = parse_prior("vonmises:4")
        single = twirl_single_mode(random_state_vector(rng, 6), prior)
        two_mode = twirl_two_mode(random_state_vector(rng, 12).reshape(3, 4), prior)
        pair = twirl_displacement(random_pair(rng, 5), shift_prior("vonmises:4", 5))
        raw = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
        index = tuple(np.indices((25, 25)).reshape(2, -1))
        hermitian = Observable(index, (raw + raw.conj().T)[index], 25, "lattice_pair")
        cases = [
            (single, single.psi, random_commutant_observable(5, 1)),
            (two_mode, two_mode.psi, random_commutant_observable(5, 2, "block")),
            (pair, pair.amplitudes.ravel(), hermitian),
        ]
        for rho, ket, observable in cases:
            assert 0.0 < purity(rho) <= 1.0
            assert 0.0 < fidelity_pure_mixed(ket, rho) <= 1.0
            assert math.isfinite(expectation(observable, rho))

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

    @settings(max_examples=60, deadline=None)
    @given(case=pairs_and_shift_weights())
    @seeded_psd_examples
    def test_output_is_hermitian_trace_one_psd(self, case):
        state, weights = case
        rho = twirl_displacement(state, weights / weights.sum()).matrix
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10

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

    def test_momentum_twirl_has_its_own_basis(self):
        # its flat index is x_r * d + p, not x_r * d + x_a, so a pair-basis
        # observable, which reads 2/3 from the pair twirl, must not read it
        state = relative_pair(np.eye(3)[0], np.full(3, 3**-0.5))
        rho = twirl_displacement(state, np.full(3, 1 / 3))
        obs = Observable((np.array([0, 1]), np.array([1, 0])), np.ones(2), 9, "lattice_pair")
        assert rho.momentum_twirl.basis == "lattice_momentum"
        assert expectation(obs, rho) == pytest.approx(2 / 3, abs=1e-15)
        assert_refused(lambda: expectation(obs, rho.momentum_twirl), ValueError, "basis mismatch")


def einsum_reduced_relative(rho) -> np.ndarray:
    """The partial trace over x_a of the dense d^2 x d^2 pair matrix: the
    reference for the reduced state read off the amplitudes."""
    d = rho.amplitudes.shape[0]
    return np.einsum("iaja->ij", rho.matrix.reshape(d, d, d, d))


class TestReducedRelativeFromAmplitudes:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([3, 5, 7, 9, 11, 15, 21, 31]),
        view=st.sampled_from(["product", "relative"]),
        seed=st.integers(0, 2**32 - 1),
        support=st.floats(0.0, 1.0),
    )
    def test_matches_trace_of_dense_matrix(self, d, view, seed, support):
        rng = np.random.default_rng(seed)
        prior = rng.uniform(0.0, 1.0, d) * (rng.uniform(0.0, 1.0, d) < support)
        prior[rng.integers(d)] += 1.0
        prior /= prior.sum()
        rho = twirl_displacement(random_pair(rng, d, view=view), prior)
        reduced = reduced_relative(rho)
        assert reduced.basis == "lattice_rel"
        assert np.max(np.abs(reduced.matrix - einsum_reduced_relative(rho))) <= 1e-13

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs Linux VmHWM")
    def test_no_pair_matrix_built(self):
        # the dense d^2 x d^2 twirl and its stack of shifted copies took
        # about 1.7 GB
        code = (
            "import numpy as np\n"
            "from relphase import QuditPairState, reduced_relative, shift_prior\n"
            "from relphase import twirl_displacement\n"
            "d = 101\n"
            "state = QuditPairState(np.eye(d, dtype=complex) / np.sqrt(d), view='relative')\n"
            "reduced_relative(twirl_displacement(state, shift_prior('vonmises:4', d)))\n"
        )
        assert peak_mb(code) < 100


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


class TestShiftPrior:
    def test_uniform(self):
        assert np.array_equal(shift_prior("uniform", 7), np.full(7, 1.0 / 7))

    def test_point_shift_truncates_then_wraps(self):
        # int(-1.5) = -1, which is shift 4 mod 5
        assert np.array_equal(shift_prior("point:-1.5", 5), np.eye(5)[4])

    def test_two_point_weights_of_equal_shifts_add(self):
        assert np.array_equal(shift_prior("twopoint:0,5", 5), np.eye(5)[0])
        assert np.array_equal(shift_prior("twopoint:1,3", 5), [0.0, 0.5, 0.0, 0.5, 0.0])

    @pytest.mark.parametrize("kappa", [4.0, -3.0, 0.0, 1e4])
    @pytest.mark.parametrize("d", [3, 5, 31])
    def test_von_mises_is_the_phase_prior_on_d_angles(self, kappa, d):
        expected = von_mises_prior(kappa, n_points=d).weights
        assert np.array_equal(shift_prior(f"vonmises:{kappa!r}", d), expected)

    def test_grid_rows_accumulate(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("# shift,weight\n0,0.25\n\n5,0.25\n-3,0.5\n")
        assert np.array_equal(shift_prior(f"grid:{path}", 5), [0.5, 0.0, 0.5, 0.0, 0.0])

    @pytest.mark.parametrize("spec", ["point:inf", "point:-inf", "twopoint:0,nan"])
    def test_non_finite_shift_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            shift_prior(spec, 5)

    def test_non_finite_grid_shift_rejected(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("inf,1\n")
        with pytest.raises(ValueError, match="finite"):
            shift_prior(f"grid:{path}", 5)


@pytest.mark.parametrize("spec", ["uniform:3", "gaussian:1", "twopoint:1"])
def test_phase_and_shift_priors_share_one_grammar(spec):
    with pytest.raises(ValueError) as phase:
        parse_prior(spec)
    with pytest.raises(ValueError) as shift:
        shift_prior(spec, 5)
    assert str(shift.value) == str(phase.value).replace("angles", "shifts")


@pytest.mark.parametrize("spec, d", sorted({(row["prior"], row["d"]) for row in LATTICE_CHI}))
def test_pair_twirl_chi_matches_mpmath_rows(spec, d):
    # chi is the DFT of the shift weights, so no lag's angle is rounded:
    # within 5e-16 of the 40-digit rows at every lag; chi(0) is exactly 1,
    # and chi(-m) is the conjugate of chi(m), bit for bit
    state = QuditPairState(np.eye(1, d * d).reshape(d, d), view="relative")
    chi = twirl_displacement(state, shift_prior(spec, d)).momentum_twirl.chi
    assert chi.shape == (2 * d - 1,) and chi[d - 1] == 1.0
    assert np.array_equal(chi[: d - 1][::-1], chi[d:].conj())
    rows = [row for row in LATTICE_CHI if (row["prior"], row["d"]) == (spec, d)]
    assert len(rows) == 6
    for row in rows:
        assert abs(chi[d - 1 + row["lag"]] - complex(row["re"], row["im"])) <= 5e-16


def unit_by_exact_sum(x: np.ndarray) -> np.ndarray:
    return x / math.sqrt(math.fsum(np.abs(x.ravel()) ** 2))


def formula_pair(kind: str, d: int) -> QuditPairState:
    """The formula-built states of the ``lattice_purity`` rows
    (tools/make_fixtures.py), in the relative view: "relative" is
    (1 + r/d) exp(4 cos(2 pi (a - 3r) / d) + 2 pi i r a / d) over
    (x_r, x_a) = (r, a), "product" the product of 1 + r/d and
    exp(16 cos(2 pi a / d) + 2 pi i a^2 / d); each angle is reduced mod d
    as an integer first."""
    r, a = np.arange(d)[:, None], np.arange(d)
    if kind == "relative":
        angles = 4 * np.cos(2 * np.pi * ((a - 3 * r) % d) / d) + 2j * np.pi * (r * a % d) / d
        return QuditPairState(unit_by_exact_sum((1 + r / d) * np.exp(angles)), "relative")
    profile = np.exp(16 * np.cos(2 * np.pi * a / d) + 2j * np.pi * (a * a % d) / d)
    return relative_pair(unit_by_exact_sum(1 + a / d), unit_by_exact_sum(profile))


def test_pair_twirl_reads_match_mpmath_rows():
    # purity and fidelity to the input of pair twirls of formula states,
    # against 40-digit sums from the exact shift weights: every row within
    # 1e-15, and the worst error is reported
    worst, where = 0.0, None
    for (kind, d), rows in groupby(LATTICE_PURITY, key=lambda row: (row["state"], row["d"])):
        state = formula_pair(kind, d)
        for row in rows:
            rho = twirl_displacement(state, shift_prior(row["prior"], d))
            reads = {"purity": purity(rho), "fidelity": fidelity_pure_mixed(state.amplitudes.ravel(), rho)}
            for name, value in reads.items():
                if abs(value - row[name]) >= worst:
                    worst, where = abs(value - row[name]), (kind, d, row["prior"], name)
    print(f"worst error {worst:.3g} at {where}")
    assert len(LATTICE_PURITY) == 9
    assert worst <= 1e-15, f"worst error {worst:.3g} at {where}"


@pytest.mark.parametrize("d", [3, 5, 7, 31, 101])
def test_pair_labels_match_index_grid_form(d):
    x1, x2 = np.indices((d, d))
    for got, want in zip(_pair_labels(d), ((x1 - x2) % d, (x1 + x2) % d)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


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

    def test_builds_one_label_grid(self):
        # at d = 1001 the output is a 16 MB grid and its one int64 label
        # grid, (x_a + x_r) mod d, 8 MB
        d = 1001
        state = random_pair(np.random.default_rng(38), d)
        tracemalloc.start()
        try:
            out = sum_gate(state).amplitudes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * d * d + 2**20
        # row x_r of the output is row x_r of the input rolled by x_r
        assert all(np.array_equal(out[r], np.roll(state.amplitudes[r], r)) for r in range(d))

    def test_requires_relative_view(self):
        rng = np.random.default_rng(36)
        with pytest.raises(ValueError, match="^view mismatch: 'product' vs 'relative'$"):
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
        # p = 1.5 gave a unit vector with |<v|S v>| = 0.6, no shift eigenvector
        with pytest.raises(ValueError, match="^momentum p must be an integer, got 1.5$"):
            momentum_eigenstate(5, 1.5)
        assert np.array_equal(momentum_eigenstate(5, np.int64(2)), momentum_eigenstate(5, 2))

    def test_oversize_dimension_rejected(self):
        with pytest.raises(SizeLimitError, match="a 2897 x 2897 grid has 8392609 entries"):
            momentum_eigenstate(2897, 0)
        momentum_eigenstate(2895, 0)


def test_product_pair_helper():
    rng = np.random.default_rng(37)
    psi1 = random_state_vector(rng, 5)
    psi2 = random_state_vector(rng, 5)
    state = product_pair(psi1, psi2)
    assert state.view == "product"
    assert np.max(np.abs(state.amplitudes - np.outer(psi1, psi2))) < 1e-15
