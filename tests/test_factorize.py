import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relphase import (
    UNIFORM,
    InsufficientCutoffError,
    SizeLimitError,
    approx_product,
    approx_product_balanced,
    default_cutoff,
    embed_wh,
    factorization_fidelity,
    relative_state_overlap,
    relative_target,
    sweep_fidelity,
    to_blocks,
    twirl_two_mode,
    twirled_hs_distance,
    two_mode_coherent,
)
from relphase.blocks import MAX_GRID_ENTRIES
from relphase.factorize import _product_grid

from conftest import FIXTURES, HAS_VMHWM, cli_peak_mb


def loop_product_grid(nhat, collective_phase, z, n1_max, n2_max):
    """Reference product grid: one block N at a time, Poisson and WH
    amplitudes from their log-factorial formulas."""
    n_top = n1_max + n2_max
    big_n = np.arange(n_top + 1)
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(n_top + 1)])
    if nhat == 0:
        log_p = np.full(n_top + 1, -np.inf)
        log_p[0] = 0.0
    else:
        log_p = -0.5 * nhat + 0.5 * big_n * np.log(nhat) - 0.5 * log_fact
    poisson = np.exp(log_p + 1j * np.angle(collective_phase) * big_n)
    if z == 0:
        w2 = np.zeros(n_top + 1)
        w2[0] = 1.0
        wh = w2.astype(complex)
    else:
        log_w2 = -abs(z) ** 2 + 2.0 * big_n * np.log(abs(z)) - log_fact
        w2 = np.exp(log_w2)
        wh = np.exp(0.5 * log_w2 + 1j * np.angle(z) * big_n)
    w2_cum = np.cumsum(w2)
    grid = np.zeros((n1_max + 1, n2_max + 1), dtype=complex)
    mass = 0.0
    for n_tot in range(n_top + 1):
        k_lo = max(0, n_tot - n2_max)
        k_hi = min(n_tot, n1_max)
        ks = np.arange(k_lo, k_hi + 1)
        grid[ks, n_tot - ks] = poisson[n_tot] * wh[k_lo : k_hi + 1] / np.sqrt(w2_cum[n_tot])
        mass += abs(poisson[n_tot]) ** 2 * w2[k_lo : k_hi + 1].sum() / w2_cum[n_tot]
    return grid, mass


def loop_twirled_hs_distance(state_a, state_b):
    """Reference HS distance: the same residual formula, one BlockState block
    at a time."""
    blocks_a = to_blocks(state_a)
    blocks_b = to_blocks(state_b)
    hs2 = 0.0
    for weight_a, vec_a, weight_b, vec_b in zip(
        blocks_a.weights, blocks_a.vectors, blocks_b.weights, blocks_b.vectors
    ):
        pa = abs(weight_a) ** 2
        pb = abs(weight_b) ** 2
        gram = np.vdot(vec_a, vec_b)
        residual2 = float(np.sum(np.abs(vec_b - gram * vec_a) ** 2))
        overlap2 = abs(gram) ** 2
        hs2 += (
            (pa - pb * overlap2) ** 2
            + 2.0 * pb * pb * overlap2 * residual2
            + pb * pb * residual2 * residual2
        )
    return math.sqrt(max(hs2, 0.0))


def loop_relative_state_overlap(state, z):
    """Reference overlap: embed_wh(z, N) rebuilt for every populated block."""
    blocks = to_blocks(state)
    numerator = 0.0
    denominator = 0.0
    for big_n, (weight, vec) in enumerate(zip(blocks.weights, blocks.vectors)):
        mass = abs(weight) ** 2
        if mass == 0.0:
            continue
        numerator += mass * abs(np.vdot(vec, embed_wh(z, big_n))) ** 2
        denominator += mass
    return numerator / denominator


@st.composite
def grid_pairs(draw):
    """Two normalized complex grids of one shape, 1x1 up to 8x60: independent,
    nearly identical or sharing their sector masses, with sector masses
    spread over up to 20 decades (like Poisson tails) and some total-number
    sectors emptied in one or both."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big_n = np.add.outer(np.arange(shape[0]), np.arange(shape[1]))

    def complex_grid():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    state_a = complex_grid()
    kind = draw(st.sampled_from(["independent", "near", "phase"]))
    if kind == "independent":
        state_b = complex_grid()
    elif kind == "near":
        state_b = state_a + 10.0 ** -draw(st.integers(3, 13)) * complex_grid()
    else:
        state_b = state_a * np.exp(1j * rng.uniform(0, 2 * np.pi, big_n.max() + 1))[big_n]
    n_sectors = sum(shape) - 1
    if draw(st.booleans()):
        decades = rng.uniform(0.0, 20.0, n_sectors)[big_n]
        state_a *= 10.0**-decades
        state_b *= 10.0**-decades
    sectors = st.lists(st.integers(0, n_sectors - 1), max_size=n_sectors)
    for state in (state_a, state_b):
        state[np.isin(big_n, draw(sectors))] = 0.0
        if not state.any():
            state[0, 0] = 1.0
        state /= np.linalg.norm(state)
    return state_a, state_b


@settings(max_examples=200, deadline=None)
@given(pair=grid_pairs())
def test_twirled_hs_distance_matches_block_loop(pair):
    state_a, state_b = pair
    want = loop_twirled_hs_distance(state_a, state_b)
    assert abs(twirled_hs_distance(state_a, state_b) - want) <= 1e-13
    assert abs(twirled_hs_distance(state_a, state_a)) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(
    pair=grid_pairs(),
    z_mag=st.floats(0.0, 3.0),
    z_phase=st.floats(0.0, 2 * np.pi),
)
def test_relative_state_overlap_matches_block_loop(pair, z_mag, z_phase):
    state = pair[0]
    z = z_mag * np.exp(1j * z_phase)
    want = loop_relative_state_overlap(state, z)
    assert abs(relative_state_overlap(state, z) - want) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(
    nhat=st.floats(0.0, 50.0),
    phase=st.floats(0.0, 2 * np.pi),
    z_mag=st.floats(0.0, 3.0),
    z_phase=st.floats(0.0, 2 * np.pi),
    n1_max=st.integers(0, 7),
    n2_max=st.integers(0, 59),
)
def test_product_grid_matches_block_loop(nhat, phase, z_mag, z_phase, n1_max, n2_max):
    args = (nhat, np.exp(1j * phase), z_mag * np.exp(1j * z_phase), n1_max, n2_max)
    grid, mass = _product_grid(*args)
    want_grid, want_mass = loop_product_grid(*args)
    assert np.max(np.abs(grid - want_grid)) <= 1e-13
    assert abs(mass - want_mass) <= 1e-13


class TestApproxProduct:
    def test_zero_alpha_is_exact(self):
        beta = 2.0
        grid = approx_product(0, beta)
        exact = two_mode_coherent(0, beta, grid.shape[0] - 1, grid.shape[1] - 1)
        exact /= np.linalg.norm(exact)
        assert abs(np.vdot(exact, grid)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            approx_product(1.0, 0.0)

    def test_block_profiles_independent_of_total_number(self):
        alpha, beta = 1.5, 5.0
        grid = approx_product(alpha, beta)
        blocks = to_blocks(grid)
        guard = math.ceil(abs(alpha) ** 2 + 10 * abs(alpha) + 10)
        v_a = blocks.vectors[guard + 5]
        v_b = blocks.vectors[guard + 20]
        width = min(v_a.size, v_b.size)
        assert np.max(np.abs(v_a[:width] - v_b[:width])) < 1e-12

    def test_block_profiles_match_wh_target(self):
        alpha = 0.9 * np.exp(0.6j)
        beta = 3.0 * np.exp(-0.2j)
        grid = approx_product(alpha, beta)
        z = relative_target(alpha, beta)
        assert relative_state_overlap(grid, z) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_meets_oracle_threshold(self, oracle):
        case = next(c for c in oracle["factorization_sweep_alpha1"] if c["beta_mag"] == 16)
        grid = approx_product(1, 16)
        exact = two_mode_coherent(1, 16, grid.shape[0] - 1, grid.shape[1] - 1)
        exact /= np.linalg.norm(exact)
        fidelity = abs(np.vdot(exact, grid)) ** 2
        assert fidelity == pytest.approx(case["pure_fidelity"], abs=1e-9)
        assert fidelity >= case["pure_fidelity"] - 1e-9


class TestApproxProductBalanced:
    def test_zero_alpha_gives_vacuum(self):
        grid = approx_product_balanced(0, 0.7)
        assert grid[0, 0] == 1.0
        assert np.count_nonzero(grid) == 1

    def test_target_magnitude_is_sqrt2_alpha(self):
        alpha = 2.0 * np.exp(0.3j)
        phi_r = 0.7
        grid = approx_product_balanced(alpha, phi_r)
        blocks = to_blocks(grid)
        z = math.sqrt(2) * abs(alpha) * np.exp(1j * phi_r)
        # any block inside the untruncated square (N <= n_max) carries the
        # full profile
        big_n = 30
        overlap = abs(np.vdot(blocks.vectors[big_n], embed_wh(z, big_n)))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_balanced_regime_inferior_at_matched_mean(self, oracle):
        balanced = oracle["balanced_case_alpha4"]
        asymmetric = oracle["asymmetric_case_nhat32"]

        grid = approx_product_balanced(4.0, 0.0)
        exact = two_mode_coherent(4.0, 4.0, grid.shape[0] - 1, grid.shape[1] - 1)
        exact /= np.linalg.norm(exact)
        fidelity = abs(np.vdot(exact, grid)) ** 2
        assert fidelity == pytest.approx(balanced["pure_fidelity"], abs=1e-9)

        report = factorization_fidelity(1.0, math.sqrt(31))
        assert report.pure_fidelity == pytest.approx(asymmetric["pure_fidelity"], abs=1e-9)
        # same total photon number, wildly different quality
        assert fidelity < report.pure_fidelity

    def test_balanced_fidelity_degrades_with_alpha(self):
        # the fixed profile cannot track the sqrt(N) drift of the true
        # blocks, so growing |alpha| makes the balanced comparison worse
        fidelities = []
        for mag in (1.0, 2.0, 4.0):
            grid = approx_product_balanced(mag, 0.0)
            n_max = grid.shape[0] - 1
            exact = two_mode_coherent(mag, mag, n_max, n_max)
            exact /= np.linalg.norm(exact)
            fidelities.append(abs(np.vdot(exact, grid)) ** 2)
        assert fidelities[0] > fidelities[1] > fidelities[2]


class TestTwirledHsDistance:
    def test_identical_states(self):
        grid = two_mode_coherent(0.7, 1.0, 10, 12)
        grid /= np.linalg.norm(grid)
        assert twirled_hs_distance(grid, grid) == pytest.approx(0.0, abs=1e-14)

    def test_matches_dense_twirl(self):
        # dual route: the per-block formula against explicitly built
        # block-basis density matrices
        exact = two_mode_coherent(0.6, 1.2, 8, 12)
        exact /= np.linalg.norm(exact)
        approx = approx_product(0.6, 1.2, 8, 12)
        dense_a = twirl_two_mode(exact, UNIFORM).matrix
        dense_b = twirl_two_mode(approx, UNIFORM).matrix
        dense = float(np.linalg.norm(dense_a - dense_b))
        assert twirled_hs_distance(exact, approx) == pytest.approx(dense, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            twirled_hs_distance(np.zeros((3, 3)), np.zeros((3, 4)))


class TestFactorizationFidelity:
    def test_zero_alpha_exact(self):
        report = factorization_fidelity(0, 3.0)
        assert report.pure_fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.twirled_hs_distance == pytest.approx(0.0, abs=1e-12)
        assert report.condition_ratio == math.inf

    def test_condition_ratio(self):
        report = factorization_fidelity(1, 16)
        assert report.condition_ratio == 257.0
        assert report.n1_max == 21
        assert report.n2_max == 426

    def test_insufficient_cutoffs_raise(self):
        with pytest.raises(InsufficientCutoffError):
            factorization_fidelity(1, 4, n1_max=2, n2_max=5)

    def test_phase_covariance(self):
        base = factorization_fidelity(1.0, 2.5 * np.exp(0.4j))
        rng = np.random.default_rng(19)
        for _ in range(20):
            phase = np.exp(-1j * rng.uniform(0, 2 * np.pi))
            rotated = factorization_fidelity(phase * 1.0, phase * 2.5 * np.exp(0.4j))
            assert abs(rotated.pure_fidelity - base.pure_fidelity) < 1e-10
            assert abs(rotated.twirled_hs_distance - base.twirled_hs_distance) < 1e-10


class TestSweep:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sweep_fidelity(1.0, [])

    def test_zero_alpha_sweep_all_exact(self):
        for report in sweep_fidelity(0, [2, 4]):
            assert report.pure_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_convergence_matches_oracle(self, oracle):
        grid = oracle["factorization_beta_grid"]
        cases = oracle["factorization_sweep_alpha1"]
        reports = sweep_fidelity(1, grid)
        fidelities = [r.pure_fidelity for r in reports]
        distances = [r.twirled_hs_distance for r in reports]
        assert all(b > a for a, b in zip(fidelities, fidelities[1:]))
        assert all(b < a for a, b in zip(distances, distances[1:]))
        for report, case in zip(reports, cases):
            assert report.n1_max == case["n1_max"]
            assert report.n2_max == case["n2_max"]
            assert report.pure_fidelity == pytest.approx(case["pure_fidelity"], abs=1e-9)
            assert report.twirled_hs_distance == pytest.approx(
                case["twirled_hs_distance"], abs=1e-9
            )
            assert report.relative_state_overlap == pytest.approx(
                case["relative_state_overlap"], abs=1e-9
            )
        assert 1.0 - fidelities[-1] < oracle["factorization_infidelity_threshold_beta32"]


class TestUnderflow:
    """|z| = 28: every WH weight w_k with k <= N underflows for the lowest N,
    so W_N = 0 and the block formula reads 0/0 there."""

    def test_product_grid_zeroes_underflowed_blocks(self):
        args = (28.0**2 + 30.0**2, 1.0, 28.0, 1074, 10)
        with np.errstate(invalid="ignore"):
            want, _ = loop_product_grid(*args)
        grid, mass = _product_grid(*args)
        lost = np.isnan(want)
        assert lost.any()
        assert np.all(grid[lost] == 0.0)
        assert np.max(np.abs(grid[~lost] - want[~lost])) <= 1e-13
        assert math.isfinite(mass)

    def test_report_is_finite(self):
        report = factorization_fidelity(28.0, 30.0)
        values = (report.pure_fidelity, report.twirled_hs_distance, report.relative_state_overlap)
        assert all(math.isfinite(value) for value in values)
        assert 0.0 < report.pure_fidelity <= 1.0


class TestStressOracle:
    """mpmath rows at |beta| = 64 and 100, where the BlockState route held a
    quadratic number of block entries."""

    CASES = json.loads((FIXTURES / "oracle_stress.json").read_text())["factorization_stress_alpha1"]

    @pytest.mark.parametrize("case", CASES, ids=[f"beta{c['beta_mag']}" for c in CASES])
    def test_report_matches_oracle(self, case):
        report = factorization_fidelity(1, case["beta_mag"])
        assert (report.n1_max, report.n2_max) == (case["n1_max"], case["n2_max"])
        for name in ("pure_fidelity", "twirled_hs_distance", "relative_state_overlap"):
            assert getattr(report, name) == pytest.approx(case[name], abs=1e-9)

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs Linux VmHWM")
    def test_sweep_memory_is_linear_in_the_grid(self, tmp_path):
        # The grid is 22 x 11011 (3.9 MB); a BlockState of it held 2.15 GB.
        args = ["factorize-sweep", "--alpha", "1", "--beta-list", "100"]
        assert cli_peak_mb(*args, "--out", str(tmp_path / "sweep.csv")) < 100


class TestInputLimits:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: default_cutoff(math.inf),
            lambda: default_cutoff(math.nan),
            lambda: relative_target(1.0, complex(math.nan, 0)),
            lambda: factorization_fidelity(math.inf, 2.0),
            lambda: factorization_fidelity(1.0, complex(math.nan, math.nan)),
            lambda: approx_product_balanced(1.0, math.nan),
        ],
        ids=["cutoff-inf", "cutoff-nan", "target-nan", "alpha-inf", "beta-nan", "balanced-phase"],
    )
    def test_non_finite_input_rejected(self, call):
        with pytest.raises(ValueError, match="finite"):
            call()

    def test_overflowing_cutoff_is_size_error(self):
        with pytest.raises(SizeLimitError, match="overflows"):
            default_cutoff(1e200)

    def test_oversize_grid_refused_before_allocation(self):
        # each grid is within 22 entries of the limit, so a missing guard
        # would allocate about 140 MB, not tens of GB
        with pytest.raises(SizeLimitError, match="limit"):
            two_mode_coherent(1.0, 1.0, 0, MAX_GRID_ENTRIES)
        n2_max = MAX_GRID_ENTRIES // 22
        with pytest.raises(SizeLimitError, match="limit"):
            approx_product(1.0, 620.0, n1_max=21, n2_max=n2_max)
        with pytest.raises(SizeLimitError, match="limit"):
            factorization_fidelity(1.0, 620.0)
