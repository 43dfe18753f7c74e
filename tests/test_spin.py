import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relphase import (
    SizeLimitError,
    contraction_overlap,
    embed_wh,
    params_from_modes,
    spin_coherent,
    to_blocks,
    two_mode_coherent,
)
from relphase.spin import MAX_SPIN_N, _log_spin_profile, _log_wh_window

from conftest import FIXTURES

STRESS_FIXTURES = json.loads((FIXTURES / "oracle_stress.json").read_text())
STRESS = STRESS_FIXTURES["contraction_overlap_stress"]
PROFILE_ROWS = STRESS_FIXTURES["contraction_overlap_profile"]
SPIN_PROFILE_ROWS = STRESS_FIXTURES["spin_log_profile"]
# math.lgamma(k + 1) for k = 0..200000, the largest N the window test draws
LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(200_001)])


def full_contraction_overlap(z, big_n):
    """Reference: the full-length overlap the windowed one replaced, with
    both length-(N+1) profiles built from math.lgamma differences.  Gives
    NaN once every WH weight up to N underflows (|z| above about 27)."""
    lgam = np.array([math.lgamma(k + 1.0) for k in range(big_n + 1)])
    k = np.arange(big_n + 1)
    mag = abs(z)
    wh = np.exp(-0.5 * mag * mag + k * np.log(mag) - 0.5 * lgam + 1j * np.angle(z) * k)
    wh = wh / np.linalg.norm(wh)
    xi = z / math.sqrt(big_n)
    log_binom = lgam[big_n] - lgam - lgam[::-1]
    spin = np.exp(
        0.5 * log_binom + k * np.log(abs(xi)) - 0.5 * big_n * np.log1p(abs(xi) ** 2)
        + 1j * np.angle(xi) * k
    )
    return min(float(abs(np.vdot(wh, spin)) ** 2), 1.0)


class TestParamsFromModes:
    def test_one_empty_mode(self):
        assert params_from_modes(0, 1).xi == 0

    def test_balanced_common_phase_cancels(self):
        params = params_from_modes(1, 1)
        assert abs(params.xi) == 1.0
        assert params.phi_r == 0.0

    def test_relative_phase_and_ratio(self):
        params = params_from_modes(1 * np.exp(-0.3j), 2 * np.exp(-0.1j))
        assert params.phi_r == pytest.approx(-0.2, abs=1e-12)
        assert abs(params.xi) == pytest.approx(0.5, abs=1e-12)

    def test_theta_consistent_with_xi(self):
        params = params_from_modes(1.3 * np.exp(0.7j), 2.1 * np.exp(-0.4j))
        assert abs(math.tan(params.theta / 2)) == pytest.approx(abs(params.xi), abs=1e-12)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            params_from_modes(1.0, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_amplitude_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="must be finite, got"):
            params_from_modes(alpha, beta)


class TestSpinCoherent:
    def test_south_pole(self):
        vec = spin_coherent(6, 0)
        assert vec[0] == 1.0
        assert np.all(vec[1:] == 0)

    def test_hand_evaluated_example(self):
        # brute force: sqrt(binom(2,k)) 2^{-1} 1^k = (1/2, 1/sqrt(2), 1/2)
        vec = spin_coherent(2, 1)
        assert np.allclose(vec, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-14)

    def test_matches_direct_binomial_formula(self):
        xi = 0.7 * np.exp(1.2j)
        big_n = 18
        vec = spin_coherent(big_n, xi)
        for k in range(big_n + 1):
            direct = (
                math.sqrt(math.comb(big_n, k)) * (1 + abs(xi) ** 2) ** (-big_n / 2) * xi**k
            )
            assert abs(vec[k] - direct) < 1e-13

    def test_unit_norm_large_sizes(self):
        for big_n, xi in ((500, 0.3 * np.exp(1j)), (1200, 2.5), (2000, 10.0), (2000, 1e-3j)):
            assert np.linalg.norm(spin_coherent(big_n, xi)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            spin_coherent(-1, 0.2)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_parameter_rejected(self, xi):
        with pytest.raises(ValueError, match="must be finite, got"):
            spin_coherent(5, xi)

    def test_extreme_parameters(self):
        # |xi|^2 over- and underflows, and the terms that stay representable
        # come out of exp(-460), which carries 460 ulps of its argument
        root3 = math.sqrt(3) * 1e-200
        np.testing.assert_allclose(spin_coherent(3, 1e200), [0, 0, root3, 1], rtol=1e-13)
        np.testing.assert_allclose(spin_coherent(3, 1e-200), [1, root3, 0, 0], rtol=1e-13)


class TestEmbedWh:
    def test_vacuum(self):
        vec = embed_wh(0, 8)
        assert vec[0] == 1.0
        assert np.all(vec[1:] == 0)

    def test_renormalization_negligible_past_guard(self, oracle):
        # Poisson tails at the 10-sigma guard, from the brute-force script
        assert oracle["poisson_tail_mean1_n21"] < 1e-10
        assert oracle["poisson_tail_mean4_n34"] < 1e-10
        for z, big_n in ((1.0, 21), (2.0, 34)):
            raw = np.exp(-abs(z) ** 2 / 2) * np.array(
                [z**k / math.sqrt(math.factorial(k)) for k in range(big_n + 1)]
            )
            factor = 1.0 / np.linalg.norm(raw)
            assert abs(factor - 1.0) < 1e-10
            assert np.allclose(embed_wh(z, big_n), raw * factor, atol=1e-14)

    def test_self_overlap(self):
        vec = embed_wh(1, 10)
        assert abs(np.vdot(vec, vec)) == pytest.approx(1.0, abs=1e-14)


class TestContractionOverlap:
    def test_zero_amplitude_is_exact(self):
        for big_n in (1, 5, 50, 400):
            assert contraction_overlap(0, big_n) == 1.0

    def test_growth_between_grid_points(self, oracle):
        values = oracle["contraction_overlap_z1"]
        assert contraction_overlap(1, 400) > contraction_overlap(1, 100)
        assert values["400"] > values["100"]

    def test_matches_oracle_grid(self, oracle):
        for n_text, expected in oracle["contraction_overlap_z1"].items():
            assert contraction_overlap(1, int(n_text)) == pytest.approx(expected, abs=1e-10)

    def test_large_size_threshold(self, oracle):
        value = contraction_overlap(1, 10_000)
        assert 1.0 - value < 1e-3
        assert value == pytest.approx(oracle["contraction_overlap_z1_n10000"], abs=1e-10)

    def test_nondecreasing_with_rate_constant(self, oracle):
        grid = oracle["contraction_n_grid"]
        c = oracle["contraction_rate_constant"]
        for z in (0.5, 1.0, 2.0, 2.0 * np.exp(0.8j)):
            values = [contraction_overlap(z, big_n) for big_n in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))
            for big_n, value in zip(grid, values):
                assert value > 1.0 - c / big_n

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            contraction_overlap(1, 0)

    def test_oversize_refused_before_allocation(self):
        with pytest.raises(SizeLimitError, match="limit"):
            contraction_overlap(1, MAX_SPIN_N + 1)

    @settings(max_examples=150, deadline=None)
    @given(
        mag=st.floats(1e-3, 20.0),
        phase=st.floats(-math.pi, math.pi),
        big_n=st.integers(1, 10_000),
    )
    def test_window_matches_full_length_reference(self, mag, phase, big_n):
        # the reference's log binomials are differences of lgamma(N+1)-sized
        # numbers, so it carries a few ulps of lgamma(N+1)
        z = mag * complex(math.cos(phase), math.sin(phase))
        tol = 1e-13 + 1e-15 * math.lgamma(big_n + 1.0)
        assert contraction_overlap(z, big_n) == pytest.approx(
            full_contraction_overlap(z, big_n), abs=tol
        )

    @settings(max_examples=150, deadline=None)
    @given(mag=st.floats(1e-6, 1000.0), big_n=st.integers(1, 200_000))
    def test_entries_outside_window_underflow(self, mag, big_n):
        k = np.arange(big_n + 1)
        full = k * math.log(mag) - 0.5 * LOG_FACTORIALS[k]
        full -= full.max()
        window, log_w = _log_wh_window(mag, big_n)
        assert np.allclose(log_w, full[window], rtol=0, atol=1e-9)
        outside = np.ones(big_n + 1, dtype=bool)
        outside[window] = False
        assert not np.any(np.exp(full[outside]))

    @pytest.mark.parametrize("row", STRESS, ids=[f"z{r['z']}-N{r['N']}" for r in STRESS])
    def test_matches_stress_oracle(self, row):
        assert contraction_overlap(row["z"], row["N"]) == pytest.approx(row["overlap"], abs=1e-12)

    @pytest.mark.parametrize(
        "row", PROFILE_ROWS, ids=[f"z{r['z']}-N{r['N']}" for r in PROFILE_ROWS]
    )
    def test_matches_profile_oracle(self, row):
        # log profiles summed from terms of size k ln k lost 6e-14 and 3e-13 here
        assert contraction_overlap(row["z"], row["N"]) == pytest.approx(row["overlap"], abs=1e-15)

    def test_spin_log_profile_matches_oracle(self):
        # N = 10**5, |xi| = 0.8: binomial terms of size k ln k lost 8e-12 near the peak
        for row in SPIN_PROFILE_ROWS:
            got = float(_log_spin_profile(row["N"], row["xi"], np.array([row["k"]]))[0])
            want = row["log_amplitude"]
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), row["k"]

    def test_large_amplitude_is_finite(self):
        # every raw WH weight up to N = 25 underflows at |z| = 50
        vec = embed_wh(50.0 * np.exp(0.4j), 25)
        assert np.all(np.isfinite(vec))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert np.argmax(abs(vec)) == 25
        assert np.isfinite(contraction_overlap(50, 25))
        # |z|^2 overflows a float: both states sit on k = N
        assert contraction_overlap(1e155, 25) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(1, math.inf)])
    def test_non_finite_amplitude_rejected(self, z):
        with pytest.raises(ValueError, match="finite"):
            contraction_overlap(z, 25)
        with pytest.raises(ValueError, match="finite"):
            embed_wh(z, 25)


def test_blocks_equal_spin_coherent_states():
    # every populated block of a two-mode coherent state is the spin
    # coherent state with xi = alpha/beta, up to a global phase
    alpha = 1.0 * np.exp(-0.3j)
    beta = 4.0 * np.exp(-0.1j)
    blocks = to_blocks(two_mode_coherent(alpha, beta, 21, 66))
    xi = params_from_modes(alpha, beta).xi
    checked = 0
    for big_n, (weight, vec) in enumerate(zip(blocks.weights, blocks.vectors)):
        if abs(weight) ** 2 <= 1e-8:
            continue
        overlap = abs(np.vdot(vec, spin_coherent(big_n, xi)))
        assert overlap >= 1.0 - 1e-10
        checked += 1
    assert checked > 20
