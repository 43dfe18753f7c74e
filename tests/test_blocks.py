import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relphase import (
    UNIFORM,
    SizeLimitError,
    coherent_vector,
    default_cutoff,
    from_blocks,
    mean_photon_number,
    params_from_modes,
    relative_state_overlap,
    spin_coherent,
    to_blocks,
    twirl_two_mode,
    twirled_hs_distance,
    two_mode_coherent,
)

from conftest import assert_refused, random_state_vector


def poisson_weight(mean, n):
    # independent log-space evaluation of e^{-mean} mean^n / n!
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


class TestTwoModeCoherent:
    def test_two_mode_vacuum(self):
        grid = two_mode_coherent(0, 0, 4, 6)
        expected = np.zeros((5, 7), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(grid, expected)

    def test_single_mode_factorization(self):
        beta = 1.7 * np.exp(0.4j)
        grid = two_mode_coherent(0, beta, 3, 30)
        assert np.allclose(grid[0], coherent_vector(beta, 30), atol=1e-15)
        assert np.allclose(grid[1:], 0.0, atol=0)

    def test_norm_deficit_matches_oracle(self, oracle):
        grid = two_mode_coherent(1, 4, 12, 40)
        deficit = 1.0 - np.vdot(grid, grid).real
        expected = oracle["two_mode_norm_deficit_a1_b4_12_40"]
        assert deficit == pytest.approx(expected, rel=1e-6)
        assert deficit < 1e-6

    def test_default_cutoff_policy(self):
        assert default_cutoff(4) == 66
        assert default_cutoff(0) == 10
        grid = two_mode_coherent(1, 4, default_cutoff(1), default_cutoff(4))
        assert 1.0 - np.vdot(grid, grid).real < 1e-10

    def test_mean_photon_number(self):
        assert mean_photon_number(1, 4) == 17.0
        assert mean_photon_number(0, 0) == 0.0


class TestToBlocks:
    def test_vacuum_single_block(self):
        blocks = to_blocks(two_mode_coherent(0, 0, 2, 2))
        assert blocks.weights[0] == 1.0
        assert np.array_equal(blocks.vectors[0], np.array([1.0 + 0j]))
        assert np.all(blocks.weights[1:] == 0)

    def test_basis_relabeling(self):
        grid = np.zeros((3, 3), dtype=complex)
        grid[1, 0] = 1.0  # |n1=1, n2=0>
        blocks = to_blocks(grid)
        assert blocks.weights[1] == 1.0
        assert np.array_equal(blocks.vectors[1], np.array([0.0, 1.0], dtype=complex))

    def test_block_weights_follow_poisson_marginal(self):
        alpha, beta = 1.0, 2.0
        blocks = to_blocks(two_mode_coherent(alpha, beta, 21, 34))
        mean = mean_photon_number(alpha, beta)
        for big_n in range(31):
            assert abs(abs(blocks.weights[big_n]) ** 2 - poisson_weight(mean, big_n)) < 1e-10

    def test_reindexing_is_isometry(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            grid = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
            grid /= np.linalg.norm(grid)
            assert to_blocks(grid).norm() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def assert_peaks_real_positive(blocks):
        # the peak is the lowest k whose magnitude ties the largest to 1e-14
        for weight, vec in zip(blocks.weights, blocks.vectors):
            if weight == 0:
                continue
            size = np.abs(vec)
            peak = vec[np.flatnonzero(size >= (1.0 - 1e-14) * size.max())[0]]
            assert abs(peak.imag) < 1e-15
            assert peak.real > 0

    def test_peak_entry_is_real_positive(self):
        # blocks 9 and 19 hold magnitude ties, as (N+1)p is an integer there
        grid = two_mode_coherent(1 * np.exp(0.9j), 2 * np.exp(-0.3j), 20, 30)
        self.assert_peaks_real_positive(to_blocks(grid))

    @pytest.mark.parametrize("theta", [(4.002148315014479, 1.6951199159934145), (0.2, 0.1)])
    def test_magnitude_tie_goes_to_lowest_k(self, theta):
        # block N = 1 holds two equal magnitudes; dividing by the phase of
        # either moves the other by an ulp, which must not move the peak
        grid = np.array([[0, np.exp(1j * theta[0])], [np.exp(1j * theta[1]), 0]]) / math.sqrt(2)
        blocks = to_blocks(grid)
        self.assert_peaks_real_positive(blocks)
        assert blocks.vectors[1][0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_block_amplitudes_reconstruct_grid(self):
        grid = two_mode_coherent(0.8 * np.exp(-0.5j), 1.5 * np.exp(0.2j), 12, 18)
        blocks = to_blocks(grid)
        for big_n, (weight, vec) in enumerate(zip(blocks.weights, blocks.vectors)):
            amps = weight * vec
            for k in range(big_n + 1):
                expected = grid[k, big_n - k] if (k <= 12 and big_n - k <= 18) else 0.0
                assert abs(amps[k] - expected) < 1e-14

    def test_block_phases_match_collective_times_spin_amplitude(self):
        # c_N v_N[k] must reproduce, entry for entry, the Poissonian
        # collective coefficient sqrt(<N>)^N e^{i N arg(beta)} / sqrt(N!)
        # times the spin-coherent amplitude, up to the e^{-<N>/2} front.
        alpha = 1.0 * np.exp(-0.3j)
        beta = 4.0 * np.exp(-0.1j)
        blocks = to_blocks(two_mode_coherent(alpha, beta, 21, 66))
        mean = mean_photon_number(alpha, beta)
        xi = params_from_modes(alpha, beta).xi
        for big_n in range(40):
            if abs(blocks.weights[big_n]) ** 2 <= 1e-8:
                continue
            log_c = -mean / 2 + big_n / 2 * math.log(mean) - 0.5 * math.lgamma(big_n + 1)
            collective = math.exp(log_c) * np.exp(1j * big_n * np.angle(beta))
            expected = collective * spin_coherent(big_n, xi)
            got = blocks.weights[big_n] * blocks.vectors[big_n]
            assert np.max(np.abs(got - expected)) < 1e-10


class TestBlockKetLimit:
    """The block ket of an (n1, n2) grid has block_dim(n1 + n2) entries,
    quadratic in n1 + n2: a 1 x 10^4 grid (160 kB) would scatter into
    50005000 entries (0.8 GB), a 1 x 3 x 10^6 grid into 65.5 TiB."""

    @pytest.mark.parametrize(
        "call", [to_blocks, lambda grid: twirl_two_mode(grid, UNIFORM)], ids=["to_blocks", "twirl"]
    )
    def test_oversize_ket_refused_before_allocation(self, call):
        grid = np.zeros((1, 10**4), dtype=complex)
        grid[0, 0] = 1.0
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="50005000 entries"):
                call(grid)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


class TestGridRule:
    """Every grid input passes one check: a 2-D array with at least one
    entry, all of them finite."""

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (0, 3), (3, 0)])
    @pytest.mark.parametrize(
        "call",
        [
            to_blocks,
            lambda grid: twirl_two_mode(grid, UNIFORM),
            lambda grid: twirled_hs_distance(grid, grid),
            lambda grid: relative_state_overlap(grid, 1.0),
        ],
        ids=["to_blocks", "twirl", "hs", "overlap"],
    )
    def test_bad_shape_refused(self, call, shape):
        grid = np.zeros(shape, dtype=complex)
        message = re.escape(f"expected a nonempty 2-D amplitude grid, got shape {shape}")
        assert_refused(lambda: call(grid), ValueError, message)


class TestFromBlocks:
    def test_round_trip_coherent(self):
        grid = two_mode_coherent(1, 2, 15, 20)
        back, dropped = from_blocks(to_blocks(grid), 15, 20)
        assert dropped == 0
        assert np.max(np.abs(back - grid)) < 1e-12

    def test_empty_blocks_give_zero_grid(self):
        blocks = to_blocks(np.zeros((4, 4), dtype=complex))
        grid, dropped = from_blocks(blocks, 4, 4)
        assert dropped == 0
        assert np.all(grid == 0)

    def test_round_trip_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            shape = (int(rng.integers(2, 10)), int(rng.integers(2, 12)))
            grid = random_state_vector(rng, shape[0] * shape[1]).reshape(shape)
            back, dropped = from_blocks(to_blocks(grid), shape[0] - 1, shape[1] - 1)
            assert dropped == 0
            assert np.max(np.abs(back - grid)) < 1e-12

    def test_out_of_bounds_entries_counted(self):
        grid = np.zeros((4, 4), dtype=complex)
        grid[3, 3] = 1.0
        _, dropped = from_blocks(to_blocks(grid), 2, 2)
        assert dropped == 1

    @pytest.mark.parametrize("target", [(-1, 3), (3, -2)])
    def test_negative_target_rejected(self, target):
        message = f"^target cutoff must be an integer >= 0, got {min(target)}$"
        with pytest.raises(ValueError, match=message):
            from_blocks(to_blocks(np.eye(3, dtype=complex)), *target)

    def test_oversize_target_refused_before_allocation(self):
        # a 1 x (2^23 + 1) target grid: a missing guard would allocate 134 MB
        blocks = to_blocks(np.eye(3, dtype=complex))
        assert_refused(lambda: from_blocks(blocks, 0, 2**23), SizeLimitError, "1 x 8388609 grid")

    def test_round_trip_corner_state(self):
        # single amplitude at the grid corner exercises the truncated-block
        # index ranges on both directions
        grid = np.zeros((5, 8), dtype=complex)
        grid[4, 7] = np.exp(0.3j)
        back, dropped = from_blocks(to_blocks(grid), 4, 7)
        assert dropped == 0
        assert np.max(np.abs(back - grid)) < 1e-15


def loop_block_vectors(grid) -> list:
    """The raw block vectors of a grid, one N at a time: the reference for
    the flat-index scatter of ``to_blocks``."""
    n1_max, n2_max = grid.shape[0] - 1, grid.shape[1] - 1
    raws = []
    for big_n in range(n1_max + n2_max + 1):
        raw = np.zeros(big_n + 1, dtype=complex)
        ks = np.arange(max(0, big_n - n2_max), min(big_n, n1_max) + 1)
        raw[ks] = grid[ks, big_n - ks]
        raws.append(raw)
    return raws


def loop_from_blocks(blocks, n1_max, n2_max):
    """``from_blocks`` one N at a time: the reference for the flat gather."""
    grid = np.zeros((n1_max + 1, n2_max + 1), dtype=complex)
    dropped = 0
    for big_n, (weight, vec) in enumerate(zip(blocks.weights, blocks.vectors)):
        amps = weight * vec
        ks = np.arange(big_n + 1)
        inside = (ks <= n1_max) & (big_n - ks <= n2_max)
        grid[ks[inside], big_n - ks[inside]] = amps[inside]
        dropped += int(np.count_nonzero(amps[~inside]))
    return grid, dropped


class TestBlockReindexingProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        target=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        zero_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_isometry_and_inverse(self, shape, target, zero_fraction, seed):
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid[rng.uniform(size=shape) < zero_fraction] = 0.0
        blocks = to_blocks(grid)
        for raw, weight, vec in zip(loop_block_vectors(grid), blocks.weights, blocks.vectors):
            assert np.max(np.abs(weight * vec - raw), initial=0.0) <= 1e-14 * np.linalg.norm(grid)
        assert blocks.norm() == pytest.approx(np.linalg.norm(grid), rel=1e-14, abs=1e-300)
        back, dropped = from_blocks(blocks, shape[0] - 1, shape[1] - 1)
        assert dropped == 0
        assert np.max(np.abs(back - grid)) <= 1e-14 * np.linalg.norm(grid)
        n1_max = max(shape[0] - 1 + target[0], 0)
        n2_max = max(shape[1] - 1 + target[1], 0)
        got, got_dropped = from_blocks(blocks, n1_max, n2_max)
        want, want_dropped = loop_from_blocks(blocks, n1_max, n2_max)
        assert np.array_equal(got, want)
        assert got_dropped == want_dropped
