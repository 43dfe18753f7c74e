import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    mean_photon_number,
    relative_state_overlap,
    relative_target,
    sweep_fidelity,
    to_blocks,
    twirl_two_mode,
    twirled_hs_distance,
    two_mode_coherent,
)
from relphase.factorize import (
    MIN_RETAINED_MASS,
    _product_grid,
    _sector_sums,
    _weighted_overlap,
    _wh_profile,
)
from relphase.fock import CHUNK_ENTRIES, MAX_ENTRIES, _coherent_window, _log_poisson
from relphase.spin import _log_spin_profile

from conftest import FIXTURES, HAS_VMHWM, RUN_CLI, assert_refused, peak_mb


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
    """Reference HS distance: the unit-vector residual form, one BlockState
    block at a time."""
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


def unit_vector_hs_distance(state_a, state_b):
    """Reference HS distance: the unit-vector residual form that the kernel
    had before its sector sums took the unnormalized blocks, with np.bincount
    over the label N = n1 + n2.  With v, w the unit sector vectors,
    g = <v, w> and r = w - g v, sector N gives
    (p_a - p_b |g|^2)^2 + 2 p_b^2 |g|^2 ||r||^2 + p_b^2 ||r||^4; an empty
    sector has v = 0, so g = 0 and ||r||^2 = ||w||^2."""
    labels = np.add.outer(np.arange(state_a.shape[0]), np.arange(state_a.shape[1]))

    def sector_sums(values):
        return np.bincount(labels.ravel(), values.real.ravel()) + 1j * np.bincount(
            labels.ravel(), values.imag.ravel()
        )

    def unit(state, mass):
        norm = np.sqrt(mass)
        return state * np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)[labels]

    pa = sector_sums(np.abs(state_a) ** 2).real
    pb = sector_sums(np.abs(state_b) ** 2).real
    v, w = unit(state_a, pa), unit(state_b, pb)
    gram = sector_sums(v.conj() * w)
    residual2 = sector_sums(np.abs(w - gram[labels] * v) ** 2).real
    overlap2 = np.abs(gram) ** 2
    hs2 = np.sum(
        (pa - pb * overlap2) ** 2
        + 2.0 * pb * pb * overlap2 * residual2
        + pb * pb * residual2 * residual2
    )
    return math.sqrt(max(float(hs2), 0.0))


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


@st.composite
def window_grid_pairs(draw):
    """Two normalized grids on one window: the exact and product grids of a
    factorization window from (lo1, lo2), or a grid_pairs() pair (with
    emptied sectors, some in one state only).  Either kind may have row n1
    scaled by s^n1 for one s near 1e-200 in both states, as alpha = 1e-200
    gives: the grids then agree except in rows at the 1e-200 scale."""
    phases = st.floats(0.0, 2 * np.pi)
    if draw(st.booleans()):
        state_a, state_b = draw(grid_pairs())
    else:
        alpha_mag = draw(st.sampled_from([0.0, 1e-200, 1e-5]) | st.floats(0.0, 3.0))
        alpha = alpha_mag * np.exp(1j * draw(phases))
        beta = draw(st.floats(0.5, 40.0)) * np.exp(1j * draw(phases))
        n1_max, n2_max = default_cutoff(abs(alpha)), default_cutoff(abs(beta))
        lo1 = draw(st.integers(0, int(abs(alpha) ** 2)))
        lo2 = draw(st.integers(0, int(abs(beta) ** 2)))
        mode_1, mode_2 = _coherent_window(alpha, lo1, n1_max), _coherent_window(beta, lo2, n2_max)
        state_a = np.outer(mode_1, mode_2)
        nhat, z = mean_photon_number(alpha, beta), relative_target(alpha, beta)
        state_b, _ = _product_grid(nhat, beta / abs(beta), z, n1_max, n2_max, lo1, lo2)
    if draw(st.booleans()) and state_a[0].any() and state_b[0].any():
        scale = draw(st.floats(1e-210, 1e-190))
        rows = np.array([scale**n1 for n1 in range(state_a.shape[0])])[:, None]
        state_a, state_b = state_a * rows, state_b * rows
    return state_a / np.linalg.norm(state_a), state_b / np.linalg.norm(state_b)


@settings(max_examples=200, deadline=None)
@given(pair=window_grid_pairs())
def test_twirled_hs_distance_matches_unit_vector_form(pair):
    state_a, state_b = pair
    want = unit_vector_hs_distance(state_a, state_b)
    # the reference's first term takes |g|^2 rounded next to 1: a floor of a
    # few ulps of p_b per sector (1.4e-15 at most in 3000 examples, where the
    # kernel stayed within 3.4e-16 of an exact rational evaluation)
    assert abs(twirled_hs_distance(state_a, state_b) - want) <= 1e-14 * want + 4e-15
    assert twirled_hs_distance(state_a, state_a) == 0.0


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


@st.composite
def overlap_inputs(draw):
    """(state, z): a random complex grid against a random z, or a product
    approximation against its own WH target, where the overlap is 1 up to
    rounding."""
    phases = st.floats(0.0, 2 * np.pi)
    if draw(st.booleans()):
        z = draw(st.floats(0.0, 3.0)) * np.exp(1j * draw(phases))
        return draw(grid_pairs())[0], z
    alpha = draw(st.floats(0.0, 3.0)) * np.exp(1j * draw(phases))
    beta = draw(st.floats(0.5, 40.0)) * np.exp(1j * draw(phases))
    return approx_product(alpha, beta), relative_target(alpha, beta)


@settings(max_examples=100, deadline=None)
@given(case=overlap_inputs())
def test_relative_state_overlap_in_unit_interval(case):
    assert 0.0 <= relative_state_overlap(*case) <= 1.0


# window shapes for the sector sums: one block or several, blocks taller
# than wide, 1 x n and n x 1, and rows longer than a chunk
sector_shapes = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
    st.tuples(st.integers(65, 300), st.integers(2, 20)),
    st.tuples(st.just(1), st.integers(1, 2 * CHUNK_ENTRIES)),
    st.tuples(st.integers(1, 2 * CHUNK_ENTRIES), st.just(1)),
    st.tuples(st.integers(2, 4), st.integers(CHUNK_ENTRIES + 1, CHUNK_ENTRIES + 64)),
)


@settings(max_examples=100, deadline=None)
@given(shape=sector_shapes, complex_values=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(shape=(1, CHUNK_ENTRIES + 1), complex_values=False, seed=0)
@example(shape=(CHUNK_ENTRIES + 1, 1), complex_values=True, seed=0)
@example(shape=(300, 20), complex_values=True, seed=0)
def test_sector_sums_match_bincount_over_full_label_grid(shape, complex_values, seed):
    # integer values keep every partial sum exact, so a wrong label shows
    # whatever order the blocks are added in
    rng = np.random.default_rng(seed)
    values = rng.integers(-(2**20), 2**20, shape).astype(float)
    if complex_values:
        values = values + 1j * rng.integers(-(2**20), 2**20, shape)
    labels = np.add.outer(np.arange(shape[0]), np.arange(shape[1])).ravel()
    want = np.bincount(labels, values.real.ravel())
    if complex_values:
        want = want + 1j * np.bincount(labels, values.imag.ravel())
    tiles = []

    def tile_values(rows, cols):
        tiles.append(values[rows, cols].size)
        return (values[rows, cols],)

    (got,) = _sector_sums(shape, tile_values)
    assert got.dtype == values.dtype
    assert np.array_equal(got, want)
    assert sum(tiles) == values.size


@pytest.mark.parametrize("shape", [(22, 381302), (22, 2001), (3000, 7), (1, 1)])
def test_sector_sums_walk_tiles_of_at_most_a_chunk(shape):
    # whole rows where a row fits in a chunk, else runs of one row: the
    # report's 22 x 381302 window at |beta| = 19063 never makes a whole row
    tiles = []

    def tile_values(rows, cols):
        tiles.append((rows.stop - rows.start, cols.stop - cols.start))
        return (np.ones(tiles[-1]),)

    (sums,) = _sector_sums(shape, tile_values)
    assert sums.sum() == shape[0] * shape[1]
    assert max(rows * cols for rows, cols in tiles) <= CHUNK_ENTRIES
    assert all(cols == shape[1] or rows == 1 for rows, cols in tiles)


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
        assert twirled_hs_distance(grid, grid) == 0.0

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

    def test_report_carries_window_and_masses(self):
        report = factorization_fidelity(1, 16)
        assert (report.lo1, report.lo2) == (0, 85)
        for mass in (report.exact_mass, report.product_mass):
            assert MIN_RETAINED_MASS <= mass <= 1.0 + 1e-15

    def test_report_shows_the_product_state_tail(self):
        # the upper edge n2_max = default_cutoff(|beta|) guards the exact
        # state's spread |beta|, not the product state's wider
        # sqrt(|beta|^2 + 2 |alpha|^2), so the product window loses more
        report = factorization_fidelity(28.0, 30.0)
        assert (report.lo1, report.lo2, report.n1_max, report.n2_max) == (494, 393, 1074, 1210)
        assert 1.0 - report.product_mass == pytest.approx(2.8e-10, rel=0.01)
        assert abs(1.0 - report.exact_mass) <= 1e-15

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
    quadratic number of block entries, and at |beta| = 300 and 1000, summed
    over the window of the grid only."""

    CASES = json.loads((FIXTURES / "oracle_stress.json").read_text())["factorization_stress_alpha1"]

    @pytest.mark.parametrize("case", CASES, ids=[f"beta{c['beta_mag']}" for c in CASES])
    def test_report_matches_oracle(self, case):
        report = factorization_fidelity(1, case["beta_mag"])
        assert (report.n1_max, report.n2_max) == (case["n1_max"], case["n2_max"])
        for name in ("pure_fidelity", "twirled_hs_distance", "relative_state_overlap"):
            assert getattr(report, name) == pytest.approx(case[name], abs=1e-9)

    @pytest.mark.parametrize("case", CASES, ids=[f"beta{c['beta_mag']}" for c in CASES])
    def test_report_matches_oracle_to_rounding(self, case):
        # the sector sums are 1-D convolutions of the mode profiles and the
        # masses correctly rounded sums, so only rounding separates the
        # report from the mpmath row (the grid route with np.vdot masses was
        # off by up to 1.2e-14 relative at |beta| = 1000)
        report = factorization_fidelity(1, case["beta_mag"])
        for name in ("pure_fidelity", "twirled_hs_distance", "relative_state_overlap"):
            assert getattr(report, name) == pytest.approx(case[name], rel=2e-15, abs=0)

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs Linux VmHWM")
    def test_sweep_memory_is_linear_in_the_grid(self, tmp_path):
        # The grid is 22 x 11011 (3.9 MB); a BlockState of it held 2.15 GB.
        args = ["factorize-sweep", "--alpha", "1", "--beta-list", "100"]
        assert peak_mb(RUN_CLI, *args, "--out", str(tmp_path / "sweep.csv")) < 100

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs Linux VmHWM")
    def test_sweep_memory_is_linear_in_the_window(self, tmp_path):
        # The window is 22 x 60022 entries (21 MB per grid); the full grid,
        # 22 x 9030011 entries, is above MAX_ENTRIES and was refused.
        out = tmp_path / "sweep.csv"
        args = ["factorize-sweep", "--alpha", "1", "--beta-list", "3000", "--out", str(out)]
        assert peak_mb(RUN_CLI, *args) < 100
        row = out.read_text().splitlines()[2].split(",")
        assert row[4:6] == ["21", "9030010"]
        assert all(math.isfinite(float(value)) for value in row)


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
            # a NaN entry made the distance NaN, with no error
            lambda: twirled_hs_distance(np.full((2, 2), 0.5), np.array([[math.nan, 0.5]] * 2)),
            # the one grid check: these gave NaN blocks, "outside [0, 1]" and
            # "normalized"
            lambda: to_blocks(np.array([[math.nan, 0.5]] * 2)),
            lambda: relative_state_overlap(np.array([[math.nan, 0.5]] * 2), 1.0),
            lambda: twirl_two_mode(np.array([[math.nan, 0.5]] * 2), UNIFORM),
        ],
        ids=["cutoff-inf", "cutoff-nan", "target-nan", "alpha-inf", "beta-nan", "balanced-phase",
             "hs-grid-nan", "blocks-grid-nan", "overlap-grid-nan", "twirl-grid-nan"],
    )
    def test_non_finite_input_rejected(self, call):
        with pytest.raises(ValueError, match="finite"):
            call()

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: approx_product_balanced(math.inf, 0.0, n_max=3), ValueError, "finite"),
            (lambda: approx_product_balanced(1.0, -math.inf, n_max=3), ValueError, "finite"),
            # 2|alpha|^2 overflows a float
            (lambda: approx_product_balanced(1e200, 0.0, n_max=3), SizeLimitError, "2\\^53"),
            (lambda: approx_product_balanced(2.0**26, 0.0, n_max=3), SizeLimitError, "2\\^53"),
            # the retained mass underflows to 0 and cannot be normalized
            (
                lambda: approx_product(30, 1, n1_max=3, n2_max=3),
                InsufficientCutoffError,
                "cutoffs \\(3, 3\\) retain only 0.0 of the product state",
            ),
            (
                lambda: approx_product_balanced(30.0, 0.0, n_max=3),
                InsufficientCutoffError,
                "cutoffs \\(3, 3\\) retain only 0.0 of the product state",
            ),
        ],
        ids=["balanced-alpha", "balanced-phase", "balanced-overflow", "balanced-2^53",
             "empty-window", "balanced-empty-window"],
    )
    def test_product_preconditions_refused(self, call, error, message):
        assert_refused(call, error, message)

    def test_nan_grid_overlap_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            relative_state_overlap(np.full((3, 3), math.nan), 1.0)

    def test_overflowing_cutoff_is_size_error(self):
        with pytest.raises(SizeLimitError, match="overflows"):
            default_cutoff(1e200)

    def test_oversize_grid_refused_before_allocation(self):
        # each grid is within 44 entries of the limit, so a missing guard
        # would allocate about 140 MB, not tens of GB
        with pytest.raises(SizeLimitError, match="limit"):
            two_mode_coherent(1.0, 1.0, 0, MAX_ENTRIES)
        n2_max = MAX_ENTRIES // 22
        with pytest.raises(SizeLimitError, match="limit"):
            approx_product(1.0, 620.0, n1_max=21, n2_max=n2_max)
        # |beta| = 19064 is the first whose window, 22 x 381302 entries,
        # passes the limit at alpha = 1; even its 1-D profiles (6 MB) come
        # after the check
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="22 x 381302"):
                factorization_fidelity(1.0, 19064.0)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


def fsum_vdot(x, y):
    """<x, y> with correctly rounded sums of the real and imaginary parts."""
    products = (x.conj() * y).ravel()
    return complex(math.fsum(products.real), math.fsum(products.imag))


def full_grid_metrics(alpha, beta):
    """The three metrics on the full grid, every n1 and n2 from 0 up to the
    cutoffs, through the public full-grid kernels; the mass and the pure
    overlap are math.fsum sums."""
    n1_max, n2_max = default_cutoff(abs(alpha)), default_cutoff(abs(beta))
    exact = two_mode_coherent(alpha, beta, n1_max, n2_max)
    exact = exact / math.sqrt(fsum_vdot(exact, exact).real)
    approx = approx_product(alpha, beta)
    return (
        abs(fsum_vdot(exact, approx)) ** 2,
        twirled_hs_distance(exact, approx),
        relative_state_overlap(exact, relative_target(alpha, beta)),
    )


def window_overlap(state, z, lo1, lo2):
    """relative_state_overlap of a window grid whose entry (i, j) is
    (n1, n2) = (lo1 + i, lo2 + j), as factorization_fidelity takes it: the
    WH profile and its factors W_N^{-1/2} from the window edges, then the
    closing arithmetic that relative_state_overlap shares."""
    rows, cols = state.shape
    n_lo = lo1 + lo2
    wh, inv_norm = _wh_profile(z, lo1, lo1 + rows - 1, n_lo, n_lo + rows + cols - 2)
    (rel,) = _sector_sums(
        state.shape, lambda rows, cols: (state[rows, cols] * wh[rows, None].conj(),)
    )
    return _weighted_overlap(rel, inv_norm, float(np.sum(np.abs(state) ** 2)))


def padded(window, lo1, lo2):
    """The full grid from (0, 0) that holds ``window`` from (lo1, lo2)."""
    grid = np.zeros((lo1 + window.shape[0], lo2 + window.shape[1]), dtype=complex)
    grid[lo1:, lo2:] = window
    return grid


class TestWindow:
    """factorization_fidelity works on the window rows lo1..n1_max x columns
    lo2..n2_max; the full-grid kernels are its offset-0 case."""

    @settings(max_examples=100, deadline=None)
    @given(
        nhat=st.floats(0.0, 50.0),
        phase=st.floats(0.0, 2 * np.pi),
        z_mag=st.floats(0.0, 3.0),
        z_phase=st.floats(0.0, 2 * np.pi),
        n1_max=st.integers(0, 7),
        n2_max=st.integers(0, 59),
        data=st.data(),
    )
    def test_product_window_is_a_slice_of_the_full_grid(
        self, nhat, phase, z_mag, z_phase, n1_max, n2_max, data
    ):
        lo1 = data.draw(st.integers(0, n1_max))
        lo2 = data.draw(st.integers(0, n2_max))
        args = (nhat, np.exp(1j * phase), z_mag * np.exp(1j * z_phase), n1_max, n2_max)
        window, _ = _product_grid(*args, lo1, lo2)
        full, _ = _product_grid(*args)
        assert np.array_equal(window, full[lo1:, lo2:])

    @settings(max_examples=100, deadline=None)
    @given(
        pair=grid_pairs(),
        lo1=st.integers(0, 30),
        lo2=st.integers(0, 900),
        z_mag=st.floats(0.0, 3.0),
    )
    def test_window_kernels_equal_the_padded_full_grid(self, pair, lo1, lo2, z_mag):
        state_a, state_b = pair
        z = z_mag * np.exp(0.4j)
        full_a, full_b = padded(state_a, lo1, lo2), padded(state_b, lo1, lo2)
        assert abs(
            window_overlap(state_a, z, lo1, lo2) - relative_state_overlap(full_a, z)
        ) <= 1e-15
        distance = twirled_hs_distance(state_a, state_b)
        assert abs(distance - twirled_hs_distance(full_a, full_b)) <= 1e-15

    @pytest.mark.parametrize(
        "alpha, beta",
        [(1, 2), (1, 8), (1, 32), (1, 64), (1, 100), (4, 8), (4, 16), (4, 32), (2j, 50),
         (0.5, 30), (1, 5.5 * np.exp(0.3j)), (3 * np.exp(2j), 60 * np.exp(-1j))],
    )
    def test_report_equals_the_full_grid(self, alpha, beta):
        # the entries below the window are under e^-25 of the peak amplitude,
        # so the float sums do not see them
        report = factorization_fidelity(alpha, beta)
        got = (report.pure_fidelity, report.twirled_hs_distance, report.relative_state_overlap)
        for value, want in zip(got, full_grid_metrics(alpha, beta)):
            assert abs(value - want) <= 1e-15

    def test_large_beta_allocates_only_the_window(self):
        # a full-length profile of n1_max + n2_max = 9030031 complex entries
        # alone is 144 MB; the two 22 x 60022 window grids are 21 MB each
        tracemalloc.start()
        try:
            report = factorization_fidelity(1.0, 3000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        values = (report.pure_fidelity, report.twirled_hs_distance, report.relative_state_overlap)
        assert all(0.0 <= value <= 1.0 for value in values)
        assert (report.n1_max, report.n2_max) == (21, 9030010)

    def test_large_beta_allocates_profiles_and_row_blocks(self):
        # the 1-D profiles of the 22 x 60022 window and the residual's row
        # blocks of 60022 entries: measured 11.6 MB, where the two window
        # grids took 48.6 MB
        tracemalloc.start()
        try:
            factorization_fidelity(1.0, 3000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 11.6e6


def grid_factorization_fidelity(alpha, beta):
    """Reference report: the route that factorization_fidelity took before it
    worked from 1-D profiles.  Both window grids are built and normalized by
    np.vdot masses; the pure overlap is an np.vdot and the other two metrics
    are the grid kernels.  Returns the three metrics and the window edges
    (lo1, lo2)."""
    z = relative_target(alpha, beta)
    n1_max, n2_max = default_cutoff(abs(alpha)), default_cutoff(abs(beta))

    def start(mean, variance, n_max):
        return min(n_max, math.floor(max(0.0, mean - (10.0 * math.sqrt(variance) + 10.0))))

    alpha_sq, beta_sq = abs(alpha) ** 2, abs(beta) ** 2
    lo1 = start(alpha_sq, alpha_sq, n1_max)
    lo2 = start(beta_sq, beta_sq + 2.0 * alpha_sq, n2_max)
    exact = np.outer(_coherent_window(alpha, lo1, n1_max), _coherent_window(beta, lo2, n2_max))
    nhat = mean_photon_number(alpha, beta)
    approx, _ = _product_grid(nhat, beta / abs(beta), z, n1_max, n2_max, lo1, lo2)
    for grid in (exact, approx):
        mass = np.vdot(grid, grid).real
        if mass < MIN_RETAINED_MASS:
            raise InsufficientCutoffError(f"the window retains only {mass!r}")
        grid /= math.sqrt(mass)
    metrics = (
        abs(np.vdot(exact, approx)) ** 2,
        twirled_hs_distance(exact, approx),
        window_overlap(exact, z, lo1, lo2),
    )
    return metrics, (lo1, lo2)


@settings(max_examples=100, deadline=None)
@given(
    alpha_mag=st.just(1e-200) | st.floats(0.0, 3.0),
    beta_mag=st.floats(0.5, 40.0),
    alpha_phase=st.floats(0.0, 2 * np.pi),
    beta_phase=st.floats(0.0, 2 * np.pi),
)
@example(alpha_mag=2.951, beta_mag=0.609, alpha_phase=0.0, beta_phase=0.0)
@example(alpha_mag=2e-162, beta_mag=1.0, alpha_phase=0.0, beta_phase=0.0)
def test_report_matches_the_grid_route(alpha_mag, beta_mag, alpha_phase, beta_phase):
    alpha, beta = alpha_mag * np.exp(1j * alpha_phase), beta_mag * np.exp(1j * beta_phase)
    try:
        want, window = grid_factorization_fidelity(alpha, beta)
    except InsufficientCutoffError:
        # |alpha| well above |beta|: the product state spreads past n2_max
        with pytest.raises(InsufficientCutoffError, match="product state"):
            factorization_fidelity(alpha, beta)
        return
    report = factorization_fidelity(alpha, beta)
    assert (report.lo1, report.lo2) == window
    got = (report.pure_fidelity, report.twirled_hs_distance, report.relative_state_overlap)
    for value, reference in zip(got, want):
        assert abs(value - reference) <= 1e-14


def test_metrics_make_no_blas_dot_products(monkeypatch):
    exact = two_mode_coherent(1.0, 3.0, 21, 49)
    exact /= np.linalg.norm(exact)
    approx = approx_product(1.0, 3.0, 21, 49)

    def refuse(*args, **kwargs):
        raise AssertionError("a BLAS dot product was called")

    monkeypatch.setattr(np, "vdot", refuse)
    monkeypatch.setattr(np, "dot", refuse)
    report = factorization_fidelity(4, 32)
    assert 0.0 < report.pure_fidelity < 1.0
    assert 0.0 < twirled_hs_distance(exact, approx) < 1.0
    assert 0.0 < relative_state_overlap(exact, relative_target(1.0, 3.0)) < 1.0


# 1 - F = |alpha|^2 / (4 |beta|^2) (1 + eps) with eps |beta|^2 -> 7/16 - |alpha|^2/4.
@settings(max_examples=6, deadline=None)
@given(
    alpha_mag=st.floats(0.0, 3.0),
    beta_mag=st.floats(30.0, 1000.0),
    alpha_phase=st.floats(0.0, 2 * np.pi),
    beta_phase=st.floats(0.0, 2 * np.pi),
)
@example(alpha_mag=3.0, beta_mag=30.0, alpha_phase=0.0, beta_phase=0.0)
@example(alpha_mag=0.5, beta_mag=30.0, alpha_phase=1.0, beta_phase=2.0)
@example(alpha_mag=math.sqrt(7) / 2, beta_mag=100.0, alpha_phase=0.0, beta_phase=0.0)
@example(alpha_mag=1.0, beta_mag=1000.0, alpha_phase=0.0, beta_phase=0.0)
def test_infidelity_follows_the_two_term_law(alpha_mag, beta_mag, alpha_phase, beta_phase):
    report = factorization_fidelity(
        alpha_mag * np.exp(1j * alpha_phase), beta_mag * np.exp(1j * beta_phase)
    )
    a2, b2 = alpha_mag**2, beta_mag**2
    lead = a2 / (4 * b2)
    law = lead * (1 + (7 / 16 - a2 / 4) / b2)
    # The next term is lead * c3 / |beta|^4; c3 runs from 0.5 at |alpha| =
    # 0.5 to -6.4 at |alpha| = 3 and stays within four times the scale
    # 7/16 + |alpha|^2/4 of the second-order coefficient.
    truncation = lead * 4 * (7 / 16 + a2 / 4) / b2**2
    # F is a ratio of three sums over at most the full grid's entries; each
    # sum of n terms carries a rounding error of about sqrt(n) ulps.
    entries = (report.n1_max + 1) * (report.n2_max + 1)
    roundoff = 3 * math.sqrt(entries) * np.finfo(float).eps
    assert abs((1 - report.pure_fidelity) - law) <= truncation + roundoff


def block_route_fidelity(alpha_mag, beta_mag, rows=2**12):
    """Reference pure fidelity by the block route, which shares no grid or
    profile-convolution code with factorization_fidelity.  Block N of the
    exact state is sqrt(P(N)) spin_coherent(N, alpha/beta) and block N of
    the product state sqrt(P(N)) times the WH profile of |alpha|
    renormalized over k <= N, with P Poisson of mean |alpha|^2 + |beta|^2,
    so at real amplitudes F = (sum_N P(N) o_N)^2 with o_N = <spin_N | WH_N>
    real and positive, and o_0 = 1.

    Everything is a log Poisson mass: P(N) times the binomial of the spin
    profile is Pois(k; |alpha|^2) Pois(N - k; |beta|^2) (Poisson splitting;
    _log_spin_profile takes one N per call), and the WH weights w_k^2 are
    Pois(k; |alpha|^2), with W_N their sum over k <= N.  The N axis spans
    9 standard deviations each side, where the Poisson tails are below
    e^-40, and the k axis the WH weights above e^-55; the terms are
    tabulated ``rows`` values of N at a time, far below MAX_ENTRIES, each
    table summed by np.sum and the tables by math.fsum."""
    nhat = alpha_mag**2 + beta_mag**2
    spread = 9.0 * math.sqrt(nhat) + 10.0
    big_n = np.arange(max(0, math.floor(nhat - spread)), math.ceil(nhat + spread) + 1)
    k = np.arange(math.ceil(alpha_mag**2 + 10.0 * alpha_mag + 15.0) + 1)
    log_w = _log_poisson(k, alpha_mag)
    log_norm = np.log(np.cumsum(np.exp(log_w)))  # log W_N at N = k
    log_p = _log_poisson(big_n, math.sqrt(nhat))
    sums = []
    for lo in range(0, big_n.size, rows):
        n = big_n[lo : lo + rows, None]
        rest = n - k
        log_exact = log_w + _log_poisson(np.maximum(rest, 0), beta_mag)
        log_product = log_p[lo : lo + rows, None] + log_w - log_norm[np.minimum(n, k[-1])]
        terms = np.exp(0.5 * (log_exact + log_product))
        sums.append(float(np.sum(terms, where=rest >= 0)))
    return math.fsum(sums) ** 2


def test_block_route_tables_the_spin_profile():
    # the split table row at N equals sqrt(P(N)) times the spin profile
    alpha_mag, beta_mag = 1.0, 3000.0
    nhat = alpha_mag**2 + beta_mag**2
    k = np.arange(54)
    for big_n in (0, 1, 53, 9_000_001, 9_036_000):
        inside = k[k <= big_n]
        split = _log_poisson(inside, alpha_mag) + _log_poisson(big_n - inside, beta_mag)
        if big_n == 0:
            want = _log_poisson(np.array([0]), math.sqrt(nhat))
        else:
            want = _log_poisson(np.array([big_n]), math.sqrt(nhat)) + 2.0 * _log_spin_profile(
                big_n, alpha_mag / beta_mag, inside
            )
        assert np.allclose(split, want, rtol=1e-13, atol=1e-11)


@pytest.mark.parametrize("beta_mag", [3000.0, 19063.0])
def test_pure_fidelity_matches_the_block_route(beta_mag):
    # mpmath is slow over these windows; measured: the report is 1.1e-15
    # below the block route at both sizes
    report = factorization_fidelity(1.0, beta_mag)
    assert abs(report.pure_fidelity - block_route_fidelity(1.0, beta_mag)) <= 1e-14
