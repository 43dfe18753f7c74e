"""hs_distance of two twirled states from their factors, and the one closing
function that it shares with twirled_hs_distance and the factorization
report (the difference form: the sums of x^* x, x^* d and d^* d per charge,
with d the difference of the two kets)."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relphase import (
    UNIFORM,
    DensityMatrix,
    PriorGrid,
    QuditPairState,
    approx_product_balanced,
    factorization_fidelity,
    fidelity_pure_mixed,
    hs_distance,
    parse_prior,
    purity,
    relative_state_overlap,
    shift_prior,
    twirl_displacement,
    twirl_single_mode,
    twirl_two_mode,
    twirled_hs_distance,
    two_mode_coherent,
    von_mises_prior,
)
from relphase.lattice import PairTwirl
from relphase.twirl import PhaseTwirl

from conftest import assert_refused

# ||rho - sigma|| of the uniform twirls of two_mode_coherent(2, 1.5, 20, 18)
# and the same state at |beta| + 1e-9, both normalized, summed in 50 digits
BASELINE_DISTANCE = 4.73150747232548e-10

EPS = np.finfo(float).eps


def mpmath_hs_distance(x, y, labels, chi_a, chi_b):
    """Reference: ||rho - sigma|| summed entry by entry in 40 digits, with
    rho_ij = x_i x_j^* chi_a(q_i - q_j) and sigma likewise from y and chi_b;
    x and y are mpmath or float kets, the chi tables float."""
    span = len(chi_a) // 2
    with mp.workdps(40):
        x, y = [mp.mpc(v) for v in x], [mp.mpc(v) for v in y]
        chi_a, chi_b = [mp.mpc(v) for v in chi_a], [mp.mpc(v) for v in chi_b]
        total = mp.mpf(0)
        for i, (xi, yi) in enumerate(zip(x, y)):
            for j, (xj, yj) in enumerate(zip(x, y)):
                m = int(labels[i] - labels[j]) + span
                entry = xi * mp.conj(xj) * chi_a[m] - yi * mp.conj(yj) * chi_b[m]
                total += entry.real**2 + entry.imag**2
        return mp.sqrt(total)


def mpmath_momentum(amplitudes):
    """The unitary DFT along x_a of relative-view amplitudes in 40 digits,
    flattened to x_r * d + p: the ket of a pair twirl's momentum twirl
    without the rounding of a float FFT."""
    d = amplitudes.shape[0]
    with mp.workdps(40):
        roots = [mp.expj(-2 * mp.pi * m / d) for m in range(d)]
        return [
            sum(mp.mpc(amplitudes[r, a]) * roots[p * a % d] for a in range(d)) / mp.sqrt(d)
            for r in range(d)
            for p in range(d)
        ]


def reference_distance(rho, sigma):
    if isinstance(rho, PairTwirl):
        x, y = mpmath_momentum(rho.amplitudes), mpmath_momentum(sigma.amplitudes)
        rho, sigma = rho.momentum_twirl, sigma.momentum_twirl
    else:
        x, y = rho.psi, sigma.psi
    return mpmath_hs_distance(x, y, rho.labels, rho.chi, sigma.chi)


def unit(vec):
    return vec / np.linalg.norm(vec)


def random_phase_prior(rng, kind):
    if kind == "uniform":
        return UNIFORM
    if kind == "vonmises":
        return von_mises_prior(rng.uniform(0.0, 20.0))
    if kind == "twopoint":
        return parse_prior(f"twopoint:{rng.uniform(0, 6.28)},{rng.uniform(0, 6.28)}")
    size = int(rng.integers(1, 17))
    weights = rng.uniform(0.01, 1.0, size)
    return PriorGrid(np.sort(rng.uniform(0, 2 * np.pi, size)), weights / weights.sum())


def random_shift_prior(rng, kind, d):
    if kind == "uniform":
        return shift_prior("uniform", d)
    if kind == "vonmises":
        return shift_prior(f"vonmises:{rng.uniform(0.0, 20.0)}", d)
    if kind == "twopoint":
        return shift_prior(f"twopoint:{rng.integers(d)},{rng.integers(d)}", d)
    weights = rng.uniform(0.01, 1.0, d)
    return weights / weights.sum()


PRIOR_KINDS = ["uniform", "vonmises", "twopoint", "grid"]


def twirl_pair(kind, x, y, prior_a, prior_b):
    """The twirls of the kets x and y of one kind under their priors."""
    if kind == "pair":
        return (
            twirl_displacement(QuditPairState(x, "relative"), prior_a),
            twirl_displacement(QuditPairState(y, "relative"), prior_b),
        )
    twirl = twirl_single_mode if kind == "single" else twirl_two_mode
    return twirl(x, prior_a), twirl(y, prior_b)


def near_pair(seed, kind, shape, e, prior_kinds):
    """Two twirls of one kind: a random ket x of ``shape`` from
    default_rng(seed), and y = x plus a random complex perturbation 10^-e
    of its norm, renormalized.  x's twirl has a prior of the first kind
    in ``prior_kinds``, y's one of the last; one kind gives both the same
    prior."""
    rng = np.random.default_rng(seed)

    def ket():
        return unit(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def prior(name):
        if kind == "pair":
            return random_shift_prior(rng, name, shape[0])
        return random_phase_prior(rng, name)

    x = ket()
    y = unit(x + 10.0**-e * ket())
    priors = [prior(name) for name in prior_kinds]
    return twirl_pair(kind, x, y, priors[0], priors[-1])


@st.composite
def near_twirls(draw):
    """``near_pair`` of single-mode kets of up to 30 entries, two-mode grids
    up to 4 x 4 or pair states with d <= 7, with e in [0, 12]; in one case
    in five the second twirl has a prior of its own (uniform, von Mises,
    two-point or a random grid)."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["single", "two-mode", "pair"]))
    if kind == "single":
        shape = (draw(st.integers(1, 30)),)
    elif kind == "two-mode":
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    else:
        shape = (draw(st.sampled_from([3, 5, 7])),) * 2
    e = draw(st.floats(0.0, 12.0))
    prior_kinds = [draw(st.sampled_from(PRIOR_KINDS))]
    if not draw(st.integers(0, 4)):
        prior_kinds.append(draw(st.sampled_from(PRIOR_KINDS)))
    return near_pair(seed, kind, shape, e, prior_kinds)


def ket_distance(rho, sigma):
    """||y - x|| of the two kets; for pair twirls, of the relative-view
    amplitudes."""
    if isinstance(rho, PairTwirl):
        return float(np.linalg.norm(sigma.amplitudes - rho.amplitudes))
    return float(np.linalg.norm(sigma.psi - rho.psi))


# two two-entry kets that a relative 1e-14 bound alone refused: 1.07e-14
# and 1.36e-14 relative off, an error of 3% and 2% of what a one-ulp change
# of the kets does to the exact distance
@settings(max_examples=150, deadline=None)
@given(pair=near_twirls())
@example(pair=near_pair(4, "single", (2,), 0.375, ["uniform"]))
@example(pair=near_pair(6604, "single", (2,), 3.0, ["twopoint"]))
def test_kernel_matches_mpmath_sum(pair):
    rho, sigma = pair
    want = reference_distance(rho, sigma)
    assume(want >= 1e-12)
    # a relative 1e-14, plus the floor of two roundings of the kernel, each
    # about eps times its size: forming d = (y - x) + (t - 1) y costs
    # eps ||y - x||, since |t - 1| ||y|| <= 2 ||y - x||; under a nearly
    # uniform prior the closing sums cancel terms of size ||y - x||^2 down
    # to want^2, which costs eps ||y - x||^2 / want in the distance.  Near
    # kets, ||y - x|| ~ want, make the floor about 4e-16 want.  Measured:
    # at most 0.26 of this bound over 6000 draws
    delta = ket_distance(rho, sigma)
    bound = 1e-14 * want + EPS * (delta + delta**2 / want)
    assert abs(hs_distance(rho, sigma) - want) <= bound
    assert hs_distance(rho, rho) == 0.0


def test_baseline_pair_matches_mpmath():
    a = two_mode_coherent(2, 1.5, 20, 18)
    b = two_mode_coherent(2, 1.5 + 1e-9, 20, 18)
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    # the grid kernel was 7.0e-9 relative off, the dense read 1.2e-9
    twirls = twirl_two_mode(a, UNIFORM), twirl_two_mode(b, UNIFORM)
    for value in (twirled_hs_distance(a, b), hs_distance(*twirls)):
        assert abs(value - BASELINE_DISTANCE) <= 1e-14 * BASELINE_DISTANCE


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["single", "two-mode", "pair"]),
    prior=st.sampled_from(PRIOR_KINDS),
    phase=st.floats(0.0, 2 * np.pi),
)
@example(seed=0, kind="single", prior="uniform", phase=np.pi)
def test_global_phase_is_invisible(seed, kind, prior, phase):
    # the turn to y's phase is a float product, so y rounds by an ulp of
    # its size: an absolute bound, not a relative one
    rng = np.random.default_rng(seed)
    shape = {"single": (12,), "two-mode": (3, 4), "pair": (5, 5)}[kind]
    x = unit(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if kind == "pair":
        chosen = random_shift_prior(rng, prior, shape[0])
    else:
        chosen = random_phase_prior(rng, prior)
    rho, sigma = twirl_pair(kind, x, np.exp(1j * phase) * x, chosen, chosen)
    assert hs_distance(rho, sigma) <= 1e-15


def phase_cases():
    """(rho, sigma): single-mode and two-mode twirls under uniform, vonmises:4
    and two-point priors, pair twirls of d = 5 and 31, and block twirls of
    a 2 x 5 and a 5 x 2 grid under uniform and vonmises:4."""
    rng = np.random.default_rng(29)
    cases = []
    for spec in ("uniform", "vonmises:4", "twopoint:0,2"):
        prior = parse_prior(spec)
        psi = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        other = psi + 0.1 * rng.standard_normal(40)
        cases.append(twirl_pair("single", unit(psi), unit(other), prior, prior))
        grid = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        other = grid + 0.1 * rng.standard_normal((4, 6))
        other_prior = parse_prior("vonmises:1")
        cases.append(twirl_pair("two-mode", unit(grid), unit(other), prior, other_prior))
    for d, spec in ((5, "vonmises:4"), (31, "twopoint:0,3"), (31, "uniform")):
        amps = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        other = amps + 0.1 * rng.standard_normal((d, d))
        prior = shift_prior(spec, d)
        cases.append(twirl_pair("pair", unit(amps), unit(other), prior, shift_prior("vonmises:2", d)))
    # a 2 x 5 and a 5 x 2 grid: other shapes, but the same n_top, so the
    # same block labels
    for spec in ("uniform", "vonmises:4"):
        wide = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        tall = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        prior = parse_prior(spec)
        cases.append(twirl_pair("two-mode", unit(wide), unit(tall), prior, prior))
    return cases


@pytest.mark.parametrize("rho, sigma", phase_cases())
def test_twirls_are_compared_without_their_matrices(monkeypatch, rho, sigma):
    dense = float(np.linalg.norm(rho.matrix - sigma.matrix))

    def refuse(self):
        raise AssertionError("a dense matrix was read")

    # a property outranks the value that cached_property keeps per instance
    for cls in (PhaseTwirl, PairTwirl):
        monkeypatch.setattr(cls, "matrix", property(refuse))
    assert hs_distance(rho, sigma) == pytest.approx(dense, rel=1e-12)


def test_pair_twirls_build_one_momentum_twirl():
    # the second operand's chi needs its shift weights alone, so its
    # momentum twirl (an FFT of its d x d grid and a d^2 label tile) is
    # not built; the first operand's reads the table it caches
    rng = np.random.default_rng(33)
    d = 31
    x, y = (unit(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) for _ in "xy")
    a = twirl_displacement(QuditPairState(x, "relative"), shift_prior("vonmises:4", d))
    b = twirl_displacement(QuditPairState(y, "relative"), shift_prior("uniform", d))
    assert 0.0 < hs_distance(a, b) < 2.0
    assert "momentum_twirl" not in vars(b)
    assert a.momentum_twirl.chi is a.chi


def test_twirl_pair_reads_in_bounded_memory():
    # the two alpha = 2 twirls are 2415 x 2415: their dense matrices and
    # their difference took a 280 MB tracemalloc peak
    prior = parse_prior("vonmises:4")
    approx = approx_product_balanced(2.0, 0.0)
    exact = two_mode_coherent(2.0, 2.0, approx.shape[0] - 1, approx.shape[1] - 1)
    rho = twirl_two_mode(exact / np.linalg.norm(exact), prior)
    sigma = twirl_two_mode(approx, prior)
    tracemalloc.start()
    try:
        distance = hs_distance(rho, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert "matrix" not in vars(rho) and "matrix" not in vars(sigma)
    assert 0.0 < distance < 1.0


def test_density_matrix_operand_keeps_the_dense_value():
    rng = np.random.default_rng(31)
    psi = unit(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    rho = twirl_single_mode(psi, parse_prior("vonmises:4"))
    dense = DensityMatrix(twirl_single_mode(psi, UNIFORM).matrix, "fock")
    for a, b in ((dense, rho), (rho, dense), (dense, dense)):
        assert hs_distance(a, b) == float(np.linalg.norm(a.matrix - b.matrix))


def test_different_labels_are_refused():
    # a hand-built twirl over other labels of the same size: no public
    # constructor makes one, and there are no common charges to sum over
    rho = twirl_single_mode(unit(np.arange(1.0, 5.0) + 0j), parse_prior("vonmises:4"))
    other = PhaseTwirl(rho.psi, rho.labels[::-1].copy(), rho.chi, rho.basis)
    message = "^twirled states over different charge labels$"
    assert_refused(lambda: hs_distance(rho, other), ValueError, message)
    # and one of another size: no common labels either
    small = twirl_single_mode(unit(np.arange(1.0, 4.0) + 0j), parse_prior("vonmises:4"))
    message = r"^dimension mismatch: \(4, 4\) vs \(3, 3\)$"
    assert_refused(lambda: hs_distance(rho, small), ValueError, message)


def test_every_charge_sum_is_a_bincount_of_real_values(monkeypatch):
    # each complex product is split into two real arrays where it is made,
    # so no reduction sums a complex array
    bincount, calls = np.bincount, []

    def real_bincount(labels, weights=None, minlength=0):
        if np.iscomplexobj(weights):
            raise AssertionError("np.bincount was given complex weights")
        calls.append(len(labels))
        return bincount(labels, weights, minlength)

    monkeypatch.setattr(np, "bincount", real_bincount)
    rng = np.random.default_rng(37)
    shapes = {"single": (30,), "two-mode": (4, 6), "pair": (5, 5)}
    for kind, shape in shapes.items():
        x = unit(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        y = unit(x + 0.1 * rng.standard_normal(shape))
        if kind == "pair":
            priors = shift_prior("vonmises:4", 5), shift_prior("uniform", 5)
        else:
            priors = parse_prior("vonmises:4"), parse_prior("twopoint:0,2")
        rho, sigma = twirl_pair(kind, x, y, *priors)
        ket = rho.psi if kind == "two-mode" else x.ravel()
        for call in (
            lambda: purity(rho),
            lambda: fidelity_pure_mixed(ket, sigma),
            lambda: hs_distance(rho, sigma),
        ):
            calls.clear()
            assert np.isfinite(call())
            assert calls, f"{kind}: no charge sum was taken"
    grid = unit(rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9)))
    other = unit(grid + 0.1 * rng.standard_normal((5, 9)))
    for call in (
        lambda: twirled_hs_distance(grid, other),
        lambda: relative_state_overlap(grid, 0.5 + 0.5j),
        lambda: factorization_fidelity(1.0, 3.0).twirled_hs_distance,
    ):
        calls.clear()
        assert np.isfinite(call())
        assert calls
