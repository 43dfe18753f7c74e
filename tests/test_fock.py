import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relphase import (
    DensityMatrix,
    coherent_vector,
    fidelity_pure_mixed,
    hs_distance,
    inner,
    purity,
)
from relphase.fock import STIRLING_FROM, _clamp_unit, _coherent_window, _stirling_remainder

from conftest import random_density_matrix, random_state_vector


# Norm tolerance of a +-12 sigma coherent window per |alpha|: 2e-15 up to
# |alpha| = 200, 1e-13 for the wider windows from |alpha| = 256 on.
WINDOW_NORM_TOL = {
    30.0: 2e-15, 100.0: 2e-15, 200.0: 2e-15,
    256.0: 1e-13, 1000.0: 1e-13, 3000.0: 1e-13, 19063.0: 1e-13,
}


def basis_vector(index, dim):
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


class TestCoherentVector:
    def test_vacuum(self):
        assert np.array_equal(coherent_vector(0, 5), basis_vector(0, 6))

    def test_poisson_normalization_identity(self):
        # independent route: direct term-by-term Poisson sum
        for alpha in (0.7, 1.9, 2.4 + 0.8j):
            vec = coherent_vector(alpha, 25)
            mean = abs(alpha) ** 2
            direct = sum(math.exp(-mean) * mean**n / math.factorial(n) for n in range(26))
            assert abs(np.vdot(vec, vec).real - direct) < 1e-13

    def test_unit_alpha_norm_deficit(self, oracle):
        # the Poisson tail past n=40 at mean 1 is ~1e-50, far below float
        # resolution, so the truncated norm is 1 to full precision
        assert oracle["poisson_tail_mean1_n40"] < 1e-12
        vec = coherent_vector(1.0, 40)
        deficit = 1.0 - np.vdot(vec, vec).real
        assert abs(deficit) < 1e-12

    def test_norm_monotone_in_cutoff(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            norms = [
                np.linalg.norm(coherent_vector(alpha, n_max)) for n_max in (5, 10, 20, 40)
            ]
            assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_log_space_matches_naive_factorials(self):
        for alpha in (0.3, 1.5 + 1.1j, 3.0, -2.0 + 0.5j):
            vec = coherent_vector(alpha, 30)
            for n in range(31):
                naive = (
                    np.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
                )
                assert abs(vec[n] - naive) <= 1e-10 * max(abs(naive), 1e-300)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            coherent_vector(1.0, -1)

    def test_extreme_amplitudes(self):
        # |alpha|^2 underflows: n = 1 keeps alpha, out of exp(-460), which
        # carries 460 ulps of its argument; it overflows: all mass is past n_max
        np.testing.assert_allclose(coherent_vector(1e-200, 3), [1, 1e-200, 0, 0], rtol=1e-13)
        assert np.array_equal(coherent_vector(1e200, 3), np.zeros(4))

    @pytest.mark.parametrize("mag", list(WINDOW_NORM_TOL))
    def test_large_mean_window_is_normalized(self, mag):
        # the Poisson window +-12 sigma holds all but ~1e-32 of the norm; a
        # direct log sum -|alpha|^2/2 + n ln|alpha| - log(n!)/2 loses
        # |alpha|^2 * 1e-15 of it to the rounding of ln|alpha| times n
        # (5.2e-11 at |alpha| = 200, 2e-8 at |alpha| = 3000)
        lo, hi = math.floor(mag * mag - 12 * mag), math.ceil(mag * mag + 12 * mag)
        amps = _coherent_window(mag * np.exp(0.3j), lo, hi)
        assert abs(np.vdot(amps, amps).real - 1.0) <= WINDOW_NORM_TOL[mag]

    @pytest.mark.parametrize("mag", [100.0, 256.0, 3000.0])
    def test_large_mean_matches_mpmath(self, mag):
        mp.mp.dps = 30
        mean = mag * mag
        for n in (0, 1, int(mean) - int(5 * mag), int(mean), int(mean) + int(9 * mag)):
            want = float(-mp.mpf(mean) / 2 + n * mp.log(mag) - mp.loggamma(n + 1) / 2)
            got = math.log(abs(_coherent_window(mag, n, n)[0])) if want > -700 else None
            if got is not None:
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_window_equals_full_vector(self):
        for alpha in (0.8j, 5.0, 40.0 * np.exp(1j), 256.0):
            n_max = math.ceil(abs(alpha) ** 2 + 10 * abs(alpha) + 10)
            full = coherent_vector(alpha, n_max)
            for lo in (0, 1, n_max // 2, n_max):
                assert np.array_equal(_coherent_window(alpha, lo, n_max), full[lo:])


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(basis_vector(0, 4), basis_vector(0, 4)) == 1
        assert inner(basis_vector(0, 4), basis_vector(1, 4)) == 0

    def test_coherent_overlap_closed_form(self):
        # oracle: <alpha|beta> = exp(-(|a|^2+|b|^2)/2 + conj(a) b)
        for alpha, beta in ((0.8, 1.2), (1.0 + 0.5j, -0.4 + 1.1j), (2.0, 2.0j)):
            value = inner(coherent_vector(alpha, 60), coherent_vector(beta, 60))
            closed = np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2 + np.conj(alpha) * beta)
            assert abs(value - closed) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner(np.zeros(3), np.zeros(4))


class TestFidelityPureMixed:
    def test_self_fidelity(self):
        rng = np.random.default_rng(3)
        psi = random_state_vector(rng, 6)
        rho = DensityMatrix(np.outer(psi, psi.conj()), basis="fock")
        assert fidelity_pure_mixed(psi, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        rho = DensityMatrix(np.outer(basis_vector(1, 4), basis_vector(1, 4)), basis="fock")
        assert fidelity_pure_mixed(basis_vector(0, 4), rho) == 0.0

    def test_mixture_linearity(self):
        rng = np.random.default_rng(4)
        psi = random_state_vector(rng, 5)
        phi = random_state_vector(rng, 5)
        phi = phi - np.vdot(psi, phi) * psi
        phi /= np.linalg.norm(phi)
        rho = DensityMatrix(
            0.5 * np.outer(psi, psi.conj()) + 0.5 * np.outer(phi, phi.conj()), basis="fock"
        )
        assert fidelity_pure_mixed(psi, rho) == pytest.approx(0.5, abs=1e-12)

    def test_range_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = rng.integers(2, 9)
            psi = random_state_vector(rng, dim)
            rho = DensityMatrix(random_density_matrix(rng, dim), basis="fock")
            assert 0.0 <= fidelity_pure_mixed(psi, rho) <= 1.0

    def test_noise_clamped_but_excursions_raise(self):
        psi = basis_vector(0, 3)
        noisy = DensityMatrix((1 + 5e-10) * np.outer(psi, psi.conj()), basis="fock")
        assert fidelity_pure_mixed(psi, noisy) == 1.0
        broken = DensityMatrix((1 + 1e-5) * np.outer(psi, psi.conj()), basis="fock")
        with pytest.raises(ValueError, match="outside"):
            fidelity_pure_mixed(psi, broken)

    def test_unnormalized_psi_rejected(self):
        rho = DensityMatrix(np.eye(3, dtype=complex) / 3, basis="fock")
        with pytest.raises(ValueError, match="normalized"):
            fidelity_pure_mixed(np.array([1.0, 1.0, 0.0]), rho)

    def test_nan_psi_rejected(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2, basis="fock")
        with pytest.raises(ValueError, match="normalized"):
            fidelity_pure_mixed(np.array([math.nan, 0.0]), rho)

    def test_dimension_mismatch(self):
        rho = DensityMatrix(np.eye(3, dtype=complex) / 3, basis="fock")
        with pytest.raises(ValueError, match="dimension mismatch"):
            fidelity_pure_mixed(basis_vector(0, 4), rho)

    def test_imaginary_residue_rejected(self):
        skew = np.array([[0.5, 1j], [0.0, 0.5]])  # deliberately non-Hermitian
        psi = np.array([1.0, 1.0]) / math.sqrt(2)
        with pytest.raises(ValueError, match="imaginary residue"):
            fidelity_pure_mixed(psi, DensityMatrix(skew, basis="fock"))

    def test_nan_matrix_rejected(self):
        # NaN compares False with the residue bound, so the guard reads it as
        # out of range instead of returning nan
        rho = DensityMatrix(np.full((2, 2), math.nan, dtype=complex), basis="fock")
        with pytest.raises(ValueError, match="imaginary residue"):
            fidelity_pure_mixed(basis_vector(0, 2), rho)


def test_clamp_unit_rejects_nan():
    with pytest.raises(ValueError, match="outside"):
        _clamp_unit(math.nan)


class TestPurity:
    def test_pure_state(self):
        rng = np.random.default_rng(5)
        psi = random_state_vector(rng, 7)
        rho = DensityMatrix(np.outer(psi, psi.conj()), basis="fock")
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        for dim in (2, 5, 9):
            assert purity(DensityMatrix(np.eye(dim, dtype=complex) / dim, basis="fock")) == (
                pytest.approx(1.0 / dim, abs=1e-14)
            )

    def test_equal_two_state_mixture(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[1, 1] = 0.5
        assert purity(DensityMatrix(rho, basis="fock")) == pytest.approx(0.5, abs=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            purity(DensityMatrix(np.zeros((2, 3), dtype=complex), basis="fock"))

    def test_nan_matrix_rejected(self):
        rho = DensityMatrix(np.full((2, 2), math.nan, dtype=complex), basis="fock")
        with pytest.raises(ValueError, match="imaginary residue"):
            purity(rho)


def test_hs_distance_basics():
    a = DensityMatrix(np.eye(2, dtype=complex) / 2, basis="fock")
    b = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), basis="fock")
    assert hs_distance(a, a) == 0.0
    assert hs_distance(a, b) == pytest.approx(np.sqrt(0.5), abs=1e-14)
    with pytest.raises(ValueError, match="basis mismatch"):
        hs_distance(a, DensityMatrix(np.eye(2, dtype=complex) / 2, basis="block"))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hs_distance_rejects_non_finite(bad):
    a = DensityMatrix(np.eye(2, dtype=complex) / 2, basis="fock")
    b = DensityMatrix(np.full((2, 2), bad, dtype=complex), basis="fock")
    for rho, sigma in ((a, b), (b, a), (b, b)):
        with pytest.raises(ValueError, match="must be finite, got"):
            hs_distance(rho, sigma)


def log_factorial(n):
    """log n! assembled as n ln n - n + R(n), R the Stirling remainder."""
    n = np.asarray(n)
    return n * np.log(np.maximum(n, 1)) - n + _stirling_remainder(n)


class TestLogFactorial:
    @settings(max_examples=500, deadline=None)
    @given(n=st.integers(0, 2**24))
    def test_matches_lgamma(self, n):
        expected = math.lgamma(n + 1.0)
        assert abs(float(log_factorial(n)) - expected) <= 1e-15 * abs(expected)

    def test_table_and_series_meet(self):
        n = np.arange(STIRLING_FROM - 8, STIRLING_FROM + 8)
        expected = np.array([math.lgamma(k + 1.0) for k in n])
        assert np.all(np.abs(log_factorial(n) - expected) <= 1e-15 * expected)

    def test_vectorised_equals_scalar(self):
        n = np.array([0, 1, 5, 31, 32, 33, 1000, 2**24])
        assert log_factorial(n).tolist() == [float(log_factorial(k)) for k in n]


def test_import_loads_no_scipy():
    script = (
        "import sys, relphase\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
