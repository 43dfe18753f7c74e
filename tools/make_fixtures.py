#!/usr/bin/env python3
"""Regenerate tests/fixtures/oracle.json and tests/fixtures/oracle_stress.json
by brute-force arbitrary-precision sums.

Everything here is computed from first-principles formulas with mpmath
(40 decimal digits) or exact Fraction arithmetic, deliberately sharing no
code with the library under src/.  Values are frozen into the JSON fixtures
and asserted by the test suite; rerun this script only to audit them.  The
stress file holds the factorization rows at |beta| = 64 and 100 (grids of
22 x 4747 and 22 x 11011), at |beta| = 300 and 1000 (summed over the
window of the grid only), contraction overlaps up to N = 10**6 and at
|z| = 50, the spin log-profile at N = 10**5, the characteristic function
of the lattice pair twirl under three shift priors, and the purity and
fidelity of pair twirls of formula-built states under the same priors, kept
apart so that oracle.json stays as it was.

    pip install -e '.[fixtures]' && python tools/make_fixtures.py
"""

import json
import pathlib
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 40

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"
OUT = FIXTURES / "oracle.json"
STRESS_OUT = FIXTURES / "oracle_stress.json"
STRESS_BETAS = [64, 100]
# Rows summed over the window of the grid only, as factorization_fidelity
# builds it: the full grids hold 22 x 93011 and 22 x 1010011 entries.
WINDOW_BETAS = [300, 1000]
STRESS_CONTRACTION = [
    (1, 10**4), (1, 10**5), (1, 10**6), (2, 10**4), (2, 10**5), (2, 10**6), (50, 25)
]
# Contraction overlaps checked to 1e-15, where log-profile terms of size
# k ln k lose about 1e-13
PROFILE_CONTRACTION = [(10, 10**5), (25, 10**5)]
# Spin log-profile at N = 10**5, |xi| = 0.8 (peak near k = 39024, standard
# deviation 154): the ends, the bulk either side, both tails and the peak
SPIN_PROFILE_N = 10**5
SPIN_PROFILE_XI = 0.8
SPIN_PROFILE_K = [0, 1, 20000, 37500, 39024, 40500, 60000, 99999, 10**5]
# The pair twirl's chi(m) = sum_X P(X) e^{-2 pi i (2X) m / d} over collective
# momentum, from the exact shift weights: (prior spec, d, lags m)
LATTICE_CHI = [
    ("vonmises:4", 1001, [1, 2, 7, 500, 999, 1000]),
    ("point:1", 61, [1, 2, 7, 30, 31, 60]),
    ("twopoint:0,2", 61, [1, 2, 7, 30, 31, 60]),
]
# Pair twirls of formula-built relative-view states, (state, d): "relative"
# is brute force over d^3 terms, "product" needs a 1-D sum per lag
LATTICE_PURITY = [("relative", 31), ("relative", 101), ("product", 1001)]
LATTICE_PURITY_PRIORS = ["vonmises:4", "twopoint:0,2", "point:1"]


def poisson_tail(mean, n_max):
    """P(X > n_max) for X ~ Poisson(mean), summed term by term from the tail
    upward so tiny tails keep full precision."""
    mean = mp.mpf(mean)
    n = n_max + 1
    term = mp.e ** (-mean) * mean ** n / mp.factorial(n)
    acc = mp.mpf(0)
    while term > acc * mp.mpf("1e-45") or n < n_max + 5:
        acc += term
        n += 1
        term *= mean / n
    return acc


def contraction_overlap(z, big_n):
    """|<truncated WH coherent z | spin-N/2 coherent z/sqrt(N)>|^2, z real > 0.

    WH amplitudes w_k = e^{-z^2/2} z^k / sqrt(k!), renormalized over k <= N.
    Spin amplitudes s_k = sqrt(binom(N,k)) (1+|xi|^2)^{-N/2} xi^k, xi = z/sqrt(N).
    Both sequences are generated by exact term ratios.
    """
    z = mp.mpf(z)
    xi = z / mp.sqrt(big_n)
    w = mp.e ** (-z * z / 2)
    s = (1 + xi * xi) ** (-mp.mpf(big_n) / 2)
    cross = w * s
    wnorm2 = w * w
    for k in range(big_n):
        w *= z / mp.sqrt(k + 1)
        s *= xi * mp.sqrt(mp.mpf(big_n - k) / (k + 1))
        cross += w * s
        wnorm2 += w * w
    return cross * cross / wnorm2


def log_spin_profile(big_n, xi, k):
    """log |s_k| of the spin-N/2 coherent state with |xi| = xi > 0:
    (log binom(N, k) + k ln |xi|^2 - N ln(1 + |xi|^2)) / 2, with xi the
    float the library is given, taken exactly."""
    xi2 = mp.mpf(xi) ** 2
    return (mp.log(mp.binomial(big_n, k)) + k * mp.log(xi2) - big_n * mp.log(1 + xi2)) / 2


def cutoff(mag):
    """Truncation guard used throughout: ceil(|a|^2 + 10|a| + 10)."""
    return int(mp.ceil(mag * mag + 10 * mag + 10))


def window_start(mean, variance, n_max):
    """Lower edge of a mode's window: floor(mean - 10 sqrt(variance) - 10),
    clipped to [0, n_max]."""
    return min(n_max, max(0, int(mp.floor(mean - 10 * mp.sqrt(variance) - 10))))


def sqrt_factorials(lo, hi):
    """sqrt(n!) for n = lo..hi, by exact term ratios from sqrt(lo!)."""
    out = [mp.sqrt(mp.factorial(lo))]
    for n in range(lo + 1, hi + 1):
        out.append(out[-1] * mp.sqrt(n))
    return out


def powers(x, lo, hi):
    """x^n for n = lo..hi."""
    out = [x**lo]
    for _ in range(lo, hi):
        out.append(out[-1] * x)
    return out


def factorization_case(alpha_mag, beta_mag, z_mag, n1_max=None, n2_max=None, window=False):
    """Exact-vs-product-construction comparison, all phases zero.

    Exact block amplitudes   e_N[k] = e^{-<N>/2} a^k b^{N-k} / sqrt(k!(N-k)!)
    Product block amplitudes a_N[k] = p_N w_k / sqrt(W_N) with
        p_N = e^{-<N>/2} <N>^{N/2} / sqrt(N!)   (Poisson weight),
        w_k = e^{-z^2/2} z^k / sqrt(k!),        W_N = sum_{j<=N} w_j^2,
    both laid on the (n1, n2) grid (k <= n1_max, N-k <= n2_max) and
    normalized over the grid.  Returns pure fidelity, Hilbert-Schmidt
    distance between the two uniformly dephased states, and the
    Poisson-weighted mean block overlap of the exact state with the WH
    profile.

    With ``window`` the grid starts at k >= lo1 and N-k >= lo2, the lower
    window edges floor(a^2 - 10a - 10) and floor(b^2 - 10 sqrt(b^2 + 2a^2)
    - 10): every sum runs over the window only.  W_N still sums every
    j <= N, stopping where the terms fall below 1e-60 of the sum.
    """
    a = mp.mpf(alpha_mag)
    b = mp.mpf(beta_mag)
    z = mp.mpf(z_mag)
    n1m = cutoff(a) if n1_max is None else n1_max
    n2m = cutoff(b) if n2_max is None else n2_max
    lo1, lo2 = 0, 0
    if window:
        lo1, lo2 = window_start(a * a, a * a, n1m), window_start(b * b, b * b + 2 * a * a, n2m)
    n_lo = lo1 + lo2
    n_top = n1m + n2m
    nhat = a * a + b * b
    log_e = -nhat / 2

    sqrt_fact1 = sqrt_factorials(lo1, n1m)
    sqrt_fact2 = sqrt_factorials(lo2, n2m)
    pow_a = powers(a, lo1, n1m)
    pow_b = powers(b, lo2, n2m)

    w = [mp.e ** (-z * z / 2)]
    wcum = [w[0] * w[0]]
    tail = mp.mpf("1e-60")
    while len(w) <= n_top and (not window or len(w) <= n1m or w[-1] ** 2 > wcum[-1] * tail):
        w.append(w[-1] * z / mp.sqrt(len(w)))
        wcum.append(wcum[-1] + w[-1] * w[-1])

    e_front = mp.e ** log_e
    sqrt_nhat = mp.sqrt(nhat)

    norm_e2 = mp.mpf(0)
    norm_a2 = mp.mpf(0)
    cross_total = mp.mpf(0)
    per_block = []
    rel_num = mp.mpf(0)

    # <N>^{N/2}/sqrt(N!) prefix, updated per block
    p_n = e_front * sqrt_nhat**n_lo / sqrt_factorials(n_lo, n_lo)[0]
    for N in range(n_lo, n_top + 1):
        if N > n_lo:
            p_n *= sqrt_nhat / mp.sqrt(N)
        k_lo = max(lo1, N - n2m)
        k_hi = min(N - lo2, n1m)
        ee = mp.mpf(0)
        aa = mp.mpf(0)
        cr = mp.mpf(0)
        rel_cr = mp.mpf(0)
        w_n = wcum[min(N, len(wcum) - 1)]
        wn = mp.sqrt(w_n)
        for k in range(k_lo, k_hi + 1):
            ek = e_front * pow_a[k - lo1] * pow_b[N - k - lo2] / (
                sqrt_fact1[k - lo1] * sqrt_fact2[N - k - lo2]
            )
            ak = p_n * w[k] / wn
            ee += ek * ek
            aa += ak * ak
            cr += ek * ak
            rel_cr += ek * w[k]
        norm_e2 += ee
        norm_a2 += aa
        cross_total += cr
        per_block.append((ee, aa, cr))
        if ee > 0:
            rel_num += rel_cr * rel_cr / w_n
    fidelity = cross_total ** 2 / (norm_e2 * norm_a2)
    hs2 = mp.mpf(0)
    for ee, aa, cr in per_block:
        hs2 += (ee / norm_e2) ** 2 + (aa / norm_a2) ** 2 - 2 * cr * cr / (norm_e2 * norm_a2)
    rel_overlap = rel_num / norm_e2
    return {
        "n1_max": n1m,
        "n2_max": n2m,
        "pure_fidelity": float(fidelity),
        "twirled_hs_distance": float(mp.sqrt(hs2)),
        "relative_state_overlap": float(rel_overlap),
        "exact_norm_deficit": float(1 - norm_e2),
    }


def shift_weights(spec, d):
    """Exact weights P(X) over Z_d of a ``vonmises:<kappa>``, ``point:<x>``
    or ``twopoint:<x1>,<x2>`` shift prior: exp(kappa cos(2 pi X / d))
    normalized, or equal weights on the integer shifts mod d."""
    name, _, arg = spec.partition(":")
    if name == "vonmises":
        raw = [mp.exp(mp.mpf(arg) * mp.cos(2 * mp.pi * x / d)) for x in range(d)]
        total = mp.fsum(raw)
        return [w / total for w in raw]
    shifts = [int(x) % d for x in arg.split(",")]
    weights = [mp.mpf(0)] * d
    for x in shifts:
        weights[x] += mp.mpf(1) / len(shifts)
    return weights


def lattice_chi(weights, d, m):
    """sum_X P(X) e^{-2 pi i (2X) m / d}: D(X) moves the collective
    coordinate by 2X, so it multiplies momentum p by e^{-2 pi i (2X) p / d}."""
    return mp.fsum(w * mp.expjpi(-4 * mp.mpf(x) * m / d) for x, w in enumerate(weights))


def formula_rows(kind, d):
    """The rows A[x_r] over x_a that C(s) sums over, not yet normalized.
    "relative" is A[r][a] = (1 + r/d) exp(4 cos(2 pi (a - 3r) / d) + 2 pi i r a / d),
    every row.  "product" is (1 + r/d) v(a), v(a) = exp(16 cos(2 pi a / d)
    + 2 pi i a^2 / d): once normalized, its C(s) is the 1-D sum over v."""
    if kind == "relative":
        return [[(1 + mp.mpf(r) / d) * mp.exp(4 * mp.cos(2 * mp.pi * (a - 3 * r) / d)
                                              + 2j * mp.pi * r * a / d) for a in range(d)]
                for r in range(d)]
    return [[mp.exp(16 * mp.cos(2 * mp.pi * a / d) + 2j * mp.pi * a * a / d) for a in range(d)]]


def shift_overlaps(rows, d):
    """C(s) = sum_{r,b} A[r][b]^* A[r][b + s mod d] / sum |A|^2 for s in Z_d:
    <k_X|k_Y> = C(2(X - Y)) for the shifted kets k_X[r][a] = A[r][a - 2X]."""
    c = [mp.fsum(mp.conj(row[b]) * row[(b + s) % d] for row in rows for b in range(d))
         for s in range(d)]
    return [value / c[0] for value in c]


def lattice_purity(kind, d, specs):
    """Rows of the purity sum_{X,Y} P(X) P(Y) |C(2(X - Y))|^2 and the
    fidelity to the input sum_X P(X) |C(2X)|^2 of the pair twirl of a
    formula state, one per shift prior."""
    overlap2 = [abs(c) ** 2 for c in shift_overlaps(formula_rows(kind, d), d)]
    rows = []
    for spec in specs:
        support = [(x, w) for x, w in enumerate(shift_weights(spec, d)) if w]
        purity = mp.fsum(wx * wy * overlap2[2 * (x - y) % d] for x, wx in support for y, wy in support)
        fidelity = mp.fsum(w * overlap2[2 * x % d] for x, w in support)
        rows.append({"state": kind, "d": d, "prior": spec, "purity": float(purity),
                     "fidelity": float(fidelity)})
    return rows


def sum_entangled_relative_purity(d, amps):
    """Exact Fraction purity of the relative register after a uniform
    displacement twirl of sum_{r} t_r |x_r=r, x_a=r mod d>.

    Displacement by X maps x_a -> x_a + 2X mod d; the prior is uniform.
    Builds the full d^2 x d^2 density matrix, partial-traces x_a, squares.
    """
    norm2 = sum(t * t for t in amps)
    dim = d * d
    rho = [[Fraction(0) for _ in range(dim)] for _ in range(dim)]
    for X in range(d):
        psi = [Fraction(0)] * dim  # index = x_r * d + x_a, amplitudes * sqrt(norm2)
        for r in range(d):
            psi[r * d + (r + 2 * X) % d] = Fraction(amps[r])
        for i in range(dim):
            for j in range(dim):
                rho[i][j] += Fraction(psi[i] * psi[j], norm2 * d)
    rho_rel = [[Fraction(0) for _ in range(d)] for _ in range(d)]
    for r in range(d):
        for rp in range(d):
            for x_a in range(d):
                rho_rel[r][rp] += rho[r * d + x_a][rp * d + x_a]
    purity = Fraction(0)
    for r in range(d):
        for rp in range(d):
            purity += rho_rel[r][rp] * rho_rel[rp][r]
    return purity


def max_entangled_relative_purity(d):
    """Same twirl applied to sum_r |r, r>/sqrt(d): brute force Fractions."""
    amps = [1] * d
    return sum_entangled_relative_purity(d, amps)


def main():
    fx = {}

    fx["poisson_tail_mean1_n40"] = float(poisson_tail(1, 40))
    fx["poisson_tail_mean1_n21"] = float(poisson_tail(1, 21))
    fx["poisson_tail_mean4_n34"] = float(poisson_tail(4, 34))
    two_mode_deficit = 1 - (1 - poisson_tail(1, 12)) * (1 - poisson_tail(16, 40))
    fx["two_mode_norm_deficit_a1_b4_12_40"] = float(two_mode_deficit)

    n_grid = [25, 50, 100, 200, 400, 800]
    fx["contraction_n_grid"] = n_grid
    fx["contraction_overlap_z1"] = {str(n): float(contraction_overlap(1, n)) for n in n_grid}
    fx["contraction_overlap_z1_n10000"] = float(contraction_overlap(1, 10000))
    c_max = mp.mpf(0)
    for z in ("0.5", "1", "2"):
        for n in n_grid:
            c_max = max(c_max, n * (1 - contraction_overlap(mp.mpf(z), n)))
    fx["contraction_rate_constant"] = float(1.05 * c_max)

    beta_grid = [2, 4, 8, 16, 32]
    sweep = []
    for b in beta_grid:
        case = factorization_case(1, b, 1)
        case["beta_mag"] = b
        sweep.append(case)
    fx["factorization_sweep_alpha1"] = sweep
    fx["factorization_beta_grid"] = beta_grid
    f32 = sweep[-1]["pure_fidelity"]
    fx["factorization_infidelity_threshold_beta32"] = float(1.001 * (1 - f32))

    balanced = factorization_case(4, 4, float(mp.sqrt(2) * 4))
    fx["balanced_case_alpha4"] = balanced
    asym = factorization_case(1, float(mp.sqrt(31)), 1)
    fx["asymmetric_case_nhat32"] = asym

    fx["sum_entangled_purity_d5"] = {
        "amps": [1, 2, 3, 4, 5],
        "value": float(sum_entangled_relative_purity(5, [1, 2, 3, 4, 5])),
        "fraction": str(sum_entangled_relative_purity(5, [1, 2, 3, 4, 5])),
    }
    fx["max_entangled_purity"] = {str(d): float(max_entangled_relative_purity(d)) for d in (3, 5)}

    # coherence witness |0><1| + |1><0| on coherent alpha=1: point prior at 0
    # gives 2 e^{-1}, uniform gives 0.
    fx["witness_spread_alpha1"] = float(2 / mp.e)

    write(OUT, fx)

    stress = []
    for b in STRESS_BETAS + WINDOW_BETAS:
        case = factorization_case(1, b, 1, window=b in WINDOW_BETAS)
        case["beta_mag"] = b
        stress.append(case)
    contraction = [
        {"z": z, "N": n, "overlap": float(contraction_overlap(z, n))} for z, n in STRESS_CONTRACTION
    ]
    profile_contraction = [
        {"z": z, "N": n, "overlap": float(contraction_overlap(z, n))}
        for z, n in PROFILE_CONTRACTION
    ]
    spin_profile = [
        {"N": SPIN_PROFILE_N, "xi": SPIN_PROFILE_XI, "k": k,
         "log_amplitude": float(log_spin_profile(SPIN_PROFILE_N, SPIN_PROFILE_XI, k))}
        for k in SPIN_PROFILE_K
    ]
    chi_rows = []
    for spec, d, lags in LATTICE_CHI:
        weights = shift_weights(spec, d)
        for m in lags:
            chi = lattice_chi(weights, d, m)
            chi_rows.append({"prior": spec, "d": d, "lag": m, "re": float(chi.real),
                             "im": float(chi.imag)})
    write(
        STRESS_OUT,
        {
            "contraction_overlap_stress": contraction,
            "contraction_overlap_profile": profile_contraction,
            "factorization_stress_alpha1": stress,
            "lattice_chi": chi_rows,
            "lattice_purity": [
                row for kind, d in LATTICE_PURITY
                for row in lattice_purity(kind, d, LATTICE_PURITY_PRIORS)
            ],
            "spin_log_profile": spin_profile,
        },
    )


def write(path, fixtures):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
