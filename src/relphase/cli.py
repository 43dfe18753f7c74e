"""Deterministic CSV/JSON tables for the factorization sweep, the
contraction-convergence study, the phase-twirl demo and the lattice demo.

Every run echoes its fully resolved configuration (defaults included) as a
``# config`` comment line (CSV) or a ``config`` object (JSON); identical
configurations produce byte-identical output.  Exit codes: 0 success,
2 configuration error, 3 numerical-precondition failure or a size above a
module limit, refused before allocation.
"""

import argparse
import csv
import io
import json
import locale  # noqa: F401  -- argparse's gettext imports it at the first message lookup
import sys

import numpy as np

from .blocks import check_grid_size, default_cutoff
from .factorize import InsufficientCutoffError, sweep_fidelity
from .fock import SizeLimitError, coherent_vector, fidelity_pure_mixed, purity
from .lattice import QuditPairState, _require_odd, relative_pair, sum_gate, twirled_relative
from .spin import contraction_overlap
from .twirl import (
    coherence_witness,
    expectation,
    parse_prior,
    random_commutant_observable,
    read_prior_rows,
    twirl_single_mode,
    von_mises_prior,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_N_GRID = "25,50,100,200,400,800"
DEFAULT_TWIRL_PRIORS = ["uniform", "point:0.0", "twopoint:0.0,3.141592653589793", "vonmises:4.0"]
DEFAULT_WAY_PRIORS = ["uniform", "point:1", "twopoint:0,2", "vonmises:4.0"]
DEFAULT_WAY_SCENARIOS = ["separable", "sum-entangled", "max-entangled"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, config: dict, columns: list, rows: list):
    if args.output == "csv":
        buffer = io.StringIO()
        buffer.write("# config " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in columns])
        text = buffer.getvalue()
    else:
        payload = {"config": config, "columns": columns, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)


def _float_list(text: str) -> list:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of integers, got {text!r}")


def _finite(flag: str, value: float) -> float:
    if not np.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value!r}")
    return value


def _magnitude(flag: str, value: float) -> float:
    if _finite(flag, value) < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value!r}")
    return value


def _complex(flag: str, mag: float, phase: float) -> complex:
    return _magnitude(flag, mag) * np.exp(1j * _finite(flag + "-phase", phase))


def cmd_factorize_sweep(args) -> int:
    alpha = _complex("--alpha", args.alpha, args.alpha_phase)
    beta_mags = [_magnitude("--beta-list entry", mag) for mag in _float_list(args.beta_list)]
    _finite("--beta-phase", args.beta_phase)
    config = {
        "command": "factorize-sweep",
        "alpha": args.alpha,
        "alpha_phase": args.alpha_phase,
        "beta_list": beta_mags,
        "beta_phase": args.beta_phase,
        "n1_max": args.n1_max,
        "n2_max": args.n2_max,
        "output": args.output,
        "seed": args.seed,
    }
    reports = sweep_fidelity(
        alpha, beta_mags, phi_beta=args.beta_phase, n1_max=args.n1_max, n2_max=args.n2_max
    )
    columns = [
        "alpha_mag",
        "alpha_phase",
        "beta_mag",
        "beta_phase",
        "n1_max",
        "n2_max",
        "condition_ratio",
        "pure_fidelity",
        "twirled_hs_distance",
        "relative_state_overlap",
    ]
    rows = []
    for mag, report in zip(beta_mags, reports):
        rows.append(
            {
                "alpha_mag": float(args.alpha),
                "alpha_phase": float(args.alpha_phase),
                "beta_mag": float(mag),
                "beta_phase": float(args.beta_phase),
                "n1_max": int(report.n1_max),
                "n2_max": int(report.n2_max),
                "condition_ratio": float(report.condition_ratio),
                "pure_fidelity": float(report.pure_fidelity),
                "twirled_hs_distance": float(report.twirled_hs_distance),
                "relative_state_overlap": float(report.relative_state_overlap),
            }
        )
    _emit(args, config, columns, rows)
    return EXIT_OK


def cmd_contract_overlap(args) -> int:
    n_grid = _int_list(args.n_grid)
    if any(n < 1 for n in n_grid):
        raise ValueError("N grid entries must be >= 1")
    z = _complex("--z", args.z, args.z_phase)
    config = {
        "command": "contract-overlap",
        "z": args.z,
        "z_phase": args.z_phase,
        "n_grid": n_grid,
        "output": args.output,
        "seed": args.seed,
    }
    columns = ["z_mag", "z_phase", "N", "overlap"]
    rows = [
        {
            "z_mag": float(args.z),
            "z_phase": float(args.z_phase),
            "N": int(n),
            "overlap": float(contraction_overlap(z, n)),
        }
        for n in n_grid
    ]
    _emit(args, config, columns, rows)
    return EXIT_OK


def cmd_twirl_demo(args) -> int:
    if args.n_observables < 0:
        raise ValueError(f"--n-observables must be >= 0, got {args.n_observables}")
    alpha = _complex("--alpha", args.alpha, args.alpha_phase)
    n_max = args.n_max if args.n_max is not None else default_cutoff(abs(alpha))
    check_grid_size(n_max, n_max)  # the dense twirl is (n_max+1)^2
    prior_specs = args.prior if args.prior else list(DEFAULT_TWIRL_PRIORS)
    priors = [(spec, parse_prior(spec)) for spec in prior_specs]
    config = {
        "command": "twirl-demo",
        "alpha": args.alpha,
        "alpha_phase": args.alpha_phase,
        "n_max": int(n_max),
        "n_observables": args.n_observables,
        "priors": prior_specs,
        "output": args.output,
        "seed": args.seed,
    }
    psi = coherent_vector(alpha, n_max)
    psi = psi / np.linalg.norm(psi)
    observables = [
        (f"commutant{j}", random_commutant_observable(n_max, args.seed + j))
        for j in range(args.n_observables)
    ]
    observables.append(("control", coherence_witness(0, n_max)))
    columns = ["prior", "observable", "expectation"]
    rows = []
    for spec, prior in priors:
        rho = twirl_single_mode(psi, prior)
        for name, obs in observables:
            rows.append(
                {"prior": spec, "observable": name, "expectation": float(expectation(obs, rho))}
            )
    _emit(args, config, columns, rows)
    return EXIT_OK


def _shift(value: float, d: int) -> int:
    if not np.isfinite(value):
        raise ValueError(f"lattice shift must be finite, got {value!r}")
    return int(value) % d


def parse_shift_prior(spec: str, d: int) -> np.ndarray:
    """Shift-prior flavor of the shared prior syntax: numeric parameters are
    lattice shifts, ``vonmises:<kappa>`` weights exp(kappa cos(2 pi X / d))."""
    name, _, arg = spec.partition(":")
    if name == "uniform":
        if arg:
            raise ValueError("uniform prior takes no parameter")
        return np.full(d, 1.0 / d)
    if name == "point":
        weights = np.zeros(d)
        weights[_shift(float(arg), d)] = 1.0
        return weights
    if name == "twopoint":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError(f"twopoint prior needs two shifts, got {arg!r}")
        weights = np.zeros(d)
        weights[_shift(float(parts[0]), d)] += 0.5
        weights[_shift(float(parts[1]), d)] += 0.5
        return weights
    if name == "vonmises":
        return von_mises_prior(float(arg), n_points=d).weights
    if name == "grid":
        weights = np.zeros(d)
        for shift, weight in read_prior_rows(arg, "shift"):
            weights[_shift(shift, d)] += weight
        return weights
    raise ValueError(f"unknown prior spec {spec!r}")


def _way_scenario(name: str, d: int, rng) -> QuditPairState:
    if name == "separable":
        psi_r = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi_a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return relative_pair(psi_r / np.linalg.norm(psi_r), psi_a / np.linalg.norm(psi_a))
    if name == "sum-entangled":
        psi_r = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi_a = np.zeros(d, dtype=complex)
        psi_a[0] = 1.0
        return sum_gate(relative_pair(psi_r / np.linalg.norm(psi_r), psi_a))
    if name == "max-entangled":
        return QuditPairState(np.eye(d, dtype=complex) / np.sqrt(d), view="relative")
    raise ValueError(f"unknown scenario {name!r}")


def cmd_way_demo(args) -> int:
    dims = [_require_odd(d) for d in _int_list(args.dim_list)]
    prior_specs = args.prior if args.prior else list(DEFAULT_WAY_PRIORS)
    config = {
        "command": "way-demo",
        "dim_list": dims,
        "priors": prior_specs,
        "output": args.output,
        "seed": args.seed,
    }
    columns = ["d", "scenario", "prior", "relative_purity", "relative_fidelity_to_input"]
    rows = []
    rng = np.random.default_rng(args.seed)
    for d in dims:
        for scenario in DEFAULT_WAY_SCENARIOS:
            state = _way_scenario(scenario, d, rng)
            input_rel = twirled_relative(state, np.eye(d)[0])  # point prior at X = 0: the input
            for spec in prior_specs:
                rho_rel = twirled_relative(state, parse_shift_prior(spec, d))
                overlap = float(np.sum(input_rel.matrix * rho_rel.matrix.T).real)
                rows.append(
                    {
                        "d": int(d),
                        "scenario": scenario,
                        "prior": spec,
                        "relative_purity": float(purity(rho_rel)),
                        "relative_fidelity_to_input": overlap,
                    }
                )
    _emit(args, config, columns, rows)
    return EXIT_OK


def _add_shared(parser: argparse.ArgumentParser):
    parser.add_argument("--output", choices=("csv", "json"), default="csv", help="table format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, default=0, help="seed for any randomized content")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relphase",
        description="Relative-phase subspace studies: factorization sweeps, "
        "contraction convergence, phase twirls, lattice twirls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize-sweep", help="exact-vs-product fidelity over a |beta| list")
    _add_shared(p)
    p.add_argument("--alpha", type=float, required=True, help="first-mode magnitude")
    p.add_argument("--alpha-phase", type=float, default=0.0, help="first-mode complex argument")
    p.add_argument("--beta-list", required=True, help="comma-separated |beta| values")
    p.add_argument("--beta-phase", type=float, default=0.0, help="second-mode complex argument")
    p.add_argument("--n1-max", type=int, default=None, help="override first-mode cutoff")
    p.add_argument("--n2-max", type=int, default=None, help="override second-mode cutoff")
    p.set_defaults(func=cmd_factorize_sweep)

    p = sub.add_parser("contract-overlap", help="spin-to-WH contraction overlap over an N grid")
    _add_shared(p)
    p.add_argument("--z", type=float, required=True, help="WH amplitude magnitude")
    p.add_argument("--z-phase", type=float, default=0.0, help="WH amplitude complex argument")
    p.add_argument("--n-grid", default=DEFAULT_N_GRID, help="comma-separated spin sizes")
    p.set_defaults(func=cmd_contract_overlap)

    p = sub.add_parser("twirl-demo", help="prior-(in)dependence of observables under phase twirls")
    _add_shared(p)
    p.add_argument("--alpha", type=float, default=1.0, help="coherent input magnitude")
    p.add_argument("--alpha-phase", type=float, default=0.0, help="coherent input argument")
    p.add_argument("--n-max", type=int, default=None, help="Fock cutoff (default: auto)")
    p.add_argument("--n-observables", type=int, default=4, help="number of commutant observables")
    p.add_argument(
        "--prior",
        action="append",
        default=None,
        help="prior spec (repeatable): uniform | point:<phi> | twopoint:<phi1>,<phi2> | "
        "vonmises:<kappa> | grid:<path>",
    )
    p.set_defaults(func=cmd_twirl_demo)

    p = sub.add_parser("way-demo", help="lattice twirl scenarios: purity of the relative register")
    _add_shared(p)
    p.add_argument("--dim-list", default="3,5,7", help="comma-separated odd lattice dimensions")
    p.add_argument(
        "--prior",
        action="append",
        default=None,
        help="shift-prior spec (repeatable); numeric parameters are lattice shifts",
    )
    p.set_defaults(func=cmd_way_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientCutoffError as exc:
        print(f"relphase: numerical precondition failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SizeLimitError as exc:
        print(f"relphase: size limit: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"relphase: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
