"""Deterministic CSV/JSON tables for the factorization sweep, the
contraction-convergence study, the phase-twirl demo and the lattice demo.

Every run echoes its fully resolved configuration as a ``# config`` comment
line (CSV) or a ``config`` object (JSON): the parsed arguments but ``--out``,
with the values the command resolved.  Columns are the row keys.  Identical
configurations produce byte-identical output.  ``--prior`` specs follow the
one grammar of ``twirl.read_prior_spec``.  Exit codes: 0 success,
2 configuration error, 3 numerical-precondition failure or a size above a
module limit, refused before allocation.
"""

import argparse
import csv
import io
import json
import locale  # noqa: F401  -- argparse's gettext imports it at the first message lookup
import sys
from itertools import chain

import numpy as np

from .blocks import check_grid_size, default_cutoff
from .factorize import InsufficientCutoffError, sweep_fidelity
from .fock import SizeLimitError, coherent_vector, purity
from .lattice import (
    QuditPairState,
    _require_odd,
    relative_pair,
    shift_prior,
    sum_gate,
    twirled_relative,
)
from .spin import contraction_overlap
from .twirl import (
    coherence_witness,
    expectation,
    parse_prior,
    random_commutant_observable,
    twirl_single_mode,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_N_GRID = "25,50,100,200,400,800"
DEFAULT_TWIRL_PRIORS = ["uniform", "point:0.0", "twopoint:0.0,3.141592653589793", "vonmises:4.0"]
DEFAULT_WAY_PRIORS = ["uniform", "point:1", "twopoint:0,2", "vonmises:4.0"]


def _emit(args, rows: list, **resolved):
    """Write the table.  The config echo is the parsed arguments (minus
    ``out`` and ``func``) updated with the values the command resolved; the
    columns are the keys of the first row."""
    config = {key: value for key, value in vars(args).items() if key not in ("out", "func")}
    config.update(resolved)
    columns = list(rows[0])
    if args.output == "csv":
        buffer = io.StringIO()
        buffer.write("# config " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.DictWriter(buffer, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        payload = {"config": config, "columns": columns, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)


def _list(text: str, kind, what: str) -> list:
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of {what}, got {text!r}")


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
    mags = _list(args.beta_list, float, "numbers")
    beta_mags = [_magnitude("--beta-list entry", mag) for mag in mags]
    _finite("--beta-phase", args.beta_phase)
    reports = sweep_fidelity(
        alpha, beta_mags, phi_beta=args.beta_phase, n1_max=args.n1_max, n2_max=args.n2_max
    )
    rows = [
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
        for mag, report in zip(beta_mags, reports)
    ]
    _emit(args, rows, beta_list=beta_mags)
    return EXIT_OK


def cmd_contract_overlap(args) -> int:
    n_grid = _list(args.n_grid, int, "integers")
    if any(n < 1 for n in n_grid):
        raise ValueError("N grid entries must be >= 1")
    z = _complex("--z", args.z, args.z_phase)
    rows = [
        {
            "z_mag": float(args.z),
            "z_phase": float(args.z_phase),
            "N": int(n),
            "overlap": float(contraction_overlap(z, n)),
        }
        for n in n_grid
    ]
    _emit(args, rows, n_grid=n_grid)
    return EXIT_OK


def cmd_twirl_demo(args) -> int:
    if args.n_observables < 0:
        raise ValueError(f"--n-observables must be >= 0, got {args.n_observables}")
    alpha = _complex("--alpha", args.alpha, args.alpha_phase)
    n_max = args.n_max if args.n_max is not None else default_cutoff(abs(alpha))
    check_grid_size(n_max, n_max)  # the dense twirl is (n_max+1)^2
    prior_specs = args.priors or list(DEFAULT_TWIRL_PRIORS)
    priors = [(spec, parse_prior(spec)) for spec in prior_specs]
    psi = coherent_vector(alpha, n_max)
    psi = psi / np.linalg.norm(psi)
    control = coherence_witness(0, n_max)
    rows = []
    for spec, prior in priors:
        rho = twirl_single_mode(psi, prior)
        # each commutant is drawn when scored, so one dense observable is alive at a time
        commutants = (
            (f"commutant{j}", random_commutant_observable(n_max, args.seed + j))
            for j in range(args.n_observables)
        )
        for name, obs in chain(commutants, [("control", control)]):
            rows.append(
                {"prior": spec, "observable": name, "expectation": float(expectation(obs, rho))}
            )
    _emit(args, rows, n_max=int(n_max), priors=prior_specs)
    return EXIT_OK


def _random_unit(rng, d: int) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def _way_scenarios(d: int, rng) -> dict:
    """The way-demo input states by scenario name, drawn from rng in table order."""
    ket0 = np.eye(d, dtype=complex)[0]
    return {
        "separable": relative_pair(_random_unit(rng, d), _random_unit(rng, d)),
        "sum-entangled": sum_gate(relative_pair(_random_unit(rng, d), ket0)),
        "max-entangled": QuditPairState(np.eye(d, dtype=complex) / np.sqrt(d), view="relative"),
    }


def cmd_way_demo(args) -> int:
    dims = [_require_odd(d) for d in _list(args.dim_list, int, "integers")]
    prior_specs = args.priors or list(DEFAULT_WAY_PRIORS)
    rows = []
    rng = np.random.default_rng(args.seed)
    for d in dims:
        priors = [(spec, shift_prior(spec, d)) for spec in prior_specs]
        for scenario, state in _way_scenarios(d, rng).items():
            input_rel = twirled_relative(state, np.eye(d)[0])  # point prior at X = 0: the input
            for spec, prior in priors:
                rho_rel = twirled_relative(state, prior)
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
    _emit(args, rows, dim_list=dims, priors=prior_specs)
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
        dest="priors",
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
        dest="priors",
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
