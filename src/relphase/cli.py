"""Deterministic CSV/JSON tables for the factorization sweep, the
contraction-convergence study, the phase-twirl demo and the lattice demo.

Every run echoes its fully resolved configuration as a ``# config`` comment
line (CSV) or a ``config`` object (JSON): the parsed arguments but ``--out``,
with the values the command resolved.  Columns are the row keys.  Identical
configurations produce byte-identical output.  ``--prior`` specs follow the
one grammar of ``twirl.read_prior_spec``.  Exit codes: 0 success,
2 configuration error, 3 numerical-precondition failure or a size above a
module limit, refused before allocation; every error is one stderr line.

The flags of every command are stated once, in the option table
(``COMMANDS`` and ``SHARED``), which ``parse_args`` reads and ``usage``
prints; no argparse is involved.
"""

import csv
import io
import json
import sys
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .blocks import cutoff_or_default
from .factorize import InsufficientCutoffError, sweep_fidelity
from .fock import SizeLimitError, check_count, check_finite, coherent_vector, purity
from .lattice import QuditPairState, _require_odd, relative_pair, shift_prior, sum_gate, twirled_relative
from .spin import contraction_overlap
from .twirl import _Gaussians, coherence_witness, expectation, parse_prior
from .twirl import random_commutant_observable, twirl_single_mode

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_TWIRL_PRIORS = ["uniform", "point:0.0", "twopoint:0.0,3.141592653589793", "vonmises:4.0"]
DEFAULT_WAY_PRIORS = ["uniform", "point:1", "twopoint:0,2", "vonmises:4.0"]

# Largest twirl-demo table, in rows (priors x (observables + 1)).  At --n-max 2
# a row costs about 40 us and 0.4 KB on a 2-core x86 machine, so 2**20 rows
# take about 40 s and 420 MB.
MAX_TWIRL_ROWS = 2**20


def _emit(args, rows: list, **resolved):
    """Write the table.  The config echo is the parsed arguments (minus
    ``out``) updated with the values the command resolved; the columns are
    the keys of the first row."""
    config = {key: value for key, value in vars(args).items() if key != "out"}
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


def _magnitude(flag: str, value: float) -> float:
    if check_finite(value, flag) < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value!r}")
    return value


def _complex(flag: str, mag: float, phase: float) -> complex:
    return _magnitude(flag, mag) * np.exp(1j * check_finite(phase, flag + "-phase"))


def cmd_factorize_sweep(args) -> None:
    alpha = _complex("--alpha", args.alpha, args.alpha_phase)
    mags = _list(args.beta_list, float, "numbers")
    beta_mags = [_magnitude("--beta-list entry", mag) for mag in mags]
    check_finite(args.beta_phase, "--beta-phase")
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


def cmd_contract_overlap(args) -> None:
    n_grid = _list(args.n_grid, int, "integers")
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


def cmd_twirl_demo(args) -> None:
    check_count(args.n_observables, "--n-observables")
    alpha = _complex("--alpha", args.alpha, args.alpha_phase)
    n_max = check_count(cutoff_or_default(args.n_max, abs(alpha), "--n-max"), "--n-max", 1)
    n_rows = len(args.priors) * (args.n_observables + 1)
    if n_rows > MAX_TWIRL_ROWS:
        raise SizeLimitError(
            f"{len(args.priors)} priors x {args.n_observables + 1} observables "
            f"make {n_rows} rows, above the limit of {MAX_TWIRL_ROWS}"
        )
    priors = [(spec, parse_prior(spec)) for spec in args.priors]
    psi = coherent_vector(alpha, n_max)
    norm = np.linalg.norm(psi)
    if norm * norm < np.finfo(float).tiny:  # a mass this small cannot be normalized
        raise InsufficientCutoffError(
            f"--n-max {n_max} keeps a mass below 2.2e-308 of the state at |alpha| = {abs(alpha)}"
        )
    psi = psi / norm
    control = coherence_witness(0, n_max)
    rows = []
    for spec, prior in priors:
        rho = twirl_single_mode(psi, prior)
        # each commutant is drawn when scored, so one observable is alive at a time
        commutants = (
            (f"commutant{j}", random_commutant_observable(n_max, args.seed + j))
            for j in range(args.n_observables)
        )
        for name, obs in chain(commutants, [("control", control)]):
            rows.append(
                {"prior": spec, "observable": name, "expectation": float(expectation(obs, rho))}
            )
    _emit(args, rows, n_max=n_max)


def _random_units(draw, d: int, count: int) -> np.ndarray:
    """``count`` Haar-random unit vectors in C^d, as rows, from one draw."""
    psi = draw(count * d).reshape(count, d)
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def _way_scenarios(d: int, draw):
    """The way-demo input states as (scenario, state) pairs, drawn in table
    order one at a time, so that a d x d grid is built only after the one
    before it has been scored and let go."""
    yield "separable", relative_pair(*_random_units(draw, d, 2))
    ket0 = np.eye(d, dtype=complex)[0]
    yield "sum-entangled", sum_gate(relative_pair(*_random_units(draw, d, 1), ket0))
    yield "max-entangled", QuditPairState(np.eye(d, dtype=complex) / np.sqrt(d), view="relative")


def cmd_way_demo(args) -> None:
    dims = [_require_odd(d) for d in _list(args.dim_list, int, "integers")]
    rows = []
    draw = _Gaussians(args.seed)
    for d in dims:
        priors = [(spec, shift_prior(spec, d)) for spec in args.priors]
        for scenario, state in _way_scenarios(d, draw):
            # every prior was checked by shift_prior, but rho_rel = A A^dag is
            # the same under every prior, the point prior at X = 0 included, so
            # it is formed once, and its overlap with the input's is its purity
            value = float(purity(twirled_relative(state, priors[0][1])))
            del state  # no grid is held while the next one is built
            for spec, _ in priors:
                row = {"d": int(d), "scenario": scenario, "prior": spec, "relative_purity": value}
                rows.append({**row, "relative_fidelity_to_input": value})
    _emit(args, rows, dim_list=dims)


# The option table.  An option is (flag, type or choices, default, help);
# REQUIRED marks a flag without a default, and a list default marks a
# repeatable flag, whose values gather under the plural ("--prior" ->
# priors).  Every command also takes the SHARED options.
REQUIRED = object()
PRIOR_HELP = "uniform | point:<phi> | twopoint:<phi1>,<phi2> | vonmises:<kappa> | grid:<path>"
SHARED = (
    ("--output", ("csv", "json"), "csv", "table format"),
    ("--out", str, None, "output path (default: stdout)"),
    ("--seed", int, 0, "seed for any randomized content"),
)
COMMANDS = {
    "factorize-sweep": (cmd_factorize_sweep, "exact-vs-product fidelity over a |beta| list", (
        ("--alpha", float, REQUIRED, "first-mode magnitude"),
        ("--alpha-phase", float, 0.0, "first-mode complex argument"),
        ("--beta-list", str, REQUIRED, "comma-separated |beta| values"),
        ("--beta-phase", float, 0.0, "second-mode complex argument"),
        ("--n1-max", int, None, "override first-mode cutoff"),
        ("--n2-max", int, None, "override second-mode cutoff"))),
    "contract-overlap": (cmd_contract_overlap, "spin-to-WH contraction overlap over an N grid", (
        ("--z", float, REQUIRED, "WH amplitude magnitude"),
        ("--z-phase", float, 0.0, "WH amplitude complex argument"),
        ("--n-grid", str, "25,50,100,200,400,800", "comma-separated spin sizes"))),
    "twirl-demo": (cmd_twirl_demo, "prior-(in)dependence of observables under phase twirls", (
        ("--alpha", float, 1.0, "coherent input magnitude"),
        ("--alpha-phase", float, 0.0, "coherent input argument"),
        ("--n-max", int, None, "Fock cutoff (default: auto)"),
        ("--n-observables", int, 4, "number of commutant observables"),
        ("--prior", str, DEFAULT_TWIRL_PRIORS, "repeatable prior spec: " + PRIOR_HELP))),
    "way-demo": (cmd_way_demo, "lattice twirl scenarios: purity of the relative register", (
        ("--dim-list", str, "3,5,7", "comma-separated odd lattice dimensions"),
        ("--prior", str, DEFAULT_WAY_PRIORS, "repeatable shift-prior spec, in lattice shifts"))),
}


def _options(command: str) -> dict:
    """flag -> [type or choices, default, help] of one command."""
    return {flag: rest for flag, *rest in COMMANDS[command][2] + SHARED}


def _kind(kind) -> str:
    return "|".join(kind) if isinstance(kind, tuple) else kind.__name__


def usage(commands=COMMANDS) -> str:
    """Help text from the option table: each of ``commands`` with its flags."""
    lines = ["usage: relphase <command> [--flag value | --flag=value ...]"]
    for command in commands:
        lines.append(f"{command}: {COMMANDS[command][1]}")
        for flag, (kind, default, text) in _options(command).items():
            note = " (required)" if default is REQUIRED else f" (default {default})"
            lines.append(f"  {flag} {_kind(kind)}: {text}{note * (default is not None)}")
    return "\n".join(lines) + "\n"


def parse_args(argv) -> SimpleNamespace:
    """The namespace of one command line: ``<command>`` then ``--flag value``
    or ``--flag=value`` pairs, flag names exact.  A value may start with a
    single ``-``.  A flag given twice keeps its last value, a repeatable one
    all of them.  Anything else raises ValueError."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got {' '.join(argv[:1])!r}")
    command, options, given = argv[0], _options(argv[0]), {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, has_value, value = token.partition("=")
        if flag not in options:
            raise ValueError(f"{command} has no flag {flag!r} (see relphase {command} --help)")
        if not has_value and (value := next(tokens, "--")).startswith("--"):
            raise ValueError(f"{flag} needs a value")
        kind, default, _ = options[flag]
        try:  # tuple.index raises ValueError for a value outside the choices
            value = kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
        except ValueError:
            raise ValueError(f"{flag} takes {_kind(kind)}, got {value!r}") from None
        given[flag] = given.get(flag, []) + [value] if isinstance(default, list) else value
    args = SimpleNamespace(command=command)
    for flag, (_, default, _) in options.items():
        if default is REQUIRED and flag not in given:
            raise ValueError(f"{command} needs {flag}")
        name = flag[2:].replace("-", "_") + "s" * isinstance(default, list)
        setattr(args, name, given.get(flag, default[:] if isinstance(default, list) else default))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(usage(argv[:1] if argv[0] in COMMANDS else COMMANDS))
        return EXIT_OK
    try:
        args = parse_args(argv)
        COMMANDS[args.command][0](args)
        return EXIT_OK
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
