"""The benchmark's workloads: fixed lists of operations, each with the
checks its output must pass.

An operation is a ``python -m relphase`` invocation (``cli``) or one named
library call run by ``child.py`` (``lib``).  Checks compare outputs within a
tolerance, never as hashes, against three sources: the frozen oracle in
``tests/fixtures/oracle.json`` at the acceptance suite's tolerances,
reference values recorded by ``record_reference.py`` for the values that do
not depend on the seed (``FIXED_TOL``), and invariants that hold for every
seed.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

ORACLE_TOL = 1e-9
FINE_TOL = 1e-10  # contraction overlaps, commutants and purities, as in the acceptance suite
FIXED_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    spec: dict
    check: object  # check(values, earlier, oracle) -> list of problems


def cli(name, args, check):
    return Op(name, {"cli": args.split()}, check)


def lib(name, function, params, check):
    return Op(name, {"lib": function, "params": params}, check)


def parse(op, text):
    """Output text -> list of row dicts (CLI tables) or one dict (library)."""
    if "lib" in op.spec:
        return json.loads(text)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config "):
        raise ValueError("CLI output lacks the '# config' line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


# Columns that do not depend on the seed, keyed by the columns naming a row.
FIXED = {
    "factorize-sweep": (("beta_mag",), ("n1_max", "n2_max", "pure_fidelity",
                                        "twirled_hs_distance", "relative_state_overlap")),
    "contract-overlap": (("N",), ("overlap",)),
    "twirl-demo": (("prior", "observable"), ("expectation",)),
    "way-demo": (("d", "scenario", "prior"), ("relative_purity", "relative_fidelity_to_input")),
}


def fixed_values(op, values):
    """Seed-independent values of one output, as a flat {key: number} dict."""
    if "lib" in op.spec:
        return {key: value for key, value in values.items() if key != "commutant"}
    keys, columns = FIXED[op.spec["cli"][0]]
    out = {}
    for row in values:
        # commutant observables and the sum-entangled state are drawn from the seed
        if row.get("observable", "control") != "control" or row.get("scenario") == "sum-entangled":
            continue
        label = ":".join(row[key] for key in keys)
        for column in columns:
            out[f"{label}:{column}"] = float(row[column])
    return out


def _near(problems, label, got, want, tol):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        problems.append(f"{label}: got {got!r}, expected {want!r} within {tol}")


def _rising(problems, label, values):
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append(f"{label} does not rise: {values}")


def _unit_interval(problems, label, values):
    if any(not 0.0 <= v <= 1.0 for v in values):
        problems.append(f"{label} outside [0, 1]: {values}")


def _agree(problems, label, values, tol):
    if values and max(values) - min(values) > tol:
        problems.append(f"{label} differ across priors by {max(values) - min(values):.3e}")


def _column(rows, name):
    return [float(row[name]) for row in rows]


def check_sweep_oracle(rows, earlier, oracle):
    problems = []
    cases = oracle["factorization_sweep_alpha1"]
    if len(rows) != len(cases):
        return [f"expected {len(cases)} rows, got {len(rows)}"]
    for row, case in zip(rows, cases):
        for column in ("pure_fidelity", "twirled_hs_distance", "relative_state_overlap"):
            _near(problems, f"beta {case['beta_mag']} {column}", float(row[column]),
                  case[column], ORACLE_TOL)
        for column in ("n1_max", "n2_max"):
            if int(row[column]) != case[column]:
                problems.append(f"beta {case['beta_mag']} {column}: {row[column]} != {case[column]}")
    fidelity = _column(rows, "pure_fidelity")
    _unit_interval(problems, "pure_fidelity", fidelity)
    _rising(problems, "pure_fidelity", fidelity)
    return problems


def check_sweep_stress(rows, earlier, oracle):
    problems = []
    fidelity = _column(rows, "pure_fidelity")
    _unit_interval(problems, "pure_fidelity", fidelity)
    _rising(problems, "pure_fidelity", fidelity)
    return problems


def check_sweep_tall(rows, earlier, oracle):
    # beta 64 continues the alpha 1 oracle sweep, which ends at beta 32
    problems = check_sweep_stress(rows, earlier, oracle)
    beta32 = oracle["factorization_sweep_alpha1"][-1]["pure_fidelity"]
    _rising(problems, "pure_fidelity beta 32 -> 64", [beta32, *_column(rows, "pure_fidelity")])
    return problems


def check_contraction_oracle(rows, earlier, oracle):
    problems = []
    grid = [str(n) for n in oracle["contraction_n_grid"]]
    if [row["N"] for row in rows] != grid:
        return [f"N grid {[row['N'] for row in rows]} != {grid}"]
    for row in rows:
        _near(problems, f"overlap N={row['N']}", float(row["overlap"]),
              oracle["contraction_overlap_z1"][row["N"]], FINE_TOL)
    return problems


def check_contraction_stress(rows, earlier, oracle):
    problems = []
    overlap = _column(rows, "overlap")
    _unit_interval(problems, "overlap", overlap)
    _rising(problems, "overlap", overlap)
    return problems


def _commutants_agree(rows):
    problems = []
    by_observable = {}
    for row in rows:
        by_observable.setdefault(row["observable"], []).append(float(row["expectation"]))
    for name, values in by_observable.items():
        if name != "control":
            _agree(problems, name, values, FINE_TOL)
    return problems


def check_twirl_demo_oracle(rows, earlier, oracle):
    problems = _commutants_agree(rows)
    control = {row["prior"]: float(row["expectation"]) for row in rows if row["observable"] == "control"}
    _near(problems, "witness spread point:0 vs uniform", abs(control["point:0"] - control["uniform"]),
          oracle["witness_spread_alpha1"], ORACLE_TOL)
    return problems


def check_twirl_demo(rows, earlier, oracle):
    return _commutants_agree(rows)


def check_way(rows, earlier, oracle):
    problems = []
    sum_purity = {}
    for row in rows:
        d = int(row["d"])
        purity = float(row["relative_purity"])
        label = f"d={d} {row['scenario']} {row['prior']}"
        # the reduced relative state does not depend on the prior, so the
        # overlap with the input's marginal is Tr(rho^2) too
        _near(problems, f"{label} fidelity_to_input", float(row["relative_fidelity_to_input"]),
              purity, FINE_TOL)
        if row["scenario"] == "separable":
            _near(problems, f"{label} purity", purity, 1.0, FINE_TOL)
        elif row["scenario"] == "max-entangled":
            want = oracle["max_entangled_purity"].get(str(d), 1.0 / d)
            _near(problems, f"{label} purity", purity, want, FINE_TOL)
        else:
            sum_purity.setdefault(d, []).append(purity)
    for d, values in sum_purity.items():
        _agree(problems, f"d={d} sum-entangled purity", values, FINE_TOL)
    return problems


def check_balanced(values, earlier, oracle):
    problems = []
    case = oracle["balanced_case_alpha4"]
    for key in ("pure_fidelity", "twirled_hs_distance", "relative_state_overlap"):
        _near(problems, key, values[key], case[key], ORACLE_TOL)
    _unit_interval(problems, "pure_fidelity", [values["pure_fidelity"]])
    return problems


def check_twirl(values, earlier, oracle):
    problems = []
    _near(problems, "trace", values["trace"], 1.0, FINE_TOL)
    commutants = [values["commutant"]] + [
        out["commutant"] for name, out in earlier.items() if name.startswith("twirl.two_mode")
    ]
    _agree(problems, "block commutant expectation", commutants, FINE_TOL)
    return problems


def two_mode_twirl(prior):
    return lib(f"twirl.two_mode[{prior}]", "two_mode_twirl",
               {"alpha": 1.0, "n_max": 21, "prior": prior}, check_twirl)


WORKLOADS = {
    # What a README user pays: interpreter start and import dominate.
    "desk": [
        cli("desk.factorize-sweep", "factorize-sweep --alpha 1 --beta-list 2,4,8,16,32",
            check_sweep_oracle),
        cli("desk.contract-overlap", "contract-overlap --z 1", check_contraction_oracle),
        cli("desk.twirl-demo",
            "twirl-demo --alpha 1 --prior uniform --prior point:0 --prior vonmises:4",
            check_twirl_demo_oracle),
        cli("desk.way-demo", "way-demo --dim-list 3,5,7 --prior uniform --prior point:1",
            check_way),
    ],
    # blocks, factorize, spin and fock do the work; twirl and lattice none.
    # A tall thin grid (beta 64) and wider blocks (alpha 4) use blocks differently.
    "factorize": [
        cli("factorize.sweep-tall", "factorize-sweep --alpha 1 --beta-list 64", check_sweep_tall),
        cli("factorize.sweep-wide", "factorize-sweep --alpha 4 --beta-list 8,16,32",
            check_sweep_stress),
        cli("factorize.contract-overlap", "contract-overlap --z 2 --n-grid 1000,10000,100000,1000000",
            check_contraction_stress),
        lib("factorize.balanced_case", "balanced_case", {"alpha": 4.0}, check_balanced),
    ],
    # twirl and lattice do the work; the uniform analytic path sits beside
    # 2- and 256-point grids.
    "twirl": [
        two_mode_twirl("vonmises:4"),
        two_mode_twirl("twopoint:0,3.141592653589793"),
        two_mode_twirl("uniform"),
        cli("twirl.twirl-demo", "twirl-demo --alpha 3", check_twirl_demo),
        cli("twirl.way-demo", "way-demo --dim-list 31,61", check_way),
    ],
}


def check_output(op, text, earlier, oracle, reference):
    """Problems with one operation's output; ``earlier`` maps the names of
    the pass's previous operations to their parsed outputs."""
    values = parse(op, text)
    problems = op.check(values, earlier, oracle)
    want = reference.get(op.name)
    if want is None:
        return values, problems + [f"no reference values recorded for {op.name}"]
    got = fixed_values(op, values)
    if set(got) != set(want):
        problems.append(f"fixed values {sorted(got)} != reference keys {sorted(want)}")
    for key in set(got) & set(want):
        _near(problems, key, got[key], want[key], FIXED_TOL)
    return values, problems
