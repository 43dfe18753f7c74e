import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HAS_VMHWM, RUN_CLI, peak_mb
from relphase import cli

STRESS = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "oracle_stress.json").read_text()
)["contraction_overlap_stress"]

FACTORIZE_COLUMNS = [
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


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "relphase", *args], capture_output=True, text=True, **kwargs
    )


def parse_csv(text):
    import csv
    import io

    lines = text.strip().splitlines()
    assert lines[0].startswith("# config ")
    config = json.loads(lines[0][len("# config ") :])
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    columns = next(reader)
    rows = [dict(zip(columns, row)) for row in reader]
    return config, columns, rows


class TestFactorizeSweep:
    def test_zero_alpha_rows_exact(self):
        result = run_cli("factorize-sweep", "--alpha", "0", "--beta-list", "2,4")
        assert result.returncode == 0
        config, columns, rows = parse_csv(result.stdout)
        assert columns == FACTORIZE_COLUMNS
        assert len(rows) == 2
        for row in rows:
            assert float(row["pure_fidelity"]) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_increases_with_beta(self):
        result = run_cli("factorize-sweep", "--alpha", "1", "--beta-list", "2,4,8")
        assert result.returncode == 0
        _, _, rows = parse_csv(result.stdout)
        fidelities = [float(row["pure_fidelity"]) for row in rows]
        assert fidelities == sorted(fidelities)
        assert fidelities[0] < fidelities[-1]

    def test_missing_alpha_is_config_error(self):
        result = run_cli("factorize-sweep", "--beta-list", "2,4")
        assert result.returncode == 2
        assert "--alpha" in result.stderr

    def test_cutoff_override_echoed(self):
        result = run_cli(
            "factorize-sweep",
            "--alpha",
            "1",
            "--beta-list",
            "2",
            "--n1-max",
            "30",
            "--n2-max",
            "50",
        )
        assert result.returncode == 0
        config, _, rows = parse_csv(result.stdout)
        assert config["n1_max"] == 30
        assert rows[0]["n1_max"] == "30"
        assert rows[0]["n2_max"] == "50"

    def test_underflowing_profile_exits_3_not_nan(self):
        # |alpha| = 28 underflows the lowest WH weights; the product state
        # then loses mass past n2_max = 21 and the row is refused
        result = run_cli("factorize-sweep", "--alpha", "28", "--beta-list", "1")
        assert result.returncode == 3
        assert result.stdout == ""
        assert len(result.stderr.strip().splitlines()) == 1
        assert "precondition" in result.stderr

    def test_subnormal_alpha_squared_prints_inf_ratio(self):
        # |alpha|^2 = 4e-324 is subnormal: the ratio overflows to inf quietly
        result = run_cli("factorize-sweep", "--alpha", "2e-162", "--beta-list", "1")
        assert result.returncode == 0
        assert result.stderr == ""
        _, _, rows = parse_csv(result.stdout)
        assert rows[0]["condition_ratio"] == "inf"

    @pytest.mark.parametrize("alpha_phase, beta_phase", [("0", "0"), ("2", "0.5")])
    def test_vanishing_alpha_distance_is_zero(self, alpha_phase, beta_phase):
        # the exact and product grids differ only in rows at the 1e-200
        # scale, so the distance squared underflows to 0
        result = run_cli(
            "factorize-sweep", "--alpha", "1e-200", "--alpha-phase", alpha_phase,
            "--beta-list", "1,5,30", "--beta-phase", beta_phase,
        )
        assert result.returncode == 0
        _, _, rows = parse_csv(result.stdout)
        assert [float(row["twirled_hs_distance"]) for row in rows] == [0.0, 0.0, 0.0]

    def test_starved_cutoffs_exit_3(self):
        result = run_cli(
            "factorize-sweep", "--alpha", "1", "--beta-list", "4", "--n1-max", "2", "--n2-max", "5"
        )
        assert result.returncode == 3
        assert "precondition" in result.stderr


class TestContractOverlap:
    def test_zero_amplitude_rows(self):
        result = run_cli("contract-overlap", "--z", "0", "--n-grid", "25,50")
        assert result.returncode == 0
        _, columns, rows = parse_csv(result.stdout)
        assert columns == ["z_mag", "z_phase", "N", "overlap"]
        assert all(float(row["overlap"]) == 1.0 for row in rows)

    def test_overlap_grows_with_n(self):
        result = run_cli("contract-overlap", "--z", "1", "--n-grid", "100,400")
        _, _, rows = parse_csv(result.stdout)
        assert float(rows[1]["overlap"]) > float(rows[0]["overlap"])

    def test_bad_grid_is_config_error(self):
        result = run_cli("contract-overlap", "--z", "1", "--n-grid", "10,frog")
        assert result.returncode == 2

    def test_large_amplitude_row_finite(self):
        # every raw WH weight up to N = 25 underflows at |z| = 50
        (expected,) = [row["overlap"] for row in STRESS if row["z"] == 50 and row["N"] == 25]
        result = run_cli("contract-overlap", "--z", "50", "--n-grid", "25")
        assert result.returncode == 0
        assert result.stderr == ""
        _, _, rows = parse_csv(result.stdout)
        assert math.isfinite(float(rows[0]["overlap"]))
        assert float(rows[0]["overlap"]) == pytest.approx(expected, abs=1e-12)


class TestTwirlDemo:
    def test_commutant_agrees_control_differs(self):
        result = run_cli("twirl-demo", "--alpha", "1")
        assert result.returncode == 0
        _, columns, rows = parse_csv(result.stdout)
        assert columns == ["prior", "observable", "expectation"]
        by_observable = {}
        for row in rows:
            by_observable.setdefault(row["observable"], []).append(float(row["expectation"]))
        for name, values in by_observable.items():
            spread = max(values) - min(values)
            if name == "control":
                assert spread > 1e-3
            else:
                assert spread < 1e-10

    @pytest.mark.parametrize(
        "args",
        [
            ("--alpha", "1"),
            ("--alpha", "2", "--n-observables", "10", "--prior", "vonmises:-3")
            + ("--prior", "twopoint:0,1", "--prior", "uniform", "--prior", "vonmises:40"),
        ],
        ids=["default-priors", "four-priors"],
    )
    def test_commutant_rows_equal_across_priors(self, args):
        result = run_cli("twirl-demo", *args)
        assert result.returncode == 0
        config, _, rows = parse_csv(result.stdout)
        strings = {}
        for row in rows:
            if row["observable"] != "control":
                strings.setdefault(row["observable"], set()).add(row["expectation"])
        assert len(strings) == config["n_observables"]
        for name, values in strings.items():
            assert len(values) == 1, (name, values)

    def test_unknown_prior_is_config_error(self):
        result = run_cli("twirl-demo", "--prior", "gaussian:2")
        assert result.returncode == 2
        assert "prior" in result.stderr

    def test_negative_observable_count_is_config_error(self):
        result = run_cli("twirl-demo", "--n-observables", "-1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.strip() == "relphase: --n-observables must be >= 0, got -1"

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs Linux VmHWM")
    def test_observables_drawn_one_at_a_time(self, tmp_path):
        # 41 dense 401 x 401 observables held at once peaked at 153 MB
        args = ["twirl-demo", "--n-max", "400", "--n-observables", "40"]
        assert peak_mb(RUN_CLI, *args, "--out", str(tmp_path / "twirl.csv")) < 100

    @pytest.mark.skipif(not HAS_VMHWM, reason="needs Linux VmHWM")
    def test_grid_limit_builds_no_dense_twirl(self, tmp_path):
        # the dense 2896 x 2896 twirl alone is 134 MB; building it peaked at 373 MB
        args = ["twirl-demo", "--n-max", "2895", "--n-observables", "1", "--prior", "uniform"]
        assert peak_mb(RUN_CLI, *args, "--out", str(tmp_path / "twirl.csv")) < 100

    @pytest.mark.parametrize(
        "args",
        [
            # the amplitudes are near 1e-195, so their squares underflow
            ("--n-max", "1", "--alpha", "30"),
            # every amplitude underflows to 0
            ("--n-max", "2", "--alpha", "40", "--prior", "uniform"),
            # a subnormal mass: the normalized state missed 1e-10 by 1.8e-6
            ("--n-max", "1", "--alpha", "27.2"),
        ],
        ids=["squares-underflow", "amplitudes-underflow", "subnormal-mass"],
    )
    def test_cutoff_below_the_support_exits_3(self, args):
        result = run_cli("twirl-demo", *args)
        assert result.returncode == 3
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("relphase: numerical precondition failed: --n-max ")

    def test_zero_cutoff_names_the_flag(self):
        result = run_cli("twirl-demo", "--n-max", "0")
        assert result.returncode == 2
        assert result.stderr.splitlines() == ["relphase: --n-max must be >= 1, got 0"]

    def test_large_kappa_rows_finite(self):
        result = run_cli("twirl-demo", "--prior", "vonmises:1e4")
        assert result.returncode == 0
        assert result.stderr == ""
        _, _, rows = parse_csv(result.stdout)
        assert all(np.isfinite(float(row["expectation"])) for row in rows)


@pytest.mark.parametrize(
    "args",
    [
        ("twirl-demo", "--prior", "vonmises:-1e308", "--n-max", "3"),
        ("twirl-demo", "--prior", "vonmises:1e308", "--n-max", "3"),
        ("way-demo", "--prior", "vonmises:-1e308"),
        ("way-demo", "--prior", "vonmises:1e308"),
        ("twirl-demo", "--alpha", "1e-200"),
        ("factorize-sweep", "--alpha", "1e-200", "--beta-list", "1"),
        ("contract-overlap", "--z", "1e155"),
        ("contract-overlap", "--z", "1.7e308", "--n-grid", "5"),
        ("contract-overlap", "--z", "1e8", "--n-grid", "3"),
        # N = 2^24 + 1 was above a spin-size limit that guarded no allocation
        ("contract-overlap", "--z", "1", "--n-grid", "25,16777217"),
        # the twirl allocates O(n_max); its (n_max+1)^2 matrix is never read
        ("twirl-demo", "--n-max", "2896"),
    ],
    ids=[
        "twirl-kappa-", "twirl-kappa+", "way-kappa-", "way-kappa+", "twirl-alpha", "alpha", "z",
        "z-max", "z-far-above-n", "spin-size", "twirl-n-max",
    ],
)
def test_extreme_inputs_run_silently(args):
    # kappa = +-1e308 must not overflow the von Mises shift; the squares of
    # tiny and huge amplitudes under- or overflow, and at |z| = 1.7e308 so
    # does the WH window's half-width 56 |z|
    result = run_cli(*args)
    assert result.returncode == 0
    assert result.stderr == ""
    assert parse_csv(result.stdout)[2]


@pytest.mark.parametrize(
    "args",
    [
        ("twirl-demo", "--prior", "point:inf"),
        ("twirl-demo", "--prior", "vonmises:nan"),
        ("way-demo", "--prior", "point:inf"),
        ("way-demo", "--prior", "twopoint:0,nan"),
        ("way-demo", "--prior", "vonmises:inf"),
    ],
    ids=["twirl-point", "twirl-vonmises", "way-point", "way-twopoint", "way-vonmises"],
)
def test_non_finite_prior_is_config_error(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1
    assert "finite" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("factorize-sweep", "--alpha", "1", "--beta-list", "inf"),
        ("factorize-sweep", "--alpha", "inf", "--beta-list", "2"),
        ("factorize-sweep", "--alpha", "-1", "--beta-list", "2"),
        ("factorize-sweep", "--alpha", "1", "--beta-list", "2", "--beta-phase", "nan"),
        ("contract-overlap", "--z", "nan"),
        ("contract-overlap", "--z", "inf"),
        ("contract-overlap", "--z", "-1"),
        ("twirl-demo", "--alpha", "-1"),
    ],
    ids=[
        "beta-inf",
        "alpha-inf",
        "alpha-negative",
        "beta-phase-nan",
        "z-nan",
        "z-inf",
        "z-negative",
        "twirl-alpha-negative",
    ],
)
def test_bad_magnitude_is_config_error(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1
    assert "finite" in result.stderr or "nonnegative" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        # a 22 x 381302 window, just above the 2**23 limit: the first |beta|
        # refused at alpha = 1
        ("factorize-sweep", "--alpha", "1", "--beta-list", "19064"),
        ("factorize-sweep", "--alpha", "1", "--beta-list", "1e200"),
        # cutoffs of about 1e300, beyond the integers a float counts exactly:
        # the 10-sigma window collapsed to one row and np.arange made an
        # object array (an IndexError traceback)
        ("factorize-sweep", "--alpha", "1e150", "--beta-list", "1"),
        ("factorize-sweep", "--alpha", "1", "--beta-list", "1e150"),
        # N = 2^53, beyond the integers a float counts exactly
        ("contract-overlap", "--z", "1", "--n-grid", "9007199254740992"),
        # a WH window of 11.2M entries, 56|z| + 10 below its top at N = |z|^2
        ("contract-overlap", "--z", "2e5", "--n-grid", "40000000000"),
        # a coherent window of about 1e12 entries
        ("twirl-demo", "--alpha", "1e6"),
        ("twirl-demo", "--n-max", "8388608", "--prior", "uniform"),
        # a 32769 x 256 table of the von Mises characteristic function
        ("twirl-demo", "--n-max", "32768"),
        # a 2897 x 2897 pair grid, just above the limit; 99999 was a numpy
        # memory-error traceback after the d = 3 rows were computed
        ("way-demo", "--dim-list", "2897"),
        ("way-demo", "--dim-list", "3,99999"),
        # each d is checked in full, its size included, before the next one
        ("way-demo", "--dim-list", "99999,4"),
        # 4 x (10**8 + 1) rows ran without bound
        ("twirl-demo", "--n-max", "2", "--n-observables", "100000000"),
    ],
    ids=[
        "grid",
        "cutoff-overflow",
        "alpha-cutoff-inexact",
        "beta-cutoff-inexact",
        "spin-exact",
        "spin-window",
        "twirl-alpha",
        "twirl-psi",
        "twirl-chi",
        "way-d",
        "way-d-list",
        "way-d-before-odd",
        "twirl-rows",
    ],
)
def test_oversize_request_refused_with_exit_3(args):
    result = run_cli(*args)
    assert result.returncode == 3
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1
    assert "size limit" in result.stderr


class TestWayDemo:
    def test_scenario_table(self):
        result = run_cli("way-demo", "--dim-list", "3,5")
        assert result.returncode == 0
        _, columns, rows = parse_csv(result.stdout)
        assert columns == ["d", "scenario", "prior", "relative_purity", "relative_fidelity_to_input"]
        for row in rows:
            if row["scenario"] == "separable":
                assert float(row["relative_purity"]) == pytest.approx(1.0, abs=1e-10)
        max_uniform = [
            row
            for row in rows
            if row["scenario"] == "max-entangled" and row["prior"] == "uniform" and row["d"] == "5"
        ]
        assert len(max_uniform) == 1
        assert float(max_uniform[0]["relative_purity"]) == pytest.approx(0.2, abs=1e-10)

    def test_rows_identical_across_priors(self):
        result = run_cli("way-demo", "--dim-list", "3,5,7", "--seed", "3")
        assert result.returncode == 0
        _, _, rows = parse_csv(result.stdout)
        by_case = {}
        for row in rows:
            values = (row["relative_purity"], row["relative_fidelity_to_input"])
            by_case.setdefault((row["d"], row["scenario"]), set()).add(values)
        assert len(by_case) == 9
        for case, values in by_case.items():
            assert len(values) == 1, (case, values)

    def test_size_limit_names_the_lattice_grid(self):
        result = run_cli("way-demo", "--dim-list", "2897")
        assert result.returncode == 3
        assert "2897 x 2897" in result.stderr
        assert "cutoffs" not in result.stderr

    def test_even_dimension_is_config_error(self):
        result = run_cli("way-demo", "--dim-list", "4")
        assert result.returncode == 2
        assert "odd" in result.stderr

    def test_every_prior_is_checked(self, tmp_path):
        # rho_rel is formed once per scenario, but each prior still goes
        # through twirl_displacement, so a bad second prior is refused; a
        # phase prior file is refused in the same words, the sum as a float
        path = tmp_path / "half.csv"
        path.write_text("0,0.5\n")
        priors = ("--prior", "uniform", "--prior", f"grid:{path}")
        for argv, label in (
            (("way-demo", "--dim-list", "3"), "shift prior"),
            (("twirl-demo",), "prior"),
        ):
            result = run_cli(*argv, *priors)
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == f"relphase: {label} weights must sum to 1, got 0.5\n"

    @pytest.mark.parametrize("dims", ["3,-1", "0", "5,1"])
    def test_bad_dimension_refused_before_any_row(self, dims):
        result = run_cli("way-demo", "--dim-list", dims)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("relphase: lattice dimension must be odd and >= 3")


class TestPriorFiles:
    """Both demos read grid priors with one row reader."""

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("# value,weight\n\n0,0.25\n  # indented comment\n1,0.75\n")
        for command in ("twirl-demo", "way-demo"):
            result = run_cli(command, "--prior", f"grid:{path}")
            assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "command, name", [("twirl-demo", "angle"), ("way-demo", "shift")]
    )
    def test_bad_row_names_its_columns(self, tmp_path, command, name):
        path = tmp_path / "prior.csv"
        path.write_text("0,0.5,1\n")
        result = run_cli(command, "--prior", f"grid:{path}")
        assert result.returncode == 2
        assert result.stderr.strip() == (
            f"relphase: prior file row must be '{name},weight', got '0,0.5,1'"
        )


class TestArguments:
    """One option table, read without argparse: exact flag names, both
    ``--flag value`` and ``--flag=value``, and one stderr line per config
    error."""

    @pytest.mark.parametrize(
        "args",
        [
            (),
            ("bogus",),
            ("contract-overlap", "--z", "1", "--frobnicate", "2"),
            ("factorize-sweep", "--alph", "1", "--beta-list", "2"),
            ("factorize-sweep", "--alpha", "1", "--beta-list"),
            ("factorize-sweep", "--beta-list", "2"),
            ("factorize-sweep", "--alpha", "x", "--beta-list", "2"),
            ("contract-overlap", "--z", "1", "--seed", "1.5"),
            ("contract-overlap", "--z", "1", "--output", "xml"),
        ],
        ids=[
            "no-command", "unknown-command", "unknown-flag", "prefix", "no-value",
            "missing-alpha", "bad-float", "bad-int", "bad-choice",
        ],
    )
    def test_config_error_is_one_line(self, args):
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("relphase: ")

    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_lists_the_table(self, capsys, command, flag):
        # help wins over the rest of the line, a flag the command lacks included
        argv = [flag] if command is None else [command, "--alpha", "1", flag]
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        for name in cli.COMMANDS if command is None else [command]:
            assert f"{name}: " in text
            for option in cli.COMMANDS[name][2] + cli.SHARED:
                assert f"  {option[0]} " in text

    def test_equals_form_prints_the_same_table(self):
        spaced = run_cli("contract-overlap", "--z", "1", "--n-grid", "25,50")
        joined = run_cli("contract-overlap", "--z=1", "--n-grid=25,50")
        assert spaced.returncode == joined.returncode == 0
        assert joined.stdout == spaced.stdout

    def test_value_may_start_with_a_dash(self, capsys):
        assert cli.main(["twirl-demo", "--alpha-phase", "-0.5", "--n-max", "4"]) == 0
        config, _, _ = parse_csv(capsys.readouterr().out)
        assert config["alpha_phase"] == -0.5

    def test_last_value_wins_and_priors_gather(self):
        args = cli.parse_args(
            ["twirl-demo", "--alpha", "1", "--alpha=2", "--prior", "uniform", "--prior=point:0"]
        )
        assert (args.alpha, args.priors) == (2.0, ["uniform", "point:0"])
        assert cli.parse_args(["way-demo"]).priors == cli.DEFAULT_WAY_PRIORS


CONFIG_KEYS = {
    "factorize-sweep": (
        ["--alpha", "1", "--beta-list", "2"],
        "alpha alpha_phase beta_list beta_phase command n1_max n2_max output seed",
    ),
    "contract-overlap": (["--z", "1", "--n-grid", "25"], "command n_grid output seed z z_phase"),
    "twirl-demo": (
        ["--n-max", "4"],
        "alpha alpha_phase command n_max n_observables output priors seed",
    ),
    "way-demo": (["--dim-list", "3"], "command dim_list output priors seed"),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", list(CONFIG_KEYS))
def test_config_keys(tmp_path, command, to_file):
    args, keys = CONFIG_KEYS[command]
    path = tmp_path / "table.csv"
    result = run_cli(command, *args, *(["--out", str(path)] if to_file else []))
    assert result.returncode == 0, result.stderr
    config, _, _ = parse_csv(path.read_text() if to_file else result.stdout)
    assert sorted(config) == keys.split()
    assert config["command"] == command


def test_config_echoes_resolved_values():
    result = run_cli("factorize-sweep", "--alpha", "1", "--beta-list", "2,4")
    config, _, _ = parse_csv(result.stdout)
    assert (config["beta_list"], config["n1_max"], config["n2_max"]) == ([2.0, 4.0], None, None)
    config, _, _ = parse_csv(run_cli("way-demo", "--dim-list", "3,5").stdout)
    assert config["dim_list"] == [3, 5]
    assert config["priors"] == ["uniform", "point:1", "twopoint:0,2", "vonmises:4.0"]
    config, _, rows = parse_csv(run_cli("twirl-demo", "--alpha", "1").stdout)
    assert config["n_max"] > 0 and len(rows) == 4 * 5


class TestOutputContract:
    @pytest.mark.parametrize(
        "args",
        [
            ("factorize-sweep", "--alpha", "1", "--beta-list", "2,4"),
            ("contract-overlap", "--z", "1", "--n-grid", "25,50"),
            ("twirl-demo", "--alpha", "1", "--seed", "7"),
            ("way-demo", "--dim-list", "3,5", "--seed", "7"),
        ],
        ids=["factorize", "contract", "twirl", "way"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reruns_byte_identical(self, tmp_path, args, fmt):
        first = tmp_path / "a.out"
        second = tmp_path / "b.out"
        for path in (first, second):
            result = run_cli(*args, "--output", fmt, "--out", str(path))
            assert result.returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_json_metadata_echoes_defaults(self):
        result = run_cli("contract-overlap", "--z", "1", "--n-grid", "25", "--output", "json")
        payload = json.loads(result.stdout)
        assert payload["config"]["command"] == "contract-overlap"
        assert payload["config"]["z_phase"] == 0.0
        assert payload["config"]["seed"] == 0
        assert payload["columns"] == ["z_mag", "z_phase", "N", "overlap"]
        assert payload["rows"][0]["N"] == 25

    def test_csv_floats_round_trip(self):
        result = run_cli("contract-overlap", "--z", "1", "--n-grid", "100")
        _, _, rows = parse_csv(result.stdout)
        from relphase import contraction_overlap

        assert float(rows[0]["overlap"]) == contraction_overlap(1, 100)


class TestSeededContent:
    """Seeded draws come from the standard library's Mersenne Twister, so no
    run loads numpy.random or the OpenSSL-backed modules its seeding uses."""

    ENTROPY_MODULES = ("numpy.random", "secrets", "hmac", "_hashlib")

    def test_no_entropy_modules_loaded(self):
        script = (
            "import json, os, sys\n"
            f"names = {self.ENTROPY_MODULES!r}\n"
            "import relphase\n"
            "from relphase.cli import main\n"
            "after_import = [name for name in names if name in sys.modules]\n"
            "for command in ('twirl-demo', 'way-demo'):\n"
            "    assert main([command, '--out', os.devnull]) == 0\n"
            "print(json.dumps([after_import, [name for name in names if name in sys.modules]]))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[], []]

    def test_no_argparse_modules_loaded(self):
        # the option table is read without argparse and its gettext/locale
        script = (
            "import json, os, sys\n"
            "import relphase\n"
            "from relphase.cli import main\n"
            "assert main(['contract-overlap', '--z', '1', '--out', os.devnull]) == 0\n"
            "print(json.dumps([n for n in ('argparse', 'gettext', 'locale') if n in sys.modules]))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == []

    @pytest.mark.parametrize(
        "args", [("twirl-demo", "--seed", "-1"), ("way-demo", "--seed", "-1")], ids=["twirl", "way"]
    )
    def test_negative_seed_is_config_error(self, args):
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.strip().splitlines() == [
            "relphase: seed must be an integer >= 0, got -1"
        ]

    def test_negative_seed_unused_by_factorize_sweep(self):
        result = run_cli("factorize-sweep", "--alpha", "1", "--beta-list", "2", "--seed", "-1")
        assert result.returncode == 0, result.stderr

    # Seed-independent text as the CLI printed it while the draws still came
    # from numpy.random (x86-64, numpy 2.4); the change of generator must not
    # move a digit of it.  The factorize rows are those of the kernel that
    # works from 1-D profiles: every value it moved came nearer the mpmath
    # evaluation of tools/make_fixtures.py.  (arguments, marker of the rows
    # compared or None for the whole text, lines)
    SEED_INDEPENDENT = [
        (
            ("factorize-sweep", "--alpha", "1", "--beta-list", "2,4"),
            None,
            [
                '# config {"alpha": 1.0, "alpha_phase": 0.0, "beta_list": [2.0, 4.0], '
                '"beta_phase": 0.0, "command": "factorize-sweep", "n1_max": null, '
                '"n2_max": null, "output": "csv", "seed": 0}',
                "alpha_mag,alpha_phase,beta_mag,beta_phase,n1_max,n2_max,condition_ratio,"
                "pure_fidelity,twirled_hs_distance,relative_state_overlap",
                "1.0,0.0,2.0,0.0,21,34,5.0,0.9536700970189108,0.08829664060570312,"
                "0.9542676999532715",
                "1.0,0.0,4.0,0.0,21,66,17.0,0.9841699125470996,0.03378998981181085,"
                "0.9842919356124444",
            ],
        ),
        (
            ("contract-overlap", "--z", "1", "--n-grid", "25,50"),
            None,
            [
                '# config {"command": "contract-overlap", "n_grid": [25, 50], "output": "csv", '
                '"seed": 0, "z": 1.0, "z_phase": 0.0}',
                "z_mag,z_phase,N,overlap",
                "1.0,0.0,25,0.99941144592827",
                "1.0,0.0,50,0.9998514656293476",
            ],
        ),
        (
            ("twirl-demo", "--alpha", "1", "--seed", "7"),
            ",control,",
            [
                "uniform,control,0.0",
                "point:0.0,control,0.7357588823428847",
                '"twopoint:0.0,3.141592653589793",control,0.0',
                # 40-digit mpmath: 0.63534443116523283
                "vonmises:4.0,control,0.6353444311652329",
            ],
        ),
        (
            ("way-demo", "--dim-list", "3,5", "--seed", "7"),
            ",max-entangled,",
            [
                "3,max-entangled,uniform,0.33333333333333354,0.33333333333333354",
                "3,max-entangled,point:1,0.33333333333333354,0.33333333333333354",
                '3,max-entangled,"twopoint:0,2",0.33333333333333354,0.33333333333333354',
                "3,max-entangled,vonmises:4.0,0.33333333333333354,0.33333333333333354",
                "5,max-entangled,uniform,0.19999999999999996,0.19999999999999996",
                "5,max-entangled,point:1,0.19999999999999996,0.19999999999999996",
                '5,max-entangled,"twopoint:0,2",0.19999999999999996,0.19999999999999996',
                "5,max-entangled,vonmises:4.0,0.19999999999999996,0.19999999999999996",
            ],
        ),
    ]

    @pytest.mark.parametrize(
        "args, marker, lines", SEED_INDEPENDENT, ids=["factorize", "contract", "twirl", "way"]
    )
    def test_seed_independent_text_unchanged(self, args, marker, lines):
        result = run_cli(*args)
        assert result.returncode == 0, result.stderr
        printed = result.stdout.splitlines()
        assert [line for line in printed if marker is None or marker in line] == lines


# argv fuzz: every drawn command line either prints finite numbers with
# nothing on stderr (exit 0) or exits 2 or 3 with one stderr line.  Sizes
# stay small, but for values that a command refuses before it allocates.
SPECIAL_FLOATS = ["0", "-0.0", "1e-200", "2e-162", "1e150", "1.7e308", "inf", "nan", "-1", "x"]
SPECIAL_INTS = ["-1", "0", "9007199254740991", "9007199254740992", "1e3"]


def _mostly(values, special):
    """A draw of ``values``, or of the ``special`` strings one time in eight."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(special) if i == 0 else values)


def _floats(high):
    return _mostly(st.floats(0.0, high).map(repr), SPECIAL_FLOATS)


def _ints(low, high):
    return _mostly(st.integers(low, high).map(str), SPECIAL_INTS)


def _csv_list(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


PRIORS = st.lists(
    _mostly(
        st.one_of(
            st.sampled_from(["uniform", "point:0", "point:-7", "twopoint:0,3.14", "twopoint:1,1"]),
            st.floats(-50.0, 50.0).map(lambda kappa: f"vonmises:{kappa!r}"),
        ),
        ["vonmises:1e308", "vonmises:nan", "point:inf", "uniform:1", "twopoint:1", "bogus"],
    ),
    min_size=1,
    max_size=3,
)
PHASES = _mostly(st.floats(-10.0, 10.0).map(repr), ["1e308", "nan", "-inf"])
# (required, optional) flags of each command; every command also draws from SHARED_FLAGS
FUZZ_FLAGS = {
    "factorize-sweep": (
        {"--alpha": _floats(30.0), "--beta-list": _csv_list(_floats(40.0))},
        {
            "--alpha-phase": PHASES,
            "--beta-phase": PHASES,
            "--n1-max": _ints(-1, 80),
            "--n2-max": _ints(-1, 80),
        },
    ),
    "contract-overlap": (
        {"--z": _floats(1000.0)},
        {"--z-phase": PHASES, "--n-grid": _csv_list(_ints(1, 10**6))},
    ),
    "twirl-demo": (
        {},
        {
            "--alpha": _floats(5.0),
            "--alpha-phase": PHASES,
            "--n-max": _ints(0, 100),
            "--n-observables": _mostly(st.integers(0, 3).map(str), ["-1"]),
            "--prior": PRIORS,
        },
    ),
    "way-demo": (
        {},
        {
            "--dim-list": _csv_list(
                _mostly(st.sampled_from(range(3, 17, 2)).map(str), ["-1", "4", "2897"])
            ),
            "--prior": PRIORS,
        },
    ),
}
SHARED_FLAGS = {
    "--output": _mostly(st.sampled_from(["csv", "json"]), ["xml"]),
    "--seed": _mostly(st.integers(0, 9).map(str), ["-1", str(2**70)]),
}


def test_fuzz_tables_hold_every_flag():
    # every flag of the option table is drawn, but --out, which would write
    # files: a flag added to cli.COMMANDS or cli.SHARED must be added here
    assert list(FUZZ_FLAGS) == list(cli.COMMANDS)
    for command, (_, _, options) in cli.COMMANDS.items():
        required, optional = FUZZ_FLAGS[command]
        assert sorted({**required, **optional}) == sorted(flag for flag, *_ in options), command
    assert sorted(SHARED_FLAGS) == sorted(flag for flag, *_ in cli.SHARED if flag != "--out")


def _argv(command):
    """A command line of ``command``: its required flags and a random subset
    of the others, in a random order."""
    required, optional = FUZZ_FLAGS[command]

    def tokens(given):
        argv = [command]
        for flag, value in given:
            for one in value if isinstance(value, list) else [value]:
                argv += [flag, one]
        return argv

    flags = st.fixed_dictionaries(required, optional={**optional, **SHARED_FLAGS})
    return flags.flatmap(lambda given: st.permutations(list(given.items()))).map(tokens)


def _tables(text, output):
    """The config echo and the rows of a printed table, as dicts."""
    if output == "json":
        payload = json.loads(text, parse_constant=float)
        return payload["config"], payload["rows"]
    config, _, rows = parse_csv(text)
    return config, rows


def _number(value):
    """``value`` as a float, or None for a list or a string that is no number
    (a prior spec or an observable name)."""
    if isinstance(value, (list, type(None))):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def run_in_process(argv):
    """(exit code, stdout, stderr) of cli.main(argv); each warning counts as
    a stderr line, as an interpreter would print it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    lines = [f"{warning.category.__name__}: {warning.message}\n" for warning in caught]
    return code, out.getvalue(), err.getvalue() + "".join(lines)


@pytest.mark.parametrize("command", list(FUZZ_FLAGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_command_line_prints_finite_numbers_or_one_error_line(command, data):
    argv = data.draw(_argv(command))
    code, out, err = run_in_process(argv)
    assert code in (0, 2, 3), (code, err)
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("relphase: "), err
        return
    assert err == ""
    config, rows = _tables(out, cli.parse_args(argv).output)
    for row in [config, *rows]:
        for column, value in row.items():
            number = _number(value)
            if number is None or math.isfinite(number):
                continue
            # the one exception: a ratio (|alpha|^2 + |beta|^2) / |alpha|^2
            # beyond the float range, as where |alpha|^2 underflows
            assert column == "condition_ratio" and number == math.inf, (column, value)
            alpha_sq = float(row["alpha_mag"]) ** 2
            assert alpha_sq == 0.0 or (alpha_sq + float(row["beta_mag"]) ** 2) / alpha_sq > 1e307
