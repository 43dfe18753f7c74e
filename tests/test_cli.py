import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import HAS_VMHWM, RUN_CLI, peak_mb

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
    ],
    ids=[
        "twirl-kappa-", "twirl-kappa+", "way-kappa-", "way-kappa+", "twirl-alpha", "alpha", "z",
        "z-max",
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
        ("contract-overlap", "--z", "1", "--n-grid", "25,16777217"),
        # a (n_max+1)^2 dense twirl at n_max of about 1e12
        ("twirl-demo", "--alpha", "1e6"),
        ("twirl-demo", "--n-max", "2896"),
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
        "spin-size",
        "twirl-alpha",
        "twirl-n-max",
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
