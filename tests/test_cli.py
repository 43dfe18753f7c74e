import json
import subprocess
import sys

import numpy as np
import pytest

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

    def test_unknown_prior_is_config_error(self):
        result = run_cli("twirl-demo", "--prior", "gaussian:2")
        assert result.returncode == 2
        assert "prior" in result.stderr

    def test_negative_observable_count_is_config_error(self):
        result = run_cli("twirl-demo", "--n-observables", "-1")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.strip() == "relphase: --n-observables must be >= 0, got -1"

    def test_large_kappa_rows_finite(self):
        result = run_cli("twirl-demo", "--prior", "vonmises:1e4")
        assert result.returncode == 0
        assert result.stderr == ""
        _, _, rows = parse_csv(result.stdout)
        assert all(np.isfinite(float(row["expectation"])) for row in rows)


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

    def test_even_dimension_is_config_error(self):
        result = run_cli("way-demo", "--dim-list", "4")
        assert result.returncode == 2
        assert "odd" in result.stderr


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
