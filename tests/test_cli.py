"""Scenario parsing, CSV output, determinism and exit codes of the CLI."""

import math

import pytest

from oam_antijam.cli import (
    CSV_COLUMNS,
    DEFAULT_SEED,
    SEED_ENV_VAR,
    format_sweep_csv,
    main,
    parse_scenario,
)
from oam_antijam.config import ConfigurationError

TINY_SCENARIO = """
[sweep]
snr_db = 0, 10
n_jammed = 0, 2
trials = 20
seed = 42
ber_trials = 3
ber_symbols = 2
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseScenario:
    def test_empty_file_yields_reference_defaults(self, tmp_path):
        scn = parse_scenario(write(tmp_path, ""))
        cfg = scn.config
        assert cfg.n_tx == cfg.n_rx == 16
        assert cfg.r_tx == cfg.r_rx == 0.75
        assert cfg.axial_distance == 15.0
        assert cfg.wavelength == pytest.approx(299792458.0 / 5.8e9)
        assert cfg.energy_threshold_tx == 0.5
        assert cfg.pga_gains == (0.5, 2.0)
        assert cfg.jam_variance_tx == cfg.jam_variance_rx == 0.1
        assert cfg.samples_per_symbol == 64
        # unit element gain: beta = 4 pi d / lambda
        assert cfg.beta == pytest.approx(4 * math.pi * 15.0 / cfg.wavelength)
        assert cfg.transmit_power_total == pytest.approx(1600.0)
        assert scn.axes.snr_db == (-10, -5, 0, 5, 10, 15, 20, 25, 30)
        assert scn.axes.n_jammed == (0, 2, 4, 8)
        assert scn.trials == 1000
        assert scn.seed == DEFAULT_SEED

    def test_missing_file_is_a_validation_error(self):
        with pytest.raises(ConfigurationError):
            parse_scenario("/nonexistent/scenario.ini")

    def test_none_path_gives_defaults(self):
        scn = parse_scenario(None)
        assert scn.config.n_tx == 16

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "[link]\nn_antennas = 8\n")
        with pytest.raises(ConfigurationError, match="n_antennas"):
            parse_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[channel]\nfoo = 1\n")
        with pytest.raises(ConfigurationError, match="channel"):
            parse_scenario(path)

    def test_zero_elements_named_error(self, tmp_path):
        path = write(tmp_path, "[link]\nn_elements = 0\n")
        with pytest.raises(ConfigurationError, match="n_tx"):
            parse_scenario(path)

    def test_override_keeps_other_defaults(self, tmp_path):
        path = write(tmp_path, "[pga]\ngains = 0.5, 4\n")
        scn = parse_scenario(path)
        assert scn.config.pga_gains == (0.5, 4.0)
        assert scn.config.energy_threshold_tx == 0.5
        assert scn.config.pga_priors == (0.5, 0.5)

    def test_explicit_beta_value(self, tmp_path):
        path = write(tmp_path, "[link]\nbeta = 2.5\n")
        assert parse_scenario(path).config.beta == 2.5

    def test_malformed_number(self, tmp_path):
        path = write(tmp_path, "[link]\ndistance = fifteen\n")
        with pytest.raises(ConfigurationError, match="distance"):
            parse_scenario(path)

    def test_jammed_count_beyond_ring(self, tmp_path):
        path = write(tmp_path, "[sweep]\nn_jammed = 20\n")
        with pytest.raises(ConfigurationError, match="n_jammed"):
            parse_scenario(path)

    def test_unknown_scheme(self, tmp_path):
        path = write(tmp_path, "[sweep]\nschemes = magic\n")
        with pytest.raises(ConfigurationError, match="magic"):
            parse_scenario(path)

    def test_snr_reference_key(self, tmp_path):
        path = write(tmp_path, "[sweep]\nsnr_reference = noise-plus-jamming\n")
        assert parse_scenario(path).options.snr_reference == "noise-plus-jamming"
        bad = write(tmp_path, "[sweep]\nsnr_reference = sinr\n", name="bad.ini")
        with pytest.raises(ConfigurationError):
            parse_scenario(bad)


class TestRunScenario:
    def test_csv_schema_and_row_count(self, tmp_path):
        scenario_path = write(tmp_path, """
[sweep]
snr_db = -10, -5, 0, 5, 10, 15, 20, 25, 30
n_jammed = 2
trials = 10
seed = 7
ber_trials = 2
ber_symbols = 2
""")
        out = tmp_path / "out.csv"
        code = main(["--config", scenario_path, "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 9 * 2  # 9 grid points x 2 schemes

    def test_byte_identical_reruns(self, tmp_path):
        scenario_path = write(tmp_path, TINY_SCENARIO)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", scenario_path, "--output", str(out1)]) == 0
        assert main(["--config", scenario_path, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_floats_have_nine_significant_digits(self, tmp_path):
        scenario_path = write(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out.csv"
        main(["--config", scenario_path, "--output", str(out)])
        row = out.read_text().strip().split("\n")[1].split(",")
        se_field = row[CSV_COLUMNS.index("se_bits_per_hz")]
        mantissa = se_field.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) <= 9

    def test_summary_and_trend_report(self, tmp_path, capsys):
        scenario_path = write(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out.csv"
        code = main(["--config", scenario_path, "--output", str(out), "--check-trends"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "SE min" in stdout
        assert "trend PASS: proposed >= baseline" in stdout

    def test_unwritable_output_fails_validation(self, tmp_path):
        scenario_path = write(tmp_path, TINY_SCENARIO)
        code = main(["--config", scenario_path, "--output",
                     str(tmp_path / "missing" / "out.csv")])
        assert code == 1

    def test_invalid_scenario_exit_code(self, tmp_path):
        path = write(tmp_path, "[link]\nn_elements = 0\n")
        assert main(["--config", path, "--output", str(tmp_path / "x.csv")]) == 1


class TestValidationBeforeAnyPoint:
    @pytest.fixture
    def rejected(self, tmp_path, monkeypatch, capsys):
        """Run the CLI on a [sweep] section; it must exit 1 before any grid point."""
        from oam_antijam import metrics

        def no_point(*args):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(metrics, "_sweep_point", no_point)

        def run(sweep, *args):
            path = write(tmp_path, f"[sweep]\ntrials = 2\n{sweep}\n")
            out = tmp_path / "out.csv"
            assert main(["--config", path, "--output", str(out), *args]) == 1
            assert "validation error" in capsys.readouterr().err
            assert not out.exists()

        return run

    @pytest.mark.parametrize("sweep", [
        "n_jammed = -3",
        "snr_reference = noise-plus-jamming\nsnr_db = 0, 10, 30\nn_jammed = 0",
        "ber_trials = -5",
        "ber_symbols = -1",
        "seed = -1",
        "snr_db = 0, 4000",
        "snr_db = -4000",
        "snr_db = 0, nan",
        "snr_db = inf",
        "[pga]\ngains = 0.5, 1.0, 2.0\npriors = 0.25, 0.25, 0.5",
        "[jamming]\nmodel = iid",
        "[jamming]\nmode_power = nan",
        "[jamming]\nmode_power = inf",
        "[jamming]\npower_rx = inf",
        "[jamming]\npower_tx = inf",
        "[link]\ndistance = inf",
        "[link]\nradius_tx = inf",
        "[link]\nbeta = inf",
        "[detection]\nenergy_threshold = inf",
        "[pga]\ngains = 0.5, nan",
        "[pga]\ngains = 0.5, inf",
        "[pga]\npriors = nan, nan",
    ])
    def test_invalid_grid_or_probe_budget(self, rejected, sweep):
        rejected(sweep)

    def test_negative_seed_flag(self, rejected):
        rejected("", "--seed", "-1")

    def test_negative_environment_seed(self, rejected, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        rejected("")


class TestSeedPrecedence:
    def test_environment_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        scenario_path = write(tmp_path, "[sweep]\ntrials = 5\nsnr_db = 0\nn_jammed = 0\n"
                                        "ber_trials = 0\nber_symbols = 0\n")
        out = tmp_path / "out.csv"
        assert main(["--config", scenario_path, "--output", str(out)]) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[-1] == "777"

    def test_scenario_seed_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        scenario_path = write(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out.csv"
        assert main(["--config", scenario_path, "--output", str(out)]) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[-1] == "42"

    def test_flag_beats_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        scenario_path = write(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out.csv"
        assert main(["--config", scenario_path, "--seed", "5",
                     "--output", str(out)]) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[-1] == "5"

    def test_bad_environment_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        scenario_path = write(tmp_path, "")
        assert main(["--config", scenario_path]) == 1


def test_format_sweep_csv_handles_nan():
    from oam_antijam.metrics import SweepResult

    row = SweepResult(scheme="proposed", snr_db=0.0, n_elements=16, n_jammed=0,
                      se_bits=1.5, p_j=1.0, p_u=1.0, p_c=float("nan"),
                      ber=float("nan"), trials=1, seed=0)
    text = format_sweep_csv([row])
    assert "nan" in text
    assert text.startswith(",".join(CSV_COLUMNS))
