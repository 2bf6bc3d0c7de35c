"""Scenario parsing, CSV output, determinism and exit codes of the CLI."""

import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from oam_antijam import (BASELINE, PROPOSED, LinkConfig, Scenario, SweepAxes, SweepOptions,
                         run_sweep)
from oam_antijam.cli import CSV_COLUMNS, SCENARIO_KEYS, format_sweep_csv, main, parse_scenario
from oam_antijam.config import ConfigurationError
from oam_antijam.metrics import DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

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
        assert cfg.n_tx == 16
        assert cfg.r_tx == cfg.r_rx == 0.75
        assert cfg.axial_distance == 15.0
        assert cfg.wavelength == pytest.approx(299792458.0 / 5.8e9)
        assert cfg.energy_threshold_tx == 0.5
        assert cfg.pga_gains == (0.5, 2.0)
        assert cfg.jam_variance_rx == 0.1
        assert scn.options.jam_variance_tx == 1.0
        assert cfg.samples_per_symbol == 64
        # unit element gain: beta = 4 pi d / lambda
        assert cfg.beta == pytest.approx(4 * math.pi * 15.0 / cfg.wavelength)
        assert cfg.power_per_mode == 100.0
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

    @pytest.mark.parametrize("text", ["[sweep]\nsnr_reference = noise\n",
                                      "[detection]\ncalibration_means = per-class\n",
                                      "[link]\nwavelength = 0.05\n",
                                      "[sweep]\nschemes = proposed\n"])
    def test_removed_keys_rejected_as_unknown(self, tmp_path, text):
        with pytest.raises(ConfigurationError, match=r"unknown key\(s\)"):
            parse_scenario(write(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[channel]\nfoo = 1\n")
        with pytest.raises(ConfigurationError, match="channel"):
            parse_scenario(path)

    @pytest.mark.parametrize("text", ["[DEFAULT]\nfoo = 1\n",
                                      "[DEFAULT]\ntrials = 5\n[sweep]\nseed = 3\n"])
    def test_default_section_rejected(self, tmp_path, text):
        # its keys would be copied into every other section, or ignored without one
        with pytest.raises(ConfigurationError, match="DEFAULT"):
            parse_scenario(write(tmp_path, text))

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

    @pytest.mark.parametrize("text", [
        "[jamming]\nmodel = iid\n",
        "[pga]\ngains = 0.5, 1.0, 2.0\npriors = 0.25, 0.25, 0.5\n",
        "[link]\npower_per_mode = 1e306\n[sweep]\nn_elements = 16, 400\n",
    ])
    def test_grid_that_cannot_run_rejected_at_parse_time(self, tmp_path, text):
        # iid with the default n_jammed, a 3-level PGA, a transmit total that
        # overflows at N = 400
        with pytest.raises(ConfigurationError):
            parse_scenario(write(tmp_path, text))


class TestOneSourceOfDefaults:
    """Every scenario default is a dataclass default; the README states the same ones."""

    DEFAULT = Scenario(LinkConfig(), SweepAxes())

    def test_no_file_gives_the_dataclass_defaults(self):
        assert parse_scenario(None) == self.DEFAULT

    def test_readme_scenario_block_states_the_defaults(self, tmp_path):
        section = README.read_text().split("## Scenario files", 1)[1]
        block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
        assert parse_scenario(write(tmp_path, block)) == self.DEFAULT

    @pytest.mark.parametrize("n", [8, 9, 16, 128])   # the default n_jammed axis runs to 8
    def test_file_ring_size_gives_the_library_default_at_that_size(self, tmp_path, n):
        path = write(tmp_path, f"[link]\nn_elements = {n}\n")
        assert parse_scenario(path) == Scenario(LinkConfig(n_tx=n), SweepAxes())

    def test_file_link_keys_are_link_config_fields(self, tmp_path):
        # every key sets a field of its dataclass as parsed, power_per_mode too
        assert all(name in {f.name for f in fields(cls)}
                   for _, cls, name in SCENARIO_KEYS.values())
        path = write(tmp_path, "[link]\nn_elements = 8\ndistance = 30\n"
                               "power_per_mode = 50\nbeta = 2.5\n")
        assert parse_scenario(path) == Scenario(
            LinkConfig(n_tx=8, axial_distance=30.0, power_per_mode=50.0, beta=2.5),
            SweepAxes())

    @pytest.mark.parametrize("jamming, n_jammed", [("", 2), ("model = iid\n", 0)],
                             ids=["targeted", "iid"])
    def test_power_tx_sets_the_jamming_of_either_model(self, tmp_path, jamming, n_jammed):
        # the one key sets the variance the detector senses and the reflected link carries
        text = (f"[sweep]\nsnr_db = 10\nn_jammed = {n_jammed}\ntrials = 20\nber_trials = 2\n"
                f"[jamming]\n{jamming}")
        csv = []
        for power in ("", "power_tx = 5\n"):
            out = tmp_path / "out.csv"
            assert main(["--config", write(tmp_path, text + power), "--output", str(out)]) == 0
            csv.append(out.read_text())
        assert csv[0] != csv[1]

    def test_library_sweep_writes_the_cli_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["--config", write(tmp_path, TINY_SCENARIO), "--output", str(out)]) == 0
        scenario = Scenario(LinkConfig(), SweepAxes(snr_db=(0.0, 10.0), n_jammed=(0, 2)),
                            SweepOptions(ber_trials=3, ber_symbols=2), trials=20, seed=42)
        assert format_sweep_csv(run_sweep(scenario)) == out.read_text()

    @pytest.mark.parametrize("override", [{"trials": 0}, {"seed": -1},
                                          {"trials": sys.maxsize + 1},
                                          {"axes": SweepAxes(snr_db=(0.0, 0.0))}])
    def test_overrides_are_checked_like_the_file(self, override):
        with pytest.raises(ConfigurationError):
            replace(parse_scenario(None), **override)


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

    @pytest.mark.parametrize("text", ["[sweep]\ntrials = 5\ntrials = 6\n",
                                      "trials = 5\n[sweep]\nseed = 3\n"],
                             ids=["repeated-key", "key-above-any-section"])
    def test_unparsable_scenario_exit_code(self, tmp_path, capsys, text):
        out = tmp_path / "x.csv"
        assert main(["--config", write(tmp_path, text), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("validation error: scenario parse error")
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_write_failure_after_the_sweep_exit_code(self, tmp_path, monkeypatch, capsys):
        # every write to /dev/full fails with ENOSPC, so the failure comes after the sweep
        from oam_antijam import cli

        swept = []

        def recording_sweep(scenario):
            swept.append(scenario)
            return run_sweep(scenario)

        monkeypatch.setattr(cli, "run_sweep", recording_sweep)
        assert main(["--config", write(tmp_path, TINY_SCENARIO), "--output", "/dev/full"]) == 1
        assert len(swept) == 1
        assert capsys.readouterr().err.startswith("cannot write output '/dev/full': ")

    def test_non_finite_spectrum_efficiency_exit_code(self, tmp_path, monkeypatch, capsys):
        # the guard in the grid point, reached through a stub that returns inf bits
        from oam_antijam import metrics

        def infinite_bits(configs, flagged, *args):   # (SNR points, trials) per scheme
            return {scheme: np.full((len(configs), len(flagged)), np.inf)
                    for scheme in (PROPOSED, BASELINE)}

        monkeypatch.setattr(metrics, "spectral_efficiency", infinite_bits)
        path = write(tmp_path, "[link]\nn_elements = 8\n"
                               "[sweep]\nsnr_db = 10\nn_jammed = 2\ntrials = 4\n")
        with pytest.raises(FloatingPointError) as excinfo:
            run_sweep(parse_scenario(path))
        assert str(excinfo.value).startswith("grid point (N=8, l_j=2, snr=10 dB): non-finite")
        out = tmp_path / "x.csv"
        assert main(["--config", path, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("numeric failure: grid point (N=8, l_j=2, ")
        assert not out.exists()

    def test_out_of_memory_exit_code(self, tmp_path, capsys):
        # within numpy's byte limit, so valid, but the 4 EiB preamble array is
        # refused before any memory is touched
        path = write(tmp_path, "[link]\npreamble_length = 576460752303423487\n"
                               "[sweep]\nsnr_db = 0\nn_jammed = 0\ntrials = 2\n")
        out = tmp_path / "x.csv"
        assert main(["--config", path, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("out of memory: ")
        assert not out.exists()

    @pytest.mark.parametrize("jamming, sweep", [
        ("power_tx = 1e308", "n_jammed = 2"),
        ("model = iid\npower_tx = 1e308", "n_jammed = 0"),
    ], ids=["targeted", "iid"])
    def test_numeric_overflow_exit_code(self, tmp_path, jamming, sweep):
        # parsed, then overflowed the first point's preamble energies with exit 2; the
        # point's magnitude bounds now refuse it before any point runs
        path = write(tmp_path, f"[jamming]\n{jamming}\n[sweep]\nsnr_db = 0\n{sweep}\n")
        out = tmp_path / "x.csv"
        proc = fresh_python("import sys; from oam_antijam.cli import main; sys.exit(main())",
                            "--config", path, "--output", str(out), check=False)
        assert proc.returncode == 1
        n_jammed = sweep.split(" = ")[1]
        assert re.search(rf"^validation error: grid point \(N=16, l_j={n_jammed}, snr=0 dB\): "
                         r"jam_variance_tx ", proc.stderr, re.M)
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("gains", ["0, 1e308", "0.5, 1e200"])
    @pytest.mark.parametrize("model", ["targeted", "iid"])
    def test_overflowing_pga_gain_is_a_validation_error(self, gains, model, capsys, tmp_path):
        # both parsed, then exited 2 with "overflow encountered in square" at the first point
        n_jammed = 2 if model == "targeted" else 0
        path = write(tmp_path, f"[pga]\ngains = {gains}\n[jamming]\nmodel = {model}\n"
                               f"[sweep]\nsnr_db = 0\nn_jammed = {n_jammed}\n")
        out = tmp_path / "x.csv"
        assert main(["--config", path, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"validation error: grid point (N=16, l_j={n_jammed}, snr=0 dB): the top PGA gain ")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[jamming]\npower_rx = 1e308\n",
                                      "[sweep]\nsnr_db = -3060\n"])
    def test_receiver_floor_overflow_is_a_validation_error(self, tmp_path, text):
        # n_tx * (noise + jamming) overflowed to inf: a nan p_c raised with a traceback
        out = tmp_path / "x.csv"
        proc = fresh_python("import sys; from oam_antijam.cli import main; sys.exit(main())",
                            "--config", write(tmp_path, text), "--output", str(out),
                            check=False)
        assert proc.returncode == 1
        assert "validation error" in proc.stderr and "jam_variance_rx" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestValidationBeforeAnyPoint:
    @pytest.fixture
    def rejected(self, tmp_path, monkeypatch, capsys):
        """Run the CLI on a [sweep] section; it must exit 1 before any grid point.

        The section runs 2 trials unless it sets ``trials`` itself: a second
        ``trials`` key would be rejected as a duplicate, whatever its value.
        """
        from oam_antijam import metrics

        def no_point(*args):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(metrics, "calibrate_from_preamble", no_point)

        def run(sweep, *args):
            trials = "" if re.search(r"^trials =", sweep, re.M) else "trials = 2\n"
            path = write(tmp_path, f"[sweep]\n{trials}{sweep}\n")
            out = tmp_path / "out.csv"
            assert main(["--config", path, "--output", str(out), *args]) == 1
            assert "validation error" in capsys.readouterr().err
            assert not out.exists()

        return run

    @pytest.mark.parametrize("sweep", [
        "n_jammed = -3",
        "n_elements = 16, 400\nn_jammed = 0\nsnr_db = 0\n[link]\npower_per_mode = 1e306",
        "ber_trials = -5",
        "ber_symbols = -1",
        "seed = -1",
        "snr_db = 0, 4000",
        "snr_db = -4000",
        "snr_db = 0, nan",
        "snr_db = inf",
        "[pga]\ngains = 0.5, 1.0, 2.0\npriors = 0.25, 0.25, 0.5",
        "[jamming]\nmodel = iid",
        "[jamming]\nmode_power = nan",  # removed key: refused as unknown
        "[jamming]\npower_rx = inf",
        "[jamming]\npower_tx = inf",
        "[jamming]\npower_tx = nan",
        "n_jammed = 0\n[jamming]\nmodel = iid\npower_tx = 0",
        "[link]\ndistance = inf",
        "[link]\nfrequency_ghz = inf",
        "[link]\nradius_tx = inf",
        "[link]\nbeta = inf",
        "[link]\nradius_tx = 1e200",
        "[link]\nradius_rx = 1e200",
        "[link]\ndistance = 1e300",
        "[link]\nbeta = 1e200",
        "n_elements = 1" + "0" * 29,
        "[detection]\nenergy_threshold = inf",
        "[pga]\ngains = 0.5, nan",
        "[pga]\ngains = 0.5, inf",
        "[pga]\npriors = nan, nan",
        "snr_db = 0, 0",
        "n_jammed = 2, 2",
        "n_elements = 8, 8",
    ])
    def test_invalid_grid_or_probe_budget(self, rejected, sweep):
        rejected(sweep)

    @pytest.mark.parametrize("sweep", [
        "[link]\npreamble_length = 4611686018427387904",
        "[link]\npreamble_length = 9223372036854775807",
        "[link]\nsamples_per_symbol = 4611686018427387904",
        "ber_symbols = 4611686018427387904",
        "trials = 1152921504606846976\nn_jammed = 0",
        # one batched probe of 2 trials x 2 jammed modes x 2**58 symbols: 2**64 bytes
        "n_jammed = 2\nber_trials = 1000\nber_symbols = 288230376151711744\n"
        "[link]\nn_elements = 8",
    ])
    def test_count_beyond_any_array_size(self, rejected, sweep):
        # each used to pass and then fail inside the first point with a traceback
        rejected(sweep)

    def test_negative_seed_flag(self, rejected):
        rejected("", "--seed", "-1")

    def test_trials_flag_beyond_any_array_size(self, rejected):
        rejected("", "--trials", "1" + "0" * 29)


class TestUnwritableOutput:
    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        from oam_antijam import cli

        def no_sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)

    @pytest.mark.parametrize("output", ["missing/out.csv", "a-file/out.csv", "a-dir"])
    def test_fails_before_the_sweep(self, tmp_path, capsys, output):
        (tmp_path / "a-file").write_text("")
        (tmp_path / "a-dir").mkdir()
        out = str(tmp_path / output)
        assert main(["--config", write(tmp_path, TINY_SCENARIO), "--output", out]) == 1
        assert "cannot write output" in capsys.readouterr().err

    def test_existing_output_untouched_when_the_sweep_fails(self, tmp_path, monkeypatch):
        from oam_antijam import cli

        def failing_sweep(*args):
            raise FloatingPointError("non-finite spectrum efficiency")

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        out = tmp_path / "out.csv"
        out.write_text("previous run\n")
        assert main(["--config", write(tmp_path, TINY_SCENARIO), "--output", str(out)]) == 2
        assert out.read_text() == "previous run\n"


def fresh_python(code: str, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this checkout's package.

    In this interpreter, the tests' own scipy imports would hide a regression.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=check)


def test_import_loads_no_scipy():
    code = ("import oam_antijam.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy']); "
            "print('numpy.random' in sys.modules)")
    scipy_modules, numpy_random = fresh_python(code).stdout.splitlines()
    assert scipy_modules == "[]"
    assert numpy_random == "True"


def test_golden_sweeps_run_without_scipy(tmp_path):
    # importing scipy raises ImportError in the child, so a scipy use anywhere
    # on the sweep's path fails the run
    code = ("import sys; sys.modules['scipy'] = None; from oam_antijam.cli import main; "
            "sys.exit(max(main(['--config', c, '--output', o]) "
            "for c, o in zip(sys.argv[1::2], sys.argv[2::2])))")
    golden, names = ROOT / "tests" / "golden", ("targeted", "iid")
    fresh_python(code, *(str(p) for name in names
                         for p in (golden / f"{name}.ini", tmp_path / f"{name}.csv")))
    for name in names:
        assert (tmp_path / f"{name}.csv").read_bytes() == (golden / f"{name}.csv").read_bytes()
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]


class TestSeedPrecedence:
    def test_flags_are_checked_with_the_file_in_one_scenario(self, tmp_path, monkeypatch):
        # --seed and --trials go into the one Scenario built, so each of the 36
        # default grid points is checked once
        from oam_antijam import cli, metrics

        point_config, checked, swept = metrics._point_config, [], []

        def counting(*args):
            checked.append(args)
            return point_config(*args)

        def no_sweep(scenario):
            swept.append(scenario)
            raise FloatingPointError("stub sweep")

        monkeypatch.setattr(metrics, "_point_config", counting)
        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert main(["--seed", "7", "--trials", "5", "--output", str(tmp_path / "x.csv")]) == 2
        assert len(checked) == 36
        assert (swept[0].seed, swept[0].trials) == (7, 5)

    def test_scenario_seed_beats_default(self, tmp_path):
        scenario_path = write(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out.csv"
        assert main(["--config", scenario_path, "--output", str(out)]) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[-1] == "42"

    def test_flag_beats_everything(self, tmp_path):
        scenario_path = write(tmp_path, TINY_SCENARIO)
        out = tmp_path / "out.csv"
        assert main(["--config", scenario_path, "--seed", "5",
                     "--output", str(out)]) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[-1] == "5"


def test_format_sweep_csv_handles_nan():
    from oam_antijam.metrics import SweepResult

    row = SweepResult(scheme="proposed", snr_db=0.0, n_elements=16, n_jammed=0,
                      se_bits=1.5, p_j=1.0, p_u=1.0, p_c=float("nan"),
                      ber=float("nan"), trials=1, seed=0)
    text = format_sweep_csv([row])
    assert "nan" in text
    assert text.startswith(",".join(CSV_COLUMNS))
