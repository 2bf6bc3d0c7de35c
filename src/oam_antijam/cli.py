"""Command-line front end: scenario files in, CSV sweeps out.

Scenario files are INI documents with sections [link], [jamming], [detection],
[pga] and [sweep]; every key is optional and falls back to the documented
default (the reference numerical setup), unknown keys are rejected. An empty
or missing file therefore runs the full default sweep.

Section keys and defaults::

    [link]      n_elements=16  radius_tx=0.75  radius_rx=0.75  distance=15.0
                frequency_ghz=5.8  wavelength=<derived>  beta=normalized
                power_per_mode=100.0  samples_per_symbol=64  preamble_length=16
    [jamming]   model=targeted  power_tx=0.1  power_rx=0.1  mode_power=1.0
    [detection] energy_threshold=0.5  calibration_means=per-class
    [pga]       gains=0.5,2.0  priors=0.5,0.5
    [sweep]     snr_db=-10,...,30  n_jammed=0,2,4,8  n_elements=<link value>
                schemes=proposed,baseline  trials=1000  seed=1234
                ber_trials=25  ber_symbols=8

``beta`` is either a number or ``normalized`` (element gains of unit modulus,
which puts transmit power, noise and jamming on one scale). The CSV schema is
``scheme,snr_db,n_elements,n_jammed,se_bits_per_hz,p_j,p_u,p_c,ber,trials,seed``
with floats at 9 significant digits, so a (scenario, seed) pair reproduces the
output byte for byte. Exit codes: 0 success, 1 validation error, 2 numeric
failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigurationError, LinkConfig, wavelength_for_frequency
from .metrics import (SweepAxes, SweepOptions, SweepResult, check_trends, run_sweep,
                      validate_grid, validate_schemes)

SEED_ENV_VAR = "OAM_SIM_SEED"
DEFAULT_SEED = 1234

CSV_COLUMNS = ("scheme", "snr_db", "n_elements", "n_jammed", "se_bits_per_hz",
               "p_j", "p_u", "p_c", "ber", "trials", "seed")

_KNOWN_KEYS = {
    "link": {"n_elements", "radius_tx", "radius_rx", "distance", "frequency_ghz",
             "wavelength", "beta", "power_per_mode", "samples_per_symbol",
             "preamble_length"},
    "jamming": {"model", "power_tx", "power_rx", "mode_power"},
    "detection": {"energy_threshold", "calibration_means"},
    "pga": {"gains", "priors"},
    "sweep": {"snr_db", "n_jammed", "n_elements", "schemes", "trials", "seed",
              "ber_trials", "ber_symbols", "snr_reference"},
}


@dataclass(frozen=True)
class Scenario:
    """Everything one sweep run needs, as parsed from a scenario file."""

    config: LinkConfig
    axes: SweepAxes
    options: SweepOptions
    schemes: tuple[str, ...]
    trials: int
    seed: int
    seed_in_file: bool = False  # [sweep] seed was given, so OAM_SIM_SEED does not apply


def _get(parser: configparser.ConfigParser, section: str, key: str, default: str) -> str:
    if parser.has_option(section, key):
        return parser.get(section, key)
    return default


def _parse_float(raw: str, label: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{label}: expected a number, got {raw!r}") from exc


def _parse_int(raw: str, label: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{label}: expected an integer, got {raw!r}") from exc


def _parse_list(raw: str, label: str, caster) -> tuple:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigurationError(f"{label}: empty list")
    return tuple(caster(item, f"{label} entry") for item in items)


def parse_scenario(path: str | None) -> Scenario:
    """Load and validate a scenario file; ``None`` yields the default scenario.

    Raises :class:`ConfigurationError` naming the offending section/key on any
    unknown key, malformed value, or violated invariant.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh, source=path)
        except OSError as exc:
            raise ConfigurationError(f"cannot read scenario file {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigurationError(f"scenario parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigurationError(f"unknown scenario section [{section}]")
        unknown = set(parser.options(section)) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")

    n_elements = _parse_int(_get(parser, "link", "n_elements", "16"), "[link] n_elements")
    if parser.has_option("link", "wavelength"):
        wavelength = _parse_float(parser.get("link", "wavelength"), "[link] wavelength")
    else:
        freq_ghz = _parse_float(_get(parser, "link", "frequency_ghz", "5.8"),
                                "[link] frequency_ghz")
        wavelength = wavelength_for_frequency(freq_ghz * 1e9)
    power_per_mode = _parse_float(_get(parser, "link", "power_per_mode", "100.0"),
                                  "[link] power_per_mode")
    if power_per_mode <= 0.0:
        raise ConfigurationError("[link] power_per_mode must be positive")

    raw_beta = _get(parser, "link", "beta", "normalized").strip().lower()
    config = LinkConfig(
        n_tx=n_elements,
        n_rx=n_elements,
        r_tx=_parse_float(_get(parser, "link", "radius_tx", "0.75"), "[link] radius_tx"),
        r_rx=_parse_float(_get(parser, "link", "radius_rx", "0.75"), "[link] radius_rx"),
        axial_distance=_parse_float(_get(parser, "link", "distance", "15.0"),
                                    "[link] distance"),
        wavelength=wavelength,
        beta=1.0 if raw_beta == "normalized" else _parse_float(raw_beta, "[link] beta"),
        noise_variance_rx=0.1,  # replaced per sweep point from the SNR axis
        jam_variance_tx=_parse_float(_get(parser, "jamming", "power_tx", "0.1"),
                                     "[jamming] power_tx"),
        jam_variance_rx=_parse_float(_get(parser, "jamming", "power_rx", "0.1"),
                                     "[jamming] power_rx"),
        energy_threshold_tx=_parse_float(
            _get(parser, "detection", "energy_threshold", "0.5"),
            "[detection] energy_threshold"),
        pga_gains=_parse_list(_get(parser, "pga", "gains", "0.5, 2.0"),
                              "[pga] gains", _parse_float),
        pga_priors=_parse_list(_get(parser, "pga", "priors", "0.5, 0.5"),
                               "[pga] priors", _parse_float),
        samples_per_symbol=_parse_int(_get(parser, "link", "samples_per_symbol", "64"),
                                      "[link] samples_per_symbol"),
        preamble_length=_parse_int(_get(parser, "link", "preamble_length", "16"),
                                   "[link] preamble_length"),
        transmit_power_total=power_per_mode * n_elements,
    )
    if raw_beta == "normalized":
        config = config.with_unit_element_gain()

    model = _get(parser, "jamming", "model", "targeted").strip().lower()
    means = _get(parser, "detection", "calibration_means", "per-class").strip().lower()
    if means not in ("per-class", "preamble-average"):
        raise ConfigurationError(
            f"[detection] calibration_means must be per-class or preamble-average, "
            f"got {means!r}")
    options = SweepOptions(
        jam_model=model,
        mode_jam_variance=_parse_float(_get(parser, "jamming", "mode_power", "1.0"),
                                       "[jamming] mode_power"),
        ber_trials=_parse_int(_get(parser, "sweep", "ber_trials", "25"),
                              "[sweep] ber_trials"),
        ber_symbols=_parse_int(_get(parser, "sweep", "ber_symbols", "8"),
                               "[sweep] ber_symbols"),
        verbatim_means=(means == "preamble-average"),
        snr_reference=_get(parser, "sweep", "snr_reference", "noise").strip().lower(),
    )

    axes = SweepAxes(
        snr_db=_parse_list(_get(parser, "sweep", "snr_db",
                                "-10,-5,0,5,10,15,20,25,30"),
                           "[sweep] snr_db", _parse_float),
        n_jammed=_parse_list(_get(parser, "sweep", "n_jammed", "0,2,4,8"),
                             "[sweep] n_jammed", _parse_int),
        n_elements=_parse_list(_get(parser, "sweep", "n_elements", str(n_elements)),
                               "[sweep] n_elements", _parse_int),
    )
    validate_grid(config, axes, options)

    schemes = tuple(s.strip().lower() for s in
                   _get(parser, "sweep", "schemes", "proposed, baseline").split(",")
                   if s.strip())
    validate_schemes(schemes)

    trials = _parse_int(_get(parser, "sweep", "trials", "1000"), "[sweep] trials")
    if trials < 1:
        raise ConfigurationError("[sweep] trials must be >= 1")
    seed = _parse_int(_get(parser, "sweep", "seed", str(DEFAULT_SEED)), "[sweep] seed")
    if seed < 0:
        raise ConfigurationError(f"[sweep] seed must be >= 0, got {seed}")

    return Scenario(config=config, axes=axes, options=options, schemes=schemes,
                    trials=trials, seed=seed,
                    seed_in_file=parser.has_option("sweep", "seed"))


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def format_sweep_csv(results: list[SweepResult]) -> str:
    """Render sweep results as the fixed-schema CSV text."""
    lines = [",".join(CSV_COLUMNS)]
    for r in results:
        row = (r.scheme, r.snr_db, r.n_elements, r.n_jammed, r.se_bits,
               r.p_j, r.p_u, r.p_c, r.ber, r.trials, r.seed)
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def run_scenario(scenario: Scenario, output_path: str,
                 trend_report: bool = False) -> int:
    """Execute a parsed scenario, write its CSV, print the summary.

    Returns the process exit code (0 success, 1 validation, 2 numeric).
    """
    out_dir = os.path.dirname(os.path.abspath(output_path))
    if os.path.isdir(output_path) or not os.path.isdir(out_dir):
        print(f"cannot write output {output_path!r}: not a file path in a directory",
              file=sys.stderr)
        return 1
    try:
        results = run_sweep(scenario.config, scenario.axes, scenario.schemes,
                            scenario.trials, scenario.seed, scenario.options)
    except ConfigurationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2

    try:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(format_sweep_csv(results))
    except OSError as exc:
        print(f"cannot write output {output_path!r}: {exc}", file=sys.stderr)
        return 1

    for scheme in scenario.schemes:
        ses = [r.se_bits for r in results if r.scheme == scheme]
        print(f"{scheme}: {len(ses)} points, SE min {min(ses):.4g} "
              f"max {max(ses):.4g} bits/s/Hz")
    print(f"wrote {len(results)} rows to {output_path}")

    if trend_report:
        for chk in check_trends(results):
            print(f"trend {'PASS' if chk.passed else 'FAIL'}: {chk.name} ({chk.detail})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oam-antijam",
        description="Link-level sweeps of a ring-array mode-multiplexed radio "
                    "link under co-channel jamming, with jamming-reuse backscatter.")
    parser.add_argument("--config", help="scenario file (INI); default scenario if omitted")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--trials", type=int, help="override the scenario trial count")
    parser.add_argument("--output", default="sweep.csv", help="CSV output path")
    parser.add_argument("--check-trends", action="store_true",
                        help="append trend property checks to the summary")
    args = parser.parse_args(argv)

    try:
        scenario = parse_scenario(args.config)
    except ConfigurationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1

    seed = scenario.seed
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None and not scenario.seed_in_file:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"validation error: {SEED_ENV_VAR}={env_seed!r} is not an "
                  f"integer", file=sys.stderr)
            return 1
    if args.seed is not None:
        seed = args.seed
    if args.trials is not None and args.trials < 1:
        print("validation error: --trials must be >= 1", file=sys.stderr)
        return 1
    scenario = replace(scenario, seed=seed,
                       trials=scenario.trials if args.trials is None else args.trials)
    return run_scenario(scenario, args.output, trend_report=args.check_trends)


if __name__ == "__main__":
    sys.exit(main())
