"""Command-line front end: scenario files in, CSV sweeps out.

Scenario files are INI documents with sections [link], [jamming], [detection],
[pga] and [sweep]. :data:`SCENARIO_KEYS` maps every key to the field it sets;
an absent key keeps that field's dataclass default, so an empty or missing
file runs ``Scenario(LinkConfig(), SweepAxes())``. Unknown keys are rejected,
and the README's "Scenario files" block lists every key with its default.
``beta = normalized`` is LinkConfig's None default. ``--seed`` and ``--trials``
take the place of the file's values in the one :class:`metrics.Scenario`
built, whose construction checks every grid point: a scenario that cannot
run exits 1 before any point runs. The CSV schema is
``scheme,snr_db,n_elements,n_jammed,se_bits_per_hz,p_j,p_u,p_c,ber,trials,seed``
with floats at 9 significant digits, so a (scenario, seed) pair reproduces the
output byte for byte. Exit codes: 0 success, 1 validation error, 2 numeric
failure or out of memory.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from .config import ConfigurationError, LinkConfig, wavelength_for_frequency
from .metrics import (Scenario, SweepAxes, SweepOptions, SweepResult, check_trends,
                      run_sweep)

CSV_COLUMNS = ("scheme", "snr_db", "n_elements", "n_jammed", "se_bits_per_hz",
               "p_j", "p_u", "p_c", "ber", "trials", "seed")


def _list_of(caster):
    """Parser of a non-empty comma-separated list, each item through ``caster``."""
    def parse(raw: str) -> tuple:
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if not items:
            raise ValueError("empty list")
        return tuple(caster(item) for item in items)
    return parse


def _beta(raw: str) -> float | None:
    """A number, or ``normalized`` (None, the default): unit-modulus element gains."""
    return None if raw.lower() == "normalized" else float(raw)


# [section] key -> (parser, dataclass, field it sets).
SCENARIO_KEYS = {
    ("link", "n_elements"): (int, LinkConfig, "n_tx"),
    ("link", "radius_tx"): (float, LinkConfig, "r_tx"),
    ("link", "radius_rx"): (float, LinkConfig, "r_rx"),
    ("link", "distance"): (float, LinkConfig, "axial_distance"),
    ("link", "frequency_ghz"): (lambda raw: wavelength_for_frequency(float(raw) * 1e9),
                                LinkConfig, "wavelength"),
    ("link", "beta"): (_beta, LinkConfig, "beta"),
    ("link", "power_per_mode"): (float, LinkConfig, "power_per_mode"),
    ("link", "samples_per_symbol"): (int, LinkConfig, "samples_per_symbol"),
    ("link", "preamble_length"): (int, LinkConfig, "preamble_length"),
    ("jamming", "model"): (str.lower, SweepOptions, "jam_model"),
    ("jamming", "power_tx"): (float, SweepOptions, "jam_variance_tx"),
    ("jamming", "power_rx"): (float, LinkConfig, "jam_variance_rx"),
    ("detection", "energy_threshold"): (float, LinkConfig, "energy_threshold_tx"),
    ("pga", "gains"): (_list_of(float), LinkConfig, "pga_gains"),
    ("pga", "priors"): (_list_of(float), LinkConfig, "pga_priors"),
    ("sweep", "snr_db"): (_list_of(float), SweepAxes, "snr_db"),
    ("sweep", "n_jammed"): (_list_of(int), SweepAxes, "n_jammed"),
    ("sweep", "n_elements"): (_list_of(int), SweepAxes, "n_elements"),
    ("sweep", "trials"): (int, Scenario, "trials"),
    ("sweep", "seed"): (int, Scenario, "seed"),
    ("sweep", "ber_trials"): (int, SweepOptions, "ber_trials"),
    ("sweep", "ber_symbols"): (int, SweepOptions, "ber_symbols"),
}


def parse_scenario(path: str | None, **overrides) -> Scenario:
    """Load and validate a scenario file; ``None`` yields the default scenario.

    ``overrides`` (``seed``, ``trials``) replace the file's :class:`Scenario`
    fields. Raises :class:`ConfigurationError` naming the offending section/key
    on any unknown key, malformed value, or violated invariant.
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

    if parser.defaults():  # configparser would copy them into every section
        raise ConfigurationError(f"unknown scenario section [{parser.default_section}]")
    for section in parser.sections():
        known = {key for sec, key in SCENARIO_KEYS if sec == section}
        if not known:
            raise ConfigurationError(f"unknown scenario section [{section}]")
        unknown = set(parser.options(section)) - known
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")

    fields = {cls: {} for cls in (LinkConfig, SweepAxes, SweepOptions, Scenario)}
    for (section, key), (parse, cls, name) in SCENARIO_KEYS.items():
        if parser.has_option(section, key):
            try:
                fields[cls][name] = parse(parser.get(section, key))
            except ValueError as exc:
                raise ConfigurationError(f"[{section}] {key}: {exc}") from exc
    return Scenario(LinkConfig(**fields[LinkConfig]), SweepAxes(**fields[SweepAxes]),
                    SweepOptions(**fields[SweepOptions]), **{**fields[Scenario], **overrides})


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

    Returns the process exit code (0 success, 1 unwritable output, 2 numeric
    failure or out of memory). The scenario was checked when it was built.
    """
    out_dir = os.path.dirname(os.path.abspath(output_path))
    if os.path.isdir(output_path) or not os.path.isdir(out_dir):
        print(f"cannot write output {output_path!r}: not a file path in a directory",
              file=sys.stderr)
        return 1
    try:
        results = run_sweep(scenario)
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
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
        flags = {"seed": args.seed, "trials": args.trials}
        scenario = parse_scenario(args.config, **{k: v for k, v in flags.items() if v is not None})
    except ConfigurationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    return run_scenario(scenario, args.output, trend_report=args.check_trends)


if __name__ == "__main__":
    sys.exit(main())
