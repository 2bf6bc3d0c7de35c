"""Output checks of one sweep CSV; a grid point fails if any check fails."""

from __future__ import annotations

import csv
import io
import math

from scipy.stats import binom

COLUMNS = ("scheme", "snr_db", "n_elements", "n_jammed", "se_bits_per_hz",
           "p_j", "p_u", "p_c", "ber", "trials", "seed")

# Two-sided binomial tail below which a measured BER disagrees with 1 - p_c.
# The probe sends ber_symbols symbols on each jammed mode of each probed trial,
# and all symbols of one such (trial, mode) probe share that mode's calibrated
# threshold, while p_c averages the correct-decision probability over all
# modes. With D probes the variance of the BER is at most
# (1 - p_c) * p_c / D for any spread of the per-mode error rates, so the test
# takes the tail of D * ber under Binomial(D, 1 - p_c).
BER_TAIL = 1e-6
PROB_SUM_TOL = 1e-9


def ber_probes(scenario: dict, n_jammed: int) -> int:
    """(trial, mode) probes behind one grid point's BER (0: no BER is measured)."""
    if scenario["jam_model"] != "targeted" or scenario["ber_symbols"] == 0:
        return 0
    return min(scenario["ber_trials"], scenario["trials"]) * n_jammed


def ber_tail(ber: float, p_c: float, probes: int) -> float:
    """Two-sided tail of ``probes * ber`` under Binomial(probes, 1 - p_c)."""
    q = min(max(1.0 - p_c, 0.0), 1.0)
    x = ber * probes
    low = binom.cdf(math.floor(x + 1e-9), probes, q)
    high = binom.sf(math.ceil(x - 1e-9) - 1, probes, q)
    return min(1.0, 2.0 * min(low, high))


def check_sweep(csv_text: str, scenario: dict, seed: int,
                summary: list[str]) -> tuple[dict, float]:
    """Failed grid points of one sweep, with the first reason for each.

    Returns ({(n_elements, n_jammed, snr_db): reason}, smallest BER tail).
    """
    points = [(n, j, float(s)) for n in scenario["n_elements"]
              for j in scenario["n_jammed"] for s in scenario["snr_db"]]
    reader = csv.DictReader(io.StringIO(csv_text))
    missing = set(COLUMNS) - set(reader.fieldnames or ())
    if missing:
        return {p: f"columns missing: {sorted(missing)}" for p in points}, 1.0
    trend_failures = [line for line in summary if line.startswith("trend FAIL")]
    if trend_failures:
        return {p: trend_failures[0] for p in points}, 1.0

    rows: dict[tuple, dict] = {}
    for row in reader:
        key = (int(row["n_elements"]), int(row["n_jammed"]), float(row["snr_db"]))
        rows.setdefault(key, {})[row["scheme"]] = row

    failed: dict = {}
    min_tail = 1.0
    for point in points:
        by_scheme = rows.get(point, {})
        if sorted(by_scheme) != sorted(scenario["schemes"]):
            failed[point] = f"rows for schemes {sorted(by_scheme)}"
            continue
        n_ber = ber_probes(scenario, point[1])
        for scheme, row in by_scheme.items():
            se, ber = float(row["se_bits_per_hz"]), float(row["ber"])
            p_j, p_u, p_c = float(row["p_j"]), float(row["p_u"]), float(row["p_c"])
            if int(row["trials"]) != scenario["trials"] or int(row["seed"]) != seed:
                failed[point] = "trials or seed column"
            elif not (math.isfinite(se) and se >= 0.0):
                failed[point] = f"{scheme} SE {se}"
            elif scenario["jam_model"] == "iid" and abs(p_j + p_u - 1.0) > PROB_SUM_TOL:
                failed[point] = f"p_j + p_u = {p_j + p_u}"
            elif scheme != "proposed" or n_ber == 0:
                if not math.isnan(ber):
                    failed[point] = f"{scheme} ber {ber}, expected nan"
            elif not 0.0 <= ber <= 1.0:
                failed[point] = f"ber {ber} outside [0, 1]"
            else:
                tail = ber_tail(ber, p_c, n_ber)
                min_tail = min(min_tail, tail)
                if tail < BER_TAIL:
                    failed[point] = f"ber {ber} vs 1 - p_c = {1 - p_c} on {n_ber} probes"
        if ("proposed" in by_scheme and "baseline" in by_scheme
                and float(by_scheme["proposed"]["se_bits_per_hz"])
                < float(by_scheme["baseline"]["se_bits_per_hz"])):
            failed.setdefault(point, "proposed SE < baseline SE")
    return failed, min_tail
