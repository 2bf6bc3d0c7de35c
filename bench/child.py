"""One sweep of one benchmark workload, in a fresh process.

    python3 bench/child.py --scenario FILE --seed N --csv FILE --spawned T [--trace]

Imports the package from the checkout's ``src/``, parses the scenario, sets
its seed, and runs ``cli.run_scenario`` with the trend report, as
``oam-antijam --check-trends`` does. ``--spawned`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
runs from process start to the parsed scenario. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import numpy
    import scipy
    from oam_antijam import cli
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed() if args.trace else contextlib.nullcontext():
        scenario = dataclasses.replace(cli.parse_scenario(args.scenario), seed=args.seed)
        setup_s = time.monotonic() - args.spawned
        summary = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(summary):
            code = cli.run_scenario(scenario, args.csv, trend_report=True)
        sweep_s = time.perf_counter() - start

    print(json.dumps({
        "exit_code": code,
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summary": summary.getvalue().splitlines(),
        "scenario": {
            "jam_model": scenario.options.jam_model,
            "schemes": list(scenario.schemes),
            "trials": scenario.trials,
            "ber_trials": scenario.options.ber_trials,
            "ber_symbols": scenario.options.ber_symbols,
            "snr_db": list(scenario.axes.snr_db),
            "n_jammed": list(scenario.axes.n_jammed),
            "n_elements": list(scenario.axes.n_elements),
        },
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "spans": tracer.report() if args.trace else None,
        "absent": tracer.absent,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
