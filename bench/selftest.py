"""Self-test of the benchmark on miniature workloads.

    python3 bench/selftest.py

Measures each miniature scenario untraced once and traced twice, as
``run.py`` does, and checks that:

- every metric named in ``BENCHMARK.json`` is emitted and no point fails;
- on the targeted scenario every span is hit: each per-layer figure other
  than the calibration fallbacks and the tracing overhead is > 0;
- self times are >= 0;
- the direct children of ``run_sweep`` plus ``metrics.self_s`` add up to
  ``metrics.run_sweep_s``;
- the counts match the scenario exactly: ``calibrate_calls`` = points x N and
  ``probe_symbols`` = sum over points of min(ber_trials, trials) x l_j x
  ber_symbols;
- two traced runs with one seed give identical counts;
- a name missing from the package is reported absent and every wrapped name
  is restored after the traced run.

Exits 0 when every check holds.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import run
import spans

SEED = 5
MINI = {
    "mini_targeted": "[link]\nn_elements = 8\n\n[sweep]\nsnr_db = -10, 20\n"
                     "n_jammed = 0, 2, 3\ntrials = 30\nber_trials = 4\nber_symbols = 3\n",
    "mini_iid": "[link]\nn_elements = 8\n\n[jamming]\nmodel = iid\n\n[detection]\n"
                "energy_threshold = 0.1\n\n[sweep]\nsnr_db = 0, 10\nn_jammed = 0\ntrials = 40\n",
}
MAY_BE_ZERO = ("backscatter.calibrate_fallbacks", "backscatter.calibrate_fallback_ratio",
               "tracing_overhead_s")
RUN_SWEEP_CHILDREN = ("jamming.sense_draw_s", "backscatter.calibrate_s",
                      "backscatter.decision_prob_s", "backscatter.probe_s",
                      "channel.build_s", "channel.link_gains_s",
                      "signals.mode_transform_s", "sensing.detection_prob_s")


def check_workload(scenario: Path, declared: dict) -> list[str]:
    problems = []
    plain, _ = run.measure(scenario, SEED, 0.0, trace=False)
    traced = [run.measure(scenario, SEED, 0.0, trace=True) for _ in range(2)]
    (first, info), (second, _) = traced
    for name in declared["end_to_end"]:
        if name not in plain["metrics"]:
            problems.append(f"end-to-end metric {name} not emitted")
    for name in declared["per_layer"]:
        if name not in first["metrics"]:
            problems.append(f"per-layer metric {name} not emitted")
    for result in (plain, first, second):
        if not result["correct"] or result["failed"]:
            problems.append(f"{result['failed']} of {result['attempted']} points failed")
    if problems:
        return problems

    m = {k: v["value"] for k, v in first["metrics"].items()}
    for name, value in m.items():
        if name.endswith("_s") and name != "tracing_overhead_s" and value < 0.0:
            problems.append(f"{name} = {value} < 0")
    children = sum(m[name] for name in RUN_SWEEP_CHILDREN)
    if not math.isclose(children + m["metrics.self_s"], m["metrics.run_sweep_s"],
                        rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"children {children} + self {m['metrics.self_s']} "
                        f"!= run_sweep {m['metrics.run_sweep_s']}")

    sc = info["scenario"]
    if sc["jam_model"] == "targeted":
        problems += [f"{name} = 0 on a targeted scenario" for name, value in m.items()
                     if value <= 0 and name not in MAY_BE_ZERO]
    points = [(n, j) for n in sc["n_elements"] for j in sc["n_jammed"] for _ in sc["snr_db"]]
    expected = {
        "metrics.points": len(points),
        "backscatter.calibrate_calls": sum(n for n, _ in points),
        "backscatter.probe_symbols": sum(
            min(sc["ber_trials"], sc["trials"]) * j * sc["ber_symbols"] for _, j in points)
        if sc["jam_model"] == "targeted" else 0,
    }
    for name, value in expected.items():
        if m[name] != value:
            problems.append(f"{name} = {m[name]}, expected {value}")

    for name, metric in second["metrics"].items():
        if metric["unit"] != "s" and metric["value"] != first["metrics"][name]["value"]:
            problems.append(f"{name} differs between traced runs")
    if info["absent"]:
        problems.append(f"absent names: {info['absent']}")
    return problems


def check_absent_and_restore() -> list[str]:
    missing = (("oam_antijam.metrics", "no_such_function", "missing", None),
               ("oam_antijam.no_such_module", "run", "missing", None))
    before = {(mod, attr): getattr(importlib.import_module(mod), attr)
              for mod, attr, _, _ in spans.SPAN_TABLE}
    tracer = spans.Tracer()
    table = spans.SPAN_TABLE
    spans.SPAN_TABLE = table + missing
    try:
        with tracer.installed():
            pass
    finally:
        spans.SPAN_TABLE = table
    problems = []
    if tracer.absent != [f"{mod}.{attr}" for mod, attr, _, _ in missing]:
        problems.append(f"absent names reported as {tracer.absent}")
    for (mod, attr), fn in before.items():
        if getattr(importlib.import_module(mod), attr) is not fn:
            problems.append(f"{mod}.{attr} not restored")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    declared_json = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {key: [m["name"] for m in declared_json[key]]
                for key in ("end_to_end", "per_layer")}
    problems = [f"tracer: {p}" for p in check_absent_and_restore()]
    for name, text in MINI.items():
        scenario = run.OUT / f"{name}.ini"
        scenario.write_text(text, encoding="utf-8")
        problems += [f"{name}: {p}" for p in check_workload(scenario, declared)]
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'FAIL' if problems else 'PASS'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
