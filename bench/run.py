"""Benchmark of oam-antijam sweeps: end-to-end figures and a traced per-layer split.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; it imports the package from ``src/``.
Each measured sweep runs in a fresh single-threaded process
(``bench/child.py``), one after another until ``--seconds`` have passed.
With ``--trace 0`` every sweep is untraced and the end-to-end metrics are
their medians. With ``--trace 1`` untraced and traced sweeps alternate and the
per-layer metrics come from the traced ones. Every sweep's CSV is checked
(``bench/checks.py``). The last line of standard output is the result JSON; the
line before it carries the CSV digest and the environment. ``--workload all``
runs every workload in both modes, prints each metric with its unit and writes
``bench/out/BENCH_<commit>.json``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("paper_sweep", "broadband_sense")
END_TO_END = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
from checks import check_sweep  # noqa: E402


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def workload_file(name: str) -> Path:
    return BENCH / "workloads" / f"{name}.ini"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def sweep_once(scenario: Path, seed: int, trace: bool) -> dict:
    """One sweep of a scenario file in a fresh process, with its CSV checked."""
    csv_path = OUT / f"{scenario.stem}.csv"
    csv_path.unlink(missing_ok=True)
    env = dict(os.environ, **{var: str(THREAD_CAP) for var in THREAD_VARS})
    command = [sys.executable, str(BENCH / "child.py"),
               "--scenario", str(scenario),
               "--seed", str(seed), "--csv", str(csv_path)]
    spawned = time.monotonic()
    proc = subprocess.run(command + ["--spawned", repr(spawned)]
                          + (["--trace"] if trace else []),
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep process exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
    failed, min_tail = check_sweep(csv_text, result["scenario"], seed, result["summary"])
    sc = result["scenario"]
    result.update(
        points=len(sc["n_elements"]) * len(sc["n_jammed"]) * len(sc["snr_db"]),
        failed=failed, min_tail=min_tail, csv_bytes=len(csv_text.encode("utf-8")),
        csv_sha256=hashlib.sha256(csv_text.encode("utf-8")).hexdigest())
    return result


def measure(scenario: Path, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Sweeps of one scenario for ``seconds``; returns (result, info)."""
    workload = scenario.stem
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or not plain
           or (trace and not traced)):
        run_traced = trace and len(traced) < len(plain)
        (traced if run_traced else plain).append(sweep_once(scenario, seed, run_traced))
    runs = plain + traced

    def median(key, sweeps=plain):
        return statistics.median(r[key] for r in sweeps)

    if trace:
        spans = [r["spans"] for r in traced]
        counts_repeat = all(s[k] == spans[0][k] for s in spans for k in s
                            if per_layer_unit(k) != "s")
        values = {k: statistics.median(s[k] for s in spans)
                  if per_layer_unit(k) == "s" else spans[0][k] for k in spans[0]}
        values["cli.csv_bytes"] = traced[0]["csv_bytes"]
        values["tracing_overhead_s"] = median("sweep_s", traced) - median("sweep_s")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        counts_repeat = True
        metrics = {k: {"value": median(k), "unit": unit} for k, unit in END_TO_END.items()}

    digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    recorded = digests.get(workload, {}).get(str(seed))
    shas = sorted({r["csv_sha256"] for r in runs})
    failed = sum(len(r["failed"]) for r in runs)
    result = {
        "correct": failed == 0 and len(shas) == 1 and counts_repeat,
        "attempted": sum(r["points"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "scenario": runs[0]["scenario"],
        "sweeps": len(plain), "traced_sweeps": len(traced),
        "sweep_s_each": [r["sweep_s"] for r in plain],
        "csv_sha256": shas,
        "csv_changed": None if recorded is None else shas != [recorded],
        "csv_identical_across_sweeps": len(shas) == 1,
        "counts_repeat": counts_repeat,
        "min_ber_tail": min(r["min_tail"] for r in runs),
        "failures": sorted({f"{p}: {why}" for r in runs for p, why in r["failed"].items()})[:10],
        "absent": sorted({name for r in runs for name in r["absent"]}),
        "env": {"commit": git_commit(), "seed": seed, **runs[0]["versions"],
                "nproc": len(os.sched_getaffinity(0)), "thread_cap": THREAD_CAP,
                "thread_vars": list(THREAD_VARS)},
    }
    return result, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "oam_antijam").is_dir():
        print(f"no package source at {ROOT / 'src' / 'oam_antijam'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload != "all":
        result, info = measure(workload_file(args.workload), args.seed, args.seconds,
                               bool(args.trace))
        print(json.dumps(info))
        print(json.dumps(result))
        return 0

    report = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result, info = measure(workload_file(workload), args.seed, args.seconds, trace)
            report.append({"info": info, "result": result})
            for name, metric in result["metrics"].items():
                value = metric["value"]
                shown = f"{value:.6g}" if isinstance(value, float) else value
                print(f"{workload:16s} {name:40s} {shown} {metric['unit']}")
            print(f"{workload:16s} {'correct' if result['correct'] else 'INCORRECT'}: "
                  f"{result['failed']} of {result['attempted']} points failed")
    path = OUT / f"BENCH_{report[0]['info']['env']['commit'][:12]}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all(r["result"]["correct"] for r in report) else 1


if __name__ == "__main__":
    sys.exit(main())
