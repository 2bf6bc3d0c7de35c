"""Pinned CLI output: small targeted, iid, wide-ring, default-grid, N = 128 memory-point and
unequal-PGA-prior sweeps must reproduce byte for byte, and so must the benchmark's two
workloads at seed 1.

The CSVs next to the scenario files were written by the CLI itself. A change
that moves any number fails here; re-pin only together with a note on why
the numbers moved. The benchmark's scenario files are read where the benchmark
keeps them, in ``bench/workloads``; only their CSVs live here. ``trials_100k``
(100 000 trials, about 1.5 s) is left to CI's golden loop and memory step.
"""

from pathlib import Path

import pytest

from oam_antijam.cli import main

GOLDEN = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).parent.parent / "bench" / "workloads"
BENCH_SEED = 1


@pytest.mark.parametrize("name", ["targeted", "iid", "wide", "paper_grid", "targeted_n128",
                                  "pga_priors"])
def test_cli_output_matches_golden_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["--config", str(GOLDEN / f"{name}.ini"), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", ["paper_sweep", "broadband_sense"])
def test_benchmark_workload_matches_golden_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["--config", str(WORKLOADS / f"{name}.ini"), "--seed", str(BENCH_SEED),
                 "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
