"""Pinned CLI output: small targeted and iid sweeps must reproduce byte for byte.

The CSVs next to the scenario files were written by the CLI itself. A change
that moves any number fails here; re-pin only together with a note on why
the numbers moved.
"""

from pathlib import Path

import pytest

from oam_antijam.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["targeted", "iid"])
def test_cli_output_matches_golden_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["--config", str(GOLDEN / f"{name}.ini"), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
