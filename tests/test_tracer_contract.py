"""The names the benchmark tracer wraps, checked without running the benchmark.

``bench/spans.py`` replaces module attributes by name, and its symbol counter
reads the bits as the 4th positional argument of ``simulate_backscatter_bits``.
A change that renames either fails here, in a plain pytest run, as well as in
``bench/selftest.py``. The benchmark change of ROADMAP item 1 (stage hooks in
the package instead of wrapped names) deletes this test with ``SPAN_TABLE``.
"""

import importlib
import inspect
import runpy
from pathlib import Path

from oam_antijam import backscatter

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_wrapped_name_resolves():
    table = runpy.run_path(str(SPANS))["SPAN_TABLE"]   # runs the source; writes no bytecode
    missing = [f"{module}.{attr}" for module, attr, _, _ in table
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_symbol_counter_reads_the_bits_parameter():
    params = list(inspect.signature(backscatter.simulate_backscatter_bits).parameters)
    assert params[3] == "bits"
