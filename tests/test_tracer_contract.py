"""The names the benchmark tracer wraps, checked without running the benchmark.

``bench/spans.py`` replaces module attributes by name, and its symbol counter
reads the bits as the 4th positional argument of ``simulate_backscatter_bits``.
``bench/selftest.py`` requires every wrapped name to be reached on its
targeted scenario. A change that renames a name, or stops calling it through
the module the table names, fails here, in a plain pytest run, as well as in
the self-test. The benchmark change of ROADMAP item 1 (stage hooks in the
package instead of wrapped names) deletes this test with ``SPAN_TABLE``.
"""

import importlib
import inspect
import runpy
from collections import Counter
from pathlib import Path

from oam_antijam import backscatter, cli
from oracles import selftest_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def test_every_wrapped_name_resolves():
    table = runpy.run_path(str(SPANS))["SPAN_TABLE"]   # runs the source; writes no bytecode
    missing = [f"{module}.{attr}" for module, attr, _, _ in table
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_symbol_counter_reads_the_bits_parameter():
    params = list(inspect.signature(backscatter.simulate_backscatter_bits).parameters)
    assert params[3] == "bits"


def test_every_wrapped_name_is_reached_on_the_selftest_targeted_scenario(tmp_path,
                                                                         monkeypatch):
    # each name is replaced on the module the table names, as the tracer does, so a
    # call that bypasses that module attribute leaves its count at 0
    table = runpy.run_path(str(SPANS))["SPAN_TABLE"]
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr, _, _ in table:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting(f"{module_name}.{attr}",
                                                   getattr(module, attr)))
    path = tmp_path / "mini_targeted.ini"
    path.write_text(selftest_scenario("mini_targeted"), encoding="utf-8")
    scenario = cli.parse_scenario(str(path))
    assert cli.run_scenario(scenario, str(tmp_path / "out.csv")) == 0
    assert [f"{module}.{attr}" for module, attr, _, _ in table
            if not calls[f"{module}.{attr}"]] == []
    axes = scenario.axes
    points = [n for n in axes.n_elements for _ in axes.n_jammed for _ in axes.snr_db]
    assert calls["oam_antijam.metrics.calibrate_from_preamble"] == sum(points)
