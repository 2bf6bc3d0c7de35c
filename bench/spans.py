"""Span tracing of oam_antijam from outside the package.

The traced run replaces module attributes with timing wrappers. A wrapper
pushes a span on a stack, so each span knows the nearest wrapped span that
called it: one function is attributed by its caller (the preamble
calibration versus the BER probe, the sensing draws versus the link draws).
Nothing in ``src/`` is changed and the originals are restored afterwards.

A span's self time is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager

RUN_SWEEP = "metrics.run_sweep"
PROBE = "backscatter.probe"
CALIBRATE = "backscatter.calibrate"
SYNTH = "backscatter.synth"
DRAW = "jamming.draw"


def _samples(args, kwargs, result) -> dict:
    shape = kwargs.get("shape", args[1] if len(args) > 1 else ())
    return {"samples": math.prod(shape) if isinstance(shape, tuple) else int(shape)}


def _symbols(args, kwargs, result) -> dict:
    bits = kwargs.get("bits", args[3] if len(args) > 3 else ())
    return {"symbols": len(bits)}


def _points(args, kwargs, result) -> dict:
    return {"points": len({(r.n_elements, r.n_jammed, r.snr_db) for r in result})}


# (module, attribute, span, counter). The module is the one that looks the
# name up when it calls it: ``metrics`` calls ``complex_gaussian`` for the
# sensing draws and ``backscatter`` calls it for the link draws.
# ``_measure_ber`` is private; it is the BER probe stage, which runs (and
# returns at once) even where there is nothing to probe.
SPAN_TABLE = (
    ("oam_antijam.cli", "parse_scenario", "cli.parse_scenario", None),
    ("oam_antijam.cli", "run_scenario", "cli.run_scenario", None),
    ("oam_antijam.cli", "run_sweep", RUN_SWEEP, _points),
    ("oam_antijam.metrics", "build_channel_matrix", "channel.build", None),
    ("oam_antijam.metrics", "mode_link_gains", "channel.link_gains", None),
    ("oam_antijam.metrics", "detection_probabilities", "sensing.detection_prob", None),
    ("oam_antijam.metrics", "complex_gaussian", DRAW, _samples),
    ("oam_antijam.metrics", "calibrate_from_preamble", CALIBRATE, None),
    ("oam_antijam.metrics", "average_correct_detection", "backscatter.decision_prob", None),
    ("oam_antijam.metrics", "_measure_ber", PROBE, None),
    ("oam_antijam.metrics", "simulate_backscatter_bits", SYNTH, _symbols),
    ("oam_antijam.backscatter", "simulate_backscatter_bits", SYNTH, _symbols),
    ("oam_antijam.backscatter", "complex_gaussian", DRAW, _samples),
    ("oam_antijam.signals", "mode_transform", "signals.mode_transform", None),
)


class Stat:
    """Totals of every span of one name under one parent name."""

    def __init__(self) -> None:
        self.calls = 0
        self.raised = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Span stack plus per-(span, parent) totals."""

    def __init__(self) -> None:
        self.stack: list[list] = []          # [name, child seconds]
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.absent: list[str] = []

    def wrap(self, fn, span: str, counter):
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else ""
            frame = [span, 0.0]
            self.stack.append(frame)
            stat = self.stats[(span, parent)]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.raised += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stat.counts[key] += value
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every name of SPAN_TABLE that exists; restore them on exit."""
        originals = []
        try:
            for module_name, attr, span, counter in SPAN_TABLE:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, span, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def select(self, span: str, parent: str | None = None,
               not_parent: str | None = None) -> list[Stat]:
        return [s for (name, par), s in self.stats.items() if name == span
                and (parent is None or par == parent)
                and (not_parent is None or par != not_parent)]

    def report(self) -> dict:
        """Per-layer figures, keyed by the names the benchmark publishes."""
        def total(stats, field):
            return sum(getattr(s, field) for s in stats)

        def count(stats, key):
            return sum(s.counts[key] for s in stats)

        sweep = self.select(RUN_SWEEP)
        sense = self.select(DRAW, parent=RUN_SWEEP)
        link = self.select(DRAW, parent=SYNTH)
        calib = self.select(CALIBRATE)
        probe_synth = self.select(SYNTH, not_parent=CALIBRATE)
        calib_synth = self.select(SYNTH, parent=CALIBRATE)
        calls = total(calib, "calls")
        fallbacks = total(calib, "raised")
        return {
            "metrics.run_sweep_s": total(sweep, "total_s"),
            "metrics.self_s": total(sweep, "self_s"),
            "metrics.points": count(sweep, "points"),
            "jamming.sense_draw_s": total(sense, "total_s"),
            "jamming.sense_draw_samples": count(sense, "samples"),
            "jamming.link_draw_s": total(link, "total_s"),
            "jamming.link_draw_calls": total(link, "calls"),
            "jamming.link_draw_samples": count(link, "samples"),
            "backscatter.probe_s": total(self.select(PROBE), "total_s"),
            "backscatter.probe_calls": total(probe_synth, "calls"),
            "backscatter.probe_symbols": count(probe_synth, "symbols"),
            "backscatter.calibrate_s": total(calib, "total_s"),
            "backscatter.calibrate_calls": calls,
            "backscatter.calibrate_fallbacks": fallbacks,
            "backscatter.calibrate_fallback_ratio": fallbacks / calls if calls else 0.0,
            "backscatter.preamble_symbols": count(calib_synth, "symbols"),
            "backscatter.synth_self_s": total(self.select(SYNTH), "self_s"),
            "backscatter.decision_prob_s":
                total(self.select("backscatter.decision_prob"), "total_s"),
            "channel.build_s": total(self.select("channel.build"), "total_s"),
            "channel.build_calls": total(self.select("channel.build"), "calls"),
            "channel.link_gains_s": total(self.select("channel.link_gains"), "total_s"),
            "channel.link_gains_calls": total(self.select("channel.link_gains"), "calls"),
            "signals.mode_transform_s":
                total(self.select("signals.mode_transform"), "total_s"),
            "signals.mode_transform_calls":
                total(self.select("signals.mode_transform"), "calls"),
            "sensing.detection_prob_s":
                total(self.select("sensing.detection_prob"), "total_s"),
            "sensing.detection_prob_calls":
                total(self.select("sensing.detection_prob"), "calls"),
            "cli.parse_scenario_s": total(self.select("cli.parse_scenario"), "total_s"),
            "cli.write_csv_s": total(self.select("cli.run_scenario"), "self_s"),
        }
