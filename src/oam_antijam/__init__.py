"""Link-level simulator of ring-array vortex-mode radio under co-channel jamming.

The transmitter senses which spatial modes the jammer occupies, multiplexes its payload
over the clean modes, and re-modulates the received jamming on the occupied modes with a
switched-gain amplifier so the jammer's own energy carries data to the receiver. The
package provides the geometry and channel model, mode multiplexing, reproducible jamming
sources, the energy detector, the reflected-jamming link, and Monte Carlo sweep tooling
with a CSV command-line front end. The root exports the README's library chain; the
building blocks behind it import from their own modules.
"""

from .channel import mode_link_gains
from .config import ConfigurationError, LinkConfig, mode_index_range
from .jamming import substream
from .metrics import (BASELINE, PROPOSED, Scenario, SweepAxes, SweepOptions, SweepResult,
                      check_trends, run_sweep, sense_targeted, spectral_efficiency)
from .sensing import detection_probabilities

__version__ = "0.1.0"

__all__ = [
    "BASELINE", "ConfigurationError", "LinkConfig", "PROPOSED", "Scenario", "SweepAxes",
    "SweepOptions", "SweepResult", "check_trends", "detection_probabilities", "mode_index_range",
    "mode_link_gains", "run_sweep", "sense_targeted", "spectral_efficiency", "substream",
]
