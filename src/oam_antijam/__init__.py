"""Link-level simulator of ring-array vortex-mode radio under co-channel jamming.

The transmitter senses which spatial modes the jammer occupies, multiplexes
its payload over the clean modes, and re-modulates the received jamming on the
occupied modes with a switched-gain amplifier so the jammer's own energy
carries data to the receiver. The package provides the geometry and channel
model, mode multiplexing, reproducible jamming sources, the energy
detector, the reflected-jamming link, and Monte Carlo sweep tooling with a CSV
command-line front end.
"""

from .backscatter import (average_correct_detection, calibrate_from_preamble,
                          calibrate_threshold, hypothesis_variance,
                          receiver_background_variance, simulate_backscatter_bits)
from .channel import build_channel_matrix, element_azimuths, mode_link_gains
from .config import (ConfigurationError, LinkConfig, mode_index_range,
                     wavelength_for_frequency)
from .jamming import substream
from .metrics import (BASELINE, PROPOSED, Scenario, SweepAxes, SweepOptions, SweepResult,
                      check_trends, run_sweep, sense_targeted, spectral_efficiency)
from .sensing import detection_probabilities, gamma_cdf
from .signals import mode_energies, mode_transform

__version__ = "0.1.0"

__all__ = [
    "BASELINE", "ConfigurationError", "LinkConfig", "PROPOSED", "Scenario", "SweepAxes",
    "SweepOptions", "SweepResult", "average_correct_detection", "build_channel_matrix",
    "calibrate_from_preamble", "calibrate_threshold", "check_trends",
    "detection_probabilities", "element_azimuths", "gamma_cdf", "hypothesis_variance",
    "mode_energies", "mode_index_range", "mode_link_gains", "mode_transform",
    "receiver_background_variance", "run_sweep", "sense_targeted",
    "simulate_backscatter_bits", "spectral_efficiency", "substream",
    "wavelength_for_frequency",
]
