"""Link-level simulator of ring-array vortex-mode radio under co-channel jamming.

The transmitter senses which spatial modes the jammer occupies, multiplexes
its payload over the clean modes, and re-modulates the received jamming on the
occupied modes with a switched-gain amplifier so the jammer's own energy
carries data to the receiver. The package provides the geometry and channel
model, mode multiplexing, reproducible jamming sources, the energy
detector, the reflected-jamming link, and Monte Carlo sweep tooling with a CSV
command-line front end.
"""

from .backscatter import (CalibrationError, EnergyThreshold, PgaAlphabet, Preamble,
                          alternating_preamble, average_correct_detection,
                          calibrate_from_preamble, calibrate_threshold,
                          correct_detection_prob, hypothesis_variance,
                          receiver_background_variance, simulate_backscatter_bits)
from .channel import (APPROXIMATE, EXACT, ChannelMatrix, bessel_j,
                      build_channel_matrix, element_azimuths, mode_channel_gain,
                      mode_link_gains, ring_sampled_bessel)
from .config import (ConfigurationError, LinkConfig, mode_index_range,
                     wavelength_for_frequency)
from .jamming import RandomStream, draw_targeted_jamming_block
from .metrics import (BASELINE, PROPOSED, SweepAxes, SweepOptions, SweepResult,
                      allocate_power, check_trends, mode_snr, run_sweep,
                      spectral_efficiency, validate_grid)
from .sensing import (DetectionStats, ModePartition, detection_probabilities,
                      gamma_cdf, sense_modes)
from .signals import (ELEMENT, MODE, UNIT, UNNORMALIZED, SampleBlock,
                      decompose_modes, mode_energies, mode_transform, multiplex_modes)

__version__ = "0.1.0"

__all__ = [
    "APPROXIMATE", "BASELINE", "CalibrationError", "ChannelMatrix",
    "ConfigurationError", "DetectionStats", "ELEMENT", "EXACT",
    "EnergyThreshold", "LinkConfig", "MODE", "ModePartition",
    "PROPOSED", "PgaAlphabet", "Preamble", "RandomStream", "SampleBlock",
    "SweepAxes", "SweepOptions", "SweepResult", "UNIT", "UNNORMALIZED",
    "allocate_power", "alternating_preamble", "average_correct_detection",
    "bessel_j", "build_channel_matrix",
    "calibrate_from_preamble", "calibrate_threshold", "check_trends",
    "correct_detection_prob", "decompose_modes",
    "detection_probabilities", "draw_targeted_jamming_block",
    "element_azimuths", "gamma_cdf", "hypothesis_variance",
    "mode_channel_gain", "mode_energies", "mode_index_range",
    "mode_link_gains", "mode_snr", "mode_transform", "multiplex_modes",
    "receiver_background_variance", "ring_sampled_bessel",
    "run_sweep", "sense_modes", "simulate_backscatter_bits",
    "spectral_efficiency", "validate_grid",
    "wavelength_for_frequency",
]
