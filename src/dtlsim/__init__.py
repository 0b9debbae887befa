"""Circuit-level and behavioral simulation of memristive dendrite cells.

The package splits into a small SPICE-like core (netlist, devices,
solver), behavioral threshold maps (dendrite), reference cell builders
with response analysis (cells), and image segmentation built on the
band detector (imaging). The ``dtlsim`` console script in cli wires
them together.
"""

from . import errors
from .cells import (BandResponse, DetectorConfig, DETECTOR_CONFIG_1,
                    DETECTOR_CONFIG_2, build_intensity_detector,
                    build_saturation_cell, build_spike_cell,
                    build_xor_circuit, extract_band, peak_input,
                    settle_phase_levels, smooth3)
from .dendrite import (DendriteBranch, NeuronModel, NeuronTrace,
                       calibrate_xor, complement, eval_neuron, f1, f_sat,
                       f_sat_clamp, f_spk1, f_spk2, truth_table, xor_model)
from .devices import (CapacitorParams, MemristorParams, MosfetParams,
                      ResistorParams, SourceWaveform, ZenerParams,
                      memristance, window_factor)
from .imaging import (ImageGray, ResponseLut, RingMetrics, apply_detector,
                      gen_gaussian_image, pixel_to_voltage, read_pgm,
                      ring_metrics, write_pgm)
from .netlist import (AnalysisDirective, Circuit, Element, parse_netlist,
                      parse_number, serialize_netlist)
from .solver import (OpPoint, SweepResult, TransientResult,
                     dc_operating_point, dc_sweep, sweep_points, transient)

__version__ = "0.1.0"

__all__ = [
    "AnalysisDirective",
    "BandResponse",
    "CapacitorParams",
    "Circuit",
    "DendriteBranch",
    "DetectorConfig",
    "DETECTOR_CONFIG_1",
    "DETECTOR_CONFIG_2",
    "Element",
    "ImageGray",
    "MemristorParams",
    "MosfetParams",
    "NeuronModel",
    "NeuronTrace",
    "OpPoint",
    "ResistorParams",
    "ResponseLut",
    "RingMetrics",
    "SourceWaveform",
    "SweepResult",
    "TransientResult",
    "ZenerParams",
    "apply_detector",
    "build_intensity_detector",
    "build_saturation_cell",
    "build_spike_cell",
    "build_xor_circuit",
    "calibrate_xor",
    "complement",
    "dc_operating_point",
    "dc_sweep",
    "errors",
    "eval_neuron",
    "extract_band",
    "f1",
    "f_sat",
    "f_sat_clamp",
    "f_spk1",
    "f_spk2",
    "gen_gaussian_image",
    "memristance",
    "parse_netlist",
    "parse_number",
    "peak_input",
    "pixel_to_voltage",
    "read_pgm",
    "ring_metrics",
    "serialize_netlist",
    "settle_phase_levels",
    "smooth3",
    "sweep_points",
    "transient",
    "truth_table",
    "window_factor",
    "write_pgm",
    "xor_model",
    "__version__",
]
