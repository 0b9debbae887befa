"""Circuit-level and behavioral simulation of memristive dendrite cells.

The package splits into a small SPICE-like core (netlist, devices,
solver), behavioral threshold maps (dendrite), reference cell builders
with response analysis (cells), and image segmentation built on the
band detector (imaging). The ``dtlsim`` console script in cli wires
them together.

``import dtlsim`` loads none of these layers: each public name below is
imported from its module on first use (PEP 562), so a caller pays only
for the layers it touches.
"""

import importlib

from . import errors

# module -> the public names it defines; the one statement of the surface
_EXPORTS = {
    "cells": ("BandResponse", "DetectorConfig", "DETECTOR_CONFIG_1",
              "DETECTOR_CONFIG_2", "build_intensity_detector",
              "build_saturation_cell", "build_spike_cell",
              "build_xor_circuit", "extract_band", "peak_input",
              "settle_phase_levels", "smooth3"),
    "dendrite": ("DendriteBranch", "NeuronModel", "NeuronTrace",
                 "calibrate_xor", "complement", "eval_neuron", "f1", "f_sat",
                 "f_sat_clamp", "f_spk1", "f_spk2", "truth_table",
                 "xor_model"),
    "devices": ("CapacitorParams", "MemristorParams", "MosfetParams",
                "ResistorParams", "SourceWaveform", "ZenerParams",
                "memristance", "window_factor"),
    "imaging": ("ImageGray", "ResponseLut", "RingMetrics", "apply_detector",
                "gen_gaussian_image", "pixel_to_voltage", "read_pgm",
                "ring_metrics", "write_pgm"),
    "netlist": ("AnalysisDirective", "Circuit", "Element", "parse_netlist",
                "parse_number", "serialize_netlist"),
    "solver": ("OpPoint", "SweepResult", "TransientResult",
               "dc_operating_point", "dc_sweep", "sweep_points", "transient"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = ["errors", *_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value   # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
