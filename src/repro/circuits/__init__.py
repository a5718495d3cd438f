"""A small analog circuit simulator: the substrate replacing HSPICE.

Modified-nodal-analysis (MNA) formulation with a damped-Newton DC solver
and a complex-valued small-signal AC sweep, plus a Level-1+ MOSFET model
(square law, channel-length modulation, body effect, overlap capacitance)
with PVT-corner parameter sets.  The two testbenches of the paper's
evaluation (Fig. 3 two-stage op-amp, Fig. 4 charge pump) are built on it.
"""

from repro.circuits.ac import ACAnalysis, ACResult
from repro.circuits.dc import DCAnalysis, DCSolution, ConvergenceError
from repro.circuits.devices import (
    Capacitor,
    CurrentSource,
    Device,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.circuits.measure import (
    dc_gain_db,
    gain_db,
    phase_deg,
    phase_margin_deg,
    unity_gain_frequency,
)
from repro.circuits.mosfet import MOSFET, MOSFETParams, nmos_180, pmos_180
from repro.circuits.netlist import Circuit, GROUND
from repro.circuits.pvt import PVTCorner, ProcessCorner, standard_corners
from repro.circuits.transient import (
    TransientAnalysis,
    TransientResult,
    pulse,
    sine,
)

__all__ = [
    "ACAnalysis",
    "ACResult",
    "Capacitor",
    "Circuit",
    "ConvergenceError",
    "CurrentSource",
    "DCAnalysis",
    "DCSolution",
    "Device",
    "GROUND",
    "MOSFET",
    "MOSFETParams",
    "PVTCorner",
    "ProcessCorner",
    "Resistor",
    "TransientAnalysis",
    "TransientResult",
    "VCCS",
    "VCVS",
    "VoltageSource",
    "dc_gain_db",
    "gain_db",
    "nmos_180",
    "phase_deg",
    "phase_margin_deg",
    "pmos_180",
    "pulse",
    "sine",
    "standard_corners",
    "unity_gain_frequency",
]
