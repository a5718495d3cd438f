"""Charge-pump testbench (paper Fig. 4 / Table II).

The circuit is a PLL charge pump: a cascoded PMOS current source ("up",
output device M1 in the paper's metric names) and a cascoded NMOS current
sink ("dn", M2), each with a replica reference branch, switch devices,
resistor-degenerated mirrors and resistor-generated cascode bias.  The
paper's Table II metrics (eq. 16) are *static current-matching* measures —
max/avg/min of the two output currents over PVT — so a DC sweep of Vout
at every PVT corner stands in for the paper's transient HSPICE runs: the
testbench evaluates each branch quasi-statically over that sweep.

36 design variables, matching the paper's count: W and L of 16 transistors
(reference mirror/cascode/switch-replica, output mirror/cascode/switch,
dummy switch and power-down device, per polarity) plus 4 resistors
(degeneration and cascode-bias per polarity).

Specification (eq. 15/16), currents in microamps:

    minimize FOM = 0.3 * (diff1+diff2+diff3+diff4) + 0.5 * deviation
    s.t. diff1 < 20, diff2 < 20, diff3 < 5, diff4 < 5, deviation < 5

with diff1/2 the up-current spread above/below its average, diff3/4 the
same for the down current, and deviation the worst-case distance of both
averages from the 40 uA target.

Implementation note: because MOS gates draw no current, the reference and
output branches decouple exactly — each corner solves two small reference
netlists once and warm-start-sweeps the two output netlists over Vout
(a :class:`~repro.sim.base.DCTransferSweep`).  All 36 reference circuits
run as one batch through the simulator backend, then all 36 output
sweeps, which keeps a 36-variable, 18-corner evaluation fast enough for
the hundreds of simulations per optimization run.
"""

from __future__ import annotations

import numpy as np

from repro.bo.problem import Evaluation
from repro.circuits.mosfet import MOSFETParams, nmos_040, pmos_040
from repro.circuits.netlist import Circuit
from repro.circuits.pvt import PVTCorner, standard_corners
from repro.circuits.testbenches.base import DesignVariable, SizingProblem
from repro.circuits.units import MICRO
from repro.sim.base import DCTransferSweep, OperatingPoint

_UM = 1e-6

#: the 16 sized transistors: (prefix, role) per polarity
_DEVICES = [
    "mn0",  # N reference mirror (diode)
    "mn1",  # N reference cascode (gate at resistor bias)
    "mnr",  # N reference switch replica (always on)
    "mn2",  # N output mirror
    "mn3",  # N output cascode
    "mns",  # N output switch (on)
    "mnsb",  # N dummy switch (inert at DC)
    "mnpd",  # N power-down device (off at DC)
    "mp0",
    "mp1",
    "mpr",
    "mp2",
    "mp3",
    "mps",
    "mpsb",
    "mppd",
]


def _geometry_variables() -> list[DesignVariable]:
    out = []
    for dev in _DEVICES:
        out.append(DesignVariable(f"w_{dev}", 0.4 * _UM, 40.0 * _UM, "m"))
        out.append(DesignVariable(f"l_{dev}", 0.06 * _UM, 1.0 * _UM, "m"))
    return out


class ChargePumpProblem(SizingProblem):
    """Sizing problem for the Fig. 4 charge pump over PVT corners.

    Parameters
    ----------
    corners:
        PVT corners to evaluate (default: the paper's 18).
    i_target:
        Output current target [A] (paper: 40 uA).
    i_ref, i_casc:
        Reference branch currents, the ``i10u``/``i5u`` sources of Fig. 4.
    n_sweep:
        Output-voltage sweep points per corner and branch.
    """

    def __init__(
        self,
        corners: list[PVTCorner] | None = None,
        vdd: float = 1.8,
        i_target: float = 40.0 * MICRO,
        i_ref: float = 10.0 * MICRO,
        i_casc: float = 5.0 * MICRO,
        n_sweep: int = 7,
        vout_margin: float = 0.2,
        r_compliance: float = 2e6,
        nmos: MOSFETParams = nmos_040,
        pmos: MOSFETParams = pmos_040,
        sim_backend="mna",
    ):
        variables = _geometry_variables() + [
            DesignVariable("r_dn", 500.0, 15e3, "Ohm"),
            DesignVariable("r_dp", 500.0, 15e3, "Ohm"),
            DesignVariable("r_cn", 60e3, 320e3, "Ohm"),
            DesignVariable("r_cp", 60e3, 320e3, "Ohm"),
        ]
        super().__init__(
            "charge_pump", variables, n_constraints=5, sim_backend=sim_backend
        )
        self.corners = list(corners) if corners is not None else standard_corners()
        if not self.corners:
            raise ValueError("need at least one PVT corner")
        self.vdd_nom = float(vdd)
        self.i_target = float(i_target)
        self.i_ref = float(i_ref)
        self.i_casc = float(i_casc)
        self.n_sweep = int(n_sweep)
        self.vout_margin = float(vout_margin)
        #: finite output resistance of the (otherwise ideal) bias current
        #: sources; guarantees the reference branches always have a DC
        #: solution even for sizings that cannot carry the bias current
        self.r_compliance = float(r_compliance)
        self.nmos_nom = nmos
        self.pmos_nom = pmos
        #: mirror ratio the degeneration resistors are pre-scaled for
        self.mirror_ratio = self.i_target / self.i_ref
        # constraint limits in microamps, eq. 15
        self.limits_ua = np.array([20.0, 20.0, 5.0, 5.0, 5.0])

    # -- netlist builders ---------------------------------------------------------

    def build_reference_circuit(
        self, p: dict, polarity: str, nmos: MOSFETParams, pmos: MOSFETParams, vdd: float
    ) -> Circuit:
        """Reference branch netlist for one polarity (``"n"`` or ``"p"``).

        The branch carries ``i_ref`` through switch-replica, cascode and
        diode mirror devices with a degeneration resistor scaled by the
        intended mirror ratio, and produces the mirror gate voltage.
        """
        ckt = Circuit(f"cp_ref_{polarity}")
        ckt.vsource("VDD", "vdd", "0", vdd)
        if polarity == "n":
            vcn = min(self.i_casc * p["r_cn"], vdd)
            ckt.isource("IREF", "vdd", "d1", self.i_ref)
            ckt.resistor("RCOMP", "vdd", "d1", self.r_compliance)
            ckt.mosfet("MNR", "d1", "vdd", "d2", "0", nmos, p["w_mnr"], p["l_mnr"])
            ckt.mosfet("MN1", "d2", "casc", "d3", "0", nmos, p["w_mn1"], p["l_mn1"])
            ckt.mosfet("MN0", "d3", "d3", "src", "0", nmos, p["w_mn0"], p["l_mn0"])
            ckt.resistor("RD", "src", "0", p["r_dn"] * self.mirror_ratio)
            ckt.vsource("VCASC", "casc", "0", vcn)
            # power-down device hangs off the gate-bias node, held off
            ckt.mosfet("MNPD", "d3", "0", "0", "0", nmos, p["w_mnpd"], p["l_mnpd"])
        else:
            vcp = max(vdd - self.i_casc * p["r_cp"], 0.0)
            ckt.isource("IREF", "d1", "0", self.i_ref)
            ckt.resistor("RCOMP", "d1", "0", self.r_compliance)
            ckt.mosfet("MPR", "d1", "0", "d2", "vdd", pmos, p["w_mpr"], p["l_mpr"])
            ckt.mosfet("MP1", "d2", "casc", "d3", "vdd", pmos, p["w_mp1"], p["l_mp1"])
            ckt.mosfet("MP0", "d3", "d3", "src", "vdd", pmos, p["w_mp0"], p["l_mp0"])
            ckt.resistor("RD", "vdd", "src", p["r_dp"] * self.mirror_ratio)
            ckt.vsource("VCASC", "casc", "0", vcp)
            ckt.mosfet("MPPD", "d3", "vdd", "vdd", "vdd", pmos, p["w_mppd"], p["l_mppd"])
        return ckt

    def build_output_circuit(
        self,
        p: dict,
        polarity: str,
        nmos: MOSFETParams,
        pmos: MOSFETParams,
        vdd: float,
        v_gate: float,
        v_casc: float,
        vout: float,
    ) -> Circuit:
        """Output branch netlist: mirror + cascode + switch into a forced
        output voltage source (whose branch current is the measurement)."""
        ckt = Circuit(f"cp_out_{polarity}")
        ckt.vsource("VDD", "vdd", "0", vdd)
        ckt.vsource("VOUT", "out", "0", vout)
        ckt.vsource("VG", "gate", "0", v_gate)
        ckt.vsource("VC", "casc", "0", v_casc)
        if polarity == "n":
            ckt.mosfet("MNS", "out", "vdd", "o1", "0", nmos, p["w_mns"], p["l_mns"])
            ckt.mosfet("MN3", "o1", "casc", "o2", "0", nmos, p["w_mn3"], p["l_mn3"])
            ckt.mosfet("MN2", "o2", "gate", "o3", "0", nmos, p["w_mn2"], p["l_mn2"])
            ckt.resistor("RD", "o3", "0", p["r_dn"])
            # dummy switch: source/drain shorted at the output, gate off
            ckt.mosfet("MNSB", "out", "0", "out", "0", nmos, p["w_mnsb"], p["l_mnsb"])
        else:
            ckt.mosfet("MPS", "out", "0", "o1", "vdd", pmos, p["w_mps"], p["l_mps"])
            ckt.mosfet("MP3", "o1", "casc", "o2", "vdd", pmos, p["w_mp3"], p["l_mp3"])
            ckt.mosfet("MP2", "o2", "gate", "o3", "vdd", pmos, p["w_mp2"], p["l_mp2"])
            ckt.resistor("RD", "vdd", "o3", p["r_dp"])
            ckt.mosfet("MPSB", "out", "vdd", "out", "vdd", pmos, p["w_mpsb"], p["l_mpsb"])
        return ckt

    # -- per-corner evaluation ----------------------------------------------------------

    def _branch_currents(self, p: dict, polarity: str, corners) -> np.ndarray:
        """Output current of one branch over the Vout sweep, one row per
        corner (a single :class:`PVTCorner` gives its row alone)."""
        if isinstance(corners, PVTCorner):
            return self._branch_currents(p, polarity, [corners])[0]
        return self._sweep_currents(p, [(polarity, corner) for corner in corners])

    def _sweep_currents(self, p: dict, branches) -> np.ndarray:
        """Output current over the Vout sweep of each ``(polarity, corner)``
        branch, one row each.

        Every branch runs in one batch per analysis: the reference operating
        points, then the warm-started Vout sweeps of the output branches.
        """
        refs, guesses, models = [], [], []
        for polarity, corner in branches:
            nmos = self.nmos_nom.at_corner(corner.process, corner.temp_k)
            pmos = self.pmos_nom.at_corner(corner.process, corner.temp_k)
            vdd = self.vdd_nom * corner.vdd_scale
            models.append((polarity, nmos, pmos, vdd))
            refs.append(self.build_reference_circuit(p, polarity, nmos, pmos, vdd))
            if polarity == "n":
                guesses.append({"vdd": vdd, "d1": vdd * 0.75, "d2": vdd * 0.55,
                                "d3": vdd * 0.35, "src": 0.05})
            else:
                guesses.append({"vdd": vdd, "d1": vdd * 0.25, "d2": vdd * 0.45,
                                "d3": vdd * 0.65, "src": vdd - 0.05})
        ref_runs = self.sim_backend.run(
            refs, [[OperatingPoint(initial=guess)] for guess in guesses]
        )

        outs, plans = [], []
        for (polarity, nmos, pmos, vdd), raw in zip(models, ref_runs):
            ref_op = raw.op()
            sweep = np.linspace(self.vout_margin, vdd - self.vout_margin, self.n_sweep)
            outs.append(self.build_output_circuit(
                p, polarity, nmos, pmos, vdd, ref_op.voltage("d3"),
                ref_op.voltage("casc"), float(sweep[0]),
            ))
            plans.append([DCTransferSweep("VOUT", tuple(float(v) for v in sweep))])
        rows = []
        for (polarity, *_), raw in zip(models, self.sim_backend.run(outs, plans)):
            i_br = raw.sweep().branch_current("VOUT")
            # the P branch pushes current into VOUT's + terminal (positive by
            # the SPICE convention); the N branch pulls it out (negative)
            rows.append(i_br if polarity == "p" else -i_br)
        return np.array(rows)

    # -- simulation -------------------------------------------------------------------

    def simulate(self, x: np.ndarray) -> dict:
        """Eq. 16 metrics over all PVT corners (currents in microamps)."""
        p = self.as_dict(x)
        up_spread_hi = []  # IM1_max - IM1_avg per corner
        up_spread_lo = []
        dn_spread_hi = []
        dn_spread_lo = []
        up_avg_err = []
        dn_avg_err = []
        n_corners = len(self.corners)
        currents = self._sweep_currents(
            p, [(polarity, corner) for polarity in "pn" for corner in self.corners]
        )
        for i_up, i_dn in zip(currents[:n_corners], currents[n_corners:]):
            up_avg = float(np.mean(i_up))
            dn_avg = float(np.mean(i_dn))
            up_spread_hi.append(float(np.max(i_up)) - up_avg)
            up_spread_lo.append(up_avg - float(np.min(i_up)))
            dn_spread_hi.append(float(np.max(i_dn)) - dn_avg)
            dn_spread_lo.append(dn_avg - float(np.min(i_dn)))
            up_avg_err.append(abs(up_avg - self.i_target))
            dn_avg_err.append(abs(dn_avg - self.i_target))

        scale = 1.0 / MICRO
        diff1 = max(up_spread_hi) * scale
        diff2 = max(up_spread_lo) * scale
        diff3 = max(dn_spread_hi) * scale
        diff4 = max(dn_spread_lo) * scale
        deviation = (max(up_avg_err) + max(dn_avg_err)) * scale
        diff = diff1 + diff2 + diff3 + diff4
        fom = 0.3 * diff + 0.5 * deviation
        return {
            "diff1_ua": diff1,
            "diff2_ua": diff2,
            "diff3_ua": diff3,
            "diff4_ua": diff4,
            "deviation_ua": deviation,
            "diff_ua": diff,
            "fom": fom,
        }

    # -- problem mapping ----------------------------------------------------------------

    def _to_evaluation(self, metrics: dict) -> Evaluation:
        values = np.array(
            [
                metrics["diff1_ua"],
                metrics["diff2_ua"],
                metrics["diff3_ua"],
                metrics["diff4_ua"],
                metrics["deviation_ua"],
            ]
        )
        constraints = (values - self.limits_ua) / self.limits_ua
        return Evaluation(
            objective=metrics["fom"], constraints=constraints, metrics=metrics
        )

    def _failure_evaluation(self) -> Evaluation:
        return Evaluation(
            objective=200.0, constraints=np.ones(self.n_constraints), metrics={}
        )
