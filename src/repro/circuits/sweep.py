"""DC sweep analysis: transfer curves and operating-region reports.

Sweeps the DC value of one source while re-solving the operating point
with warm starts — the workhorse for transfer characteristics (inverter
VTC, mirror compliance curves).  The charge-pump testbench's output-voltage
sweeps do not come through here: they run as
:class:`~repro.sim.base.DCTransferSweep` analyses on
:class:`~repro.sim.mna.MNABackend`, which solves each sweep point of all
its circuits as one batched Newton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.dc import ConvergenceError, DCAnalysis
from repro.circuits.devices import CurrentSource, VoltageSource
from repro.circuits.mosfet import MOSFET
from repro.circuits.netlist import Circuit


@dataclass
class SweepResult:
    """Solutions of a DC sweep: ``x[k]`` corresponds to ``values[k]``."""

    circuit: Circuit
    source_name: str
    values: np.ndarray
    x: np.ndarray

    def voltage(self, node: str) -> np.ndarray:
        """Voltage of a node across the sweep."""
        idx = self.circuit.node_index(node)
        if idx < 0:
            return np.zeros(len(self.values))
        return self.x[:, idx].copy()

    def branch_current(self, device_name: str) -> np.ndarray:
        """Branch current of a voltage-defined device across the sweep."""
        device = self.circuit.device(device_name)
        if device.n_branches == 0:
            raise ValueError(f"{device_name!r} has no branch current")
        return self.x[:, device.branch_idx].copy()


class DCSweep:
    """Sweep one independent source's DC value.

    Parameters
    ----------
    circuit:
        The circuit (finalized automatically).
    source_name:
        Name of the :class:`VoltageSource` or :class:`CurrentSource` to
        sweep; its ``dc`` attribute is mutated during the sweep and
        restored afterwards.
    """

    def __init__(self, circuit: Circuit, source_name: str, **dc_kwargs):
        self.circuit = circuit
        self.source = circuit.device(source_name)
        if not isinstance(self.source, (VoltageSource, CurrentSource)):
            raise TypeError(
                f"{source_name!r} is not an independent source"
            )
        self.analysis = DCAnalysis(circuit, **dc_kwargs)

    def run(self, values, initial=None) -> SweepResult:
        """Solve at each source value, warm-starting from the previous one.

        Points that fail to converge are recorded as NaN rows rather than
        aborting the sweep (compliance-limit regions of current sources
        legitimately have no solution in simplified models).
        """
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("sweep needs at least one value")
        n = self.circuit.n_unknowns
        out = np.empty((values.size, n))
        original = self.source.dc
        warm = initial
        try:
            for k, value in enumerate(values):
                self.source.dc = float(value)
                try:
                    solution = self.analysis.solve(initial=warm)
                except ConvergenceError:
                    out[k] = np.nan
                    warm = None
                    continue
                out[k] = solution.x
                warm = solution.x.copy()
        finally:
            self.source.dc = original
        return SweepResult(self.circuit, self.source.name, values, out)


def operating_region_report(circuit: Circuit, solution) -> dict[str, dict]:
    """Summarize every MOSFET's bias point after a DC solve.

    Returns ``{device: {region, ids, vgs, vds, vov, gm, gds}}`` — the
    designer's "annotate the schematic" view, used by examples and by
    testbench debugging.
    """
    report = {}
    for device in circuit.devices:
        if not isinstance(device, MOSFET):
            continue
        op = solution.op(device.name)
        report[device.name] = {
            "region": op.region,
            "ids": op.ids,
            "vgs": op.vgs,
            "vds": op.vds,
            "vov": op.vov,
            "gm": op.gm,
            "gds": op.gds,
        }
    return report
