"""The built-in MNA engine behind the :class:`SimulatorBackend` protocol.

An :class:`~repro.sim.base.OperatingPoint` is one
:class:`~repro.circuits.dc.DCAnalysis` solve, an
:class:`~repro.sim.base.ACSweep` reuses that bias point through
:class:`~repro.circuits.ac.ACAnalysis`, and a
:class:`~repro.sim.base.DCTransferSweep` re-solves at each swept source
value, warm-started from the previous point (first point from the
seed).

A batch of circuits (one design's PVT corners, possibly of several
topologies of one system size) runs each analysis of the plan across the
whole batch: every operating point and every sweep point is one batched
Newton over the circuits' ``(C, n, n)`` stack
(:class:`~repro.circuits.dc.CircuitBatch`).  Each circuit's solves —
same options, same initial vectors, same warm-start chain — are
bitwise-identical to running it alone.
"""

from __future__ import annotations

import numpy as np

from repro import __version__
from repro.circuits.ac import ACAnalysis
from repro.circuits.dc import (
    CircuitBatch,
    ConvergenceError,
    DCAnalysis,
    DCSolution,
    initial_vector,
)
from repro.circuits.mosfet import MOSFET, REGIONS
from repro.circuits.netlist import Circuit
from repro.sim.base import (
    ACSweep,
    ACSweepResult,
    DCTransferSweep,
    DCTransferSweepResult,
    OperatingPoint,
    OperatingPointResult,
    RawResults,
    SimulatorBackend,
    _find_device,
)


def _branch_devices(circuit: Circuit) -> list:
    return [d for d in circuit.devices if getattr(d, "n_branches", 0)]


class MNABackend(SimulatorBackend):
    """In-process modified-nodal-analysis engine (the bitwise default).

    ``dc_options`` are forwarded to every
    :class:`~repro.circuits.dc.DCAnalysis` (tolerances, iteration caps);
    the default empty dict reproduces the engine's stock settings.
    """

    name = "mna"

    def __init__(self, dc_options: dict | None = None):
        self.dc_options = dict(dc_options or {})

    @property
    def version(self) -> str:
        """The repro release: the engine ships with the package."""
        return __version__

    def run(self, circuit, analyses, initial: dict | None = None):
        if not isinstance(circuit, (list, tuple)):
            return self._run_batch([circuit], [list(analyses)], initial)[0]
        plans = [list(plan) for plan in analyses]
        if len(plans) != len(circuit):
            raise ValueError("a batch needs one analysis plan per circuit")
        return self._run_batch(list(circuit), plans, initial)

    def _run_batch(self, circuits, plans, initial) -> list[RawResults]:
        if not circuits:
            return []
        analysis = DCAnalysis(circuits[0], **self.dc_options)
        results = [[] for _ in circuits]
        dc: list[DCSolution | None] = [None] * len(circuits)
        if len({len(plan) for plan in plans}) != 1:
            raise ValueError("the circuits of a batch need analysis plans of one shape")
        for specs in zip(*plans):
            kinds = {type(spec) for spec in specs}
            if len(kinds) != 1:
                raise ValueError("the circuits of a batch need analysis plans of one shape")
            kind = kinds.pop()
            if kind is OperatingPoint:
                seeds = [s.initial if s.initial is not None else initial for s in specs]
                dc = analysis.solve_batch(circuits, seeds)
                for out, sol in zip(results, dc):
                    out.append(self._op_result(sol))
            elif kind is ACSweep:
                missing = [c for c, sol in enumerate(dc) if sol is None]
                if missing:
                    solved = analysis.solve_batch(
                        [circuits[c] for c in missing], [initial] * len(missing)
                    )
                    for c, sol in zip(missing, solved):
                        dc[c] = sol
                for out, circuit, sol, spec in zip(results, circuits, dc, specs):
                    ac = ACAnalysis(circuit).sweep(sol, spec.freqs)
                    out.append(self._ac_result(circuit, ac))
            elif kind is DCTransferSweep:
                for out, sweep in zip(results, self._dc_transfer(analysis, circuits, specs, initial)):
                    out.append(sweep)
            else:
                raise TypeError(f"unsupported analysis spec {kind.__name__}")
        return [RawResults(backend=self.name, results=out) for out in results]

    # -- per-analysis execution ----------------------------------------------------

    def _op_result(self, sol: DCSolution) -> OperatingPointResult:
        circuit = sol.circuit
        voltages = {node: sol.voltage(node) for node in circuit.node_names}
        currents = {d.name: float(sol.x[d.branch_idx]) for d in _branch_devices(circuit)}
        mosfets = [d.name for d in circuit.devices if isinstance(d, MOSFET)]
        regions = {}
        if mosfets:
            codes = sol.mos_operating_points()[1]["region"][0]
            regions = {name: REGIONS[code] for name, code in zip(mosfets, codes)}
        return OperatingPointResult(voltages, currents, regions)

    def _ac_result(self, circuit: Circuit, ac) -> ACSweepResult:
        voltages = {node: ac.transfer(node) for node in circuit.node_names}
        currents = {
            d.name: ac.x[:, d.branch_idx].copy() for d in _branch_devices(circuit)
        }
        return ACSweepResult(freqs=ac.freqs, voltages=voltages, branch_currents=currents)

    def _dc_transfer(
        self, analysis: DCAnalysis, circuits, specs, initial: dict | None
    ) -> list[DCTransferSweepResult]:
        sources = [_find_device(c, s.source) for c, s in zip(circuits, specs)]
        for source, spec in zip(sources, specs):
            if not hasattr(source, "dc"):
                raise TypeError(f"device {spec.source!r} has no DC value to sweep")
        grids = [spec.grid() for spec in specs]
        if len({g.size for g in grids}) != 1:
            raise ValueError("the sweeps of a batch need one length")
        batch = CircuitBatch(circuits)
        columns = []
        for g in batch.groups:
            positions = {circuits[c].devices.index(sources[c]) for c in g.rows}
            if len(positions) != 1:
                raise ValueError("one topology's sweeps need one swept source")
            columns.append(g.plan.source_column(positions.pop()))
        # the warm-start chain: point 0 from the (possibly absent) seed,
        # every later point from the previous solution vector
        x = np.array([
            initial_vector(c, s.initial if s.initial is not None else initial)
            for c, s in zip(circuits, specs)
        ])
        points = np.empty((grids[0].size,) + x.shape)
        for k in range(grids[0].size):
            for g, column in zip(batch.groups, columns):
                g.values.src_dc[:, column] = [grids[c][k] for c in g.rows]
            x, _, rung = analysis.newton(batch, x)
            for c in np.flatnonzero(rung < 0):
                raise ConvergenceError(
                    f"DC analysis of {circuits[c].name!r} failed to converge"
                )
            points[k] = x
        out = []
        for c, (circuit, source) in enumerate(zip(circuits, sources)):
            out.append(DCTransferSweepResult(
                source=source.name,
                values=grids[c],
                voltages={node: points[:, c, circuit.node_index(node)].copy()
                          for node in circuit.node_names},
                branch_currents={d.name: points[:, c, d.branch_idx].copy()
                                 for d in _branch_devices(circuit)},
            ))
        return out
