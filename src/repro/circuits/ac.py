"""Small-signal AC analysis: complex MNA sweep at a DC operating point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.dc import DCSolution
from repro.circuits.mna import plan_for
from repro.circuits.netlist import Circuit


@dataclass
class ACResult:
    """Frequency sweep result.

    ``x`` holds the full complex solution per frequency, shape
    ``(n_freqs, n_unknowns)``; :meth:`transfer` extracts a node's phasor.
    """

    circuit: Circuit
    freqs: np.ndarray
    x: np.ndarray

    def transfer(self, node: str) -> np.ndarray:
        """Complex node voltage over the sweep (the transfer function when
        the stimulus has unit AC magnitude)."""
        idx = self.circuit.node_index(node)
        if idx < 0:
            return np.zeros(len(self.freqs), dtype=complex)
        return self.x[:, idx].copy()

    def branch_current(self, device_name: str) -> np.ndarray:
        """Complex branch current of a voltage-defined device over the sweep."""
        device = self.circuit.device(device_name)
        if device.n_branches == 0:
            raise ValueError(f"{device_name!r} has no branch current")
        return self.x[:, device.branch_idx].copy()


class ACAnalysis:
    """Linearized frequency sweep around a converged DC solution.

    The small-signal model is linearized at the DC solution passed to
    :meth:`sweep`.  The circuit is stamped once and the ``(F, n, n)``
    stack ``G + j omega C`` solves in one batched call.
    """

    def __init__(self, circuit: Circuit, gmin: float = 1e-12):
        self.circuit = circuit
        self.gmin = float(gmin)
        circuit.finalize()

    def sweep(self, dc_solution: DCSolution, freqs) -> ACResult:
        """Solve the complex MNA system at every frequency."""
        if dc_solution.circuit is not self.circuit:
            raise ValueError("DC solution belongs to a different circuit")
        freqs = np.asarray(freqs, dtype=float).ravel()
        if freqs.size == 0 or np.any(freqs <= 0):
            raise ValueError("frequencies must be positive and non-empty")
        plan = plan_for(self.circuit)
        _, op = dc_solution.mos_operating_points()
        y, b = plan.ac_system(
            plan.gather([self.circuit]), op, 2.0 * np.pi * freqs, self.gmin
        )
        return ACResult(self.circuit, freqs, np.linalg.solve(y, b[..., None])[..., 0])


def log_freqs(f_start: float, f_stop: float, points_per_decade: int = 10) -> np.ndarray:
    """Logarithmically spaced sweep frequencies, SPICE ``.AC DEC`` style."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    decades = np.log10(f_stop / f_start)
    n = max(int(np.ceil(decades * points_per_decade)) + 1, 2)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n)
