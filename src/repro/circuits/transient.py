"""Transient (time-domain) analysis via companion-model integration.

Each time step solves the nonlinear circuit with capacitors replaced by
their trapezoidal companion models (a conductance ``2C/dt`` in parallel
with a history current source); the first step uses backward Euler to
avoid the trapezoidal start-up ringing.  Nonlinear devices are treated
quasi-statically through their ordinary DC stamps — device capacitances
are not integrated (the explicit capacitors of a testbench dominate the
dynamics at the time scales these analyses are used for; AC analysis
covers small-signal device capacitance effects).

Time-varying stimuli: any :class:`~repro.circuits.devices.VoltageSource`
or :class:`CurrentSource` whose ``waveform`` attribute is set to a
callable ``t -> value`` follows it during transient runs (and uses its
plain ``dc`` value at ``t <= 0`` DC analyses).  :func:`pulse` and
:func:`sine` build SPICE-style waveform callables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuits.devices import Capacitor, CurrentSource, VoltageSource
from repro.circuits.dc import ConvergenceError, DCAnalysis
from repro.circuits.mna import companion, plan_for
from repro.circuits.netlist import Circuit


def pulse(v1: float, v2: float, delay: float, rise: float, fall: float,
          width: float, period: float | None = None):
    """SPICE ``PULSE(v1 v2 td tr tf pw per)`` waveform factory."""
    if rise < 0 or fall < 0 or width < 0:
        raise ValueError("rise/fall/width must be non-negative")
    edge = max(rise, 1e-15)
    fall_edge = max(fall, 1e-15)

    def waveform(t: float) -> float:
        if period is not None:
            if period <= 0:
                raise ValueError("period must be positive")
            t = (t - delay) % period if t >= delay else t - delay
        else:
            t = t - delay
        if t < 0:
            return v1
        if t < rise:
            return v1 + (v2 - v1) * t / edge
        if t < rise + width:
            return v2
        if t < rise + width + fall:
            return v2 + (v1 - v2) * (t - rise - width) / fall_edge
        return v1

    return waveform


def sine(offset: float, amplitude: float, freq: float, delay: float = 0.0):
    """SPICE ``SIN(vo va freq td)`` waveform factory."""
    if freq <= 0:
        raise ValueError("freq must be positive")

    def waveform(t: float) -> float:
        if t < delay:
            return offset
        return offset + amplitude * np.sin(2.0 * np.pi * freq * (t - delay))

    return waveform


@dataclass
class TransientResult:
    """Waveforms of one transient run: ``x[k]`` is the solution at
    ``times[k]``."""

    circuit: Circuit
    times: np.ndarray
    x: np.ndarray

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of a named node."""
        idx = self.circuit.node_index(node)
        if idx < 0:
            return np.zeros(len(self.times))
        return self.x[:, idx].copy()

    def branch_current(self, device_name: str) -> np.ndarray:
        """Branch-current waveform of a voltage-defined device."""
        device = self.circuit.device(device_name)
        if device.n_branches == 0:
            raise ValueError(f"{device_name!r} has no branch current")
        return self.x[:, device.branch_idx].copy()


class TransientAnalysis:
    """Fixed-step transient simulation of a circuit.

    Steps on the circuit's compiled stamp plan: the DC companion stamps of
    every device, then each capacitor's integration companion.

    Parameters
    ----------
    circuit:
        Circuit to simulate (finalized automatically).
    max_iterations, vtol, reltol, max_step, gmin:
        Newton controls per time step (see :class:`DCAnalysis`).
    """

    def __init__(
        self,
        circuit: Circuit,
        max_iterations: int = 100,
        vtol: float = 1e-9,
        reltol: float = 1e-6,
        max_step: float = 0.5,
        gmin: float = 1e-12,
    ):
        self.circuit = circuit
        self.max_iterations = int(max_iterations)
        self.vtol = float(vtol)
        self.reltol = float(reltol)
        self.max_step = float(max_step)
        self.gmin = float(gmin)
        circuit.finalize()
        self._caps = np.array(
            [d.capacitance for d in circuit.devices if isinstance(d, Capacitor)]
        )
        self._sources = [
            d for d in circuit.devices if isinstance(d, (CurrentSource, VoltageSource))
        ]

    def run(self, t_stop: float, dt: float, initial=None) -> TransientResult:
        """Simulate from 0 to ``t_stop`` with fixed step ``dt``.

        The starting state is the DC operating point (with waveform sources
        at their t=0 values) unless ``initial`` (a solution vector) is
        given.
        """
        if t_stop <= 0 or dt <= 0:
            raise ValueError("t_stop and dt must be positive")
        n_steps = int(np.ceil(t_stop / dt))
        times = np.linspace(0.0, n_steps * dt, n_steps + 1)
        n = self.circuit.n_unknowns

        if initial is None:
            x = self._dc_start()
        else:
            x = np.asarray(initial, dtype=float).copy()
            if x.shape != (n,):
                raise ValueError(f"initial vector must have shape ({n},)")

        plan = plan_for(self.circuit)
        values = plan.gather([self.circuit])
        out = np.empty((n_steps + 1, n))
        out[0] = x
        # capacitor state: (v_ab, i) at the current time point
        state = (self._cap_voltages(plan, x), np.zeros(self._caps.size))
        for k in range(1, n_steps + 1):
            t = times[k]
            # first step: backward Euler (no history current term)
            g_eq, i_hist = self._companion(state, dt, use_be=k == 1)
            sources = np.array([[d.value_at(t) for d in self._sources]])
            step_values = replace(values, src_dc=sources)
            x = self._solve_step(plan, step_values, x, t, g_eq, i_hist)
            vab = self._cap_voltages(plan, x)
            state = (vab, g_eq * vab - i_hist)
            out[k] = x
        return TransientResult(self.circuit, times, out)

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _cap_voltages(plan, x):
        padded = np.append(x, 0.0)
        return padded[plan.cap_nodes[0]] - padded[plan.cap_nodes[1]]

    def _solve_step(self, plan, values, x_prev, t, g_eq, i_hist):
        n_nodes = self.circuit.n_nodes
        x = x_prev.copy()
        for _ in range(self.max_iterations):
            mos = companion(plan.terminals(x[None, :]), values.mos)
            a, b = plan.tran_system(values, mos, g_eq[None, :], i_hist[None, :], self.gmin)
            try:
                x_new = np.linalg.solve(a, b[..., None])[0, :, 0]
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"transient step at t={t:g}s: singular system"
                ) from exc
            delta = x_new - x
            dv = np.clip(delta[:n_nodes], -self.max_step, self.max_step)
            x[:n_nodes] += dv
            x[n_nodes:] = x_new[n_nodes:]
            tol = self.vtol + self.reltol * np.abs(x[:n_nodes])
            if np.all(np.abs(delta[:n_nodes]) < tol):
                return x
        raise ConvergenceError(f"transient step at t={t:g}s did not converge")

    def _companion(self, state, dt, use_be):
        """Conductances and history currents of the integration companions."""
        v_prev, i_prev = state
        if use_be:
            g_eq = self._caps / dt
            return g_eq, g_eq * v_prev
        g_eq = 2.0 * self._caps / dt  # trapezoidal
        return g_eq, g_eq * v_prev + i_prev

    def _dc_start(self) -> np.ndarray:
        solution = DCAnalysis(
            self.circuit,
            max_iterations=self.max_iterations,
            vtol=self.vtol,
            reltol=self.reltol,
            max_step=self.max_step,
            gmin=self.gmin,
        ).solve()
        return solution.x.copy()
