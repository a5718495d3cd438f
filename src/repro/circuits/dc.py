"""Damped-Newton DC operating-point solver with homotopy fallbacks.

The solver uses the standard SPICE recipe:

1. companion-model Newton iteration (each nonlinear device stamps its
   linearization at the current iterate),
2. per-step voltage limiting (trust region) to tame the square-law's
   quadratic overshoot,
3. ``gmin`` stepping and source stepping as fallbacks when plain Newton
   fails to converge from the initial guess.

Testbenches call this hundreds of times per optimization run, so failures
must be *reported* (raised as :class:`ConvergenceError`) rather than
silently returning garbage — the sizing problem maps them to penalty
evaluations.

Same-topology circuits (the PVT corners of one design) solve as one
batch: every Newton iteration assembles and solves the ``(C, n, n)``
stack of the corners still iterating.  Convergence, the homotopy rung and
singular systems are tracked per corner, and each corner's arithmetic is
exactly that of solving it alone, so a batched solution equals the
one-circuit solution bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.mna import (
    StampPlan,
    companion,
    compile_plan,
    plan_for,
    topology,
)
from repro.circuits.mosfet import MOSFET, MOSOperatingPoint
from repro.circuits.netlist import Circuit

#: homotopy rungs in the order they are tried; a solution records its rung
HOMOTOPIES = ("newton", "gmin", "source")
_GMIN_STEPS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
_SOURCE_STEPS = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0)


class ConvergenceError(RuntimeError):
    """Raised when the DC operating point cannot be found."""


class _Group:
    """The circuits of one topology inside a batch (``rows`` of it)."""

    def __init__(self, plan: StampPlan, circuits, rows):
        self.plan = plan
        self.values = plan.gather(circuits)
        self.rows = np.asarray(rows, dtype=np.intp)


class CircuitBatch:
    """Circuits solved together by one batched Newton.

    The circuits must share one system size (unknowns and nodes), like
    the PVT corners of one netlist.  Each distinct topology among them
    compiles its own plan and forms one group; the MOSFET model runs once
    over every device of every circuit, and all systems solve as one
    ``(C, n, n)`` stack.
    """

    def __init__(self, circuits):
        self.circuits = list(circuits)
        if not self.circuits:
            raise ValueError("a batch needs at least one circuit")
        rows: dict[tuple, list[int]] = {}
        for c, circuit in enumerate(self.circuits):
            rows.setdefault(topology(circuit), []).append(c)
        self.groups = [
            _Group(compile_plan(key), [self.circuits[c] for c in members], members)
            for key, members in rows.items()
        ]
        sizes = {(g.plan.n, g.plan.n_nodes) for g in self.groups}
        if len(sizes) != 1:
            raise ValueError("the circuits of a batch need one system size")
        self.n, self.n_nodes = sizes.pop()
        self._params = np.concatenate(
            [g.values.mos.reshape(6, -1) for g in self.groups], axis=1
        )

    def systems(self, x, scale, gmin) -> tuple[np.ndarray, np.ndarray]:
        """Newton companion systems of every circuit at iterates ``x``."""
        volts = [g.plan.terminals(x[g.rows]) for g in self.groups]
        flat = companion(np.concatenate([v.reshape(4, -1) for v in volts], axis=1),
                         self._params)
        a = np.empty((len(self.circuits), self.n, self.n))
        b = np.empty((len(self.circuits), self.n))
        start = 0
        for g, v in zip(self.groups, volts):
            stop = start + v[0].size
            mos = [q[start:stop].reshape(v.shape[1:]) for q in flat]
            a[g.rows], b[g.rows] = g.plan.dc_system(g.values, mos, scale[g.rows], gmin[g.rows])
            start = stop
        return a, b

    def solutions(self, x, iterations, rung) -> list["DCSolution"]:
        """One :class:`DCSolution` per circuit, with its MOSFET operating
        points (evaluated once per group)."""
        out = [None] * len(self.circuits)
        for g in self.groups:
            ids, op = g.plan.operating_points(g.values, x[g.rows])
            for k, c in enumerate(g.rows.tolist()):
                ops = ids[k : k + 1], {name: v[k : k + 1] for name, v in op.items()}
                out[c] = DCSolution(self.circuits[c], x[c].copy(), int(iterations[c]),
                                    HOMOTOPIES[rung[c]], ops)
        return out


@dataclass
class DCSolution:
    """Converged DC solution with name-based accessors.

    ``homotopy`` names the rung that converged (see :data:`HOMOTOPIES`).
    """

    circuit: Circuit
    x: np.ndarray
    iterations: int
    homotopy: str = "newton"
    _ops: tuple = field(default=None, repr=False, compare=False)

    def voltage(self, node: str) -> float:
        """DC voltage of a named node (0.0 for ground)."""
        idx = self.circuit.node_index(node)
        return 0.0 if idx < 0 else float(self.x[idx])

    def branch_current(self, device_name: str) -> float:
        """Branch current of a voltage-defined device (SPICE sign convention:
        positive into the positive terminal)."""
        device = self.circuit.device(device_name)
        if device.n_branches == 0:
            raise ValueError(f"{device_name!r} has no branch current")
        return float(self.x[device.branch_idx])

    def mos_operating_points(self) -> tuple:
        """``(ids, op)`` arrays ``(1, M)`` of every MOSFET at this solution
        (see :func:`~repro.circuits.mosfet.mos_model`)."""
        if self._ops is None:
            plan = plan_for(self.circuit)
            self._ops = plan.operating_points(plan.gather([self.circuit]), self.x[None, :])
        return self._ops

    def op(self, device_name: str) -> MOSOperatingPoint:
        """Operating point of a MOSFET."""
        device = self.circuit.device(device_name)
        if not isinstance(device, MOSFET):
            raise TypeError(f"{device_name!r} is not a MOSFET")
        k = [d for d in self.circuit.devices if isinstance(d, MOSFET)].index(device)
        ids, op = self.mos_operating_points()
        return MOSOperatingPoint.from_model(ids, op, (0, k))


class DCAnalysis:
    """Newton-based DC operating-point analysis for a circuit.

    Parameters
    ----------
    circuit:
        The circuit to solve (finalized automatically).
    max_iterations:
        Newton iterations per attempt.
    vtol, reltol:
        Convergence test: every voltage update must satisfy
        ``|dv| < vtol + reltol * |v|``.
    max_step:
        Per-iteration voltage-update clamp [V].
    gmin:
        Always-on conductance from each node to ground.
    """

    def __init__(
        self,
        circuit: Circuit,
        max_iterations: int = 200,
        vtol: float = 1e-9,
        reltol: float = 1e-6,
        max_step: float = 0.4,
        gmin: float = 1e-12,
    ):
        self.circuit = circuit
        self.max_iterations = int(max_iterations)
        self.vtol = float(vtol)
        self.reltol = float(reltol)
        self.max_step = float(max_step)
        self.gmin = float(gmin)
        circuit.finalize()

    # -- public API ------------------------------------------------------------

    def solve(self, initial: dict | np.ndarray | None = None) -> DCSolution:
        """Find the DC operating point, trying homotopies if Newton fails."""
        return self.solve_batch([self.circuit], [initial])[0]

    def solve_batch(self, circuits, initials=None) -> list[DCSolution]:
        """Solve circuits of one system size (say, one netlist's PVT corners)
        as one :class:`CircuitBatch`, with this analysis' options; raises
        :class:`ConvergenceError` naming the first circuit that failed.
        Each solution equals the circuit's own :meth:`solve` bit for bit."""
        batch = CircuitBatch(circuits)
        initials = [None] * len(batch.circuits) if initials is None else list(initials)
        x0 = np.array([initial_vector(c, i) for c, i in zip(batch.circuits, initials)])
        x, iterations, rung = self.newton(batch, x0)
        for c, circuit in enumerate(batch.circuits):
            if rung[c] < 0:
                raise ConvergenceError(
                    f"DC analysis of {circuit.name!r} failed to converge"
                )
        return batch.solutions(x, iterations, rung)

    # -- Newton machinery --------------------------------------------------------

    def newton(self, batch: CircuitBatch, x0: np.ndarray):
        """Batched Newton with per-corner homotopy fallbacks.

        Returns ``(x, iterations, rung)``: the ``(C, n)`` solutions, the
        iteration count of each corner's last Newton run and the index of
        its converged rung in :data:`HOMOTOPIES` (``-1``: every rung failed).
        """
        n_corners, nn = x0.shape[0], batch.n_nodes
        ladders = (
            ((self.gmin, 1.0),),
            tuple((g, 1.0) for g in _GMIN_STEPS) + ((self.gmin, 1.0),),
            tuple((self.gmin, s) for s in _SOURCE_STEPS),
        )
        x = x0.copy()
        rung = np.zeros(n_corners, dtype=int)
        step = np.zeros(n_corners, dtype=int)
        count = np.zeros(n_corners, dtype=int)
        iterations = np.zeros(n_corners, dtype=int)
        gmin = np.full(n_corners, self.gmin)
        scale = np.ones(n_corners)
        active = np.full(n_corners, self.max_iterations > 0)
        if not active.any():
            rung[:] = -1

        def next_rung(c):
            if rung[c] + 1 == len(ladders):
                rung[c], active[c] = -1, False
                return
            rung[c] += 1
            step[c] = count[c] = 0
            x[c] = x0[c]
            gmin[c], scale[c] = ladders[rung[c]][0]

        while active.any():
            idx = np.flatnonzero(active)
            # assembling every corner costs what assembling a few does;
            # only the iterating ones are solved
            a, b = batch.systems(x, scale, gmin)
            if idx.size < n_corners:
                a, b = a[idx], b[idx]
            x_new, ok = _solve(a, b)
            count[idx] += 1
            if not ok.all():
                for c in idx[~ok].tolist():
                    next_rung(c)
                idx, x_new = idx[ok], x_new[ok]
            xr = x[idx]
            dv = x_new[:, :nn] - xr[:, :nn]
            # clamp only voltage updates; branch currents follow linearly
            xr[:, :nn] += np.minimum(np.maximum(dv, -self.max_step), self.max_step)
            xr[:, nn:] = x_new[:, nn:]
            x[idx] = xr
            tol = self.vtol + self.reltol * np.abs(xr[:, :nn])
            converged = (np.abs(dv) < tol).all(axis=1)
            for c in idx[converged].tolist():
                if step[c] + 1 < len(ladders[rung[c]]):
                    step[c] += 1
                    count[c] = 0
                    gmin[c], scale[c] = ladders[rung[c]][step[c]]
                else:
                    iterations[c], active[c] = count[c], False
            for c in idx[~converged & (count[idx] == self.max_iterations)].tolist():
                next_rung(c)
        return x, iterations, rung


def initial_vector(circuit: Circuit, initial) -> np.ndarray:
    """Newton start vector from ``None``, a node -> volts dict or a vector."""
    n = circuit.n_unknowns
    if initial is None:
        return np.zeros(n)
    if isinstance(initial, dict):
        x0 = np.zeros(n)
        for node, value in initial.items():
            idx = circuit.node_index(node)
            if idx >= 0:
                x0[idx] = float(value)
        return x0
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (n,):
        raise ValueError(f"initial vector must have shape ({n},)")
    return initial.copy()


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a ``(C, n, n)`` stack; ``ok`` flags nonsingular, finite rows.

    A singular matrix makes the stacked solve raise for all rows, so the
    stack is then re-solved one matrix at a time to isolate it.
    """
    try:
        x = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        ok = np.ones(len(a), dtype=bool)
        for c in range(len(a)):
            try:
                x[c] = np.linalg.solve(a[c : c + 1], b[c : c + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                ok[c] = False
        return x, ok & np.all(np.isfinite(x), axis=1)
    return x, np.all(np.isfinite(x), axis=1)
