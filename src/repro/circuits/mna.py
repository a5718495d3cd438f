"""Modified-nodal-analysis assembly from compiled stamp plans.

Unknown vector layout: node voltages first (ground excluded, index ``-1``),
then one branch current per voltage-defined element (voltage sources,
VCVS).  Stamps aimed at ground rows/columns are dropped, which keeps the
device patterns free of ground special-casing.

Sign conventions (documented once, relied on everywhere):

* rows are KCL equations, "sum of currents *leaving* the node through
  devices equals current injected by sources" (``G v = b``);
* a voltage source's branch current is positive when conventional current
  flows *into its positive terminal* from the circuit (SPICE convention) —
  the charge-pump testbench measures its output currents this way.

A circuit topology compiles once into a :class:`StampPlan` — cached by
structure (device kinds and node indices), never by values — that holds
index arrays and no numbers.  :meth:`StampPlan.gather` reads the values
of a batch of same-topology circuits (one row per circuit, e.g. per PVT
corner) into a :class:`PlanValues`; the assemblies then build a
``(C, n, n)`` stack of systems with a handful of array operations.

Bitwise contract: every matrix cell (and RHS row) is the sum of its
stamps *in device order*, starting from ``0.0``, exactly as stamping the
devices one by one into a zeroed matrix would produce.  The plan keeps
each cell's stamps as ranked slot indices and adds rank by rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.circuits.devices import (
    Capacitor,
    CurrentSource,
    Device,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.circuits.mosfet import MOSFET, mos_model

#: fixed value slots at the head of every value row
_ZERO, _ONE = 0, 1
_DEVICE_KINDS = (
    (Resistor, "R"),
    (Capacitor, "C"),
    (CurrentSource, "I"),
    (VoltageSource, "V"),
    (VCVS, "E"),
    (VCCS, "G"),
    (MOSFET, "M"),
)


def _kind(device) -> str:
    for cls, kind in _DEVICE_KINDS:
        if isinstance(device, cls):
            return kind
    if type(device) is Device:
        return "-"  # the bare protocol class: an open element, no stamps
    raise TypeError(f"{device!r}: no MNA stamp pattern for {type(device).__name__}")


def topology(circuit) -> tuple:
    """The structural key of a (finalized) circuit: device kinds and
    MNA indices.  Circuits with equal keys share one :class:`StampPlan`."""
    circuit.finalize()
    return (circuit.n_nodes, circuit.n_unknowns) + tuple(
        (_kind(d), d.node_idx, d.branch_idx if getattr(d, "n_branches", 0) else -1)
        for d in circuit.devices
    )


def plan_for(circuit) -> "StampPlan":
    """The compiled plan of a circuit's topology (compiled on first use)."""
    return compile_plan(topology(circuit))


@functools.lru_cache(maxsize=256)
def compile_plan(key: tuple) -> "StampPlan":
    """The plan of a :func:`topology` key, compiled once and shared."""
    return StampPlan(key)


class _Stamps:
    """Ordered stamps of one assembly; a slot ``s + size`` means ``-value[s]``."""

    def __init__(self, n: int):
        self.n = n
        self.matrix: list[tuple[int, int, bool]] = []
        self.rhs: list[tuple[int, int, bool]] = []

    def add(self, row, col, slot, neg=False):
        if row >= 0 and col >= 0:
            self.matrix.append((row * self.n + col, slot, neg))

    def add_rhs(self, row, slot, neg=False):
        if row >= 0:
            self.rhs.append((row, slot, neg))

    def conductance(self, a, b, slot):
        """Two-terminal conductance between ``a`` and ``b``."""
        self.add(a, a, slot)
        self.add(b, b, slot)
        self.add(a, b, slot, True)
        self.add(b, a, slot, True)

    def vccs(self, out_p, out_n, in_p, in_n, slot):
        """Current ``gm * (v_inp - v_inn)`` leaving ``out_p``, entering ``out_n``."""
        self.add(out_p, in_p, slot)
        self.add(out_p, in_n, slot, True)
        self.add(out_n, in_p, slot, True)
        self.add(out_n, in_n, slot)

    def injection(self, node_from, node_to, slot):
        """Ideal current source driving ``value`` from node_from to node_to."""
        self.add_rhs(node_from, slot, True)
        self.add_rhs(node_to, slot)

    def voltage_branch(self, pos, neg, branch, slot):
        """Enforce ``v_pos - v_neg = value`` through the branch row."""
        self.add(pos, branch, _ONE)
        self.add(neg, branch, _ONE, True)
        self.add(branch, pos, _ONE)
        self.add(branch, neg, _ONE, True)
        self.add_rhs(branch, slot)

    def vcvs(self, out_p, out_n, in_p, in_n, branch, slot):
        """Ideal ``v_out = gain * v_in`` through the branch row."""
        self.add(out_p, branch, _ONE)
        self.add(out_n, branch, _ONE, True)
        self.add(branch, out_p, _ONE)
        self.add(branch, out_n, _ONE, True)
        self.add(branch, in_p, slot, True)
        self.add(branch, in_n, slot)

    def gmin(self, n_nodes, slot):
        """Tiny conductance from every node to ground (SPICE ``gmin``)."""
        for i in range(n_nodes):
            self.add(i, i, slot)


class _Assembly:
    """One compiled assembly: ranked slot indices per touched cell."""

    def __init__(self, stamps: _Stamps, size: int):
        self.n = stamps.n
        self.cells, self.ranks = self._rank(stamps.matrix, size)
        self.rows, self.rhs_ranks = self._rank(stamps.rhs, size)

    @staticmethod
    def _rank(entries, size):
        order: dict[int, list[int]] = {}
        for target, slot, neg in entries:
            order.setdefault(target, []).append(slot + size if neg else slot)
        targets = np.fromiter(order, dtype=np.intp, count=len(order))
        depth = max((len(s) for s in order.values()), default=0)
        # rank 0 is the +0.0 slot, where the one-by-one sum starts; the
        # tail pads with it too: x + 0.0 == x for every partial sum that
        # starts from +0.0
        ranks = np.full((depth + 1, len(order)), _ZERO, dtype=np.intp)
        for k, slots in enumerate(order.values()):
            ranks[1 : len(slots) + 1, k] = slots
        return targets, ranks

    @staticmethod
    def _sum(values, ranks):
        """Rank-by-rank sums of ``values[:, ranks]`` over the rank axis.

        ``add.reduce`` over a middle axis adds whole rank rows in order.
        With a single target the rank axis would become the innermost
        one, where numpy sums pairwise, so that case loops instead.
        """
        gathered = values[:, ranks]
        if ranks.shape[1] > 1:
            return np.add.reduce(gathered, axis=1)
        total = gathered[:, 0]
        for r in range(1, ranks.shape[0]):
            total = total + gathered[:, r]
        return total

    def matrix(self, values) -> np.ndarray:
        """``(C, n, n)`` stack from a ``(C, 2V)`` signed value table."""
        out = np.zeros((values.shape[0], self.n * self.n))
        out[:, self.cells] = self._sum(values, self.ranks)
        return out.reshape(-1, self.n, self.n)

    def rhs(self, values) -> np.ndarray:
        """``(C, n)`` right-hand sides from a ``(C, 2V)`` signed value table."""
        out = np.zeros((values.shape[0], self.n))
        out[:, self.rows] = self._sum(values, self.rhs_ranks)
        return out


def _signed(values) -> np.ndarray:
    return np.concatenate([values, -values], axis=1)


def companion(volts, params) -> tuple:
    """MOSFET companion columns ``(g_d, g_g, g_s, g_b, ieq)`` at terminal
    voltages ``volts`` (``(4, ...)``): the linearized drain current is
    ``sum_k g_k v_k + ieq``.  Elementwise, so any batch layout works."""
    ids, g_d, g_g, g_s, g_b, _ = mos_model(volts, *params)
    vd, vg, vs, vb = volts
    with np.errstate(all="ignore"):
        ieq = ids - (0.0 + g_d * vd + g_g * vg + g_s * vs + g_b * vb)
    return g_d, g_g, g_s, g_b, ieq


@dataclass
class PlanValues:
    """The numbers of a batch of same-topology circuits, one row each.

    ``lin`` holds the linear constants (resistor conductances, VCCS
    transconductances, VCVS gains), ``src_dc``/``src_ac`` the independent
    sources' DC and AC values, ``mos`` the six :func:`mos_model` parameter
    columns stacked as ``(6, C, M)``, ``mos_caps`` the gate-area, overlap
    and junction capacitances ``(3, C, M)`` and ``caps`` the explicit
    capacitors.
    """

    lin: np.ndarray
    src_dc: np.ndarray
    src_ac: np.ndarray
    mos: np.ndarray
    mos_caps: np.ndarray
    caps: np.ndarray


class StampPlan:
    """Compiled stamp pattern of one circuit topology (immutable).

    Value rows (one per circuit in a batch) are laid out as ``[0.0, 1.0,
    linear constants, ...]`` followed by the assembly's own columns:

    * DC: sources x scale, then per MOSFET ``g_d, g_g, g_s, g_b, ieq``
      (column blocks of ``M``), then ``gmin``;
    * transient: the DC columns plus each capacitor's companion
      conductance and history current, capacitors stamped after every
      other device;
    * AC: a real table (AC source values, MOSFET ``gm, gmb, gds``,
      ``gmin``) and an imaginary one (``omega * C`` of every capacitor,
      then each MOSFET's ``cgs, cgd, cgb, cj``).
    """

    def __init__(self, key: tuple):
        n_nodes, n, *devices = key
        self.n_nodes, self.n = n_nodes, n
        self.kinds = kinds = tuple(kind for kind, _, _ in devices)
        self.n_lin = sum(kind in "REG" for kind in kinds)
        self.n_src = sum(kind in "IV" for kind in kinds)
        self.n_mos = sum(kind == "M" for kind in kinds)
        self.n_caps = sum(kind == "C" for kind in kinds)
        lin0, src0 = 2, 2 + self.n_lin
        mos0 = src0 + self.n_src
        # DC / transient value columns
        self.dc_size = mos0 + 5 * self.n_mos + 1
        self.tran_size = self.dc_size + 2 * self.n_caps
        # AC value columns
        self.ac_size = mos0 + 3 * self.n_mos + 1
        self.ac_imag_size = 1 + self.n_caps + 4 * self.n_mos

        dc, tran = _Stamps(n), _Stamps(n)
        ac, ac_imag = _Stamps(n), _Stamps(n)
        mos_nodes, source_of = [], {}
        lin = src = mos = cap = 0
        M, cap_mos0 = self.n_mos, 1 + self.n_caps
        for index, (kind, nodes, branch) in enumerate(devices):
            if kind in "REG":
                slot = lin0 + lin
                lin += 1
                for table in (dc, tran, ac):
                    if kind == "R":
                        table.conductance(*nodes, slot)
                    elif kind == "G":
                        table.vccs(*nodes, slot)
                    else:
                        table.vcvs(*nodes, branch, slot)
            elif kind in "IV":
                source_of[index] = src
                slot = src0 + src
                src += 1
                for table in (dc, tran, ac):
                    if kind == "I":
                        table.injection(*nodes, slot)
                    else:
                        table.voltage_branch(*nodes, branch, slot)
            elif kind == "C":
                ac_imag.conductance(*nodes, 1 + cap)
                cap += 1
            elif kind == "M":
                d, g, s, b = nodes
                mos_nodes.append(nodes)
                for table in (dc, tran):
                    for j, node in enumerate(nodes):
                        slot = mos0 + j * M + mos
                        table.add(d, node, slot)
                        table.add(s, node, slot, True)
                    table.add_rhs(d, mos0 + 4 * M + mos, True)
                    table.add_rhs(s, mos0 + 4 * M + mos)
                gm, gmb, gds = (mos0 + j * M + mos for j in range(3))
                ac.vccs(d, s, g, s, gm)
                ac.vccs(d, s, b, s, gmb)
                ac.conductance(d, s, gds)
                cgs, cgd, cgb, cj = (cap_mos0 + j * M + mos for j in range(4))
                ac_imag.conductance(g, s, cgs)
                ac_imag.conductance(g, d, cgd)
                ac_imag.conductance(g, b, cgb)
                ac_imag.conductance(d, b, cj)
                ac_imag.conductance(s, b, cj)
                mos += 1
        # capacitor companions go after every other device (transient)
        cap_nodes = [nodes for kind, nodes, _ in devices if kind == "C"]
        for k, (a, b) in enumerate(cap_nodes):
            tran.conductance(a, b, self.dc_size + k)
            tran.add_rhs(a, self.dc_size + self.n_caps + k)
            tran.add_rhs(b, self.dc_size + self.n_caps + k, True)
        dc.gmin(n_nodes, self.dc_size - 1)
        tran.gmin(n_nodes, self.dc_size - 1)
        ac.gmin(n_nodes, self.ac_size - 1)

        self._dc = _Assembly(dc, self.dc_size)
        self._tran = _Assembly(tran, self.tran_size)
        self._ac = _Assembly(ac, self.ac_size)
        self._ac_imag = _Assembly(ac_imag, self.ac_imag_size)
        # MOSFET terminals; ground (-1) reads the appended 0.0 column
        self.mos_nodes = np.array(mos_nodes, dtype=np.intp).reshape(-1, 4).T % (n + 1)
        self.cap_nodes = np.array(cap_nodes, dtype=np.intp).reshape(-1, 2).T % (n + 1)
        self._source_of = source_of

    def source_column(self, device_index: int) -> int:
        """Column of an independent source (by device position) in
        ``PlanValues.src_dc``/``src_ac``."""
        return self._source_of[device_index]

    # -- values -----------------------------------------------------------------

    def gather(self, circuits) -> PlanValues:
        """Read the values of circuits of this plan's topology into one batch."""
        lin, src_dc, src_ac, mos, mos_caps, caps = [], [], [], [], [], []
        for circuit in circuits:
            row_lin, row_dc, row_ac, row_mos, row_mcap, row_cap = [], [], [], [], [], []
            for kind, device in zip(self.kinds, circuit.devices):
                if kind == "R":
                    row_lin.append(1.0 / device.resistance)
                elif kind == "G":
                    row_lin.append(device.gm)
                elif kind == "E":
                    row_lin.append(device.gain)
                elif kind in "IV":
                    row_dc.append(device.dc)
                    row_ac.append(device.ac)
                elif kind == "C":
                    row_cap.append(device.capacitance)
                elif kind == "M":
                    row_mos.append(device.model_params())
                    row_mcap.append(device.capacitances())
            lin.append(row_lin)
            src_dc.append(row_dc)
            src_ac.append(row_ac)
            mos.append(row_mos)
            mos_caps.append(row_mcap)
            caps.append(row_cap)
        C, M = len(circuits), self.n_mos
        return PlanValues(
            np.array(lin, dtype=float).reshape(C, self.n_lin),
            np.array(src_dc, dtype=float).reshape(C, self.n_src),
            np.array(src_ac, dtype=float).reshape(C, self.n_src),
            np.array(mos, dtype=float).reshape(C, M, 6).transpose(2, 0, 1),
            np.array(mos_caps, dtype=float).reshape(C, M, 3).transpose(2, 0, 1),
            np.array(caps, dtype=float).reshape(C, self.n_caps),
        )

    # -- nonlinear evaluation -----------------------------------------------------

    def terminals(self, x: np.ndarray) -> np.ndarray:
        """MOSFET terminal voltages ``(4, C, M)`` (d, g, s, b) of a
        ``(C, n)`` solution stack; ground reads 0.0."""
        padded = np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)
        return padded[:, self.mos_nodes].transpose(1, 0, 2)

    def operating_points(self, values: PlanValues, x: np.ndarray) -> tuple:
        """``(ids, op)`` of every MOSFET at the solutions ``x`` (:func:`mos_model`)."""
        ids, *_, op = mos_model(self.terminals(x), *values.mos)
        return ids, op

    # -- assemblies ------------------------------------------------------------------

    def _row(self, values, mos, scale, gmin, *extra) -> np.ndarray:
        """The signed value table ``[0, 1, lin, sources x scale, MOSFET
        companion columns, gmin, *extra]`` and its negation."""
        n_rows = values.lin.shape[0]
        return _signed(np.concatenate(
            [np.zeros((n_rows, 1)), np.ones((n_rows, 1)), values.lin,
             values.src_dc * scale[:, None], *mos, gmin[:, None], *extra],
            axis=1,
        ))

    def dc_system(self, values, mos, scale, gmin) -> tuple[np.ndarray, np.ndarray]:
        """Newton companion systems ``(A, b)``.

        ``mos`` holds the MOSFET companion columns ``(g_d, g_g, g_s, g_b,
        ieq)``, each ``(C, M)`` (see :func:`companion`); ``scale`` (the
        source-stepping factor) and ``gmin`` hold one value per row.
        """
        row = self._row(values, mos, scale, gmin)
        return self._dc.matrix(row), self._dc.rhs(row)

    def tran_system(self, values, mos, g_eq, i_hist, gmin) -> tuple[np.ndarray, np.ndarray]:
        """Transient step systems: the DC companion at full sources plus each
        capacitor's integration companion (``g_eq``, ``i_hist``: ``(C, K)``)."""
        ones = np.ones(values.lin.shape[0])
        row = self._row(values, mos, ones, gmin * ones, g_eq, i_hist)
        return self._tran.matrix(row), self._tran.rhs(row)

    def ac_system(self, values, op, omega, gmin) -> tuple[np.ndarray, np.ndarray]:
        """Small-signal stack ``Y(omega) x = b`` of one circuit (``values``
        and ``op`` of a single row) over the ``(F,)`` frequencies."""
        real = np.concatenate(
            [[[0.0, 1.0]], values.lin, values.src_ac, op["gm"], op["gmb"], op["gds"],
             [[gmin]]],
            axis=1,
        )
        area, cov, cj = values.mos_caps[:, 0]
        region = op["region"][0]
        sat, tri = region == 2, region == 1
        caps = np.concatenate([
            values.caps[0],
            np.where(sat, (2.0 / 3.0) * area + cov, np.where(tri, 0.5 * area + cov, cov)),
            np.where(tri, 0.5 * area + cov, cov),
            np.where(sat | tri, 0.0, area),
            cj,
        ])
        imag = np.zeros((omega.size, self.ac_imag_size))
        imag[:, 1:] = omega[:, None] * caps[None, :]
        real, imag = _signed(real), _signed(imag)
        y = np.empty((omega.size, self.n, self.n), dtype=complex)
        y.real = self._ac.matrix(real)
        y.imag = self._ac_imag.matrix(imag)
        b = np.zeros((omega.size, self.n), dtype=complex)
        b.real = self._ac.rhs(real)
        return y, b
