"""The per-device MNA engine the compiled stamp plans replaced, as a test oracle.

Every device stamps its own entries, one ``+=`` at a time, into a zeroed
matrix, and the MOSFET is the scalar square law; the DC Newton, AC sweep
and transient step follow the same recipe as the library.  The compiled
engine must reproduce this one bit for bit (``test_mna_parity.py``), so
it is kept as written, scalar loops and all.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.dc import ConvergenceError
from repro.circuits.devices import (
    Capacitor,
    CurrentSource,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.circuits.mosfet import MOSFET


class System:
    """A zeroed MNA system that drops ground stamps."""

    def __init__(self, size, dtype=float, source_scale=1.0, time=None):
        self.matrix = np.zeros((size, size), dtype=dtype)
        self.rhs = np.zeros(size, dtype=dtype)
        self.source_scale = source_scale
        self.time = time

    def add(self, row, col, value):
        if row >= 0 and col >= 0:
            self.matrix[row, col] += value

    def add_rhs(self, row, value):
        if row >= 0:
            self.rhs[row] += value

    def conductance(self, a, b, g):
        self.add(a, a, g)
        self.add(b, b, g)
        self.add(a, b, -g)
        self.add(b, a, -g)

    def vccs(self, op, on, ip, in_, gm):
        self.add(op, ip, gm)
        self.add(op, in_, -gm)
        self.add(on, ip, -gm)
        self.add(on, in_, gm)

    def voltage_branch(self, pos, neg, branch, value):
        self.add(pos, branch, 1.0)
        self.add(neg, branch, -1.0)
        self.add(branch, pos, 1.0)
        self.add(branch, neg, -1.0)
        self.add_rhs(branch, value)

    def gmin(self, n_nodes, gmin):
        for i in range(n_nodes):
            self.matrix[i, i] += gmin


def square_law(vgs, vds, vsb, vth0, beta, lam, gamma, phi):
    body_arg = max(phi + vsb, 0.05)
    vth = vth0 + gamma * (math.sqrt(body_arg) - math.sqrt(phi))
    vov = vgs - vth
    if vov <= 0.0:
        return 0.0, 0.0, 0.0, 0.0, "cutoff"
    clm = 1.0 + lam * vds
    if vds < vov:
        core = vov * vds - 0.5 * vds * vds
        ids = beta * core * clm
        gm = beta * vds * clm
        gds = beta * ((vov - vds) * clm + core * lam)
        region = "triode"
    else:
        ids = 0.5 * beta * vov * vov * clm
        gm = beta * vov * clm
        gds = 0.5 * beta * vov * vov * lam
        region = "saturation"
    return ids, gm, gds, gm * gamma / (2.0 * math.sqrt(body_arg)), region


def mos_eval(device, vd, vg, vs, vb):
    """``(ids, g_d, g_g, g_s, g_b, (gm, gds, gmb, region))`` of a MOSFET."""
    p = device.params
    args = (p.vth0, device.beta, device.lam, p.gamma, p.phi)
    if p.polarity == "p":
        vd, vg, vs, vb = -vd, -vg, -vs, -vb
    if vd >= vs:
        ids, gm, gds, gmb, region = square_law(vg - vs, vd - vs, vs - vb, *args)
        g_d, g_g, g_s, g_b = gds, gm, -(gm + gds + gmb), gmb
    else:
        ids_r, gm, gds, gmb, region = square_law(vg - vd, vs - vd, vd - vb, *args)
        ids = -ids_r
        g_d, g_g, g_s, g_b = gm + gds + gmb, -gm, -gds, -gmb
    if p.polarity == "p":
        ids = -ids
    return ids, g_d, g_g, g_s, g_b, (gm, gds, gmb, region)


def stamp_dc(device, system, x):
    """One device's DC (companion) stamps at iterate ``x``."""
    scale, t = system.source_scale, system.time
    if isinstance(device, Resistor):
        system.conductance(*device.node_idx, 1.0 / device.resistance)
    elif isinstance(device, CurrentSource):
        value = (device.dc if t is None else device.value_at(t)) * scale
        a, b = device.node_idx
        system.add_rhs(a, -value)
        system.add_rhs(b, value)
    elif isinstance(device, VoltageSource):
        value = (device.dc if t is None else device.value_at(t)) * scale
        system.voltage_branch(*device.node_idx, device.branch_idx, value)
    elif isinstance(device, VCVS):
        op, on, ip, in_ = device.node_idx
        br = device.branch_idx
        for row, col, value in ((op, br, 1.0), (on, br, -1.0), (br, op, 1.0),
                                (br, on, -1.0), (br, ip, -device.gain), (br, in_, device.gain)):
            system.add(row, col, value)
    elif isinstance(device, VCCS):
        system.vccs(*device.node_idx, device.gm)
    elif isinstance(device, MOSFET):
        d, g, s, b = device.node_idx
        volts = [0.0 if i < 0 else x[i] for i in (d, g, s, b)]
        ids, *partials, _ = mos_eval(device, *volts)
        ieq = ids - sum(gk * vk for gk, vk in zip(partials, volts))
        for gk, node in zip(partials, (d, g, s, b)):
            system.add(d, node, gk)
            system.add(s, node, -gk)
        system.add_rhs(d, -ieq)
        system.add_rhs(s, ieq)


def stamp_ac(device, system, omega, x):
    """One device's small-signal stamps, MOSFETs linearized at ``x``."""

    def capacitor(a, b, cap):
        y = 1j * omega * cap
        system.conductance(a, b, y)

    if isinstance(device, (Resistor, VCVS, VCCS)):
        stamp_dc(device, system, x)
    elif isinstance(device, Capacitor):
        capacitor(*device.node_idx, device.capacitance)
    elif isinstance(device, CurrentSource):
        if device.ac != 0.0:
            a, b = device.node_idx
            system.add_rhs(a, -device.ac)
            system.add_rhs(b, device.ac)
    elif isinstance(device, VoltageSource):
        system.voltage_branch(*device.node_idx, device.branch_idx, device.ac)
    elif isinstance(device, MOSFET):
        d, g, s, b = device.node_idx
        volts = [0.0 if i < 0 else x[i] for i in (d, g, s, b)]
        gm, gds, gmb, region = mos_eval(device, *volts)[-1]
        system.vccs(d, s, g, s, gm if region != "cutoff" else 0.0)
        system.vccs(d, s, b, s, gmb)
        system.conductance(d, s, gds)
        p = device.params
        area_cap = p.cox * device.w * device.l * device.m
        cov = p.cov * device.w * device.m
        if region == "saturation":
            cgs, cgd, cgb = (2.0 / 3.0) * area_cap + cov, cov, 0.0
        elif region == "triode":
            cgs, cgd, cgb = 0.5 * area_cap + cov, 0.5 * area_cap + cov, 0.0
        else:
            cgs, cgd, cgb = cov, cov, area_cap
        cj = p.cj_w * device.w * device.m
        capacitor(g, s, cgs)
        capacitor(g, d, cgd)
        capacitor(g, b, cgb)
        capacitor(d, b, cj)
        capacitor(s, b, cj)


def newton(circuit, x0, gmin, scale, max_iterations=200, vtol=1e-9, reltol=1e-6,
           max_step=0.4):
    """One damped Newton run: ``(x, iterations)`` or ``None``."""
    nn = circuit.n_nodes
    x = x0.copy()
    for iteration in range(1, max_iterations + 1):
        system = System(circuit.n_unknowns, source_scale=scale)
        for device in circuit.devices:
            stamp_dc(device, system, x)
        system.gmin(nn, gmin)
        try:
            x_new = np.linalg.solve(system.matrix, system.rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(x_new)):
            return None
        dv = (x_new - x)[:nn]
        x[:nn] += np.clip(dv, -max_step, max_step)
        x[nn:] = x_new[nn:]
        if np.all(np.abs(dv) < vtol + reltol * np.abs(x[:nn])):
            return x, iteration
    return None


def solve_dc(circuit, x0, gmin=1e-12, **options):
    """``(x, iterations, homotopy)``: plain Newton, then gmin stepping, then
    source stepping, each ladder from ``x0``; raises when all fail."""
    ladders = (
        ("newton", [(gmin, 1.0)]),
        ("gmin", [(g, 1.0) for g in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, gmin)]),
        ("source", [(gmin, s) for s in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0)]),
    )
    for name, steps in ladders:
        x = x0
        for g, scale in steps:
            result = newton(circuit, x, g, scale, **options)
            if result is None:
                break
            x, iterations = result
        else:
            return x, iterations, name
    raise ConvergenceError(f"DC analysis of {circuit.name!r} failed to converge")


def ac_sweep(circuit, x_dc, freqs, gmin=1e-12):
    """Complex solutions ``(F, n)``, the system rebuilt at every frequency."""
    out = np.empty((len(freqs), circuit.n_unknowns), dtype=complex)
    for k, freq in enumerate(np.asarray(freqs, dtype=float)):
        omega = 2.0 * np.pi * freq
        system = System(circuit.n_unknowns, dtype=complex)
        for device in circuit.devices:
            stamp_ac(device, system, omega, x_dc)
        system.gmin(circuit.n_nodes, gmin)
        out[k] = np.linalg.solve(system.matrix, system.rhs)
    return out
