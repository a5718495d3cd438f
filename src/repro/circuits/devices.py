"""Linear netlist elements and independent sources.

Devices are plain value holders with named nodes; their MNA stamp
patterns live in one place, the compiled stamp plan of
:mod:`repro.circuits.mna`.  Independent-source values are scaled by the
plan's per-corner source scale, which is how the Newton solver applies
source-stepping homotopy.
"""

from __future__ import annotations


class Device:
    """Netlist element protocol.

    Attributes
    ----------
    name:
        Unique instance name within a circuit.
    nodes:
        Tuple of node names this device connects to.
    n_branches:
        Number of extra MNA unknowns (branch currents) it requires.
    """

    n_branches = 0


    def __init__(self, name: str, nodes: tuple[str, ...]):
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)
        self.node_idx: tuple[int, ...] = ()
        self.branch_idx: int = -1


    def assign_nodes(self, index_of):
        """Resolve node names to MNA indices."""
        self.node_idx = tuple(index_of(n) for n in self.nodes)


    def assign_branch(self, index: int):
        """Assign the first branch-current index (if ``n_branches > 0``)."""
        self.branch_idx = int(index)


    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, nodes={self.nodes})"


class Resistor(Device):
    """Linear resistor."""


    def __init__(self, name, node_a, node_b, resistance: float):
        super().__init__(name, (node_a, node_b))
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive, got {resistance}")
        self.resistance = float(resistance)


class Capacitor(Device):
    """Linear capacitor: open at DC, admittance ``j omega C`` in AC."""


    def __init__(self, name, node_a, node_b, capacitance: float):
        super().__init__(name, (node_a, node_b))
        if capacitance < 0:
            raise ValueError(f"{name}: capacitance must be >= 0, got {capacitance}")
        self.capacitance = float(capacitance)


class CurrentSource(Device):
    """Independent current source driving ``dc`` amps from node_from to node_to.

    The ``ac`` magnitude participates only in AC sweeps.  Setting
    ``waveform`` to a callable ``t -> value`` makes the source follow it
    during transient analyses (see :mod:`repro.circuits.transient`).
    """


    def __init__(self, name, node_from, node_to, dc: float, ac: float = 0.0,
                 waveform=None):
        super().__init__(name, (node_from, node_to))
        self.dc = float(dc)
        self.ac = float(ac)
        self.waveform = waveform


    def value_at(self, t: float) -> float:
        """Instantaneous source value at time ``t``."""
        return self.dc if self.waveform is None else float(self.waveform(t))


class VoltageSource(Device):
    """Independent voltage source with one branch-current unknown.

    The branch current is positive when current flows from the circuit
    *into the positive terminal* (SPICE measurement convention).  Setting
    ``waveform`` to a callable ``t -> value`` makes the source follow it
    during transient analyses.
    """

    n_branches = 1


    def __init__(self, name, node_pos, node_neg, dc: float, ac: float = 0.0,
                 waveform=None):
        super().__init__(name, (node_pos, node_neg))
        self.dc = float(dc)
        self.ac = float(ac)
        self.waveform = waveform


    def value_at(self, t: float) -> float:
        """Instantaneous source value at time ``t``."""
        return self.dc if self.waveform is None else float(self.waveform(t))


class VCVS(Device):
    """Voltage-controlled voltage source ``v_out = gain * v_in`` (ideal)."""

    n_branches = 1


    def __init__(self, name, out_pos, out_neg, in_pos, in_neg, gain: float):
        super().__init__(name, (out_pos, out_neg, in_pos, in_neg))
        self.gain = float(gain)


class VCCS(Device):
    """Voltage-controlled current source ``i = gm * v_in`` out of out_pos."""


    def __init__(self, name, out_pos, out_neg, in_pos, in_neg, gm: float):
        super().__init__(name, (out_pos, out_neg, in_pos, in_neg))
        self.gm = float(gm)


