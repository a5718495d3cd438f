"""Simulator-backend protocol: analysis plans, results, and selection.

The paper's flow drives a real SPICE simulator; this package makes the
evaluation engine a pluggable strategy.  A testbench builds a
:class:`~repro.circuits.netlist.Circuit` plus an *analysis plan* (a list
of the specs below) and hands both to a :class:`SimulatorBackend`, which
returns :class:`RawResults` — one result object per analysis, with
name-based accessors that behave identically whether the numbers came
from the built-in MNA engine or from an external ``ngspice`` process.

Analysis specs
--------------

* :class:`OperatingPoint` — one DC bias-point solve (``.OP``); shares its
  solution with a following :class:`ACSweep` in the same plan, mirroring
  SPICE's one-deck/one-bias semantics.
* :class:`ACSweep` — small-signal sweep over an explicit frequency grid
  (``.AC``), linearized at the plan's DC solution.
* :class:`DCTransferSweep` — a swept independent source (``.DC``) with
  warm-started solves; the measurement is typically the swept source's
  own branch current.

:meth:`SimulatorBackend.run` also takes a batch of circuits (one plan
each) and returns one result set per circuit; the charge-pump testbench
hands its 36 reference branches (18 PVT corners x 2 polarities) over this
way, then its 36 output sweeps.

Backend selection
-----------------

:func:`resolve_sim_backend` maps the ``sim_backend`` knob (a name from
:data:`SIM_BACKENDS` or a backend instance) to a ready backend.  A
requested ``"ngspice"`` with no binary on PATH degrades gracefully: one
:class:`UserWarning` and the MNA engine runs instead, so studies
configured for a simulator farm still complete on a bare machine.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.backend import BackendNotAvailable
from repro.circuits.dc import ConvergenceError
from repro.circuits.netlist import is_ground

#: sim-backend names resolve_sim_backend accepts (besides instances)
SIM_BACKENDS = ("mna", "ngspice")


class SimulatorNotAvailable(BackendNotAvailable):
    """A requested simulator backend's executable is not installed.

    Subclasses :class:`~repro.backend.BackendNotAvailable` so the BO
    service maps it to the same stable ``backend-not-available`` wire
    code; the message points at the system package instead of pip.
    """

    def __init__(self, backend: str, binary: str):
        self.backend = str(backend)
        self.binary = str(binary)
        # keep the BackendNotAvailable attribute contract
        self.package = self.binary
        ImportError.__init__(
            self,
            f"simulator backend {self.backend!r} requires the "
            f"{self.binary!r} executable, which was not found; install it "
            f"(e.g. `apt-get install ngspice`) or select sim_backend='mna'",
        )


class SimulationError(ConvergenceError):
    """An external simulator run failed (crash, timeout, garbage output).

    Subclasses :class:`~repro.circuits.dc.ConvergenceError` so sizing
    problems map flaky external runs to the same finite penalty
    evaluations as internal non-convergence — the optimizers always
    receive usable data.
    """


def check_sim_backend(name: str) -> str:
    """Validate a sim-backend name early (before lazy resolution)."""
    if name not in SIM_BACKENDS:
        raise ValueError(
            f"unknown sim_backend {name!r}; expected one of {SIM_BACKENDS} "
            "or a SimulatorBackend instance"
        )
    return name


# -- analysis specs ----------------------------------------------------------------


@dataclass(frozen=True)
class OperatingPoint:
    """One DC operating-point solve.

    ``initial`` is an optional node -> volts seed (``.NODESET`` in SPICE
    terms); backends may use it to aid convergence but the converged
    solution must not depend on it.
    """

    initial: dict | None = None


@dataclass(frozen=True)
class ACSweep:
    """Small-signal sweep over an explicit frequency grid [Hz].

    Linearized at the DC solution of the preceding
    :class:`OperatingPoint` in the plan (or a fresh solve when the plan
    has none).  External backends may realize the grid approximately
    (e.g. ``.AC DEC``); measurements must therefore use the *result's*
    ``freqs``, not the requested grid.
    """

    freqs: object  # array-like; kept by reference so the MNA path is bitwise

    def grid(self) -> np.ndarray:
        """The requested frequencies as a float array."""
        return np.asarray(self.freqs, dtype=float).ravel()


@dataclass(frozen=True)
class DCTransferSweep:
    """Sweep an independent source's DC value, solving at each point.

    ``source`` names a :class:`~repro.circuits.devices.VoltageSource` /
    ``CurrentSource`` in the circuit; ``values`` are the swept levels in
    order.  Backends warm-start consecutive points from the previous
    solution (the quasi-static testbench idiom); ``initial`` seeds the
    first point only.
    """

    source: str
    values: tuple
    initial: dict | None = None

    def grid(self) -> np.ndarray:
        """The swept values as a float array."""
        return np.asarray(self.values, dtype=float).ravel()


# -- results -----------------------------------------------------------------------


class _NamedLookupError(KeyError):
    pass


def _lookup(mapping: dict, key: str, what: str):
    """Case-insensitive name lookup (SPICE netlists are case-insensitive)."""
    if key in mapping:
        return mapping[key]
    folded = key.lower()
    for name, value in mapping.items():
        if name.lower() == folded:
            return value
    raise _NamedLookupError(
        f"no {what} named {key!r}; available: {sorted(mapping)}"
    )


@dataclass
class OperatingPointResult:
    """Converged bias point: node voltages, branch currents, MOS regions."""

    voltages: dict = field(default_factory=dict)
    branch_currents: dict = field(default_factory=dict)
    #: MOSFET name -> operating region; empty for backends that do not
    #: report regions (only the MNA engine does)
    regions: dict = field(default_factory=dict)

    def voltage(self, node: str) -> float:
        """DC voltage of a named node (0.0 for any ground alias)."""
        if is_ground(node):
            return 0.0
        return float(_lookup(self.voltages, str(node), "node"))

    def branch_current(self, device_name: str) -> float:
        """Branch current of a voltage-defined device (SPICE convention:
        positive into the positive terminal)."""
        return float(_lookup(self.branch_currents, str(device_name), "branch"))

    def region(self, device_name: str) -> str:
        """Operating region of a MOSFET, or ``""`` when unavailable."""
        try:
            return str(_lookup(self.regions, str(device_name), "device"))
        except KeyError:
            return ""


@dataclass
class ACSweepResult:
    """Small-signal sweep: realized frequencies and complex node phasors."""

    freqs: np.ndarray
    voltages: dict = field(default_factory=dict)
    branch_currents: dict = field(default_factory=dict)

    def transfer(self, node: str) -> np.ndarray:
        """Complex node voltage over the sweep (the transfer function when
        the stimulus has unit AC magnitude)."""
        if is_ground(node):
            return np.zeros(len(self.freqs), dtype=complex)
        return np.asarray(_lookup(self.voltages, str(node), "node"))

    def branch_current(self, device_name: str) -> np.ndarray:
        """Complex branch current of a voltage-defined device."""
        return np.asarray(_lookup(self.branch_currents, str(device_name), "branch"))


@dataclass
class DCTransferSweepResult:
    """Swept-source result: realized sweep values and per-point traces."""

    source: str
    values: np.ndarray
    voltages: dict = field(default_factory=dict)
    branch_currents: dict = field(default_factory=dict)

    def voltage(self, node: str) -> np.ndarray:
        """Node voltage trace over the sweep (zeros for ground)."""
        if is_ground(node):
            return np.zeros(len(self.values))
        return np.asarray(_lookup(self.voltages, str(node), "node"))

    def branch_current(self, device_name: str) -> np.ndarray:
        """Branch-current trace of a voltage-defined device."""
        return np.asarray(_lookup(self.branch_currents, str(device_name), "branch"))


@dataclass
class RawResults:
    """Container a backend run returns: one result per analysis, in order."""

    backend: str
    results: list

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __iter__(self):
        return iter(self.results)

    def _first_of(self, cls, what: str):
        for result in self.results:
            if isinstance(result, cls):
                return result
        raise LookupError(f"no {what} result in this run (backend {self.backend!r})")

    def op(self) -> OperatingPointResult:
        """The first operating-point result."""
        return self._first_of(OperatingPointResult, "operating-point")

    def ac(self) -> ACSweepResult:
        """The first AC-sweep result."""
        return self._first_of(ACSweepResult, "AC-sweep")

    def sweep(self) -> DCTransferSweepResult:
        """The first DC-transfer-sweep result."""
        return self._first_of(DCTransferSweepResult, "DC-transfer-sweep")


# -- backend protocol ---------------------------------------------------------------


class SimulatorBackend:
    """Strategy interface every simulation engine implements.

    A backend is identified by ``(name, version)`` — that pair enters
    every :class:`~repro.bo.problem.Problem` cache key via
    ``cache_context()``, so evaluations produced by one engine are never
    served to a study configured for another.
    """

    #: short stable identifier (``"mna"``, ``"ngspice"``)
    name: str = "abstract"

    @property
    def version(self) -> str:
        """Version string of the underlying engine."""
        raise NotImplementedError

    def is_available(self) -> bool:
        """Whether the engine can run on this machine right now."""
        return True

    def ensure_available(self) -> None:
        """Raise :class:`SimulatorNotAvailable` when the engine cannot run."""
        if not self.is_available():
            raise SimulatorNotAvailable(self.name, self.name)

    def run(self, circuit, analyses, initial: dict | None = None):
        """Execute an analysis plan against a circuit.

        ``initial`` is a run-level node -> volts seed applied to any
        analysis that does not carry its own.  May raise
        :class:`~repro.circuits.dc.ConvergenceError` (or its
        :class:`SimulationError` subclass) — sizing problems convert
        those to penalty evaluations.

        A *batch* passes a list of circuits of one system size (e.g. one
        design's PVT corners) with one plan per circuit, all plans of the
        same shape; the call returns one :class:`RawResults` per circuit,
        each equal to running that circuit alone, and raises if any
        circuit fails.  Every backend must accept batches; the MNA engine
        solves each analysis across the batch at once.
        """
        raise NotImplementedError

    def cache_context(self) -> tuple:
        """The backend-identity tuple mixed into evaluation cache keys."""
        return (self.name, str(self.version))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def resolve_sim_backend(spec, fallback: bool = True) -> SimulatorBackend:
    """Map a ``sim_backend`` knob to a ready :class:`SimulatorBackend`.

    ``spec`` is a name from :data:`SIM_BACKENDS`, a backend instance
    (returned as-is), or ``None`` (the MNA default).  With ``fallback``
    (the default), an unavailable external backend degrades to the MNA
    engine with a single :class:`UserWarning`; ``fallback=False`` raises
    :class:`SimulatorNotAvailable` instead.
    """
    from repro.sim.mna import MNABackend

    if spec is None:
        return MNABackend()
    if isinstance(spec, SimulatorBackend):
        if not spec.is_available():
            if not fallback:
                spec.ensure_available()
            warnings.warn(
                f"simulator backend {spec.name!r} is not available; "
                "falling back to the built-in MNA engine",
                UserWarning,
                stacklevel=2,
            )
            return MNABackend()
        return spec
    if isinstance(spec, str):
        check_sim_backend(spec)
        if spec == "mna":
            return MNABackend()
        from repro.sim.ngspice import NgspiceBackend

        return resolve_sim_backend(NgspiceBackend(), fallback=fallback)
    raise TypeError(
        f"sim_backend must be a name from {SIM_BACKENDS} or a "
        f"SimulatorBackend instance, got {type(spec).__name__}"
    )
