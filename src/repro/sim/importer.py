"""Turn an existing SPICE deck into a sizing problem.

The paper's industrial flow starts from a hand-written netlist; this
module closes that loop for the repository: :func:`problem_from_netlist`
parses a ``.sp``/``.cir`` file once into a template
:class:`~repro.circuits.netlist.Circuit` and exposes chosen device
values — MOSFET ``W``/``L``, resistances, capacitances, source levels —
as named design variables.  Each evaluation deep-copies the template,
substitutes the design vector by name, runs the configured simulator
backend over the analysis plan, and maps the raw traces to metrics /
objective / constraints through user callables.

Variable naming
---------------

A design variable binds to a device by name (netlists are
case-insensitive):

* ``"R1"`` — the device's *natural value*: resistance, capacitance, DC
  level of a V/I source, VCVS gain, or VCCS transconductance;
* ``"M1.w"`` / ``"M1.l"`` — a named attribute; MOSFETs have no single
  natural value, so the explicit form is required for them.

Example::

    problem = problem_from_netlist(
        "divider.sp",
        variables=[DesignVariable("R1", 1e3, 1e6, "Ohm"),
                   DesignVariable("M1.w", 1e-6, 1e-4, "m")],
        analyses=[OperatingPoint()],
        measure=lambda raw: {"vout": raw.op().voltage("out")},
        objective=lambda m: (m["vout"] - 0.9) ** 2,
    )
"""

from __future__ import annotations

import copy
import os

import numpy as np

from repro.bo.problem import Evaluation
from repro.circuits.devices import (
    Capacitor,
    CurrentSource,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.circuits.mosfet import MOSFET
from repro.circuits.netlist import Circuit
from repro.circuits.spice import parse_netlist
from repro.circuits.testbenches.base import DesignVariable, SizingProblem
from repro.sim.base import OperatingPoint, _find_device

#: device type -> the attribute a bare (no-``.attr``) variable name binds to
_NATURAL_VALUE = {
    Resistor: "resistance",
    Capacitor: "capacitance",
    VoltageSource: "dc",
    CurrentSource: "dc",
    VCVS: "gain",
    VCCS: "gm",
}

#: attributes the explicit ``device.attr`` form may set, by device type
_SETTABLE = {
    Resistor: ("resistance",),
    Capacitor: ("capacitance",),
    VoltageSource: ("dc", "ac"),
    CurrentSource: ("dc", "ac"),
    VCVS: ("gain",),
    VCCS: ("gm",),
    MOSFET: ("w", "l"),
}


def _split_binding(variable_name: str) -> tuple[str, str | None]:
    device, _, attr = variable_name.partition(".")
    return device.strip(), (attr.strip().lower() or None)


def _resolve_binding(circuit: Circuit, variable_name: str) -> tuple[str, str]:
    """Validate one variable name against the template; returns the
    canonical ``(device_name, attribute)`` pair."""
    device_name, attr = _split_binding(variable_name)
    device = _find_device(circuit, device_name)
    allowed = _SETTABLE.get(type(device))
    if allowed is None:
        raise ValueError(
            f"variable {variable_name!r}: device type "
            f"{type(device).__name__} is not sizable"
        )
    if attr is None:
        attr = _NATURAL_VALUE.get(type(device))
        if attr is None:
            raise ValueError(
                f"variable {variable_name!r}: {type(device).__name__} has no "
                f"natural value; use an explicit attribute "
                f"({device.name}.w / {device.name}.l)"
            )
    if attr not in allowed:
        raise ValueError(
            f"variable {variable_name!r}: {type(device).__name__} has no "
            f"sizable attribute {attr!r} (allowed: {allowed})"
        )
    return device.name, attr


def _default_measure(raw) -> dict:
    """Fallback metrics: the first operating point's voltages/currents."""
    try:
        op = raw.op()
    except LookupError:
        return {}
    metrics = {f"v({node})": value for node, value in op.voltages.items()}
    metrics.update(
        {f"i({name})": value for name, value in op.branch_currents.items()}
    )
    return metrics


class NetlistProblem(SizingProblem):
    """Sizing problem over a parsed netlist (see module docstring).

    Parameters
    ----------
    circuit:
        Template circuit; never mutated (evaluations size a deep copy).
    variables:
        :class:`~repro.circuits.testbenches.base.DesignVariable` list
        whose names follow the binding syntax above.
    analyses:
        Analysis plan run per evaluation (default: one
        :class:`~repro.sim.base.OperatingPoint`).
    measure:
        ``measure(raw_results) -> dict`` extracting named metrics
        (default: the operating point's voltages and currents).
    objective:
        ``objective(metrics) -> float`` to minimize (default 0.0 — a
        characterization-only problem).
    constraints:
        Sequence of ``g(metrics) -> float`` callables, feasible ``< 0``.
    initial:
        Optional node -> volts seed passed to every backend run.
    failure_objective:
        Objective assigned when the simulator fails to converge.
    """

    def __init__(
        self,
        circuit: Circuit,
        variables: list[DesignVariable],
        analyses=None,
        measure=None,
        objective=None,
        constraints=(),
        initial: dict | None = None,
        name: str | None = None,
        sim_backend="mna",
        failure_objective: float = 1e6,
        cache_dir=None,
    ):
        self.template = circuit
        self.analyses = list(analyses) if analyses is not None else [OperatingPoint()]
        self._measure = measure
        self._objective = objective
        self._constraints = list(constraints)
        self.initial = dict(initial) if initial else None
        self.failure_objective = float(failure_objective)
        super().__init__(
            name or circuit.name,
            variables,
            n_constraints=len(self._constraints),
            cache_dir=cache_dir,
            sim_backend=sim_backend,
        )
        #: variable name -> (device name, attribute), validated eagerly so
        #: a bad binding fails at construction, not mid-study
        self.bindings = {
            v.name: _resolve_binding(circuit, v.name) for v in self.variables
        }

    def build_circuit(self, x: np.ndarray) -> Circuit:
        """A sized copy of the template for one design vector."""
        values = self.as_dict(x)
        sized = copy.deepcopy(self.template)
        for variable_name, value in values.items():
            device_name, attr = self.bindings[variable_name]
            setattr(_find_device(sized, device_name), attr, float(value))
        return sized

    def simulate(self, x: np.ndarray) -> dict:
        raw = self.sim_backend.run(
            self.build_circuit(x), self.analyses, initial=self.initial
        )
        if self._measure is not None:
            return dict(self._measure(raw))
        return _default_measure(raw)

    def _to_evaluation(self, metrics: dict) -> Evaluation:
        objective = 0.0 if self._objective is None else float(self._objective(metrics))
        constraints = np.array([float(g(metrics)) for g in self._constraints])
        return Evaluation(objective=objective, constraints=constraints, metrics=metrics)

    def _failure_evaluation(self) -> Evaluation:
        return Evaluation(
            objective=self.failure_objective,
            constraints=np.ones(self.n_constraints),
            metrics={},
        )


def problem_from_netlist(
    path,
    variables,
    name: str | None = None,
    **kwargs,
) -> NetlistProblem:
    """Build a :class:`NetlistProblem` from a SPICE deck on disk.

    ``variables`` may be :class:`DesignVariable` instances or
    ``(name, lower, upper)`` tuples; all other keyword arguments are
    forwarded to :class:`NetlistProblem` (``analyses``, ``measure``,
    ``objective``, ``constraints``, ``sim_backend``, ...).
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    default_name = os.path.splitext(os.path.basename(path))[0]
    circuit = parse_netlist(text, name=name or default_name)
    normalized = [
        v if isinstance(v, DesignVariable) else DesignVariable(*v)
        for v in variables
    ]
    return NetlistProblem(circuit, normalized, name=name or default_name, **kwargs)
