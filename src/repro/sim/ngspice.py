"""External ``ngspice`` backend: deck out, subprocess, rawfile back in.

The run protocol follows the editor/runner split of the SPICE tooling
ecosystem: :func:`~repro.circuits.spice.write_netlist` serializes the
circuit, this module appends ``.NODESET`` seeds plus a ``.control``
section (one interactive command per analysis, each followed by a
``write`` so plot order matches plan order), and ``ngspice -b`` executes
the deck in batch mode.  The ASCII rawfile is parsed by
:mod:`repro.sim.rawfile` and normalized into the same
:class:`~repro.sim.base.RawResults` the MNA backend produces.

Failure containment, in order:

* no binary on PATH -> :class:`~repro.sim.base.SimulatorNotAvailable`
  (which :func:`~repro.sim.base.resolve_sim_backend` turns into a single
  warning + MNA fallback);
* hung process -> killed at ``timeout`` seconds;
* crash / empty / unparseable output -> retried once (``retries``), then
  :class:`~repro.sim.base.SimulationError` — a
  :class:`~repro.circuits.dc.ConvergenceError` subclass, so sizing
  problems score the design with the usual finite penalty.

Numerical caveat: ngspice's LEVEL=1 device model is not bit-compatible
with our Level-1+ model (body-effect and capacitance details differ), so
only the MNA backend is pinned bitwise; ngspice results are *physically*
comparable, not numerically identical.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import tempfile

import numpy as np

from repro.circuits.netlist import Circuit, is_ground
from repro.circuits.spice import format_value, write_netlist
from repro.sim.base import (
    ACSweep,
    ACSweepResult,
    DCTransferSweep,
    DCTransferSweepResult,
    OperatingPoint,
    OperatingPointResult,
    RawResults,
    SimulationError,
    SimulatorBackend,
    SimulatorNotAvailable,
)
from repro.sim.rawfile import RawfileError, RawPlot, parse_rawfile

_VECTOR_RE = re.compile(r"^([vi])\((.+)\)$")


def _normalize_vector(name: str) -> tuple[str, str]:
    """Map a rawfile vector name to ``(kind, bare_name)``.

    ngspice writes node voltages as ``v(out)`` or plain ``out`` and
    source currents as ``vdd#branch`` or ``i(vdd)``; everything is
    lowercased by the simulator.
    """
    name = name.strip().lower()
    match = _VECTOR_RE.match(name)
    if match:
        return match.group(1), match.group(2)
    if name.endswith("#branch"):
        return "i", name[: -len("#branch")]
    return "v", name


class NgspiceBackend(SimulatorBackend):
    """Subprocess backend around ``ngspice -b``.

    Parameters
    ----------
    binary:
        Executable name/path, or an argv prefix sequence (the test stub
        uses ``[sys.executable, "fake_ngspice.py"]``).
    timeout:
        Wall-clock seconds per process invocation; expiry kills the
        process and counts as a failed attempt.
    retries:
        Extra attempts after a failed run (crash/timeout/garbage).
    keep_files:
        Keep each run's deck/raw/log directory for inspection (the path
        of the last run is ``last_workdir``).
    """

    name = "ngspice"

    def __init__(
        self,
        binary="ngspice",
        timeout: float = 60.0,
        retries: int = 1,
        keep_files: bool = False,
    ):
        if isinstance(binary, (str, os.PathLike)):
            self.command = [str(binary)]
        else:
            self.command = [str(part) for part in binary]
        if not self.command:
            raise ValueError("binary must name an executable")
        # the subprocess runs with cwd=workdir, so a relative script path
        # ("./ngspice", a test stub) must be pinned down now
        self.command = [
            os.path.abspath(part) if os.path.isfile(part) else part
            for part in self.command
        ]
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.keep_files = bool(keep_files)
        self.last_workdir: str | None = None
        self.n_runs = 0
        self.n_retries = 0
        self._version: str | None = None

    # -- availability / identity ----------------------------------------------------

    def is_available(self) -> bool:
        executable = self.command[0]
        return shutil.which(executable) is not None or os.path.isfile(executable)

    def ensure_available(self) -> None:
        if not self.is_available():
            raise SimulatorNotAvailable(self.name, self.command[0])

    @property
    def version(self) -> str:
        """First line of ``ngspice --version`` (cached; ``"unknown"`` when
        the binary refuses to talk)."""
        if self._version is None:
            version = "unknown"
            if self.is_available():
                try:
                    proc = subprocess.run(
                        self.command + ["--version"],
                        capture_output=True,
                        text=True,
                        timeout=min(self.timeout, 15.0),
                    )
                    for line in proc.stdout.splitlines():
                        stripped = line.strip().strip("*").strip()
                        if stripped:
                            version = stripped
                            break
                except (OSError, subprocess.SubprocessError):
                    version = "unknown"
            self._version = version
        return self._version

    # -- deck construction -----------------------------------------------------------

    def _analysis_command(self, spec) -> str:
        if isinstance(spec, OperatingPoint):
            return "op"
        if isinstance(spec, ACSweep):
            freqs = spec.grid()
            if freqs.size < 2:
                raise SimulationError("ngspice AC sweep needs at least two frequencies")
            f_start, f_stop = float(freqs[0]), float(freqs[-1])
            decades = np.log10(f_stop / f_start)
            points_per_decade = max(1, int(round((freqs.size - 1) / decades)))
            return (
                f"ac dec {points_per_decade} "
                f"{format_value(f_start)} {format_value(f_stop)}"
            )
        if isinstance(spec, DCTransferSweep):
            values = spec.grid()
            if values.size < 2:
                raise SimulationError("ngspice DC sweep needs at least two points")
            step = (values[-1] - values[0]) / (values.size - 1)
            uniform = np.linspace(values[0], values[-1], values.size)
            if step == 0 or not np.allclose(values, uniform, rtol=1e-9, atol=0.0):
                raise SimulationError(
                    "ngspice .DC sweeps must be uniform; got a non-uniform grid "
                    f"for source {spec.source!r}"
                )
            return (
                f"dc {spec.source} {format_value(float(values[0]))} "
                f"{format_value(float(values[-1]))} {format_value(float(step))}"
            )
        raise TypeError(f"unsupported analysis spec {type(spec).__name__}")

    def build_deck(
        self, circuit: Circuit, analyses, initial: dict | None, raw_path: str
    ) -> str:
        """The full batch deck: netlist + nodesets + per-analysis control."""
        netlist = write_netlist(circuit)
        body = netlist[: netlist.rfind(".END")].rstrip("\n")
        lines = [body]
        seed = dict(initial or {})
        for spec in analyses:
            if isinstance(spec, (OperatingPoint, DCTransferSweep)) and spec.initial:
                seed.update(spec.initial)
        for node, volts in seed.items():
            if not is_ground(node):
                lines.append(f".NODESET V({node})={format_value(float(volts))}")
        lines.append(".control")
        lines.append("set filetype=ascii")
        lines.append("set appendwrite")
        for spec in analyses:
            lines.append(self._analysis_command(spec))
            lines.append(f"write {raw_path}")
        lines.append("quit 0")
        lines.append(".endc")
        lines.append(".END")
        return "\n".join(lines) + "\n"

    # -- execution --------------------------------------------------------------------

    def run(self, circuit, analyses, initial: dict | None = None):
        if isinstance(circuit, (list, tuple)):
            # a batch runs one deck per circuit, exactly as run one by one
            return [self.run(c, plan, initial) for c, plan in zip(circuit, analyses)]
        self.ensure_available()
        analyses = list(analyses)
        if not analyses:
            raise ValueError("analysis plan is empty")
        workdir = tempfile.mkdtemp(prefix="repro-ngspice-")
        self.last_workdir = workdir
        deck_path = os.path.join(workdir, "deck.cir")
        raw_path = os.path.join(workdir, "out.raw")
        log_path = os.path.join(workdir, "out.log")
        with open(deck_path, "w", encoding="utf-8") as fh:
            fh.write(self.build_deck(circuit, analyses, initial, raw_path))
        try:
            failure = "did not run"
            for attempt in range(self.retries + 1):
                if attempt:
                    self.n_retries += 1
                if os.path.exists(raw_path):
                    os.remove(raw_path)  # never parse a stale attempt
                self.n_runs += 1
                try:
                    proc = subprocess.run(
                        self.command + ["-b", "-o", log_path, deck_path],
                        capture_output=True,
                        text=True,
                        timeout=self.timeout,
                        cwd=workdir,
                    )
                except subprocess.TimeoutExpired:
                    failure = f"timed out after {self.timeout:g}s (process killed)"
                    continue
                except OSError as exc:
                    failure = f"could not execute {self.command[0]!r}: {exc}"
                    continue
                if proc.returncode != 0:
                    failure = (
                        f"exited with status {proc.returncode}"
                        f"{self._log_tail(log_path)}"
                    )
                    continue
                try:
                    plots = self._read_plots(raw_path, len(analyses))
                except (OSError, RawfileError) as exc:
                    failure = f"unusable rawfile: {exc}"
                    continue
                results = [
                    self._convert(circuit, spec, plot)
                    for spec, plot in zip(analyses, plots)
                ]
                return RawResults(backend=self.name, results=results)
            raise SimulationError(
                f"ngspice run of {circuit.name!r} failed after "
                f"{self.retries + 1} attempt(s): {failure}"
            )
        finally:
            if not self.keep_files:
                shutil.rmtree(workdir, ignore_errors=True)
                self.last_workdir = None

    def _log_tail(self, log_path: str, n_lines: int = 5) -> str:
        try:
            with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
                tail = [line.rstrip() for line in fh.readlines()[-n_lines:]]
        except OSError:
            return ""
        return f"; log tail: {' | '.join(tail)}" if tail else ""

    def _read_plots(self, raw_path: str, n_expected: int) -> list[RawPlot]:
        with open(raw_path, "r", encoding="utf-8", errors="replace") as fh:
            plots = parse_rawfile(fh.read())
        if len(plots) != n_expected:
            raise RawfileError(
                f"expected {n_expected} plot(s), rawfile holds {len(plots)}"
            )
        return plots

    # -- result normalization -----------------------------------------------------------

    def _convert(self, circuit: Circuit, spec, plot: RawPlot):
        circuit.finalize()
        node_names = {n.lower(): n for n in circuit.node_names}
        device_names = {d.name.lower(): d.name for d in circuit.devices}

        def split_columns(point=None):
            voltages: dict = {}
            currents: dict = {}
            for idx, (vec_name, _kind) in enumerate(plot.variables):
                kind, bare = _normalize_vector(vec_name)
                column = plot.column(idx) if point is None else plot.data[point, idx]
                if kind == "i" and bare in device_names:
                    currents[device_names[bare]] = column
                elif kind == "v" and bare in node_names:
                    voltages[node_names[bare]] = column
                # vectors that match nothing in the circuit (sweep scales,
                # internal nodes of ngspice device models) are dropped
            return voltages, currents

        if isinstance(spec, OperatingPoint):
            if plot.data.shape[0] != 1:
                raise SimulationError(
                    f"operating-point plot has {plot.data.shape[0]} points"
                )
            voltages, currents = split_columns(point=0)
            return OperatingPointResult(
                voltages={k: float(np.real(v)) for k, v in voltages.items()},
                branch_currents={k: float(np.real(v)) for k, v in currents.items()},
                regions={},
            )
        if isinstance(spec, ACSweep):
            freqs = np.real(plot.column(0)).astype(float)
            voltages, currents = split_columns()
            return ACSweepResult(
                freqs=freqs,
                voltages={k: np.asarray(v, dtype=complex) for k, v in voltages.items()},
                branch_currents={
                    k: np.asarray(v, dtype=complex) for k, v in currents.items()
                },
            )
        if isinstance(spec, DCTransferSweep):
            values = np.real(plot.column(0)).astype(float)
            voltages, currents = split_columns()
            return DCTransferSweepResult(
                source=spec.source,
                values=values,
                voltages={
                    k: np.real(v).astype(float) for k, v in voltages.items()
                },
                branch_currents={
                    k: np.real(v).astype(float) for k, v in currents.items()
                },
            )
        raise TypeError(f"unsupported analysis spec {type(spec).__name__}")
