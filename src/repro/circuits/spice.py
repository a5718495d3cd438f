"""SPICE-subset netlist reader/writer.

The paper's flow drives HSPICE with textual netlists; this module gives the
repository the same interchange surface: circuits can be exported to a
SPICE deck (for inspection or use with a real simulator) and SPICE decks
using the supported card subset can be parsed back into
:class:`~repro.circuits.netlist.Circuit` objects.

Supported cards:

* ``R<name> n+ n- value``            — resistor
* ``C<name> n+ n- value``            — capacitor
* ``V<name> n+ n- [DC] value [AC mag]`` — voltage source
* ``I<name> n+ n- [DC] value [AC mag]`` — current source
* ``E<name> out+ out- in+ in- gain`` — VCVS
* ``G<name> out+ out- in+ in- gm``   — VCCS
* ``M<name> d g s b model W=.. L=.. [M=..]`` — MOSFET
* ``.MODEL name NMOS|PMOS (LEVEL=1 VTO=.. KP=.. LAMBDA=.. GAMMA=.. PHI=..)``
* ``*`` comments, ``+`` continuations, ``.END``, engineering suffixes
  (``k``, ``meg``, ``u``, ``n``, ``p``, ``f``, ...).

``LAMBDA`` is interpreted per SPICE Level 1 as a fixed 1/V value; when
building a :class:`MOSFETParams` we convert it to our length-normalized
``lambda_l`` using the instance L (documented in the parameter docstring).
"""

from __future__ import annotations

import re

from repro.circuits.devices import (
    Capacitor,
    CurrentSource,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.circuits.mosfet import MOSFET, MOSFETParams
from repro.circuits.netlist import Circuit
from repro.circuits.transient import pulse, sine


class SpiceError(ValueError):
    """Raised for malformed netlist input."""


_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "x": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

_NUMBER_RE = re.compile(
    r"^([+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)(meg|[tgxkmunpf])?[a-z]*$", re.IGNORECASE
)


def parse_value(token: str) -> float:
    """Parse a SPICE number with optional engineering suffix (``4.7k``)."""
    token = token.strip()
    match = _NUMBER_RE.match(token)
    if not match:
        raise SpiceError(f"cannot parse value {token!r}")
    value = float(match.group(1))
    suffix = match.group(2)
    if suffix:
        value *= _SUFFIXES[suffix.lower()]
    return value


#: vacuum permittivity x SiO2 relative permittivity [F/m]; converts the
#: model's areal gate capacitance to/from the SPICE TOX card
_EPS_OX = 3.9 * 8.854e-12


def format_value(value: float, precision: int = 6) -> str:
    """Format a number compactly for netlist output.

    The default 6 significant digits keeps decks human-readable; pass
    ``precision=17`` for machine round-trips (``%.17g`` reproduces any
    double exactly through parse -> format -> parse).
    """
    return f"{value:.{int(precision)}g}"


def _join_continuations(lines: list[str]) -> list[str]:
    joined: list[str] = []
    for raw in lines:
        line = raw.rstrip()
        if not line or line.lstrip().startswith("*"):
            continue
        # strip trailing comments
        if "$" in line:
            line = line.split("$", 1)[0].rstrip()
        if line.startswith("+"):
            if not joined:
                raise SpiceError("continuation line with nothing to continue")
            joined[-1] += " " + line[1:].strip()
        else:
            joined.append(line.strip())
    return joined


def _parse_model_card(tokens: list[str], text: str) -> tuple[str, MOSFETParams]:
    if len(tokens) < 3:
        raise SpiceError(f"malformed .MODEL card: {text!r}")
    name = tokens[1].lower()
    mtype = tokens[2].upper()
    if mtype not in ("NMOS", "PMOS"):
        raise SpiceError(f"unsupported model type {mtype!r}")
    body = text.split(None, 3)[3] if len(text.split(None, 3)) > 3 else ""
    body = body.strip().lstrip("(").rstrip(")")
    params: dict[str, float] = {}
    for assignment in re.findall(r"(\w+)\s*=\s*([^\s()]+)", body):
        params[assignment[0].lower()] = parse_value(assignment[1])
    level = params.get("level", 1)
    if int(level) != 1:
        raise SpiceError(f"only LEVEL=1 models supported, got LEVEL={level}")
    vto = abs(params.get("vto", 0.5))
    kp = params.get("kp", 1e-4)
    lam = params.get("lambda", 0.05)
    gamma = params.get("gamma", 0.45)
    phi = params.get("phi", 0.85)
    polarity = "n" if mtype == "NMOS" else "p"
    defaults = MOSFETParams(polarity=polarity, vth0=vto, kp=kp, lambda_l=lam)
    # capacitance cards: TOX encodes the areal gate capacitance, CGSO/CGDO
    # the overlap per width, CJSW the junction sidewall per width
    cox = _EPS_OX / params["tox"] if params.get("tox") else defaults.cox
    cov = params.get("cgso", params.get("cgdo", defaults.cov))
    cj_w = params.get("cjsw", defaults.cj_w)
    # our model uses lambda_l = lambda * L; store the raw SPICE lambda and
    # convert at instance time (see parse_netlist)
    model = MOSFETParams(
        polarity=polarity,
        vth0=vto,
        kp=kp,
        lambda_l=lam,  # placeholder; scaled per instance below
        gamma=gamma,
        phi=phi,
        cox=cox,
        cov=cov,
        cj_w=cj_w,
    )
    return name, model


def parse_netlist(text: str, name: str | None = None) -> Circuit:
    """Parse a SPICE deck (supported subset) into a :class:`Circuit`.

    The first line is treated as the title (SPICE convention) unless it
    looks like a card.  SPICE ``LAMBDA`` (a fixed 1/V) is converted to the
    length-normalized form of :class:`MOSFETParams` per instance:
    ``lambda_l = LAMBDA * L_instance``, which reproduces the SPICE current
    exactly for that instance.
    """
    lines = text.splitlines()
    if not lines:
        raise SpiceError("empty netlist")
    title = None
    first = lines[0].strip()
    if first and not _looks_like_card(first):
        title = first
        lines = lines[1:]
    circuit = Circuit(name or title or "spice_circuit")
    models: dict[str, MOSFETParams] = {}
    pending_mosfets: list[tuple] = []

    for line in _join_continuations(lines):
        tokens = line.split()
        card = tokens[0].lower()
        if card.startswith(".model"):
            model_name, model = _parse_model_card(tokens, line)
            models[model_name] = model
        elif card in (".end", ".ends"):
            break
        elif card.startswith("."):
            continue  # ignore other control cards (.op/.ac/.param ...)
        elif card.startswith("r"):
            _require(len(tokens) >= 4, line)
            circuit.add(
                Resistor(tokens[0], tokens[1], tokens[2], parse_value(tokens[3]))
            )
        elif card.startswith("c"):
            _require(len(tokens) >= 4, line)
            circuit.add(
                Capacitor(tokens[0], tokens[1], tokens[2], parse_value(tokens[3]))
            )
        elif card.startswith("v") or card.startswith("i"):
            cls = VoltageSource if card.startswith("v") else CurrentSource
            waveform, remainder = _parse_waveform(line)
            if waveform is not None:
                dc, ac = _parse_source_values(remainder.split()[3:], line) if (
                    len(remainder.split()) > 3
                ) else (0.0, 0.0)
                source = cls(tokens[0], tokens[1], tokens[2], dc, ac)
                source.waveform = waveform
                source.dc = waveform(0.0)  # DC analyses see the t=0 value
                circuit.add(source)
            else:
                dc, ac = _parse_source_values(tokens[3:], line)
                circuit.add(cls(tokens[0], tokens[1], tokens[2], dc, ac))
        elif card.startswith("e"):
            _require(len(tokens) >= 6, line)
            circuit.add(
                VCVS(tokens[0], *tokens[1:5], parse_value(tokens[5]))
            )
        elif card.startswith("g"):
            _require(len(tokens) >= 6, line)
            circuit.add(
                VCCS(tokens[0], *tokens[1:5], parse_value(tokens[5]))
            )
        elif card.startswith("m"):
            _require(len(tokens) >= 6, line)
            geometry = {"m": 1.0}
            for key, value in re.findall(r"(\w+)\s*=\s*([^\s]+)", line):
                geometry[key.lower()] = parse_value(value)
            if "w" not in geometry or "l" not in geometry:
                raise SpiceError(f"MOSFET card missing W= or L=: {line!r}")
            pending_mosfets.append(
                (tokens[0], tokens[1:5], tokens[5].lower(), geometry)
            )
        else:
            raise SpiceError(f"unsupported card: {line!r}")

    for mname, nodes, model_name, geometry in pending_mosfets:
        if model_name not in models:
            raise SpiceError(f"MOSFET {mname!r} references unknown model {model_name!r}")
        base = models[model_name]
        length = geometry["l"]
        params = MOSFETParams(
            polarity=base.polarity,
            vth0=base.vth0,
            kp=base.kp,
            lambda_l=base.lambda_l * length,  # SPICE lambda -> per-length form
            gamma=base.gamma,
            phi=base.phi,
            cox=base.cox,
            cov=base.cov,
            cj_w=base.cj_w,
        )
        circuit.add(
            MOSFET(
                mname, *nodes, params=params,
                w=geometry["w"], l=length, m=int(geometry.get("m", 1)),
            )
        )
    return circuit


_WAVEFORM_RE = re.compile(r"(PULSE|SIN)\s*\(([^)]*)\)", re.IGNORECASE)


def _parse_waveform(line: str):
    """Extract a SPICE ``PULSE(...)``/``SIN(...)`` transient waveform.

    Returns ``(waveform_callable | None, line_without_the_waveform)``.
    ``PULSE(v1 v2 td tr tf pw [per])`` and ``SIN(vo va freq [td])`` follow
    the standard SPICE argument orders.
    """
    match = _WAVEFORM_RE.search(line)
    if not match:
        return None, line
    kind = match.group(1).upper()
    args = [parse_value(tok) for tok in match.group(2).split()]
    if kind == "PULSE":
        if len(args) < 6:
            raise SpiceError(f"PULSE needs >= 6 arguments: {line!r}")
        v1, v2, td, tr, tf, pw = args[:6]
        period = args[6] if len(args) > 6 else None
        waveform = pulse(v1, v2, td, tr, tf, pw, period)
    else:
        if len(args) < 3:
            raise SpiceError(f"SIN needs >= 3 arguments: {line!r}")
        vo, va, freq = args[:3]
        td = args[3] if len(args) > 3 else 0.0
        waveform = sine(vo, va, freq, td)
    remainder = line[: match.start()] + line[match.end():]
    return waveform, remainder.strip()


#: minimum token counts for each element card letter
_CARD_MIN_TOKENS = {"r": 4, "c": 4, "v": 4, "i": 4, "e": 6, "g": 6, "m": 6}


def _looks_like_card(line: str) -> bool:
    """Heuristic used only on the first line (SPICE's title line).

    SPICE treats line 1 as a free-text title; many machine-written decks
    start directly with a card instead.  A line counts as a card when it
    starts with a comment/control/continuation marker or with a known
    element letter *and* carries enough tokens to be well-formed — so
    ``"my amplifier title"`` stays a title even though it starts with 'm'.
    """
    stripped = line.strip()
    if not stripped:
        return False
    if stripped[0] in "*+.":
        return True
    letter = stripped[0].lower()
    if letter not in _CARD_MIN_TOKENS:
        return False
    tokens = stripped.split()
    if len(tokens) < _CARD_MIN_TOKENS[letter]:
        return False
    if letter == "m":
        lowered = stripped.lower()
        return "w=" in lowered and "l=" in lowered
    # element cards carry a numeric value in a known position
    value_pos = _CARD_MIN_TOKENS[letter] - 1
    candidates = [tokens[value_pos]]
    if letter in ("v", "i"):
        if _WAVEFORM_RE.search(stripped):
            return True
        candidates.extend(t for t in tokens[3:] if t.lower() not in ("dc", "ac"))
    for token in candidates:
        try:
            parse_value(token)
            return True
        except SpiceError:
            continue
    return False


def _parse_source_values(tokens: list[str], line: str) -> tuple[float, float]:
    dc, ac = 0.0, 0.0
    i = 0
    seen_value = False
    while i < len(tokens):
        token = tokens[i].lower()
        if token == "dc":
            _require(i + 1 < len(tokens), line)
            dc = parse_value(tokens[i + 1])
            seen_value = True
            i += 2
        elif token == "ac":
            _require(i + 1 < len(tokens), line)
            ac = parse_value(tokens[i + 1])
            i += 2
        else:
            dc = parse_value(tokens[i])
            seen_value = True
            i += 1
    if not seen_value and ac == 0.0:
        raise SpiceError(f"source card without value: {line!r}")
    return dc, ac


def _require(condition: bool, line: str):
    if not condition:
        raise SpiceError(f"malformed card: {line!r}")


def write_netlist(
    circuit: Circuit, title: str | None = None, precision: int = 6
) -> str:
    """Serialize a circuit to a SPICE deck (round-trips with
    :func:`parse_netlist` for the supported device set).

    MOSFET models are emitted per instance (``.MODEL mod_<name>``) because
    our parameter sets are per-device after corner adjustment; the model
    cards carry the capacitance parameters (TOX/CGSO/CGDO/CJSW) so AC
    behavior round-trips, not just the DC equations.  ``precision`` is the
    significant-digit count of every number (6 for readable decks, 17 for
    exact machine round-trips).

    SPICE dispatches on a card's first letter, but our circuits allow
    free-form device names (bias blocks generate ``bn_m1``-style MOSFETs);
    such names get the canonical type letter prefixed (``Mbn_m1``) so the
    deck is legal for :func:`parse_netlist` and real simulators alike.
    Prefixed names are already canonical on re-parse, so a deck reaches a
    textual fixpoint after a single write/parse round trip.
    """

    def fmt(value: float) -> str:
        return format_value(value, precision)

    emitted: set[str] = set()

    def card_name(device, letter: str) -> str:
        name = device.name
        if not name.lower().startswith(letter):
            name = letter.upper() + name
        if name.lower() in emitted:
            raise SpiceError(
                f"cannot serialize circuit {circuit.name!r}: device name "
                f"{device.name!r} collides with another card named {name!r}"
            )
        emitted.add(name.lower())
        return name

    lines = [title or f"* {circuit.name}"]
    model_cards: list[str] = []
    for device in circuit.devices:
        if isinstance(device, Resistor):
            a, b = device.nodes
            lines.append(f"{card_name(device, 'r')} {a} {b} {fmt(device.resistance)}")
        elif isinstance(device, Capacitor):
            a, b = device.nodes
            lines.append(f"{card_name(device, 'c')} {a} {b} {fmt(device.capacitance)}")
        elif isinstance(device, VoltageSource) or isinstance(device, CurrentSource):
            a, b = device.nodes
            letter = "v" if isinstance(device, VoltageSource) else "i"
            card = f"{card_name(device, letter)} {a} {b} DC {fmt(device.dc)}"
            if device.ac:
                card += f" AC {fmt(device.ac)}"
            lines.append(card)
        elif isinstance(device, VCVS):
            lines.append(
                f"{card_name(device, 'e')} {' '.join(device.nodes)} {fmt(device.gain)}"
            )
        elif isinstance(device, VCCS):
            lines.append(
                f"{card_name(device, 'g')} {' '.join(device.nodes)} {fmt(device.gm)}"
            )
        elif isinstance(device, MOSFET):
            name = card_name(device, "m")
            model_name = f"mod_{name.lower()}"
            p = device.params
            mtype = "NMOS" if p.polarity == "n" else "PMOS"
            spice_lambda = p.lambda_l / device.l
            model_cards.append(
                f".MODEL {model_name} {mtype} (LEVEL=1 VTO={fmt(p.vth0)} "
                f"KP={fmt(p.kp)} LAMBDA={fmt(spice_lambda)} "
                f"GAMMA={fmt(p.gamma)} PHI={fmt(p.phi)} "
                f"TOX={fmt(_EPS_OX / p.cox)} "
                f"CGSO={fmt(p.cov)} CGDO={fmt(p.cov)} CJSW={fmt(p.cj_w)})"
            )
            lines.append(
                f"{name} {' '.join(device.nodes)} {model_name} "
                f"W={fmt(device.w)} L={fmt(device.l)} M={device.m}"
            )
        else:
            raise SpiceError(f"cannot serialize device type {type(device).__name__}")
    lines.extend(model_cards)
    lines.append(".END")
    return "\n".join(lines) + "\n"
