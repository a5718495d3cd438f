"""Level-1+ MOSFET model: square law with channel-length modulation, body
effect and overlap/junction capacitances.

Why Level 1 is the right fidelity here: the sizing trade-offs the paper's
optimizer must navigate — gm vs. bias current, output conductance vs.
channel length (lambda ~ 1/L), mirror matching vs. V_DS imbalance,
pole/zero placement vs. device capacitance — are all first-order phenomena
that the square-law model reproduces.  The optimizers only ever see the
simulated performances, so any model with those couplings yields the same
*algorithmic* comparison as a foundry PDK.

Conventions: a single evaluation routine computes the drain current of an
NMOS-convention device; PMOS is the exact sign mirror (all terminal
voltages and the current negated), and drain/source swap (``v_ds < 0``
during Newton iterations) is handled symmetrically.  The evaluation
returns the current *and* its four partial derivatives w.r.t. the terminal
voltages, which is precisely what the MNA companion stamp needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuits.pvt import ProcessCorner

_TEMP_REF_K = 300.15  # 27 C
_VTH_TEMP_COEFF = -2e-3  # V/K
_MOBILITY_TEMP_EXP = -1.5


@dataclass(frozen=True)
class MOSFETParams:
    """Process parameters of one device polarity.

    All values use NMOS sign conventions and SI units; PMOS devices share
    the same (positive) ``vth0`` magnitude through the sign mirror.

    Attributes
    ----------
    polarity:
        ``"n"`` or ``"p"``.
    vth0:
        Zero-bias threshold voltage magnitude [V].
    kp:
        Transconductance parameter ``mu * Cox`` [A/V^2].
    lambda_l:
        Channel-length-modulation coefficient normalized by length [m/V]:
        ``lambda = lambda_l / L``, so longer channels give flatter
        saturation currents (the knob behind mirror-matching physics).
    gamma:
        Body-effect coefficient [V^0.5].
    phi:
        Surface potential ``2 phi_F`` [V].
    cox:
        Gate-oxide capacitance per area [F/m^2].
    cov:
        Gate overlap capacitance per width [F/m].
    cj_w:
        Junction capacitance of drain/source per width [F/m].
    """

    polarity: str
    vth0: float
    kp: float
    lambda_l: float
    gamma: float = 0.45
    phi: float = 0.85
    cox: float = 8.5e-3
    cov: float = 3.0e-10
    cj_w: float = 5.0e-10

    def __post_init__(self):
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        if self.vth0 <= 0 or self.kp <= 0:
            raise ValueError("vth0 and kp magnitudes must be positive")
        if self.lambda_l < 0 or self.gamma < 0 or self.phi <= 0:
            raise ValueError("lambda_l/gamma must be >= 0 and phi > 0")

    def at_temperature(self, temp_k: float) -> "MOSFETParams":
        """Parameters shifted to junction temperature ``temp_k``."""
        if temp_k <= 0:
            raise ValueError(f"temperature must be positive Kelvin, got {temp_k}")
        vth = self.vth0 + _VTH_TEMP_COEFF * (temp_k - _TEMP_REF_K)
        kp = self.kp * (temp_k / _TEMP_REF_K) ** _MOBILITY_TEMP_EXP
        return replace(self, vth0=max(vth, 0.05), kp=kp)

    def at_process(self, corner: ProcessCorner) -> "MOSFETParams":
        """Parameters shifted to a process corner."""
        if self.polarity == "n":
            shift, scale = corner.nmos_vth_shift, corner.nmos_kp_scale
        else:
            shift, scale = corner.pmos_vth_shift, corner.pmos_kp_scale
        return replace(self, vth0=max(self.vth0 + shift, 0.05), kp=self.kp * scale)

    def at_corner(self, corner: ProcessCorner, temp_k: float) -> "MOSFETParams":
        """Process shift then temperature shift (order is immaterial here)."""
        return self.at_process(corner).at_temperature(temp_k)


# Generic parameter sets loosely patterned on 180 nm and 40 nm nodes.
nmos_180 = MOSFETParams("n", vth0=0.45, kp=3.0e-4, lambda_l=5.0e-8)
pmos_180 = MOSFETParams("p", vth0=0.45, kp=8.0e-5, lambda_l=6.0e-8, gamma=0.4)
nmos_040 = MOSFETParams("n", vth0=0.40, kp=4.5e-4, lambda_l=6.0e-8, phi=0.8)
pmos_040 = MOSFETParams("p", vth0=0.40, kp=1.8e-4, lambda_l=7.0e-8, phi=0.8)


#: operating-region names, indexed by the model's integer region codes
REGIONS = ("cutoff", "triode", "saturation")


@dataclass
class MOSOperatingPoint:
    """Bias-point summary of one device (NMOS-convention voltages)."""

    ids: float
    vgs: float
    vds: float
    vsb: float
    vov: float
    gm: float
    gds: float
    gmb: float
    region: str  # "cutoff" | "triode" | "saturation"

    @classmethod
    def from_model(cls, ids, op: dict, k=()) -> "MOSOperatingPoint":
        """One device's bias point from :func:`mos_model` output (``k``
        indexes the device in batched arrays)."""
        return cls(
            float(np.asarray(ids)[k]),
            *(float(np.asarray(op[name])[k])
              for name in ("vgs", "vds", "vsb", "vov", "gm", "gds", "gmb")),
            REGIONS[int(np.asarray(op["region"])[k])],
        )


def mos_model(volts, vth0, beta, lam, gamma, phi, sign):
    """Drain current ``I(d->s)`` and its terminal partials, elementwise.

    ``volts`` stacks the terminal voltages ``(vd, vg, vs, vb)`` on its
    first axis; the other arguments broadcast against each of them: the
    per-device parameters ``beta = m kp W / L``,
    ``lam = lambda_l / L`` and ``sign`` (+1 NMOS, -1 PMOS).  A PMOS is the
    sign mirror of an NMOS, ``I_p(v) = -I_n(-v)``, whose partials equal
    the NMOS partials at the negated voltages.  Drain/source swap
    (``v_ds < 0`` during Newton iterations) evaluates the square law from
    the physical source, so the model is defined and continuous for any
    terminal voltages.

    Returns ``(ids, g_d, g_g, g_s, g_b, op)`` where ``op`` holds the
    NMOS-convention bias point ``vgs, vds, vsb, vov, gm, gds, gmb`` and the
    ``region`` code (an index into :data:`REGIONS`).  Only IEEE ``+ - * /``
    and ``sqrt`` are used, each in the order of the scalar square law, so
    a batched evaluation equals the one-device evaluation bit for bit.
    """
    with np.errstate(all="ignore"):
        vd, vg, vs, vb = volts * sign
        fwd = vd >= vs
        src = np.where(fwd, vs, vd)
        vgs = vg - src
        vds = np.where(fwd, vd, vs) - src
        vsb = src - vb
        # square law from the physical source (requires vds >= 0)
        sqrt_body = np.sqrt(np.maximum(phi + vsb, 0.05))
        vth = vth0 + gamma * (sqrt_body - np.sqrt(phi))
        vov = vgs - vth
        on = ~(vov <= 0.0)
        clm = 1.0 + lam * vds
        triode = vds < vov
        core = vov * vds - 0.5 * vds * vds
        half = 0.5 * beta * vov * vov
        ids = np.where(triode, beta * core * clm, half * clm)
        gm = np.where(triode, beta * vds * clm, beta * vov * clm)
        gds = np.where(triode, beta * ((vov - vds) * clm + core * lam), half * lam)
        gmb = gm * gamma / (2.0 * sqrt_body)
        ids, gm, gds, gmb = (np.where(on, q, 0.0) for q in (ids, gm, gds, gmb))
        # I = F(vgs, vds, vsb) translated to terminal partials; swapped,
        # the reverse current is I(d->s) = -F(vg - vd, vs - vd, vd - vb).
        # Multiplying by +-1 only flips signs, so it is exact.
        flip = np.where(fwd, 1.0, -1.0)
        op = {
            "vgs": vgs,
            "vds": vds * flip,
            "vsb": vsb,
            "vov": vov,
            "gm": gm,
            "gds": gds,
            "gmb": gmb,
            "region": np.where(on, np.where(triode, 1, 2), 0),
        }
        total = gm + gds + gmb
        g_d = np.where(fwd, gds, total)
        g_s = -np.where(fwd, total, gds)
        ids = ids * (flip * sign)
    return ids, g_d, gm * flip, g_s, gmb * flip, op


class MOSFET:
    """Four-terminal MOSFET netlist element.

    Parameters
    ----------
    name:
        Instance name (``"M1"``).
    drain, gate, source, bulk:
        Node names.
    params:
        :class:`MOSFETParams` (already corner/temperature adjusted by the
        testbench if applicable).
    w, l:
        Channel width and length [m].
    m:
        Parallel multiplier.
    """

    n_branches = 0

    def __init__(self, name, drain, gate, source, bulk, params: MOSFETParams, w, l, m=1):
        if w <= 0 or l <= 0:
            raise ValueError(f"{name}: W and L must be positive, got {w}, {l}")
        if m < 1:
            raise ValueError(f"{name}: multiplier must be >= 1, got {m}")
        self.name = str(name)
        self.nodes = (str(drain), str(gate), str(source), str(bulk))
        self.params = params
        self.w = float(w)
        self.l = float(l)
        self.m = int(m)
        self.node_idx: tuple[int, ...] = ()
        self.last_op: MOSOperatingPoint | None = None

    # -- electrical evaluation ---------------------------------------------------

    @property
    def beta(self) -> float:
        """Effective transconductance factor ``m * kp * W / L``."""
        return self.m * self.params.kp * self.w / self.l

    @property
    def lam(self) -> float:
        """Channel-length modulation ``lambda = lambda_l / L`` [1/V]."""
        return self.params.lambda_l / self.l

    def model_params(self) -> tuple:
        """``(vth0, beta, lam, gamma, phi, sign)`` for :func:`mos_model`."""
        p = self.params
        sign = 1.0 if p.polarity == "n" else -1.0
        return p.vth0, self.beta, self.lam, p.gamma, p.phi, sign

    def capacitances(self) -> tuple[float, float, float]:
        """``(gate area cap, overlap cap, junction cap)`` of the device [F]."""
        p = self.params
        area_cap = p.cox * self.w * self.l * self.m
        return area_cap, p.cov * self.w * self.m, p.cj_w * self.w * self.m

    def evaluate(self, vd, vg, vs, vb):
        """Drain-to-source current and terminal partials at a bias point.

        A one-device :func:`mos_model` call; the bias point is kept in
        :attr:`last_op`.
        """
        ids, g_d, g_g, g_s, g_b, op = mos_model(
            np.array([vd, vg, vs, vb], dtype=float), *self.model_params()
        )
        self.last_op = MOSOperatingPoint.from_model(ids, op)
        return float(ids), float(g_d), float(g_g), float(g_s), float(g_b)

    # -- netlist ------------------------------------------------------------------

    def assign_nodes(self, index_of):
        """Resolve node names to MNA indices (called by the circuit)."""
        self.node_idx = tuple(index_of(n) for n in self.nodes)

    def __repr__(self) -> str:
        w_um, l_um = self.w * 1e6, self.l * 1e6
        return (
            f"MOSFET({self.name}, {self.params.polarity}mos, "
            f"W={w_um:.3g}u, L={l_um:.3g}u, m={self.m})"
        )
