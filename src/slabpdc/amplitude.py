"""Biphoton amplitudes and coincidence rates for a nonlinear slab.

The two-photon detection amplitude A_{lambda mu} for down-conversion in a
planar crystal is a 2x2 complex matrix over the transverse polarizations of
the signal and idler detectors. Each matrix element is a transverse
wave-vector integral: the pump drives the slab as a normal-incidence plane
wave, and every down-converted plane-wave pair (k_perp for the signal,
-k_perp for the idler) propagates to its detector through the layered-slab
Green function. The z integral across the slab thickness has already been
done analytically and appears as L sinc(dk L/2) exp(i sk L/2) with

    dk = k_p - k_zs - k_zi        (longitudinal mismatch)
    sk = k_p + k_zs + k_zi        (longitudinal sum)

in terms of in-crystal longitudinal components. Everything else about the
slab (entry/exit transmission, internal multiple scattering, the back-face
interference loop) is collected in the X factors built from the Fresnel
sets of materials.py.

Geometry and units
------------------
SI throughout. The slab occupies z in [-L/2, +L/2]; the pump arrives from
z < -L/2, detectors sit at z_signal, z_idler > +L/2 on the transmission
side, separated transversely by ``offset`` = rho_signal - rho_idler.
Frequencies satisfy omega_signal + omega_idler = omega_pump exactly.

Polarization bookkeeping
------------------------
For a plane wave with transverse wave vector u = kappa (cos phi, sin phi)
and upward longitudinal component k_z, the unit field legs are

    TE:  s(u)      = (sin phi, -cos phi, 0)
    TM:  p(u, k_z) = (1/k) (-k_z cos phi, -k_z sin phi, kappa)

The signal Green function carries its detector and source legs at +u, the
idler at -u; for each polarization channel the detector and source legs of
one Green function are the same vector, which is what makes every term of
the angular average land with a plus sign. The chi2 pattern (identity for
pattern "I", exchange for pattern "II") contracts the two source legs; the
two detector legs form the dyad that becomes A_{lambda mu}. Only transverse
components enter either contraction.

Integration strategy
--------------------
Only the sector propagating in vacuum (kappa < min(q_s, q_i)) reaches the
detectors; evanescent contributions die over macroscopic z gaps well below
double precision. The substitution kappa = kappa_max sin(theta) removes the
1/q_z endpoint behaviour. The detector phase Psi = z_s q_zs + z_i q_zi
oscillates ~q z / 2 pi times over the disc, so the radial integral keeps an
exact head of K phase cycles (Gauss-Kronrod panels sized to the local phase
rate) and closes the tail with a three-term integration-by-parts series in
1/(i Psi'), with the series ratio monitored and K escalated if the closure
is not clearly converging.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .greens import Chi2Geometry
from .materials import (C_LIGHT, EPS0, HBAR, TE, TEM, TM, CrystalSlab,
                        branch_sqrt, fresnel, kinematics, noise_factor)
from .quadrature import (ConvergenceError, QuadratureSpec, integrate_angular,
                         integrate_radial)

__all__ = [
    "ExperimentConfig",
    "PhaseMatch",
    "BiphotonAmplitude",
    "phase_terms",
    "complex_sinc",
    "sinc_profile",
    "x_factor",
    "integrand_typeI",
    "integrand_typeII",
    "amplitude_numeric",
    "amplitude_farfield",
    "rate",
]

_TWO_PI = 2.0 * np.pi

# Radial-engine policy knobs. KEPT_CYCLES detector-phase cycles are
# integrated exactly before handing over to the integration-by-parts tail;
# the ratio monitor escalates K by 4 up to the cap, and a full-range sweep
# is only attempted when it costs fewer than FULL_RANGE_CYCLES panels' worth
# of oscillation.
_KEPT_CYCLES = 512
_KEPT_CYCLES_MAX = 8192
_FULL_RANGE_CYCLES = 2.0e4
_TAIL_RATIO_LIMIT = 0.1
_PANEL_CYCLES = 0.75          # GK15 panels per detector-phase cycle


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one coincidence measurement.

    pump_field is the incident vacuum amplitude E_p [V/m] of the pump at
    pump_frequency [rad/s], entering from pump_z <= -L/2. signal/idler
    frequencies must add up to the pump frequency (defaults split it
    evenly). Detectors sit on the transmission side at z_signal, z_idler
    [m], displaced transversely by offset = rho_signal - rho_idler [m].
    """

    crystal: CrystalSlab
    chi2: Chi2Geometry
    pump_field: float
    pump_frequency: float
    z_signal: float
    z_idler: float
    signal_frequency: float | None = None
    idler_frequency: float | None = None
    pump_z: float | None = None
    offset: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.pump_field <= 0:
            raise ValueError("pump_field must be positive")
        if self.pump_frequency <= 0:
            raise ValueError("pump_frequency must be positive")
        half = 0.5 * self.crystal.length
        if self.signal_frequency is None and self.idler_frequency is None:
            object.__setattr__(self, "signal_frequency",
                               0.5 * self.pump_frequency)
            object.__setattr__(self, "idler_frequency",
                               0.5 * self.pump_frequency)
        elif self.signal_frequency is None or self.idler_frequency is None:
            raise ValueError("give both split frequencies or neither")
        if self.signal_frequency <= 0 or self.idler_frequency <= 0:
            raise ValueError("split frequencies must be positive")
        mismatch = abs(self.signal_frequency + self.idler_frequency
                       - self.pump_frequency)
        if mismatch > 1e-12 * self.pump_frequency:
            raise ValueError(
                "energy conservation violated: signal + idler differs from "
                f"the pump frequency by {mismatch:.3e} rad/s")
        if self.pump_z is None:
            object.__setattr__(self, "pump_z", -half)
        elif self.pump_z > -half:
            raise ValueError("pump_z must lie on the incidence side, "
                             "z <= -L/2")
        if self.z_signal <= half or self.z_idler <= half:
            raise ValueError("detectors must sit beyond the exit face, "
                             "z > +L/2")
        off = (float(self.offset[0]), float(self.offset[1]))
        object.__setattr__(self, "offset", off)

    @property
    def degenerate(self):
        return abs(self.signal_frequency - self.idler_frequency) \
            <= 1e-12 * self.pump_frequency

    @property
    def collinear(self):
        return self.offset == (0.0, 0.0)


@dataclass(frozen=True)
class PhaseMatch:
    """Longitudinal phase mismatch and phase sum, both complex [1/m]."""

    delta_k: complex
    sigma_k: complex


@dataclass(frozen=True)
class BiphotonAmplitude:
    """2x2 amplitude matrix over detector polarizations, with its rate."""

    matrix: np.ndarray
    rate: float

    @classmethod
    def from_matrix(cls, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("amplitude matrix must be 2x2")
        return cls(matrix=m, rate=float(np.sum(np.abs(m) ** 2)))


def rate(amp):
    """Coincidence count rate R = sum_{lambda mu} |A_{lambda mu}|^2."""
    return float(np.sum(np.abs(np.asarray(amp.matrix)) ** 2))


# ---------------------------------------------------------------------------
# Phase matching and slab factors
# ---------------------------------------------------------------------------

def phase_terms(kin_s, kin_i, kin_p):
    """PhaseMatch from the three in-crystal kinematics.

    The pump is expected at k_perp = 0 (its k_z is then the full wave
    number) and signal/idler at opposite transverse vectors, so all three
    share one transverse sector.
    """
    return PhaseMatch(delta_k=kin_p.k_z - kin_s.k_z - kin_i.k_z,
                      sigma_k=kin_p.k_z + kin_s.k_z + kin_i.k_z)


def complex_sinc(w):
    """sin(w)/w continued over the complex plane, 1 - w^2/6 near zero."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-8
    safe = np.where(small, 1.0, w)
    out = np.where(small, 1.0 - w * w / 6.0, np.sin(safe) / safe)
    return complex(out) if out.ndim == 0 else out


def sinc_profile(pm, length):
    """Longitudinal matching efficiency |sinc(dk L/2)|^2 |e^{i sk L/2}|^2.

    Real by construction. With absorption the mismatch dk acquires an
    imaginary part and the sinc minima lift off zero; if the imaginary
    parts of the pump and split-mode wave numbers cancel in dk, the minima
    return to zero while the overall e^{-Im(sk) L} decay remains.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    w = 0.5 * pm.delta_k * length
    envelope = np.exp(0.5j * pm.sigma_k * length)
    val = np.abs(complex_sinc(w)) ** 2 * np.abs(envelope) ** 2
    return float(val) if np.ndim(val) == 0 else val


def x_factor(sigma_s, sigma_i, fres_pump, fres_s, fres_i, sigma_k, length):
    """Slab transfer factor for one polarization channel pair.

    X = t_pump t_s t_i M_pump M_s M_i (1 + r_pump r_s r_i e^{i sk L}):
    transmission in for the pump, out for both daughters, multiple
    scattering for all three, and the one phase-matched interference loop
    off the back face. All-vacuum input gives exactly 1.
    """
    if fres_pump.polarization != TEM:
        raise ValueError("fres_pump must be the TEM pump set")
    if fres_s.polarization != sigma_s or fres_i.polarization != sigma_i:
        raise ValueError("Fresnel sets do not match the requested channel")
    loop = fres_pump.r23 * fres_s.r21 * fres_i.r21 \
        * np.exp(1j * sigma_k * length)
    return (fres_pump.t * fres_s.t * fres_i.t
            * fres_pump.m * fres_s.m * fres_i.m * (1.0 + loop))


# ---------------------------------------------------------------------------
# Per-configuration mode data
# ---------------------------------------------------------------------------

class _Modes:
    """Frequency-level constants of one config: indices, pump set, noise."""

    def __init__(self, cfg):
        crystal = cfg.crystal
        self.n_s = crystal.index(cfg.signal_frequency)
        self.n_i = crystal.index(cfg.idler_frequency)
        self.n_p = crystal.index(cfg.pump_frequency)
        self.eps_s = self.n_s * self.n_s
        self.eps_i = self.n_i * self.n_i
        self.eps_p = self.n_p * self.n_p
        self.kin_p = kinematics(cfg.pump_frequency, self.n_p)
        self.fres_p = fresnel(TEM, self.kin_p, self.eps_p, crystal.length)
        self.q_s = cfg.signal_frequency / C_LIGHT
        self.q_i = cfg.idler_frequency / C_LIGHT
        self.k_s = self.n_s * cfg.signal_frequency / C_LIGHT
        self.k_i = self.n_i * cfg.idler_frequency / C_LIGHT
        self.noise = (np.conj(noise_factor(self.eps_s))
                      * np.conj(noise_factor(self.eps_i)))


def _prefactor(cfg, modes):
    """Common amplitude prefactor: pump drive, z-integral length, noise.

    hbar E_p L d / (4 pi i eps0) * (w_s^2 w_i^2 / c^4) * e^{i q_p z_p}
    * A*(w_s) A*(w_i). The pump reference phase is carried exactly even
    though it cancels in the rate.
    """
    om_s, om_i = cfg.signal_frequency, cfg.idler_frequency
    return (HBAR * cfg.pump_field * cfg.crystal.length * cfg.chi2.d
            / (4j * np.pi * EPS0)
            * (om_s * om_s * om_i * om_i / C_LIGHT ** 4)
            * np.exp(1j * modes.kin_p.q * cfg.pump_z)
            * modes.noise)


class _Channels:
    """kappa-dependent pieces shared by every integration path.

    Vectorized over kappa. Holds the split-mode kinematics, the four X
    factors keyed by (signal, idler) polarization, and the slab phase
    csinc(dk L/2) e^{i sk L/2}.
    """

    def __init__(self, cfg, modes, kappa):
        length = cfg.crystal.length
        zeros = np.zeros_like(kappa)
        self.kin_s = kinematics(cfg.signal_frequency, modes.n_s,
                                (kappa, zeros))
        self.kin_i = kinematics(cfg.idler_frequency, modes.n_i,
                                (kappa, zeros))
        fres_s = {TE: fresnel(TE, self.kin_s, modes.eps_s, length),
                  TM: fresnel(TM, self.kin_s, modes.eps_s, length)}
        fres_i = {TE: fresnel(TE, self.kin_i, modes.eps_i, length),
                  TM: fresnel(TM, self.kin_i, modes.eps_i, length)}
        pm = phase_terms(self.kin_s, self.kin_i, modes.kin_p)
        self.pm = pm
        self.x = {(a, b): x_factor(a, b, modes.fres_p, fres_s[a], fres_i[b],
                                   pm.sigma_k, length)
                  for a in (TE, TM) for b in (TE, TM)}
        self.slab = complex_sinc(0.5 * pm.delta_k * length) \
            * np.exp(0.5j * pm.sigma_k * length)
        # In-crystal direction cosines of the TM legs.
        self.c_s = self.kin_s.k_z / self.kin_s.k
        self.c_i = self.kin_i.k_z / self.kin_i.k


def _reduced_bracket(chi2, ch):
    """Angular average of the polarization sum, over the channel X factors.

    Pattern "I" pairs equal source polarizations and leaves
    X_TE,TE + (c_s c_i)^2 X_TM,TM on the unit matrix; pattern "II" pairs
    exchanged ones and leaves all four channels on the exchange matrix,
    the crossed ones weighted by single-mode cosines squared.
    """
    cc = ch.c_s * ch.c_i
    if chi2.kind == "I":
        return ch.x[(TE, TE)] + cc * cc * ch.x[(TM, TM)]
    return (ch.x[(TE, TE)] + ch.c_s * ch.c_s * ch.x[(TM, TE)]
            + ch.c_i * ch.c_i * ch.x[(TE, TM)] + cc * cc * ch.x[(TM, TM)])


def _radial_reduced(cfg, modes, ch, kappa):
    """Reduced radial integrand, detector phase excluded.

    kappa/(4 pi k_zs k_zi) csinc e^{i sk L/2} [bracket] for pattern "I",
    with an extra 1/2 for pattern "II". Multiplying by the polarization
    pattern matrix and e^{i(q_zs z_s + q_zi z_i)} restores the full
    angular integral of the 2-D integrand.
    """
    denom = 4.0 * np.pi * ch.kin_s.k_z * ch.kin_i.k_z
    if cfg.chi2.kind == "II":
        denom = 2.0 * denom
    return kappa / denom * ch.slab * _reduced_bracket(cfg.chi2, ch)


# ---------------------------------------------------------------------------
# Full 2-D integrands
# ---------------------------------------------------------------------------

def _legs(ch, phi):
    """Transverse field legs at +u (signal) and -u (idler).

    phi and the channel kappa arrays broadcast; each leg is a pair of
    transverse components. TM legs use the in-crystal direction cosines.
    """
    s, c = np.sin(phi), np.cos(phi)
    legs_s = {TE: (s, -c), TM: (-ch.c_s * c, -ch.c_s * s)}
    legs_i = {TE: (-s, c), TM: (ch.c_i * c, ch.c_i * s)}
    return legs_s, legs_i


def _polarization_sum(cfg, ch, phi):
    """B_{lambda mu}(u): detector dyads times pattern-contracted sources.

    Returns an array with trailing shape (2, 2); leading axes broadcast
    from phi and the channel kappa. Smooth through kappa -> 0 because all
    legs are unit vectors.
    """
    legs_s, legs_i = _legs(ch, phi)
    pattern = cfg.chi2.pattern
    shape = np.broadcast_shapes(np.shape(legs_s[TE][0]), np.shape(ch.c_s),
                                np.shape(ch.c_i))
    out = np.zeros(shape + (2, 2), dtype=complex)
    for sig_s in (TE, TM):
        a = legs_s[sig_s]
        for sig_i in (TE, TM):
            b = legs_i[sig_i]
            chi = sum(pattern[al, be] * a[al] * b[be]
                      for al in (0, 1) for be in (0, 1))
            weight = chi * ch.x[(sig_s, sig_i)]
            for lam in (0, 1):
                for mu in (0, 1):
                    out[..., lam, mu] += a[lam] * b[mu] * weight
    return out


def _integrand(k_perp, cfg, kind):
    kx, ky = float(k_perp[0]), float(k_perp[1])
    kappa = float(np.hypot(kx, ky))
    modes = _Modes(cfg)
    kap_max = min(modes.q_s, modes.q_i)
    if not 0.0 < kappa < kap_max:
        raise ValueError(
            f"|k_perp| = {kappa:.6e} outside the open propagating disc "
            f"(0, {kap_max:.6e})")
    work = cfg if cfg.chi2.kind == kind else \
        replace(cfg, chi2=Chi2Geometry(kind=kind, d=cfg.chi2.d))
    ch = _Channels(work, modes, np.asarray(kappa))
    phi = np.arctan2(ky, kx)
    b = _polarization_sum(work, ch, phi)
    dx, dy = work.offset
    phase = np.exp(1j * (kx * dx + ky * dy)) \
        * np.exp(1j * (ch.kin_s.q_z * work.z_signal
                       + ch.kin_i.q_z * work.z_idler))
    w = b / (_TWO_PI ** 2 * ch.kin_s.k_z * ch.kin_i.k_z) * ch.slab * phase
    return np.asarray(w, dtype=complex).reshape(2, 2)


def integrand_typeI(k_perp, cfg):
    """Pattern-"I" transverse-plane integrand at one wave vector.

    The 2x2 matrix under the d^2k integral of the amplitude: slab phase,
    detector propagation phases, transverse offset phase, and the
    polarization sum with equal-polarization chi2 pairing. The amplitude
    prefactor (pump drive, noise factors, L, d) is not included. k_perp
    must lie strictly inside the vacuum propagating disc.
    """
    return _integrand(k_perp, cfg, "I")


def integrand_typeII(k_perp, cfg):
    """Pattern-"II" integrand; exchange pairing, otherwise as type I."""
    return _integrand(k_perp, cfg, "II")


# ---------------------------------------------------------------------------
# Oscillatory radial engine
# ---------------------------------------------------------------------------

class _DetectorPhase:
    """Psi(theta) = z_s q_zs + z_i q_zi on kappa = kappa_max sin(theta).

    Both q_z are vacuum longitudinal components, real on the propagating
    disc, so Psi is a real, monotonically decreasing phase. psi_prime is
    analytic; at theta = pi/2 with kappa_max equal to a mode's q the
    0/0 of kappa'/q_z is replaced by its finite limit.

    At laboratory distances Psi(0) = z_s q_s + z_i q_i runs to ~1e6 rad,
    and the argument rounding of exp(1j*Psi) (about Psi*eps) times the
    cancellation of the oscillatory integral sets a hard relative error
    floor well above machine precision. The engine therefore integrates
    against the referenced phase psi_rel = Psi - Psi(0), whose span is
    only the kept-cycle window, and restores exp(1j*Psi(0)) once on the
    final result. psi_rel is evaluated in the cancellation-free form
    -kappa^2 * sum z/(q_z + q).
    """

    def __init__(self, cfg, modes):
        self.kap_max = min(modes.q_s, modes.q_i)
        self.parts = ((modes.q_s, cfg.z_signal), (modes.q_i, cfg.z_idler))
        self.psi_ref = sum(z * q for q, z in self.parts)

    def kappa(self, theta):
        return self.kap_max * np.sin(theta)

    def psi(self, theta):
        kap = self.kappa(theta)
        total = 0.0
        for q, z in self.parts:
            total = total + z * np.sqrt(np.maximum(q * q - kap * kap, 0.0))
        return total

    def psi_rel(self, theta):
        kap = self.kappa(theta)
        kap2 = kap * kap
        total = 0.0
        for q, z in self.parts:
            qz = np.sqrt(np.maximum(q * q - kap2, 0.0))
            total = total + z * kap2 / (qz + q)
        return -total

    def psi_prime(self, theta):
        s, c = np.sin(theta), np.cos(theta)
        kap = self.kap_max * s
        total = 0.0
        for q, z in self.parts:
            qz = np.sqrt(np.maximum(q * q - kap * kap, 0.0))
            grazing = self.kap_max * s          # exact limit when q == kap_max
            full = self.kap_max * kap * c / np.where(qz > 0.0, qz, 1.0)
            total = total + z * np.where(qz > 0.0, full, grazing)
        return -total

    def cycles(self):
        return -self.psi_rel(0.5 * np.pi) / _TWO_PI


def _slab_phase_rate(cfg, modes, theta):
    """Upper bound on the theta rate of the L-scale slab phases."""
    kap = min(modes.q_s, modes.q_i) * np.sin(theta)
    dkap = min(modes.q_s, modes.q_i) * np.cos(theta)
    kzs = branch_sqrt(modes.k_s * modes.k_s - kap * kap)
    kzi = branch_sqrt(modes.k_i * modes.k_i - kap * kap)
    return cfg.crystal.length * kap * dkap \
        * (1.0 / abs(kzs) + 1.0 / abs(kzi))


def _tail_terms(slow, phase, theta0, h):
    """Integration-by-parts boundary data at theta0.

    u1 = g/(i Psi'), u2 = -u1'/(i Psi'), u3 = -u2'/(i Psi'), derivatives
    by 5-point central differences on a 9-point stencil (the integrand is
    a smooth function of kappa_max sin(theta), so the stencil may straddle
    pi/2). Returns (boundary value e^{i psi_rel}(u1+u2+u3), series ratio,
    size of the last kept term). The caller owns the e^{i Psi(0)} reference.
    """
    grid = theta0 + h * np.arange(-4, 5)
    g = np.asarray(slow(grid), dtype=complex)          # (m, 9)
    u1 = g / (1j * phase.psi_prime(grid))
    d1 = (u1[:, :-4] - 8.0 * u1[:, 1:-3] + 8.0 * u1[:, 3:-1] - u1[:, 4:]) \
        / (12.0 * h)                                    # u1' on the 5 middle nodes
    u2 = -d1 / (1j * phase.psi_prime(grid[2:7]))
    d2 = (u2[:, 0] - 8.0 * u2[:, 1] + 8.0 * u2[:, 3] - u2[:, 4]) / (12.0 * h)
    u3 = -d2 / (1j * phase.psi_prime(theta0))
    boundary = np.exp(1j * phase.psi_rel(theta0)) * (u1[:, 4] + u2[:, 2] + u3)
    n1 = float(np.sum(np.abs(u1[:, 4])))
    n2 = float(np.sum(np.abs(u2[:, 2])))
    n3 = float(np.sum(np.abs(u3)))
    ratio = n2 / n1 if n1 > 0.0 else (0.0 if n2 == 0.0 else np.inf)
    return boundary, ratio, n3


def _integrate_head(slow, phase, cfg, modes, upper, rel_tol):
    """GK15 integral of slow(theta) e^{i psi_rel} over [0, upper].

    Seed panels span _PANEL_CYCLES cycles of the fastest phase (detector
    plus slab) found on a 513-point grid over [0, upper]. Worst-first
    refinement needs room for a few full sweeps over the seed partition
    when tol is tight; the budget allows for that.
    """
    thetas = np.linspace(0.0, upper, 513)
    rate_max = float(np.max(np.abs(phase.psi_prime(thetas))
                            + _slab_phase_rate(cfg, modes, thetas)))
    cap = _PANEL_CYCLES * _TWO_PI / max(rate_max, 1.0)
    n_seed = int(np.ceil(upper / cap))
    spec = QuadratureSpec(rel_tol=rel_tol, max_subdivisions=6 * n_seed + 8000)

    def f(theta):
        return np.asarray(slow(theta)) * np.exp(1j * phase.psi_rel(theta))

    return integrate_radial(f, 0.0, upper, spec, max_panel=cap)


def _integrate_oscillatory(slow, phase, cfg, modes, tol):
    """Head-plus-tail evaluation of int_0^{pi/2} slow(theta) e^{i Psi} dtheta.

    slow maps a theta array to an (m, n) stack and must already contain
    the dkappa/dtheta measure. Returns (vector of m integrals, error
    estimate). The tail closure is checked before the head is integrated,
    so no head is computed for a kept-cycle count that gets escalated; the
    full range is the head with upper = pi/2 and no tail. Raises
    ConvergenceError when neither the tail closure nor a full-range sweep
    can reach tol; the value it carries includes the tail and the
    e^{i Psi(0)} reference phase.
    """
    cycles = phase.cycles()
    kept = _KEPT_CYCLES
    upper, rel_tol, tail, err_tail = 0.5 * np.pi, tol, 0.0, 0.0
    while cycles > 1.5 * kept:
        theta_c = brentq(lambda t: phase.psi_rel(t) + _TWO_PI * kept,
                         1e-14, 0.5 * np.pi, xtol=1e-13, rtol=8.9e-16)
        h_fd = min(1e-5, theta_c / 16.0)
        top, ratio_top, n3_top = _tail_terms(slow, phase, 0.5 * np.pi, h_fd)
        bot, ratio_bot, n3_bot = _tail_terms(slow, phase, theta_c, h_fd)
        ratio = max(ratio_top, ratio_bot)
        if ratio <= _TAIL_RATIO_LIMIT:
            upper, rel_tol = theta_c, 0.5 * tol
            tail = top - bot
            err_tail = (n3_top + n3_bot) * min(1.0, ratio)
            break
        if kept < _KEPT_CYCLES_MAX:
            kept *= 4
            continue
        if cycles < _FULL_RANGE_CYCLES:
            break
        raise ConvergenceError(
            "radial tail closure not converging (series ratio "
            f"{ratio:.2e} with {kept} kept cycles of {cycles:.3e})",
            None, np.inf)

    ref = np.exp(1j * phase.psi_ref)
    try:
        head, err_head = _integrate_head(slow, phase, cfg, modes, upper,
                                         rel_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), (exc.value + tail) * ref,
                               exc.error + err_tail) from exc
    return (head + tail) * ref, err_head + err_tail


# ---------------------------------------------------------------------------
# Amplitudes
# ---------------------------------------------------------------------------

def amplitude_numeric(cfg, tol=1e-6):
    """Biphoton amplitude by quadrature over the propagating disc.

    Collinear detectors use the angular-averaged radial form; displaced
    detectors integrate the full 2-D integrand with the angular average
    nested inside the radial engine. tol is the relative tolerance
    requested of the quadrature; failure to converge raises
    ConvergenceError carrying the achieved estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    modes = _Modes(cfg)
    phase = _DetectorPhase(cfg, modes)
    kap_max = phase.kap_max
    pattern = cfg.chi2.pattern.astype(complex)

    if cfg.collinear:
        def slow(theta):
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            kap = kap_max * np.sin(theta)
            ch = _Channels(cfg, modes, kap)
            g = _radial_reduced(cfg, modes, ch, kap)
            return (g * kap_max * np.cos(theta))[None, :]
    else:
        dx, dy = cfg.offset

        def slow(theta):
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            kap = kap_max * np.sin(theta)
            ch = _Channels(cfg, modes, kap)

            def over_angle(phi):
                p = phi[:, None]
                b = _polarization_sum(cfg, ch, p)
                shift = np.exp(1j * kap * (dx * np.cos(p) + dy * np.sin(p)))
                return b * shift[..., None, None]

            avg = integrate_angular(over_angle, rel_tol=0.1 * tol)  # (n, 2, 2)
            weight = ch.slab / (_TWO_PI ** 2 * ch.kin_s.k_z * ch.kin_i.k_z) \
                * kap * kap_max * np.cos(theta)
            g = avg * weight[:, None, None]
            return g.reshape(theta.size, 4).T

    pref = _prefactor(cfg, modes)

    def matrix(vec):
        if cfg.collinear:
            return pref * vec[0] * pattern
        return pref * vec.reshape(2, 2)

    try:
        vec, _ = _integrate_oscillatory(slow, phase, cfg, modes, tol)
    except ConvergenceError as exc:
        value = None if exc.value is None else matrix(exc.value)
        raise ConvergenceError(str(exc), value, abs(pref) * exc.error) \
            from exc
    return BiphotonAmplitude.from_matrix(matrix(vec))


def amplitude_farfield(cfg):
    """Closed-form leading-order amplitude for distant on-axis detectors.

    Requires the degenerate (signal frequency = idler frequency) collinear
    configuration; anything else must go through amplitude_numeric. The
    transverse integral is evaluated by its kappa = 0 endpoint
    contribution, which turns the detector phases into the spherical
    factor e^{i q (z_s + z_i)}/(z_s + z_i) and samples the slab factors at
    normal incidence, where the TE and TM channels coincide pairwise
    (X+ for equal, X- for crossed polarizations).
    """
    if not cfg.degenerate:
        raise ValueError("far-field form needs a degenerate split; use "
                         "amplitude_numeric for distinct frequencies")
    if not cfg.collinear:
        raise ValueError("far-field form needs zero transverse offset; use "
                         "amplitude_numeric for displaced detectors")
    modes = _Modes(cfg)
    length = cfg.crystal.length
    omega = cfg.signal_frequency
    q = omega / C_LIGHT
    k = modes.k_s

    kin0 = kinematics(omega, modes.n_s)
    fres_te = fresnel(TE, kin0, modes.eps_s, length)
    fres_tm = fresnel(TM, kin0, modes.eps_s, length)
    pm = phase_terms(kin0, kin0, modes.kin_p)
    x_plus = x_factor(TE, TE, modes.fres_p, fres_te, fres_te,
                      pm.sigma_k, length)
    x_minus = x_factor(TE, TM, modes.fres_p, fres_te, fres_tm,
                       pm.sigma_k, length)

    z_sum = cfg.z_signal + cfg.z_idler
    slab = complex_sinc(0.5 * pm.delta_k * length) \
        * np.exp(0.5j * pm.sigma_k * length)
    reach = np.exp(1j * q * z_sum) / z_sum
    core = _prefactor(cfg, modes) * (-1j) * q / (_TWO_PI * k * k) \
        * slab * reach
    if cfg.chi2.kind == "I":
        matrix = core * x_plus * np.eye(2)
    else:
        matrix = 0.5 * core * (x_plus + x_minus) \
            * np.array([[0.0, 1.0], [1.0, 0.0]])
    return BiphotonAmplitude.from_matrix(matrix)
