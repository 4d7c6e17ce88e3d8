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
The polarization sum is a trig polynomial of degree <= 4 in phi, so its
angular integral against the offset phase e^{i kappa rho cos(phi - psi)}
is exact in J0, J2 and J4 of kappa rho (Jacobi-Anger, DLMF 10.12), times
constant 2x2 matrices of psi. Every detector placement is then one radial
integral of a short stack of rows, the matrices applied to its result.

amplitude_numeric integrates only the sector propagating in vacuum,
kappa < min(q_s, q_i). The evanescent sector it leaves out is small but not
negligible: its integral measured 4e-5 of the amplitude for a 0.1 mm slab
with detectors 0.15 mm out, and 2e-6 to 5e-6 for a 2 mm slab at 3 mm and
for a split at 3 cm, so the route is only as good as that at close range.
The substitution kappa = kappa_max sin(theta) removes the
1/q_z endpoint behaviour. The detector phase Psi = z_s q_zs + z_i q_zi
oscillates ~q z / 2 pi times over the disc, so the radial integral keeps an
exact head of K phase cycles (Gauss-Kronrod panels of equal phase, widest
at the stationary point) and closes the tail with a three-term
integration-by-parts series in 1/(i Psi'), with the series ratio monitored
and K escalated if the closure is not clearly converging. The series is
taken at the cut only: at theta = pi/2 the cos(theta) measure in slow and
the |cos(theta)| in the grazing q_z make g and Psi' odd, so a central
stencil gives zero there, and the one-sided term it misses (up to 4e-5 of
the amplitude at 1.2 mm to 1 m) is left out, like the evanescent sector.

About 12k integrand nodes go into one amplitude (14-19k for a thin slab
over the full range), so the per-node kernel (_Channels, then _angular_rows)
sets its cost. A node takes two complex exponentials, e^{i k_z L/2} of each
split mode, and one at a degenerate split, where signal and idler are one
mode; every slab phase is a product of them and of the pump's, with half
the rounding error of exp of the rounded sum sk L/2 (_Channels). The
Bessel rows avoid jv, which would cost several times the rest of the node
(_bessel_even).

The far field is the leading term of the same integral, not a formula of
its own: farfield_matrices takes its kappa = 0 endpoint term (Watson's
lemma in s = kappa^2) from the on-axis row of _angular_rows on the
normal-incidence channels, for collinear detectors at any split. The terms
it leaves out fall off like 1/z.

Stacked points
--------------
A sweep varies one scalar of the config. The frequency-level kernels
(dispersion, kinematics, Fresnel and X factors, noise factors) broadcast
over a leading axis of m sweep points, and so does _Channels at kappa = 0:
_Modes.normal holds it once per mode set for both conversion types, and
farfield_matrices evaluates a whole sweep at once; amplitude_farfield is
the one-point case. Every kernel works elementwise, so a point's value does
not depend on the points stacked with it. The numeric route integrates
point by point on the same split: _numeric_matrix takes the config the
points share and one point's _Modes, sliced from the checked stack.

scipy is imported inside _bessel_even (reached past the on-axis return of
_angular_rows) and _integrate_oscillatory, the only code that calls it, so
the far-field route never loads it: a module-level scipy import would add
about 0.55 s and 47 MB to every slabpdc process. New numeric code (a path
route included) follows the same rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .greens import Chi2Geometry
from .materials import (C_LIGHT, EPS0, HBAR, TE, TEM, TM, CrystalSlab,
                        branch_sqrt, fresnel, kinematics, noise_factor,
                        reject)
from .quadrature import ConvergenceError, QuadratureSpec, _integrate_partition

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
    "farfield_matrices",
    "check_point",
    "rate",
    "rates",
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
# Phase cycles per head seed panel. A GK15 panel's Gauss-7 error goes as its
# phase^14 (QUADPACK, 1983). For a rate growing linearly from the axis, equal
# panels of at most 0.75 cycles and equal-phase panels of c cycles have the
# same summed error at c^13 = (2/15) 0.75^13, c = 0.642.
_PANEL_CYCLES = 0.75 * (2.0 / 15.0) ** (1.0 / 13.0)

# J_n(x) = (x/2)^n sum_k c_k (-x^2/4)^k with c_k = 1/(k! (k+n)!), highest
# k first for Horner; 14 terms reach the last bit for x < 3.
_BESSEL_SERIES = {n: [1.0 / (math.factorial(k) * math.factorial(k + n))
                      for k in range(13, -1, -1)] for n in (2, 4)}


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
        try:
            dx, dy = self.offset
            off = (float(dx), float(dy))
        except (TypeError, ValueError):
            raise ValueError("offset must be two numbers (dx, dy), got "
                             f"{self.offset!r}") from None
        object.__setattr__(self, "offset", off)
        sig, idl, pump_z = check_point(
            self.crystal.length, self.pump_field, self.pump_frequency,
            self.signal_frequency, self.idler_frequency, self.z_signal,
            self.z_idler, self.pump_z, off)
        object.__setattr__(self, "signal_frequency", sig)
        object.__setattr__(self, "idler_frequency", idl)
        object.__setattr__(self, "pump_z", pump_z)

    @property
    def collinear(self):
        return self.offset == (0.0, 0.0)


def check_point(length, pump_field, pump_frequency, signal_frequency,
                idler_frequency, z_signal, z_idler, pump_z, offset):
    """The checks of one ExperimentConfig, on one point or on m stacked.

    Any number may be an array over axis points; a failing check raises at
    the first point that fails it (``materials.reject``). Returns the split
    frequencies and the pump plane with their defaults filled in: an even
    split, and the entry face -L/2.
    """
    for name, value in (("pump_field", pump_field),
                        ("pump_frequency", pump_frequency),
                        ("signal_frequency", signal_frequency),
                        ("idler_frequency", idler_frequency),
                        ("z_signal", z_signal), ("z_idler", z_idler),
                        ("pump_z", pump_z)):
        if value is not None:
            reject((value != value) | (abs(value) == math.inf), ValueError,
                   lambda i: f"{name} must be finite")
    if not (math.isfinite(offset[0]) and math.isfinite(offset[1])):
        raise ValueError("offset must be finite")
    reject(pump_field <= 0, ValueError,
           lambda i: "pump_field must be positive")
    reject(pump_frequency <= 0, ValueError,
           lambda i: "pump_frequency must be positive")
    half = 0.5 * length
    if signal_frequency is None and idler_frequency is None:
        signal_frequency = idler_frequency = 0.5 * pump_frequency
    elif signal_frequency is None or idler_frequency is None:
        raise ValueError("give both split frequencies or neither")
    reject((signal_frequency <= 0) | (idler_frequency <= 0), ValueError,
           lambda i: "split frequencies must be positive")
    mismatch = abs(signal_frequency + idler_frequency - pump_frequency)
    reject(mismatch > 1e-12 * pump_frequency, ValueError,
           lambda i: "energy conservation violated: signal + idler differs "
           f"from the pump frequency by {np.ravel(mismatch)[i]:.3e} rad/s")
    if pump_z is None:
        pump_z = -half
    else:
        reject(pump_z > -half, ValueError,
               lambda i: "pump_z must lie on the incidence side, z <= -L/2")
    reject((z_signal <= half) | (z_idler <= half), ValueError,
           lambda i: "detectors must sit beyond the exit face, z > +L/2")
    return signal_frequency, idler_frequency, pump_z


@dataclass(frozen=True)
class PhaseMatch:
    """Longitudinal phase mismatch and phase sum, both complex [1/m]."""

    delta_k: complex
    sigma_k: complex


@dataclass(frozen=True)
class BiphotonAmplitude:
    """2x2 amplitude matrix over detector polarizations; rate() reads it."""

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("amplitude matrix must be 2x2")
        return cls(matrix=m)


def rate(amp):
    """Coincidence count rate R = sum_{lambda mu} |A_{lambda mu}|^2."""
    return float(rates(amp.matrix))


def rates(matrices):
    """rate() of every 2x2 matrix in a (..., 2, 2) stack."""
    return np.sum(np.abs(np.asarray(matrices)) ** 2, axis=(-2, -1))


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
    if small.any():
        safe = np.where(small, 1.0, w)
        out = np.where(small, 1.0 - w * w / 6.0, np.sin(safe) / safe)
    else:
        out = np.sin(w) / w
    return complex(out) if out.ndim == 0 else out


def sinc_profile(pm, length):
    """Longitudinal matching efficiency |sinc(dk L/2)|^2 |e^{i sk L/2}|^2.

    Real by construction. With absorption the mismatch dk acquires an
    imaginary part and the sinc minima lift off zero; if the imaginary
    parts of the pump and split-mode wave numbers cancel in dk, the minima
    return to zero while the overall e^{-Im(sk) L} decay remains.
    """
    reject(np.logical_not((length > 0) & (length < np.inf)), ValueError,
           lambda i: "length must be positive and finite")
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
    """Frequency-level constants: indices, pump set, noise.

    Built from the three frequencies, their indices, the slab length and
    the pump plane. Each may be a scalar (one config, ``_Modes.of``) or an
    (m,) array over the axis points of a sweep; every attribute then
    broadcasts over that leading axis. ``degenerate`` is true when signal
    and idler are one mode (equal frequency and index) at every point.
    """

    def __init__(self, omega_s, omega_i, omega_p, n_s, n_i, n_p, length,
                 pump_z):
        self.omega_s, self.omega_i, self.omega_p = omega_s, omega_i, omega_p
        self.length, self.pump_z = length, pump_z
        self.n_s, self.n_i, self.n_p = n_s, n_i, n_p
        self.degenerate = bool(np.all((omega_s == omega_i) & (n_s == n_i)))
        self.eps_s = n_s * n_s
        self.eps_i = n_i * n_i
        self.eps_p = n_p * n_p
        self.kin_p = kinematics(omega_p, n_p)
        self.fres_p = fresnel(TEM, self.kin_p, self.eps_p, length)
        self.h_p = np.exp(0.5j * self.kin_p.k_z * length)
        self.q_s = omega_s / C_LIGHT
        self.q_i = omega_i / C_LIGHT
        self.k_s = n_s * omega_s / C_LIGHT
        self.k_i = n_i * omega_i / C_LIGHT
        self.noise = (np.conj(noise_factor(self.eps_s))
                      * np.conj(noise_factor(self.eps_i)))

    @classmethod
    def of(cls, cfg):
        index = cfg.crystal.index
        om_s, om_i, om_p = (cfg.signal_frequency, cfg.idler_frequency,
                            cfg.pump_frequency)
        return cls(om_s, om_i, om_p, index(om_s), index(om_i), index(om_p),
                   cfg.crystal.length, cfg.pump_z)

    @functools.cached_property
    def normal(self):
        """_Channels at normal incidence, kappa = 0; shared by both types."""
        return _Channels(self, 0.0)


def _prefactor(cfg, modes):
    """Common amplitude prefactor: pump drive, z-integral length, noise.

    hbar E_p L d / (4 pi i eps0) * (w_s^2 w_i^2 / c^4) * e^{i q_p z_p}
    * A*(w_s) A*(w_i). The pump reference phase is carried exactly even
    though it cancels in the rate.
    """
    om_s, om_i = modes.omega_s, modes.omega_i
    return (HBAR * cfg.pump_field * modes.length * cfg.chi2.d
            / (4j * np.pi * EPS0)
            * (om_s * om_s * om_i * om_i / C_LIGHT ** 4)
            * np.exp(1j * modes.kin_p.q * modes.pump_z)
            * modes.noise)


def _split_factors(kin, eps, h):
    """Fresnel pieces of one split mode at its half-slab phase h.

    h = e^{i k_z L/2}. Returns {polarization: (r, t m)} with the TE and TM
    coefficients of ``fresnel`` and M = 1/(1 - r^2 h^4), so both
    polarizations share one exponential.
    """
    kz, qz = kin.k_z, kin.q_z
    h2 = h * h
    h4 = h2 * h2
    out = {}
    for sigma, load, lift in ((TE, qz, 2.0 * kz),
                              (TM, eps * qz, 2.0 * (kin.k / kin.q) * kz)):
        inv = 1.0 / (kz + load)
        r = (kz - load) * inv
        out[sigma] = (r, lift * inv / (1.0 - r * r * h4))
    return out


class _Channels:
    """kappa-dependent pieces shared by every integration path.

    Vectorized over kappa. Holds the split-mode kinematics, the four X
    factors keyed by (signal, idler) polarization, and the slab phase
    csinc(dk L/2) e^{i sk L/2}.

    A node costs two complex exponentials, h_s = e^{i k_zs L/2} and
    h_i = e^{i k_zi L/2}; the pump's h_p = e^{i k_p L/2} is one per
    _Modes. At a degenerate split (``_Modes.degenerate``) the idler leg is
    the signal's: its kinematics, h and Fresnel pieces are computed once,
    which is the same arithmetic on the same inputs, so the node costs one
    exponential. Every L-scale phase is a product of them: M = 1/(1 - r^2 h^4)
    for both polarizations of a mode, the slab phase
    e^{i sk L/2} = h_p h_s h_i and the back-face loop e^{i sk L}, its
    square. Each factor carries the rounding of its own k_z L/2 only,
    while exp of the rounded sum sk L/2 also carries the rounding of that
    sum: on a 2 mm slab the product is within 8.6e-12 of the 40-digit
    phase and the exp of the sum 1.7e-11 (the loop, 1.7e-11 and 3.4e-11).
    The X factors are (t m)_p (t m)_s (t m)_i (1 + r_p r_s r_i e^{i sk L})
    with the coefficients of ``fresnel``; they match ``x_factor`` of the
    public pieces to 5e-12.
    """

    def __init__(self, modes, kappa):
        zeros = np.zeros_like(kappa)
        half_l = 0.5j * modes.length
        self.kin_s = kinematics(modes.omega_s, modes.n_s, (kappa, zeros))
        h_s = np.exp(half_l * self.kin_s.k_z)
        sig = _split_factors(self.kin_s, modes.eps_s, h_s)
        if modes.degenerate:
            self.kin_i, h_i, idl = self.kin_s, h_s, sig
        else:
            self.kin_i = kinematics(modes.omega_i, modes.n_i, (kappa, zeros))
            h_i = np.exp(half_l * self.kin_i.k_z)
            idl = _split_factors(self.kin_i, modes.eps_i, h_i)
        pm = phase_terms(self.kin_s, self.kin_i, modes.kin_p)
        self.pm = pm
        half = modes.h_p * h_s * h_i
        fres_p = modes.fres_p
        loop = fres_p.r23 * half * half
        tm_p = fres_p.t * fres_p.m
        self.x = {}
        for a in (TE, TM):
            r_s, tm_s = sig[a]
            lead, turn = tm_p * tm_s, loop * r_s
            for b in (TE, TM):
                r_i, tm_i = idl[b]
                self.x[(a, b)] = lead * tm_i * (1.0 + turn * r_i)
        self.slab = complex_sinc(0.5 * pm.delta_k * modes.length) * half
        # In-crystal direction cosines of the TM legs.
        self.c_s = self.kin_s.k_z / self.kin_s.k
        self.c_i = (self.c_s if modes.degenerate
                    else self.kin_i.k_z / self.kin_i.k)


def _angular_matrices(cfg):
    """Constant 2x2 matrix of each angular row, psi the offset direction."""
    psi = np.arctan2(cfg.offset[1], cfg.offset[0])
    c2, s2 = np.cos(2.0 * psi), np.sin(2.0 * psi)
    c4, s4 = np.cos(4.0 * psi), np.sin(4.0 * psi)
    if cfg.chi2.kind == "I":
        mats = [cfg.chi2.pattern, [[c2, s2], [s2, -c2]]]
    else:
        mats = [cfg.chi2.pattern, 2.0 * s2 * np.eye(2),
                [[s4, -c4], [-c4, -s4]], [[0.0, 2.0 * c2], [-2.0 * c2, 0.0]]]
    return np.array(mats, dtype=complex)


def _angular_rows(cfg, ch, kappa, rho):
    """Rows of the angular integral per unit kappa, detector phase excluded.

    1/(4 pi k_zs k_zi) csinc e^{i sk L/2} (an extra 1/2 for pattern
    "II") times a channel sum and its Bessel factor of kappa rho. With
    TT = X_TE,TE, MM = (c_s c_i)^2 X_TM,TM, EM = c_i^2 X_TE,TM and
    ME = c_s^2 X_TM,TE the rows are (TT+MM) J0, (TT-MM) J2 for "I" and
    (TT+ME+EM+MM) J0, (TT-MM) J2, ((TT+MM)-(EM+ME)) J4, (EM-ME) J2 for "II".
    On axis J_n(0) = 0 for n > 0, so only the J0 row is returned; the
    radial measure kappa dkappa is the caller's.
    """
    cc = ch.c_s * ch.c_i
    tt = ch.x[(TE, TE)]
    mm = cc * cc * ch.x[(TM, TM)]
    denom = 4.0 * np.pi * ch.kin_s.k_z * ch.kin_i.k_z
    if cfg.chi2.kind == "II":
        denom = 2.0 * denom
        me = ch.c_s * ch.c_s * ch.x[(TM, TE)]
        em = ch.c_i * ch.c_i * ch.x[(TE, TM)]
        first = tt + me + em + mm
    else:
        first = tt + mm
    weight = ch.slab / denom
    if rho == 0.0:
        return np.asarray(weight * first)[None]
    bessel = _bessel_even(kappa * rho, cfg.chi2.kind == "II")
    rows = [weight * first * bessel[0], weight * (tt - mm) * bessel[1]]
    if cfg.chi2.kind == "II":
        rows += [weight * ((tt + mm) - (em + me)) * bessel[2],
                 weight * (em - me) * bessel[1]]
    return np.stack(rows)


def _bessel_even(x, with_j4):
    """[J0, J2] of x >= 0, and J4 with with_j4, without scipy's jv.

    J0 is scipy's j0. For x >= 3, J2 = 2 J1/x - J0 and
    J4 = (48/x^3 - 8/x) J1 + (1 - 24/x^2) J0 from j0 and j1; below that
    the J4 form cancels (6e-15 absolute at x = 1, 2e-3 relative at 1e-6),
    and J2, J4 come from their power series in x^2/4, 14 terms. Against
    30-digit values both forms stay within 2e-16 absolute below x = 8 and
    within 1.3e-15, the error of j0 and j1 themselves, up to x = 400;
    jv(n, x) costs several times as much, most for x < 12.
    """
    from scipy.special import j0, j1

    x = np.atleast_1d(x)
    b0, b1 = j0(x), j1(x)
    small = x < 3.0
    inv = 1.0 / np.where(small, 3.0, x)
    out = [b0, 2.0 * inv * b1 - b0]
    if with_j4:
        inv2 = inv * inv
        out.append((48.0 * inv2 - 8.0) * inv * b1 + (1.0 - 24.0 * inv2) * b0)
    if small.any():
        half = 0.5 * x[small]
        y = -half * half
        for n, row in zip((2, 4), out[1:]):
            acc = 0.0
            for c in _BESSEL_SERIES[n]:
                acc = acc * y + c
            row[small] = acc * half ** n
    return out


# ---------------------------------------------------------------------------
# Full 2-D integrands
# ---------------------------------------------------------------------------

def _polarization_sum(pattern, ch, phi):
    """B_{lambda mu}(u) at n samples: detector dyads times pattern-contracted
    sources, shape (n, 2, 2).

    a[sigma, j] and b[sigma, j] are the transverse field legs of the
    signal at +u and the idler at -u, the TM legs with the in-crystal
    direction cosines. Each channel weighs its detector dyad by the chi2
    contraction of its source legs and by its X factor.
    """
    s, c = np.sin(phi), np.cos(phi)
    a = np.array([[s, -c], [-ch.c_s * c, -ch.c_s * s]])
    b = np.array([[-s, c], [ch.c_i * c, ch.c_i * s]])
    x = np.array([[ch.x[(p, q)] for q in (TE, TM)] for p in (TE, TM)])
    return np.einsum("sln,tmn,san,ab,tbn,stn->nlm", a, b, a, pattern, b, x)


def _integrand(k_perp, cfg, kind):
    kx = np.asarray(k_perp[0], dtype=float)
    ky = np.asarray(k_perp[1], dtype=float)
    shape = kx.shape
    kx, ky = np.atleast_1d(kx), np.atleast_1d(ky)
    kappa = np.hypot(kx, ky)
    modes = _Modes.of(cfg)
    kap_max = min(modes.q_s, modes.q_i)
    reject(~((0.0 < kappa) & (kappa < kap_max)), ValueError,
           lambda i: f"|k_perp| = {kappa[i]:.6e} outside the open "
           f"propagating disc (0, {kap_max:.6e})")
    ch = _Channels(modes, kappa)
    b = _polarization_sum(Chi2Geometry(kind).pattern, ch, np.arctan2(ky, kx))
    dx, dy = cfg.offset
    phase = np.exp(1j * (kx * dx + ky * dy)) \
        * np.exp(1j * (ch.kin_s.q_z * cfg.z_signal
                       + ch.kin_i.q_z * cfg.z_idler))
    w = ch.slab * phase / (_TWO_PI ** 2 * ch.kin_s.k_z * ch.kin_i.k_z)
    return (b * w[:, None, None]).reshape(shape + (2, 2))


def integrand_typeI(k_perp, cfg):
    """Pattern-"I" transverse-plane integrand at one or more wave vectors.

    The 2x2 matrix under the d^2k integral of the amplitude: slab phase,
    detector propagation phases, transverse offset phase, and the
    polarization sum with equal-polarization chi2 pairing. The amplitude
    prefactor (pump drive, noise factors, L, d) is not included. k_perp is
    one vector (k_x, k_y), giving a (2, 2) matrix, or a (2, n) stack,
    giving (n, 2, 2); every vector must lie strictly inside the vacuum
    propagating disc.
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


def _slab_phase_rate(modes, theta):
    """Upper bound on the theta rate of the L-scale slab phases."""
    kap = min(modes.q_s, modes.q_i) * np.sin(theta)
    dkap = min(modes.q_s, modes.q_i) * np.cos(theta)
    kzs = branch_sqrt(modes.k_s * modes.k_s - kap * kap)
    kzi = branch_sqrt(modes.k_i * modes.k_i - kap * kap)
    return modes.length * kap * dkap \
        * (1.0 / abs(kzs) + 1.0 / abs(kzi))


def _tail_terms(slow, phase, theta0, h):
    """Integration-by-parts boundary data at theta0.

    u1 = g/(i Psi'), u2 = -u1'/(i Psi'), u3 = -u2'/(i Psi'), derivatives
    by 5-point central differences on a 9-point stencil inside (0, pi/2).
    Returns (boundary value e^{i psi_rel}(u1+u2+u3), series ratio, size of
    the last kept term). The caller owns the e^{i Psi(0)} reference.
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


def _integrate_head(slow, phase, modes, upper, rel_tol):
    """GK15 integral of slow(theta) e^{i psi_rel} over [0, upper].

    Seed panels hold _PANEL_CYCLES cycles of detector plus slab phase, its
    bound summed over a 513-point grid from each cell's larger end rate;
    the first, quadratic in phase about the stationary point, is halved.
    _integrate_partition refines in worst-first rounds; when tol is tight
    a round can bisect most of the partition, so the budget leaves room
    for a few full sweeps over the seed panels.
    """
    thetas = np.linspace(0.0, upper, 513)
    rate = np.abs(phase.psi_prime(thetas)) + _slab_phase_rate(modes, thetas)
    cum = np.concatenate(
        ([0.0], np.cumsum(np.maximum(rate[:-1], rate[1:]) * np.diff(thetas))))
    n_seed = max(1, int(np.ceil(cum[-1] / (_PANEL_CYCLES * _TWO_PI))))
    edges = np.interp(np.linspace(0.0, cum[-1], n_seed + 1), cum, thetas)
    edges[0], edges[-1] = 0.0, upper
    edges = np.insert(edges, 1, 0.5 * edges[1])
    spec = QuadratureSpec(rel_tol=rel_tol, max_subdivisions=6 * n_seed + 8000)

    def f(theta):
        return np.asarray(slow(theta)) * np.exp(1j * phase.psi_rel(theta))

    return _integrate_partition(f, edges, spec)


def _integrate_oscillatory(slow, phase, modes, tol):
    """Head-plus-tail evaluation of int_0^{pi/2} slow(theta) e^{i Psi} dtheta.

    slow maps a theta array to an (m, n) stack and must already contain
    the dkappa/dtheta measure. Returns (vector of m integrals, error
    estimate). The tail is closed at the cut theta_c only (module notes).
    The closure is checked before the head is integrated, so no head is
    computed for a kept-cycle count that gets escalated; the full range is
    the head with upper = pi/2 and no tail. Raises
    ConvergenceError when neither the tail closure nor a full-range sweep
    can reach tol; the value it carries includes the tail and the
    e^{i Psi(0)} reference phase.
    """
    from scipy.optimize import brentq

    cycles = phase.cycles()
    kept = _KEPT_CYCLES
    upper, rel_tol, tail, err_tail = 0.5 * np.pi, tol, 0.0, 0.0
    while cycles > 1.5 * kept:
        theta_c = brentq(lambda t: phase.psi_rel(t) + _TWO_PI * kept,
                         1e-14, 0.5 * np.pi, xtol=1e-13, rtol=8.9e-16)
        cut, ratio, n3 = _tail_terms(slow, phase, theta_c,
                                     min(1e-5, theta_c / 16.0))
        if ratio <= _TAIL_RATIO_LIMIT:
            upper, rel_tol = theta_c, 0.5 * tol
            tail, err_tail = -cut, n3 * min(1.0, ratio)
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
        head, err_head = _integrate_head(slow, phase, modes, upper, rel_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), (exc.value + tail) * ref,
                               exc.error + err_tail) from exc
    return (head + tail) * ref, err_head + err_tail


# ---------------------------------------------------------------------------
# Amplitudes
# ---------------------------------------------------------------------------

def _numeric_matrix(cfg, modes, tol):
    """amplitude_numeric's (2, 2) matrix at the one point of modes.

    As for farfield_matrices, cfg supplies the conversion type, the drive
    and the detectors, and modes (here Python scalars) all the rest, so a
    sweep passes the config its points share and each point's slice of
    its checked stack.
    """
    phase = _DetectorPhase(cfg, modes)
    kap_max = phase.kap_max
    rho = float(np.hypot(*cfg.offset))

    def slow(theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        kap = kap_max * np.sin(theta)
        ch = _Channels(modes, kap)
        return _angular_rows(cfg, ch, kap, rho) \
            * (kap * kap_max * np.cos(theta))

    pref = _prefactor(cfg, modes)
    matrices = _angular_matrices(cfg)

    def matrix(vec):
        return np.tensordot(pref * vec, matrices[:len(vec)], 1)

    try:
        vec, _ = _integrate_oscillatory(slow, phase, modes, tol)
    except ConvergenceError as exc:
        value = None if exc.value is None else matrix(exc.value)
        raise ConvergenceError(str(exc), value, abs(pref) * exc.error) \
            from exc
    return matrix(vec)


def amplitude_numeric(cfg, tol=1e-6):
    """Biphoton amplitude by quadrature over the propagating disc.

    The angular integral is in closed form, so every detector placement
    feeds one radial engine with the rows of _angular_rows, and the row
    matrices are applied to its result. tol is the relative tolerance
    requested of the quadrature; failure to converge raises
    ConvergenceError carrying the achieved estimate.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    return BiphotonAmplitude.from_matrix(
        _numeric_matrix(cfg, _Modes.of(cfg), tol))


def farfield_matrices(cfg, modes):
    """The far-field amplitude at every point of modes, shape (..., 2, 2).

    cfg supplies the conversion type, the drive and the detector distances;
    modes the frequencies, indices, slab length and pump plane, as scalars
    (one (2, 2) matrix) or as (m,) arrays over axis points ((m, 2, 2)).

    This is the kappa = 0 endpoint term of amplitude_numeric's integral
    (Watson's lemma in s = kappa^2). Near the axis the detector phase is
    Psi = psi0 - s Z/2 + O(s^2), with psi0 = q_s z_s + q_i z_i and
    Z = z_s/q_s + z_i/q_i, so with the J0 row r(kappa) of _angular_rows

        int_0 r(kappa) e^{i Psi} kappa dkappa ~ r(0) e^{i psi0} / (i Z),

    times the prefactor and the chi2 pattern. It holds for collinear
    detectors at any split; displaced ones need amplitude_numeric.
    """
    if not cfg.collinear:
        raise ValueError("far-field form needs zero transverse offset; use "
                         "amplitude_numeric for displaced detectors")
    (row,) = _angular_rows(cfg, modes.normal, 0.0, 0.0)
    psi0 = modes.q_s * cfg.z_signal + modes.q_i * cfg.z_idler
    spread = cfg.z_signal / modes.q_s + cfg.z_idler / modes.q_i
    return np.multiply.outer(
        _prefactor(cfg, modes) * row * np.exp(1j * psi0) / (1j * spread),
        cfg.chi2.pattern)


def amplitude_farfield(cfg):
    """Leading-order amplitude for distant collinear detectors.

    The one-point case of farfield_matrices: the kappa = 0 endpoint term
    r(0) e^{i psi0} / (i Z) of the transverse integral, at any split.
    Displaced detectors must go through amplitude_numeric.
    """
    return BiphotonAmplitude.from_matrix(farfield_matrices(cfg,
                                                           _Modes.of(cfg)))
