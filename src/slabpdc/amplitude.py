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
The pump frequency is omega_signal + omega_idler by construction.

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

The radial integral is radial.py's: contours of numerical steepest
descent from the axis and from a cut after 512 detector-phase cycles, an
integration-by-parts tail beyond the cut, the whole disc at close range,
and the Bessel rows of a displaced detector. That module is the numeric
route's alone; amplitude_numeric and the numeric sweeps load it on their
first amplitude (_engine), so a far-field process never compiles it.

The per-node kernel (_Channels, then _angular_rows) takes complex kappa on
the contours and kappa on the real axis on the tail stencil, from the
public integrands and at the far field's kappa = 0, all through one
kinematics, _path_leg. A node takes two complex exponentials,
e^{i k_z L/2} of each split mode, and one at a degenerate split, where
signal and idler are one mode; every slab phase is a product of them and
of the pump's, with half the rounding error of exp of the rounded sum
sk L/2 (_Channels).

The far field is the leading term of the same integral, not a formula of
its own: farfield_matrices takes its kappa = 0 endpoint term (Watson's
lemma in s = kappa^2) from the on-axis row of _angular_rows on the
normal-incidence channels, for collinear detectors at any split. The terms
it leaves out fall off like 1/z.

Stacked points
--------------
A sweep varies one scalar of the config. The frequency-level kernels
(dispersion, kinematics, Fresnel and X factors, noise factors) broadcast
over a leading axis of stacked points, and so does _Channels at kappa = 0:
farfield_matrices gives both conversion types over a whole stack (a
sweep's points, then their lossless reference) in one pass, and
amplitude_farfield is the one-point stack, so a config's far field is the
same bit for bit from either (within 1e-15 on a crystal_length sweep).
Every kernel works elementwise, so a point's value does not depend on the
points stacked with it. The numeric route integrates point by point:
radial._numeric_matrices takes the config the points share and the
fields of the checked stack, and hands _numeric_matrix one point's
_Modes, sliced from them, at a time.

The package needs numpy alone: no amplitude, far-field or numeric, and
not the Green tensor, imports scipy. The Bessel rows (radial._bessel_rows,
which greens shares) and the Gauss-Laguerre rule are numpy code, and
importing scipy.special would add about 0.25 s and 25 MB to a slabpdc
process. New numeric code follows the same rule.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .materials import (C_LIGHT, EPS0, HBAR, TEM, CrystalSlab, _real,
                        _real_k_perp, noise_factor, reject)

__all__ = [
    "Chi2Geometry",
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


# The chi2 patterns of Chi2Geometry.pattern, shared and read-only.
_PATTERNS = {"I": np.eye(2), "II": np.array([[0.0, 1.0], [1.0, 0.0]])}
for _pattern in _PATTERNS.values():
    _pattern.flags.writeable = False
del _pattern


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chi2Geometry:
    """Transverse nonlinear coupling pattern of the conversion process.

    Type I couples parallel outgoing polarizations (pattern = identity on
    the x, y block); Type II couples perpendicular ones (exchange matrix).
    The patterns are fixed by the conversion type and are not user data;
    d is the scalar susceptibility strength in m/V and multiplies the
    amplitude prefactor, not the contraction.
    """

    kind: str
    d: float = 1.0

    def __post_init__(self):
        if self.kind not in ("I", "II"):
            raise ValueError(f"conversion type must be 'I' or 'II', "
                             f"got {self.kind!r}")
        object.__setattr__(self, "d", _real("d", self.d))
        if not 0 < self.d < np.inf:
            raise ValueError("susceptibility strength d must be positive "
                             "and finite")

    @property
    def pattern(self):
        """The 2x2 pattern, a writable copy of the shared constant."""
        return _PATTERNS[self.kind].copy()


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one coincidence measurement.

    pump_field is the incident vacuum amplitude E_p [V/m] of the pump, its
    phase taken at the entry face. The pump splits into the signal and
    idler frequencies [rad/s], so its own frequency is their sum
    (``pump_frequency``, read-only). Detectors sit on the transmission side
    at z_signal, z_idler [m], displaced transversely by
    offset = rho_signal - rho_idler [m]. Every number is stored as a float.
    """

    crystal: CrystalSlab
    chi2: Chi2Geometry
    pump_field: float
    signal_frequency: float
    idler_frequency: float
    z_signal: float
    z_idler: float
    offset: tuple = (0.0, 0.0)

    def __post_init__(self):
        try:
            dx, dy = self.offset
            off = (_real("offset", dx), _real("offset", dy))
        except (TypeError, ValueError):
            raise ValueError("offset must be two numbers (dx, dy), got "
                             f"{self.offset!r}") from None
        object.__setattr__(self, "offset", off)
        for name in ("pump_field", "signal_frequency", "idler_frequency",
                     "z_signal", "z_idler"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        check_point(self.crystal.length, self.pump_field,
                    self.signal_frequency, self.idler_frequency,
                    self.z_signal, self.z_idler, off)

    @property
    def pump_frequency(self):
        """The pump's frequency [rad/s]: signal + idler."""
        return self.signal_frequency + self.idler_frequency

    @property
    def collinear(self):
        return self.offset == (0.0, 0.0)


def check_point(length, pump_field, signal_frequency, idler_frequency,
                z_signal, z_idler, offset):
    """The checks of one ExperimentConfig, on one point or on m stacked.

    Any number may be an array over axis points; a failing check raises at
    the first point that fails it (``materials.reject``).
    """
    for name, value in (("pump_field", pump_field),
                        ("signal_frequency", signal_frequency),
                        ("idler_frequency", idler_frequency),
                        ("z_signal", z_signal), ("z_idler", z_idler)):
        reject((value != value) | (abs(value) == math.inf), ValueError,
               lambda i: f"{name} must be finite")
    if not (math.isfinite(offset[0]) and math.isfinite(offset[1])):
        raise ValueError("offset must be finite")
    reject(pump_field <= 0, ValueError,
           lambda i: "pump_field must be positive")
    reject((signal_frequency <= 0) | (idler_frequency <= 0), ValueError,
           lambda i: "split frequencies must be positive")
    reject(signal_frequency + idler_frequency == math.inf, ValueError,
           lambda i: "the pump frequency, signal + idler, must be finite")
    half = 0.5 * length
    reject((z_signal <= half) | (z_idler <= half), ValueError,
           lambda i: "detectors must sit beyond the exit face, z > +L/2")


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
    return (np.abs(np.asarray(matrices)) ** 2).sum(axis=(-2, -1))


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
    """Frequency-level constants: indices, the pump's slab factors, noise.

    Built from the signal and idler frequencies, the three indices (signal,
    idler, pump) and the slab length; the pump's frequency is the pair's
    sum, omega_p = omega_s + omega_i. The normal-incidence pump's pieces
    are the products _Channels uses, with the TEM coefficients of
    ``fresnel``. Each input may be a scalar (one config, ``_Modes.of``;
    ``stacked=True`` makes its indices (1,) arrays, a one-point sweep) or
    an array over the points of a sweep: (m,), or a ``crystal_length``
    sweep's (2, 1) indices against its (m,) lengths; every attribute then
    broadcasts to the points' shape. ``degenerate`` is true when signal
    and idler are one mode (equal frequency and index) at every point.
    """

    def __init__(self, omega_s, omega_i, n_s, n_i, n_p, length):
        self.omega_s, self.omega_i = omega_s, omega_i
        self.omega_p = omega_p = omega_s + omega_i
        self.length = length
        self.n_s, self.n_i, self.n_p = n_s, n_i, n_p
        same = (omega_s == omega_i) & (n_s == n_i)
        # a point compares Python numbers: a bool, with no all()
        self.degenerate = same if isinstance(same, bool) else bool(same.all())
        self.eps_s = n_s * n_s
        self.eps_i = n_i * n_i
        # The pump in the scheme of _path_leg: k_p, h_p = e^{i k_p L/2},
        # r_p and t m = t_p / (1 - r_p^2 h_p^4).
        self.k_p = n_p * omega_p / C_LIGHT
        self.h_p = np.exp(0.5j * self.k_p * length)
        self.r_p = (n_p - 1.0) / (n_p + 1.0)
        h2 = self.h_p * self.h_p
        self.tm_p = 2.0 / (n_p + 1.0) / (1.0 - self.r_p * self.r_p * h2 * h2)
        self.q_s = omega_s / C_LIGHT
        self.q_i = omega_i / C_LIGHT
        self.k_s = n_s * omega_s / C_LIGHT
        self.k_i = n_i * omega_i / C_LIGHT
        a_s = noise_factor(self.eps_s).conjugate()
        self.noise = a_s * (a_s if self.degenerate else
                            noise_factor(self.eps_i).conjugate())

    @classmethod
    def of(cls, cfg, stacked=False):
        sig, idl = cfg.signal_frequency, cfg.idler_frequency
        indices = cfg.crystal.index(np.array((sig, idl, sig + idl)))
        indices = indices.reshape(3, 1) if stacked else indices.tolist()
        return cls(sig, idl, *indices, cfg.crystal.length)


def _prefactor(cfg, modes):
    """Common amplitude prefactor: pump drive, z-integral length, noise.

    hbar E_p L d / (4 pi i eps0) * (w_s^2 w_i^2 / c^4) * e^{-i q_p L/2}
    * A*(w_s) A*(w_i), with the pump's phase taken at the entry face,
    z = -L/2. That phase cancels in the rate.
    """
    om_s, om_i = modes.omega_s, modes.omega_i
    return (HBAR * cfg.pump_field * modes.length * cfg.chi2.d
            / (4j * np.pi * EPS0)
            * (om_s * om_s * om_i * om_i / C_LIGHT ** 4)
            * np.exp(1j * (modes.omega_p / C_LIGHT) * (-0.5 * modes.length))
            * modes.noise)


# One split mode at the nodes (_path_leg): its longitudinal wave numbers,
# the TM legs' in-crystal direction cosine, its half-slab phase and its
# Fresnel pieces, these two as (2, ...) stacks over (TE, TM).
_Leg = collections.namedtuple("_Leg", "k_z q_z c h r tm")


def _path_leg(omega, n, eps, s, half_l):
    """_Leg(k_z, q_z, c, h, r, tm) of one split mode at s = kappa^2: kappa
    on a contour (Im kappa^2 < 0) or real inside the propagating disc
    (0 <= kappa < q), half_l = i L/2.

    Both longitudinal components take the principal root. On a contour
    k^2 - s has Im > 0 (Im k^2 >= 0), so the root is branch_sqrt's, and
    q^2 - s is off the cut of the vacuum root; on the real disc both roots
    are those of ``kinematics`` bit for bit. c = k_z/k, h = e^{i k_z L/2},
    and r and tm = t M are the TE and TM coefficients of ``fresnel`` with
    M = 1/(1 - r^2 h^4), so both polarizations share one exponential.
    """
    k = (n + 0j) * omega / C_LIGHT
    q = omega / C_LIGHT
    kz = np.sqrt(k * k - s)
    qz = np.sqrt(q * q - s)
    h = np.exp(half_l * kz)
    h2 = h * h
    load = eps * qz
    inv = 1.0 / np.array((kz + qz, kz + load))
    r = np.array((kz - qz, kz - load)) * inv
    lift = np.array((2.0 * kz, 2.0 * (k / q) * kz))
    return _Leg(kz, qz, kz / k, h, r,
                lift * inv / (1.0 - r * r * (h2 * h2)))


class _Channels:
    """kappa-dependent pieces shared by every integration path.

    Vectorized over kappa; every kappa, real (the public integrands, the
    tail stencil, the far field's kappa = 0) or complex (the contour
    nodes), goes through _path_leg. The fields:

        sig, idl  the signal and idler _Leg;
        delta_k   the longitudinal mismatch k_p - k_zs - k_zi;
        x         the X factors, a (2, 2, ...) stack over the signal and
                  idler polarizations, each in (TE, TM);
        slab      the slab phase csinc(dk L/2) e^{i sk L/2}.

    A node costs two complex exponentials, h_s = e^{i k_zs L/2} and
    h_i = e^{i k_zi L/2}; the pump's h_p = e^{i k_p L/2} is one per
    _Modes. At a degenerate split (``_Modes.degenerate``) the idler leg is
    the signal's, computed once, which is the same arithmetic on the same
    inputs, so the node costs one exponential. Every L-scale phase is a
    product of them: M = 1/(1 - r^2 h^4) for both polarizations of a mode,
    the slab phase e^{i sk L/2} = h_p h_s h_i and the back-face loop
    e^{i sk L}, its square. Each factor carries the rounding of its own
    k_z L/2 only, while exp of the rounded sum sk L/2 also carries the
    rounding of that sum: on a 2 mm slab the product is within 8.6e-12 of
    the 40-digit phase and the exp of the sum 1.7e-11 (the loop, 1.7e-11
    and 3.4e-11). The X factors are (t m)_p (t m)_s (t m)_i (1 + r_p r_s
    r_i e^{i sk L}) with the coefficients of ``fresnel``; they match
    ``x_factor`` of the public pieces to 5e-12.
    """

    def __init__(self, modes, kappa):
        s = kappa * kappa
        half_l = 0.5j * modes.length
        self.sig = sig = _path_leg(modes.omega_s, modes.n_s, modes.eps_s, s,
                                   half_l)
        self.idl = idl = (sig if modes.degenerate else _path_leg(
            modes.omega_i, modes.n_i, modes.eps_i, s, half_l))
        self.delta_k = modes.k_p - sig.k_z - idl.k_z
        half = modes.h_p * sig.h * idl.h
        loop = modes.r_p * half * half
        self.x = (modes.tm_p * sig.tm)[:, None] * idl.tm \
            * (1.0 + (loop * sig.r)[:, None] * idl.r)
        self.slab = complex_sinc(0.5 * self.delta_k * modes.length) * half


def _channel_sums(ch, kinds):
    """TT, MM, EM, ME of _angular_rows (EM, ME None without "II") and per
    conversion type in kinds its weight and J0 channel sum, each piece
    formed once."""
    c_s, c_i = ch.sig.c, ch.idl.c
    cc = c_s * c_i
    tt, mm = ch.x[0, 0], cc * cc * ch.x[1, 1]
    denom = 4.0 * np.pi * ch.sig.k_z * ch.idl.k_z
    me = em = None
    if "II" in kinds:
        me, em = c_s * c_s * ch.x[1, 0], c_i * c_i * ch.x[0, 1]
    return tt, mm, em, me, [
        (ch.slab / (2.0 * denom), tt + me + em + mm) if kind == "II"
        else (ch.slab / denom, tt + mm) for kind in kinds]


def _angular_rows(cfg, ch, kappa, rho):
    """Rows of the angular integral per unit kappa, detector phase excluded.

    1/(4 pi k_zs k_zi) csinc e^{i sk L/2} (an extra 1/2 for pattern
    "II") times a channel sum and its Bessel factor of kappa rho. With
    TT = X_TE,TE, MM = (c_s c_i)^2 X_TM,TM, EM = c_i^2 X_TE,TM and
    ME = c_s^2 X_TM,TE the rows are (TT+MM) J0, (TT-MM) J2 for "I" and
    (TT+ME+EM+MM) J0, (TT-MM) J2, ((TT+MM)-(EM+ME)) J4, (EM-ME) J2 for "II"
    (_channel_sums). On axis J_n(0) = 0 for n > 0, so only the J0 row is
    returned; the radial measure kappa dkappa is the caller's. kappa may be
    complex (the contour nodes): J0, J2 and J4 are even, so either root of
    s = kappa^2 gives the same rows.
    """
    tt, mm, em, me, ((weight, first),) = _channel_sums(ch, (cfg.chi2.kind,))
    if rho == 0.0:
        return np.asarray(weight * first)[None]
    # J_n grows like e^{|Im kappa rho|} and overflows far out on a contour,
    # in the Hankel regime's cos and sin; _path_sums refuses the rows.
    with np.errstate(invalid="ignore", over="ignore"):
        bessel = _engine()._bessel_rows(
            kappa * rho, (0, 2, 4) if cfg.chi2.kind == "II" else (0, 2))
        rows = [weight * first * bessel[0], weight * (tt - mm) * bessel[1]]
        if cfg.chi2.kind == "II":
            rows += [weight * ((tt + mm) - (em + me)) * bessel[2],
                     weight * (em - me) * bessel[1]]
    return np.stack(rows)


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
    c_s, c_i = ch.sig.c, ch.idl.c
    a = np.array([[s, -c], [-c_s * c, -c_s * s]])
    b = np.array([[-s, c], [c_i * c, c_i * s]])
    return np.einsum("sln,tmn,san,ab,tbn,stn->nlm", a, b, a, pattern, b,
                     ch.x)


def _integrand(k_perp, cfg, kind):
    kx, ky = _real_k_perp(k_perp)
    shape = np.shape(kx)
    kx, ky = np.atleast_1d(kx), np.atleast_1d(ky)
    kappa = np.hypot(kx, ky)
    modes = _Modes.of(cfg)
    kap_max = min(modes.q_s, modes.q_i)
    reject(~((0.0 < kappa) & (kappa < kap_max)), ValueError,
           lambda i: f"|k_perp| = {kappa[i]:.6e} outside the open "
           f"propagating disc (0, {kap_max:.6e})")
    ch = _Channels(modes, kappa)
    b = _polarization_sum(_PATTERNS[kind], ch, np.arctan2(ky, kx))
    dx, dy = cfg.offset
    phase = np.exp(1j * (kx * dx + ky * dy)) \
        * np.exp(1j * (ch.sig.q_z * cfg.z_signal
                       + ch.idl.q_z * cfg.z_idler))
    w = ch.slab * phase / (_TWO_PI ** 2 * ch.sig.k_z * ch.idl.k_z)
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
# Amplitudes
# ---------------------------------------------------------------------------

def amplitude_numeric(cfg, tol=1e-6):
    """Biphoton amplitude by quadrature over the transverse wave vector.

    The angular integral is in closed form, so a detector placement feeds
    one radial engine (radial.py, loaded on the first call) with the rows
    of _angular_rows, and the row matrices are applied to its result. tol
    is the relative tolerance requested of the quadrature. The engine's
    contours converge for collinear detectors and for offsets rho up to
    q rho^2/z of about 100 (q the vacuum wavenumber): measured on a 2 mm
    slab from 2 mm to 0.1 m, they return up to 98 (0.5 mm at 3 cm) and
    refuse from 106 (0.3 mm at 1 cm). A refused contour, or a tol below
    the rounding floor, raises ConvergenceError carrying the best value it
    reached (None if there is none) and its error estimate.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    return BiphotonAmplitude.from_matrix(
        _engine()._numeric_matrix(cfg, _Modes.of(cfg), tol))


@functools.cache
def _engine():
    """The numeric engine, radial.py, imported on its first use."""
    from . import radial
    return radial


def farfield_matrices(cfg, modes):
    """The far-field amplitudes of both conversion types at every point of
    modes: {"I": ..., "II": ...}, each of shape (..., 2, 2).

    cfg supplies the drive and the detector distances (one pass serves
    both types), modes the frequencies, indices and slab length, as
    scalars (one (2, 2) matrix per type) or as arrays over stacked points
    (shape (..., 2, 2), the points' broadcast shape first).

    This is the kappa = 0 endpoint term of amplitude_numeric's integral
    (Watson's lemma in s = kappa^2). Near the axis the detector phase is
    Psi = psi0 - s Z/2 + O(s^2), with psi0 = q_s z_s + q_i z_i and
    Z = z_s/q_s + z_i/q_i, so with the J0 row r(kappa) of _angular_rows

        int_0 r(kappa) e^{i Psi} kappa dkappa ~ r(0) e^{i psi0} / (i Z),

    times the prefactor and the chi2 pattern. It holds for collinear
    detectors at any split; displaced ones need amplitude_numeric.

    The terms left out fall off like 1/z, relative to a leading term that
    carries csinc(dk L/2) of the normal-incidence mismatch. Near a sinc
    zero that term shrinks and they do not, so the relative error grows.
    On a 2 mm slab (Type I, n'' = 1e-6), against amplitude_numeric at
    tol = 1e-7, it is 9.6e-4 at 1 m at the degenerate split (9.5e-3 at
    0.1 m), but 3.8e-3 at 1 m and 3.8e-2 at 0.1 m at a 2% split, where
    dk L/2 lies 0.16 rad above 598 pi.
    """
    if not cfg.collinear:
        raise ValueError("far-field form needs zero transverse offset; use "
                         "amplitude_numeric for displaced detectors")
    *_, sums = _channel_sums(_Channels(modes, 0.0), ("I", "II"))
    pref = _prefactor(cfg, modes)
    phase = np.exp(1j * (modes.q_s * cfg.z_signal + modes.q_i * cfg.z_idler))
    spread = 1j * (cfg.z_signal / modes.q_s + cfg.z_idler / modes.q_i)
    # each type left to right, as the J0 row's ((pref r) e^{i psi0}) / (i Z)
    return {kind: np.multiply.outer(pref * (weight * first) * phase / spread,
                                    _PATTERNS[kind])
            for kind, (weight, first) in zip(("I", "II"), sums)}


def amplitude_farfield(cfg):
    """Leading-order amplitude for distant collinear detectors.

    farfield_matrices on a one-point stack, (1,) indices as in a sweep, so
    a config has one far-field amplitude, bit for bit, here, in ``slabpdc
    rate`` and in the cells of an ``n_imag`` or ``frequency`` sweep
    (``crystal_length`` cells within 1e-15), both conversion types in one
    pass. Its time is the traced ``amplitude.farfield.self_s`` of
    ``perfbench/run.py``, recorded in the BENCH_*.json files.
    Displaced detectors must go through amplitude_numeric. The relative
    error falls like 1/z but grows near a zero of the normal-incidence
    sinc: 3.8e-3 at 1 m and 3.8e-2 at 0.1 m on a 2 mm slab at a 2% split
    (farfield_matrices).
    """
    (matrix,) = farfield_matrices(cfg, _Modes.of(cfg, stacked=True))[
        cfg.chi2.kind]
    return BiphotonAmplitude.from_matrix(matrix)
