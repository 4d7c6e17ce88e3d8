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

The radial integral is carried in u, the q_z of the kappa_max = min(q_s,
q_i) mode, as d = kappa_max - u (_DetectorPhase): the measure kappa dkappa
is u dd, and the square-root branch point of q_z at grazing is the plain
endpoint u = 0. The detector phase Psi = z_s q_zs + z_i q_zi oscillates
~q z / 2 pi times over the disc. The radial integral splits at the cut d_c
after 512 phase cycles (Newton, _DetectorPhase.cut) and closes the tail
with a three-term integration-by-parts series in 1/(i Psi') there. A
closure whose series ratio shows no clear convergence is refused, and the
head is then the whole disc (below); no other cut is tried.

The head [0, d_c] is exact. In s = kappa^2 it is the difference of two
contours (numerical steepest descent: Huybrechs and Vandewalle, SIAM J.
Numer. Anal. 44 (2006) 1026), from s = 0 and from s_c = kappa(d_c)^2 into
Im s < 0, on which e^{i Psi} decays like e^{-t}: Gauss-Laguerre nodes in t
sit on each (_path_sums), and the order doubles from 8 until two orders
agree (_path_head). s = 0, the stationary point of Psi in kappa, is a
plain endpoint in s. Every contour is one straight ray in u from its start
(_path_nodes), whose node weights carry the exact phase factor
e^{i (Psi(u) - Psi(u0)) + t}; by Cauchy's theorem any such ray into the
decaying half plane gives the same integral. From the axis and from the
cut the ray is the tangent of the steepest-descent path: when signal and
idler share one vacuum wavenumber (a degenerate split, at any z_s and z_i)
Psi is linear in u, the tangent is the path and the factor is 1. With
8 + 16 nodes a contour and 9 for the tail stencil, an amplitude takes 57
integrand nodes. The contours are laid before the tail is checked, so the
9 stencil nodes and the 48 contour nodes go through the kernel in one
call: an amplitude's time is per-call overhead, not node count.

With too few cycles for a cut (thin slabs at close range), or with the
closure refused, the head is the whole disc [0, s_max], s_max =
kappa_max^2, the same difference with its second contour from grazing,
u = 0. s_max is a branch point, and the slab's guided-mode poles lie just
above the real axis beyond it (Michalski and Mosig, J. Electromagn. Waves
Appl. (2016)), so that ray leaves at 45 degrees in u, where the integrand
is analytic. A thin slab takes 48 nodes, 8 + 16 on each contour; a refused
cut hands the disc its contour from the axis and their rows, so the disc
adds the ray's 24. A head that either contour refuses (a row that is not
finite, a tol below the rounding floor, or orders that still disagree at
_PATH_NODES_MAX) raises ConvergenceError. Displaced detectors at close
range refuse: J_n(kappa rho) grows along a path faster than e^{-t} decays
once q rho^2/z passes about 100 (q the vacuum wavenumber; a 0.3 mm offset
at 1 cm, 0.2 mm at 4 mm).

What each route computes. By Cauchy's theorem the whole transverse plane
is I_SD(0), the steepest-descent path from s = 0 alone: the half-line
s > s_max moves onto the ray from grazing, and the ray's integral is the
evanescent sector; the disc is I_SD(0) minus it. A cut's tail series is
the asymptotic series of its s_c endpoint, and the grazing endpoint's
term, which it drops, is minus the evanescent sector. So a cut amplitude
tracks the full plane: at 1 m and 3 m (2 mm slab, Types I and II,
lossless and at a 4% split) it is 3e-11 to 1.4e-9 from I_SD(0) and
3.7e-9 to 2.4e-8, the size of the evanescent sector, from the disc. The
series' own truncation error is not held to tol: 1.5e-3 of the amplitude
at 1 cm (Type I, collinear, degenerate). The disc route returns the disc
alone, without the evanescent sector: 4e-5 of the amplitude for a 0.1 mm
slab 0.15 mm out, 1.3e-5 for a 2 mm slab at 1.2 mm, 4.7e-6 at 3 mm.

The per-node kernel (_Channels, then _angular_rows) takes complex kappa on
the contours and kappa on the real axis on the tail stencil, from the
public integrands and at the far field's kappa = 0, all through one
kinematics, _path_leg. A node takes two complex exponentials,
e^{i k_z L/2} of each split mode, and one at a degenerate split, where
signal and idler are one mode; every slab phase is a product of them and
of the pump's, with half the rounding error of exp of the rounded sum
sk L/2 (_Channels).

The Bessel rows J0, J2 and J4 of complex z = kappa rho are numpy code
(_bessel_rows): the power series (DLMF 10.2.2) at small |z|, Bessel's
integral (DLMF 10.9.1) by the trapezoid rule in between, and the Hankel
expansion (DLMF 10.17.3) at large |z|. Against 30-digit values they are
within 2.2e-16 absolute on the real axis up to 400 and 2.2e-15 relative at
the path nodes of 20 um and 0.2 mm offsets, where |Im z| reaches 74.

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
the one-point stack, so a config's far field is the same bit for bit from
either (within 1e-15 on a crystal_length sweep). Every kernel works
elementwise, so a point's value does not depend on the points stacked with
it. The numeric route integrates point by point on the same split:
_numeric_matrices takes the config the points share and the checked stack,
and hands _numeric_matrix one point's _Modes, sliced from it, at a time.

No amplitude, far-field or numeric, collinear or displaced, imports
scipy: the Bessel rows and the Gauss-Laguerre rule are numpy's, and
importing scipy.special would add about 0.25 s and 25 MB to a slabpdc
process. Only greens uses it, as an independent oracle. New numeric code
follows the same rule.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .greens import Chi2Geometry
from .materials import (C_LIGHT, EPS0, HBAR, TEM, CrystalSlab,
                        noise_factor, reject)
from .quadrature import ConvergenceError

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
# integrated exactly before the integration-by-parts tail, whose closure is
# refused (the head is then the full disc) above TAIL_RATIO_LIMIT.
_KEPT_CYCLES = 512
_TAIL_RATIO_LIMIT = 0.1
# Contour head: Gauss-Laguerre orders double from _PATH_NODES up to
# _PATH_NODES_MAX while the N and 2N sums disagree. The full disc ends on
# the ray from grazing that leaves the u axis at _RAY_ANGLE (_path_nodes).
_PATH_NODES = 8
_PATH_NODES_MAX = 64
_RAY_ANGLE = 0.25 * np.pi
_EPS = np.finfo(float).eps
# Bessel rows (_bessel_rows), by |z|: the power series below _SERIES_BELOW,
# the trapezoid rule on Bessel's integral up to _HANKEL_FROM, the Hankel
# expansion beyond. Each stops where its first omitted term is below
# _BESSEL_TRUNCATION. The switch points, measured against 30-digit values
# on arcs |z| = r, -pi/2 <= arg z <= 0, relative to |J_n|: the series is
# 5.6e-16 off at 2.99 and 4.3e-15 at 5 (its terms grow like I_n(|z|));
# the trapezoid's J4 is a cancellation near 0, 2.5e-14 off at 1 and
# 4.7e-12 at 0.3. Relative to e^{|Im z|}/sqrt(|z|): the Hankel expansion
# with the 10 pairs that 25 needs is 2.0e-16 off at 24.99 and 3.4e-13 at
# 15; the trapezoid, on 18 nodes there, 9.5e-16.
_SERIES_BELOW = 3.0
_HANKEL_FROM = 25.0
_BESSEL_TRUNCATION = 2.0 ** -56


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
    """Frequency-level constants: indices, the pump's slab factors, noise.

    Built from the three frequencies, their indices, the slab length and
    the pump plane; the normal-incidence pump's pieces are the products
    _Channels uses, with the TEM coefficients of ``fresnel``. Each input
    may be a scalar (one config, ``_Modes.of``; ``stacked=True`` makes its
    indices (1,) arrays, a one-point sweep) or an (m,) array over the axis
    points of a sweep; every attribute then broadcasts over that leading
    axis. ``degenerate`` is true when signal and idler are one mode (equal
    frequency and index) at every point.
    """

    def __init__(self, omega_s, omega_i, omega_p, n_s, n_i, n_p, length,
                 pump_z):
        self.omega_s, self.omega_i, self.omega_p = omega_s, omega_i, omega_p
        self.length, self.pump_z = length, pump_z
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
        omegas = (cfg.signal_frequency, cfg.idler_frequency,
                  cfg.pump_frequency)
        indices = cfg.crystal.index(np.array(omegas, dtype=float))
        indices = indices.reshape(3, 1) if stacked else indices.tolist()
        return cls(*omegas, *indices, cfg.crystal.length, cfg.pump_z)

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
            * np.exp(1j * (modes.omega_p / C_LIGHT) * modes.pump_z)
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


def _angular_matrices(cfg):
    """Constant 2x2 matrix of each angular row, psi the offset direction."""
    psi = np.arctan2(cfg.offset[1], cfg.offset[0])
    c2, s2 = math.cos(2.0 * psi), math.sin(2.0 * psi)
    if cfg.chi2.kind == "I":
        mats = [cfg.chi2.pattern, [[c2, s2], [s2, -c2]]]
    else:
        c4, s4 = math.cos(4.0 * psi), math.sin(4.0 * psi)
        mats = [cfg.chi2.pattern, 2.0 * s2 * np.eye(2),
                [[s4, -c4], [-c4, -s4]], [[0.0, 2.0 * c2], [-2.0 * c2, 0.0]]]
    return np.array(mats, dtype=complex)


def _reach(log_c, power):
    """|z| at which e^{log_c} |z/2|^power falls to _BESSEL_TRUNCATION."""
    return 2.0 * math.exp((math.log(_BESSEL_TRUNCATION) - log_c) / power)


@functools.cache
def _series_table(count):
    """(reach, c) for J0, J2 (and J4 if count is 3), built on first use:
    J_n = sum_j c[n, j] z^{2j}, c = (-1)^k/(4^j k! (k + n)!) at j = k + n/2
    (DLMF 10.2.2), and reach[M - 1] the largest |z| at which each order's
    first term omitted with M powers is _BESSEL_TRUNCATION of its first."""
    orders = range(0, 2 * count, 2)
    reach = []
    while not reach or reach[-1] < _SERIES_BELOW:
        m = len(reach) + 1
        reach.append(min(
            _reach(math.lgamma(n + 1) - math.lgamma(m - n // 2 + 1)
                   - math.lgamma(m + n // 2 + 1), 2 * m - n)
            if m > n // 2 else 0.0 for n in orders))
    coef = np.zeros((count, len(reach)))
    for i, n in enumerate(orders):
        for k in range(len(reach) - n // 2):
            coef[i, k + n // 2] = (-1) ** k / (
                4 ** (k + n // 2) * math.factorial(k) * math.factorial(k + n))
    coef.flags.writeable = False
    return tuple(reach), coef


@functools.cache
def _trapezoid_reach(count):
    """reach[K - 1], the largest |z| that K + 1 trapezoid nodes serve: the
    rule aliases J_{4K-n} into J_n, and |J_nu(z)| <= |z/2|^nu e^{|Im z|}/nu!
    (DLMF 10.14.4), against the J_n scale e^{|Im z|}/sqrt(|z|)."""
    reach = []
    while not reach or reach[-1] < _HANKEL_FROM:
        nu = 4 * len(reach) + 6 - 2 * count
        reach.append(_reach(0.5 * math.log(2.0) - math.lgamma(nu + 1),
                            nu + 0.5) if nu > 0 else 0.0)
    return tuple(reach)


@functools.cache
def _trapezoid_nodes(k, count):
    """sin(theta_j) and the weights (1/K) w_j cos(n theta_j) of the K + 1
    trapezoid nodes theta_j = j pi/(2K), for J0, J2 (and J4)."""
    theta = np.arange(k + 1) * (0.5 * np.pi / k)
    weights = np.cos(np.multiply.outer((0, 2, 4)[:count], theta)) / k
    weights[:, [0, -1]] *= 0.5
    sines = np.sin(theta)
    sines.flags.writeable = weights.flags.writeable = False
    return sines, weights


@functools.cache
def _hankel_table(count):
    """(-1)^{n/2+k} a_2k(n) over (-1)^{n/2+k} a_2k+1(n) for J0, J2 (and J4)
    (DLMF 10.17.1), up to the first pair k whose terms at |z| =
    _HANKEL_FROM are below _BESSEL_TRUNCATION."""
    n = np.arange(0, 2 * count, 2)[:, None]
    k = np.arange(1, 64)
    a = np.cumprod(np.hstack([np.ones((count, 1)),
                              (4 * n * n - (2 * k - 1) ** 2) / (8.0 * k)]),
                   axis=1)
    small = np.abs(a) / _HANKEL_FROM ** np.arange(64) < _BESSEL_TRUNCATION
    pairs = int(np.argmax((small[:, ::2] & small[:, 1::2]).all(axis=0)))
    sign = (-1.0) ** (n // 2 + np.arange(pairs))
    table = np.vstack([sign * a[:, :2 * pairs:2], sign * a[:, 1:2 * pairs:2]])
    table.flags.writeable = False
    return table


def _powers(x, m):
    """x^0, ..., x^{m-1}, shape (m, n) for n values x."""
    p = np.empty((m, x.size), x.dtype)
    p[0] = 1.0
    p[1:] = x
    return np.multiply.accumulate(p, out=p)


def _bessel_series(z, count, top):
    """DLMF 10.2.2 in z^2, M powers from the largest |z|."""
    reach, coef = _series_table(count)
    m = bisect.bisect_left(reach, top) + 1
    return coef[:, :m] @ _powers(z * z, m)


def _bessel_trapezoid(z, count, top):
    """(2/pi) int_0^{pi/2} cos(z sin theta) cos(n theta) dtheta, n even
    (DLMF 10.9.1), K from the largest |z|: one cos and one matmul."""
    k = bisect.bisect_left(_trapezoid_reach(count), top) + 1
    sines, weights = _trapezoid_nodes(k, count)
    return weights @ np.cos(np.multiply.outer(sines, z))


def _bessel_hankel(z, count):
    """DLMF 10.17.3 with cos(z - n pi/2 - pi/4) = (-1)^{n/2} (cos z +
    sin z)/sqrt 2, so that a large real z keeps its absolute accuracy. J_n
    of even n is even, so z is taken with Re z >= 0."""
    z = np.where(z.real < 0.0, -z, z)
    w = 1.0 / z
    table = _hankel_table(count)
    even_odd = table @ _powers(w * w, table.shape[1])
    c, s = np.cos(z), np.sin(z)
    return ((c + s) * even_odd[:count] - (s - c) * w * even_odd[count:]) \
        / np.sqrt(np.pi * z)


def _bessel_rows(z, count):
    """J0, J2 (and J4 if count is 3) at n values z (or one), shape
    (count, n), each z in its regime of |z|. A call that one regime covers
    skips the split."""
    z = np.atleast_1d(z)
    size = np.abs(z)
    top = size.max()
    if top < _SERIES_BELOW:
        return _bessel_series(z, count, top)
    if top < _HANKEL_FROM and size.min() >= _SERIES_BELOW:
        return _bessel_trapezoid(z, count, top)
    out = np.empty((count, z.size), np.result_type(z, 1.0))
    series, hankel = size < _SERIES_BELOW, size >= _HANKEL_FROM
    middle = ~(series | hankel)
    if series.any():
        out[:, series] = _bessel_series(z[series], count, size[series].max())
    if middle.any():
        out[:, middle] = _bessel_trapezoid(z[middle], count,
                                           size[middle].max())
    if hankel.any():
        out[:, hankel] = _bessel_hankel(z[hankel], count)
    return out


def _angular_rows(cfg, ch, kappa, rho):
    """Rows of the angular integral per unit kappa, detector phase excluded.

    1/(4 pi k_zs k_zi) csinc e^{i sk L/2} (an extra 1/2 for pattern
    "II") times a channel sum and its Bessel factor of kappa rho. With
    TT = X_TE,TE, MM = (c_s c_i)^2 X_TM,TM, EM = c_i^2 X_TE,TM and
    ME = c_s^2 X_TM,TE the rows are (TT+MM) J0, (TT-MM) J2 for "I" and
    (TT+ME+EM+MM) J0, (TT-MM) J2, ((TT+MM)-(EM+ME)) J4, (EM-ME) J2 for "II".
    On axis J_n(0) = 0 for n > 0, so only the J0 row is returned; the
    radial measure kappa dkappa is the caller's. kappa may be complex (the
    contour nodes): J0, J2 and J4 are even, so either root of s = kappa^2
    gives the same rows.
    """
    c_s, c_i = ch.sig.c, ch.idl.c
    cc = c_s * c_i
    tt = ch.x[0, 0]
    mm = cc * cc * ch.x[1, 1]
    denom = 4.0 * np.pi * ch.sig.k_z * ch.idl.k_z
    if cfg.chi2.kind == "II":
        denom = 2.0 * denom
        me = c_s * c_s * ch.x[1, 0]
        em = c_i * c_i * ch.x[0, 1]
        first = tt + me + em + mm
    else:
        first = tt + mm
    weight = ch.slab / denom
    if rho == 0.0:
        return np.asarray(weight * first)[None]
    # J_n grows like e^{|Im kappa rho|} and overflows far out on a contour,
    # in the Hankel regime's cos and sin; _path_sums refuses the rows.
    with np.errstate(invalid="ignore", over="ignore"):
        bessel = _bessel_rows(kappa * rho, 3 if cfg.chi2.kind == "II" else 2)
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
# Oscillatory radial engine
# ---------------------------------------------------------------------------

class _DetectorPhase:
    """Psi = z_s q_zs + z_i q_zi in u, the kappa_max mode's q_z.

    kappa_max = min(q_s, q_i), and every point is carried as
    d = kappa_max - u, so that s = kappa^2 = d (2 kappa_max - d) keeps its
    relative precision near the axis (d = 0) as u does near grazing
    (d = kappa_max). The two split modes are grouped by vacuum wavenumber,
    one group at a degenerate split: the kappa_max group's q_z is u itself,
    its phase Z0 u with Z0 the group's summed z, and any other group's q_z
    is R = sqrt(u^2 + D), D = q^2 - kappa_max^2, principal root. Two
    functions carry the phase and every view of it:

        rise(d, d0) = Psi(u) - Psi(u0)
                    = (d0 - d) [Z0 + sum z (u + u0)/(R + R0)],
        slope(u)    = dPsi/du = Z0 + sum z u/R,

    rise cancellation-free, so a node far out on a path keeps its phase to
    rounding in t. With one group Psi is linear in u.

    At laboratory distances Psi(0) = z_s q_s + z_i q_i runs to ~1e6 rad,
    and the argument rounding of exp(1j*Psi) (about Psi*eps) times the
    cancellation of the oscillatory integral sets a hard relative error
    floor well above machine precision. The engine therefore integrates
    against the referenced phase Psi - Psi(0) = rise(d, 0), whose span is
    only the kept-cycle window, and restores exp(1j*Psi(0)) once on the
    final result. In d, dPsi/dd = -slope(u).
    """

    def __init__(self, cfg, modes):
        k = min(modes.q_s, modes.q_i)
        self.kap_max = k
        groups = {}
        for q, z in ((modes.q_s, cfg.z_signal), (modes.q_i, cfg.z_idler)):
            groups[q] = groups.get(q, 0.0) + z
        self.z0 = groups.pop(k)
        self.others = [((q - k) * (q + k), z) for q, z in groups.items()]
        self.psi_ref = modes.q_s * cfg.z_signal + modes.q_i * cfg.z_idler

    def rise(self, d, d0):
        """Psi(u) - Psi(u0) at u = kappa_max - d, u0 = kappa_max - d0."""
        bracket = self.z0
        for big, z in self.others:
            u, u0 = self.kap_max - d, self.kap_max - d0
            bracket = bracket + z * (u + u0) / (np.sqrt(u * u + big)
                                                + np.sqrt(u0 * u0 + big))
        return (d0 - d) * bracket

    def slope(self, u):
        """dPsi/du."""
        total = self.z0
        for big, z in self.others:
            total = total + z * u / np.sqrt(u * u + big)
        return total

    def cut(self, kept):
        """d_c with rise(d_c, 0) = -2 pi kept, by Newton in d.

        rise(d, 0) falls and is convex in d (its d-derivative -slope(u)
        rises with d), so Newton from the axis, d = 0, climbs to the root
        from below; it stops when a step no longer raises d.
        """
        k, d = self.kap_max, 0.0
        while True:
            far = d + (self.rise(d, 0.0) + _TWO_PI * kept) / self.slope(k - d)
            if not far > d:
                return d
            d = far


def _stencil(d0, kappa0):
    """The 9-point tail stencil d0 + h (-4, ..., 4) inside (0, kappa_max),
    and its step h = min(1e-5 kappa0, d0/8), kappa0 the cut's kappa."""
    h = min(1e-5 * kappa0, d0 / 8.0)
    return d0 + h * np.arange(-4, 5), h


def _tail_terms(g, phase, grid, h):
    """Integration-by-parts boundary data at the cut d0 = grid[4].

    g is the (m, 9) stack of slow(d) on the _stencil grid about d0, from
    the caller's kernel call. u1 = g/(i Psi'), u2 = -u1'/(i Psi'),
    u3 = -u2'/(i Psi'), derivatives by 5-point central differences; Psi' =
    -slope(u) is evaluated once on the grid. Returns (boundary value
    e^{i rise(d0, 0)}(u1+u2+u3), series ratio, size of the last kept term).
    The caller owns the e^{i Psi(0)} reference.
    """
    slope = -1j * np.broadcast_to(phase.slope(phase.kap_max - grid),
                                  grid.shape)
    u1 = g / slope
    d1 = (u1[:, :-4] - 8.0 * u1[:, 1:-3] + 8.0 * u1[:, 3:-1] - u1[:, 4:]) \
        / (12.0 * h)                                    # u1' on the 5 middle nodes
    u2 = -d1 / slope[2:7]
    d2 = (u2[:, 0] - 8.0 * u2[:, 1] + 8.0 * u2[:, 3] - u2[:, 4]) / (12.0 * h)
    u3 = -d2 / slope[4]
    boundary = np.exp(1j * phase.rise(grid[4], 0.0)) \
        * (u1[:, 4] + u2[:, 2] + u3)
    n1 = float(np.sum(np.abs(u1[:, 4])))
    n2 = float(np.sum(np.abs(u2[:, 2])))
    n3 = float(np.sum(np.abs(u3)))
    ratio = n2 / n1 if n1 > 0.0 else (0.0 if n2 == 0.0 else np.inf)
    return boundary, ratio, n3


@functools.cache
def _laguerre(order):
    return np.polynomial.laguerre.laggauss(order)


def _path_nodes(phase, d_c, orders):
    """(t, d, dsdt): the Laguerre nodes t of these orders, and the (2, n)
    nodes d and weights ds/dt e^{i rise(d, d0) + t} of the straight
    contours from the axis, d0 = 0, and from d0 = d_c.

    A contour is u = u0 + t du (d = d0 - t du, ds/dt = -2 u du) along
    du = (cot alpha + i)/slope(u0): the tangent of the steepest-descent
    path (alpha = pi/2) from the axis and from a cut, and the ray at
    alpha = _RAY_ANGLE from grazing, the branch point u0 = 0, where
    slope(0) = Z0. The weight carries the part of e^{i rise(d, d0)} that
    the Laguerre weight e^{-t} leaves out; it is 1 at one vacuum
    wavenumber, where Psi is linear in u and the tangent is the path.
    """
    k = phase.kap_max
    t = np.concatenate([_laguerre(n)[0] for n in orders])
    d0 = np.array([[0.0], [d_c]])
    tilt = 1.0 / np.tan(_RAY_ANGLE) if d_c == k else 0.0
    du = np.array([[1j], [tilt + 1j]]) / phase.slope(k - d0)
    step = t * du
    d = d0 - step
    return t, d, -2.0 * (k - d0 + step) * du * np.exp(
        1j * phase.rise(d, d0) + t)


def _path_sums(rows, phase, d_c, orders, solved=None):
    """The head [0, s_c] as I(0) - I(s_c), at each Gauss-Laguerre order.

    In s = kappa^2 the head is (1/2) int_0^{s_c} rows e^{i rise(d, 0)} ds,
    and by Cauchy's theorem it equals the difference of two contours that
    leave 0 and s_c into Im s < 0, Im u > 0 in u = kappa_max - d: the
    straight contours of _path_nodes, each
    I(d0) = (1/2) e^{i rise(d0, 0)} sum_j w_j rows(kappa_j) dsdt_j, with
    kappa = sqrt(s), s = d (2 kappa_max - d). From grazing, d_c =
    kappa_max, the head is the full disc and needs no tail. The nodes of
    every order go through rows in one call. solved = (t, d, dsdt, rows)
    brings _path_nodes at these orders and the rows at their leading nodes
    from the caller's kernel call with its tail stencil: both contours of
    a cut, so that no rows call is made here, or the contour from the axis
    alone, which the full disc then completes with the ray's rows.
    Returns one (m,) head per order, or None if a row is not finite (J_n
    of a complex kappa rho can overflow far out on a contour).
    """
    k = phase.kap_max
    if solved is None:
        solved = _path_nodes(phase, d_c, orders) + (None,)
    t, d, dsdt, values = solved
    done = 0 if values is None else values.shape[-1]
    if done < d.size:
        fresh = rows(np.sqrt(d * (2.0 * k - d)).ravel()[done:])
        values = fresh if values is None else np.hstack([values, fresh])
    if not np.isfinite(values).all():
        return None
    lead = np.array([[0.5], [-0.5 * np.exp(1j * phase.rise(d_c, 0.0))]])
    terms = values.reshape(-1, 2, len(t)) * (lead * dsdt)
    ends = itertools.accumulate(orders)
    return [(terms[..., end - n:end] @ _laguerre(n)[1]).sum(axis=-1)
            for n, end in zip(orders, ends)]


def _path_head(rows, phase, modes, d_c, tol, solved=None):
    """_path_sums' head, with N doubled from _PATH_NODES until it converges.

    The error is the 1-norm over the rows of the difference of the N and 2N
    heads plus a rounding floor: a node carries the rounding of the phases
    it exponentiates, eps Phi relative with Phi = |rise(d_c, 0)| +
    (|k_p| + |k_s| + |k_i|) L, the detector phase at the cut (at grazing,
    d_c = kappa_max, for the full disc) and the slab's. The 2N head is
    returned once the error is within tol/2 of it. Raises ConvergenceError
    as soon as _path_sums refuses a row that is not finite, when the floor
    alone exceeds tol/2 (about 7e-11 for a 2 mm slab), or when the check
    still fails at order _PATH_NODES_MAX. The error carries the last 2N
    head and its error, or None and inf if no order pair was summed.
    solved, if given, is _path_sums' for the first order pair.
    """
    phi = abs(phase.rise(d_c, 0.0)) + modes.length * (
        abs(modes.k_p) + abs(modes.k_s) + abs(modes.k_i))
    orders, sums, err = (_PATH_NODES, 2 * _PATH_NODES), [], np.inf
    while True:
        new = _path_sums(rows, phase, d_c, orders, solved)
        if new is None:
            raise ConvergenceError(
                f"contour refused at order {orders[-1]}: a row not finite",
                sums[-1] if sums else None, err)
        solved = None
        sums += new
        size = float(np.abs(sums[-1]).sum())
        floor = _EPS * phi * size
        err = float(np.abs(sums[-1] - sums[-2]).sum()) + floor
        if err <= 0.5 * tol * size:
            return sums[-1], err
        if floor > 0.5 * tol * size:
            raise ConvergenceError(
                f"tol = {tol:.1e} is below the contour's rounding floor "
                f"({2.0 * floor / size:.1e})", sums[-1], err)
        if orders[-1] >= _PATH_NODES_MAX:
            raise ConvergenceError(
                f"contour orders {orders[-1] // 2} and {orders[-1]} differ "
                f"by {err / size:.1e} (tol {tol:.1e})", sums[-1], err)
        orders = (2 * orders[-1],)


def _integrate_oscillatory(rows, phase, modes, tol):
    """Head-plus-tail evaluation of int_0^{kappa_max} rows e^{i Psi} kappa
    dkappa.

    rows maps a complex kappa array to the (m, n) stack of _angular_rows;
    in d = kappa_max - u the measure kappa dkappa is u dd. Returns (vector
    of m integrals, error estimate). With more than 1.5 _KEPT_CYCLES phase
    cycles, the tail is closed at the one cut after _KEPT_CYCLES (module
    notes) and the head is [0, d_c]; with fewer, or the closure refused
    (series ratio above _TAIL_RATIO_LIMIT), the head is the full disc
    [0, kappa_max] and there is no tail. Either head is _path_head's.

    The nodes of both cut contours are laid at the first order pair before
    the tail is checked, and the 9 stencil kappa (on the real axis) and the
    48 contour kappa go through rows in one call. If the
    closure is refused, the full disc takes the contour from the axis and
    its rows from that call and evaluates only the ray's. Raises
    _path_head's ConvergenceError with the tail and the e^{i Psi(0)}
    reference phase added to its value.
    """
    k = phase.kap_max
    cycles = -phase.rise(k, 0.0) / _TWO_PI
    d_c, tail, err_tail, solved = k, 0.0, 0.0, None
    if cycles > 1.5 * _KEPT_CYCLES:
        d_cut = phase.cut(_KEPT_CYCLES)
        grid, h = _stencil(d_cut, math.sqrt(d_cut * (2.0 * k - d_cut)))
        orders = (_PATH_NODES, 2 * _PATH_NODES)
        t, d, dsdt = _path_nodes(phase, d_cut, orders)
        nodes = np.concatenate([grid, d.ravel()])
        values = rows(np.sqrt(nodes * (2.0 * k - nodes)))
        cut, ratio, n3 = _tail_terms(
            values[:, :len(grid)] * (k - grid), phase, grid, h)
        paths = values[:, len(grid):]
        if ratio <= _TAIL_RATIO_LIMIT:
            d_c, tail, err_tail = d_cut, -cut, n3 * min(1.0, ratio)
            solved = (t, d, dsdt, paths)
        else:
            solved = _path_nodes(phase, k, orders) + (paths[:, :len(t)],)

    ref = np.exp(1j * phase.psi_ref)
    try:
        head, err_head = _path_head(rows, phase, modes, d_c, tol, solved)
    except ConvergenceError as exc:
        value = None if exc.value is None else (exc.value + tail) * ref
        raise ConvergenceError(str(exc), value, exc.error + err_tail) \
            from exc
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
    rho = float(np.hypot(*cfg.offset))

    def rows(kap):
        return _angular_rows(cfg, _Channels(modes, kap), kap, rho)

    pref = _prefactor(cfg, modes)
    matrices = _angular_matrices(cfg)

    def matrix(vec):
        return ((pref * vec) @ matrices[:len(vec)].reshape(len(vec), 4)) \
            .reshape(2, 2)

    try:
        vec, _ = _integrate_oscillatory(rows, phase, modes, tol)
    except ConvergenceError as exc:
        value = None if exc.value is None else matrix(exc.value)
        raise ConvergenceError(str(exc), value, abs(pref) * exc.error) \
            from exc
    return matrix(vec)


def _numeric_matrices(cfg, modes, tol, out):
    """_numeric_matrix at every point of modes, shape (m, 2, 2).

    m is the broadcast size of the fields of modes. Each point is sliced to
    Python scalars, so that its arithmetic is that of ``_Modes.of`` on the
    point's own config, and an error carries its point as ``index``. The
    list ``out`` holds the matrices of the leading points that an earlier
    call on the same points computed; each new point is appended to it, so
    a failed call leaves there every point before its failure.
    """
    fields = (modes.omega_s, modes.omega_i, modes.omega_p, modes.n_s,
              modes.n_i, modes.n_p, modes.length, modes.pump_z)
    size = np.broadcast(*fields).size
    for i, point in enumerate(zip(*(np.broadcast_to(v, (size,)).tolist()
                                    for v in fields))):
        if i >= len(out):
            try:
                out.append(_numeric_matrix(cfg, _Modes(*point), tol))
            except Exception as exc:
                exc.index = i
                raise
    return np.array(out[:size])


def amplitude_numeric(cfg, tol=1e-6):
    """Biphoton amplitude by quadrature over the transverse wave vector.

    The angular integral is in closed form, so a detector placement feeds
    one radial engine with the rows of _angular_rows, and the row matrices
    are applied to its result. tol is the relative tolerance requested of
    the quadrature. The engine's contours converge for collinear detectors
    and for offsets rho up to q rho^2/z of about 100 (q the vacuum
    wavenumber): measured on a 2 mm slab from 2 mm to 0.1 m, they return up
    to 98 (0.5 mm at 3 cm) and refuse from 106 (0.3 mm at 1 cm). A refused
    contour, or a tol below the rounding floor, raises ConvergenceError
    carrying the best value it reached (None if there is none) and its
    error estimate.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
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
    (row,) = _angular_rows(cfg, modes.normal, 0.0, 0.0)
    psi0 = modes.q_s * cfg.z_signal + modes.q_i * cfg.z_idler
    spread = cfg.z_signal / modes.q_s + cfg.z_idler / modes.q_i
    return np.multiply.outer(
        _prefactor(cfg, modes) * row * np.exp(1j * psi0) / (1j * spread),
        cfg.chi2.pattern)


def amplitude_farfield(cfg):
    """Leading-order amplitude for distant collinear detectors.

    farfield_matrices on a one-point stack, (1,) indices as in a sweep, so
    a config has one far-field amplitude, bit for bit, here, in ``slabpdc
    rate`` and in the cells of an ``n_imag`` or ``frequency`` sweep
    (``crystal_length`` cells within 1e-15): 0.12-0.16 ms in process on a
    2-core host, against 0.07-0.11 ms with scalar indices.
    Displaced detectors must go through amplitude_numeric. The relative
    error falls like 1/z but grows near a zero of the normal-incidence
    sinc: 3.8e-3 at 1 m and 3.8e-2 at 0.1 m on a 2 mm slab at a 2% split
    (farfield_matrices).
    """
    (matrix,) = farfield_matrices(cfg, _Modes.of(cfg, stacked=True))
    return BiphotonAmplitude.from_matrix(matrix)
