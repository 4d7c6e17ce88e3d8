"""Dispersion data, wave-vector kinematics, and interface optics.

Everything downstream (Green functions, down-conversion amplitudes) consumes
the values produced here, so the conventions are pinned in one place:

Units
-----
SI throughout. Angular frequencies in rad/s, lengths in m, wave numbers in
1/m. Refractive indices are complex, n = n' + i n'' with n'' >= 0 for
passive media.

Geometry
--------
The crystal slab occupies z in [-L/2, +L/2]; region 1 (z < -L/2) and
region 3 (z > +L/2) are vacuum. Superscripts on Fresnel coefficients name
the regions seen from inside the slab: r21 reflects off the entry face,
r23 off the exit face, t12 transmits pump in, t23 transmits signal/idler out.

Branch rule
-----------
All longitudinal roots k_z = sqrt(k^2 - |k_perp|^2) are taken with
Im(k_z) >= 0: absorbed and evanescent waves decay in the propagation
direction. The principal numpy branch already satisfies this for passive
media; the explicit flip below keeps the rule airtight for edge cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

# Physical constants (CODATA 2018). Frozen here rather than imported so the
# exact values used by every formula are visible in one place.
C_LIGHT = 2.99792458e8        # speed of light [m/s]
HBAR = 1.054571817e-34        # reduced Planck constant [J s]
EPS0 = 8.8541878128e-12       # vacuum permittivity [F/m]

TE = "TE"
TM = "TM"
TEM = "TEM"

# Relative slack when checking that a frequency lies inside the sampled
# range. Lets 2*omega(532nm) hit the 266nm edge sample despite rounding.
_RANGE_SLACK = 1e-9


class DispersionRangeError(ValueError):
    """Frequency outside the sampled dispersion range."""


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available value and its error estimate so callers can
    decide whether the achieved accuracy is still usable. Raised by the
    numeric amplitude and by the Green tensor's quadrature; defined here,
    beside the other error every route can raise, so that no route loads
    another's module for it.
    """

    def __init__(self, message, value, error):
        super().__init__(message)
        self.value = value
        self.error = error

    def __reduce__(self):
        # the default rebuilds cls(*args) from the message alone; a pickle
        # (a process pool's result) or copy needs value and error too
        return type(self), (*self.args, self.value, self.error), self.__dict__


@dataclass(frozen=True)
class MaterialDispersion:
    """Complex refractive index n(omega), linearly interpolated in omega.

    omega, n_real, n_imag are equal-length arrays with omega >= 0 strictly
    increasing, kept as read-only copies. A material built with
    ``constant`` has no range limit.
    """

    omega: np.ndarray
    n_real: np.ndarray
    n_imag: np.ndarray
    name: str = "custom"
    unbounded: bool = False

    def __post_init__(self):
        # read-only copies: a table never changes after its checks, so one
        # instance can be shared (the builtin factories return one).
        # dispersion_eval interpolates from private writable copies, since
        # np.interp copies a read-only table on every call.
        tables, private = [], []
        for name in ("omega", "n_real", "n_imag"):
            table = np.array(getattr(self, name), dtype=float, ndmin=1)
            private.append(table.copy())
            table.flags.writeable = False
            object.__setattr__(self, name, table)
            tables.append(table.tolist())
        object.__setattr__(self, "_tables", tuple(private))
        # the checks run on Python floats: tables hold a handful of samples
        om, nr, ni = tables
        if not (len(om) == len(nr) == len(ni)):
            raise ValueError("omega, n_real, n_imag must have equal length")
        if not om:
            raise ValueError("empty dispersion table")
        if not all(map(math.isfinite, om + nr + ni)):
            raise ValueError("dispersion samples must be finite")
        if not all(a < b for a, b in zip(om, om[1:])):
            raise ValueError("samples must be strictly increasing in omega")
        if om[0] < 0:
            raise ValueError("omega samples must not be negative")
        if min(ni) < 0:
            raise ValueError("n_imag < 0 (gain) is not supported")

    @classmethod
    def from_wavelength_samples(cls, samples, name="custom"):
        """Build from (vacuum wavelength [nm], n', n'') triples."""
        rows = list(samples)
        if not all(0.0 < lam < math.inf for lam, _, _ in rows):
            raise ValueError("wavelengths must be positive and finite")
        # increasing omega is decreasing wavelength
        rows.sort(key=lambda s: s[0], reverse=True)
        om = np.array([2.0 * np.pi * C_LIGHT / (lam * 1e-9)
                       for lam, _, _ in rows])
        nr = np.array([n for _, n, _ in rows])
        ni = np.array([k for _, _, k in rows])
        return cls(om, nr, ni, name=name)

    @classmethod
    def constant(cls, n_real, n_imag=0.0, name="constant"):
        """Frequency-independent index, valid at any omega."""
        return cls(np.array([1.0]), np.array([float(n_real)]),
                   np.array([float(n_imag)]), name=name, unbounded=True)

    def with_absorption(self, n_imag):
        """Copy with n'' replaced by a frequency-independent scalar."""
        return type(self)(self.omega, self.n_real,
                          np.full_like(self.n_real, float(n_imag)),
                          self.name, self.unbounded)

    def __reduce__(self):
        # rebuilt through __post_init__: an unpickled array is writable
        return type(self), (self.omega, self.n_real, self.n_imag, self.name,
                            self.unbounded)

    @property
    def omega_min(self):
        return float(self.omega[0])

    @property
    def omega_max(self):
        return float(self.omega[-1])


@cache
def bbo_ordinary():
    """Ordinary-ray BBO index at the three operating wavelengths.

    1064 nm -> 1.65, 532 nm -> 1.67, 266 nm -> 1.75; lossless by default,
    attach absorption with ``with_absorption``. Built once: every call
    returns the same (immutable) instance.
    """
    return MaterialDispersion.from_wavelength_samples(
        [(1064.0, 1.65, 0.0), (532.0, 1.67, 0.0), (266.0, 1.75, 0.0)],
        name="bbo_ordinary")


@cache
def vacuum():
    """n = 1 at every frequency; one shared instance, as ``bbo_ordinary``."""
    return MaterialDispersion.constant(1.0, 0.0, name="vacuum")


BUILTIN_MATERIALS = {"bbo_ordinary": bbo_ordinary, "vacuum": vacuum}


def reject(bad, error, message):
    """Raise ``error(message(i))`` at the first point i where ``bad`` holds.

    ``bad`` is a bool for one point or a bool array over m stacked axis
    points; ``message`` formats the text for point i. The exception carries
    i as ``index`` (0 for one point), so a check applied to a stack rejects
    the same point, with the same message, as its one-point form would.
    """
    i = _first(bad)
    if i is not None:
        exc = error(message(i))
        exc.index = i
        raise exc


def _real(name, value):
    """float(value), or ValueError("<name> must be a real number") for an
    array, text, a complex number (numpy's too, which float() would cut to
    its real part) or anything else float() refuses."""
    if not isinstance(value, (str, bytes, complex, np.complexfloating)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be a real number")


def _first(bad):
    """reject's point: the first i where ``bad`` holds, or None."""
    if isinstance(bad, np.ndarray):
        return int(np.argmax(bad)) if bad.any() else None
    return 0 if bad else None


def dispersion_eval(material, omega):
    """Complex refractive index n'(omega) + i n''(omega).

    Linear interpolation in omega between samples; evaluation exactly at a
    sample returns the sample. omega may be an array of axis points, which
    gives an array of indices. Raises DispersionRangeError outside the
    sampled interval (with a hair of slack for rounding at the edges); its
    ``index`` is the first offending point.
    """
    w = np.asarray(omega, dtype=float)
    bounded = not (material.unbounded or material.omega.size == 1)
    lo, hi = material.omega_min, material.omega_max
    slack = _RANGE_SLACK * hi
    low, high = (lo - slack, hi + slack) if bounded else (0.0, math.inf)
    # the range is an interval, so a stack is inside if its extremes are;
    # a NaN makes them NaN, which is outside. Only a point or stack that
    # fails this test is searched for its first offender; an empty stack
    # has none and passes as (high, low).
    if w.ndim == 0:
        a = b = float(w)
    else:
        a, b = (float(w.min()), float(w.max())) if w.size else (high, low)
    if not (0.0 < a and low <= a and b <= high and b < math.inf):

        def message(i):
            x = np.ravel(omega)[i]
            if not x > 0:
                return f"omega must be positive, got {x}"
            if not bounded:
                return f"omega must be finite, got {x}"
            return (f"omega = {x:.6e} rad/s outside the sampled range "
                    f"[{lo:.6e}, {hi:.6e}] of material {material.name!r}")

        reject(~((w > 0) & (w < np.inf) & (w >= low) & (w <= high)),
               DispersionRangeError, message)
    # np.interp holds the edge samples past the ends: within the slack, or
    # at any omega for an unbounded table
    om, n_real, n_imag = material._tables
    nr = np.interp(w, om, n_real)
    ni = np.interp(w, om, n_imag)
    if w.ndim == 0:
        return complex(float(nr), float(ni))
    n = np.empty(w.shape, dtype=complex)
    n.real, n.imag = nr, ni
    return n


def absorption_to_n_imag(fraction, omega, convention="intensity", length=0.01):
    """n'' equivalent to losing ``fraction`` of the light over ``length``.

    convention='intensity': exp(-2 n'' omega length / c) = 1 - fraction.
    convention='amplitude': exp(-  n'' omega length / c) = 1 - fraction.
    The distinction matters because loss-per-cm figures in the literature
    rarely say which is meant; both are supported and documented.
    """
    # the power of the field decay that the fraction measures
    power = {"intensity": 2.0, "amplitude": 1.0}.get(convention)
    if power is None:
        raise ValueError(f"unknown loss convention {convention!r}")
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    for name, value in (("omega", omega), ("length", length)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive")
    if fraction == 0.0:
        return 0.0
    return -np.log(1.0 - fraction) * C_LIGHT / (power * omega * length)


# ---------------------------------------------------------------------------
# Wave-vector kinematics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeKinematics:
    """Wave-vector data for one mode at one frequency, or at m stacked ones.

    k and k_z are in-crystal (complex for lossy media), q and q_z in vacuum.
    k_perp is the real transverse vector (k_x, k_y). The exact identity
    k_z^2 + |k_perp|^2 = k^2 holds by construction.
    """

    omega: float | np.ndarray
    k: complex | np.ndarray
    k_z: complex | np.ndarray
    q: float | np.ndarray
    q_z: complex | np.ndarray
    k_perp: tuple = (0.0, 0.0)

    @property
    def kappa(self):
        """|k_perp|. Scalar for scalar components, array for array ones."""
        out = np.hypot(self.k_perp[0], self.k_perp[1])
        return float(out) if np.ndim(out) == 0 else out


def branch_sqrt(radicand):
    """sqrt with Im >= 0 (decaying evanescent/absorbed waves).

    Not holomorphic across the flip, so never differentiate through it with
    a complex step.
    """
    w = np.sqrt(np.asarray(radicand, dtype=complex))
    w = np.where(w.imag < 0.0, -w, w)
    if w.ndim == 0:
        return complex(w)
    return w


def _real_k_perp(k_perp):
    """The components (k_x, k_y) of k_perp as floats, or float arrays.

    A component that is not real or not finite raises ValueError at its
    first such node, which the exception carries as ``index``.
    """
    kx, ky = np.asarray(k_perp[0]), np.asarray(k_perp[1])
    if kx.dtype.kind == "c" or ky.dtype.kind == "c":
        reject((kx.imag != 0) | (ky.imag != 0), ValueError,
               lambda i: "k_perp must be real")
        kx, ky = kx.real, ky.real
    kx, ky = kx.astype(float, copy=False), ky.astype(float, copy=False)
    if kx.ndim == ky.ndim == 0:
        kx, ky = float(kx), float(ky)
        bad = not (math.isfinite(kx) and math.isfinite(ky))
    else:
        bad = np.logical_not(np.isfinite(kx) & np.isfinite(ky))
    reject(bad, ValueError, lambda i: "k_perp must be finite")
    return kx, ky


def kinematics(omega, n, k_perp=(0.0, 0.0)):
    """ModeKinematics for frequency omega and complex index n.

    k = n omega/c, q = omega/c, longitudinal components by the Im >= 0
    branch rule. Valid for any transverse vector, including the evanescent
    sector |k_perp| > q. omega and n may be arrays over axis points, and
    k_perp may be arrays over nodes; all of them broadcast together. A
    k_perp that is not finite or not real raises ValueError at its first
    such node.
    """
    reject(np.logical_not((omega > 0) & (omega < np.inf)), ValueError,
           lambda i: "omega must be positive and finite")
    reject(np.logical_not(np.isfinite(n)), ValueError,
           lambda i: "index n must be finite")
    kx, ky = _real_k_perp(k_perp)
    kap2 = kx * kx + ky * ky
    k = (n + 0j) * omega / C_LIGHT
    q = omega / C_LIGHT
    k_z = branch_sqrt(k * k - kap2)
    # The vacuum radicand is real: a real root, times i where it is
    # evanescent, is branch_sqrt's value bit for bit at a fraction of the cost.
    rad = q * q - kap2
    root = np.sqrt(np.abs(rad))
    q_z = np.where(rad < 0.0, 1j * root, root + 0j)
    if q_z.ndim == 0:
        q_z = complex(q_z)
    return ModeKinematics(omega=omega, k=k, k_z=k_z, q=q, q_z=q_z,
                          k_perp=(kx, ky))


# ---------------------------------------------------------------------------
# Fresnel coefficients and multiple scattering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FresnelSet:
    """Interface coefficients for one polarization at one frequency.

    r21/r23: reflection inside the slab off the entry/exit face.
    t: t12 (into the slab) for the TEM pump, t23 (out of the slab) for
    TE/TM signal and idler. m: multiple-scattering resummation factor
    1/(1 - r21 r23 exp(2 i k_z L)). Vacuum gives r = 0, t = 1, m = 1.
    """

    r21: complex
    r23: complex
    t: complex
    m: complex
    polarization: str


def fresnel(sigma, kin, eps, length):
    """FresnelSet for polarization sigma at the kinematics kin.

    TE:  r = (k_z - q_z)/(k_z + q_z),       t23 = 2 k_z/(k_z + q_z)
    TM:  r = (k_z - eps q_z)/(k_z + eps q_z), t23 = 2 n k_z/(k_z + eps q_z)
    TEM (normal-incidence pump, k_perp must be 0):
         r = (n - 1)/(n + 1), t12 = 2/(n + 1)

    The TM transmission carries the index factor n of the physical
    p-polarized field coefficient, so that t23_TE(0) = t23_TM(0) = 2n/(n+1)
    at normal incidence. Both faces see vacuum, hence r21 = r23. A NaN
    length, eps or wavenumber kin.k raises ValueError.
    """
    for name, x in (("length", length), ("eps", eps), ("k", kin.k)):
        reject(np.isnan(x), ValueError, lambda i: f"fresnel: {name} is NaN")
    kz, qz = kin.k_z, kin.q_z
    n = kin.k / kin.q
    if sigma == TE:
        r = (kz - qz) / (kz + qz)
        t = 2.0 * kz / (kz + qz)
        m_phase = kz
    elif sigma == TM:
        r = (kz - eps * qz) / (kz + eps * qz)
        t = 2.0 * n * kz / (kz + eps * qz)
        m_phase = kz
    elif sigma == TEM:
        if kin.kappa != 0.0:
            raise ValueError("TEM coefficients require k_perp = 0")
        r = (n - 1.0) / (n + 1.0)
        t = 2.0 / (n + 1.0)
        m_phase = kin.k
    else:
        raise ValueError(f"unknown polarization {sigma!r}")
    m = 1.0 / (1.0 - r * r * np.exp(2j * m_phase * length))
    if np.ndim(r) == 0:
        r, t, m = complex(r), complex(t), complex(m)
    return FresnelSet(r21=r, r23=r, t=t, m=m, polarization=sigma)


# ---------------------------------------------------------------------------
# Local-field correction and the absorption noise factor
# ---------------------------------------------------------------------------

def _checked(eps, name):
    """eps as a Python complex for one point, a complex array for a stack;
    rejected at the first point where it is 0 (ZeroDivisionError) or NaN
    (ValueError), which a stack's error carries as ``index``, as from
    ``reject``."""
    if isinstance(eps, np.ndarray) and eps.ndim:
        eps = eps.astype(complex, copy=False)
    else:
        eps = complex(eps)
    zero = eps == 0
    i = _first(zero | (eps != eps))
    if i is not None:
        exc = (ZeroDivisionError(f"{name} singular at eps = 0")
               if np.ravel(zero)[i] else ValueError(f"{name}: eps is NaN"))
        exc.index = i
        raise exc
    return eps


def _local_field(eps):
    return (2.0 / (9.0 * EPS0)) * (eps - 1.0) / eps


def local_field(eps):
    """Local-field correction L[eps] = (2/(9 eps0)) (eps - 1)/eps.

    eps = 0 raises ZeroDivisionError, a NaN eps ValueError.
    """
    return _local_field(_checked(eps, "local_field"))


def _noise_delta(eps):
    """A - 1 = -2 i eps0 eps'' L[eps] of a checked eps, formed directly: the
    one form of the noise factor, which stays exact however small it is."""
    return -2j * EPS0 * eps.imag * _local_field(eps)


def _noise_factor(eps):
    """noise_factor of a checked eps: a Python complex or a complex array."""
    lossless = eps.imag == 0.0
    if isinstance(eps, complex):
        return 1.0 + 0.0j if lossless else 1.0 + _noise_delta(eps)
    return np.where(lossless, 1.0 + 0.0j, 1.0 + _noise_delta(eps))


def noise_factor(eps):
    """Noise-polarization enhancement A = 1 - 2 i eps0 eps'' L[eps].

    Equals 1 - (4 i / 9) eps'' (eps - 1)/eps; reduces to exactly 1 for a
    lossless medium (eps'' = 0). The amplitude prefactor carries the complex
    conjugate A* once per down-converted mode, so count rates scale with
    |A(omega_s)|^2 |A(omega_i)|^2. eps may be an array over axis points.
    eps = 0 raises ZeroDivisionError, a NaN eps (real or imaginary part)
    ValueError.
    """
    return _noise_factor(_checked(eps, "noise_factor"))


# ---------------------------------------------------------------------------
# Crystal description shared by the Green-function and amplitude layers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrystalSlab:
    """A planar nonlinear crystal of thickness ``length`` in vacuum."""

    material: MaterialDispersion = field(default_factory=bbo_ordinary)
    length: float = 2e-3

    def __post_init__(self):
        object.__setattr__(self, "length", _real("length", self.length))
        if not 0 < self.length < np.inf:
            raise ValueError("crystal length must be positive and finite")

    def index(self, omega):
        return dispersion_eval(self.material, omega)
