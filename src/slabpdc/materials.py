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

from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
class MaterialDispersion:
    """Complex refractive index n(omega), linearly interpolated in omega.

    omega, n_real, n_imag are equal-length arrays with omega strictly
    increasing. A material built with ``constant`` has no range limit.
    """

    omega: np.ndarray
    n_real: np.ndarray
    n_imag: np.ndarray
    name: str = "custom"
    unbounded: bool = False

    def __post_init__(self):
        om = np.atleast_1d(np.asarray(self.omega, dtype=float))
        nr = np.atleast_1d(np.asarray(self.n_real, dtype=float))
        ni = np.atleast_1d(np.asarray(self.n_imag, dtype=float))
        if not (om.size == nr.size == ni.size):
            raise ValueError("omega, n_real, n_imag must have equal length")
        if om.size == 0:
            raise ValueError("empty dispersion table")
        if not np.isfinite(np.concatenate((om, nr, ni))).all():
            raise ValueError("dispersion samples must be finite")
        if om.size > 1 and not np.all(np.diff(om) > 0):
            raise ValueError("samples must be strictly increasing in omega")
        if np.any(ni < 0):
            raise ValueError("n_imag < 0 (gain) is not supported")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "n_real", nr)
        object.__setattr__(self, "n_imag", ni)

    @classmethod
    def from_wavelength_samples(cls, samples, name="custom"):
        """Build from (vacuum wavelength [nm], n', n'') triples."""
        rows = sorted(samples, key=lambda s: 2.0 * np.pi * C_LIGHT / (s[0] * 1e-9))
        om = np.array([2.0 * np.pi * C_LIGHT / (lam * 1e-9) for lam, _, _ in rows])
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
        return replace(self, n_imag=np.full_like(self.n_real, float(n_imag)))

    @property
    def omega_min(self):
        return float(self.omega[0])

    @property
    def omega_max(self):
        return float(self.omega[-1])


def bbo_ordinary():
    """Ordinary-ray BBO index at the three operating wavelengths.

    1064 nm -> 1.65, 532 nm -> 1.67, 266 nm -> 1.75; lossless by default,
    attach absorption with ``with_absorption``.
    """
    return MaterialDispersion.from_wavelength_samples(
        [(1064.0, 1.65, 0.0), (532.0, 1.67, 0.0), (266.0, 1.75, 0.0)],
        name="bbo_ordinary")


def vacuum():
    """n = 1 at every frequency."""
    return MaterialDispersion.constant(1.0, 0.0, name="vacuum")


BUILTIN_MATERIALS = {"bbo_ordinary": bbo_ordinary, "vacuum": vacuum}


def material_from_table(text, name="table"):
    """Parse a plain-text index table.

    One sample per line: ``lambda_nm n_real n_imag``; '#' starts a comment,
    blank lines ignored. Interpolation happens in angular frequency.
    """
    samples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected 'lambda_nm n_real n_imag', got {raw!r}")
        try:
            lam, nr, ni = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric field in {raw!r}") from exc
        if lam <= 0:
            raise ValueError(f"line {lineno}: wavelength must be positive")
        samples.append((lam, nr, ni))
    if not samples:
        raise ValueError("no samples in material table")
    return MaterialDispersion.from_wavelength_samples(samples, name=name)


def reject(bad, error, message):
    """Raise ``error(message(i))`` at the first point i where ``bad`` holds.

    ``bad`` is a bool for one point or a bool array over m stacked axis
    points; ``message`` formats the text for point i. The exception carries
    i as ``index`` (0 for one point), so a check applied to a stack rejects
    the same point, with the same message, as its one-point form would.
    """
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        i = int(np.argmax(bad))
    elif not bad:
        return
    else:
        i = 0
    exc = error(message(i))
    exc.index = i
    raise exc


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
    bad = np.logical_not((w > 0) & (w < np.inf))
    if bounded:
        bad = bad | (w < lo - slack) | (w > hi + slack)

    def message(i):
        x = np.ravel(omega)[i]
        if not x > 0:
            return f"omega must be positive, got {x}"
        if not bounded:
            return f"omega must be finite, got {x}"
        return (f"omega = {x:.6e} rad/s outside the sampled range "
                f"[{lo:.6e}, {hi:.6e}] of material {material.name!r}")

    reject(bad, DispersionRangeError, message)
    if not bounded:
        n = complex(material.n_real[0], material.n_imag[0])
        return n if w.ndim == 0 else np.full(w.shape, n)
    # np.interp holds the edge samples past the ends, within the slack
    nr = np.interp(w, material.omega, material.n_real)
    ni = np.interp(w, material.omega, material.n_imag)
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
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    for name, value in (("omega", omega), ("length", length)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive")
    if fraction == 0.0:
        return 0.0
    decay = -np.log(1.0 - fraction)
    if convention == "intensity":
        return decay * C_LIGHT / (2.0 * omega * length)
    if convention == "amplitude":
        return decay * C_LIGHT / (omega * length)
    raise ValueError(f"unknown loss convention {convention!r}")


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


def kinematics(omega, n, k_perp=(0.0, 0.0)):
    """ModeKinematics for frequency omega and complex index n.

    k = n omega/c, q = omega/c, longitudinal components by the Im >= 0
    branch rule. Valid for any transverse vector, including the evanescent
    sector |k_perp| > q. omega and n may be arrays over axis points, and
    k_perp may be arrays over nodes; all of them broadcast together.
    """
    reject(np.logical_not((omega > 0) & (omega < np.inf)), ValueError,
           lambda i: "omega must be positive and finite")
    kx, ky = np.asarray(k_perp[0], dtype=float), np.asarray(k_perp[1], dtype=float)
    if kx.ndim == 0:
        kx, ky = float(kx), float(ky)
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
    at normal incidence. Both faces see vacuum, hence r21 = r23.
    """
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

def _complex(eps):
    """eps as a Python complex for one point, a complex array for a stack."""
    if isinstance(eps, np.ndarray) and eps.ndim:
        return eps.astype(complex, copy=False)
    return complex(eps)


def local_field(eps):
    """Local-field correction L[eps] = (2/(9 eps0)) (eps - 1)/eps."""
    eps = _complex(eps)
    reject(eps == 0, ZeroDivisionError,
           lambda i: "local_field singular at eps = 0")
    return (2.0 / (9.0 * EPS0)) * (eps - 1.0) / eps


def noise_factor(eps):
    """Noise-polarization enhancement A = 1 - 2 i eps0 eps'' L[eps].

    Equals 1 - (4 i / 9) eps'' (eps - 1)/eps; reduces to exactly 1 for a
    lossless medium (eps'' = 0). The amplitude prefactor carries the complex
    conjugate A* once per down-converted mode, so count rates scale with
    |A(omega_s)|^2 |A(omega_i)|^2. eps may be an array over axis points.
    """
    eps = _complex(eps)
    reject(eps == 0, ZeroDivisionError,
           lambda i: "noise_factor singular at eps = 0")
    lossless = eps.imag == 0.0
    if isinstance(eps, complex):
        if lossless:
            return 1.0 + 0.0j
        return 1.0 - 2j * EPS0 * eps.imag * local_field(eps)
    return np.where(lossless, 1.0 + 0.0j,
                    1.0 - 2j * EPS0 * eps.imag * local_field(eps))


# ---------------------------------------------------------------------------
# Crystal description shared by the Green-function and amplitude layers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrystalSlab:
    """A planar nonlinear crystal of thickness ``length`` in vacuum."""

    material: MaterialDispersion = field(default_factory=bbo_ordinary)
    length: float = 2e-3

    def __post_init__(self):
        if not 0 < self.length < np.inf:
            raise ValueError("crystal length must be positive and finite")

    def index(self, omega):
        return dispersion_eval(self.material, omega)

    def eps(self, omega):
        n = self.index(omega)
        return n * n
