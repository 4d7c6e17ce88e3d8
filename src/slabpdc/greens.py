"""Plane-wave building blocks and the slab transmission Green tensor.

The geometry is the one fixed in materials.py: a nonlinear slab filling
|z| <= L/2 between vacuum half-spaces, sources inside the slab, detectors
beyond the output face z = +L/2. Plane waves are labelled by their
transverse wave vector u = (k_x, k_y), kappa = |u|, and split into TE
(M-type) and TM (N-type) modes

    M(u)             = i (u x z_hat),
    N(u, k_z, k, s)  = -(1/k) (u + s k_z z_hat) x (u x z_hat),

with direction sign s = +1 for upward propagation. Both scale linearly
with kappa and are never evaluated at kappa = 0, where the TE/TM split is
direction-degenerate; the contracted integrands downstream stay finite
there because compensating powers of kappa cancel before quadrature.

Sign bookkeeping, fixed once here so every consumer agrees: a Green
function pairs a detector-side leg with a source-side leg. The detector
leg is the upward mode (s = +1) at the detected transverse wave vector;
the source leg belongs to the mirror mode, with both the transverse wave
vector and the direction sign negated. Dyads of a detector leg with its
own source leg then collapse to same-argument products of unit
polarization vectors, which is the form the amplitude pipeline uses. The
explicit wave functions in this module serve the algebra checks and the
point evaluator below.

SI units: wave vectors 1/m, lengths m, the Green tensor 1/m. Complex
square roots follow the Im >= 0 branch rule of materials.branch_sqrt.

The Bessel functions are imported where the point evaluator uses them, not
at module level: importing this module must not load scipy, which would add
about 0.55 s and 47 MB to every slabpdc process on the far-field route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import TE, TM, CrystalSlab, C_LIGHT, fresnel, kinematics
from .quadrature import QuadratureSpec, integrate_radial

__all__ = [
    "WaveFunction",
    "Chi2Geometry",
    "vector_wave_M",
    "vector_wave_N",
    "contract_chi2",
    "dyadic_product",
    "f_factor",
    "scattering_green_point",
]


# --------------------------------------------------------------------------
# vector wave functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveFunction:
    """One TE or TM plane-wave polarization amplitude.

    components is the (unnormalized) 3-vector amplitude; kind is TE or TM;
    k_perp, k_z, k and sign record the generating mode. A TE wave does not
    depend on k_z, k or sign, and stores zeros for them.
    """

    components: np.ndarray
    kind: str
    k_perp: tuple
    k_z: complex = 0j
    k: complex = 0j
    sign: int = 1


def _check_kperp(k_perp):
    kx, ky = complex(k_perp[0]), complex(k_perp[1])
    if kx == 0 and ky == 0:
        raise ValueError(
            "TE/TM directions are degenerate at k_perp = 0; evaluate the "
            "contracted kappa -> 0 limit instead of the wave functions")
    return kx, ky


def vector_wave_M(k_perp):
    """TE wave function i (u x z_hat) = i (k_y, -k_x, 0)."""
    kx, ky = _check_kperp(k_perp)
    comps = np.array([1j * ky, -1j * kx, 0j])
    return WaveFunction(components=comps, kind=TE, k_perp=(kx, ky))


def vector_wave_N(k_perp, k_z, k, sign=1):
    """TM wave function -(1/k) (u + s k_z z_hat) x (u x z_hat).

    Componentwise, (1/k) (-s k_z k_x, -s k_z k_y, kappa^2). For a lossless
    mode (real k_z, kappa) the squared norm is kappa^2, same as the TE one.
    """
    kx, ky = _check_kperp(k_perp)
    if k == 0:
        raise ValueError("TM wave function needs k != 0")
    if sign not in (1, -1):
        raise ValueError("direction sign must be +1 or -1")
    kappa2 = kx * kx + ky * ky
    comps = np.array([-sign * k_z * kx, -sign * k_z * ky, kappa2]) / k
    return WaveFunction(components=comps, kind=TM, k_perp=(kx, ky),
                        k_z=complex(k_z), k=complex(k), sign=sign)


# --------------------------------------------------------------------------
# chi(2) geometry and products
# --------------------------------------------------------------------------

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
        if not 0 < self.d < np.inf:
            raise ValueError("susceptibility strength d must be positive "
                             "and finite")

    @property
    def pattern(self):
        if self.kind == "I":
            return np.eye(2)
        return np.array([[0.0, 1.0], [1.0, 0.0]])


def _check_mirrored(a, b):
    if a.k_perp[0] != -b.k_perp[0] or a.k_perp[1] != -b.k_perp[1]:
        raise ValueError(
            "signal and idler legs must be built from mirrored transverse "
            f"wave vectors, got {a.k_perp} and {b.k_perp}")


def contract_chi2(geom, a, b):
    """Scalar chi(2) contraction of two wave-function source legs.

    Computes sum_{alpha beta} pattern_{alpha beta} a_alpha b_beta over the
    transverse components. The scalar strength d is deliberately not
    applied here; it belongs to the amplitude prefactor.
    """
    _check_mirrored(a, b)
    pat = geom.pattern
    out = 0j
    for alpha in range(2):
        for beta in range(2):
            if pat[alpha, beta]:
                out += pat[alpha, beta] * a.components[alpha] * b.components[beta]
    return out


def dyadic_product(a, b):
    """Outer product a_alpha b_beta of two detector legs (3x3 complex)."""
    _check_mirrored(a, b)
    return np.outer(a.components, b.components)


# --------------------------------------------------------------------------
# slab z-factors
# --------------------------------------------------------------------------

def f_factor(sigma, z_d, z_A, kin, fres, length):
    """Scalar z-propagation factor from a source plane to a detector.

    Sum of the direct wave and the one reflected off the input face, both
    transmitted through the output face and dressed with the
    multiple-reflection resummation:

        t23 e^{i q_z (z_d - L/2)} e^{i k_z L/2}
            [e^{-i k_z z_A} + r21 e^{i k_z (z_A + L)}] m

    In the vacuum limit this collapses to the free phase
    e^{i q_z (z_d - z_A)}. Array-valued kin/fres fields broadcast.
    """
    if fres.polarization != sigma:
        raise ValueError(f"fresnel set is {fres.polarization}, expected {sigma}")
    half = 0.5 * length
    if not (-half <= z_A <= half):
        raise ValueError(f"source plane z_A = {z_A} outside the slab "
                         f"[-L/2, L/2] = [{-half}, {half}]")
    if not z_d > half:
        raise ValueError(f"detector plane z_d = {z_d} must lie beyond the "
                         f"output face z = {half}")
    direct = np.exp(-1j * kin.k_z * z_A)
    reflected = fres.r21 * np.exp(1j * kin.k_z * (z_A + length))
    return (fres.t * np.exp(1j * kin.q_z * (z_d - half))
            * np.exp(1j * kin.k_z * half) * (direct + reflected) * fres.m)


# --------------------------------------------------------------------------
# point Green tensor
# --------------------------------------------------------------------------

def scattering_green_point(r_d, r_A, omega, crystal, spec=None):
    """Transmission Green tensor of the slab, one source/detector pair.

    Evaluates the angular-spectrum integral

        G = (i / 8 pi^2) Int d^2u (1/k_z) e^{i u . (rho_d - rho_A)}
            [ s_hat s_hat F_TE + p_det p_src F_TM ]

    with the angular part done analytically (Bessel J0/J1/J2 in a frame
    rotated so the transverse offset lies along x) and the radial part
    split into a propagating sector (kappa = q sin theta map) plus an
    evanescent tail (q_z = i tau, truncated where e^{-tau (z_d - L/2)}
    reaches ~1e-20). The TM detector leg uses the vacuum polarization
    vector (the detected mode lives in region 3), the source leg the
    crystal one; in the vacuum limit the two coincide and G reproduces
    the free spherical wave.

    This is a validation/diagnostic path: the amplitude pipeline never
    calls it, having already folded the pair of Green functions into a
    single transverse integral.
    """
    r_d = np.asarray(r_d, dtype=float)
    r_A = np.asarray(r_A, dtype=float)
    if not (np.isfinite(r_d).all() and np.isfinite(r_A).all()):
        raise ValueError("source and detector points must be finite")
    length = crystal.length
    half = 0.5 * length
    z_d = float(r_d[2])
    z_A = float(r_A[2])
    if abs(z_A) > half:
        raise ValueError("source point must lie inside the slab")
    if z_d <= half:
        raise ValueError("detector must lie beyond the output face")
    spec = spec or QuadratureSpec()

    n = crystal.index(omega)
    eps = n * n
    q = omega / C_LIGHT
    drho = r_d[:2] - r_A[:2]
    rho = float(np.hypot(drho[0], drho[1]))
    psi = float(np.arctan2(drho[1], drho[0]))

    def profile(kappa):
        """Radial profiles of the five independent tensor entries."""
        from scipy.special import j0, j1, jv

        kin = kinematics(omega, n, (kappa, np.zeros_like(kappa)))
        fres_te = fresnel(TE, kin, eps, length)
        fres_tm = fresnel(TM, kin, eps, length)
        f_te = f_factor(TE, z_d, z_A, kin, fres_te, length)
        f_tm = f_factor(TM, z_d, z_A, kin, fres_tm, length)
        arg = kappa * rho
        b0, b1, b2 = j0(arg), j1(arg), jv(2, arg)
        pref = (1j / (8.0 * np.pi ** 2)) * kappa / kin.k_z
        tt = kin.q_z * kin.k_z / (q * kin.k)     # transverse-transverse TM
        dz = kin.q_z * kappa / (q * kin.k)       # detector-transverse, source-z
        zd = kin.k_z * kappa / (q * kin.k)       # detector-z, source-transverse
        zz = kappa ** 2 / (q * kin.k)
        return np.stack([
            pref * np.pi * (f_te * (b0 + b2) + f_tm * tt * (b0 - b2)),  # xx
            pref * np.pi * (f_te * (b0 - b2) + f_tm * tt * (b0 + b2)),  # yy
            pref * f_tm * (-2j * np.pi) * dz * b1,                      # xz
            pref * f_tm * (-2j * np.pi) * zd * b1,                      # zx
            pref * f_tm * (2.0 * np.pi) * zz * b0,                      # zz
        ])

    # Propagating sector: kappa = q sin(theta) concentrates the stationary
    # region at theta = 0 and removes the 1/q_z endpoint spike. Panels are
    # seeded at a quarter of the fastest phase cycle.
    travel = (z_d - half) + abs(np.real(n)) * (half - z_A) + rho
    cycles = q * travel / (2.0 * np.pi)
    cap = 0.5 * np.pi / max(4.0 * cycles, 1.0)

    def prop(theta):
        s, c = np.sin(theta), np.cos(theta)
        return profile(q * s) * (q * c)

    val_p, _ = integrate_radial(prop, 0.0, 0.5 * np.pi, spec, max_panel=cap)

    # Evanescent tail: q_z = i tau, kappa dkappa = tau dtau. The vacuum gap
    # z_d - L/2 controls the decay whatever the crystal does.
    tau_max = 46.0 / (z_d - half)

    def evan(tau):
        kap = np.sqrt(q * q + tau * tau)
        return profile(kap) * (tau / kap)

    val_e, _ = integrate_radial(evan, 0.0, tau_max, spec,
                                max_panel=tau_max / 16.0)

    gxx, gyy, gxz, gzx, gzz = val_p + val_e
    green = np.array([[gxx, 0j, gxz],
                      [0j, gyy, 0j],
                      [gzx, 0j, gzz]])
    if rho > 0.0:
        cpsi, spsi = np.cos(psi), np.sin(psi)
        rot = np.array([[cpsi, -spsi, 0.0],
                        [spsi, cpsi, 0.0],
                        [0.0, 0.0, 1.0]])
        green = rot @ green @ rot.T
    return green
