"""Wave functions, chi(2) contractions, slab z-factors, point Green tensor.

The contraction and dyadic checks pit the package's index arithmetic
against closed algebraic forms derived by hand; both routes must agree to
1e-12 on randomized inputs with complex longitudinal components, because
every sign in the radial reduction traces back to these tables.
"""

import numpy as np
import pytest

from slabpdc.greens import (Chi2Geometry, contract_chi2, dyadic_product,
                            f_factor, scattering_green_point, vector_wave_M,
                            vector_wave_N)
from slabpdc.materials import (TE, TM, C_LIGHT, CrystalSlab, fresnel,
                               kinematics, vacuum)
from slabpdc.quadrature import QuadratureSpec

RNG = np.random.default_rng(21)


def _random_labels():
    """One random mirrored pair of mode labels, complex k_z and k."""
    kx = RNG.uniform(-2.0, 2.0)
    ky = RNG.uniform(-2.0, 2.0)
    if abs(kx) < 1e-3 and abs(ky) < 1e-3:
        kx = 0.5
    kz_a = complex(RNG.uniform(0.2, 3.0), RNG.uniform(0.0, 0.5))
    kz_b = complex(RNG.uniform(0.2, 3.0), RNG.uniform(0.0, 0.5))
    k_a = complex(RNG.uniform(1.0, 4.0), RNG.uniform(0.0, 0.3))
    k_b = complex(RNG.uniform(1.0, 4.0), RNG.uniform(0.0, 0.3))
    return kx, ky, kz_a, kz_b, k_a, k_b


# ---------------------------------------------------------------------------
# Wave functions
# ---------------------------------------------------------------------------

def test_te_wave_components():
    w = vector_wave_M((0.3, -0.4))
    assert w.components == pytest.approx([1j * (-0.4), -1j * 0.3, 0.0])
    assert w.kind == TE


def test_tm_wave_components_and_norm():
    kx, ky, k_z = 0.3, -0.4, 1.2
    k = np.hypot(np.hypot(kx, ky), k_z)
    w = vector_wave_N((kx, ky), k_z, k, sign=-1)
    kap2 = kx * kx + ky * ky
    assert w.components == pytest.approx(
        np.array([k_z * kx, k_z * ky, kap2]) / k)
    # lossless mode: squared norm equals kappa^2, same as the TE leg
    assert np.vdot(w.components, w.components).real == pytest.approx(kap2)


def test_wave_degenerate_direction_rejected():
    with pytest.raises(ValueError):
        vector_wave_M((0.0, 0.0))
    with pytest.raises(ValueError):
        vector_wave_N((0.0, 0.0), 1.0, 2.0)
    with pytest.raises(ValueError):
        vector_wave_N((1.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        vector_wave_N((1.0, 0.0), 1.0, 2.0, sign=2)


# ---------------------------------------------------------------------------
# chi(2) geometry
# ---------------------------------------------------------------------------

def test_patterns():
    assert np.array_equal(Chi2Geometry("I").pattern, np.eye(2))
    assert np.array_equal(Chi2Geometry("II").pattern,
                          [[0.0, 1.0], [1.0, 0.0]])


def test_geometry_validation():
    with pytest.raises(ValueError):
        Chi2Geometry("III")
    with pytest.raises(ValueError):
        Chi2Geometry("I", d=0.0)


def test_mirror_guard():
    a = vector_wave_M((1.0, 0.5))
    b = vector_wave_M((1.0, 0.5))
    with pytest.raises(ValueError):
        contract_chi2(Chi2Geometry("I"), a, b)
    with pytest.raises(ValueError):
        dyadic_product(a, b)


# ---------------------------------------------------------------------------
# Contractions against closed forms
#
# Source legs: a is the wave at -k_perp with signal labels and sign +1,
# b the wave at +k_perp with idler labels and sign -1. The closed forms
# below were derived by expanding the transverse components by hand.
# ---------------------------------------------------------------------------

def _source_legs(kx, ky, kz_s, kz_i, k_s, k_i):
    legs_a = {
        "M": vector_wave_M((-kx, -ky)),
        "N": vector_wave_N((-kx, -ky), kz_s, k_s, sign=1),
    }
    legs_b = {
        "M": vector_wave_M((kx, ky)),
        "N": vector_wave_N((kx, ky), kz_i, k_i, sign=-1),
    }
    return legs_a, legs_b


def _closed_contractions(kx, ky, kz_s, kz_i, k_s, k_i):
    kap2 = kx * kx + ky * ky
    return {
        ("I", "M", "M"): kap2,
        ("I", "M", "N"): 0.0,
        ("I", "N", "M"): 0.0,
        ("I", "N", "N"): kap2 * kz_s * kz_i / (k_s * k_i),
        ("II", "M", "M"): -2.0 * kx * ky,
        ("II", "M", "N"): 1j * kz_i * (kx * kx - ky * ky) / k_i,
        ("II", "N", "M"): 1j * kz_s * (ky * ky - kx * kx) / k_s,
        ("II", "N", "N"): 2.0 * kx * ky * kz_s * kz_i / (k_s * k_i),
    }


def test_contractions_match_closed_forms():
    geoms = {"I": Chi2Geometry("I"), "II": Chi2Geometry("II")}
    for _ in range(100):
        kx, ky, kz_s, kz_i, k_s, k_i = _random_labels()
        legs_a, legs_b = _source_legs(kx, ky, kz_s, kz_i, k_s, k_i)
        closed = _closed_contractions(kx, ky, kz_s, kz_i, k_s, k_i)
        for (kind, la, lb), want in closed.items():
            got = contract_chi2(geoms[kind], legs_a[la], legs_b[lb])
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (
                kind, la, lb)


# ---------------------------------------------------------------------------
# Dyadics against closed tables
#
# Detector legs: a at +k_perp with sign +1, b at -k_perp with sign -1.
# ---------------------------------------------------------------------------

def _detector_legs(kx, ky, kz_a, kz_b, k_a, k_b):
    legs_a = {
        "M": vector_wave_M((kx, ky)),
        "N": vector_wave_N((kx, ky), kz_a, k_a, sign=1),
    }
    legs_b = {
        "M": vector_wave_M((-kx, -ky)),
        "N": vector_wave_N((-kx, -ky), kz_b, k_b, sign=-1),
    }
    return legs_a, legs_b


def _closed_dyadics(kx, ky, kz_a, kz_b, k_a, k_b):
    kap2 = kx * kx + ky * ky
    mm = np.array([
        [ky * ky, -kx * ky, 0.0],
        [-kx * ky, kx * kx, 0.0],
        [0.0, 0.0, 0.0],
    ], dtype=complex)
    mn = (1j / k_b) * np.array([
        [-kz_b * kx * ky, -kz_b * ky * ky, ky * kap2],
        [kz_b * kx * kx, kz_b * kx * ky, -kx * kap2],
        [0.0, 0.0, 0.0],
    ], dtype=complex)
    nm = (1j / k_a) * np.array([
        [kz_a * kx * ky, -kz_a * kx * kx, 0.0],
        [kz_a * ky * ky, -kz_a * kx * ky, 0.0],
        [-kap2 * ky, kap2 * kx, 0.0],
    ], dtype=complex)
    nn = (1.0 / (k_a * k_b)) * np.array([
        [kz_a * kz_b * kx * kx, kz_a * kz_b * kx * ky, -kz_a * kx * kap2],
        [kz_a * kz_b * kx * ky, kz_a * kz_b * ky * ky, -kz_a * ky * kap2],
        [-kz_b * kap2 * kx, -kz_b * kap2 * ky, kap2 * kap2],
    ], dtype=complex)
    return {("M", "M"): mm, ("M", "N"): mn, ("N", "M"): nm, ("N", "N"): nn}


def test_dyadics_match_closed_tables():
    for _ in range(100):
        kx, ky, kz_a, kz_b, k_a, k_b = _random_labels()
        legs_a, legs_b = _detector_legs(kx, ky, kz_a, kz_b, k_a, k_b)
        closed = _closed_dyadics(kx, ky, kz_a, kz_b, k_a, k_b)
        for (la, lb), want in closed.items():
            got = dyadic_product(legs_a[la], legs_b[lb])
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (la, lb)


# ---------------------------------------------------------------------------
# Slab z-factor
# ---------------------------------------------------------------------------

def _slab_pieces(n_imag, kappa=3.0e5):
    omega = 3.54e15
    length = 2.0e-3
    n = 1.669992109638209 + 1j * n_imag
    kin = kinematics(omega, n, (kappa, 0.0))
    fres = fresnel(TE, kin, n * n, length)
    return omega, length, kin, fres


def test_f_factor_vacuum_limit_is_free_phase():
    omega, length = 3.54e15, 2.0e-3
    kin = kinematics(omega, 1.0, (3.0e5, 0.0))
    for sigma in (TE, TM):
        fres = fresnel(sigma, kin, 1.0 + 0j, length)
        z_d, z_A = 0.4, 3.7e-4
        got = f_factor(sigma, z_d, z_A, kin, fres, length)
        want = np.exp(1j * kin.q_z * (z_d - z_A))
        # the total phase is ~5e6 rad, so eps-level rounding of the
        # argument moves the value by ~1e-9; tolerance sits above that
        assert got == pytest.approx(want, rel=1e-8)


def test_f_factor_magnitude_decays_with_absorption():
    z_d, z_A = 0.4, -5.0e-4
    mags = []
    for n_imag in (0.0, 1e-6, 1e-5, 1e-4):
        omega, length, kin, fres = _slab_pieces(n_imag)
        mags.append(abs(f_factor(TE, z_d, z_A, kin, fres, length)))
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_f_factor_validation():
    omega, length, kin, fres = _slab_pieces(0.0)
    with pytest.raises(ValueError):
        f_factor(TM, 0.4, 0.0, kin, fres, length)   # polarization mismatch
    with pytest.raises(ValueError):
        f_factor(TE, 0.4, 0.6 * length, kin, fres, length)
    with pytest.raises(ValueError):
        f_factor(TE, 0.4 * length, 0.0, kin, fres, length)


# ---------------------------------------------------------------------------
# Point Green tensor, vacuum limit
# ---------------------------------------------------------------------------

def _dyadic_closed(q, r_vec):
    """Free dyadic Green function (I + grad grad/q^2) e^{iqr}/(4 pi r)."""
    r = float(np.linalg.norm(r_vec))
    x = q * r
    u = np.asarray(r_vec) / r
    return (np.exp(1j * x) / (4.0 * np.pi * r)
            * ((1.0 + 1j / x - 1.0 / x ** 2) * np.eye(3)
               + (-1.0 - 3j / x + 3.0 / x ** 2) * np.outer(u, u)))


@pytest.mark.parametrize("qz", [50.0, 200.0])
def test_vacuum_green_matches_spherical_wave(qz):
    crystal = CrystalSlab(material=vacuum(), length=2.0e-3)
    z_d = 1.0
    omega = qz / z_d * C_LIGHT
    spec = QuadratureSpec(rel_tol=1e-8)
    green = scattering_green_point((0.0, 0.0, z_d), (0.0, 0.0, 0.0),
                                   omega, crystal, spec)
    want = _dyadic_closed(qz / z_d, (0.0, 0.0, z_d))[0, 0]
    assert abs(green[0, 0] - want) / abs(want) < 0.01
    assert abs(green[1, 1] - want) / abs(want) < 0.01
    # on-axis geometry: no transverse-z mixing, J1(0) kills those entries
    assert green[0, 2] == 0.0 and green[2, 0] == 0.0
    assert green[0, 1] == 0.0 and green[1, 0] == 0.0


def test_vacuum_green_magnitude_halves_with_distance():
    crystal = CrystalSlab(material=vacuum(), length=2.0e-3)
    omega = 50.0 * C_LIGHT
    spec = QuadratureSpec(rel_tol=1e-8)
    g1 = scattering_green_point((0.0, 0.0, 1.0), (0.0, 0.0, 0.0),
                                omega, crystal, spec)
    g2 = scattering_green_point((0.0, 0.0, 2.0), (0.0, 0.0, 0.0),
                                omega, crystal, spec)
    assert abs(g1[0, 0]) == pytest.approx(2.0 * abs(g2[0, 0]), rel=0.02)


@pytest.mark.parametrize("q", [0.5, 2.0, 50.0, 200.0])
def test_vacuum_green_matches_dyadic_closed_form(q):
    # Every entry, on and off axis; at q = 0.5 the pairs sit in the near
    # field (q r down to 0.1), where the evanescent map carries the 1/x^2
    # terms. At rel_tol 1e-10 refinement reaches nodes where sin(theta)
    # rounds to 1, which must not turn the propagating integrand into 0/0.
    crystal = CrystalSlab(material=vacuum(), length=2.0e-3)
    for rel_tol in (1e-8, 1e-10):
        spec = QuadratureSpec(rel_tol=rel_tol)
        for r_d, r_A in (((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
                         ((0.3, -0.4, 1.0), (0.0, 0.0, 0.0)),
                         ((0.05, 0.02, 0.2), (0.01, 0.0, 5e-4)),
                         ((0.8, 0.6, 0.25), (0.0, 0.0, -1e-3))):
            green = scattering_green_point(r_d, r_A, q * C_LIGHT, crystal,
                                           spec)
            want = _dyadic_closed(q, np.subtract(r_d, r_A))
            assert np.max(np.abs(green - want)) \
                / np.max(np.abs(want)) <= 1e-9


def test_green_geometry_validation():
    crystal = CrystalSlab(material=vacuum(), length=2.0e-3)
    omega = 50.0 * C_LIGHT
    with pytest.raises(ValueError):
        scattering_green_point((0.0, 0.0, 1.0), (0.0, 0.0, 0.01),
                               omega, crystal)
    with pytest.raises(ValueError):
        scattering_green_point((0.0, 0.0, 1.0e-4), (0.0, 0.0, 0.0),
                               omega, crystal)
    for r_d, r_A, w in (((np.nan, 0.0, 1.0), (0.0, 0.0, 0.0), omega),
                        ((0.0, 0.0, 1.0), (0.0, np.inf, 0.0), omega),
                        ((0.0, 0.0, np.nan), (0.0, 0.0, 0.0), omega),
                        ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), np.nan),
                        ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), np.inf)):
        with pytest.raises(ValueError, match="finite|positive"):
            scattering_green_point(r_d, r_A, w, crystal)
    for r_d, r_A in (((0.0, 1.0), (0.0, 0.0, 0.0)),
                     ((0.0, 0.0, 1.0), (0.0, 0.0)),
                     ((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
                     (((0.0, 0.0, 1.0),), (0.0, 0.0, 0.0))):
        with pytest.raises(ValueError, match="3-vectors"):
            scattering_green_point(r_d, r_A, omega, crystal)
