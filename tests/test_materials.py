"""Dispersion, kinematics, Fresnel stacks, and the absorption noise factor.

Reference values were derived by hand (interpolation arithmetic, normal
incidence closed forms, loss-fraction inversions) before the implementation
and are frozen here at full precision.
"""

import numpy as np
import pytest

from slabpdc.materials import (C_LIGHT, EPS0, TE, TEM, TM, CrystalSlab,
                               DispersionRangeError, MaterialDispersion,
                               absorption_to_n_imag, bbo_ordinary,
                               branch_sqrt, dispersion_eval, fresnel,
                               kinematics, local_field, material_from_table,
                               noise_factor, vacuum)

OMEGA = 3.54e15


# ---------------------------------------------------------------------------
# Dispersion tables
# ---------------------------------------------------------------------------

def test_bbo_anchor_points():
    mat = bbo_ordinary()
    for lam_nm, n_expect in ((1064.0, 1.65), (532.0, 1.67), (266.0, 1.75)):
        omega = 2.0 * np.pi * C_LIGHT / (lam_nm * 1e-9)
        assert dispersion_eval(mat, omega) == pytest.approx(n_expect,
                                                            rel=1e-12)


def test_bbo_interpolated_value_frozen():
    # hand-interpolated between the 1064 and 532 nm samples
    n = dispersion_eval(bbo_ordinary(), OMEGA)
    assert n.real == pytest.approx(1.669992109638209, rel=1e-13)
    assert n.imag == 0.0


def test_dispersion_range_error():
    mat = bbo_ordinary()
    with pytest.raises(DispersionRangeError):
        dispersion_eval(mat, 1e14)
    with pytest.raises(DispersionRangeError):
        dispersion_eval(mat, 1e16)
    with pytest.raises(DispersionRangeError):
        dispersion_eval(mat, -1.0)
    for material, omega in ((mat, np.nan), (vacuum(), np.nan),
                            (vacuum(), np.inf)):
        with pytest.raises(DispersionRangeError, match="positive|finite"):
            dispersion_eval(material, omega)


def test_dispersion_eval_over_axis_points():
    mat = bbo_ordinary().with_absorption(3e-6)
    omegas = np.linspace(2e15, 7e15, 9)
    stacked = dispersion_eval(mat, omegas)
    assert stacked.shape == (9,)
    assert stacked.tolist() == [dispersion_eval(mat, w)
                                for w in omegas.tolist()]
    vac = dispersion_eval(vacuum(), omegas)
    assert vac.shape == (9,) and np.all(vac == 1.0)


def test_dispersion_eval_rejects_the_first_bad_point():
    mat = bbo_ordinary()
    omegas = np.array([3e15, 1e16, -1.0, 5e15])
    with pytest.raises(DispersionRangeError) as stacked:
        dispersion_eval(mat, omegas)
    assert stacked.value.index == 1
    with pytest.raises(DispersionRangeError) as single:
        dispersion_eval(mat, 1e16)
    assert str(stacked.value) == str(single.value)
    with pytest.raises(DispersionRangeError) as stacked:
        dispersion_eval(mat, omegas[2:])
    assert stacked.value.index == 0
    assert str(stacked.value) == "omega must be positive, got -1.0"


def test_constant_material_unbounded():
    mat = MaterialDispersion.constant(1.5, 2e-6)
    assert dispersion_eval(mat, 1e12) == 1.5 + 2e-6j
    assert dispersion_eval(mat, 1e17) == 1.5 + 2e-6j


def test_with_absorption_replaces_n_imag():
    mat = bbo_ordinary().with_absorption(3e-6)
    n = dispersion_eval(mat, OMEGA)
    assert n.imag == pytest.approx(3e-6, rel=1e-14)
    assert n.real == pytest.approx(1.669992109638209, rel=1e-13)
    # and back to lossless
    again = mat.with_absorption(0.0)
    assert dispersion_eval(again, OMEGA).imag == 0.0


def test_material_from_table_parses_and_interpolates():
    text = """
    # lambda_nm  n_real  n_imag
    1000  1.60  0.0
     500  1.70  1e-6
    """
    mat = material_from_table(text, name="demo")
    n_hi = dispersion_eval(mat, 2.0 * np.pi * C_LIGHT / 500e-9)
    assert n_hi == pytest.approx(1.70 + 1e-6j, rel=1e-12)
    assert mat.name == "demo"


def test_material_from_table_rejects_garbage():
    with pytest.raises(ValueError):
        material_from_table("500 1.7")          # missing column
    with pytest.raises(ValueError):
        material_from_table("500 one 0.0")      # non-numeric
    with pytest.raises(ValueError):
        material_from_table("-500 1.7 0.0")     # negative wavelength
    with pytest.raises(ValueError):
        material_from_table("# only a comment")


def test_vacuum_is_unity():
    assert dispersion_eval(vacuum(), OMEGA) == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# Loss conventions
# ---------------------------------------------------------------------------

def test_absorption_conventions_frozen():
    ni = absorption_to_n_imag(0.10, OMEGA, convention="intensity")
    na = absorption_to_n_imag(0.10, OMEGA, convention="amplitude")
    assert ni == pytest.approx(4.461340108080117e-07, rel=1e-12)
    assert na == pytest.approx(2.0 * ni, rel=1e-14)


def test_absorption_round_trip():
    # the defining equations, inverted and substituted back
    for conv, power in (("intensity", 2.0), ("amplitude", 1.0)):
        ni = absorption_to_n_imag(0.10, OMEGA, convention=conv)
        survived = np.exp(-power * ni * OMEGA * 0.01 / C_LIGHT)
        assert survived == pytest.approx(0.9, rel=1e-12)


def test_absorption_validation():
    assert absorption_to_n_imag(0.0, OMEGA) == 0.0
    with pytest.raises(ValueError):
        absorption_to_n_imag(1.0, OMEGA)
    with pytest.raises(ValueError):
        absorption_to_n_imag(-0.1, OMEGA)
    with pytest.raises(ValueError):
        absorption_to_n_imag(0.1, OMEGA, convention="per-mile")
    for omega in (-OMEGA, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="omega"):
            absorption_to_n_imag(0.1, omega)
    for length in (-0.01, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="length"):
            absorption_to_n_imag(0.1, OMEGA, length=length)


# ---------------------------------------------------------------------------
# Kinematics and the branch rule
# ---------------------------------------------------------------------------

def test_branch_rule_nonnegative_imag():
    rng = np.random.default_rng(11)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    w = branch_sqrt(z)
    assert np.all(w.imag >= 0.0)
    assert np.allclose(w * w, z, rtol=1e-13)


def test_kinematics_identities():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = complex(rng.uniform(1.0, 2.5), rng.uniform(0.0, 1e-3))
        kap = rng.uniform(0.0, 3e7)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        kin = kinematics(OMEGA, n, (kap * np.cos(phi), kap * np.sin(phi)))
        assert kin.k == pytest.approx(n * OMEGA / C_LIGHT, rel=1e-14)
        assert kin.q == pytest.approx(OMEGA / C_LIGHT, rel=1e-14)
        assert kin.k_z ** 2 + kin.kappa ** 2 == pytest.approx(kin.k ** 2,
                                                              rel=1e-12)
        assert kin.q_z ** 2 + kin.kappa ** 2 == pytest.approx(kin.q ** 2,
                                                              rel=1e-12)
        assert kin.k_z.imag >= 0.0 and kin.q_z.imag >= 0.0


def test_kinematics_evanescent_sector():
    kin = kinematics(OMEGA, 1.0, (1.5 * OMEGA / C_LIGHT, 0.0))
    assert kin.q_z.real == pytest.approx(0.0, abs=1e-9)
    assert kin.q_z.imag > 0.0


def test_kinematics_over_axis_points():
    omegas = np.array([3.0e15, 3.54e15, 4.0e15])
    n = np.array([1.66 + 1e-6j, 1.67 + 2e-6j, 1.68 + 0j])
    kin = kinematics(omegas, n)
    for j in range(3):
        one = kinematics(float(omegas[j]), complex(n[j]))
        assert kin.k[j] == pytest.approx(one.k, rel=1e-15)
        assert kin.k_z[j] == pytest.approx(one.k_z, rel=1e-15)
    for omega in (np.array([1e15, 0.0]), np.array([1e15, np.nan]), np.nan,
                  np.inf):
        with pytest.raises(ValueError, match="positive"):
            kinematics(omega, 1.5)


def test_kinematics_array_transverse():
    kap = np.linspace(0.0, 1e7, 7)
    kin = kinematics(OMEGA, 1.67, (kap, np.zeros_like(kap)))
    assert kin.k_z.shape == (7,)
    assert np.allclose(kin.k_z ** 2 + kap ** 2, kin.k ** 2, rtol=1e-12)


# ---------------------------------------------------------------------------
# Fresnel coefficients
# ---------------------------------------------------------------------------

def test_tem_coefficients_frozen():
    kin = kinematics(2.0 * OMEGA, 1.75)
    f = fresnel(TEM, kin, 1.75 ** 2, 2e-3)
    assert f.r21 == pytest.approx(0.75 / 2.75, rel=1e-14)
    assert f.t == pytest.approx(2.0 / 2.75, rel=1e-14)
    assert f.r23 == f.r21


def test_te_tm_normal_incidence_limits():
    n = 1.67
    kin = kinematics(OMEGA, n)
    f_te = fresnel(TE, kin, n * n, 2e-3)
    f_tm = fresnel(TM, kin, n * n, 2e-3)
    # r_TE(0) = -r_TM(0) = (n-1)/(n+1); t23 coincide at 2n/(n+1)
    assert f_te.r21 == pytest.approx((n - 1.0) / (n + 1.0), rel=1e-13)
    assert f_tm.r21 == pytest.approx(-(n - 1.0) / (n + 1.0), rel=1e-13)
    assert f_te.t == pytest.approx(2.0 * n / (n + 1.0), rel=1e-13)
    assert f_tm.t == pytest.approx(f_te.t, rel=1e-13)
    assert f_te.m == pytest.approx(f_tm.m, rel=1e-13)


def test_fresnel_vacuum_limit():
    kin = kinematics(OMEGA, 1.0, (1e6, 0.0))
    for sigma in (TE, TM):
        f = fresnel(sigma, kin, 1.0, 2e-3)
        assert f.r21 == pytest.approx(0.0, abs=1e-15)
        assert f.t == pytest.approx(1.0, rel=1e-14)
        assert f.m == pytest.approx(1.0, rel=1e-14)


def test_tem_requires_normal_incidence():
    kin = kinematics(OMEGA, 1.67, (1e5, 0.0))
    with pytest.raises(ValueError):
        fresnel(TEM, kin, 1.67 ** 2, 2e-3)


def test_fresnel_energy_sanity_te():
    # lossless interface: |r|^2 + (q_z/k_z)|t|^2 = 1 for the TE exit face
    n = 1.67
    kin = kinematics(OMEGA, n, (5e6, 0.0))
    f = fresnel(TE, kin, n * n, 2e-3)
    flux = abs(f.r21) ** 2 + (kin.q_z.real / kin.k_z.real) * abs(f.t) ** 2
    assert flux == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Local field and noise factor
# ---------------------------------------------------------------------------

def test_local_field_frozen():
    assert local_field(2.7889) == pytest.approx(16098739691.264929,
                                                rel=1e-12)
    with pytest.raises(ZeroDivisionError):
        local_field(0.0)


def test_noise_factor_exact_unity_when_lossless():
    assert noise_factor(2.7889) == 1.0 + 0.0j
    assert noise_factor(1.0) == 1.0 + 0.0j


def test_noise_factor_frozen_value():
    a = noise_factor((1.67 + 1e-3j) ** 2)
    assert a.real == pytest.approx(1.0000006374472024, rel=1e-14)
    assert a.imag == pytest.approx(-0.0009521762212600308, rel=1e-12)


def test_noise_factor_identity_form():
    # A = 1 - (4i/9) eps'' (eps - 1)/eps, written out independently
    eps = (1.7 + 5e-4j) ** 2
    direct = 1.0 - (4j / 9.0) * eps.imag * (eps - 1.0) / eps
    assert noise_factor(eps) == pytest.approx(direct, rel=1e-14)


def test_noise_gain_band_for_ten_percent_loss():
    # the headline magnitude: 10%/cm absorption lifts |A|^4 by ~1e-12,
    # under either loss convention
    for conv in ("intensity", "amplitude"):
        ni = absorption_to_n_imag(0.10, OMEGA, convention=conv)
        a = noise_factor((1.67 + 1j * ni) ** 2)
        gain = abs(a) ** 4 - 1.0
        assert 1e-13 <= gain <= 1e-11


# ---------------------------------------------------------------------------
# Crystal slab wrapper
# ---------------------------------------------------------------------------

def test_crystal_slab_defaults_and_eps():
    slab = CrystalSlab()
    assert slab.length == 2e-3
    n = slab.index(OMEGA)
    assert slab.eps(OMEGA) == pytest.approx(n * n, rel=1e-14)


def test_crystal_slab_validates_length():
    with pytest.raises(ValueError):
        CrystalSlab(length=0.0)
    with pytest.raises(ValueError):
        CrystalSlab(length=-1e-3)
