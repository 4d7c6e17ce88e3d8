"""Dispersion, kinematics, Fresnel stacks, and the absorption noise factor.

Reference values were derived by hand (interpolation arithmetic, normal
incidence closed forms, loss-fraction inversions) before the implementation
and are frozen here at full precision.
"""

import math
import pickle
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from slabpdc import scan
from slabpdc.materials import (C_LIGHT, EPS0, TE, TEM, TM, CrystalSlab,
                               DispersionRangeError, MaterialDispersion,
                               absorption_to_n_imag, bbo_ordinary,
                               branch_sqrt, dispersion_eval, fresnel,
                               kinematics, local_field, noise_factor,
                               vacuum)

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
    # evaluation exactly at a sample returns the sample, edges included
    at = dispersion_eval(mat, mat.omega)
    assert np.array_equal(at, mat.n_real + 1j * mat.n_imag)
    assert [dispersion_eval(mat, w) for w in mat.omega.tolist()] \
        == at.tolist()


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
    # a first offender that is not the stack's extreme, and a NaN mid-stack
    for material, omegas, where in ((mat, [3e15, 1e16, 2e16], 1),
                                    (mat, [3e15, np.nan, 5e15], 1),
                                    (vacuum(), [3e15, np.nan, -1.0], 1)):
        with pytest.raises(DispersionRangeError) as stacked:
            dispersion_eval(material, np.array(omegas))
        assert stacked.value.index == where
        with pytest.raises(DispersionRangeError) as single:
            dispersion_eval(material, omegas[where])
        assert str(stacked.value) == str(single.value)
    # an empty stack has no point to reject
    empty = dispersion_eval(mat, np.array([]))
    assert empty.shape == (0,) and empty.dtype == complex


def test_range_check_edges():
    # a point exactly at an edge of the slack-widened range passes, the next
    # float outside it fails; each alone and inside a stack, with one
    # message and the stack's index
    mat = bbo_ordinary()
    low = 1770349210314141.8        # omega_min - 1e-9 omega_max
    high = 7081396876663551.0       # omega_max + 1e-9 omega_max
    assert dispersion_eval(mat, low) == 1.65 + 0j
    assert dispersion_eval(mat, high) == 1.75 + 0j
    edges = dispersion_eval(mat, np.array([OMEGA, low, high, OMEGA]))
    assert edges.tolist() == [dispersion_eval(mat, OMEGA), 1.65, 1.75,
                              dispersion_eval(mat, OMEGA)]
    outside = ("rad/s outside the sampled range [1.770349e+15, "
               "7.081397e+15] of material 'bbo_ordinary'")
    for material, omega, message in (
            (mat, math.nextafter(low, -math.inf),
             f"omega = 1.770349e+15 {outside}"),
            (mat, math.nextafter(high, math.inf),
             f"omega = 7.081397e+15 {outside}"),
            (mat, math.inf, f"omega = inf {outside}"),
            (mat, 0.0, "omega must be positive, got 0.0"),
            (vacuum(), 0.0, "omega must be positive, got 0.0"),
            (vacuum(), -1.0, "omega must be positive, got -1.0"),
            (vacuum(), -math.inf, "omega must be positive, got -inf")):
        with pytest.raises(DispersionRangeError) as single:
            dispersion_eval(material, omega)
        assert str(single.value) == message and single.value.index == 0
        # the edges ahead of an offender are not offenders themselves
        for stack, where in (([omega], 0), ([OMEGA, omega, OMEGA], 1),
                             ([low, high, omega], 2)):
            with pytest.raises(DispersionRangeError) as stacked:
                dispersion_eval(material, np.array(stack))
            assert str(stacked.value) == message
            assert stacked.value.index == where


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


def test_vacuum_is_unity():
    assert dispersion_eval(vacuum(), OMEGA) == 1.0 + 0.0j


@pytest.mark.parametrize("omega, n_real, n_imag, message", [
    ([1e15, 2e15], [1.6, 1.7, 1.8], [0.0, 0.0], "equal length"),
    ([], [], [], "empty dispersion table"),
    ([1e15, 2e15], [1.6, np.nan], [0.0, 0.0], "must be finite"),
    ([1e15, np.inf], [1.6, 1.7], [0.0, 0.0], "must be finite"),
    ([2e15, 2e15], [1.6, 1.7], [0.0, 0.0], "strictly increasing"),
    ([2e15, 1e15], [1.6, 1.7], [0.0, 0.0], "strictly increasing"),
    ([1e15, 2e15], [1.6, 1.7], [0.0, -1e-9], "gain"),
    ([-1e15, 2e15], [1.6, 1.7], [0.0, 0.0], "must not be negative"),
], ids=["lengths", "empty", "nan", "inf", "repeated", "decreasing",
        "gain", "negative-omega"])
def test_table_rejections(omega, n_real, n_imag, message):
    with pytest.raises(ValueError, match=message):
        MaterialDispersion(np.array(omega), np.array(n_real),
                           np.array(n_imag))


def test_wavelength_samples_must_be_positive_and_finite():
    for lam in (0.0, -532.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            MaterialDispersion.from_wavelength_samples(
                [(1064.0, 1.65, 0.0), (lam, 1.67, 0.0)])
    # rows in any order give the table in increasing omega
    mat = MaterialDispersion.from_wavelength_samples(
        [(532.0, 1.67, 0.0), (266.0, 1.75, 0.0), (1064.0, 1.65, 0.0)])
    assert mat.n_real.tolist() == [1.65, 1.67, 1.75]
    assert np.array_equal(mat.omega, bbo_ordinary().omega)


def test_tables_are_read_only_copies():
    mat = bbo_ordinary()
    for table in (mat.omega, mat.n_real, mat.n_imag):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    assert bbo_ordinary() is mat and vacuum() is vacuum()
    # the caller's arrays are copied, not frozen in place
    omega, n = np.array([1e15, 2e15]), np.array([1.6, 1.7])
    custom = MaterialDispersion(omega, n, np.zeros(2))
    omega[0] = n[0] = 0.5
    assert omega.flags.writeable and n.flags.writeable
    assert custom.omega[0] == 1e15 and custom.n_real[0] == 1.6


def test_interpolation_tables_are_private_writable_copies():
    # np.interp copies a read-only table on every call, so dispersion_eval
    # reads private writable copies; the public tables stay read-only
    rng = np.random.default_rng(3)
    omega = np.sort(rng.uniform(1e15, 8e15, 7))
    mat = MaterialDispersion(omega, rng.uniform(1.4, 1.9, 7),
                             rng.uniform(0.0, 1e-5, 7))
    for public, private in zip((mat.omega, mat.n_real, mat.n_imag),
                               mat._tables):
        assert not public.flags.writeable and private.flags.writeable
        assert not np.shares_memory(public, private)
        assert public.tobytes() == private.tobytes()
    w = np.linspace(omega[0], omega[-1], 101)
    n = dispersion_eval(mat, w)
    assert n.real.tobytes() == np.interp(w, mat.omega, mat.n_real).tobytes()
    assert n.imag.tobytes() == np.interp(w, mat.omega, mat.n_imag).tobytes()
    assert [dispersion_eval(mat, x) for x in w.tolist()] == n.tolist()
    # the copies are not a field: equality, repr, pickling and replace see
    # the public tables alone, and a rebuilt material makes its own copies
    assert [f.name for f in fields(mat)] == ["omega", "n_real", "n_imag",
                                             "name", "unbounded"]
    assert "_tables" not in repr(mat)
    for copy in (pickle.loads(pickle.dumps(mat)), replace(mat)):
        assert copy._tables is not mat._tables
        assert not copy.omega.flags.writeable
        assert copy.omega.tobytes() == mat.omega.tobytes()
        assert dispersion_eval(copy, w).tobytes() == n.tobytes()


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
    # the convention is checked before the zero-fraction shortcut
    with pytest.raises(ValueError, match="unknown loss convention"):
        absorption_to_n_imag(0.0, OMEGA, convention="bogus")
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
    # a non-finite index raises at entry, with the stacked point's index
    for n_bad, where in ((np.nan, 0), (complex(np.inf, 0.0), 0),
                         (complex(1.67, np.nan), 0),
                         (np.array([1.66, 1.67 + 1j * np.inf, np.nan]), 1)):
        with pytest.raises(ValueError, match="index n must be finite") \
                as info:
            kinematics(3.54e15, n_bad)
        assert info.value.index == where


def test_kinematics_rejects_bad_transverse_vectors():
    # A non-finite or complex k_perp is rejected at entry, at its first bad
    # node, as omega and n are; a real one keeps its value bit for bit, and
    # a scalar component broadcasts against an array one.
    nan, inf = float("nan"), float("inf")
    n = 1.67 + 1e-6j
    for k_perp, message, where in (
            ((nan, 0.0), "finite", 0), ((inf, 0.0), "finite", 0),
            ((0.0, -inf), "finite", 0), ((1e5 + 1j, 0.0), "real", 0),
            ((np.array([0.0, 1e5, nan]), np.zeros(3)), "finite", 2),
            ((np.array([0.0, 1e5 + 2j]), 0.0), "real", 1),
            ((np.zeros(3), np.array([0.0, 1.0, inf])), "finite", 2)):
        with pytest.raises(ValueError, match=f"k_perp must be {message}") \
                as info:
            kinematics(3.54e15, n, k_perp)
        assert info.value.index == where
    kap = np.array([0.0, 1e5, 3e6])
    for k_perp in ((1e5, 0.0), (kap, 0.5 * kap), (kap + 0j, kap), (0.0, kap)):
        kin = kinematics(3.54e15, n, k_perp)
        kx, ky = np.real(k_perp[0]), np.real(k_perp[1])
        assert np.array_equal(kin.k_z, branch_sqrt(
            kin.k * kin.k - (kx * kx + ky * ky)))


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


def test_nan_input_rejected():
    nan = float("nan")
    kin = kinematics(OMEGA, 1.67)
    for args in ((kin, 1.67 ** 2, nan), (kin, complex(nan, 0.0), 2e-3),
                 (replace(kin, k=complex(kin.k.real, nan)), 1.67 ** 2, 2e-3)):
        with pytest.raises(ValueError, match="NaN"):
            fresnel(TE, *args)
    # a NaN real part with eps'' = 0 must not take the lossless branch
    for eps in (complex(nan, 1e-6), complex(nan, 0.0), complex(2.7, nan)):
        for f in (noise_factor, local_field):
            with pytest.raises(ValueError, match="NaN"):
                f(eps)
    with pytest.raises(ValueError, match="NaN") as info:
        noise_factor(np.array([2.7 + 1e-6j, 2.7, nan]))
    assert info.value.index == 2
    # a stack fails at its first bad point, with that point's own error
    with pytest.raises(ValueError, match="NaN") as info:
        noise_factor(np.array([2.7, nan, 0.0]))
    assert info.value.index == 1
    with pytest.raises(ZeroDivisionError, match="eps = 0") as info:
        local_field(np.array([2.7, 0.0, nan]))
    assert info.value.index == 1


def test_noise_gain_band_for_ten_percent_loss():
    # the headline magnitude: 10%/cm absorption lifts |A|^4 by ~1e-12,
    # under either loss convention. |A|^4 - 1 cancels about 11 digits
    # there (7.5e-4 off at n'' = 4.46e-7); scan's a_factor_gain column,
    # formed from A - 1, is within 1e-15 of the 40-digit value.
    mp = pytest.importorskip("mpmath")
    for conv in ("intensity", "amplitude"):
        ni = absorption_to_n_imag(0.10, OMEGA, convention=conv)
        n = 1.67 + 1j * ni
        a = noise_factor(n ** 2)
        gain = abs(a) ** 4 - 1.0
        assert 1e-13 <= gain <= 1e-11
        (column,) = scan._gain_columns(SimpleNamespace(
            count=1, index=lambda mode: np.array([n])))
        with mp.workdps(40):
            eps = mp.mpc(n) ** 2
            a_mp = 1 - mp.mpc(0, 4) / 9 * eps.imag * (eps - 1) / eps
            want = abs(a_mp) ** 4 - 1
        assert 1e-13 <= want <= 1e-11
        assert abs(column[0] - want) <= 1e-15 * want


# ---------------------------------------------------------------------------
# Crystal slab wrapper
# ---------------------------------------------------------------------------

def test_crystal_slab_defaults_and_index():
    slab = CrystalSlab()
    assert slab.length == 2e-3
    assert slab.index(OMEGA) == dispersion_eval(bbo_ordinary(), OMEGA)


def test_crystal_slab_validates_length():
    with pytest.raises(ValueError):
        CrystalSlab(length=0.0)
    with pytest.raises(ValueError):
        CrystalSlab(length=-1e-3)
