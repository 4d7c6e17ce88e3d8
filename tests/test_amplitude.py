"""Biphoton amplitude pipeline: configs, slab factors, quadrature routes.

The load-bearing checks are the cross-route agreements: phi-quadrature of
the 2-D integrands against the library's closed-form angular rows and the
reduced radial forms rebuilt here from public pieces, and the numeric disc
integral against the closed far-field form, which must also converge
toward it as the detectors recede.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from slabpdc import amplitude, load_config, radial
from slabpdc.amplitude import (BiphotonAmplitude, ExperimentConfig,
                               PhaseMatch, _angular_rows, _Channels,
                               _Modes, amplitude_farfield,
                               amplitude_numeric, complex_sinc,
                               integrand_typeI, integrand_typeII,
                               phase_terms, rate, sinc_profile, x_factor)
from slabpdc.greens import Chi2Geometry
from slabpdc.materials import (TE, TEM, TM, C_LIGHT, CrystalSlab,
                               MaterialDispersion, bbo_ordinary,
                               dispersion_eval, fresnel, kinematics, vacuum)
from slabpdc.quadrature import (ConvergenceError, QuadratureSpec,
                                integrate_angular, integrate_radial)
from slabpdc.radial import _angular_matrices

OMEGA = 3.54e15      # degenerate split frequency [rad/s]
LENGTH = 2.0e-3


def make_cfg(kind="I", n_imag=1e-6, length=LENGTH, z=0.2, omega_s=None,
             omega_i=None, offset=(0.0, 0.0), pump_field=1e5, d=1e-12):
    mat = bbo_ordinary()
    if n_imag:
        mat = mat.with_absorption(n_imag)
    om_s = OMEGA if omega_s is None else omega_s
    om_i = OMEGA if omega_i is None else omega_i
    return ExperimentConfig(
        crystal=CrystalSlab(material=mat, length=length),
        chi2=Chi2Geometry(kind=kind, d=d),
        pump_field=pump_field, signal_frequency=om_s, idler_frequency=om_i,
        z_signal=z, z_idler=z, offset=offset)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_pump_frequency_is_the_pair_sum():
    cfg = make_cfg(omega_s=0.98 * OMEGA, omega_i=1.02 * OMEGA)
    assert cfg.pump_frequency == cfg.signal_frequency + cfg.idler_frequency
    assert make_cfg().pump_frequency == 2.0 * OMEGA
    # derived, never an input: not a constructor argument, not settable
    with pytest.raises(TypeError, match="pump_frequency"):
        replace(cfg, pump_frequency=2.0 * OMEGA)
    with pytest.raises(AttributeError):
        cfg.pump_frequency = 2.0 * OMEGA
    # a pair of finite frequencies whose sum overflows has no pump
    for build in (lambda: replace(cfg, signal_frequency=1e308,
                                  idler_frequency=1e308),
                  lambda: load_config("signal_frequency = 1e308\n"
                                      "idler_frequency = 1e308\n")):
        with pytest.raises(ValueError, match="signal \\+ idler, must be "
                           "finite"):
            build()


def test_single_split_frequency_rejected():
    with pytest.raises(TypeError, match="idler_frequency"):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=1e5, z_signal=1.0, z_idler=1.0,
                         signal_frequency=OMEGA)


def test_scalar_fields_must_be_real_numbers():
    cfg = make_cfg()
    for change in (dict(pump_field=np.array([1e5, 2e5])),
                   dict(z_signal=np.array([1.0, 2.0])),
                   dict(z_idler=[1.0]),
                   dict(signal_frequency=np.full(2, OMEGA),
                        idler_frequency=np.full(2, OMEGA)),
                   dict(pump_field="strong"), dict(pump_field="1e5"),
                   dict(pump_field=None), dict(idler_frequency=OMEGA + 1j),
                   dict(z_signal=np.complex128(1.0)),
                   dict(z_idler=np.complex64(1.0))):
        name = next(iter(change))
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            replace(cfg, **change)
    for build, name in (
            (lambda: CrystalSlab(length=np.array([1e-3, 2e-3])), "length"),
            (lambda: Chi2Geometry("I", d=[1e-12]), "d")):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            build()
    # float() keeps the bits of the numbers a config is built from
    third = np.float64(1.0) / 3.0
    kept = replace(cfg, pump_field=third, z_signal=np.float64(0.3), z_idler=1)
    assert type(kept.pump_field) is float and kept.pump_field == third
    assert (kept.z_signal, kept.z_idler) == (0.3, 1.0)
    assert type(CrystalSlab(length=np.float64(2e-3)).length) is float


def test_detector_plane_bounds():
    with pytest.raises(ValueError, match="beyond the exit face"):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=1e5, signal_frequency=OMEGA,
                         idler_frequency=OMEGA, z_signal=1e-4, z_idler=1.0)


def test_offset_must_be_two_numbers():
    cfg = make_cfg()
    for offset in ((1e-6, 2e-6, 3e-6), (1e-6,), (), 1e-6, None,
                   (1e-6, None), ("a", "b"), ("1e-6", "0"),
                   (np.complex128(1e-6), 0.0)):
        with pytest.raises(ValueError, match="offset must be two numbers"):
            replace(cfg, offset=offset)
    # any pair of reals is kept as two Python floats
    assert replace(cfg, offset=np.array([1e-6, -2e-6])).offset \
        == (1e-6, -2e-6)
    assert replace(cfg, offset=[0, 0]).collinear


def test_positivity_checks():
    with pytest.raises(ValueError):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=0.0, signal_frequency=OMEGA,
                         idler_frequency=OMEGA, z_signal=1.0, z_idler=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=1e5, signal_frequency=-1.0,
                         idler_frequency=OMEGA, z_signal=1.0, z_idler=1.0)
    cfg = make_cfg()
    for change in (dict(pump_field=np.nan), dict(pump_field=np.inf),
                   dict(signal_frequency=np.nan), dict(idler_frequency=np.inf),
                   dict(z_signal=np.nan), dict(z_idler=np.inf),
                   dict(offset=(np.nan, 0.0)),
                   dict(offset=(0.0, -np.inf))):
        with pytest.raises(ValueError, match="finite"):
            replace(cfg, **change)
    for build in (lambda: CrystalSlab(length=np.inf),
                  lambda: CrystalSlab(length=np.nan),
                  lambda: Chi2Geometry("I", d=np.inf),
                  lambda: MaterialDispersion.constant(np.nan),
                  lambda: MaterialDispersion.constant(1.6, np.inf),
                  lambda: bbo_ordinary().with_absorption(np.nan)):
        with pytest.raises(ValueError, match="finite"):
            build()


def test_pattern_constants_cannot_leak():
    # .pattern is a writable copy of a shared read-only constant, which the
    # far field and the numeric route's row matrices read
    patterns = {"I": np.eye(2), "II": np.array([[0.0, 1.0], [1.0, 0.0]])}
    cfgs = {kind: make_cfg(kind) for kind in patterns}
    before = {kind: (amplitude_farfield(cfg).matrix, _angular_matrices(cfg))
              for kind, cfg in cfgs.items()}
    for kind, pattern in patterns.items():
        geometry = Chi2Geometry(kind)
        leaked = geometry.pattern
        leaked[...] = 7.0
        for again in (geometry.pattern, Chi2Geometry(kind).pattern,
                      cfgs[kind].chi2.pattern):
            assert again.tobytes() == pattern.tobytes()
            assert again.flags.writeable and again is not leaked
        constant = amplitude._PATTERNS[kind]
        assert constant.tobytes() == pattern.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            constant[0, 0] = 7.0
    for kind, cfg in cfgs.items():
        farfield, matrices = before[kind]
        assert amplitude_farfield(cfg).matrix.tobytes() == farfield.tobytes()
        assert _angular_matrices(cfg).tobytes() == matrices.tobytes()


# ---------------------------------------------------------------------------
# Phase matching
# ---------------------------------------------------------------------------

def _collinear_phase(n_imag=0.0):
    mat = bbo_ordinary()
    if n_imag:
        mat = mat.with_absorption(n_imag)
    n_s = dispersion_eval(mat, OMEGA)
    n_p = dispersion_eval(mat, 2.0 * OMEGA)
    kin_s = kinematics(OMEGA, n_s)
    kin_p = kinematics(2.0 * OMEGA, n_p)
    return phase_terms(kin_s, kin_s, kin_p), kin_s, kin_p


def test_phase_terms_identities():
    pm, kin_s, kin_p = _collinear_phase(3e-6)
    assert pm.delta_k + pm.sigma_k == pytest.approx(2.0 * kin_p.k_z,
                                                    rel=1e-15)
    assert pm.sigma_k - pm.delta_k == pytest.approx(4.0 * kin_s.k_z,
                                                    rel=1e-15)


def test_phase_mismatch_frozen_values():
    pm, _, _ = _collinear_phase()
    assert pm.delta_k == pytest.approx(1888748.0108507574, rel=1e-12)
    assert pm.sigma_k == pytest.approx(80766944.04764712, rel=1e-12)


def test_uniform_absorption_leaves_mismatch_real():
    pm, _, _ = _collinear_phase(1e-6)
    # pump Im cancels the two split-mode Im parts down to the sqrt(k^2)
    # rounding floor of the longitudinal components
    floor = 8.0 * np.finfo(float).eps * abs(pm.sigma_k.imag)
    assert abs(pm.delta_k.imag) <= floor
    want = 4.0 * OMEGA * 1e-6 / C_LIGHT
    assert pm.sigma_k.imag == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# complex sinc and the longitudinal profile
# ---------------------------------------------------------------------------

def test_complex_sinc_values():
    assert complex_sinc(0.0) == 1.0
    w = 0.5 + 0.3j
    assert complex_sinc(w) == pytest.approx(np.sin(w) / w, rel=1e-14)
    assert abs(complex_sinc(np.pi)) < 1e-15
    arr = complex_sinc(np.array([0.0, np.pi, 2.0 * np.pi]))
    assert arr.shape == (3,)


def test_complex_sinc_takes_series_only_at_small_entries():
    rng = np.random.default_rng(7)
    w = (rng.uniform(-40.0, 40.0, 500)
         + 1j * rng.uniform(-3.0, 3.0, 500))
    w[:3] = [2e-8, 1e-8, -1e-8j]
    assert np.array_equal(complex_sinc(w), np.sin(w) / w)
    mixed = w.copy()
    small = np.array([5, 17, 300])
    mixed[small] = [0.0, 9.9e-9, 3e-9 - 4e-9j]
    big = np.ones(w.size, dtype=bool)
    big[small] = False
    got = complex_sinc(mixed)
    assert np.array_equal(got[big], np.sin(w[big]) / w[big])
    assert np.array_equal(got[small],
                          1.0 - mixed[small] * mixed[small] / 6.0)
    for zero_d in (0.0, 1e-9, 0.5 + 0.3j, np.float64(2.0), np.array(3.0j)):
        assert type(complex_sinc(zero_d)) is complex


def test_complex_sinc_series_switch_is_continuous():
    lo, hi = complex_sinc(0.999e-8), complex_sinc(1.001e-8)
    assert abs(lo - hi) < 1e-15


def test_sinc_profile_lossless_minima_vanish():
    for m in (1, 2, 3):
        pm = PhaseMatch(delta_k=2.0 * np.pi * m / LENGTH, sigma_k=8.08e7)
        assert sinc_profile(pm, LENGTH) < 1e-12


def test_sinc_profile_minima_lift_with_unbalanced_absorption():
    pm = PhaseMatch(delta_k=2.0 * np.pi / LENGTH + 200.0j, sigma_k=8.08e7)
    assert sinc_profile(pm, LENGTH) > 1e-4


def test_sinc_profile_balanced_absorption_keeps_zero_minima():
    # real mismatch, lossy phase sum: minima at zero, peak damped
    pm_min = PhaseMatch(delta_k=2.0 * np.pi / LENGTH, sigma_k=8.08e7 + 47.2j)
    pm_top = PhaseMatch(delta_k=0.0, sigma_k=8.08e7 + 47.2j)
    assert sinc_profile(pm_min, LENGTH) < 1e-12
    assert sinc_profile(pm_top, LENGTH) == pytest.approx(
        np.exp(-47.2 * LENGTH), rel=1e-12)
    for length in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="length"):
            sinc_profile(pm_top, length)


# ---------------------------------------------------------------------------
# Slab transfer factor
# ---------------------------------------------------------------------------

def _x_factor_table(n_imag):
    """Normal-incidence X factors at the regression operating point."""
    mat = bbo_ordinary().with_absorption(n_imag) if n_imag \
        else bbo_ordinary()
    n_s = dispersion_eval(mat, OMEGA)
    n_p = dispersion_eval(mat, 2.0 * OMEGA)
    kin_s = kinematics(OMEGA, n_s)
    kin_p = kinematics(2.0 * OMEGA, n_p)
    fres_p = fresnel(TEM, kin_p, n_p * n_p, LENGTH)
    fres = {s: fresnel(s, kin_s, n_s * n_s, LENGTH) for s in (TE, TM)}
    sigma_k = 2.0 * kin_s.k_z      # split-pair longitudinal sum at kappa=0
    return {(a, b): x_factor(a, b, fres_p, fres[a], fres[b], sigma_k,
                             LENGTH)
            for a in (TE, TM) for b in (TE, TM)}


def test_x_factor_frozen_baselines_lossless():
    x = _x_factor_table(0.0)
    want_eq = 1.3057190237246235 - 0.08085227932384753j
    want_cr = 1.2802464521801906 - 0.04441313207524032j
    assert x[(TE, TE)] == pytest.approx(want_eq, rel=1e-12)
    assert x[(TM, TM)] == pytest.approx(want_eq, rel=1e-12)
    assert x[(TE, TM)] == pytest.approx(want_cr, rel=1e-12)
    assert x[(TM, TE)] == pytest.approx(want_cr, rel=1e-12)


def test_x_factor_frozen_baselines_absorbing():
    x = _x_factor_table(1e-6)
    assert x[(TE, TE)] == pytest.approx(
        1.2944567290518447 - 0.07969473851428718j, rel=1e-12)
    assert x[(TE, TM)] == pytest.approx(
        1.270366513502047 - 0.04521425343343012j, rel=1e-12)


def test_x_factor_vacuum_is_unity():
    kin = kinematics(OMEGA, 1.0, (2.0e5, 0.0))
    kin_p = kinematics(2.0 * OMEGA, 1.0)
    fres_p = fresnel(TEM, kin_p, 1.0 + 0j, LENGTH)
    fres_te = fresnel(TE, kin, 1.0 + 0j, LENGTH)
    fres_tm = fresnel(TM, kin, 1.0 + 0j, LENGTH)
    assert x_factor(TE, TM, fres_p, fres_te, fres_tm, 2.0 * kin.k_z,
                    LENGTH) == 1.0 + 0j


def test_x_factor_polarization_guards():
    kin = kinematics(OMEGA, 1.0, (2.0e5, 0.0))
    fres_te = fresnel(TE, kin, 1.0 + 0j, LENGTH)
    with pytest.raises(ValueError):
        x_factor(TE, TE, fres_te, fres_te, fres_te, 1.0, LENGTH)
    kin_p = kinematics(2.0 * OMEGA, 1.0)
    fres_p = fresnel(TEM, kin_p, 1.0 + 0j, LENGTH)
    with pytest.raises(ValueError):
        x_factor(TM, TE, fres_p, fres_te, fres_te, 1.0, LENGTH)


# ---------------------------------------------------------------------------
# 2-D integrands against the reduced radial forms
# ---------------------------------------------------------------------------

def _reduced_radial(cfg, kind, kappa):
    """Reduced radial integrand rebuilt from public pieces only."""
    om_s, om_i = cfg.signal_frequency, cfg.idler_frequency
    length = cfg.crystal.length
    n_s = cfg.crystal.index(om_s)
    n_i = cfg.crystal.index(om_i)
    n_p = cfg.crystal.index(cfg.pump_frequency)
    kin_s = kinematics(om_s, n_s, (kappa, 0.0))
    kin_i = kinematics(om_i, n_i, (kappa, 0.0))
    kin_p = kinematics(cfg.pump_frequency, n_p)
    fres_p = fresnel(TEM, kin_p, n_p * n_p, length)
    fres_s = {s: fresnel(s, kin_s, n_s * n_s, length) for s in (TE, TM)}
    fres_i = {s: fresnel(s, kin_i, n_i * n_i, length) for s in (TE, TM)}
    pm = phase_terms(kin_s, kin_i, kin_p)
    x = {(a, b): x_factor(a, b, fres_p, fres_s[a], fres_i[b], pm.sigma_k,
                          length)
         for a in (TE, TM) for b in (TE, TM)}
    c_s = kin_s.k_z / kin_s.k
    c_i = kin_i.k_z / kin_i.k
    slab = complex_sinc(0.5 * pm.delta_k * length) \
        * np.exp(0.5j * pm.sigma_k * length)
    if kind == "I":
        bracket = x[(TE, TE)] + (c_s * c_i) ** 2 * x[(TM, TM)]
        denom = 4.0 * np.pi * kin_s.k_z * kin_i.k_z
    else:
        bracket = (x[(TE, TE)] + c_s * c_s * x[(TM, TE)]
                   + c_i * c_i * x[(TE, TM)]
                   + (c_s * c_i) ** 2 * x[(TM, TM)])
        denom = 8.0 * np.pi * kin_s.k_z * kin_i.k_z
    detector = np.exp(1j * (kin_s.q_z * cfg.z_signal
                            + kin_i.q_z * cfg.z_idler))
    return kappa / denom * slab * bracket * detector


def _closed_form(cfg, kind, kappa):
    """Library angular rows contracted with their matrices, detector phase
    included."""
    cfg = replace(cfg, chi2=Chi2Geometry(kind=kind, d=cfg.chi2.d))
    ch = _Channels(_Modes.of(cfg), np.array([kappa]))
    rows = kappa * _angular_rows(cfg, ch, kappa, np.hypot(*cfg.offset))[:, 0]
    matrices = _angular_matrices(cfg)[:len(rows)]
    detector = np.exp(1j * (ch.sig.q_z * cfg.z_signal
                            + ch.idl.q_z * cfg.z_idler))[0]
    return np.tensordot(rows, matrices, 1) * detector


def test_integrand_angular_average_matches_reduced_form():
    """phi quadrature of the 2-D integrands against the closed forms.

    On axis the ring matches both the library rows and the reduced form
    rebuilt from public pieces. Off axis a 20 um offset at psi = 0.3 rad and
    a split away from degeneracy (so the (EM - ME) row is not zero) exercise
    every row matrix; z stays small there because at z ~ 0.8 m the ring's
    own detector-phase rounding is near the 1e-9 bound.
    """
    base = make_cfg()
    collinear = replace(base, z_signal=0.7, z_idler=0.9)
    displaced = replace(make_cfg(omega_s=1.05 * OMEGA, omega_i=0.95 * OMEGA),
                        z_signal=5e-3, z_idler=7e-3,
                        offset=(2e-5 * np.cos(0.3), 2e-5 * np.sin(0.3)))
    rng = np.random.default_rng(31)
    patterns = {"I": np.eye(2), "II": np.array([[0.0, 1.0], [1.0, 0.0]])}
    integrands = {"I": integrand_typeI, "II": integrand_typeII}
    for cfg, bound, rings in ((collinear, 1e-6, 6), (displaced, 1e-9, 3)):
        kap_max = min(cfg.signal_frequency, cfg.idler_frequency) / C_LIGHT
        for _ in range(rings):
            kappa = rng.uniform(0.02, 0.98) * kap_max
            for kind in ("I", "II"):
                def ring(phis):
                    k_perp = (kappa * np.cos(phis), kappa * np.sin(phis))
                    out = integrands[kind](k_perp, cfg)
                    return out.reshape(np.shape(phis) + (4,))

                got = (kappa * integrate_angular(ring, rel_tol=1e-10)
                       ).reshape(2, 2)
                wants = [_closed_form(cfg, kind, kappa)]
                if cfg.collinear:
                    wants.append(_reduced_radial(cfg, kind, kappa)
                                 * patterns[kind])
                for want in wants:
                    dev = np.max(np.abs(got - want))
                    assert dev <= bound * np.max(np.abs(want)), (kind, kappa)


def test_integrand_domain_guards():
    cfg = make_cfg()
    with pytest.raises(ValueError, match="propagating disc"):
        integrand_typeI((0.0, 0.0), cfg)
    kap_max = OMEGA / C_LIGHT
    with pytest.raises(ValueError, match="propagating disc"):
        integrand_typeII((1.01 * kap_max, 0.0), cfg)
    # a stack is checked at every sample
    stack = np.array([[0.5, 0.2, 1.01, 0.3], [0.0, 0.1, 0.0, 0.2]]) * kap_max
    with pytest.raises(ValueError, match="propagating disc") as info:
        integrand_typeI(stack, cfg)
    assert info.value.index == 2
    # kinematics' k_perp checks: a complex vector is not cast to its real
    # part, and a bad node is named by its index
    kap, zeros = 0.5 * kap_max, np.zeros(3)
    for integrand in (integrand_typeI, integrand_typeII):
        for k_perp, message, index in (
                ((np.array([kap, kap + 1e-3j * kap, kap]), zeros), "real", 1),
                ((kap + 1e-3j * kap, 0.0), "real", 0),
                ((kap, 1j * kap), "real", 0),
                ((np.array([kap, kap, np.nan]), zeros), "finite", 2),
                ((np.inf, 0.0), "finite", 0)):
            with pytest.raises(ValueError, match=f"k_perp must be {message}"
                               ) as info:
                integrand(k_perp, cfg)
            assert info.value.index == index
        # a complex dtype with zero imaginary parts is a real vector
        real = np.array([kap, 0.5 * kap, 0.7 * kap])
        assert np.array_equal(integrand((real + 0j, zeros), cfg),
                              integrand((real, zeros), cfg))



def test_stacked_integrand_matches_single_calls():
    rng = np.random.default_rng(7)
    displaced = replace(make_cfg(omega_s=1.05 * OMEGA, omega_i=0.95 * OMEGA),
                        z_signal=5e-3, z_idler=7e-3, offset=(2e-5, -1e-5))
    for cfg in (make_cfg(), displaced):
        kap_max = min(cfg.signal_frequency, cfg.idler_frequency) / C_LIGHT
        kappa = rng.uniform(0.02, 0.98, 9) * kap_max
        phi = rng.uniform(0.0, 2.0 * np.pi, 9)
        stack = np.array([kappa * np.cos(phi), kappa * np.sin(phi)])
        for integrand in (integrand_typeI, integrand_typeII):
            got = integrand(stack, cfg)
            assert got.shape == (9, 2, 2)
            for j in range(9):
                one = integrand((stack[0, j], stack[1, j]), cfg)
                assert one.shape == (2, 2)
                assert np.max(np.abs(got[j] - one)) \
                    <= 1e-14 * np.max(np.abs(one))


# ---------------------------------------------------------------------------
# Numeric disc integral against the far-field form
# ---------------------------------------------------------------------------

def test_numeric_matches_farfield_both_types():
    for kind in ("I", "II"):
        cfg = make_cfg(kind=kind, z=0.2)
        num = amplitude_numeric(cfg, tol=1e-6)
        far = amplitude_farfield(cfg)
        scale = np.max(np.abs(far.matrix))
        assert np.max(np.abs(num.matrix - far.matrix)) < 0.02 * scale


def test_farfield_agreement_improves_with_distance():
    devs = []
    for z in (0.1, 1.0):
        cfg = make_cfg(kind="I", z=z)
        num = amplitude_numeric(cfg, tol=1e-7)
        far = amplitude_farfield(cfg)
        devs.append(np.max(np.abs(num.matrix - far.matrix))
                    / np.max(np.abs(far.matrix)))
    # leading far-field corrections fall off like 1/z
    assert devs[1] < 0.2 * devs[0]


def test_farfield_rejects_displaced_detectors():
    shifted = make_cfg(offset=(1e-4, 0.0), z=1.0)
    with pytest.raises(ValueError, match="amplitude_numeric"):
        amplitude_farfield(shifted)


def test_farfield_matches_numeric_off_degeneracy():
    """The kappa = 0 endpoint term covers split frequencies as well as the
    degenerate point: within 2e-3 of the disc integral at 1 m, for equal
    and unequal detector distances, and closing in like 1/z. The signal
    and idler differ by ``split`` of the pump frequency."""
    at_1m = ((1.0, 1.0), (1.0, 0.6))
    for split, places in ((0.03, at_1m), (0.15, at_1m + ((0.1, 0.1),))):
        om_s, om_i = OMEGA * (1.0 - split), OMEGA * (1.0 + split)
        for kind in ("I", "II"):
            devs = {}
            for z_s, z_i in places:
                cfg = replace(make_cfg(kind=kind, omega_s=om_s, omega_i=om_i),
                              z_signal=z_s, z_idler=z_i)
                far = amplitude_farfield(cfg).matrix
                num = amplitude_numeric(cfg, tol=1e-7).matrix
                devs[z_s, z_i] = (np.linalg.norm(far - num)
                                  / np.linalg.norm(num))
            assert devs[1.0, 1.0] <= 2e-3 and devs[1.0, 0.6] <= 2e-3, \
                (split, kind, devs)
            if split == 0.15:
                assert devs[1.0, 1.0] < 0.2 * devs[0.1, 0.1], (kind, devs)


def _swap_cfg(kind, loss):
    """A 4% split with unequal distances: lossless, uniform n'' or n''
    split between the daughters and the pump."""
    if loss == "split":
        return load_config(
            f"conversion = {kind}\nn_imag = 2e-6\nn_imag_pump = 1.2e-5\n"
            f"signal_frequency = {OMEGA * 0.96!r}\n"
            f"idler_frequency = {OMEGA * 1.04!r}\n"
            "z_signal = 100 mm\nz_idler = 70 mm\n")
    cfg = _split_cfg(kind, 0.04, n_imag=1e-6 if loss == "uniform" else 0.0)
    return replace(cfg, z_signal=0.1, z_idler=0.07)


@pytest.mark.parametrize("loss", ["lossless", "uniform", "split"])
@pytest.mark.parametrize("kind", ["I", "II"])
def test_signal_idler_swap_transposes_the_amplitude(kind, loss):
    # Swapping signal and idler (frequency, distance and side of the
    # offset) trades the two detectors' polarization indices: the matrix
    # is transposed and the rate unchanged, on both routes (measured
    # within 1.2e-15). Collinear matrices are symmetric; with an offset the
    # Type II (EM - ME) row adds an antisymmetric part, 2e-9 of it here.
    base = _swap_cfg(kind, loss)
    for route, offset in ((amplitude_farfield, None),
                          (amplitude_numeric, None),
                          (amplitude_numeric, (2e-5, 1e-5))):
        cfg, swapped = base, replace(
            base, signal_frequency=base.idler_frequency,
            idler_frequency=base.signal_frequency, z_signal=base.z_idler,
            z_idler=base.z_signal)
        if offset is not None:
            cfg = replace(cfg, offset=offset)
            swapped = replace(swapped, offset=(-offset[0], -offset[1]))
        amp, amp_swapped = route(cfg), route(swapped)
        assert rate(amp_swapped) == pytest.approx(rate(amp), rel=1e-12)
        assert np.linalg.norm(amp_swapped.matrix - amp.matrix.T) \
            <= 1e-12 * np.linalg.norm(amp.matrix)


def test_amplitude_scales_linearly_in_drive_and_strength():
    base = rate(amplitude_farfield(make_cfg(z=1.0)))
    boosted = rate(amplitude_farfield(make_cfg(z=1.0, pump_field=2e5,
                                               d=2e-12)))
    assert boosted == pytest.approx(16.0 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# Polarization structure of the amplitude matrix
# ---------------------------------------------------------------------------

def _random_structure_cases(rng, count):
    cases = []
    while len(cases) < count:
        om_s = rng.uniform(2.2e15, 3.4e15)
        om_i = rng.uniform(2.2e15, 3.4e15)
        if om_s + om_i > 6.9e15:
            continue
        cases.append(dict(
            omega_s=om_s, omega_i=om_i,
            n_imag=rng.uniform(0.0, 1e-5),
            length=rng.uniform(0.5e-3, 3e-3),
            z=rng.uniform(0.05, 0.15)))
    return cases


@pytest.mark.parametrize("kind", ["I", "II"])
def test_matrix_structure_and_entanglement(kind):
    rng = np.random.default_rng(47)
    pattern = np.eye(2) if kind == "I" else np.array([[0.0, 1.0],
                                                      [1.0, 0.0]])
    for i, case in enumerate(_random_structure_cases(rng, 4)):
        cfg = make_cfg(kind=kind, **case)
        if i < 2:
            amp = amplitude_numeric(cfg, tol=1e-6)
        else:
            cfg = make_cfg(kind=kind, n_imag=case["n_imag"],
                           length=case["length"], z=1.0)
            amp = amplitude_farfield(cfg)
        scale = np.linalg.norm(amp.matrix)
        coef = amp.matrix[0, 0] if kind == "I" else amp.matrix[0, 1]
        assert np.linalg.norm(amp.matrix - coef * pattern) <= 1e-10 * scale
        sv = np.linalg.svd(amp.matrix, compute_uv=False)
        assert abs(sv[0] - sv[1]) <= 1e-12 * sv[0]


def test_vanishing_offset_recovers_collinear_route():
    on_axis = amplitude_numeric(make_cfg(kind="II", z=0.1), tol=1e-6)
    shifted = amplitude_numeric(make_cfg(kind="II", z=0.1,
                                         offset=(1e-12, 0.0)), tol=1e-6)
    scale = np.max(np.abs(on_axis.matrix))
    assert np.max(np.abs(on_axis.matrix - shifted.matrix)) < 1e-9 * scale


# ---------------------------------------------------------------------------
# Steepest-descent head against the GK15 head
# ---------------------------------------------------------------------------

def _split_cfg(kind, frac, **kw):
    return make_cfg(kind=kind, omega_s=OMEGA * (1.0 - frac),
                    omega_i=OMEGA * (1.0 + frac), **kw)


# Configs that close the tail, so that the head is the path's: Types I and
# II, z from 1 cm to 1 m, a 10% split, split absorption, lossless slabs,
# unequal distances, offsets up to 0.2 mm, and 4 mm and 0.1 mm slabs.
_PATH_SPREAD = {
    "I-1m": make_cfg(z=1.0),
    "II-1m": make_cfg(kind="II", z=1.0),
    "I-0.3m": make_cfg(z=0.3),
    "II-0.1m": make_cfg(kind="II", z=0.1),
    "I-3cm": make_cfg(z=0.03),
    "II-1cm": make_cfg(kind="II", z=0.01),
    "I-split-0.1m": _split_cfg("I", 0.1, z=0.1),
    "II-split-5cm": _split_cfg("II", 0.1, z=0.05),
    "I-split-loss": load_config("n_imag = 3e-6\nn_imag_pump = 1.5e-5\n"
                                "z_signal = 100 mm\nz_idler = 100 mm\n"),
    "II-split-loss": load_config("conversion = II\nn_imag = 2e-6\n"
                                 "n_imag_pump = 2e-5\nz_signal = 20 mm\n"
                                 "z_idler = 20 mm\n"),
    "I-lossless": make_cfg(n_imag=0.0, z=0.1),
    "II-lossless": make_cfg(kind="II", n_imag=0.0, z=0.03),
    "I-unequal-z": replace(make_cfg(z=0.1), z_idler=0.07),
    "II-unequal-z": replace(make_cfg(kind="II", z=0.02), z_idler=0.03),
    "I-1um": make_cfg(z=0.1, offset=(1e-6, 0.0)),
    "II-20um": make_cfg(kind="II", z=0.1, offset=(1.2e-5, -1.6e-5)),
    "I-0.2mm": make_cfg(z=0.1, offset=(0.0, 2e-4)),
    "II-0.2mm-1m": make_cfg(kind="II", z=1.0, offset=(1.4e-4, 1.4e-4)),
    "I-20um-1cm": _split_cfg("I", 0.03, z=0.01, offset=(2e-5, 0.0)),
    "I-4mm-1m": make_cfg(length=4e-3, z=1.0),
    "II-4mm-5cm": make_cfg(kind="II", length=4e-3, z=0.05),
    "I-0.1mm-1cm": make_cfg(length=1e-4, z=0.01),
}


def _path_run(monkeypatch, cfg):
    """amplitude_numeric's path head: its arguments and its result."""
    seen = {}
    path_head = radial._path_head

    def spy(rows, phase, modes, d_c, tol, solved=None):
        out = path_head(rows, phase, modes, d_c, tol, solved)
        seen.update(rows=rows, phase=phase, modes=modes, d_c=d_c,
                    solved=solved, out=out)
        return out

    monkeypatch.setattr(radial, "_path_head", spy)
    amplitude_numeric(cfg, tol=1e-6)
    monkeypatch.undo()
    assert seen["out"] is not None
    return seen


def _gk15(seen, rel_tol, narrower=1):
    """GK15 panels (integrate_radial) over the same head: (1/2)
    int_0^{s_c} rows e^{i rise(d, 0)} ds in d = kappa_max - u, where
    ds = 2 u dd, over [0, d_c], and d_c = kappa_max for the disc. Equal
    seed panels hold half a cycle of the fastest detector plus slab phase
    rate, |slope(u)| + L u (1/|k_zs| + 1/|k_zi|), on a 513-point grid,
    divided by narrower, and the budget is 6 n_seed + 8000 panels. Raises
    ConvergenceError when its estimate misses rel_tol."""
    phase, rows, modes = seen["phase"], seen["rows"], seen["modes"]
    k, d_c = phase.kap_max, seen["d_c"]

    def f(d):
        return rows(_kappa(phase, d)) \
            * ((k - d) * np.exp(1j * phase.rise(d, 0.0)))

    d = np.linspace(0.0, d_c, 513)
    u, s = k - d, d * (2.0 * k - d)
    fastest = np.abs(phase.slope(u)) + modes.length * u * (
        1.0 / np.abs(np.sqrt(modes.k_s ** 2 - s))
        + 1.0 / np.abs(np.sqrt(modes.k_i ** 2 - s)))
    width = np.pi / fastest.max() / narrower
    spec = QuadratureSpec(rel_tol=rel_tol, max_subdivisions=6 * math.ceil(
        d_c / width) + 8000)
    return integrate_radial(f, 0.0, d_c, spec, max_panel=width)[0]


# Heads whose GK15 estimate stays above the suite's target at every seed
# width tried (up to 16 times narrower): each panel's |K - G| carries the
# kernel's rounding, about 1e-11 of a row from the slab phases, and the
# heads cancel to 1/8500 and 1/20000 of their sum of |f|, so the estimates
# floor at 5.5e-9 and 1.2e-8. They take the target that floor allows, on
# seed panels 4 times narrower; the oracle then lands 5.3e-11 and 2.7e-10
# from the head, inside the comparison bounds of 1e-10 and 1e-9.
_GK15_FLOORED = {"I-2mm-1.2mm": (1e-8, 4), "II-1cm": (2e-8, 4)}


def _norm(v):
    return float(np.sum(np.abs(v)))


def _kappa(phase, d):
    """kappa = sqrt(s) at d = kappa_max - u, s = d (2 kappa_max - d)."""
    return np.sqrt(d * (2.0 * phase.kap_max - d))


def _sc_path(seen, order=16):
    """I(s_c) alone, Gauss-Laguerre of this order: the contour from the
    cut, or the ray from grazing for the full disc."""
    phase, d_c = seen["phase"], seen["d_c"]
    _, d, dsdt = radial._path_nodes(phase, d_c, (order,))
    w = radial._laguerre(order)[1]
    return 0.5 * np.exp(1j * phase.rise(d_c, 0.0)) \
        * ((seen["rows"](_kappa(phase, d[1])) * dsdt[1]) @ w)


@pytest.mark.parametrize("name", sorted(_PATH_SPREAD))
def test_path_head_matches_gk15_head(monkeypatch, name):
    # I(0) - I(s_c) against GK15 panels over [0, d_c] at 1e-8
    # (_GK15_FLOORED aside), within 1e-9 of the head. The head without the
    # s_c contour would be off by at least 1e3 times that.
    seen = _path_run(monkeypatch, _PATH_SPREAD[name])
    head, _ = seen["out"]
    want = _gk15(seen, *_GK15_FLOORED.get(name, (1e-8,)))
    assert _norm(head - want) <= 1e-9 * _norm(want)
    assert _norm(head + _sc_path(seen) - want) >= 1e-6 * _norm(want)


def test_path_estimate_bounds_realized_deviation(monkeypatch):
    # The returned head against order 64 on the same paths. At 3 cm from a
    # 2 mm slab with a 0.2 mm offset (512 kept cycles) the N = 8 head is
    # off by 9.7e-9 and the estimate is its difference from N = 16;
    # elsewhere the rounding floor carries the estimate.
    close = make_cfg(z=0.03, offset=(2e-4, 0.0))
    for cfg in [close] + list(_PATH_SPREAD.values()):
        seen = _path_run(monkeypatch, cfg)
        head, err = seen["out"]
        args = (seen["rows"], seen["phase"], seen["d_c"])
        best, = radial._path_sums(*args, (64,))
        assert _norm(head - best) <= err
        if cfg is close:
            low, high = radial._path_sums(*args, (8, 16))
            assert _norm(low - best) >= 1e-10 * _norm(best)
            assert _norm(low - best) <= _norm(high - low) <= err


def _raises_at_once(cfg, tol=1e-6):
    """The ConvergenceError of amplitude_numeric, raised within 0.1 s.
    RuntimeWarnings are errors in this suite, so the refusal is quiet."""
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as info:
        amplitude_numeric(cfg, tol=tol)
    assert time.perf_counter() - start < 0.1
    return info.value


# ---------------------------------------------------------------------------
# The full disc on the path from the axis and the ray from grazing
# ---------------------------------------------------------------------------

_THIN = {"length": 1e-4, "z": 1.5e-4}
# Configs with too few cycles for a tail closure, so that the head is the
# full disc: 0.1 mm slabs 0.12-0.18 mm out, Types I and II, degenerate and
# 3-4% splits, n'' = 0, 1e-6 and 1e-5, unequal distances (also on the
# kappa_max mode of a split), a 5 um offset, and the 2 mm slab at 1.2 mm,
# whose 512-cycle tail closure is refused.
_DISC_SPREAD = {
    "I": make_cfg(**_THIN),
    "II": make_cfg(kind="II", **_THIN),
    "I-lossless": make_cfg(n_imag=0.0, **_THIN),
    "II-1e-5": make_cfg(kind="II", n_imag=1e-5, **_THIN),
    "I-split-3%": _split_cfg("I", 0.03, **_THIN),
    "II-split-4%": _split_cfg("II", 0.04, n_imag=1e-5, **_THIN),
    "I-unequal-z": replace(make_cfg(**_THIN), z_idler=1.2e-4),
    "II-split-unequal-z": replace(
        _split_cfg("II", -0.03, n_imag=0.0, **_THIN), z_signal=1.8e-4),
    "II-5um": make_cfg(kind="II", offset=(4e-6, -3e-6), **_THIN),
    "I-2mm-1.2mm": make_cfg(z=1.2e-3),
}


def _disc_run(monkeypatch, cfg):
    seen = _path_run(monkeypatch, cfg)
    assert seen["d_c"] == seen["phase"].kap_max
    return seen


@pytest.mark.parametrize("name", sorted(_DISC_SPREAD))
def test_disc_matches_gk15_full_range(monkeypatch, name):
    # I(0) - I_ray(s_max) against GK15 over the disc at 1e-9
    # (_GK15_FLOORED aside), within 1e-10 of the disc. The ray
    # term alone is above 1e-7 of it: 4.8e-7 at the 5 um offset, where
    # J_n(kappa rho) has fallen off by grazing, and 4e-5 to 4e-3 elsewhere.
    seen = _disc_run(monkeypatch, _DISC_SPREAD[name])
    head, _ = seen["out"]
    want = _gk15(seen, *_GK15_FLOORED.get(name, (1e-9,)))
    assert _norm(head - want) <= 1e-10 * _norm(want)
    assert _norm(_sc_path(seen)) >= 1e-7 * _norm(want)


@pytest.mark.parametrize("name", sorted(_DISC_SPREAD))
def test_disc_estimate_bounds_realized_deviation(monkeypatch, name):
    # The returned disc against order 64 on the same two contours.
    seen = _disc_run(monkeypatch, _DISC_SPREAD[name])
    head, err = seen["out"]
    best, = radial._path_sums(seen["rows"], seen["phase"], seen["d_c"],
                              (64,))
    assert _norm(head - best) <= err


# A refused closure: the 2 mm slab 4 mm out with a 0.1 mm offset. With
# more kept cycles its tail closed, 5.8e-7 off the disc.
_REFUSED_CUT = {"I-0.1mm": make_cfg(z=4e-3, offset=(1e-4, 0.0))}


@pytest.mark.parametrize("name", sorted(_REFUSED_CUT))
def test_refused_closure_takes_the_disc(monkeypatch, name):
    # One refused cut, then the full disc on its two contours: within 1e-9
    # of GK15 over the disc at 1e-9.
    seen = _disc_run(monkeypatch, _REFUSED_CUT[name])
    head, _ = seen["out"]
    want = _gk15(seen, 1e-9)
    assert _norm(head - want) <= 1e-9 * _norm(want)


@pytest.mark.parametrize("cfg", [
    replace(make_cfg(n_imag=0.0), z_signal=9.8e-3, z_idler=10.3e-3),
    make_cfg(z=0.01, offset=(1e-4, 0.0)),
], ids=["unequal-z-1cm", "0.1mm-1cm"])
def test_refused_closure_returns_the_converged_disc(monkeypatch, cfg):
    # Configs whose closure no kept-cycle count accepted, so that they
    # raised: the disc they now take agrees with order 128 to 1e-10.
    seen = _path_run(monkeypatch, cfg)
    phase = seen["phase"]
    assert seen["d_c"] == phase.kap_max
    head, _ = seen["out"]
    best, = radial._path_sums(seen["rows"], phase, phase.kap_max, (128,))
    assert _norm(head - best) <= 1e-10 * _norm(best)


# Displaced detectors at close range, q rho^2/z from 118 to 5900: J_n of
# the complex kappa rho grows along the contours faster than e^{-t} decays,
# so their orders never agree, or the rows overflow (1 mm at 2 mm and 6 mm).
_LARGE_OFFSETS = {
    "II-0.2mm-4mm": make_cfg(kind="II", z=4e-3, offset=(1.2e-4, 1.6e-4)),
    "II-0.3mm-4mm": make_cfg(kind="II", z=4e-3, offset=(0.0, 3e-4)),
    "I-0.3mm-1cm": make_cfg(z=0.01, offset=(3e-4, 0.0)),
    "I-1mm-1cm": make_cfg(z=0.01, offset=(1e-3, 0.0)),
    "I-1mm-2mm": make_cfg(z=2e-3, offset=(1e-3, 0.0)),
    "II-1mm-2mm": make_cfg(kind="II", z=2e-3, offset=(1e-3, 0.0)),
    "I-1mm-6mm": make_cfg(z=6e-3, offset=(1e-3, 0.0)),
}


@pytest.mark.parametrize("name", sorted(_LARGE_OFFSETS))
def test_large_offsets_at_close_range_raise(name):
    exc = _raises_at_once(_LARGE_OFFSETS[name])
    assert "contour" in str(exc)
    assert exc.value is None or np.shape(exc.value) == (2, 2)


def test_path_head_refuses_rows_that_are_not_finite():
    # Rows that are not finite refuse at the first order pair, before N
    # doubles, with no value to carry.
    cfg = make_cfg(z=1.2e-3)
    modes = _Modes.of(cfg)
    phase = radial._DetectorPhase(cfg, modes)
    sizes = []

    def rows(kap):
        sizes.append(kap.size)
        return np.full((1, kap.size), np.inf + 0j)

    with pytest.raises(ConvergenceError, match="not finite") as info:
        radial._path_head(rows, phase, modes, phase.kap_max, 1e-6)
    assert info.value.value is None and info.value.error == np.inf
    assert sizes == [48]


# ---------------------------------------------------------------------------
# What a cut computes: the full plane, not the disc
# ---------------------------------------------------------------------------

def _plane(rows, phase, order=64):
    """I_SD(0), the contour from s = 0 alone, at this order."""
    _, d, dsdt = radial._path_nodes(phase, phase.kap_max, (order,))
    w = radial._laguerre(order)[1]
    return 0.5 * ((rows(_kappa(phase, d[0])) * dsdt[0]) @ w)


def _ray(cfg, rows, phase, alpha, order=64):
    """The full plane on the straight ray s = r e^{-i alpha} from s = 0.

    Near the axis rise(d, 0) = -s Z/2 + O(s^2), Z = z_s/q_s + z_i/q_i, so
    on the ray e^{i rise} decays like e^{-r Z sin(alpha)/2}: Gauss-Laguerre
    in r scaled by that rate, on nodes that are not the contours'. With u
    the principal sqrt(kappa_max^2 - s) (Im u > 0 below the real s axis),
    d = kappa_max - u is computed as s/(kappa_max + u), which does not
    cancel near the axis.
    """
    k = phase.kap_max
    spread = cfg.z_signal / cfg.signal_frequency \
        + cfg.z_idler / cfg.idler_frequency
    decay = 0.5 * np.sin(alpha) * C_LIGHT * spread
    x, w = radial._laguerre(order)
    s = x / decay * np.exp(-1j * alpha)
    d = s / (k + np.sqrt(k * k - s))
    terms = rows(np.sqrt(s)) * np.exp(1j * phase.rise(d, 0.0) + x)
    return 0.5 * np.exp(-1j * alpha) / decay * (terms @ w)


# Types I and II, degenerate and 4% splits, split absorption, lossless,
# unequal distances, 1 cm to 3 m, offsets of 20 um at 1 cm and 0.2 mm at
# 3 cm, 0.1 mm slabs 1, 10 and 50 um out, and a 2 mm slab 1 um out.
_RAY_SPREAD = {
    "I-1m": make_cfg(z=1.0),
    "II-3m": make_cfg(kind="II", z=3.0),
    "II-0.1m": make_cfg(kind="II", z=0.1),
    "I-split-0.1m": _split_cfg("I", 0.04, z=0.1),
    "II-split-1cm": _split_cfg("II", 0.04, z=0.01),
    "II-split-loss": _PATH_SPREAD["II-split-loss"],
    "I-lossless": make_cfg(n_imag=0.0, z=0.3),
    "I-unequal-z": _PATH_SPREAD["I-unequal-z"],
    "I-20um-1cm": make_cfg(z=0.01, offset=(2e-5, 0.0)),
    "II-0.2mm-3cm": make_cfg(kind="II", z=0.03, offset=(0.0, 2e-4)),
    "I-thin-10um": make_cfg(length=1e-4, z=6e-5),
    "II-thin-1um": make_cfg(kind="II", length=1e-4, z=5.1e-5),
    "I-2mm-1um": make_cfg(z=1.001e-3),
    "II-thin-split": _split_cfg("II", 0.04, length=1e-4, z=1e-4),
}


@pytest.mark.parametrize("name", sorted(_RAY_SPREAD))
def test_full_plane_path_matches_straight_rays(name):
    # I_SD(0) at order 64 against the rays at 45 and 60 degrees, which
    # share only the kernel and rise with it: within 1e-10 (measured
    # 4e-14 to 1.1e-11). Their nodes differ, and a path on the wrong side
    # of the real s axis, where e^{i rise} grows like e^{t}, fails here.
    cfg = _RAY_SPREAD[name]
    modes = _Modes.of(cfg)
    phase = radial._DetectorPhase(cfg, modes)
    rho = float(np.hypot(*cfg.offset))

    def rows(kap):
        return _angular_rows(cfg, _Channels(modes, kap), kap, rho)

    plane = _plane(rows, phase)
    for alpha in (0.25 * np.pi, np.pi / 3.0):
        ray = _ray(cfg, rows, phase, alpha)
        assert _norm(plane - ray) <= 1e-10 * _norm(plane), alpha

@pytest.mark.parametrize("z", [1.0, 3.0])
@pytest.mark.parametrize("kind", ["I", "II"])
def test_cut_amplitude_tracks_the_full_plane(monkeypatch, z, kind):
    # I_SD(0), the path from s = 0 alone, is the whole transverse plane; the
    # disc is I_SD(0) minus the evanescent sector (the ray's integral). A
    # cut's tail series drops the grazing endpoint's term, minus that
    # sector, so a cut amplitude is within 1.5e-9 of I_SD(0) (measured
    # 3e-11 to 1.4e-9) and off the disc by about the sector, 3.7e-9 to
    # 2.4e-8 here.
    for cfg in (make_cfg(kind=kind, n_imag=0.0, z=z),
                _split_cfg(kind, 0.04, z=z)):
        seen = _path_run(monkeypatch, cfg)
        rows, phase = seen["rows"], seen["phase"]
        assert seen["d_c"] < phase.kap_max
        got, _ = radial._integrate_oscillatory(rows, phase, seen["modes"],
                                               1e-6)
        got = got * np.exp(-1j * phase.psi_ref)
        plane = _plane(rows, phase)
        disc, = radial._path_sums(rows, phase, phase.kap_max, (64,))
        scale = _norm(plane)
        sector = _norm(plane - disc)
        assert sector >= 3e-9 * scale
        assert _norm(got - plane) <= min(1.5e-9 * scale, 0.2 * sector)
        assert _norm(got - disc) >= 0.5 * sector


# ---------------------------------------------------------------------------
# Kept-cycle cut
# ---------------------------------------------------------------------------

def _cut_cases(rng, count):
    """(phase, kept, cycles / kept) over both types, splits to 10%, unequal
    distances and slabs of 0.1 to 4 mm. Half have 1.5 < cycles / kept <= 2,
    where the paraxial s of the cut, 4 pi kept / Z, can lie beyond the disc."""
    cases = []
    while len(cases) < count:
        kept = int(rng.choice([512, 2048, 8192]))
        ratio = (rng.uniform(1.52, 2.0) if rng.random() < 0.5
                 else 10.0 ** rng.uniform(0.3, 2.5))
        frac = rng.choice([0.0, rng.uniform(-0.1, 0.1)])
        length = 10.0 ** rng.uniform(-4.0, np.log10(4e-3))
        cfg = _split_cfg(rng.choice(["I", "II"]), frac, length=length, z=1.0)
        cfg = replace(cfg, z_idler=rng.uniform(0.5, 2.0))
        modes = _Modes.of(cfg)
        # Psi is linear in the distances: scale both to the wanted cycles.
        phase = radial._DetectorPhase(cfg, modes)
        psi = phase.rise(phase.kap_max, 0.0)
        scale = -2.0 * np.pi * ratio * kept / psi
        if scale * min(1.0, cfg.z_idler) <= 0.5 * length:
            continue
        cfg = replace(cfg, z_signal=scale, z_idler=scale * cfg.z_idler)
        cases.append((radial._DetectorPhase(cfg, modes), kept, ratio))
    return cases


def _bisect_cut(phase, kept):
    """d where rise(d, 0) + 2 pi kept changes sign, to adjacent doubles."""
    lo, hi = 0.0, phase.kap_max
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if phase.rise(mid, 0.0) + 2.0 * np.pi * kept > 0.0:
            lo = mid
        else:
            hi = mid


def test_cut_meets_kept_cycles_to_rounding():
    # rise(d_c, 0) = -2 pi kept within a few ulps of 2 pi kept, and d_c
    # within a few ulps of bisection, down to cycles = 1.5 kept, the fewest
    # at which the route cuts.
    cases = _cut_cases(np.random.default_rng(16), 240)
    for kept in (512, 2048, 8192):
        assert sum(k == kept and r <= 2.0 for _, k, r in cases) >= 10
    for phase, kept, _ in cases:
        d_c = phase.cut(kept)
        target = 2.0 * np.pi * kept
        assert abs(phase.rise(d_c, 0.0) + target) \
            <= 10.0 * np.spacing(target)
        assert abs(d_c - _bisect_cut(phase, kept)) <= 8.0 * np.spacing(d_c)


# ---------------------------------------------------------------------------
# Failure modes and containers
# ---------------------------------------------------------------------------

def test_unreachable_tolerance_raises_with_partial_result():
    # Below the path head's rounding floor (about 4e-11 of a 2 mm slab's
    # head) the path refuses after its first order pair.
    cfg = make_cfg(z=0.1)
    good = amplitude_numeric(cfg, tol=1e-6).matrix
    for tol in (1e-12, 1e-15):
        exc = _raises_at_once(cfg, tol)
        assert "rounding floor" in str(exc)
        assert np.shape(exc.value) == (2, 2)
        assert np.isfinite(exc.error)
        # The carried value is an amplitude estimate: head plus tail, with
        # the reference phase restored.
        dev = np.linalg.norm(exc.value - good) / np.linalg.norm(good)
        assert dev <= 1e-6
    for bad in (0.0, np.nan):
        with pytest.raises(ValueError):
            amplitude_numeric(cfg, tol=bad)


def test_amplitude_container():
    amp = BiphotonAmplitude.from_matrix([[1.0, 0.0], [0.0, 1j]])
    assert rate(amp) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        BiphotonAmplitude.from_matrix(np.zeros((3, 3)))


def test_vacuum_crystal_amplitude_is_finite():
    cfg = ExperimentConfig(
        crystal=CrystalSlab(material=vacuum(), length=LENGTH),
        chi2=Chi2Geometry("I", d=1e-12), pump_field=1e5,
        signal_frequency=OMEGA, idler_frequency=OMEGA, z_signal=1.0,
        z_idler=1.0)
    amp = amplitude_farfield(cfg)
    assert np.isfinite(rate(amp)) and rate(amp) > 0.0
