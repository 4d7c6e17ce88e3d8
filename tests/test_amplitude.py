"""Biphoton amplitude pipeline: configs, slab factors, quadrature routes.

The load-bearing checks are the cross-route agreements: phi-quadrature of
the 2-D integrands against the library's closed-form angular rows and the
reduced radial forms rebuilt here from public pieces, and the numeric disc
integral against the closed far-field form, which must also converge
toward it as the detectors recede.
"""

from dataclasses import replace

import numpy as np
import pytest

from slabpdc.amplitude import (BiphotonAmplitude, ExperimentConfig,
                               PhaseMatch, _angular_matrices, _angular_rows,
                               _Channels, _Modes, amplitude_farfield,
                               amplitude_numeric, complex_sinc,
                               integrand_typeI, integrand_typeII,
                               phase_terms, rate, sinc_profile, x_factor)
from slabpdc.greens import Chi2Geometry
from slabpdc.materials import (TE, TEM, TM, C_LIGHT, CrystalSlab,
                               MaterialDispersion, bbo_ordinary,
                               dispersion_eval, fresnel, kinematics, vacuum)
from slabpdc.quadrature import ConvergenceError, integrate_angular

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
        pump_field=pump_field, pump_frequency=om_s + om_i,
        z_signal=z, z_idler=z,
        signal_frequency=om_s, idler_frequency=om_i, offset=offset)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_default_split_is_degenerate_collinear():
    cfg = ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                           pump_field=1e5, pump_frequency=2.0 * OMEGA,
                           z_signal=1.0, z_idler=1.0)
    assert cfg.signal_frequency == OMEGA
    assert cfg.idler_frequency == OMEGA
    assert cfg.pump_z == -0.5 * cfg.crystal.length
    assert cfg.signal_frequency == cfg.idler_frequency and cfg.collinear


def test_energy_conservation_enforced():
    with pytest.raises(ValueError, match="energy conservation"):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=1e5, pump_frequency=2.0 * OMEGA,
                         z_signal=1.0, z_idler=1.0,
                         signal_frequency=OMEGA,
                         idler_frequency=1.01 * OMEGA)


def test_single_split_frequency_rejected():
    with pytest.raises(ValueError, match="both"):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=1e5, pump_frequency=2.0 * OMEGA,
                         z_signal=1.0, z_idler=1.0,
                         signal_frequency=OMEGA)


def test_detector_and_pump_plane_bounds():
    with pytest.raises(ValueError, match="beyond the exit face"):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=1e5, pump_frequency=2.0 * OMEGA,
                         z_signal=1e-4, z_idler=1.0)
    with pytest.raises(ValueError, match="incidence side"):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=1e5, pump_frequency=2.0 * OMEGA,
                         z_signal=1.0, z_idler=1.0, pump_z=0.0)


def test_positivity_checks():
    with pytest.raises(ValueError):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=0.0, pump_frequency=2.0 * OMEGA,
                         z_signal=1.0, z_idler=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(crystal=CrystalSlab(), chi2=Chi2Geometry("I"),
                         pump_field=1e5, pump_frequency=-1.0,
                         z_signal=1.0, z_idler=1.0)
    cfg = make_cfg()
    for change in (dict(pump_field=np.nan), dict(pump_field=np.inf),
                   dict(pump_frequency=np.inf),
                   dict(signal_frequency=np.nan), dict(idler_frequency=np.inf),
                   dict(z_signal=np.nan), dict(z_idler=np.inf),
                   dict(pump_z=-np.inf), dict(offset=(np.nan, 0.0)),
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
    detector = np.exp(1j * (ch.kin_s.q_z * cfg.z_signal
                            + ch.kin_i.q_z * cfg.z_idler))[0]
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
# Failure modes and containers
# ---------------------------------------------------------------------------

def test_unreachable_tolerance_raises_with_partial_result():
    cfg = make_cfg(z=0.1)
    with pytest.raises(ConvergenceError) as info:
        amplitude_numeric(cfg, tol=1e-12)
    exc = info.value
    assert np.shape(exc.value) == (2, 2)
    assert np.isfinite(exc.error)
    # The carried value is an amplitude estimate: head plus tail, with the
    # reference phase restored.
    good = amplitude_numeric(cfg, tol=1e-6).matrix
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
        pump_frequency=2.0 * OMEGA, z_signal=1.0, z_idler=1.0)
    amp = amplitude_farfield(cfg)
    assert np.isfinite(rate(amp)) and rate(amp) > 0.0
