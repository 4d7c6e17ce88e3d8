"""Release acceptance gate: nine numbered checks, pinned tolerances.

Each check prints one verdict line (run with ``pytest -s`` to see them all)
and asserts both the physics statement and, where stated, a wall-clock cap.
The checks are deliberately self-contained: closed forms and oracles are
rebuilt here rather than imported from the other test modules, so a
regression in library internals cannot silently rewrite the gate.

  1  noise-factor enhancement magnitude at 10%-per-cm loss
  2  longitudinal sinc minima: lossless zeros, absorption-lifted floors,
     and the balanced-absorption return to zero
  3  numeric disc quadrature against the closed far-field form at 1 m
  4  angular quadrature of the 2-D integrands against the reduced
     radial forms, both conversion types
  5  vacuum-limit point Green tensor against the spherical wave
  6  normalized rate curve: unity at zero loss, strictly decreasing,
     type separation
  7  rate-vs-length beats with a non-increasing absorption envelope
     (envelope read on the lossless-normalized series; see the note in
     criterion_7)
  8  polarization structure and equal singular values on random configs
  9  contraction identities and dyadic tables against brute-force index
     arithmetic
"""

import time

import numpy as np
import pytest

from slabpdc.amplitude import (ExperimentConfig, PhaseMatch,
                               amplitude_farfield, amplitude_numeric,
                               complex_sinc, integrand_typeI,
                               integrand_typeII, phase_terms, rate,
                               sinc_profile, x_factor)
from slabpdc.greens import (Chi2Geometry, contract_chi2, dyadic_product,
                            scattering_green_point, vector_wave_M,
                            vector_wave_N)
from slabpdc.materials import (TE, TEM, TM, C_LIGHT, CrystalSlab,
                               absorption_to_n_imag, bbo_ordinary,
                               dispersion_eval, fresnel, kinematics,
                               noise_factor, vacuum)
from slabpdc.quadrature import QuadratureSpec, integrate_angular
from slabpdc.scan import load_config, preset, run_scan

OMEGA = 3.54e15
LENGTH = 2.0e-3


def _verdict(num, ok, detail):
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {word} [{detail}]")
    assert ok, f"criterion {num} failed: {detail}"


def _elapsed_ok(num, t0, cap):
    dt = time.perf_counter() - t0
    _verdict(num, dt < cap, f"runtime {dt:.2f} s < {cap:.0f} s")
    return dt


# ---------------------------------------------------------------------------

def test_criterion_1_noise_enhancement_magnitude():
    t0 = time.perf_counter()
    vals = {}
    for convention in ("intensity", "amplitude"):
        n_imag = absorption_to_n_imag(0.10, OMEGA, convention=convention,
                                      length=0.01)
        eps = (1.67 + 1j * n_imag) ** 2
        vals[convention] = abs(noise_factor(eps)) ** 4 - 1.0
    ok = all(1e-13 <= v <= 1e-11 for v in vals.values())
    _verdict(1, ok, "|A|^4 - 1 = "
             + ", ".join(f"{v:.3e} ({k})" for k, v in vals.items()))
    _elapsed_ok(1, t0, 1.0)


# ---------------------------------------------------------------------------

def _operating_phase(cfg):
    index = cfg.crystal.index
    kin_s = kinematics(cfg.signal_frequency, index(cfg.signal_frequency))
    kin_i = kinematics(cfg.idler_frequency, index(cfg.idler_frequency))
    kin_p = kinematics(cfg.pump_frequency, index(cfg.pump_frequency))
    return phase_terms(kin_s, kin_i, kin_p)


def test_criterion_2_sinc_minima():
    t0 = time.perf_counter()

    # (a) lossless: exact zeros at dk L/2 = m pi
    pm0 = _operating_phase(load_config(""))
    floor_a = max(
        sinc_profile(PhaseMatch(2.0 * np.pi * m / LENGTH, pm0.sigma_k),
                     LENGTH)
        for m in (1, 2, 3, 4, 5))
    _verdict(2, floor_a <= 1e-12,
             f"(a) lossless minima floor {floor_a:.3e} <= 1e-12")

    # (b) pump absorbing harder than the split modes: minima lift
    cfg_b = load_config("n_imag = 2e-6\nn_imag_pump = 1.2e-5\n")
    pm_b = _operating_phase(cfg_b)
    lifted = sinc_profile(
        PhaseMatch(2.0 * np.pi / LENGTH + 1j * pm_b.delta_k.imag,
                   pm_b.sigma_k), LENGTH)
    _verdict(2, pm_b.delta_k.imag > 0.0 and lifted > 1e-12,
             f"(b) unbalanced loss lifts the first minimum to {lifted:.3e}")

    # (c) balanced absorption: Im dk = 0 exactly, minima rejoin zero
    cfg_c = load_config("n_imag = 1e-5\n")
    pm_c = _operating_phase(cfg_c)
    peak = sinc_profile(PhaseMatch(0.0 + 0j, pm_c.sigma_k), LENGTH)
    floor_c = max(
        sinc_profile(PhaseMatch(2.0 * np.pi * m / LENGTH
                                + 1j * pm_c.delta_k.imag, pm_c.sigma_k),
                     LENGTH)
        for m in (1, 2, 3, 4, 5))
    # machine precision on Im dk: the longitudinal components come out of
    # sqrt(k^2), so the cancellation floor is eps times the Im k scale
    im_floor = 8.0 * np.finfo(float).eps * abs(pm_c.sigma_k.imag)
    ok_c = abs(pm_c.delta_k.imag) <= im_floor and floor_c <= 1e-12 * peak
    _verdict(2, ok_c, f"(c) balanced loss: |Im dk| = "
             f"{abs(pm_c.delta_k.imag):.3e} <= {im_floor:.3e}, minima "
             f"floor {floor_c:.3e} <= 1e-12 x local peak {peak:.3e}")

    _elapsed_ok(2, t0, 1.0)


# ---------------------------------------------------------------------------

def test_criterion_3_farfield_vs_numeric_at_1m():
    t0 = time.perf_counter()
    base = ("n_imag = 1e-6\nz_signal = 1.0\nz_idler = 1.0\n"
            "conversion = {}\n")
    devs = {}
    for kind in ("I", "II"):
        cfg = load_config(base.format(kind))
        num = amplitude_numeric(cfg, tol=1e-6)
        far = amplitude_farfield(cfg)
        devs[kind] = (abs(np.linalg.norm(num.matrix)
                          - np.linalg.norm(far.matrix))
                      / np.linalg.norm(far.matrix))
        entry = np.unravel_index(np.argmax(np.abs(far.matrix)),
                                 (2, 2))
        entry_dev = abs(abs(num.matrix[entry]) - abs(far.matrix[entry])) \
            / abs(far.matrix[entry])
        devs[kind] = max(devs[kind], entry_dev)
    ok = all(v < 0.05 for v in devs.values())
    _verdict(3, ok, "|A| numeric-vs-farfield rel dev: "
             + ", ".join(f"{k}: {v:.2e}" for k, v in devs.items())
             + " < 5e-2")
    _elapsed_ok(3, t0, 60.0)


# ---------------------------------------------------------------------------

def _reduced_radial_oracle(cfg, kind, kappa):
    """Reduced radial form rebuilt from public pieces (see test_amplitude)."""
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


def test_criterion_4_angular_reduction_oracle():
    t0 = time.perf_counter()
    cfg = load_config("n_imag = 1e-6\nz_signal = 0.7\nz_idler = 0.9\n")
    rng = np.random.default_rng(67)
    kap_max = min(cfg.signal_frequency, cfg.idler_frequency) / C_LIGHT
    patterns = {"I": np.eye(2), "II": np.array([[0.0, 1.0], [1.0, 0.0]])}
    integrands = {"I": integrand_typeI, "II": integrand_typeII}
    worst = 0.0
    for _ in range(50):
        kappa = rng.uniform(0.02, 0.98) * kap_max
        for kind in ("I", "II"):
            def ring(phis):
                k_perp = (kappa * np.cos(phis), kappa * np.sin(phis))
                out = integrands[kind](k_perp, cfg)
                return out.reshape(np.shape(phis) + (4,))

            got = (kappa * integrate_angular(ring, rel_tol=1e-9)
                   ).reshape(2, 2)
            want = _reduced_radial_oracle(cfg, kind, kappa) \
                * patterns[kind]
            dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
            worst = max(worst, float(dev))
    _verdict(4, worst <= 1e-6,
             f"50 radial points, both types: worst rel dev {worst:.3e} "
             "<= 1e-6")
    _elapsed_ok(4, t0, 30.0)


# ---------------------------------------------------------------------------

def test_criterion_5_green_tensor_weyl_oracle():
    t0 = time.perf_counter()
    crystal = CrystalSlab(material=vacuum(), length=LENGTH)
    spec = QuadratureSpec(rel_tol=1e-8)
    worst = 0.0
    for qz in (50.0, 200.0):
        z_d = 1.0
        omega = qz / z_d * C_LIGHT
        green = scattering_green_point((0.0, 0.0, z_d), (0.0, 0.0, 0.0),
                                       omega, crystal, spec)
        qr = qz
        closed = (np.exp(1j * qr) / (4.0 * np.pi * z_d)
                  * (1.0 + 1j / qr - 1.0 / qr ** 2))
        for entry in (green[0, 0], green[1, 1]):
            worst = max(worst, abs(entry - closed) / abs(closed))
    _verdict(5, worst < 0.01,
             f"vacuum Green vs spherical wave at q z in {{50, 200}}: "
             f"worst rel dev {worst:.3e} < 1e-2")
    _elapsed_ok(5, t0, 30.0)


# ---------------------------------------------------------------------------

def test_criterion_6_normalized_rate_curve():
    t0 = time.perf_counter()
    result = run_scan(preset("fig5"))
    cols = result.columns
    r1 = np.array([row[cols.index("rate_ratio_to_lossless_I")]
                   for row in result.rows])
    r2 = np.array([row[cols.index("rate_ratio_to_lossless_II")]
                   for row in result.rows])
    ok_unity = abs(r1[0] - 1.0) <= 1e-9 and abs(r2[0] - 1.0) <= 1e-9
    ok_mono = bool(np.all(np.diff(r1) < 0.0) and np.all(np.diff(r2) < 0.0))
    ok_apart = bool(np.all(np.abs(r1[1:] - r2[1:]) > 0.0))
    _verdict(6, ok_unity and ok_mono and ok_apart,
             f"R/R0(0) = {float(r1[0])!r}/{float(r2[0])!r}; strictly "
             f"decreasing over {r1.size} points: {ok_mono}; curves "
             f"separated: {ok_apart}")
    _elapsed_ok(6, t0, 10.0)


# ---------------------------------------------------------------------------

def test_criterion_7_length_beats_and_absorption_envelope():
    """Beats in R(L) with the absorption-set envelope.

    The raw rate series carries two lossless carriers at these parameters:
    the phase-matching sinc (whose peak heights are length-independent,
    the L^2 prefactor cancelling the sinc-top decay exactly) and the
    back-face etalon factors, whose 78-160 nm periods alias on the 0.5 um
    grid into deterministic +-25% excursions of the local maxima. The
    0.94% absorption trend across the window is therefore read on the
    lossless-normalized series R/R0, where both carriers cancel; its
    block maxima over the four 100-point quarters must not increase.
    Blocks finer than ~100 points put fewer than one alias period in a
    block and the comparison degenerates to sampling noise, so quarters
    are the finest honest blocking.
    """
    t0 = time.perf_counter()
    result = run_scan(preset("fig6"))
    cols = result.columns
    ok_all = True
    details = []
    for kind in ("I", "II"):
        raw = np.array([row[cols.index(f"rate_{kind}")]
                        for row in result.rows])
        ratio = np.array(
            [row[cols.index(f"rate_ratio_to_lossless_{kind}")]
             for row in result.rows])
        interior = (raw[1:-1] > raw[:-2]) & (raw[1:-1] > raw[2:])
        n_max = int(np.count_nonzero(interior))
        quarters = [float(np.max(block))
                    for block in np.array_split(ratio, 4)]
        envelope_ok = all(a >= b for a, b in
                          zip(quarters, quarters[1:]))
        ok_all = ok_all and raw.size == 400 and n_max >= 3 and envelope_ok
        details.append(f"{kind}: {n_max} maxima, quarter-block envelope "
                       + "/".join(f"{q:.6f}" for q in quarters))
    _verdict(7, ok_all, "; ".join(details))
    _elapsed_ok(7, t0, 20.0)


# ---------------------------------------------------------------------------

def test_criterion_8_structure_and_singular_values():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_struct = 0.0
    worst_sv = 0.0
    count = 0
    for i in range(20):
        length = rng.uniform(0.5e-3, 3e-3)
        n_imag = rng.uniform(0.0, 1e-5)
        pump_field = rng.uniform(1e4, 1e6)
        d = rng.uniform(1e-13, 1e-12)
        numeric = i < 10
        if numeric:
            while True:
                om_s = rng.uniform(2.2e15, 3.4e15)
                om_i = rng.uniform(2.2e15, 3.4e15)
                if om_s + om_i <= 6.9e15:
                    break
            z_s = rng.uniform(0.05, 0.15)
            z_i = rng.uniform(0.05, 0.15)
        else:
            om_s = om_i = rng.uniform(2.2e15, 3.4e15)
            z_s = z_i = rng.uniform(0.5, 2.0)
        for kind in ("I", "II"):
            cfg = ExperimentConfig(
                crystal=CrystalSlab(
                    material=bbo_ordinary().with_absorption(n_imag),
                    length=length),
                chi2=Chi2Geometry(kind=kind, d=d),
                pump_field=pump_field, signal_frequency=om_s,
                idler_frequency=om_i, z_signal=z_s, z_idler=z_i)
            amp = amplitude_numeric(cfg, tol=1e-6) if numeric \
                else amplitude_farfield(cfg)
            pattern = np.eye(2) if kind == "I" \
                else np.array([[0.0, 1.0], [1.0, 0.0]])
            coef = amp.matrix[0, 0] if kind == "I" else amp.matrix[0, 1]
            scale = np.linalg.norm(amp.matrix)
            worst_struct = max(worst_struct, float(
                np.linalg.norm(amp.matrix - coef * pattern) / scale))
            sv = np.linalg.svd(amp.matrix, compute_uv=False)
            worst_sv = max(worst_sv, float(abs(sv[0] - sv[1]) / sv[0]))
            count += 1
    ok = worst_struct <= 1e-10 and worst_sv <= 1e-12
    _verdict(8, ok, f"{count} amplitudes over 20 random configs: "
             f"worst structure residual {worst_struct:.3e} <= 1e-10, "
             f"worst singular-value gap {worst_sv:.3e} <= 1e-12")


# ---------------------------------------------------------------------------

def test_criterion_9_contraction_and_dyadic_algebra():
    rng = np.random.default_rng(211)
    geoms = {"I": Chi2Geometry("I"), "II": Chi2Geometry("II")}
    worst = 0.0
    for _ in range(100):
        kx = rng.uniform(-2.0, 2.0)
        ky = rng.uniform(-2.0, 2.0)
        if abs(kx) < 1e-3 and abs(ky) < 1e-3:
            kx = 0.5
        kz_s = complex(rng.uniform(0.2, 3.0), rng.uniform(0.0, 0.5))
        kz_i = complex(rng.uniform(0.2, 3.0), rng.uniform(0.0, 0.5))
        k_s = complex(rng.uniform(1.0, 4.0), rng.uniform(0.0, 0.3))
        k_i = complex(rng.uniform(1.0, 4.0), rng.uniform(0.0, 0.3))
        kap2 = kx * kx + ky * ky

        # sources: a at -k_perp (signal labels, +), b at +k_perp (idler, -)
        src_a = {"M": vector_wave_M((-kx, -ky)),
                 "N": vector_wave_N((-kx, -ky), kz_s, k_s, sign=1)}
        src_b = {"M": vector_wave_M((kx, ky)),
                 "N": vector_wave_N((kx, ky), kz_i, k_i, sign=-1)}
        closed_contraction = {
            ("I", "M", "M"): kap2,
            ("I", "M", "N"): 0.0,
            ("I", "N", "M"): 0.0,
            ("I", "N", "N"): kap2 * kz_s * kz_i / (k_s * k_i),
            ("II", "M", "M"): -2.0 * kx * ky,
            ("II", "M", "N"): 1j * kz_i * (kx * kx - ky * ky) / k_i,
            ("II", "N", "M"): 1j * kz_s * (ky * ky - kx * kx) / k_s,
            ("II", "N", "N"): 2.0 * kx * ky * kz_s * kz_i / (k_s * k_i),
        }
        for (kind, la, lb), want in closed_contraction.items():
            got = contract_chi2(geoms[kind], src_a[la], src_b[lb])
            worst = max(worst,
                        abs(got - want) / (1.0 + abs(want)))

        # detectors: a at +k_perp (+), b at -k_perp (-)
        det_a = {"M": vector_wave_M((kx, ky)),
                 "N": vector_wave_N((kx, ky), kz_s, k_s, sign=1)}
        det_b = {"M": vector_wave_M((-kx, -ky)),
                 "N": vector_wave_N((-kx, -ky), kz_i, k_i, sign=-1)}
        closed_dyadic = {
            ("M", "M"): np.array([
                [ky * ky, -kx * ky, 0.0],
                [-kx * ky, kx * kx, 0.0],
                [0.0, 0.0, 0.0]], dtype=complex),
            ("M", "N"): (1j / k_i) * np.array([
                [-kz_i * kx * ky, -kz_i * ky * ky, ky * kap2],
                [kz_i * kx * kx, kz_i * kx * ky, -kx * kap2],
                [0.0, 0.0, 0.0]], dtype=complex),
            ("N", "M"): (1j / k_s) * np.array([
                [kz_s * kx * ky, -kz_s * kx * kx, 0.0],
                [kz_s * ky * ky, -kz_s * kx * ky, 0.0],
                [-kap2 * ky, kap2 * kx, 0.0]], dtype=complex),
            ("N", "N"): (1.0 / (k_s * k_i)) * np.array([
                [kz_s * kz_i * kx * kx, kz_s * kz_i * kx * ky,
                 -kz_s * kx * kap2],
                [kz_s * kz_i * kx * ky, kz_s * kz_i * ky * ky,
                 -kz_s * ky * kap2],
                [-kz_i * kap2 * kx, -kz_i * kap2 * ky, kap2 * kap2]],
                dtype=complex),
        }
        for (la, lb), want in closed_dyadic.items():
            got = dyadic_product(det_a[la], det_b[lb])
            scale = 1.0 + np.max(np.abs(want))
            worst = max(worst,
                        float(np.max(np.abs(got - want)) / scale))
    _verdict(9, worst <= 1e-12,
             "8 contractions + 4 dyadic tables, 100 random wave vectors: "
             f"worst rel dev {worst:.3e} <= 1e-12")
