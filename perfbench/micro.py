"""Layer micro-benchmarks on slabpdc's public functions.

* ``kernel.node_us.b15`` / ``.b21k``: cost per radial node of the integrand
  kernel (kinematics, TE/TM Fresnel sets, phase_terms, four x_factor calls,
  complex_sinc) at 15 nodes, one GK15 panel, and at 21k nodes, one seed
  partition. Their ratio is the headroom of evaluating a partition at once.
* ``quadrature.radial.*``: integrate_radial on an oscillatory integrand with
  a 1400-panel seed partition; panels are counted from the callback's
  samples.
* ``quadrature.angular.*``: integrate_angular on a 2x2 degree-4 trig
  polynomial times exp(i a cos phi).

Times are medians of five blocks; the counts depend only on the code.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_BLOCKS = 5


def _median_seconds(fn, repeat):
    """Median over blocks of the seconds one call of fn takes."""
    fn()
    times = []
    for _ in range(_BLOCKS):
        t0 = perf_counter()
        for _ in range(repeat):
            fn()
        times.append((perf_counter() - t0) / repeat)
    return statistics.median(times)


def kernel_us_per_node(slabpdc, nodes, repeat):
    from slabpdc import TE, TEM, TM
    cfg = slabpdc.load_config("conversion = II\nn_imag = 1e-6\n")
    crystal, length = cfg.crystal, cfg.crystal.length
    w_s, w_i, w_p = cfg.signal_frequency, cfg.idler_frequency, \
        cfg.pump_frequency
    n_s, n_i, n_p = (crystal.index(w) for w in (w_s, w_i, w_p))
    kin_p = slabpdc.kinematics(w_p, n_p)
    fres_p = slabpdc.fresnel(TEM, kin_p, n_p * n_p, length)
    theta = np.linspace(1e-3, 0.5 * np.pi - 1e-3, nodes)
    kappa = min(w_s, w_i) / slabpdc.C_LIGHT * np.sin(theta)
    zeros = np.zeros_like(kappa)

    def kernel():
        kin_s = slabpdc.kinematics(w_s, n_s, (kappa, zeros))
        kin_i = slabpdc.kinematics(w_i, n_i, (kappa, zeros))
        fs = {p: slabpdc.fresnel(p, kin_s, n_s * n_s, length)
              for p in (TE, TM)}
        fi = {p: slabpdc.fresnel(p, kin_i, n_i * n_i, length)
              for p in (TE, TM)}
        pm = slabpdc.phase_terms(kin_s, kin_i, kin_p)
        for a in (TE, TM):
            for b in (TE, TM):
                slabpdc.x_factor(a, b, fres_p, fs[a], fi[b], pm.sigma_k,
                                 length)
        slabpdc.complex_sinc(0.5 * pm.delta_k * length)

    return 1e6 * _median_seconds(kernel, repeat) / nodes


def radial(slabpdc):
    """(panels, microseconds per panel) of one integrate_radial call."""
    samples = [0]
    omega = 2.0 * np.pi * 1000.0

    def f(x):
        samples[0] += len(x)
        return np.exp(1j * omega * x) / (1.0 + x * x)

    spec = slabpdc.QuadratureSpec(rel_tol=1e-6, max_subdivisions=20000)

    def call():
        slabpdc.integrate_radial(f, 0.0, 1.0, spec, max_panel=1.0 / 1400)

    call()
    panels = samples[0] // 15
    seconds = _median_seconds(call, 2)
    return panels, 1e6 * seconds / panels


def angular(slabpdc):
    """(samples, microseconds per sample) of one integrate_angular call."""
    samples = [0]
    a = 50.0

    def f(phi):
        samples[0] += len(phi)
        c, s = np.cos(phi), np.sin(phi)
        poly = np.stack([np.stack([c * c, s * c * c * c], -1),
                         np.stack([s * c, s ** 4], -1)], -2)
        return poly * np.exp(1j * a * c)[:, None, None]

    def call():
        slabpdc.integrate_angular(f, rel_tol=1e-9)

    call()
    count = samples[0]
    seconds = _median_seconds(call, 20)
    return count, 1e6 * seconds / count


def run_all(slabpdc):
    """Every micro-benchmark metric: {name: (value, unit)}."""
    panels, us_panel = radial(slabpdc)
    samples, us_sample = angular(slabpdc)
    return {
        "kernel.node_us.b15": (kernel_us_per_node(slabpdc, 15, 400), "us"),
        "kernel.node_us.b21k": (kernel_us_per_node(slabpdc, 21000, 3),
                                "us"),
        "quadrature.radial.panels": (panels, "count"),
        "quadrature.radial.us_per_panel": (us_panel, "us"),
        "quadrature.angular.samples": (samples, "count"),
        "quadrature.angular.us_per_sample": (us_sample, "us"),
    }
