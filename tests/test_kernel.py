"""The per-node kernel of the numeric route against its references.

_Channels fuses the public slab pieces (kinematics, fresnel, x_factor,
phase_terms, complex_sinc) into two exponentials per node, one at a
degenerate split; here it is checked against their plain composition,
against 40-digit values, against its own two-mode branch at a degenerate
split (bit for bit), and for the node counts and kernel calls of the
radial route it feeds.
The Bessel factors of _angular_rows, and the J0, J1 and J2 rows the Green
tensor takes, are checked against 30-digit values, on the real axis and at
the complex nodes of the contours, and against scipy's jv over the lower
half plane.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from slabpdc import amplitude, radial
from slabpdc.amplitude import (_angular_rows, _Channels, _Leg, _Modes,
                               amplitude_numeric, complex_sinc, phase_terms,
                               x_factor)
from slabpdc.materials import (C_LIGHT, TE, TEM, TM, branch_sqrt, fresnel,
                               kinematics)
from slabpdc.radial import _DetectorPhase, _stencil
from test_amplitude import OMEGA, _split_cfg, make_cfg

# Index triples (signal, idler, pump): lossless, uniform absorption, and
# absorption split between the daughters and the pump.
_LOSSES = {
    "lossless": (1.65 + 0j, 1.652 + 0j, 1.67 + 0j),
    "uniform": (1.65 + 1e-6j, 1.652 + 1e-6j, 1.67 + 1e-6j),
    "split": (1.65 + 2e-6j, 1.652 + 4e-6j, 1.67 + 1.5e-5j),
}
_SPLIT = (OMEGA * (1.0 - 0.04), OMEGA * (1.0 + 0.04))


def _modes(loss, length, m=None, degenerate=False):
    """_Modes at a 4% split, or at the degenerate split with the signal's
    index for the idler; with m, stacked over m slightly shifted points."""
    n_s, n_i, n_p = _LOSSES[loss]
    om_s, om_i = _SPLIT
    if degenerate:
        n_i, om_s, om_i = n_s, OMEGA, OMEGA
    if m is not None:
        shift = 1.0 + 1e-3 * np.arange(m)
        om_s, om_i = om_s * shift, om_i * shift
        n_s, n_i, n_p = (n * shift for n in (n_s, n_i, n_p))
    return _Modes(om_s, om_i, n_s, n_i, n_p, length)


def _public_channels(modes, kappa):
    """_Channels' attributes composed from the public kernels."""
    zeros = np.zeros_like(kappa)
    length = modes.length
    kin_s = kinematics(modes.omega_s, modes.n_s, (kappa, zeros))
    kin_i = kinematics(modes.omega_i, modes.n_i, (kappa, zeros))
    fres_s = {p: fresnel(p, kin_s, modes.eps_s, length) for p in (TE, TM)}
    fres_i = {p: fresnel(p, kin_i, modes.eps_i, length) for p in (TE, TM)}
    kin_p = kinematics(modes.omega_p, modes.n_p)
    fres_p = fresnel(TEM, kin_p, modes.n_p * modes.n_p, length)
    pm = phase_terms(kin_s, kin_i, kin_p)
    return SimpleNamespace(
        sig=SimpleNamespace(k_z=kin_s.k_z, q_z=kin_s.q_z,
                            c=kin_s.k_z / kin_s.k),
        idl=SimpleNamespace(k_z=kin_i.k_z, q_z=kin_i.q_z,
                            c=kin_i.k_z / kin_i.k),
        delta_k=pm.delta_k,
        x=np.array([[x_factor(a, b, fres_p, fres_s[a], fres_i[b],
                              pm.sigma_k, length) for b in (TE, TM)]
                    for a in (TE, TM)]),
        slab=complex_sinc(0.5 * pm.delta_k * length)
        * np.exp(0.5j * pm.sigma_k * length))


def _rel(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)
                        / np.maximum(np.abs(want), 1e-300)))


# ---------------------------------------------------------------------------
# Fused kernel against the public composition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss", sorted(_LOSSES))
@pytest.mark.parametrize("length", [1e-4, 2e-3])
def test_channels_match_public_composition(loss, length):
    for degenerate in (False, True):
        modes = _modes(loss, length, degenerate=degenerate)
        assert modes.degenerate is degenerate
        _check_public_composition(modes)


def _check_public_composition(modes):
    kap_max = min(modes.q_s, modes.q_i)
    kappa = kap_max * np.concatenate(
        (np.linspace(0.0, 0.999, 400), 1.0 - np.geomspace(1e-3, 1e-9, 40)))
    ch = _Channels(modes, kappa)
    ref = _public_channels(modes, kappa)
    for leg in ("sig", "idl"):
        for field in ("k_z", "q_z", "c"):
            assert np.array_equal(getattr(getattr(ch, leg), field),
                                  getattr(getattr(ref, leg), field))
    assert np.array_equal(ch.delta_k, ref.delta_k)
    assert _rel(ch.x, ref.x) <= 1e-10
    assert _rel(ch.slab, ref.slab) <= 1e-10
    # The rows the radial engine integrates, for both conversion types, on
    # axis and off, relative to each row's largest value: TT - MM and its
    # kin cancel to zero on the axis.
    for kind in ("I", "II"):
        cfg = make_cfg(kind=kind)
        for rho in (0.0, 7e-6):
            got = _angular_rows(cfg, ch, kappa, rho)
            want = _angular_rows(cfg, ref, kappa, rho)
            scale = np.max(np.abs(want), axis=1)
            if modes.degenerate and len(want) == 4:
                # EM - ME vanishes at a degenerate split: what is left of
                # it (1e-17 of the J0 row) is rounding, so the J0 row's
                # scale measures it.
                scale[3] = scale[0]
            assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-10 * scale)


@pytest.mark.parametrize("loss", sorted(_LOSSES))
@pytest.mark.parametrize("length", [1e-4, 2e-3])
def test_stacked_normal_channels_match_public_composition(loss, length):
    modes = _modes(loss, length, m=5)
    ch = _Channels(modes, 0.0)
    ref = _public_channels(modes, 0.0)
    assert np.shape(ch.slab) == (5,)
    assert _rel(ch.x, ref.x) <= 1e-10
    assert _rel(ch.slab, ref.slab) <= 1e-10


def test_modes_mark_degenerate_points():
    n = _LOSSES["split"][0]
    assert _Modes(OMEGA, OMEGA, n, n, n, 1e-3).degenerate
    assert not _modes("split", 1e-3).degenerate
    # Equal frequencies with unequal indices are two modes.
    assert not _Modes(OMEGA, OMEGA, n, n + 1e-9, n, 1e-3).degenerate
    assert _modes("split", 1e-3, m=5, degenerate=True).degenerate
    # A stack is degenerate only if every point is.
    om_i = np.full(5, OMEGA)
    om_i[3] *= 1.0 + 1e-12
    assert not _Modes(np.full(5, OMEGA), om_i, n, n, n, 1e-3).degenerate


@pytest.mark.parametrize("loss", sorted(_LOSSES))
@pytest.mark.parametrize("length", [1e-4, 2e-3])
@pytest.mark.parametrize("m", [None, 5], ids=["scalar", "stacked"])
def test_degenerate_channels_match_two_mode_branch(monkeypatch, loss, length,
                                                  m):
    # At a degenerate split the idler leg is the signal's, computed once;
    # the two-mode branch computes it from its own _path_leg call. Same
    # arithmetic on the same inputs: bit for bit.
    modes = _modes(loss, length, m, degenerate=True)
    own = _modes(loss, length, m, degenerate=True)
    own.degenerate = False
    kappa = np.min(modes.q_s) * np.concatenate(
        (np.linspace(0.0, 0.999, 200), 1.0 - np.geomspace(1e-3, 1e-9, 20)))
    if m is not None:
        kappa = kappa[:, None]
    calls = []
    path_leg = amplitude._path_leg

    def counting(*args):
        calls.append(args)
        return path_leg(*args)

    monkeypatch.setattr(amplitude, "_path_leg", counting)
    for kap in (0.0, kappa):
        ch = _Channels(modes, kap)
        assert len(calls) == 1
        ref = _Channels(own, kap)
        assert len(calls) == 3
        calls.clear()
        for field in _Leg._fields:
            assert np.array_equal(getattr(ch.idl, field),
                                  getattr(ref.idl, field))
        assert np.array_equal(ch.x, ref.x)
        assert np.array_equal(ch.slab, ref.slab)
        assert np.array_equal(ch.delta_k, ref.delta_k)
    assert np.shape(ch.slab) == (np.shape(kappa) if m is None
                                 else (len(kappa), m))


def test_vacuum_channels_are_unity():
    modes = _Modes(OMEGA, OMEGA, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 2e-3)
    ch = _Channels(modes, np.array([0.0, 1e5, 0.5 * modes.q_s]))
    assert np.array_equal(ch.x, np.ones((2, 2, 3)))


def test_vacuum_qz_is_branch_sqrt_bit_for_bit():
    q = OMEGA / C_LIGHT
    # Propagating, grazing and evanescent transverse wave numbers.
    kappa = q * np.concatenate((np.linspace(0.0, 2.0, 2001),
                                [1.0 - 1e-9, 1.0, 1.0 + 1e-9]))
    kin = kinematics(OMEGA, 1.65 + 1e-6j, (kappa, np.zeros_like(kappa)))
    want = branch_sqrt(q * q - kappa * kappa)
    assert np.array_equal(kin.q_z, want)
    assert np.array_equal(np.signbit(kin.q_z.imag), np.signbit(want.imag))
    assert np.array_equal(np.signbit(kin.q_z.real), np.signbit(want.real))
    for kap in (0.0, 0.5 * q, 1.5 * q):
        one = kinematics(OMEGA, 1.65, (kap, 0.0)).q_z
        assert isinstance(one, complex)
        assert one == branch_sqrt(q * q - kap * kap)
    stacked = kinematics(OMEGA * np.array([1.0, 2.0]), 1.65)
    assert np.array_equal(stacked.q_z, branch_sqrt(stacked.q ** 2 + 0j))


# ---------------------------------------------------------------------------
# Fused kernel against 40-digit values
# ---------------------------------------------------------------------------

def _mp_node(modes, kappa):
    """slab, X and the split-mode (r, t M) at one node, 40 digits."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    c, length, kap = mp.mpf(C_LIGHT), mp.mpf(modes.length), mp.mpf(kappa)

    def index(n):
        return mp.mpc(n.real, n.imag)

    def mode(n, omega):
        n = index(n)
        q = mp.mpf(omega) / c
        k = n * q
        kz = mp.sqrt(k * k - kap * kap)
        qz = mp.sqrt(q * q - kap * kap)
        eps = n * n
        out = {}
        for sigma, load, lift in ((TE, qz, 2 * kz), (TM, eps * qz, 2 * n * kz)):
            r = (kz - load) / (kz + load)
            m = 1 / (1 - r * r * mp.exp(2j * kz * length))
            out[sigma] = (r, lift / (kz + load) * m)
        return kz, out

    kz_s, sig = mode(modes.n_s, modes.omega_s)
    kz_i, idl = mode(modes.n_i, modes.omega_i)
    n_p = index(modes.n_p)
    k_p = n_p * mp.mpf(modes.omega_s + modes.omega_i) / c
    r_p = (n_p - 1) / (n_p + 1)
    tm_p = 2 / (n_p + 1) / (1 - r_p * r_p * mp.exp(2j * k_p * length))
    sigma_k, delta_k = k_p + kz_s + kz_i, k_p - kz_s - kz_i
    w = delta_k * length / 2
    slab = mp.sin(w) / w * mp.exp(0.5j * sigma_k * length)
    loop = r_p * mp.exp(1j * sigma_k * length)
    x = {(a, b): tm_p * sig[a][1] * idl[b][1] * (1 + loop * sig[a][0]
                                                 * idl[b][0])
         for a in (TE, TM) for b in (TE, TM)}
    return complex(slab), {k: complex(v) for k, v in x.items()}, \
        {p: tuple(complex(v) for v in sig[p]) for p in (TE, TM)}


@pytest.mark.parametrize("loss", ["lossless", "split"])
def test_channels_match_40_digit_values(loss):
    # The phases run to sk L = 1.7e5 rad for the 2 mm slab: the fused
    # products stay within 2e-11 of the 40-digit slab factor, X factors
    # and t M (measured worst 1.0e-11).
    modes = _modes(loss, 2e-3)
    kap_max = min(modes.q_s, modes.q_i)
    kappa = kap_max * np.array([0.0, 0.3, 0.8, 0.99, 0.999])
    ch = _Channels(modes, kappa)
    pols = (TE, TM)
    for j, kap in enumerate(kappa):
        slab, x, sig = _mp_node(modes, kap)
        assert abs(ch.slab[j] - slab) <= 2e-11 * abs(slab)
        for (a, b), want in x.items():
            got = ch.x[pols.index(a), pols.index(b), j]
            assert abs(got - want) <= 2e-11 * abs(want)
        for i, p in enumerate(pols):
            r, tm = ch.sig.r[i, j], ch.sig.tm[i, j]
            assert abs(r - sig[p][0]) <= 1e-14 * max(abs(sig[p][0]), 1.0)
            assert abs(tm - sig[p][1]) <= 2e-11 * abs(sig[p][1])


# ---------------------------------------------------------------------------
# Bessel rows
# ---------------------------------------------------------------------------

def _bessel_rows(kind, x):
    """_angular_rows at kappa rho = x on channels whose sums are 1, so that
    the rows are the Bessel factors: [J0, J2] for "I", [J0, J2, J4, 0] for
    "II"."""
    one = np.ones_like(x)
    leg = SimpleNamespace(k_z=one, c=0.0 * one)
    ch = SimpleNamespace(sig=leg, idl=leg,
                         x=np.array([[one, one], [one, one]]),
                         slab=(8.0 if kind == "II" else 4.0) * np.pi * one)
    return _angular_rows(make_cfg(kind=kind), ch, x, 1.0)


def _path_arguments():
    """kappa rho at the Laguerre nodes (orders 8, 16 and 64) of both
    contours, for offsets of 20 um and 0.2 mm at 1 cm to 1 m."""
    out = []
    for z, rho in ((0.01, 2e-5), (0.1, 2e-5), (0.01, 2e-4), (1.0, 2e-4)):
        cfg = make_cfg(z=z)
        phase = _DetectorPhase(cfg, _Modes.of(cfg))
        # The 512-cycle cut, from the phase's Taylor start psi ~ -s Z/2,
        # at d = s/(kappa_max + u).
        k = phase.kap_max
        s_c = 4.0 * np.pi * 512 / (z / k * 2.0)
        _, d, _ = radial._path_nodes(
            phase, s_c / (k + np.sqrt(k * k - s_c)), (8, 16, 64))
        out.append(np.sqrt(d * (2.0 * k - d)).ravel() * rho)
    return np.concatenate(out)


def test_bessel_rows_match_jv():
    # J0, J2 and J4 of the rows, and J1 of the Green tensor's rows, against
    # 30-digit values: on the real axis, where the tail stencil of a
    # displaced detector and the Green tensor take them, and at complex
    # kappa rho on the paths (|Im| up to 74 at 0.2 mm and 1 cm), where the
    # rows grow like e^{|Im|}.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    real = np.concatenate((np.geomspace(1e-6, 2.0, 60),
                           np.linspace(2.0, 12.0, 81),
                           np.linspace(12.0, 400.0, 60)))
    path = _path_arguments()
    assert np.max(np.abs(path.imag)) > 50.0
    for x, bound in ((real, 1e-15), (path, 1e-14)):
        want = {n: np.array([complex(mp.besselj(n, mp.mpc(v.real, v.imag)))
                             for v in x]) for n in (0, 1, 2, 4)}
        scale = {n: 1.0 if x is real else np.abs(exact)
                 for n, exact in want.items()}
        for kind in ("I", "II"):
            rows = _bessel_rows(kind, x)
            assert len(rows) == (4 if kind == "II" else 2)
            for row, n in zip(rows[:3], (0, 2, 4)):
                assert np.max(np.abs(row - want[n]) / scale[n]) <= bound, kind
            if kind == "II":
                assert np.all(rows[3] == 0.0)
        rows = radial._bessel_rows(x, (0, 1, 2))
        assert rows.dtype == x.dtype
        for row, n in zip(rows, (0, 1, 2)):
            assert np.max(np.abs(row - want[n]) / scale[n]) <= bound, n
    # On axis J1 and J2 are exactly 0, so the Green tensor's off-diagonal
    # entries vanish there.
    assert np.array_equal(radial._bessel_rows(np.zeros(2), (0, 1, 2)),
                          [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


def test_bessel_rows_match_scipy_over_the_lower_half_plane():
    # The numpy rows against scipy's jv, an independent implementation, on
    # a seeded log-polar draw over the lower half plane (|z| <= 400,
    # |Im z| <= 300, so Re z < 0 as well, where the Hankel regime reflects
    # z and flips J1's sign) and on arcs just below and just above each
    # switch point of the three regimes, relative to the scale
    # e^{|Im z|}/sqrt|z| of J_n there (measured worst 9.8e-16).
    jv = pytest.importorskip("scipy.special").jv
    rng = np.random.default_rng(22)
    z = 10.0 ** rng.uniform(-3.0, np.log10(400.0), 6000) \
        * np.exp(-1j * rng.uniform(0.0, np.pi, 6000))
    arc = np.exp(-1j * np.linspace(0.0, np.pi, 33))
    arcs = np.concatenate([
        edge * (1.0 + side) * arc
        for edge in (radial._SERIES_BELOW, radial._HANKEL_FROM)
        for side in (-1e-9, 1e-9)])
    z = np.concatenate([z[np.abs(z.imag) <= 300.0], arcs])

    def scale(z):
        return np.exp(np.abs(z.imag)) / np.sqrt(np.maximum(np.abs(z), 1.0))

    for kind in ("I", "II"):
        rows = _bessel_rows(kind, z)
        for n, row in zip((0, 2, 4), rows[:3]):
            assert np.max(np.abs(row - jv(n, z)) / scale(z)) <= 1e-14, \
                (kind, n)
    # The Green tensor's orders, on the whole draw and on each arc alone,
    # which one regime covers.
    for w in [z] + np.split(arcs, 4):
        for n, row in zip((0, 1, 2), radial._bessel_rows(w, (0, 1, 2))):
            assert np.max(np.abs(row - jv(n, w)) / scale(w)) <= 1e-14, n
    # Far out on a contour J_n overflows: the rows come out non-finite,
    # quietly (RuntimeWarnings are errors here), for _path_sums to refuse.
    far = np.array([5.0 - 800.0j, 300.0 - 790.0j, -40.0 - 810.0j])
    for kind in ("I", "II"):
        assert not np.isfinite(_bessel_rows(kind, far)).any()


# ---------------------------------------------------------------------------
# Detector phase in u
# ---------------------------------------------------------------------------

# Configs whose split modes share one vacuum wavenumber, so that Psi is
# linear in u.
_ONE_WAVENUMBER = {
    "degenerate": make_cfg(z=1.0),
    "unequal-z": replace(make_cfg(z=0.1), z_idler=0.07),
    "displaced": make_cfg(kind="II", z=0.1, offset=(5e-6, 3e-6)),
    "thin": make_cfg(length=1e-4, z=1.5e-4),
}


def _route_start(phase):
    """d_c of the route: the 512-cycle cut, or grazing for the full disc."""
    cycles = -phase.rise(phase.kap_max, 0.0) / (2.0 * np.pi)
    if cycles > 1.5 * radial._KEPT_CYCLES:
        return phase.cut(radial._KEPT_CYCLES)
    return phase.kap_max


def _factor_floor(phase, d, t):
    """8 rounding units of |d slope(u)| + t, the phase change that one ulp
    of d or t makes."""
    return 8.0 * np.finfo(float).eps * (
        np.abs(d * phase.slope(phase.kap_max - d)) + t)


def _mp_phase(phase, cfg, modes):
    """mpmath, and Psi as a function of d at 40 digits from the double
    inputs."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    k = mp.mpf(phase.kap_max)
    parts = [(mp.mpf(q) ** 2 - k * k, mp.mpf(z))
             for q, z in ((modes.q_s, cfg.z_signal),
                          (modes.q_i, cfg.z_idler))]

    def psi(d):
        u = k - mp.mpc(d.real, d.imag)
        return sum(z * mp.sqrt(u * u + big) for big, z in parts)

    return mp, psi


@pytest.mark.parametrize("z", [0.01, 1.0])
@pytest.mark.parametrize("split", [0.0, 0.04])
def test_path_nodes_match_40_digit_phase(z, split):
    # The phase factor e^{i rise(d, d0) + t} that a contour's weights
    # carry, at its nodes from the axis and from the 512-cycle cut, orders
    # 8 to 64: within the floor of one ulp of d or t of the 40-digit
    # e^{i (Psi(d) - Psi(d0)) + t}.
    cfg = _split_cfg("II", split, z=z)
    modes = _Modes.of(cfg)
    phase = _DetectorPhase(cfg, modes)
    mp, psi = _mp_phase(phase, cfg, modes)
    d_c = _route_start(phase)
    assert d_c < phase.kap_max
    t, d, _ = radial._path_nodes(phase, d_c, (8, 16, 32, 64))
    d0 = np.array([[0.0], [d_c]])
    factor = np.exp(1j * phase.rise(d, d0) + t)
    floor = _factor_floor(phase, d, t)
    for row, got, bound, start in zip(d, factor, floor, (0.0, d_c)):
        ref = psi(mp.mpc(start))
        for node, f, t_j, b in zip(row, got, t, bound):
            want = mp.exp(1j * (psi(node) - ref) + mp.mpf(t_j))
            assert float(abs(f - want)) <= b * float(abs(want))


@pytest.mark.parametrize("name", sorted(_ONE_WAVENUMBER))
def test_one_wavenumber_tangents_are_descent_paths(name):
    # Psi is Z0 u, so the tangent from the axis, and from the cut where the
    # route has one, is the steepest-descent path: at every order its
    # weights are the path's ds/dt = -2 i u/slope(u), the phase factor 1
    # to the floor of one ulp of d or t.
    cfg = _ONE_WAVENUMBER[name]
    phase = _DetectorPhase(cfg, _Modes.of(cfg))
    d_c = _route_start(phase)
    t, d, dsdt = radial._path_nodes(phase, d_c, (8, 16, 32, 64))
    tangents = 1 if d_c == phase.kap_max else 2
    d, dsdt = d[:tangents], dsdt[:tangents]
    u = phase.kap_max - d
    factor = dsdt / (-2j * u / phase.slope(u))
    floor = _factor_floor(phase, d, t) + 4.0 * np.finfo(float).eps
    assert np.all(np.abs(factor - 1.0) <= floor)


def test_rise_near_axis_matches_40_digit_phase():
    # rise(d, 0) on real d near the axis, from 5e-17 to 5e-7 of kappa_max
    # (kappa from 1e-8 to 1e-3 of it), where s = kappa^2 would lose
    # digits: within a few ulps of the 40-digit phase.
    for cfg in (make_cfg(z=1.0), _split_cfg("I", 0.04, z=0.01)):
        modes = _Modes.of(cfg)
        phase = _DetectorPhase(cfg, modes)
        mp, psi = _mp_phase(phase, cfg, modes)
        d = phase.kap_max * np.geomspace(5e-17, 5e-7, 41)
        got = phase.rise(d, 0.0)
        for node, value in zip(d, got):
            want = float(mp.re(psi(mp.mpc(node)) - psi(mp.mpc(0))))
            assert abs(value - want) <= 4.0 * np.spacing(abs(want))


# ---------------------------------------------------------------------------
# Route guard
# ---------------------------------------------------------------------------

_ROUTE_CFGS = {"collinear-1m": make_cfg(kind="I", z=1.0),
               "thin-full-range": make_cfg(kind="I", length=1e-4, z=1.5e-4),
               "displaced-II": make_cfg(kind="II", z=0.1,
                                        offset=(5e-6, 3e-6))}


@pytest.mark.parametrize("cfg, nodes", [
    (_ROUTE_CFGS["collinear-1m"], 57),
    (_ROUTE_CFGS["thin-full-range"], 48),
    (_ROUTE_CFGS["displaced-II"], 57),
    (make_cfg(kind="I", z=1.2e-3), 145),
], ids=["collinear-1m", "thin-full-range", "displaced-II", "refused-cut"])
def test_numeric_route_node_counts_are_frozen(monkeypatch, cfg, nodes):
    # A kernel change that moves a contour or the adaptive partition shows
    # here first. The thin slab takes the full range on the path from the
    # axis and the ray from grazing; collinear-1m and displaced-II close the
    # tail on a 9-node stencil and take the head on two paths. Each contour
    # has 8 + 16 Laguerre nodes. The 2 mm slab at 1.2 mm refuses its one
    # closure (57 nodes) and takes the full disc at N = 8, 16 and 32: the
    # path from the axis comes from the refused cut's call, so the disc
    # evaluates the ray's 24 nodes and then 64.
    counted = []
    channels = radial._Channels

    def counting(modes, kappa):
        counted.append(np.size(kappa))
        return channels(modes, kappa)

    monkeypatch.setattr(radial, "_Channels", counting)
    amplitude_numeric(cfg, tol=1e-6)
    assert sum(counted) == nodes


def test_refused_cut_hands_the_disc_its_axis_path(monkeypatch):
    # The full disc after a refused closure takes the cut call's contour
    # from the axis and its rows: bit for bit the amplitude of a disc that
    # lays and evaluates that contour afresh.
    cfg = make_cfg(kind="I", z=1.2e-3)
    reused = amplitude_numeric(cfg, tol=1e-6).matrix
    head = radial._path_head

    def afresh(rows, phase, modes, d_c, tol, solved=None):
        assert (solved is not None) == (d_c == phase.kap_max)
        return head(rows, phase, modes, d_c, tol, None)

    monkeypatch.setattr(radial, "_path_head", afresh)
    assert np.array_equal(amplitude_numeric(cfg, tol=1e-6).matrix, reused)


_ONE_CALL_CFGS = {
    "collinear-degenerate": _ROUTE_CFGS["collinear-1m"],
    "collinear-split": _split_cfg("II", 0.04, z=0.1),
    "displaced": _ROUTE_CFGS["displaced-II"],
    "thin": _ROUTE_CFGS["thin-full-range"],
}


@pytest.mark.parametrize("name", sorted(_ONE_CALL_CFGS))
def test_numeric_amplitude_builds_channels_once(monkeypatch, name):
    # A cut route sends its 9 tail stencil nodes and the 48 nodes of its two
    # contours through one kernel call, and lays the contours once; the
    # thin slab's full disc takes the contour from the axis and the ray
    # from grazing in one call too.
    calls = {"_Channels": 0, "_path_nodes": 0}
    for fname in calls:
        def counting(*args, _name=fname, _f=getattr(radial, fname)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(radial, fname, counting)
    amplitude_numeric(_ONE_CALL_CFGS[name], tol=1e-6)
    assert calls == {"_Channels": 1, "_path_nodes": 1}


@pytest.mark.parametrize("name", ["collinear-degenerate", "collinear-split",
                                  "displaced"])
def test_stencil_rows_take_the_path_kinematics(name):
    # The stencil kappa of a cut go through the kernel as complex numbers on
    # the real axis. There _path_leg gives the roots of the public
    # kinematics bit for bit, and on axis the rows are those of the real
    # kappa bit for bit; with an offset the Bessel rows in complex
    # arithmetic move them by rounding.
    cfg = _ONE_CALL_CFGS[name]
    modes = _Modes.of(cfg)
    phase = _DetectorPhase(cfg, modes)
    k = phase.kap_max
    rho = float(np.hypot(*cfg.offset))
    for kept in (512, 2048):
        d_c = phase.cut(kept)
        grid, _ = _stencil(d_c, np.sqrt(d_c * (2.0 * k - d_c)))
        kap = np.sqrt(grid * (2.0 * k - grid))
        for omega, n in ((modes.omega_s, modes.n_s),
                         (modes.omega_i, modes.n_i)):
            public = kinematics(omega, n, (kap, np.zeros_like(kap)))
            for node in (kap, kap + 0j):
                path = amplitude._path_leg(omega, n, n * n, node * node,
                                           0.5j * modes.length)
                assert np.array_equal(path.k_z, public.k_z)
                assert np.array_equal(path.q_z, public.q_z)
        real = _angular_rows(cfg, _Channels(modes, kap), kap, rho)
        axis = _angular_rows(cfg, _Channels(modes, kap + 0j), kap + 0j, rho)
        if rho == 0.0:
            assert np.array_equal(axis, real)
        else:
            assert np.max(np.abs(axis - real)) \
                <= 4e-15 * np.max(np.abs(real))
