"""The numeric amplitude's radial engine: contours, tail closure, Bessel rows.

amplitude_numeric (amplitude.py) and the numeric sweeps of scan.py load
this module on their first amplitude; a far-field process never does. The
per-node kernel it integrates, _Channels and _angular_rows, whose on-axis
row is the far field's, stays in amplitude.py; here are the Bessel
functions of the rows off axis (_bessel_rows) and the radial integral.

The radial integral is carried in u, the q_z of the kappa_max = min(q_s,
q_i) mode, as d = kappa_max - u (_DetectorPhase): the measure kappa dkappa
is u dd, and the square-root branch point of q_z at grazing is the plain
endpoint u = 0. The detector phase Psi = z_s q_zs + z_i q_zi oscillates
~q z / 2 pi times over the disc. The radial integral splits at the cut d_c
after 512 phase cycles (Newton, _DetectorPhase.cut) and closes the tail
with a three-term integration-by-parts series in 1/(i Psi') there. A
closure whose series ratio shows no clear convergence is refused, and the
head is then the whole disc (below); no other cut is tried.

The head [0, d_c] is exact. In s = kappa^2 it is the difference of two
contours (numerical steepest descent: Huybrechs and Vandewalle, SIAM J.
Numer. Anal. 44 (2006) 1026), from s = 0 and from s_c = kappa(d_c)^2 into
Im s < 0, on which e^{i Psi} decays like e^{-t}: Gauss-Laguerre nodes in t
sit on each (_path_sums), and the order doubles from 8 until two orders
agree (_path_head). s = 0, the stationary point of Psi in kappa, is a
plain endpoint in s. Every contour is one straight ray in u from its start
(_path_nodes), whose node weights carry the exact phase factor
e^{i (Psi(u) - Psi(u0)) + t}; by Cauchy's theorem any such ray into the
decaying half plane gives the same integral. From the axis and from the
cut the ray is the tangent of the steepest-descent path: when signal and
idler share one vacuum wavenumber (a degenerate split, at any z_s and z_i)
Psi is linear in u, the tangent is the path and the factor is 1. With
8 + 16 nodes a contour and 9 for the tail stencil, an amplitude takes 57
integrand nodes. The contours are laid before the tail is checked, so the
9 stencil nodes and the 48 contour nodes go through the kernel in one
call: an amplitude's time is per-call overhead, not node count.

With too few cycles for a cut (thin slabs at close range), or with the
closure refused, the head is the whole disc [0, s_max], s_max =
kappa_max^2, the same difference with its second contour from grazing,
u = 0. s_max is a branch point, and the slab's guided-mode poles lie just
above the real axis beyond it (Michalski and Mosig, J. Electromagn. Waves
Appl. (2016)), so that ray leaves at 45 degrees in u, where the integrand
is analytic. A thin slab takes 48 nodes, 8 + 16 on each contour; a refused
cut hands the disc its contour from the axis and their rows, so the disc
adds the ray's 24. A head that either contour refuses (a row that is not
finite, a tol below the rounding floor, or orders that still disagree at
_PATH_NODES_MAX) raises ConvergenceError. Displaced detectors at close
range refuse: J_n(kappa rho) grows along a path faster than e^{-t} decays
once q rho^2/z passes about 100 (q the vacuum wavenumber; a 0.3 mm offset
at 1 cm, 0.2 mm at 4 mm).

What each route computes. By Cauchy's theorem the whole transverse plane
is I_SD(0), the steepest-descent path from s = 0 alone: the half-line
s > s_max moves onto the ray from grazing, and the ray's integral is the
evanescent sector; the disc is I_SD(0) minus it. A cut's tail series is
the asymptotic series of its s_c endpoint, and the grazing endpoint's
term, which it drops, is minus the evanescent sector. So a cut amplitude
tracks the full plane: at 1 m and 3 m (2 mm slab, Types I and II,
lossless and at a 4% split) it is 3e-11 to 1.4e-9 from I_SD(0) and
3.7e-9 to 2.4e-8, the size of the evanescent sector, from the disc. The
series' own truncation error is not held to tol: 1.5e-3 of the amplitude
at 1 cm (Type I, collinear, degenerate). The disc route returns the disc
alone, without the evanescent sector: 4e-5 of the amplitude for a 0.1 mm
slab 0.15 mm out, 1.3e-5 for a 2 mm slab at 1.2 mm, 4.7e-6 at 3 mm.

The package's one Bessel implementation, the rows of complex z = kappa rho
(_bessel_rows: J0, J2 and J4 for _angular_rows, J0, J1 and J2 for greens),
is numpy code: the power series (DLMF 10.2.2) at small |z|, Bessel's
integral (DLMF 10.9.1) by the trapezoid rule in between, and the Hankel
expansion (DLMF 10.17.3) at large |z|. Against 30-digit values they are
within 2.8e-16 absolute on the real axis up to 5000 and 2.2e-15 relative
at the path nodes of 20 um and 0.2 mm offsets, where |Im z| reaches 74.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from .amplitude import _TWO_PI, _angular_rows, _Channels, _Modes, _prefactor
from .materials import ConvergenceError

# Radial-engine policy knobs. KEPT_CYCLES detector-phase cycles are
# integrated exactly before the integration-by-parts tail, whose closure is
# refused (the head is then the full disc) above TAIL_RATIO_LIMIT.
_KEPT_CYCLES = 512
_TAIL_RATIO_LIMIT = 0.1
# Contour head: Gauss-Laguerre orders double from _PATH_NODES up to
# _PATH_NODES_MAX while the N and 2N sums disagree. The full disc ends on
# the ray from grazing that leaves the u axis at _RAY_ANGLE (_path_nodes).
_PATH_NODES = 8
_PATH_NODES_MAX = 64
_RAY_ANGLE = 0.25 * np.pi
_EPS = np.finfo(float).eps
# Bessel rows (_bessel_rows), by |z|: the power series below _SERIES_BELOW,
# the trapezoid rule on Bessel's integral up to _HANKEL_FROM, the Hankel
# expansion beyond. Each stops where its first omitted term is below
# _BESSEL_TRUNCATION. The switch points, measured against 30-digit values
# on arcs |z| = r, -pi/2 <= arg z <= 0, relative to |J_n|: the series is
# 5.6e-16 off at 2.99 and 4.3e-15 at 5 (its terms grow like I_n(|z|));
# the trapezoid's J4 is a cancellation near 0, 2.5e-14 off at 1 and
# 4.7e-12 at 0.3. Relative to e^{|Im z|}/sqrt(|z|): the Hankel expansion
# with the 10 pairs that 25 needs is 2.0e-16 off at 24.99 and 3.4e-13 at
# 15; the trapezoid, on 18 nodes there, 9.5e-16.
_SERIES_BELOW = 3.0
_HANKEL_FROM = 25.0
_BESSEL_TRUNCATION = 2.0 ** -56


# ---------------------------------------------------------------------------
# Angular matrices and Bessel rows
# ---------------------------------------------------------------------------

def _angular_matrices(cfg):
    """Constant 2x2 matrix of each angular row, psi the offset direction.
    Collinear detectors have the J0 row alone (_angular_rows), so they get
    its matrix, the pattern, alone."""
    if cfg.collinear:
        return np.array([cfg.chi2.pattern], dtype=complex)
    psi = np.arctan2(cfg.offset[1], cfg.offset[0])
    c2, s2 = math.cos(2.0 * psi), math.sin(2.0 * psi)
    if cfg.chi2.kind == "I":
        mats = [cfg.chi2.pattern, [[c2, s2], [s2, -c2]]]
    else:
        c4, s4 = math.cos(4.0 * psi), math.sin(4.0 * psi)
        mats = [cfg.chi2.pattern, 2.0 * s2 * np.eye(2),
                [[s4, -c4], [-c4, -s4]], [[0.0, 2.0 * c2], [-2.0 * c2, 0.0]]]
    return np.array(mats, dtype=complex)


def _reach(log_c, power):
    """|z| at which e^{log_c} |z/2|^power falls to _BESSEL_TRUNCATION."""
    return 2.0 * math.exp((math.log(_BESSEL_TRUNCATION) - log_c) / power)


@functools.cache
def _series_table(orders):
    """(reach, c, odd) for J_n, n in orders, built on first use:
    J_n = z^(n mod 2) sum_j c[n, j] z^{2j}, c = (-1)^k/(2^{2k+n} k! (k + n)!)
    at j = k + n//2 (DLMF 10.2.2), reach[M - 1] the largest |z| at which
    each order's first term omitted with M powers is _BESSEL_TRUNCATION of
    its first, and odd the rows of odd n."""
    reach = []
    while not reach or reach[-1] < _SERIES_BELOW:
        m = len(reach) + 1
        reach.append(min(
            _reach(math.lgamma(n + 1) - math.lgamma(m - n // 2 + 1)
                   - math.lgamma(m - n // 2 + n + 1), 2 * (m - n // 2))
            if m > n // 2 else 0.0 for n in orders))
    coef = np.zeros((len(orders), len(reach)))
    for i, n in enumerate(orders):
        for k in range(len(reach) - n // 2):
            coef[i, k + n // 2] = (-1) ** k / (
                2 ** (2 * k + n) * math.factorial(k) * math.factorial(k + n))
    coef.flags.writeable = False
    return tuple(reach), coef, [i for i, n in enumerate(orders) if n % 2]


@functools.cache
def _trapezoid_reach(orders):
    """reach[K - 1], the largest |z| that K + 1 trapezoid nodes serve: the
    rule aliases J_{4K-n} into J_n, and |J_nu(z)| <= |z/2|^nu e^{|Im z|}/nu!
    (DLMF 10.14.4), against the J_n scale e^{|Im z|}/sqrt(|z|)."""
    reach = []
    while not reach or reach[-1] < _HANKEL_FROM:
        nu = 4 * len(reach) + 4 - max(orders)
        reach.append(_reach(0.5 * math.log(2.0) - math.lgamma(nu + 1),
                            nu + 0.5) if nu > 0 else 0.0)
    return tuple(reach)


@functools.cache
def _trapezoid_nodes(k, orders):
    """sin(theta_j), the weights (1/K) w_j cos(n theta_j), sin for odd n, of
    the K + 1 trapezoid nodes theta_j = j pi/(2K), and the rows of odd n."""
    theta = np.arange(k + 1) * (0.5 * np.pi / k)
    odd = [i for i, n in enumerate(orders) if n % 2]
    weights = np.cos(np.multiply.outer(orders, theta)) / k
    weights[odd] = np.sin(np.multiply.outer(orders, theta)[odd]) / k
    weights[:, [0, -1]] *= 0.5
    sines = np.sin(theta)
    sines.flags.writeable = weights.flags.writeable = False
    return sines, weights, odd


@functools.cache
def _hankel_table(orders):
    """(-1)^{n//2+k} a_2k(n) over (-1)^{n//2+k} a_2k+1(n) for J_n, n in
    orders (DLMF 10.17.1), up to the first pair k whose terms at |z| =
    _HANKEL_FROM are below _BESSEL_TRUNCATION, and the rows of odd n."""
    n = np.array(orders)[:, None]
    k = np.arange(1, 64)
    a = np.cumprod(np.hstack([np.ones((len(orders), 1)),
                              (4 * n * n - (2 * k - 1) ** 2) / (8.0 * k)]),
                   axis=1)
    small = np.abs(a) / _HANKEL_FROM ** np.arange(64) < _BESSEL_TRUNCATION
    pairs = int(np.argmax((small[:, ::2] & small[:, 1::2]).all(axis=0)))
    sign = (-1.0) ** (n // 2 + np.arange(pairs))
    table = np.vstack([sign * a[:, :2 * pairs:2], sign * a[:, 1:2 * pairs:2]])
    table.flags.writeable = False
    return table, [i for i, n in enumerate(orders) if n % 2]


def _powers(x, m):
    """x^0, ..., x^{m-1}, shape (m, n) for n values x."""
    p = np.empty((m, x.size), x.dtype)
    p[0] = 1.0
    p[1:] = x
    return np.multiply.accumulate(p, out=p)


def _bessel_series(z, orders, top):
    """DLMF 10.2.2 in z^2, M powers from the largest |z|, times z for odd n."""
    reach, coef, odd = _series_table(orders)
    m = bisect.bisect_left(reach, top) + 1
    out = coef[:, :m] @ _powers(z * z, m)
    if odd:
        out[odd] *= z
    return out


def _bessel_trapezoid(z, orders, top):
    """(2/pi) int_0^{pi/2} of cos(z sin theta) cos(n theta), n even, or of
    sin(z sin theta) sin(n theta), n odd (DLMF 10.9.1), K from the largest
    |z|; both integrands are even about 0 and pi/2: the rule is spectral."""
    k = bisect.bisect_left(_trapezoid_reach(orders), top) + 1
    sines, weights, odd = _trapezoid_nodes(k, orders)
    arg = np.multiply.outer(sines, z)
    out = weights @ np.cos(arg)
    if odd:
        out[odd] = weights[odd] @ np.sin(arg)
    return out


def _bessel_hankel(z, orders):
    """DLMF 10.17.3 with cos(z - n pi/2 - pi/4) = (-1)^{n//2} times (cos z +
    sin z)/sqrt 2, n even, or (sin z - cos z)/sqrt 2, n odd, so that a large
    real z keeps its absolute accuracy; z is taken with Re z >= 0."""
    flip = z.real < 0.0
    z = np.where(flip, -z, z)
    w = 1.0 / z
    table, odd = _hankel_table(orders)
    p, q = (table @ _powers(w * w, table.shape[1])).reshape(2, len(orders), -1)
    c, s = np.cos(z), np.sin(z)
    root = np.sqrt(np.pi * z)
    out = ((c + s) * p - (s - c) * w * q) / root
    if odd:
        out[odd] = ((s - c) * p[odd] + (c + s) * w * q[odd]) \
            / np.where(flip, -root, root)
    return out


def _bessel_rows(z, orders):
    """J_n for n in orders ((0, 2) or (0, 2, 4) for _angular_rows, (0, 1, 2)
    for greens) at n values z (or one), shape (len(orders), n), each z in its
    regime of |z|. A call that one regime covers skips the split."""
    z = np.atleast_1d(z)
    size = np.abs(z)
    top = size.max()
    if top < _SERIES_BELOW:
        return _bessel_series(z, orders, top)
    if top < _HANKEL_FROM and size.min() >= _SERIES_BELOW:
        return _bessel_trapezoid(z, orders, top)
    out = np.empty((len(orders), z.size), np.result_type(z, 1.0))
    series, hankel = size < _SERIES_BELOW, size >= _HANKEL_FROM
    middle = ~(series | hankel)
    if series.any():
        out[:, series] = _bessel_series(z[series], orders, size[series].max())
    if middle.any():
        out[:, middle] = _bessel_trapezoid(z[middle], orders,
                                           size[middle].max())
    if hankel.any():
        out[:, hankel] = _bessel_hankel(z[hankel], orders)
    return out


# ---------------------------------------------------------------------------
# Oscillatory radial engine
# ---------------------------------------------------------------------------

class _DetectorPhase:
    """Psi = z_s q_zs + z_i q_zi in u, the kappa_max mode's q_z.

    kappa_max = min(q_s, q_i), and every point is carried as
    d = kappa_max - u, so that s = kappa^2 = d (2 kappa_max - d) keeps its
    relative precision near the axis (d = 0) as u does near grazing
    (d = kappa_max). The two split modes are grouped by vacuum wavenumber,
    one group at a degenerate split: the kappa_max group's q_z is u itself,
    its phase Z0 u with Z0 the group's summed z, and any other group's q_z
    is R = sqrt(u^2 + D), D = q^2 - kappa_max^2, principal root. Two
    functions carry the phase and every view of it:

        rise(d, d0) = Psi(u) - Psi(u0)
                    = (d0 - d) [Z0 + sum z (u + u0)/(R + R0)],
        slope(u)    = dPsi/du = Z0 + sum z u/R,

    rise cancellation-free, so a node far out on a path keeps its phase to
    rounding in t. With one group Psi is linear in u.

    At laboratory distances Psi(0) = z_s q_s + z_i q_i runs to ~1e6 rad,
    and the argument rounding of exp(1j*Psi) (about Psi*eps) times the
    cancellation of the oscillatory integral sets a hard relative error
    floor well above machine precision. The engine therefore integrates
    against the referenced phase Psi - Psi(0) = rise(d, 0), whose span is
    only the kept-cycle window, and restores exp(1j*Psi(0)) once on the
    final result. In d, dPsi/dd = -slope(u).
    """

    def __init__(self, cfg, modes):
        k = min(modes.q_s, modes.q_i)
        self.kap_max = k
        groups = {}
        for q, z in ((modes.q_s, cfg.z_signal), (modes.q_i, cfg.z_idler)):
            groups[q] = groups.get(q, 0.0) + z
        self.z0 = groups.pop(k)
        self.others = [((q - k) * (q + k), z) for q, z in groups.items()]
        self.psi_ref = modes.q_s * cfg.z_signal + modes.q_i * cfg.z_idler

    def rise(self, d, d0):
        """Psi(u) - Psi(u0) at u = kappa_max - d, u0 = kappa_max - d0."""
        bracket = self.z0
        for big, z in self.others:
            u, u0 = self.kap_max - d, self.kap_max - d0
            bracket = bracket + z * (u + u0) / (np.sqrt(u * u + big)
                                                + np.sqrt(u0 * u0 + big))
        return (d0 - d) * bracket

    def slope(self, u):
        """dPsi/du."""
        total = self.z0
        for big, z in self.others:
            total = total + z * u / np.sqrt(u * u + big)
        return total

    def cut(self, kept):
        """d_c with rise(d_c, 0) = -2 pi kept, by Newton in d.

        rise(d, 0) falls and is convex in d (its d-derivative -slope(u)
        rises with d), so Newton from the axis, d = 0, climbs to the root
        from below; it stops when a step no longer raises d.
        """
        k, d = self.kap_max, 0.0
        while True:
            far = d + (self.rise(d, 0.0) + _TWO_PI * kept) / self.slope(k - d)
            if not far > d:
                return d
            d = far


def _stencil(d0, kappa0):
    """The 9-point tail stencil d0 + h (-4, ..., 4) inside (0, kappa_max),
    and its step h = min(1e-5 kappa0, d0/8), kappa0 the cut's kappa."""
    h = min(1e-5 * kappa0, d0 / 8.0)
    return d0 + h * np.arange(-4, 5), h


def _tail_terms(g, phase, grid, h):
    """Integration-by-parts boundary data at the cut d0 = grid[4].

    g is the (m, 9) stack of slow(d) on the _stencil grid about d0, from
    the caller's kernel call. u1 = g/(i Psi'), u2 = -u1'/(i Psi'),
    u3 = -u2'/(i Psi'), derivatives by 5-point central differences; Psi' =
    -slope(u) is evaluated once on the grid. Returns (boundary value
    e^{i rise(d0, 0)}(u1+u2+u3), series ratio, size of the last kept term).
    The caller owns the e^{i Psi(0)} reference.
    """
    slope = -1j * np.broadcast_to(phase.slope(phase.kap_max - grid),
                                  grid.shape)
    u1 = g / slope
    d1 = (u1[:, :-4] - 8.0 * u1[:, 1:-3] + 8.0 * u1[:, 3:-1] - u1[:, 4:]) \
        / (12.0 * h)                                    # u1' on the 5 middle nodes
    u2 = -d1 / slope[2:7]
    d2 = (u2[:, 0] - 8.0 * u2[:, 1] + 8.0 * u2[:, 3] - u2[:, 4]) / (12.0 * h)
    u3 = -d2 / slope[4]
    boundary = np.exp(1j * phase.rise(grid[4], 0.0)) \
        * (u1[:, 4] + u2[:, 2] + u3)
    n1 = float(np.sum(np.abs(u1[:, 4])))
    n2 = float(np.sum(np.abs(u2[:, 2])))
    n3 = float(np.sum(np.abs(u3)))
    ratio = n2 / n1 if n1 > 0.0 else (0.0 if n2 == 0.0 else np.inf)
    return boundary, ratio, n3


@functools.cache
def _laguerre(order):
    return np.polynomial.laguerre.laggauss(order)


def _path_nodes(phase, d_c, orders):
    """(t, d, dsdt): the Laguerre nodes t of these orders, and the (2, n)
    nodes d and weights ds/dt e^{i rise(d, d0) + t} of the straight
    contours from the axis, d0 = 0, and from d0 = d_c.

    A contour is u = u0 + t du (d = d0 - t du, ds/dt = -2 u du) along
    du = (cot alpha + i)/slope(u0): the tangent of the steepest-descent
    path (alpha = pi/2) from the axis and from a cut, and the ray at
    alpha = _RAY_ANGLE from grazing, the branch point u0 = 0, where
    slope(0) = Z0. The weight carries the part of e^{i rise(d, d0)} that
    the Laguerre weight e^{-t} leaves out; it is 1 at one vacuum
    wavenumber, where Psi is linear in u and the tangent is the path.
    """
    k = phase.kap_max
    t = np.concatenate([_laguerre(n)[0] for n in orders])
    d0 = np.array([[0.0], [d_c]])
    tilt = 1.0 / np.tan(_RAY_ANGLE) if d_c == k else 0.0
    du = np.array([[1j], [tilt + 1j]]) / phase.slope(k - d0)
    step = t * du
    d = d0 - step
    return t, d, -2.0 * (k - d0 + step) * du * np.exp(
        1j * phase.rise(d, d0) + t)


def _path_sums(rows, phase, d_c, orders, solved=None):
    """The head [0, s_c] as I(0) - I(s_c), at each Gauss-Laguerre order.

    In s = kappa^2 the head is (1/2) int_0^{s_c} rows e^{i rise(d, 0)} ds,
    and by Cauchy's theorem it equals the difference of two contours that
    leave 0 and s_c into Im s < 0, Im u > 0 in u = kappa_max - d: the
    straight contours of _path_nodes, each
    I(d0) = (1/2) e^{i rise(d0, 0)} sum_j w_j rows(kappa_j) dsdt_j, with
    kappa = sqrt(s), s = d (2 kappa_max - d). From grazing, d_c =
    kappa_max, the head is the full disc and needs no tail. The nodes of
    every order go through rows in one call. solved = (t, d, dsdt, rows)
    brings _path_nodes at these orders and the rows at their leading nodes
    from the caller's kernel call with its tail stencil: both contours of
    a cut, so that no rows call is made here, or the contour from the axis
    alone, which the full disc then completes with the ray's rows.
    Returns one (m,) head per order, or None if a row is not finite (J_n
    of a complex kappa rho can overflow far out on a contour).
    """
    k = phase.kap_max
    if solved is None:
        solved = _path_nodes(phase, d_c, orders) + (None,)
    t, d, dsdt, values = solved
    done = 0 if values is None else values.shape[-1]
    if done < d.size:
        fresh = rows(np.sqrt(d * (2.0 * k - d)).ravel()[done:])
        values = fresh if values is None else np.hstack([values, fresh])
    if not np.isfinite(values).all():
        return None
    lead = np.array([[0.5], [-0.5 * np.exp(1j * phase.rise(d_c, 0.0))]])
    terms = values.reshape(-1, 2, len(t)) * (lead * dsdt)
    ends = itertools.accumulate(orders)
    return [(terms[..., end - n:end] @ _laguerre(n)[1]).sum(axis=-1)
            for n, end in zip(orders, ends)]


def _path_head(rows, phase, modes, d_c, tol, solved=None):
    """_path_sums' head, with N doubled from _PATH_NODES until it converges.

    The error is the 1-norm over the rows of the difference of the N and 2N
    heads plus a rounding floor: a node carries the rounding of the phases
    it exponentiates, eps Phi relative with Phi = |rise(d_c, 0)| +
    (|k_p| + |k_s| + |k_i|) L, the detector phase at the cut (at grazing,
    d_c = kappa_max, for the full disc) and the slab's. The 2N head is
    returned once the error is within tol/2 of it. Raises ConvergenceError
    as soon as _path_sums refuses a row that is not finite, when the floor
    alone exceeds tol/2 (about 7e-11 for a 2 mm slab), or when the check
    still fails at order _PATH_NODES_MAX. The error carries the last 2N
    head and its error, or None and inf if no order pair was summed.
    solved, if given, is _path_sums' for the first order pair.
    """
    phi = abs(phase.rise(d_c, 0.0)) + modes.length * (
        abs(modes.k_p) + abs(modes.k_s) + abs(modes.k_i))
    orders, sums, err = (_PATH_NODES, 2 * _PATH_NODES), [], np.inf
    while True:
        new = _path_sums(rows, phase, d_c, orders, solved)
        if new is None:
            raise ConvergenceError(
                f"contour refused at order {orders[-1]}: a row not finite",
                sums[-1] if sums else None, err)
        solved = None
        sums += new
        size = float(np.abs(sums[-1]).sum())
        floor = _EPS * phi * size
        err = float(np.abs(sums[-1] - sums[-2]).sum()) + floor
        if err <= 0.5 * tol * size:
            return sums[-1], err
        if floor > 0.5 * tol * size:
            raise ConvergenceError(
                f"tol = {tol:.1e} is below the contour's rounding floor "
                f"({2.0 * floor / size:.1e})", sums[-1], err)
        if orders[-1] >= _PATH_NODES_MAX:
            raise ConvergenceError(
                f"contour orders {orders[-1] // 2} and {orders[-1]} differ "
                f"by {err / size:.1e} (tol {tol:.1e})", sums[-1], err)
        orders = (2 * orders[-1],)


def _integrate_oscillatory(rows, phase, modes, tol):
    """Head-plus-tail evaluation of int_0^{kappa_max} rows e^{i Psi} kappa
    dkappa.

    rows maps a complex kappa array to the (m, n) stack of _angular_rows;
    in d = kappa_max - u the measure kappa dkappa is u dd. Returns (vector
    of m integrals, error estimate). With more than 1.5 _KEPT_CYCLES phase
    cycles, the tail is closed at the one cut after _KEPT_CYCLES (module
    notes) and the head is [0, d_c]; with fewer, or the closure refused
    (series ratio above _TAIL_RATIO_LIMIT), the head is the full disc
    [0, kappa_max] and there is no tail. Either head is _path_head's.

    The nodes of both cut contours are laid at the first order pair before
    the tail is checked, and the 9 stencil kappa (on the real axis) and the
    48 contour kappa go through rows in one call. If the
    closure is refused, the full disc takes the contour from the axis and
    its rows from that call and evaluates only the ray's. Raises
    _path_head's ConvergenceError with the tail and the e^{i Psi(0)}
    reference phase added to its value.
    """
    k = phase.kap_max
    cycles = -phase.rise(k, 0.0) / _TWO_PI
    d_c, tail, err_tail, solved = k, 0.0, 0.0, None
    if cycles > 1.5 * _KEPT_CYCLES:
        d_cut = phase.cut(_KEPT_CYCLES)
        grid, h = _stencil(d_cut, math.sqrt(d_cut * (2.0 * k - d_cut)))
        orders = (_PATH_NODES, 2 * _PATH_NODES)
        t, d, dsdt = _path_nodes(phase, d_cut, orders)
        nodes = np.concatenate([grid, d.ravel()])
        values = rows(np.sqrt(nodes * (2.0 * k - nodes)))
        cut, ratio, n3 = _tail_terms(
            values[:, :len(grid)] * (k - grid), phase, grid, h)
        paths = values[:, len(grid):]
        if ratio <= _TAIL_RATIO_LIMIT:
            d_c, tail, err_tail = d_cut, -cut, n3 * min(1.0, ratio)
            solved = (t, d, dsdt, paths)
        else:
            solved = _path_nodes(phase, k, orders) + (paths[:, :len(t)],)

    ref = np.exp(1j * phase.psi_ref)
    try:
        head, err_head = _path_head(rows, phase, modes, d_c, tol, solved)
    except ConvergenceError as exc:
        value = None if exc.value is None else (exc.value + tail) * ref
        raise ConvergenceError(str(exc), value, exc.error + err_tail) \
            from exc
    return (head + tail) * ref, err_head + err_tail


# ---------------------------------------------------------------------------
# Amplitudes
# ---------------------------------------------------------------------------

def _numeric_matrix(cfg, modes, tol):
    """amplitude_numeric's (2, 2) matrix at the one point of modes.

    cfg supplies the conversion type, the drive and the detectors, and
    modes (here Python scalars) all the rest, so a sweep passes the config
    its points share and each point's slice of its checked stack.
    """
    phase = _DetectorPhase(cfg, modes)
    rho = float(np.hypot(*cfg.offset))

    def rows(kap):
        return _angular_rows(cfg, _Channels(modes, kap), kap, rho)

    pref = _prefactor(cfg, modes)
    matrices = _angular_matrices(cfg)

    def matrix(vec):
        return ((pref * vec) @ matrices[:len(vec)].reshape(len(vec), 4)) \
            .reshape(2, 2)

    try:
        vec, _ = _integrate_oscillatory(rows, phase, modes, tol)
    except ConvergenceError as exc:
        value = None if exc.value is None else matrix(exc.value)
        raise ConvergenceError(str(exc), value, abs(pref) * exc.error) \
            from exc
    return matrix(vec)


def _numeric_matrices(cfg, fields, tol, out):
    """_numeric_matrix at every point of a stack, shape (m, 2, 2).

    fields are the six inputs of _Modes, m their broadcast size, taken in
    the flat order of the broadcast. Each point is sliced to Python
    scalars, so that its arithmetic and its checks are those of
    ``_Modes.of`` on the point's own config, in point order, and an error
    carries its point as ``index``. The dict ``out`` maps a point's scalars
    to its matrix: a point that an earlier call (or an equal point before
    it) computed is taken from there, and each new one is added, so a
    failed call leaves there every point before its failure.
    """
    points = [*zip(*(v.ravel().tolist()
                     for v in np.broadcast_arrays(*fields)))]
    for i, point in enumerate(points):
        if point not in out:
            try:
                out[point] = _numeric_matrix(cfg, _Modes(*point), tol)
            except Exception as exc:
                exc.index = i
                raise
    return np.array([out[point] for point in points])
