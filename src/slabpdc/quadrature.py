"""Adaptive 1-D quadrature for oscillatory radial integrands.

Complex-valued integrands are first class (real and imaginary parts share
one set of nodes), results are deterministic (fixed subdivision order, no
threading), and the error estimate is returned to the caller instead of
being trusted silently. Those three requirements rule out scipy.quad, so
the driver is a small Gauss-Kronrod 7/15 panel scheme of our own.

The driver integrates one function or a stack of functions sharing their
abscissae (the tensor components of one Green function, the four entries
of one amplitude matrix). ``max_panel`` seeds the initial partition so no
panel is wider than a prescribed fraction of the local oscillation period
(the caller knows the phase rates, this module does not). The
sqrt(q^2 - kappa^2) branch point at the edge of the propagating disc is
the caller's to regularize, by the kappa = q sin(theta) map.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (standard dqk15 table).
# Even-index Kronrod nodes coincide with the embedded 7-point Gauss rule.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available value and its error estimate so callers can
    decide whether the achieved accuracy is still usable.
    """

    def __init__(self, message, value, error):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive driver."""

    rel_tol: float = 1e-8
    abs_floor: float = 0.0
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def _panel(f, a, b):
    """One GK15 evaluation: (kronrod, 1-norm of kronrod - gauss, resabs).

    f(x) is an (n,) array or an (m, n) stack; kronrod has shape () or (m,).
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * _XGK), dtype=complex)
    kron = half * (y @ _WGK)
    gauss = half * (y[..., _GAUSS_IDX] @ _WG)
    err = float(np.sum(np.abs(kron - gauss)))
    resabs = half * float(np.sum(_WGK * np.atleast_2d(np.abs(y)).sum(axis=0)))
    return kron, err, resabs


def integrate_radial(f, a, b, spec=None, max_panel=None):
    """Adaptive integral of a complex-valued f over [a, b].

    f maps an (n,) array of abscissae either to an (n,) array, giving a
    scalar integral, or to an (m, n) stack of integrands sharing those
    abscissae, giving the (m,) vector of integrals. Returns (value,
    error_estimate). Error control uses the 1-norm over the stack, so
    entries much smaller than the vector as a whole are not chased to
    relative precision individually. Panels are bisected worst-first
    until the summed error estimate drops below
    max(rel_tol*|value|_1, abs_floor) or the error is provably at the
    roundoff floor of the integrand; a spent subdivision budget raises
    ConvergenceError with the best value (None when the seed partition
    alone exceeds the budget).

    ``max_panel`` caps the seed panel width (oscillation control).
    """
    spec = spec or QuadratureSpec()
    if not b > a:
        raise ValueError("integration requires b > a")

    n_seed = 1
    if max_panel is not None and max_panel > 0:
        n_seed = max(1, int(np.ceil((b - a) / max_panel)))
        if n_seed > spec.max_subdivisions:
            raise ConvergenceError(
                f"seed partition ({n_seed} panels) exceeds the subdivision "
                f"budget ({spec.max_subdivisions})", None, np.inf)
    edges = np.linspace(a, b, n_seed + 1)

    # Heap of (-error, insertion_order, lo, hi, value, resabs); the counter
    # makes tie-breaking, and therefore the result, deterministic.
    heap = []
    counter = 0
    total = None
    err_total = 0.0
    resabs_total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err, resabs = _panel(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, resabs))
        counter += 1
        total = val if total is None else total + val
        err_total += err
        resabs_total += resabs

    n_panels = n_seed
    while True:
        target = max(spec.rel_tol * float(np.sum(np.abs(total))),
                     spec.abs_floor)
        roundoff = 50.0 * np.finfo(float).eps * resabs_total
        if err_total <= target or err_total <= roundoff:
            return total, err_total
        if n_panels >= spec.max_subdivisions:
            raise ConvergenceError(
                f"subdivision budget ({spec.max_subdivisions}) exhausted at "
                f"error {err_total:.3e} (target {target:.3e})",
                total, err_total)
        neg_err, _, lo, hi, val, resabs = heapq.heappop(heap)
        total = total - val
        err_total += neg_err  # neg_err = -err
        resabs_total -= resabs
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            sval, serr, sres = _panel(f, sub_lo, sub_hi)
            heapq.heappush(heap, (-serr, counter, sub_lo, sub_hi, sval, sres))
            counter += 1
            total = total + sval
            err_total += serr
            resabs_total += sres
        n_panels += 1


def integrate_angular(f, rel_tol=1e-10, abs_floor=0.0, max_doublings=16):
    """Integral of a periodic function over [0, 2 pi).

    Trapezoid rule on a uniform grid, doubled until two successive grids
    agree; for smooth periodic integrands this converges spectrally.
    f is called with an array of angles and must return samples along the
    first axis.  Each sample may itself be a scalar or an array (a 2x2
    matrix, say); the result keeps that trailing shape.
    """
    n = 8
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    prev = 2.0 * np.pi * np.mean(np.asarray(f(phi), dtype=complex), axis=0)
    diff = np.inf
    for _ in range(max_doublings):
        n *= 2
        phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        cur = 2.0 * np.pi * np.mean(np.asarray(f(phi), dtype=complex), axis=0)
        diff = float(np.max(np.abs(cur - prev)))
        scale = float(np.max(np.abs(cur)))
        if diff <= max(rel_tol * scale, abs_floor, 50.0 * np.finfo(float).eps * scale):
            return cur
        prev = cur
    raise ConvergenceError(
        f"angular integral not converged at {n} samples", prev, diff)


def weyl_oracle(z, rho, q, spec=None):
    """Scalar angular-spectrum integral vs its spherical-wave closed form.

    Evaluates W = (i/(8 pi^2)) Int d^2k_perp e^{i k_perp . rho + i q_z z}/q_z
    by the same radial machinery used elsewhere (theta map on the
    propagating disc plus an exponential-decay map for the evanescent
    sector) and returns (numeric, closed_form) with
    closed_form = e^{iqr}/(4 pi r), r = sqrt(z^2 + rho^2).

    The identity of the two is the classical plane-wave expansion of a
    spherical wave; the point of the op is to give downstream Green-tensor
    code an independent, brute-force reference.
    """
    if z <= 0:
        raise ValueError("weyl_oracle requires z > 0")
    spec = spec or QuadratureSpec()
    r = float(np.hypot(z, rho))
    closed = np.exp(1j * q * r) / (4.0 * np.pi * r)
    if q == 0.0:
        # Propagating sector empty; only the static evanescent part remains.
        closed = 1.0 / (4.0 * np.pi * r)

    # Propagating disc, kappa = q sin(theta): the 1/q_z weight cancels and
    # the phase q z cos(theta) is stationary at theta = 0.
    prop = 0.0 + 0.0j
    if q > 0.0:
        def f_prop(theta):
            st = np.sin(theta)
            return q * st * j0(q * rho * st) * np.exp(1j * q * z * np.cos(theta))

        cycles = q * z / (2.0 * np.pi)
        cap = (0.5 * np.pi) / max(4.0 * cycles, 1.0)
        prop, _ = integrate_radial(f_prop, 0.0, 0.5 * np.pi, spec, max_panel=cap)
        prop *= 1j / (4.0 * np.pi)

    # Evanescent sector, q_z = i tau: pure decay exp(-tau z), truncated
    # where the weight has fallen below double precision.
    tau_max = 46.0 / z

    def f_evan(tau):
        return j0(rho * np.sqrt(q * q + tau * tau)) * np.exp(-tau * z)

    evan, _ = integrate_radial(f_evan, 0.0, tau_max, spec,
                               max_panel=tau_max / 16.0)
    evan /= 4.0 * np.pi

    return prop + evan, closed
