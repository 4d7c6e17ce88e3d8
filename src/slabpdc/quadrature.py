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

The integrand is called on blocks of up to _BLOCK_PANELS panels, not once
per 15-node panel: the whole seed partition first, then the children of
each refinement round. The amplitude integrand costs about 10 us a node in
15-node calls and 0.7 us in calls of 1920 nodes (collinear; one core of a
shared 2-core x86 host), so the call count, not the node count, set the
cost of the one-panel driver.

weyl_oracle imports scipy's j0 inside the function, not at module level:
the far-field route imports this module but needs no Bessel function, and
a module-level scipy import would add about 0.55 s and 47 MB to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

# Panels per integrand call. One call over the ~21k-node seed partition of
# an amplitude raised its peak RSS from 84 to 93 MB; 128 panels (1920
# nodes) stay within 1 MB of 32-panel blocks at the speed of one call.
_BLOCK_PANELS = 128


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
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def _panels(f, lo, hi):
    """GK15 on the panels [lo[j], hi[j]], calling f once per block of panels.

    Returns (kronrod, err, resabs), one column per panel: kronrod is (p,)
    for an (n,) integrand and (m, p) for an (m, n) stack, err is the 1-norm
    of kronrod - gauss over the stack and resabs the GK15 integral of the
    summed |f|. Blocks hold at most _BLOCK_PANELS panels, so the node arrays
    the integrand builds stay small however long the partition is.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    kron, err, resabs = [], [], []
    for s in range(0, len(lo), _BLOCK_PANELS):
        h = half[s:s + _BLOCK_PANELS]
        x = (mid[s:s + _BLOCK_PANELS, None] + h[:, None] * _XGK).ravel()
        y = np.asarray(f(x), dtype=complex)
        shape = y.shape[:-1] + (len(h),)
        y = y.reshape(-1, len(h), 15)
        k = h * (y @ _WGK)
        g = h * (y[..., _GAUSS_IDX] @ _WG)
        kron.append(k.reshape(shape))
        err.append(np.abs(k - g).sum(axis=0))
        resabs.append(h * (np.abs(y).sum(axis=0) @ _WGK))
    return (np.concatenate(kron, axis=-1), np.concatenate(err),
            np.concatenate(resabs))


def integrate_radial(f, a, b, spec=None, max_panel=None):
    """Adaptive integral of a complex-valued f over [a, b].

    f maps an (n,) array of abscissae either to an (n,) array, giving a
    scalar integral, or to an (m, n) stack of integrands sharing those
    abscissae, giving the (m,) vector of integrals. Returns (value,
    error_estimate). Error control uses the 1-norm over the stack, so
    entries much smaller than the vector as a whole are not chased to
    relative precision individually. The seed partition is evaluated at
    once; refinement then runs in rounds until the summed error estimate
    drops to the goal: target = max(rel_tol*|value|_1, abs_floor), or the
    roundoff floor of the integrand if that is larger. Each round bisects,
    worst first, the fewest panels whose errors add up to more than
    err_total - goal, within the subdivision budget, and evaluates all
    their children in one blocked pass. A spent budget raises
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

    # Panel j is [edges[j], edges[j + 1]] and column j of val, err and
    # resabs, so a round is a few array operations and one blocked pass.
    val, err, resabs = _panels(f, edges[:-1], edges[1:])
    while True:
        total = val.sum(axis=-1)
        err_total = float(err.sum())
        target = max(spec.rel_tol * float(np.sum(np.abs(total))),
                     spec.abs_floor)
        goal = max(target, 50.0 * np.finfo(float).eps * float(resabs.sum()))
        if err_total <= goal:
            return total, err_total
        room = spec.max_subdivisions - len(err)
        if room <= 0:
            raise ConvergenceError(
                f"subdivision budget ({spec.max_subdivisions}) exhausted at "
                f"error {err_total:.3e} (target {target:.3e})",
                total, err_total)
        # The stable sort makes ties, and therefore the result, deterministic.
        worst = np.argsort(-err, kind="stable")
        need = np.searchsorted(np.cumsum(err[worst]), err_total - goal,
                               side="right") + 1
        pick = np.sort(worst[:min(need, room)])
        # A picked panel gets a new column before its own; both columns
        # then hold its two children.
        edges = np.insert(edges, pick + 1,
                          0.5 * (edges[pick] + edges[pick + 1]))
        val = np.insert(val, pick, 0.0, axis=-1)
        err = np.insert(err, pick, 0.0)
        resabs = np.insert(resabs, pick, 0.0)
        kids = ((pick + np.arange(len(pick)))[:, None] + [0, 1]).ravel()
        val[..., kids], err[kids], resabs[kids] = _panels(
            f, edges[kids], edges[kids + 1])


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
    if not 0 < z < np.inf:
        raise ValueError("weyl_oracle requires finite z > 0")
    if not (np.isfinite(rho) and np.isfinite(q)):
        raise ValueError("weyl_oracle requires finite rho and q")
    from scipy.special import j0

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
