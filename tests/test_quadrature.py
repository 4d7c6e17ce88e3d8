"""Adaptive panel quadrature and the angular doubling rule.

The analytic set here has closed forms derived by hand; beyond matching the
values, the reported error estimates must actually bound the true errors
(with bounded slack), and repeated runs must be bit-identical.
"""

import math

import numpy as np
import pytest

from slabpdc.quadrature import (ConvergenceError, QuadratureSpec,
                                integrate_angular, integrate_radial)


# ---------------------------------------------------------------------------
# Radial panels
# ---------------------------------------------------------------------------

def test_monomial():
    val, err = integrate_radial(lambda x: x, 0.0, 1.0)
    assert np.ndim(val) == 0      # a 1-D integrand gives a scalar
    assert val == pytest.approx(0.5, rel=1e-13)
    assert abs(val - 0.5) <= 10.0 * max(err, 1e-16)


def test_full_periods_of_sine():
    spec = QuadratureSpec(rel_tol=1e-10)
    val, err = integrate_radial(np.sin, 0.0, 20.0 * np.pi, spec)
    assert abs(val) <= 1e-12 + 10.0 * err


def test_oscillatory_panel_cap():
    # e^{i w x} over whole periods; the cap keeps panels under a period
    w = 200.0
    spec = QuadratureSpec(rel_tol=1e-10)
    val, err = integrate_radial(lambda x: np.exp(1j * w * x),
                                0.0, 2.0 * np.pi, spec,
                                max_panel=2.0 * np.pi / w)
    assert abs(val) <= 1e-12 + 10.0 * err


def test_error_estimate_bounds_truth_on_analytic_set():
    cases = [
        (lambda x: x ** 5, 0.0, 1.0, 1.0 / 6.0),
        (np.cos, 0.0, 3.0, np.sin(3.0)),
        (lambda x: np.exp(-x) * np.sin(7.0 * x), 0.0, 5.0,
         (7.0 - np.exp(-5.0) * (np.sin(35.0) * 1.0
                                + 7.0 * np.cos(35.0))) / 50.0),
    ]
    for f, a, b, truth in cases:
        val, err = integrate_radial(f, a, b)
        assert abs(val - truth) <= 10.0 * max(err, 1e-16)

    # The same three as one (3, n) stack on a shared partition; the 1-norm
    # estimate must bound each entry's error.
    def stack(x):
        return np.stack([f(x * (b - a) / 5.0 + a) * (b - a) / 5.0
                         for f, a, b, _ in cases])

    vals, err = integrate_radial(stack, 0.0, 5.0)
    assert vals.shape == (3,)
    for val, (_, _, _, truth) in zip(vals, cases):
        assert abs(val - truth) <= 10.0 * max(err, 1e-16)


def test_determinism_bit_identical():
    f = lambda x: np.stack([np.exp(1j * 37.0 * x) / (1.0 + x * x),
                            np.cos(5.0 * x) * x])
    a = integrate_radial(f, 0.0, 10.0)
    b = integrate_radial(f, 0.0, 10.0)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_convergence_error_carries_partial_value():
    spec = QuadratureSpec(rel_tol=1e-15, max_subdivisions=3)
    with pytest.raises(ConvergenceError) as info:
        integrate_radial(lambda x: np.sin(300.0 * x) / (1e-3 + x),
                         0.0, 1.0, spec)
    assert info.value.value is not None
    assert np.isfinite(info.value.error)


def test_seed_partition_over_budget_carries_no_value():
    spec = QuadratureSpec(max_subdivisions=3)
    for f in (np.cos, lambda x: np.stack([np.cos(x), np.sin(x)])):
        with pytest.raises(ConvergenceError) as info:
            integrate_radial(f, 0.0, 1.0, spec, max_panel=0.1)
        assert info.value.value is None
        assert info.value.error == np.inf


def _counted(f):
    """f and the list of node counts it was called with."""
    sizes = []

    def g(x):
        sizes.append(len(x))
        return f(x)
    return g, sizes


def test_seed_partition_evaluated_in_blocks():
    # 1400 unit panels converge on the seed: 11 calls of <= 128 panels each
    g, sizes = _counted(np.cos)
    val, _ = integrate_radial(g, 0.0, 1400.0, max_panel=1.0)
    assert val == pytest.approx(np.sin(1400.0), rel=1e-12)
    assert len(sizes) == math.ceil(1400 / 128)
    assert max(sizes) <= 128 * 15
    assert sum(sizes) == 1400 * 15


def test_refinement_spends_budget_without_exceeding_it():
    g, sizes = _counted(lambda x: np.sin(300.0 * x) / (1e-3 + x))
    spec = QuadratureSpec(rel_tol=1e-15, max_subdivisions=100)
    with pytest.raises(ConvergenceError, match="exhausted") as info:
        integrate_radial(g, 0.0, 1.0, spec, max_panel=0.05)
    # every bisection evaluates two children and adds one panel
    n_seed = 20
    panels = n_seed + (sum(sizes) // 15 - n_seed) // 2
    assert panels == spec.max_subdivisions
    # a few rounds, one integrand call each, not one call per panel
    assert 2 < len(sizes) < 10
    assert max(sizes) <= 128 * 15
    assert info.value.value is not None
    assert np.isfinite(info.value.error)


def test_over_budget_round_takes_half_of_what_is_left():
    # A round that would overrun the budget bisects at most half of what is
    # left, so the rest follows the worst children down. On 20 seed panels
    # at rel_tol 1e-15 a budget of 100 carries 6.9e-12; spent in one round
    # it carried 1.5e-5. Budgets that suffice give the value and estimate
    # of the one-round rule, frozen here.
    def f(x):
        return np.sin(300.0 * x) / (1e-3 + x)

    with pytest.raises(ConvergenceError, match="exhausted") as info:
        integrate_radial(f, 0.0, 1.0, QuadratureSpec(
            rel_tol=1e-15, max_subdivisions=100), max_panel=0.05)
    assert info.value.error <= 1e-10
    for budget in (200, 400):
        val, err = integrate_radial(f, 0.0, 1.0, QuadratureSpec(
            rel_tol=1e-15, max_subdivisions=budget), max_panel=0.05)
        assert val == 1.0237081891220041 and err == 4.441714059272642e-14
    assert abs(info.value.value - val) <= info.value.error


def test_scalar_and_single_row_stack_agree():
    def f(x):
        return np.exp(1j * 37.0 * x) / (1.0 + x * x)

    val, err = integrate_radial(f, 0.0, 10.0)
    vals, errs = integrate_radial(lambda x: f(x)[None, :], 0.0, 10.0)
    assert vals.shape == (1,)
    assert val == vals[0] and err == errs


def test_spec_rejects_unusable_tolerance():
    for tol in (0.0, -1e-8, np.nan):
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            QuadratureSpec(rel_tol=tol)
    # An infinite rel_tol would accept the seed partition with no goal.
    with pytest.raises(ValueError, match="rel_tol must be finite"):
        QuadratureSpec(rel_tol=np.inf)
    for budget in (0, np.nan, 2.5, np.inf):
        with pytest.raises(ValueError, match="max_subdivisions"):
            QuadratureSpec(max_subdivisions=budget)


# ---------------------------------------------------------------------------
# Angular doubling
# ---------------------------------------------------------------------------

def test_angular_cos_squared():
    val = integrate_angular(lambda p: np.cos(p) ** 2)
    assert val == pytest.approx(np.pi, rel=1e-12)


def test_angular_cos_mean_zero():
    val = integrate_angular(lambda p: np.cos(p))
    assert abs(val) < 1e-12


def test_angular_cos_fourth():
    val = integrate_angular(lambda p: np.cos(p) ** 4)
    assert val == pytest.approx(0.75 * np.pi, rel=1e-12)


def test_angular_vector_valued():
    # trailing axes ride along: a stack of two harmonics at once
    def f(phis):
        return np.stack([np.cos(phis) ** 2, np.sin(phis) ** 2], axis=-1)

    val = integrate_angular(f)
    assert val == pytest.approx([np.pi, np.pi], rel=1e-12)



def test_angular_rejects_bad_inputs_before_sampling():
    # A NaN rel_tol would otherwise grind through every doubling (524,288
    # samples after its 16) before it raised ConvergenceError.
    calls = []

    def f(phis):
        calls.append(len(phis))
        return np.cos(phis) ** 2

    for rel_tol in (np.nan, 0.0, -1e-9, np.inf):
        with pytest.raises(ValueError, match="integrate_angular"):
            integrate_angular(f, rel_tol)
    assert calls == []


def test_radial_rejects_infinite_limits_before_evaluating():
    # An infinite limit would otherwise spend the whole budget on NaN nodes.
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(-x)

    for a, b in ((0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)):
        with pytest.raises(ValueError, match="limits must be finite"):
            integrate_radial(f, a, b)
    with pytest.raises(ValueError, match="b > a"):
        integrate_radial(f, 0.0, np.nan)
    # a seed-panel cap that is not > 0 is not read as "no cap"
    for max_panel in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="max_panel must be > 0"):
            integrate_radial(f, 0.0, 1.0, max_panel=max_panel)
    assert calls == []
