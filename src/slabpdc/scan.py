"""Parameter scans, figure presets, config parsing, and CSV/JSON emission.

This module is the batch layer over :mod:`slabpdc.amplitude`: it resolves a
flat key = value config text into an experiment, sweeps one axis, evaluates a
set of observables at every point, and serializes the result.

Config schema
-------------
One ``key = value`` pair per line; '#' starts a comment; blank lines are
ignored. Values are plain floats in SI base units unless a documented suffix
is present:

    ``nm``      1e-9 m            (length keys only)
    ``mm``      1e-3 m            (length keys only)
    ``rad/s``   identity marker   (frequency keys only)

Suffixes are scale markers, not unit conversions: a frequency key never
accepts a wavelength. Unknown keys, malformed lines, wrong suffixes, and
duplicate keys are rejected with line/column positions.

Experiment keys (defaults reproduce the degenerate 532 nm slab used across
the bundled presets): ``material`` (builtin name, default ``bbo_ordinary``),
``crystal_length`` (2 mm), ``frequency`` (degenerate shorthand, 3.54e15;
sets signal = idler and pump = twice), or the explicit trio
``pump_frequency`` / ``signal_frequency`` / ``idler_frequency``;
``conversion`` (``I`` or ``II``), ``coupling`` (1e-12), ``pump_field``
(1e5), ``z_signal`` / ``z_idler`` (1 m), ``pump_z`` (back face), ``offset_x``
/ ``offset_y`` (0), ``n_imag`` (absorption of the down-converted modes) and
``n_imag_pump`` (pump absorption, defaults to ``n_imag``). Omitting both
n'' keys leaves the material table's own absorption in place.

Scan keys: ``scan_axis`` (``n_imag`` | ``crystal_length`` | ``delta_k`` |
``frequency``), ``scan_start``, ``scan_stop``, ``scan_count``, and
``observables`` (comma-separated subset of ``rate_I``, ``rate_II``,
``rate_ratio_to_lossless``, ``sinc_profile``, ``a_factor_gain``,
``amplitude_matrix``).

Axis semantics
--------------
``n_imag`` applies a frequency-flat n'' to every mode (it overrides both
n'' keys); ``crystal_length`` rebuilds the slab, keeping the pump waist on
the back face; ``frequency`` scans the degenerate point (signal = idler =
x, pump = 2x); ``delta_k`` scans the real phase-mismatch half-phase
dk L/2 directly and only supports ``sinc_profile`` (no experiment has a
freely dialable mismatch, so rates are undefined on this axis). The
imaginary parts of dk and sk on the delta_k axis stay pinned to the
configured absorption.

``rate_ratio_to_lossless`` divides by the n'' = 0 evaluation of the same
config at the same axis point and emits one column per conversion type.
``a_factor_gain`` is the squared-modulus gain |A(w_s) A(w_i)|^2 - 1 of the
absorption noise factors entering the coincidence rate.

Emission
--------
:func:`emit` is the one serializer, for sweeps and for the axis-less
one-point result of :func:`point_result` (a rate and its 2x2 amplitude).
CSV: one header row (axis first, when there is one), one row per point,
shortest round-trip decimal for every float. JSON: object with
``schema_version`` and ``metadata``, then the sweep's ``rows`` list or the
single axis-less row inlined. Complex observables are serialized as paired
``_re`` / ``_im`` columns in both formats. Text, for axis-less results
only: one ``name = repr(value)`` line per column, complex values whole.
Output is byte-deterministic for identical config text. :func:`run_scan`
evaluates each observable as one column over the whole axis; the kernels
work elementwise, so a cell depends only on its own point, and a sweep
fails at the point, and with the error, where that point's own config
fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .amplitude import (ExperimentConfig, PhaseMatch, _Modes,
                        _numeric_matrix, check_point, farfield_matrices,
                        phase_terms, rates, sinc_profile)
from .greens import Chi2Geometry
from .materials import (BUILTIN_MATERIALS, CrystalSlab, MaterialDispersion,
                        kinematics, noise_factor)

__version__ = "0.1.0"

_SCHEMA_VERSION = 1

_AXES = ("n_imag", "crystal_length", "delta_k", "frequency")
_METHODS = ("farfield", "numeric")
_MATRIX_LABELS = ("xx", "xy", "yx", "yy")   # row-major 2x2 entries

_LENGTH_KEYS = frozenset({"crystal_length", "z_signal", "z_idler", "pump_z",
                          "offset_x", "offset_y"})
_FREQUENCY_KEYS = frozenset({"frequency", "pump_frequency",
                             "signal_frequency", "idler_frequency"})
# suffix dimension of a key, and of the scan axis of that name
_DIMENSIONS = {**dict.fromkeys(_LENGTH_KEYS, "length"),
               **dict.fromkeys(_FREQUENCY_KEYS, "frequency")}
_NUMBER_KEYS = frozenset({"coupling", "pump_field", "n_imag", "n_imag_pump",
                          "scan_start", "scan_stop", "scan_count"})
_WORD_KEYS = frozenset({"material", "conversion", "scan_axis", "observables"})
_ALL_KEYS = _LENGTH_KEYS | _FREQUENCY_KEYS | _NUMBER_KEYS | _WORD_KEYS

_SCAN_KEYS = frozenset({"scan_axis", "scan_start", "scan_stop", "scan_count",
                        "observables"})


class ConfigError(ValueError):
    """Config text rejected: parse errors carry a line/column position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class ScanError(RuntimeError):
    """A scan aborted mid-sweep; carries the completed-point diagnostics.

    ``rows`` holds the ``completed`` rows before the failing point, every
    observable filled in, and ``columns`` names their cells.
    """

    def __init__(self, message, completed, cause, rows=(), columns=()):
        super().__init__(message)
        self.completed = completed
        self.rows = rows
        self.columns = columns
        self.__cause__ = cause


# ---------------------------------------------------------------------------
# Config text parsing
# ---------------------------------------------------------------------------

def _parse_pairs(text):
    """Split config text into {key: (value_string, line, col)}."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            col = len(line) - len(line.lstrip()) + 1
            raise ConfigError("expected 'key = value'", lineno, col)
        lhs, rhs = line.split("=", 1)
        key = lhs.strip()
        value = rhs.strip()
        key_col = len(lhs) - len(lhs.lstrip()) + 1
        if not key:
            raise ConfigError("empty key", lineno, key_col)
        val_col = len(lhs) + 2 + (len(rhs) - len(rhs.lstrip()))
        if not value:
            raise ConfigError(f"key '{key}' has no value", lineno, val_col)
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}'", lineno, key_col)
        if key in pairs:
            raise ConfigError(f"duplicate key '{key}'", lineno, key_col)
        pairs[key] = (value, lineno, val_col)
    return pairs


def _parse_quantity(key, value, line, col, *, dimension):
    """Parse a float with an optional suffix checked against the dimension."""
    tokens = value.split()
    if len(tokens) == 1:
        # allow suffixes without a separating space
        tok = tokens[0]
        for suf in ("rad/s", "nm", "mm"):
            head = tok[:-len(suf)]
            if tok.endswith(suf) and head:
                try:
                    float(head)
                except ValueError:
                    continue
                tokens = [head, suf]
                break
    if len(tokens) == 1:
        number, suffix = tokens[0], None
    elif len(tokens) == 2:
        number, suffix = tokens
    else:
        raise ConfigError(f"key '{key}': expected 'number [suffix]'",
                          line, col)
    try:
        x = float(number)
    except ValueError:
        raise ConfigError(f"key '{key}': '{number}' is not a number",
                          line, col) from None
    if not np.isfinite(x):
        raise ConfigError(f"key '{key}': value must be finite", line, col)
    if suffix is None:
        return x
    if suffix in ("nm", "mm"):
        if dimension != "length":
            raise ConfigError(
                f"key '{key}' is not a length; suffix '{suffix}' rejected",
                line, col)
        return x * (1e-9 if suffix == "nm" else 1e-3)
    if suffix == "rad/s":
        if dimension != "frequency":
            raise ConfigError(
                f"key '{key}' is not a frequency; suffix 'rad/s' rejected",
                line, col)
        return x
    raise ConfigError(f"key '{key}': unknown suffix '{suffix}'", line, col)


def _number(pairs, key, default=None):
    if key not in pairs:
        return default
    value, line, col = pairs[key]
    return _parse_quantity(key, value, line, col,
                           dimension=_DIMENSIONS.get(key, "none"))


def _split_absorption(material, n_low, n_high, omega_cut):
    """Material with n'' = n_low below omega_cut and n_high above.

    The step is pinned by a pair of samples just around omega_cut, so linear
    interpolation is exact at every frequency outside the (negligible)
    transition band.
    """
    eps_w = 1e-9 * omega_cut
    om = np.concatenate([material.omega[material.omega < omega_cut - eps_w],
                         [omega_cut - eps_w, omega_cut + eps_w],
                         material.omega[material.omega > omega_cut + eps_w]])
    nr = np.interp(om, material.omega, material.n_real)
    ni = np.where(om < omega_cut, float(n_low), float(n_high))
    return MaterialDispersion(om, nr, ni, name=material.name + "+split-loss",
                              unbounded=material.unbounded)


def _resolve(text):
    """Parse config text into (ExperimentConfig, echo dict, scan pairs)."""
    pairs = _parse_pairs(text)

    name = pairs.get("material", ("bbo_ordinary", None, None))[0]
    if name not in BUILTIN_MATERIALS:
        _, line, col = pairs["material"]
        raise ConfigError(f"unknown material '{name}' (have: "
                          + ", ".join(sorted(BUILTIN_MATERIALS)) + ")",
                          line, col)
    material = BUILTIN_MATERIALS[name]()

    length = _number(pairs, "crystal_length", 2e-3)
    freq = _number(pairs, "frequency")
    pump = _number(pairs, "pump_frequency")
    sig = _number(pairs, "signal_frequency")
    idl = _number(pairs, "idler_frequency")
    if freq is not None and (sig is not None or idl is not None):
        _, line, col = pairs["frequency"]
        raise ConfigError("give either 'frequency' or the explicit "
                          "signal/idler pair, not both", line, col)
    if (sig is None) != (idl is None):
        key = "signal_frequency" if sig is not None else "idler_frequency"
        _, line, col = pairs[key]
        raise ConfigError("signal_frequency and idler_frequency must be "
                          "given together", line, col)
    if sig is None:
        if freq is None:
            freq = 3.54e15
        sig = idl = freq
    if pump is None:
        pump = sig + idl

    kind = pairs.get("conversion", ("I", None, None))[0]

    n_imag = _number(pairs, "n_imag")
    n_imag_pump = _number(pairs, "n_imag_pump")
    for key, val in (("n_imag", n_imag), ("n_imag_pump", n_imag_pump)):
        if val is not None and val < 0.0:
            _, line, col = pairs[key]
            raise ConfigError(f"{key} must be >= 0", line, col)
    if n_imag is not None:
        if n_imag_pump is None or n_imag_pump == n_imag:
            material = material.with_absorption(n_imag)
        else:
            cut = 0.5 * (max(sig, idl) + pump)
            material = _split_absorption(
                material.with_absorption(n_imag), n_imag, n_imag_pump, cut)
    elif n_imag_pump is not None:
        _, line, col = pairs["n_imag_pump"]
        raise ConfigError("n_imag_pump requires n_imag", line, col)

    coupling = _number(pairs, "coupling", 1e-12)
    pump_field = _number(pairs, "pump_field", 1e5)
    z_signal = _number(pairs, "z_signal", 1.0)
    z_idler = _number(pairs, "z_idler", 1.0)
    pump_z = _number(pairs, "pump_z")
    off_x = _number(pairs, "offset_x", 0.0)
    off_y = _number(pairs, "offset_y", 0.0)

    try:
        cfg = ExperimentConfig(
            crystal=CrystalSlab(material=material, length=length),
            chi2=Chi2Geometry(kind=kind, d=coupling),
            pump_field=pump_field,
            pump_frequency=pump,
            z_signal=z_signal,
            z_idler=z_idler,
            signal_frequency=sig,
            idler_frequency=idl,
            pump_z=pump_z,
            offset=(off_x, off_y),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    echo = {
        "material": name,
        "crystal_length": length,
        "pump_frequency": pump,
        "signal_frequency": sig,
        "idler_frequency": idl,
        "conversion": kind,
        "coupling": coupling,
        "pump_field": pump_field,
        "z_signal": z_signal,
        "z_idler": z_idler,
        "pump_z": cfg.pump_z,
        "offset_x": off_x,
        "offset_y": off_y,
        "n_imag": n_imag,
        "n_imag_pump": n_imag_pump,
    }
    scan_pairs = {k: pairs[k] for k in _SCAN_KEYS if k in pairs}
    return cfg, echo, scan_pairs


def load_config(text):
    """Resolve config text to an :class:`ExperimentConfig`.

    Scan keys are part of the schema and are accepted (and ignored) here;
    anything else unknown is rejected with its position.
    """
    cfg, _, _ = _resolve(text)
    return cfg


# ---------------------------------------------------------------------------
# Scan requests
# ---------------------------------------------------------------------------

def _check_route(method, tol):
    """Reject an unknown method or a tol that is not > 0 (NaN included)."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")


@dataclass(frozen=True)
class ScanRequest:
    """One-axis sweep: what to vary, over which grid, measuring what."""

    base: ExperimentConfig
    axis: str
    range: tuple          # (start, stop, count)
    observables: tuple
    method: str = "farfield"
    tol: float = 1e-6
    echo: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got "
                             f"'{self.axis}'")
        start, stop, count = self.range
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("scan range bounds must be finite")
        if not (math.isfinite(count) and int(count) == count
                and count >= 2):
            raise ValueError("scan_count must be an integer >= 2")
        if not start < stop:
            raise ValueError("scan range needs start < stop")
        object.__setattr__(self, "range",
                           (float(start), float(stop), int(count)))
        obs = tuple(self.observables)
        if not obs:
            raise ValueError("at least one observable is required")
        for name in obs:
            if name not in _OBSERVABLES:
                raise ValueError(f"unknown observable '{name}' (have: "
                                 + ", ".join(_OBSERVABLES) + ")")
        if len(set(obs)) != len(obs):
            raise ValueError("duplicate observable")
        object.__setattr__(self, "observables", obs)
        _check_route(self.method, self.tol)
        if self.axis == "delta_k":
            extra = [o for o in obs if o != "sinc_profile"]
            if extra:
                raise ValueError(
                    "the delta_k axis dials the phase mismatch directly and "
                    "only supports sinc_profile; rejected: "
                    + ", ".join(extra))
        if self.axis == "n_imag" and self.range[0] < 0.0:
            raise ValueError("n_imag scan start must be >= 0")
        if self.axis in ("crystal_length", "frequency") \
                and self.range[0] <= 0.0:
            raise ValueError(f"{self.axis} scan start must be positive")


def scan_request_from_config(text, method="farfield", tol=1e-6):
    """Build a :class:`ScanRequest` from config text with scan keys."""
    cfg, echo, scan_pairs = _resolve(text)
    missing = [k for k in ("scan_axis", "scan_start", "scan_stop",
                           "scan_count", "observables")
               if k not in scan_pairs]
    if missing:
        raise ConfigError("scan definition incomplete; missing: "
                          + ", ".join(missing))

    axis = scan_pairs["scan_axis"][0]
    bounds = []
    for key in ("scan_start", "scan_stop"):
        value, kline, kcol = scan_pairs[key]
        bounds.append(_parse_quantity(key, value, kline, kcol,
                                      dimension=_DIMENSIONS.get(axis, "none")))
    count_s, kline, kcol = scan_pairs["scan_count"]
    try:
        count = int(count_s)
    except ValueError:
        raise ConfigError(f"scan_count: '{count_s}' is not an integer",
                          kline, kcol) from None
    obs_s, kline, kcol = scan_pairs["observables"]
    observables = tuple(tok.strip() for tok in obs_s.split(",") if tok.strip())

    try:
        return ScanRequest(base=cfg, axis=axis,
                           range=(bounds[0], bounds[1], count),
                           observables=observables, method=method, tol=tol,
                           echo=echo)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ScanResult:
    """Evaluated sweep: axis grid, named columns, row-per-point values.

    ``axis`` is None (and ``axis_values`` empty) for a one-point result.
    """

    axis: str | None
    axis_values: tuple
    columns: tuple
    rows: tuple           # rows[i][j] pairs with columns[j]
    metadata: dict


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class _Sweep:
    """Points [0, m) of a sweep, stacked: the input of every column.

    The axis sets the stacked inputs once: ``n_imag`` puts a frequency-flat
    n'' on every mode, ``crystal_length`` sets the slab (the pump plane
    stays on its entry face), ``frequency`` the degenerate point
    (x, x, 2x). What the axis leaves alone stays a scalar; indices are at
    least (1,) arrays, so a column that does not depend on the axis value
    (the lossless one on the ``n_imag`` axis) is evaluated once and
    broadcast. The stack passes each point's ExperimentConfig checks
    (``check_point``); the ``ScanRequest`` range checks already cover those
    of the material and the slab; a point is not checked again. With
    ``axis=None`` it is the one point of ``base``. ``memo`` keeps numeric
    amplitudes by (kind, lossless, point) across the sweeps of one scan.
    """

    def __init__(self, base, axis, x, method, tol, memo):
        self.base, self.axis, self.x = base, axis, x
        self.method, self.tol, self.memo = method, tol, memo
        self.count = 1 if x is None else len(x)
        self.length = x if axis == "crystal_length" else base.crystal.length
        if axis == "frequency":
            self.omega_p, sig, idl = 2.0 * x, x, x
        else:
            self.omega_p, sig, idl = (base.pump_frequency,
                                      base.signal_frequency,
                                      base.idler_frequency)
        pump_z = None if axis == "crystal_length" else base.pump_z
        self.omega_s, self.omega_i, self.pump_z = check_point(
            self.length, base.pump_field, self.omega_p, sig, idl,
            base.z_signal, base.z_idler, pump_z, base.offset)
        self.n_imag = x if axis == "n_imag" else None
        self._modes = {}
        self._amps = {}

    def index(self, omega, lossless=False):
        """Complex indices at omega, an (m,) or (1,) array."""
        n = np.atleast_1d(self.base.crystal.index(omega))
        if lossless or self.n_imag is not None:
            n = n.real + 1j * (0.0 if lossless else self.n_imag)
        return n

    def modes(self, lossless=False, i=None):
        """The _Modes of the stack; with i, point i's own, sliced from it
        in Python scalars, so that its arithmetic is that of ``_Modes.of``
        on the point's own config."""
        if lossless not in self._modes:
            omegas = (self.omega_s, self.omega_i, self.omega_p)
            self._modes[lossless] = _Modes(
                *omegas, *(self.index(w, lossless) for w in omegas),
                self.length, self.pump_z)
        m = self._modes[lossless]
        if i is None:
            return m
        return _Modes(*(np.broadcast_to(v, (self.count,))[i].tolist()
                        for v in (m.omega_s, m.omega_i, m.omega_p, m.n_s,
                                  m.n_i, m.n_p, m.length, m.pump_z)))

    def config(self, kind):
        """The ExperimentConfig of what every point shares: conversion
        type, drive and detectors."""
        base = self.base
        chi2 = replace(base.chi2, kind=kind)
        return replace(base, chi2=chi2) if chi2 != base.chi2 else base

    def amplitude(self, kind, lossless=False):
        key = (kind, lossless)
        if key not in self._amps:
            self._amps[key] = _amplitude(self, kind, lossless)
        return self._amps[key]


def _per_point(f, count):
    """[f(0), ..., f(count - 1)]; an error carries its point as ``index``."""
    out = []
    for i in range(count):
        try:
            out.append(f(i))
        except Exception as exc:
            exc.index = i
            raise
    return out


def _amplitude(sweep, kind, lossless=False):
    """2x2 amplitudes of one conversion type at the points of a sweep.

    The one place the farfield/numeric route is picked. Shape (m, 2, 2),
    or (1, 2, 2) where every point has the same config. The far field is
    one evaluation of the kappa = 0 endpoint term over the stack, on the
    normal-incidence channels that both types share. The numeric route
    integrates once per point, and once in all for the lossless modes of
    an ``n_imag`` axis, which do not depend on n''.
    """
    # the stack first, so that a bad point fails at its own index
    cfg, stack = sweep.config(kind), sweep.modes(lossless)
    if sweep.method == "farfield":
        return farfield_matrices(cfg, stack)

    def numeric(i):
        key = (kind, lossless, i)
        if key not in sweep.memo:
            sweep.memo[key] = _numeric_matrix(
                cfg, sweep.modes(lossless, i), sweep.tol)
        return sweep.memo[key]

    shared = lossless and sweep.axis == "n_imag"
    return np.array(_per_point(numeric, 1 if shared else sweep.count))


def _matrix_cells(matrix):
    return [(f"amplitude_{lab}", complex(v))
            for lab, v in zip(_MATRIX_LABELS, np.ravel(matrix))]


def _rate_columns(kind):
    def columns(sw):
        return [rates(sw.amplitude(kind))]
    return columns


def _ratio_columns(sw):
    return [rates(sw.amplitude(kind)) / rates(sw.amplitude(kind, True))
            for kind in ("I", "II")]


def _sinc_columns(sw):
    kin = [kinematics(w, sw.index(w))
           for w in (sw.omega_s, sw.omega_i, sw.omega_p)]
    pm = phase_terms(*kin)
    if sw.axis == "delta_k":
        # the axis value is the real half-phase dk L/2; absorption keeps
        # its grip on the imaginary parts
        dk = 2.0 * sw.x / sw.length + 1j * np.imag(pm.delta_k)
        pm = PhaseMatch(delta_k=dk, sigma_k=pm.sigma_k)
    return [sinc_profile(pm, sw.length)]


def _gain_columns(sw):
    # Scalar noise_factor arithmetic, point by point: |a|^2 - 1 cancels
    # about 11 digits at small n'', so the column keeps the rounding of
    # the one-point formula rather than that of the vector kernels.
    n_s, n_i = (np.broadcast_to(sw.index(w), (sw.count,)).tolist()
                for w in (sw.omega_s, sw.omega_i))

    def gain(i):
        a = noise_factor(n_s[i] * n_s[i]) * noise_factor(n_i[i] * n_i[i])
        return float(abs(a) ** 2 - 1.0)
    return [_per_point(gain, sw.count)]


def _matrix_columns(sw):
    matrices = sw.amplitude(sw.base.chi2.kind)
    return list(matrices.reshape(-1, 4).T)


# observable: (its column names, the function computing those columns)
_OBSERVABLES = {
    "rate_I": (("rate_I",), _rate_columns("I")),
    "rate_II": (("rate_II",), _rate_columns("II")),
    "rate_ratio_to_lossless": (("rate_ratio_to_lossless_I",
                                "rate_ratio_to_lossless_II"),
                               _ratio_columns),
    "sinc_profile": (("sinc_profile",), _sinc_columns),
    "a_factor_gain": (("a_factor_gain",), _gain_columns),
    "amplitude_matrix": (tuple(f"amplitude_{lab}" for lab in _MATRIX_LABELS),
                         _matrix_columns),
}


def run_scan(req):
    """Evaluate a :class:`ScanRequest` into a :class:`ScanResult`.

    Each observable is one column over all axis points (:class:`_Sweep`),
    in request order. A point fails exactly where its own config would:
    stacked checks raise at the first failing point, and the points before
    it are evaluated again until they all pass, so a failure that an
    earlier check hid is still found first. Any error aborts the sweep and
    is re-raised as :class:`ScanError`, with the completed rows attached.
    """
    start, stop, count = req.range
    axis_values = np.linspace(start, stop, count)
    names = tuple(name for obs in req.observables
                  for name in _OBSERVABLES[obs][0])
    memo = {}
    done, error = count, None
    columns = [[] for _ in names]
    while done:
        try:
            sweep = _Sweep(req.base, req.axis, axis_values[:done],
                           req.method, req.tol, memo)
            columns = [np.broadcast_to(col, (done,)).tolist()
                       for obs in req.observables
                       for col in _OBSERVABLES[obs][1](sweep)]
            break
        except Exception as exc:
            done, error = min(getattr(exc, "index", 0), done - 1), exc
    rows = tuple(zip(*columns))
    if error is not None:
        raise ScanError(
            f"scan aborted at axis point {done} ({req.axis} = "
            f"{float(axis_values[done])!r}) after {done} completed rows: "
            f"{error}",
            completed=done, cause=error, rows=rows, columns=names) \
            from error

    metadata = {
        "tool": f"slabpdc {__version__}",
        "schema_version": _SCHEMA_VERSION,
        "axis": req.axis,
        "start": start,
        "stop": stop,
        "count": count,
        "observables": list(req.observables),
        "method": req.method,
        "tol": req.tol,
        "config": dict(req.echo),
    }
    return ScanResult(axis=req.axis, axis_values=tuple(axis_values.tolist()),
                      columns=names, rows=rows, metadata=metadata)


def point_result(cfg, method="farfield", tol=1e-6):
    """One amplitude and its rate, as an axis-less :class:`ScanResult`."""
    _check_route(method, tol)
    (matrix,) = _amplitude(_Sweep(cfg, None, None, method, tol, {}),
                           cfg.chi2.kind)
    cells = [("rate", float(rates(matrix)))] + _matrix_cells(matrix)
    return ScanResult(axis=None, axis_values=(),
                      columns=tuple(name for name, _ in cells),
                      rows=(tuple(value for _, value in cells),),
                      metadata={"method": method, "tol": tol})


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# Each preset is plain config text run through the same parser as user
# configs, so the texts double as schema documentation. All four share the
# degenerate 532 nm slab: Re n(2w) = 1.75, Re n(w) = 1.67, w = 3.54e15,
# L = 2 mm.

_PRESET_TEXTS = {
    # sinc efficiency vs the real half-phase dk L/2, with distinct pump and
    # down-converted absorption lifting the minima off zero. The x axis is
    # dialed directly (dimensionless) because the source plot uses arbitrary
    # units; lossless and matched-absorption variants are one-key edits.
    "fig3": """\
material = bbo_ordinary
crystal_length = 2 mm
frequency = 3.54e15 rad/s
n_imag = 2e-6
n_imag_pump = 1.2e-5
scan_axis = delta_k
scan_start = 0.05
scan_stop = 12.6
scan_count = 400
observables = sinc_profile
""",
    # noise-factor gain vs absorption
    "fig4": """\
material = bbo_ordinary
crystal_length = 2 mm
frequency = 3.54e15 rad/s
scan_axis = n_imag
scan_start = 0.0
scan_stop = 1e-3
scan_count = 200
observables = a_factor_gain
""",
    # normalized coincidence rate vs absorption, both conversion types
    "fig5": """\
material = bbo_ordinary
crystal_length = 2 mm
frequency = 3.54e15 rad/s
scan_axis = n_imag
scan_start = 0.0
scan_stop = 1e-5
scan_count = 20
observables = rate_ratio_to_lossless
""",
    # rate vs crystal length: intra-crystal interference beats riding on the
    # absorption-set envelope
    "fig6": """\
material = bbo_ordinary
crystal_length = 2 mm
frequency = 3.54e15 rad/s
n_imag = 1e-6
scan_axis = crystal_length
scan_start = 1.9 mm
scan_stop = 2.1 mm
scan_count = 400
observables = rate_I, rate_II, rate_ratio_to_lossless
""",
}

PRESET_NAMES = tuple(sorted(_PRESET_TEXTS))


def preset(name, method="farfield", tol=1e-6):
    """Named figure-reproduction request (see :data:`PRESET_NAMES`)."""
    return scan_request_from_config(preset_text(name), method=method,
                                    tol=tol)


def preset_text(name):
    """The config text behind a preset, for --dump-config style use."""
    if name not in _PRESET_TEXTS:
        raise ValueError(f"unknown preset '{name}' (have: "
                         + ", ".join(PRESET_NAMES) + ")")
    return _PRESET_TEXTS[name]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _flat_row(result, i):
    """Row i as (name, float) pairs: axis first, complex split _re/_im."""
    out = ([] if result.axis is None
           else [(result.axis, result.axis_values[i])])
    for name, v in zip(result.columns, result.rows[i]):
        if isinstance(v, complex):
            out += [(name + "_re", float(v.real)),
                    (name + "_im", float(v.imag))]
        else:
            out.append((name, float(v)))
    return out


def emit(result, format="csv"):
    """Serialize a :class:`ScanResult` to bytes (``csv`` or ``json``).

    An axis-less result has no axis column, inlines its one row in the JSON
    document and also takes ``text``: ``name = repr(value)`` per column.
    """
    if format == "text" and result.axis is None:
        (row,) = result.rows
        return "".join(f"{name} = {v!r}\n"
                       for name, v in zip(result.columns, row)).encode()
    flat = [_flat_row(result, i) for i in range(len(result.rows))]
    if format == "csv":
        lines = [",".join(name for name, _ in flat[0])]
        lines += [",".join(repr(v) for _, v in row) for row in flat]
        return ("\n".join(lines) + "\n").encode()
    if format == "json":
        doc = {"schema_version": _SCHEMA_VERSION,
               "metadata": result.metadata}
        if result.axis is None:
            (row,) = flat
            doc.update(row)
        else:
            doc["rows"] = [dict(row) for row in flat]
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise ValueError(f"format must be csv or json (or text for an axis-less "
                     f"result), got '{format}'")
