"""Parameter scans, figure presets, config parsing, and CSV/JSON emission.

This module is the batch layer over :mod:`slabpdc.amplitude`: it resolves a
flat key = value config text into an experiment, sweeps one axis, evaluates a
set of observables at every point, and serializes the result.

Config schema
-------------
One ``key = value`` pair per line; '#' starts a comment; blank lines are
ignored. ``_KEYS`` lists every key with its suffix dimension and default
(the defaults reproduce the degenerate 532 nm slab of the bundled
presets). Numbers are SI unless suffixed (``_SUFFIXES``): ``nm`` and
``mm`` mark lengths, ``rad/s`` frequencies; a suffix is a scale marker,
so a frequency key never accepts a wavelength. Unknown keys, malformed
lines and values, wrong suffixes and duplicate keys are rejected with
line/column positions, scan keys included, by :func:`load_config` too.

``frequency`` is the degenerate shorthand (signal = idler, pump = twice);
else ``signal_frequency`` and ``idler_frequency`` come together.
``n_imag`` is the absorption of the down-converted modes, ``n_imag_pump``
that of the pump (default ``n_imag``); omitting both keeps the material
table's own. Split absorption is a step in n'' between the two: on a
``frequency`` axis it lies between them at every point of the sweep, and
a sweep whose pump reaches its down-converted frequencies is rejected at
``n_imag_pump``. A :class:`ScanRequest` built in Python is held to the
same rule: a point on the wrong side of its material's step is rejected.

Scan keys: ``scan_axis`` (``n_imag`` | ``crystal_length`` | ``delta_k`` |
``frequency``), ``scan_start``, ``scan_stop``, ``scan_count``, and
``observables`` (comma-separated subset of ``rate_I``, ``rate_II``,
``rate_ratio_to_lossless``, ``sinc_profile``, ``a_factor_gain``,
``amplitude_matrix``).

Axis semantics
--------------
``n_imag`` applies a frequency-flat n'' to every mode (it overrides both
n'' keys); ``crystal_length`` rebuilds the slab, keeping the pump waist on
the entry face (an explicit ``pump_z`` elsewhere is rejected);
``frequency`` scans the degenerate point (signal = idler =
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
one-point result of :func:`point_result` (a rate and its 2x2 amplitude,
``amplitude_farfield``'s or ``amplitude_numeric``'s bit for bit).
It works column by column: the text of every cell (the shortest
round-trip decimal, ``repr``) is rendered once per result
(:attr:`ScanResult.cells`) and shared by the CSV and JSON forms. A column
is complex when any of its cells is, and is then written as paired
``_re`` / ``_im`` columns in both formats. CSV: one header row (axis
first, when there is one), one row per point; non-finite cells read
``nan``, ``inf``, ``-inf``. JSON: byte for byte the ``json.dumps(doc,
indent=2)`` layout of an object with ``schema_version`` and ``metadata``,
then the sweep's ``rows`` list or the single axis-less row inlined;
non-finite cells read ``NaN``, ``Infinity``, ``-Infinity`` as ``json``
writes them. A sweep's ``metadata.config`` echoes the experiment keys as
resolved, in ``_KEYS`` order; its ``pump_z`` is null on a
``crystal_length`` axis, where each row's pump plane is its own slab's
entry face. Text, for axis-less results only: one ``name =
repr(value)`` line per column, complex values whole. Output is
byte-deterministic for identical config text. :func:`run_scan`
evaluates each observable as one column over the whole axis; the kernels
work elementwise, so a cell depends only on its own point (a far-field
cell is the point's own ``amplitude_farfield``, bit for bit, or within
1e-15 on ``crystal_length``), and a sweep fails at the point, and with the
error, where that point's own config fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from .amplitude import (ExperimentConfig, PhaseMatch, _Modes,
                        _numeric_matrices, amplitude_farfield,
                        amplitude_numeric, check_point, farfield_matrices,
                        phase_terms, rate, rates, sinc_profile)
from .greens import Chi2Geometry
from .materials import (BUILTIN_MATERIALS, CrystalSlab, MaterialDispersion,
                        _checked, _noise_factor, kinematics)

__version__ = "0.1.0"

_SCHEMA_VERSION = 1

_AXES = ("n_imag", "crystal_length", "delta_k", "frequency")
_METHODS = ("farfield", "numeric")
# the row-major 2x2 entries
_MATRIX_NAMES = tuple(f"amplitude_{lab}" for lab in ("xx", "xy", "yx", "yy"))

_SCAN = object()    # the default of a scan key: a sweep needs them all

# Every config key: its suffix dimension and its default, in the order the
# JSON metadata echoes the resolved experiment keys (``frequency`` folds
# into the explicit trio; the scan keys are not echoed). A ``word`` stays
# text, a ``list`` is split at commas, a ``count`` is an integer, a scan
# bound takes the dimension of its ``axis``, and anything else is a float.
_KEYS = {
    "material": ("word", "bbo_ordinary"),
    "crystal_length": ("length", 2e-3),
    "pump_frequency": ("frequency", None),
    "signal_frequency": ("frequency", None),
    "idler_frequency": ("frequency", None),
    "conversion": ("word", "I"),
    "coupling": (None, 1e-12),
    "pump_field": (None, 1e5),
    "z_signal": ("length", 1.0), "z_idler": ("length", 1.0),
    "pump_z": ("length", None),
    "offset_x": ("length", 0.0), "offset_y": ("length", 0.0),
    "n_imag": (None, None), "n_imag_pump": (None, None),
    "frequency": ("frequency", 3.54e15),
    "scan_axis": ("word", _SCAN),
    "scan_start": ("axis", _SCAN), "scan_stop": ("axis", _SCAN),
    "scan_count": ("count", _SCAN),
    "observables": ("list", _SCAN),
}

# suffix: (the dimension it marks, its scale to SI)
_SUFFIXES = {"rad/s": ("frequency", 1.0), "nm": ("length", 1e-9),
             "mm": ("length", 1e-3)}

# the name suffix of a material that carries a split-absorption step
_SPLIT_LOSS = "+split-loss"


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
    """Split config text into {key: (value_string, line_number, line)}.

    Columns are worked out only for an error; ``_position`` finds a
    value's from its line.
    """
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        lhs, eq, rhs = line.partition("=")
        key, value = lhs.strip(), rhs.strip()
        if not eq:
            if not key:
                continue    # blank or comment-only
            raise ConfigError("expected 'key = value'", lineno,
                              _column(line))
        if not key:
            raise ConfigError("empty key", lineno, _column(lhs))
        if not value:
            raise ConfigError(f"key '{key}' has no value",
                              *_position((value, lineno, line)))
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}'", lineno, _column(lhs))
        if key in pairs:
            raise ConfigError(f"duplicate key '{key}'", lineno, _column(lhs))
        pairs[key] = (value, lineno, line)
    return pairs


def _column(text):
    """1-based column of the first non-blank character of text."""
    return len(text) - len(text.lstrip()) + 1


def _position(entry):
    """(line, col) of a parsed pair's value, as ConfigError takes them."""
    _, lineno, line = entry
    lhs, _, rhs = line.partition("=")
    return lineno, len(lhs) + 1 + _column(rhs)


def _float(text):
    """float(text), or None where text is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def _parse_quantity(key, value, *, dimension):
    """Parse a float with an optional suffix checked against the dimension.

    Raises ValueError where value is not one; the caller adds its position.
    """
    x, suffix = _float(value), None    # a plain number, the common case
    if x is None:
        number, *suffixes = value.split()
        for glued in () if suffixes else _SUFFIXES:
            # a suffix may follow its number without a space
            if number.endswith(glued) \
                    and _float(number[:-len(glued)]) is not None:
                number, suffixes = number[:-len(glued)], [glued]
                break
        if len(suffixes) > 1:
            raise ValueError(f"key '{key}': expected 'number [suffix]'")
        x = _float(number)
        if x is None:
            raise ValueError(f"key '{key}': '{number}' is not a number")
        suffix = suffixes[0] if suffixes else None
    if not math.isfinite(x):
        raise ValueError(f"key '{key}': value must be finite")
    if suffix is None:
        return x
    if suffix not in _SUFFIXES:
        raise ValueError(f"key '{key}': unknown suffix '{suffix}'")
    marks, scale = _SUFFIXES[suffix]
    if dimension != marks:
        raise ValueError(
            f"key '{key}' is not a {marks}; suffix '{suffix}' rejected")
    return x * scale


def _split_absorption(material, n_low, n_high, high, low):
    """Material with n'' = n_low up to omega = high and n_high from low on.

    The step is pinned by a pair of samples just around the midpoint, so
    linear interpolation is exact at every frequency outside the
    (negligible) transition band; a ValueError says that the band does not
    fit between high and low.
    """
    omega_cut = 0.5 * (high + low)
    eps_w = 1e-9 * omega_cut
    below, above = omega_cut - eps_w, omega_cut + eps_w
    if not high < below < above < low:
        raise ValueError(
            "no absorption step fits between the down-converted modes (up "
            f"to {high!r} rad/s) and the pump (from {low!r} rad/s)")
    table = material.omega.tolist()
    om = [w for w in table if w < below] + [below, above] \
        + [w for w in table if w > above]
    nr = np.interp(om, material.omega, material.n_real)
    ni = [float(n_low) if w < omega_cut else float(n_high) for w in om]
    return MaterialDispersion(om, nr, ni, name=material.name + _SPLIT_LOSS,
                              unbounded=material.unbounded)


def _step_span(axis, start, stop, sig, idl, pump):
    """(high, low): the highest down-converted and the lowest pump frequency
    that an absorption step must separate, over the base point and, on a
    ``frequency`` axis, every point of the sweep."""
    high, low = max(sig, idl), pump
    if axis == "frequency":
        high, low = max(high, stop), min(low, 2.0 * start)
    return high, low


def _absorption_step(material):
    """The (below, above) sample pair of the step that ``_split_absorption``
    put in a material, or None for a material without one."""
    if material.name.endswith(_SPLIT_LOSS):
        ni = material.n_imag.tolist()
        for j in range(len(ni) - 1):
            if ni[j] != ni[j + 1]:
                return float(material.omega[j]), float(material.omega[j + 1])
    return None


def _resolve(text):
    """Read every key of config text, experiment and scan, in one pass.

    Returns the ExperimentConfig and each key's value in table order: a
    scan key not given holds ``_SCAN``; ``frequency`` is folded into the
    trio, which holds the resolved frequencies; ``pump_z`` holds the
    resolved plane, or None on a ``crystal_length`` axis, where each
    point's plane is its own slab's entry face.
    """
    pairs = _parse_pairs(text)
    values = {}
    for key, (dimension, default) in _KEYS.items():
        entry = pairs.get(key)
        if entry is None or dimension == "word":
            values[key] = default if entry is None else entry[0]
        elif dimension == "list":
            values[key] = tuple(filter(None, map(str.strip,
                                                 entry[0].split(","))))
        elif dimension == "count":
            try:
                values[key] = int(entry[0])
            except ValueError:
                raise ConfigError(f"{key}: '{entry[0]}' is not an integer",
                                  *_position(entry)) from None
        else:
            if dimension == "axis":
                dimension = _KEYS.get(values["scan_axis"], (None,))[0]
            try:
                values[key] = _parse_quantity(key, entry[0],
                                              dimension=dimension)
            except ValueError as exc:
                raise ConfigError(str(exc), *_position(entry)) from None

    name = values["material"]
    if name not in BUILTIN_MATERIALS:
        raise ConfigError(f"unknown material '{name}' (have: "
                          + ", ".join(sorted(BUILTIN_MATERIALS)) + ")",
                          *_position(pairs["material"]))
    material = BUILTIN_MATERIALS[name]()

    freq = values.pop("frequency")
    sig, idl = values["signal_frequency"], values["idler_frequency"]
    if "frequency" in pairs and (sig is not None or idl is not None):
        raise ConfigError("give either 'frequency' or the explicit "
                          "signal/idler pair, not both",
                          *_position(pairs["frequency"]))
    if (sig is None) != (idl is None):
        key = "signal_frequency" if sig is not None else "idler_frequency"
        raise ConfigError("signal_frequency and idler_frequency must be "
                          "given together", *_position(pairs[key]))
    if sig is None:
        sig = idl = freq
        values.update(signal_frequency=freq, idler_frequency=freq)
    if values["pump_frequency"] is None:
        values["pump_frequency"] = sig + idl

    n_imag, n_imag_pump = values["n_imag"], values["n_imag_pump"]
    for key in ("n_imag", "n_imag_pump"):
        if values[key] is not None and values[key] < 0.0:
            raise ConfigError(f"{key} must be >= 0", *_position(pairs[key]))
    if n_imag is not None:
        if n_imag_pump is None or n_imag_pump == n_imag:
            material = material.with_absorption(n_imag)
        else:
            # the step lies between the down-converted modes and the pump
            # at every point: on a frequency axis, of the whole sweep
            start, stop = values["scan_start"], values["scan_stop"]
            axis = None if _SCAN in (start, stop) else values["scan_axis"]
            high, low = _step_span(axis, start, stop, sig, idl,
                                   values["pump_frequency"])
            try:
                material = _split_absorption(material, n_imag, n_imag_pump,
                                             high, low)
            except ValueError as exc:
                raise ConfigError(str(exc),
                                  *_position(pairs["n_imag_pump"])) from None
    elif n_imag_pump is not None:
        raise ConfigError("n_imag_pump requires n_imag",
                          *_position(pairs["n_imag_pump"]))

    try:
        cfg = ExperimentConfig(
            crystal=CrystalSlab(material=material,
                                length=values["crystal_length"]),
            chi2=Chi2Geometry(kind=values["conversion"],
                              d=values["coupling"]),
            offset=(values["offset_x"], values["offset_y"]),
            **{key: values[key] for key in (
                "pump_field", "pump_frequency", "signal_frequency",
                "idler_frequency", "z_signal", "z_idler", "pump_z")})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    values["pump_z"] = None if values["scan_axis"] == "crystal_length" \
        else cfg.pump_z
    return cfg, values


def load_config(text):
    """Resolve config text to an :class:`ExperimentConfig`.

    Scan keys are part of the schema: they are parsed here too, so a
    malformed one is rejected with its position, and otherwise ignored;
    anything else unknown is rejected with its position.
    """
    cfg, _ = _resolve(text)
    return cfg


# ---------------------------------------------------------------------------
# Scan requests
# ---------------------------------------------------------------------------

def _check_route(method, tol):
    """Reject an unknown method or a tol that is not finite and > 0."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


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
        if isinstance(self.observables, str):
            raise ValueError("observables must be a sequence of observable "
                             f"names, such as ({self.observables!r},)")
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
        if self.axis == "crystal_length" \
                and self.base.pump_z != -0.5 * self.base.crystal.length:
            raise ValueError(
                "a crystal_length scan puts the pump plane on each slab's "
                f"entry face, -L/2; pump_z = {self.base.pump_z!r} is not "
                f"the base slab's {-0.5 * self.base.crystal.length!r}")
        step = _absorption_step(self.base.crystal.material)
        if step is not None:
            base = self.base
            high, low = _step_span(self.axis, *self.range[:2],
                                   base.signal_frequency,
                                   base.idler_frequency, base.pump_frequency)
            if not (high < step[0] and step[1] < low):
                raise ValueError(
                    f"the absorption step of material "
                    f"{base.crystal.material.name!r} ({step[0]!r} to "
                    f"{step[1]!r} rad/s) does not lie between the "
                    f"down-converted modes (up to {high!r} rad/s) and the "
                    f"pump (from {low!r} rad/s) at every point")


def scan_request_from_config(text, method="farfield", tol=1e-6):
    """Build a :class:`ScanRequest` from config text with scan keys."""
    cfg, values = _resolve(text)
    missing = [key for key, value in values.items() if value is _SCAN]
    if missing:
        raise ConfigError("scan definition incomplete; missing: "
                          + ", ".join(missing))
    echo = {key: value for key, value in values.items()
            if _KEYS[key][1] is not _SCAN}
    try:
        return ScanRequest(base=cfg, axis=values["scan_axis"],
                           range=(values["scan_start"], values["scan_stop"],
                                  values["scan_count"]),
                           observables=values["observables"], method=method,
                           tol=tol, echo=echo)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ScanResult:
    """Evaluated sweep: axis grid, named columns, row-per-point values.

    ``axis`` is None (and ``axis_values`` empty) for a one-point result.
    :attr:`cells` holds the text columns that :func:`emit` writes; it is
    computed on first use and kept, so that each cell is rendered once
    however many formats are emitted.
    """

    axis: str | None
    axis_values: tuple
    columns: tuple
    rows: tuple           # rows[i][j] pairs with columns[j]
    metadata: dict

    @cached_property
    def cells(self):
        """(names, texts): the flat column names, axis first, and per name
        the ``repr`` of its cells, point by point, all in tuples. A column
        with a complex cell is split into ``name_re`` / ``name_im``."""
        names, texts = [], []
        if self.axis is not None:
            names.append(self.axis)
            texts.append(_reprs(self.axis_values))
        values = list(zip(*self.rows)) or repeat(())
        for name, column in zip(self.columns, values):
            if any(map(isinstance, column, repeat(complex))):
                names += [name + "_re", name + "_im"]
                texts += [_reprs(v.real for v in column),
                          _reprs(v.imag for v in column)]
            else:
                names.append(name)
                texts.append(_reprs(column))
        return tuple(names), tuple(texts)


def _reprs(values):
    # through a list: tuple() of a bare map grows its tuple step by step
    return tuple([*map(repr, map(float, values))])


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
    of the material and the slab; a point is not checked again. ``numeric``
    maps (kind, lossless) to the numeric matrices of the leading points,
    kept from a longer sweep over the same points that failed
    (``run_scan``). A far-field cell is its point's own
    ``amplitude_farfield`` (a one-point stack): bit for bit on the
    ``n_imag`` and ``frequency`` axes, within 1e-15 on ``crystal_length``,
    where the prefactor's complex division of the (m,) lengths is numpy's.
    """

    def __init__(self, base, axis, x, method, tol, numeric):
        self.base, self.axis, self.x = base, axis, x
        self.method, self.tol, self.numeric = method, tol, numeric
        self.count = len(x)
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

    def modes(self, lossless=False):
        """The _Modes of the stack."""
        if lossless not in self._modes:
            omegas = (self.omega_s, self.omega_i, self.omega_p)
            self._modes[lossless] = _Modes(
                *omegas, *(self.index(w, lossless) for w in omegas),
                self.length, self.pump_z)
        return self._modes[lossless]

    def amplitude(self, kind, lossless=False):
        """One conversion type's (m, 2, 2) amplitudes, or (1, 2, 2) where
        every point has one config (the lossless ``n_imag`` axis): one
        far-field evaluation over the stack, or one integral per point."""
        key = (kind, lossless)
        if key not in self._amps:
            # the stack first, so that a bad point fails at its own index;
            # cfg is what every point shares: type, drive and detectors
            stack, base = self.modes(lossless), self.base
            chi2 = replace(base.chi2, kind=kind)
            cfg = base if chi2 == base.chi2 else replace(base, chi2=chi2)
            self._amps[key] = farfield_matrices(cfg, stack) \
                if self.method == "farfield" else _numeric_matrices(
                    cfg, stack, self.tol, self.numeric.setdefault(key, []))
        return self._amps[key]


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
    # |a|^2 - 1 cancels about 11 digits at small n'', so the column keeps
    # the rounding of the one-point formula: noise_factor's checks run once
    # on the (point, mode) stack, its core point by point in Python complex
    # arithmetic, once per point where signal and idler share an index.
    n_s, n_i = (np.broadcast_to(sw.index(w), (sw.count,)).tolist()
                for w in (sw.omega_s, sw.omega_i))
    eps = [(s * s, i * i) for s, i in zip(n_s, n_i)]
    try:
        _checked(np.array(eps), "noise_factor")
    except (ZeroDivisionError, ValueError) as exc:
        exc.index //= 2
        raise
    a_s = [_noise_factor(a) for a, _ in eps]
    a_i = a_s if n_s == n_i else [_noise_factor(b) for _, b in eps]
    return [[float(abs(a * b) ** 2 - 1.0) for a, b in zip(a_s, a_i)]]


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
    "amplitude_matrix": (_MATRIX_NAMES, _matrix_columns),
}


def run_scan(req):
    """Evaluate a :class:`ScanRequest` into a :class:`ScanResult`.

    Each observable is one column over all axis points (:class:`_Sweep`),
    in request order. A point fails exactly where its own config would:
    stacked checks raise at the first failing point, and the points before
    it are evaluated again until they all pass, so a failure that an
    earlier check hid is still found first; the numeric amplitudes that a
    failed pass completed are kept, not computed again. Any error aborts
    the sweep and is re-raised as :class:`ScanError`, with the completed
    rows attached.
    """
    start, stop, count = req.range
    axis_values = np.linspace(start, stop, count)
    names = tuple(name for obs in req.observables
                  for name in _OBSERVABLES[obs][0])
    done, error = count, None
    columns = [[] for _ in names]
    numeric = {}
    while done:
        try:
            sweep = _Sweep(req.base, req.axis, axis_values[:done],
                           req.method, req.tol, numeric)
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
    """One amplitude and its rate, as an axis-less :class:`ScanResult`.

    The amplitude is ``amplitude_farfield(cfg)`` or ``amplitude_numeric(cfg,
    tol)`` itself, bit for bit, on cfg as it was checked when built: about
    0.12-0.18 ms in process on the far field (2-core host).
    """
    _check_route(method, tol)
    amp = amplitude_farfield(cfg) if method == "farfield" \
        else amplitude_numeric(cfg, tol)
    return ScanResult(axis=None, axis_values=(),
                      columns=("rate", *_MATRIX_NAMES),
                      rows=((rate(amp), *amp.matrix.ravel().tolist()),),
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

# json.dumps's spelling of the non-finite floats
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(texts):
    if _JSON_NONFINITE.keys().isdisjoint(texts):
        return texts
    return [_JSON_NONFINITE.get(t, t) for t in texts]


def _json(result):
    """The ``json.dumps(doc, indent=2)`` text of the result's document.

    Only the head (``schema_version``, ``metadata``) goes through
    ``json.dumps``; the rows are written from one ``%`` template per row,
    at indent 6 inside the ``rows`` list of a sweep, inlined at indent 2
    after the head for an axis-less result.
    """
    names, texts = result.cells
    inline = result.axis is None
    pad = "  " if inline else "      "
    row = ",\n".join(pad + json.dumps(name).replace("%", "%%") + ": %s"
                     for name in names)
    if not inline:
        row = "    {\n" + row + "\n    }"
    body = ",\n".join(map(row.__mod__, zip(*map(_json_numbers, texts))))
    doc = {"schema_version": _SCHEMA_VERSION, "metadata": result.metadata}
    if not inline:
        doc["rows"] = []
    head = json.dumps(doc, indent=2)
    if not body:
        return head
    if inline:
        # reopen the document's closing "\n}"
        return head[:-2] + ",\n" + body + "\n}"
    # reopen the "[]\n}" of the empty rows list that closes the document
    return head[:-4] + "[\n" + body + "\n  ]\n}"


def emit(result, format="csv"):
    """Serialize a :class:`ScanResult` to bytes (``csv`` or ``json``).

    An axis-less result has no axis column, inlines its one row in the JSON
    document and also takes ``text``: ``name = repr(value)`` per column.
    """
    if format == "text" and result.axis is None:
        (row,) = result.rows
        return "".join(f"{name} = {v!r}\n"
                       for name, v in zip(result.columns, row)).encode()
    if format == "csv":
        names, texts = result.cells
        lines = [",".join(names), *map(",".join, zip(*texts))]
        return ("\n".join(lines) + "\n").encode()
    if format == "json":
        return (_json(result) + "\n").encode()
    raise ValueError(f"format must be csv or json (or text for an axis-less "
                     f"result), got '{format}'")
