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

``frequency`` is the degenerate shorthand, folded into the pair (signal =
idler = frequency); else ``signal_frequency`` and ``idler_frequency`` come
together. The pump's frequency is always their sum and is not a key.
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
``amplitude_matrix``). A bound takes its axis' dimension: an unknown axis
is rejected at ``scan_axis``, a suffixed bound with no axis at the bound.

Axis semantics
--------------
``n_imag`` applies a frequency-flat n'' to every mode (it overrides both
n'' keys); ``crystal_length`` rebuilds the slab; ``frequency`` scans the
degenerate point (signal = idler = x, so the pump is 2x); ``delta_k``
scans the real phase-mismatch half-phase dk L/2 directly and only
supports ``sinc_profile`` (no experiment has a freely dialable mismatch,
so rates are undefined on this axis). The imaginary parts of dk and sk on the
delta_k axis stay pinned to the configured absorption.

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
(:attr:`ScanResult.cells`) and shared by the CSV and JSON forms; a sweep
renders it from its column arrays, a hand-built result from its rows. A
column is complex when any of its cells is (a complex dtype), and is then
written as paired ``_re`` / ``_im`` columns in both formats. CSV: a header
row (axis first, when there is one), one row per point; non-finite cells
(of a hand-built result: a sweep rejects them) read ``nan``, ``inf``,
``-inf``. JSON: byte for byte the ``json.dumps(doc, indent=2)`` layout
of an object with ``schema_version`` and ``metadata``, then the sweep's
``rows`` list or the single axis-less row inlined; non-finite cells read
``NaN``, ``Infinity``, ``-Infinity`` as ``json`` writes them. A sweep's
``metadata.config`` echoes the experiment keys as resolved, in ``_KEYS``
order. Text, for axis-less results only: one ``name = repr(value)`` line
per column, complex values whole. Output is byte-deterministic for
identical config text. :func:`run_scan` evaluates each observable as one
column over the whole axis (a ratio's lossless reference in the same
stack); the kernels work elementwise, so a cell depends only on its own
point (a far-field cell is the point's own ``amplitude_farfield``, bit for
bit, or within 1e-15 on ``crystal_length``), and a sweep fails at the
point, and with the error, where that point's own config fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .amplitude import (Chi2Geometry, ExperimentConfig, PhaseMatch, _engine,
                        _Modes, amplitude_farfield, amplitude_numeric,
                        check_point, farfield_matrices, phase_terms, rate,
                        rates, sinc_profile)
from .materials import (BUILTIN_MATERIALS, CrystalSlab, MaterialDispersion,
                        _checked, _noise_factor, kinematics, reject)

__version__ = "0.1.0"

_SCHEMA_VERSION = 3

_AXES = ("n_imag", "crystal_length", "delta_k", "frequency")
_METHODS = ("farfield", "numeric")
# the row-major 2x2 entries
_MATRIX_NAMES = tuple(f"amplitude_{lab}" for lab in ("xx", "xy", "yx", "yy"))

_SCAN = object()    # the default of a scan key: a sweep needs them all

# Every config key: its suffix dimension and its default, in the order the
# JSON metadata echoes the resolved experiment keys (``frequency`` folds
# into the explicit pair; the scan keys are not echoed). A ``word`` stays
# text, a ``list`` is split at commas, a ``count`` is an integer, a scan
# bound takes the dimension of its ``axis``, and anything else is a float.
_KEYS = {
    "material": ("word", "bbo_ordinary"),
    "crystal_length": ("length", 2e-3),
    "signal_frequency": ("frequency", None),
    "idler_frequency": ("frequency", None),
    "conversion": ("word", "I"),
    "coupling": (None, 1e-12),
    "pump_field": (None, 1e5),
    "z_signal": ("length", 1.0), "z_idler": ("length", 1.0),
    "offset_x": ("length", 0.0), "offset_y": ("length", 0.0),
    "n_imag": (None, None), "n_imag_pump": (None, None),
    "frequency": ("frequency", 3.54e15),
    "scan_axis": ("word", _SCAN),
    "scan_start": ("axis", _SCAN), "scan_stop": ("axis", _SCAN),
    "scan_count": ("count", _SCAN),
    "observables": ("list", _SCAN),
}

# every key's default, in table order
_DEFAULTS = {key: default for key, (_, default) in _KEYS.items()}

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

    def __reduce__(self):
        # the default rebuilds cls(*args) from the message alone; a pickle
        # (a process pool's result) or copy needs the diagnostics too
        return type(self), (*self.args, self.completed, self.__cause__,
                            self.rows, self.columns), self.__dict__


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
        raise ValueError(f"key '{key}' has no scan_axis to give suffix "
                         f"'{suffix}' a dimension" if dimension is _SCAN else
                         f"key '{key}' is not a {marks}; suffix '{suffix}' "
                         "rejected")
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


def _step_span(axis, start, stop, sig, idl):
    """(high, low): the highest down-converted and the lowest pump frequency
    that an absorption step must separate, over the base point and, on a
    ``frequency`` axis, every point of the sweep."""
    high, low = max(sig, idl), sig + idl
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
    signal/idler pair, which holds the resolved frequencies.
    """
    pairs = _parse_pairs(text)
    values = dict(_DEFAULTS)
    # the keys given, in table order: the first bad one is reported
    for key in filter(pairs.__contains__, _KEYS):
        entry, dimension = pairs[key], _KEYS[key][0]
        if dimension == "word":
            values[key] = entry[0]
            if key == "scan_axis" and entry[0] not in _AXES:
                raise ConfigError(f"scan_axis must be one of {_AXES}, got "
                                  f"'{entry[0]}'", *_position(entry))
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
                dimension = _SCAN if values["scan_axis"] is _SCAN \
                    else _KEYS.get(values["scan_axis"], (None,))[0]
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
            high, low = _step_span(axis, start, stop, sig, idl)
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
                "pump_field", "signal_frequency", "idler_frequency",
                "z_signal", "z_idler")})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, values


def load_config(text):
    """Resolve config text to an :class:`ExperimentConfig`.

    Scan keys are part of the schema: they are parsed here too, so a
    malformed one (an unknown axis, a suffixed bound with no axis) is
    rejected with its position, and otherwise ignored; anything else
    unknown is rejected with its position.
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
        step = _absorption_step(self.base.crystal.material)
        if step is not None:
            base = self.base
            high, low = _step_span(self.axis, *self.range[:2],
                                   base.signal_frequency,
                                   base.idler_frequency)
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
    echo, missing = {}, []
    for key, value in values.items():
        if _DEFAULTS[key] is not _SCAN:
            echo[key] = value
        elif value is _SCAN:
            missing.append(key)
    if missing:
        raise ConfigError("scan definition incomplete; missing: "
                          + ", ".join(missing))
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
        with a complex cell is split into ``name_re`` / ``name_im``.
        :func:`run_scan` sets them from its column arrays; a hand-built
        result's come from its rows, one array per column."""
        return _cells(self.axis, self.axis_values, self.columns, map(
            np.array, list(zip(*self.rows)) or [()] * len(self.columns)))


def _cells(axis, axis_values, names, columns):
    """ScanResult.cells of column arrays; a complex dtype marks a column to
    split into its real and imaginary parts."""
    flat, texts = [], []
    named = zip(names, columns)
    if axis is not None:
        named = chain([(axis, np.asarray(axis_values, float))], named)
    for name, column in named:
        split = column.dtype.kind == "c"
        flat += [name + "_re", name + "_im"] if split else [name]
        parts = (column.real, column.imag) if split \
            else (column.astype(float, copy=False),)
        # through a list: tuple() of a bare map grows its tuple step by step
        texts += [tuple([*map(repr, part.tolist())]) for part in parts]
    return tuple(flat), tuple(texts)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class _Sweep:
    """Points [0, m) of a sweep, stacked: the input of every column.

    The axis sets the stacked inputs once: ``n_imag`` puts a frequency-flat
    n'' on every mode, ``crystal_length`` sets the slab, ``frequency`` the
    degenerate pair (x, x). The pump is signal + idler at every point
    (``omegas``). What the axis leaves alone stays a scalar; indices are at
    least (1,) arrays. The stack passes each point's ExperimentConfig
    checks (``check_point``); the ``ScanRequest`` range checks already
    cover those of the material and the slab; a point is not checked
    again. Where a column needs it (``lossless``), the stack goes on with
    the points' lossless reference: r = 1 point on the ``n_imag`` axis,
    where they share it, else r = m; an error at stacked point m + j is
    reported at axis point j. One far-field pass gives both
    conversion types over the whole stack; the numeric route integrates
    its points in turn, reusing those (``numeric``, by type) of a longer
    sweep that failed (``run_scan``). Each piece is made once and kept
    (``_once``): the dispersion of each distinct frequency (the idler's is
    the signal's at a degenerate split), the stack, amplitudes and rates.
    """

    def __init__(self, base, axis, x, method, tol, numeric, lossless):
        self.base, self.axis, self.x = base, axis, x
        self.method, self.tol, self.numeric = method, tol, numeric
        self.count = len(x)
        self.reference = lossless * (1 if axis == "n_imag" else self.count)
        self.length = x if axis == "crystal_length" else base.crystal.length
        sig, idl = (x, x) if axis == "frequency" else (
            base.signal_frequency, base.idler_frequency)
        check_point(self.length, base.pump_field, sig, idl, base.z_signal,
                    base.z_idler, base.offset)
        self.omegas = (sig, idl, sig + idl)
        # the idler's mode: the signal's where they share a frequency (one
        # array on the frequency axis, one number elsewhere)
        self.idler = 0 if idl is sig or (np.ndim(sig) == 0 and idl == sig) \
            else 1
        self.n_imag = x if axis == "n_imag" else None
        self._memo = {}

    def _once(self, key, make):
        """make(), called on the first use of key and kept."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def index(self, mode, lossless=False):
        """Complex indices of mode 0 (signal), 1 (idler) or 2 (pump), an (m,)
        or (1,) array; the lossless and ``n_imag`` axis variants keep the
        real part of the one dispersion evaluation."""
        mode = self.idler if mode == 1 else mode
        n = self._once(("index", mode), lambda: np.atleast_1d(
            self.base.crystal.index(self.omegas[mode])))
        if lossless or self.n_imag is not None:
            n = self._once(("index", mode, lossless), lambda: n.real + 1j * (
                0.0 if lossless else self.n_imag))
        return n

    def fields(self):
        """The _Modes inputs of the stack: the m points, then their
        reference (a scalar is every point's value, the reference's too)."""
        m, r = self.count, self.reference

        def stacked(points, reference):
            if not r or np.ndim(points) == 0:
                return points
            out = np.empty(m + r, np.result_type(points, reference))
            out[:m], out[m:] = points, reference
            return out

        return self._once("fields", lambda: [*map(
            stacked, (*self.omegas[:2], *map(self.index, range(3)),
                      self.length),
            (*self.omegas[:2], *(self.index(j, r > 0) for j in range(3)),
             self.length))])

    def amplitude(self, kind):
        """One conversion type's (m + r, 2, 2) amplitudes over the stack."""
        try:
            if self.method == "farfield":
                return self._once("farfield", lambda: farfield_matrices(
                    self.base, _Modes(*self.fields())))[kind]
            return self._once(kind, lambda: _engine()._numeric_matrices(
                replace(self.base, chi2=Chi2Geometry(kind, self.base.chi2.d)),
                self.fields(), self.tol, self.numeric.setdefault(kind, {})))
        except Exception as exc:
            # stacked point m + j is reference point j, axis point j
            if getattr(exc, "index", 0) >= self.count:
                exc.index -= self.count
            raise

    def rates(self, kind, lossless=False):
        """rates() of one conversion type's points, or of their reference."""
        stack = self._once(("rates", kind), lambda: rates(self.amplitude(kind)))
        return stack[self.count:] if lossless else stack[:self.count]


def _rate_columns(kind):
    def columns(sw):
        return [sw.rates(kind)]
    return columns


def _ratio_columns(sw):
    return [sw.rates(kind) / sw.rates(kind, True) for kind in ("I", "II")]


def _sinc_columns(sw):
    kin_s = kinematics(sw.omegas[0], sw.index(0))
    kin_i = kin_s if sw.idler == 0 else kinematics(sw.omegas[1], sw.index(1))
    pm = phase_terms(kin_s, kin_i, kinematics(sw.omegas[2], sw.index(2)))
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
    n_s, n_i = (np.broadcast_to(sw.index(j), (sw.count,)).tolist()
                for j in (0, 1))
    eps_s = [n * n for n in n_s]
    eps_i = eps_s if n_i == n_s else [n * n for n in n_i]
    try:
        # (point, mode) order: the flat index of a bad eps halves to its point
        _checked(np.array((eps_s, eps_i)).T, "noise_factor")
    except (ZeroDivisionError, ValueError) as exc:
        exc.index //= 2
        raise
    a_s = [*map(_noise_factor, eps_s)]
    a_i = a_s if eps_i is eps_s else [*map(_noise_factor, eps_i)]
    return [[float(abs(a * b) ** 2 - 1.0) for a, b in zip(a_s, a_i)]]


def _matrix_columns(sw):
    matrices = sw.amplitude(sw.base.chi2.kind)[:sw.count]
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
    failed pass completed are kept, not computed again. A cell that is not
    finite (a rate that overflows, a ratio of two that underflow) fails its
    point as a ValueError naming its column. Any error aborts the sweep and
    is re-raised as :class:`ScanError`, with the completed rows attached.
    """
    start, stop, count = req.range
    axis_values = np.linspace(start, stop, count)
    names = tuple(name for obs in req.observables
                  for name in _OBSERVABLES[obs][0])
    lossless = "rate_ratio_to_lossless" in req.observables
    done, error = count, None
    columns = [[] for _ in names]
    numeric = {}
    while done:
        try:
            sweep = _Sweep(req.base, req.axis, axis_values[:done],
                           req.method, req.tol, numeric, lossless)
            # a non-finite cell (a 0/0 ratio, say) fails as its column's
            # error below, with no numpy warning ahead of it
            with np.errstate(divide="ignore", invalid="ignore"):
                cols = [np.broadcast_to(col, (done,))
                        for obs in req.observables
                        for col in _OBSERVABLES[obs][1](sweep)]
            for name, col in zip(names, cols):
                reject(~np.isfinite(col), ValueError,
                       lambda i: f"{name} is not finite: {col[i].item()!r}")
            columns = [col.tolist() for col in cols]
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
    result = ScanResult(axis=req.axis, axis_values=tuple(axis_values.tolist()),
                        columns=names, rows=rows, metadata=metadata)
    # fill the cache of the cached_property from the column arrays
    vars(result)["cells"] = _cells(req.axis, axis_values, names, cols)
    return result


def point_result(cfg, method="farfield", tol=1e-6):
    """One amplitude and its rate, as an axis-less :class:`ScanResult`.

    The amplitude is ``amplitude_farfield(cfg)`` or ``amplitude_numeric(cfg,
    tol)`` itself, bit for bit, on cfg as it was checked when built: about
    0.13-0.17 ms in process on the far field (2-core host).
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
    # a finite float's repr has no "n": one scan of the joined column
    if "n" not in "".join(texts):
        return texts
    return [_JSON_NONFINITE.get(t, t) for t in texts]


def _json(result):
    """The ``json.dumps(doc, indent=2)`` text of the result's document.

    Only the head (``schema_version``, ``metadata``) goes through
    ``json.dumps``; the rows are one join: each cell follows its column's
    key text, and each row ends in one tail, at indent 6 inside the
    ``rows`` list of a sweep, inlined at indent 2 after the head for an
    axis-less result. ``json`` is imported here, by the one format that
    uses it.
    """
    import json

    names, texts = result.cells
    inline = result.axis is None
    keys = [(",\n  " if inline else ",\n      ") + json.dumps(name) + ": "
            for name in names]
    body = ""
    if keys:
        keys[0] = keys[0][2:] if inline else "    {" + keys[0][1:]
        tail = ",\n" if inline else "\n    },\n"
        cells = (x for key, column in zip(keys, map(_json_numbers, texts))
                 for x in (repeat(key), column))
        body = "".join(chain.from_iterable(zip(*cells, repeat(tail))))[:-2]
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
