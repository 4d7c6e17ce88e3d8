"""Spans around the calls one slabpdc module makes into another.

The tracer rebinds module attributes at run time (``slabpdc.amplitude.
kinematics``, ``slabpdc.scan.amplitude_numeric``, ...) to wrappers that
record a span per call: name, start, end, parent span and op id. Nothing
under ``src/`` changes; a wrapped name the library no longer has is listed
in ``missing`` and skipped. Spans stay in memory, in flat arrays, until
``save`` writes them out. Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import dataclasses
from array import array
from time import perf_counter

import numpy as np

NUMERIC = "amplitude.numeric"


def config_key(obj):
    """Hashable value of a config: dataclass fields, arrays by their bytes."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            config_key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return tuple(config_key(v) for v in obj)
    return obj


class Tracer:
    """Span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack = []
        self.counts = dict.fromkeys(
            ("materials.kinematics.nodes", "amplitude.numeric.nodes",
             "amplitude.numeric.head_attempts",
             "amplitude.numeric.head_attempts_max",
             "amplitude.numeric.convergence_errors",
             "quadrature.integrate_angular.samples", "scan.emit.bytes",
             "scan.amplitude_requests", "scan.amplitude_repeats"), 0)
        self._seen = set()
        self._heads = []
        self.missing = []
        self._restore = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def inside(self, name):
        nid = self._ids.get(name)
        return nid is not None and any(self.name[i] == nid
                                       for i in self._stack)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr, name, before=None, after=None,
             failed=None):
        """Rebind module.attr to a recording wrapper.

        ``before(args, kwargs)`` may return replacement args; ``after`` sees
        the result and ``failed`` the exception, which is always re-raised.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs) or args
            idx = self.begin(name)
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                self.finish(idx)
                if failed is not None:
                    failed(exc)
                raise
            self.finish(idx)
            if after is not None:
                after(out)
            return out

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    def count_only(self, module, attr, counter):
        """Rebind module.attr to a wrapper that only bumps a counter."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def counted(*args, **kwargs):
            self.counts[counter] += 1
            if self._heads:
                self._heads[-1] += 1
            return orig(*args, **kwargs)

        setattr(module, attr, counted)
        self._restore.append((module, attr, orig))

    def install(self, slabpdc):
        """Wrap every cross-module call of the benchmarked layers."""
        materials, amplitude = slabpdc.materials, slabpdc.amplitude
        scan, cli = slabpdc.scan, slabpdc.cli
        counts = self.counts

        def kinematics_nodes(args, kwargs):
            k_perp = args[2] if len(args) > 2 else kwargs.get("k_perp")
            size = 1 if k_perp is None else int(np.size(k_perp[0]))
            counts["materials.kinematics.nodes"] += size
            if k_perp is not None and np.ndim(k_perp[0]) > 0 \
                    and self.inside(NUMERIC):
                counts["amplitude.numeric.nodes"] += size

        def request(extra):
            def before(args, kwargs):
                counts["scan.amplitude_requests"] += 1
                key = (config_key(args[0]), extra(args, kwargs))
                if key in self._seen:
                    counts["scan.amplitude_repeats"] += 1
                self._seen.add(key)
                if extra is numeric_tol:
                    self._heads.append(0)
            return before

        def numeric_tol(args, kwargs):
            return args[1] if len(args) > 1 else kwargs.get("tol", 1e-6)

        def numeric_done(_=None):
            heads = self._heads.pop()
            counts["amplitude.numeric.head_attempts_max"] = max(
                counts["amplitude.numeric.head_attempts_max"], heads)

        def numeric_failed(exc):
            numeric_done()
            if type(exc).__name__ == "ConvergenceError":
                counts["amplitude.numeric.convergence_errors"] += 1

        def angular_samples(args, kwargs):
            f = args[0]

            def counted(phi):
                counts["quadrature.integrate_angular.samples"] += len(phi)
                return f(phi)
            return (counted,) + tuple(args[1:])

        def emitted(data):
            counts["scan.emit.bytes"] += len(data)

        numeric = dict(before=request(numeric_tol), after=numeric_done,
                       failed=numeric_failed)
        farfield = dict(before=request(lambda a, k: "farfield"))
        for mod in (amplitude, scan):
            self.wrap(mod, "kinematics", "materials.kinematics",
                      before=kinematics_nodes)
        self.wrap(amplitude, "fresnel", "materials.fresnel")
        self.wrap(amplitude, "x_factor", "amplitude.x_factor")
        self.wrap(materials, "dispersion_eval", "materials.dispersion_eval")
        self.wrap(amplitude, "integrate_angular",
                  "quadrature.integrate_angular", before=angular_samples)
        self.count_only(amplitude, "brentq",
                        "amplitude.numeric.head_attempts")
        for mod in (amplitude, scan, cli):
            self.wrap(mod, "amplitude_numeric", NUMERIC, **numeric)
        for mod in (scan, cli):
            self.wrap(mod, "amplitude_farfield", "amplitude.farfield",
                      **farfield)
            self.wrap(mod, "run_scan", "scan.run_scan")
            self.wrap(mod, "emit", "scan.emit", after=emitted)
        for attr in ("load_config", "scan_request_from_config", "preset"):
            for mod in (scan, cli):
                self.wrap(mod, attr, "scan.load_config")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def per_name(self):
        """{name: (calls, total seconds, self seconds)}.

        The total counts only the outermost span of a name, so that a
        wrapped function reached through another (``preset`` calling
        ``scan_request_from_config``) is not counted twice.
        """
        if not self.names:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        outer = ~has | (name[np.maximum(parent, 0)] != name)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur * outer, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int64))
