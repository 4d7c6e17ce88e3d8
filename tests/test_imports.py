"""What a slabpdc process loads, and the public surface it loads it through.

The runtime needs numpy alone: no route imports scipy. The far field
(``preset``, ``scan``, the default ``rate``) needs no Bessel function, and
the numeric route, collinear or displaced, and the Green tensor, the
acceptance gate's oracle, take their Bessel rows from one numpy
implementation (``radial._bessel_rows``), whose tables are built on first
use; a first call must give the same numbers as any later one. scipy is a
test dependency only, as a cross-check of those rows.

Nor does a far-field process load the modules it never calls: ``import
slabpdc`` imports no submodule, the numeric engine (``radial``) loads with
the first numeric amplitude, and the Green tensor with its GK15 driver
(``greens``, ``quadrature``) with their first use. The tests of loading run
a fresh interpreter, since the test process itself has long since loaded
every module and scipy.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slabpdc

_SRC = str(Path(slabpdc.__file__).resolve().parent.parent)
_TESTS = str(Path(__file__).resolve().parent)

# Collinear at 100 mm: the steepest-descent head, with no Bessel rows.
_PATH = """\
z_signal = 100 mm
z_idler = 100 mm
"""
# Collinear 0.1 mm slab at 0.15 mm: the full disc, on the path from the axis
# and the ray from grazing, whose nodes are complex too.
_THIN = _PATH.replace("100 mm", "0.15 mm") + "crystal_length = 0.1 mm\n"
# Type II with a displaced detector, so the J2 and J4 angular rows run on
# the complex nodes of the cut paths and, for the thin slab, of the path
# from the axis and the ray from grazing.
_DISPLACED_II = """\
conversion = II
z_signal = 100 mm
z_idler = 100 mm
offset_x = 5000 nm
offset_y = 3000 nm
"""
_THIN_DISPLACED_II = _DISPLACED_II.replace("100 mm", "0.15 mm") \
    + "crystal_length = 0.1 mm\n"


def _child(code, tmp_path):
    """Run ``code`` in a fresh interpreter; return its stdout as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, _TESTS, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# The deferred routes go through the package's names at call time, so that
# importing this module in a child loads none of their modules.
def deferred_amplitudes():
    """First numeric amplitudes, collinear and displaced (Bessel tables)."""
    return [slabpdc.amplitude_numeric(slabpdc.load_config(text)).matrix
            for text in (_PATH, _DISPLACED_II, _THIN_DISPLACED_II)]


def deferred_green():
    """First calls of the Green tensor: the acceptance gate's two on-axis
    points (q z = 50 and 200 at 1 m) and one off axis."""
    slab = slabpdc.CrystalSlab(material=slabpdc.vacuum(), length=2e-3)
    return [slabpdc.scattering_green_point(r_d, (0.0, 0.0, 0.0),
                                           q * slabpdc.C_LIGHT, slab)
            for r_d, q in (((0.0, 0.0, 1.0), 50.0), ((0.0, 0.0, 1.0), 200.0),
                           ((1e-4, 2e-5, 1.0), 50.0))]


def test_import_loads_no_submodule(tmp_path):
    code = """\
import sys
import slabpdc
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "slabpdc")
import json
print(json.dumps(loaded))
"""
    assert _child(code, tmp_path) == ["slabpdc"]


def test_farfield_cli_loads_only_its_modules(tmp_path):
    # Not the numeric engine, the Green tensor and its quadrature, or json:
    # csv and text output do not use it.
    (tmp_path / "exp.cfg").write_text("n_imag = 1e-6\n")
    code = """\
import sys
import slabpdc.cli as cli
assert cli.main(["preset", "fig4", "--out", "fig4.csv"]) == 0
assert cli.main(["rate", "--config", "exp.cfg", "--out", "rate.txt"]) == 0
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("slabpdc", "json"))
import json
print(json.dumps(loaded))
"""
    assert _child(code, tmp_path) == ["slabpdc", "slabpdc.amplitude",
                                      "slabpdc.cli", "slabpdc.materials",
                                      "slabpdc.scan"]


def test_no_route_loads_scipy(tmp_path):
    # With scipy blocked, so that any import of it raises: the far-field
    # CLI, numeric amplitudes collinear and displaced, on a cut (Type II at
    # 0.1 m) and over the full disc (the thin slab, with and without an
    # offset), a numeric preset, and the Green tensor on and off axis.
    (tmp_path / "exp.cfg").write_text("n_imag = 1e-6\n")
    code = """\
import json, sys
sys.modules["scipy"] = None
import slabpdc.cli as cli
from slabpdc import amplitude_numeric, load_config
from test_imports import (_PATH, _THIN, _DISPLACED_II, _THIN_DISPLACED_II,
                          deferred_green)
assert cli.main(["preset", "fig4", "--out", "fig4.csv"]) == 0
assert cli.main(["rate", "--config", "exp.cfg", "--out", "rate.txt"]) == 0
for text in (_PATH, _THIN, _DISPLACED_II, _THIN_DISPLACED_II):
    amplitude_numeric(load_config(text))
assert cli.main(["preset", "fig5", "--method", "numeric",
                 "--out", "fig5.csv"]) == 0
deferred_green()
print(json.dumps({m: repr(sys.modules[m]) for m in sys.modules
                  if m.split(".")[0] == "scipy"}))
"""
    assert _child(code, tmp_path) == {"scipy": "None"}


def test_deferred_routes_match_on_first_call(tmp_path):
    # Each stage reports the slabpdc submodules and the scipy packages
    # loaded so far, none at any stage. The first calls load their modules;
    # the second calls, in the same process, and those of this process give
    # the same numbers.
    code = """\
import json, sys
import numpy as np
from test_imports import deferred_amplitudes, deferred_green
def stage():
    return {"slabpdc": sorted(m for m in sys.modules
                              if m.startswith("slabpdc.")),
            "scipy": [m for m in ("scipy", "scipy.special", "scipy.optimize")
                      if m in sys.modules]}
report = [stage()]
amps = deferred_amplitudes()
report.append(stage())
green = deferred_green()
report.append(stage())
np.savez("values.npz", *amps, *green, *deferred_amplitudes(),
         *deferred_green())
print(json.dumps(report))
"""
    report = _child(code, tmp_path)
    numeric = ["slabpdc.amplitude", "slabpdc.materials", "slabpdc.radial",
               "slabpdc.scan"]
    assert report == [
        {"slabpdc": [], "scipy": []},
        {"slabpdc": numeric, "scipy": []},
        {"slabpdc": sorted(numeric + ["slabpdc.greens", "slabpdc.quadrature"]),
         "scipy": []},
    ]
    with np.load(tmp_path / "values.npz") as saved:
        got = [saved[f"arr_{i}"] for i in range(len(saved.files))]
    want = deferred_amplitudes() + deferred_green()
    first, second = got[:len(want)], got[len(want):]
    for f, s, w in zip(first, second, want, strict=True):
        assert np.array_equal(f, s)
        assert np.array_equal(f, w)


def test_every_export_resolves(tmp_path):
    # A name left in __all__ after its definition is deleted breaks
    # ``from slabpdc import *`` and nothing else.
    missing = [name for name in slabpdc.__all__ if not hasattr(slabpdc, name)]
    assert missing == []
    assert len(set(slabpdc.__all__)) == len(slabpdc.__all__)
    namespace = {}
    exec("from slabpdc import *", namespace)
    assert set(slabpdc.__all__) <= set(namespace)
    # In a fresh process: dir() lists every export before any resolves, and
    # each submodule is an attribute of the package before it is imported,
    # in an order that reaches each one before a later one imports it.
    code = """\
import sys
import slabpdc
names = sorted(set(slabpdc.__all__) - set(dir(slabpdc)))
modules = []
for name in ("materials", "quadrature", "amplitude", "radial", "greens",
             "scan", "cli"):
    key = "slabpdc." + name
    fresh = key not in sys.modules
    modules.append([name, fresh, getattr(slabpdc, name) is sys.modules[key]])
import json
print(json.dumps({"undirected": names, "modules": modules}))
"""
    report = _child(code, tmp_path)
    assert report["undirected"] == []
    assert [fresh and same for _, fresh, same in report["modules"]] \
        == [True] * 7
    with pytest.raises(AttributeError, match="no attribute 'radiall'"):
        slabpdc.radiall


def test_reexported_names_are_one_object():
    # Every import path of a moved class gives the same class, so that an
    # ``except`` clause or an isinstance check through any of them holds.
    from slabpdc import amplitude, cli, greens, materials, quadrature, scan
    assert quadrature.ConvergenceError is materials.ConvergenceError \
        is cli.ConvergenceError is slabpdc.ConvergenceError
    assert greens.Chi2Geometry is amplitude.Chi2Geometry \
        is scan.Chi2Geometry is slabpdc.Chi2Geometry


def test_experiment_config_survives_pickle():
    # A process pool sends configs to its workers: the copy gives the same
    # amplitudes bit for bit, and its dispersion tables stay read-only.
    for text in ("conversion = II\nn_imag = 1e-6\n",
                 "n_imag = 1e-6\nz_signal = 0.1\nz_idler = 0.1\n"
                 "offset_x = 2e-5\n"):
        cfg = slabpdc.load_config(text)
        back = pickle.loads(pickle.dumps(cfg))
        assert back is not cfg
        assert back.offset == cfg.offset and back.chi2 == cfg.chi2
        for name in ("omega", "n_real", "n_imag"):
            table = getattr(back.crystal.material, name)
            assert np.array_equal(table, getattr(cfg.crystal.material, name))
            assert not table.flags.writeable
        assert np.array_equal(slabpdc.amplitude_numeric(back).matrix,
                              slabpdc.amplitude_numeric(cfg).matrix)
        if cfg.collinear:
            assert np.array_equal(slabpdc.amplitude_farfield(back).matrix,
                                  slabpdc.amplitude_farfield(cfg).matrix)


def _refused_scan():
    """The ScanError of a numeric sweep whose third point is refused."""
    text = """\
n_imag = 1e-6
scan_axis = crystal_length
scan_start = 0.5 mm
scan_stop = 3 mm
scan_count = 6
observables = amplitude_matrix
"""
    request = slabpdc.scan_request_from_config(text, method="numeric",
                                               tol=5e-11)
    with pytest.raises(slabpdc.ScanError) as info:
        slabpdc.run_scan(request)
    return info.value


@pytest.mark.parametrize("clone", [
    lambda exc: pickle.loads(pickle.dumps(exc)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_errors_cross_a_process_boundary(clone):
    # A pool returns a worker's exception pickled: message, value, error
    # and the sweep's diagnostics all come back, and every import path of
    # ConvergenceError still catches the copy.
    from slabpdc import cli, materials, quadrature, scan
    exc = slabpdc.ConvergenceError("contour refused", 1.5 + 2j, 3e-9)
    exc.index = 4
    back = clone(exc)
    assert type(back) is slabpdc.ConvergenceError
    assert (str(back), back.args, back.value, back.error, back.index) \
        == ("contour refused", ("contour refused",), 1.5 + 2j, 3e-9, 4)
    for module in (slabpdc, materials, quadrature, cli):
        with pytest.raises(module.ConvergenceError):
            raise back

    error = _refused_scan()
    back = clone(error)
    assert type(back) is scan.ScanError
    assert str(back) == str(error)
    assert back.completed == error.completed == 2
    assert back.columns == error.columns
    assert len(back.rows) == len(error.rows) == 2
    for got, want in zip(back.rows, error.rows, strict=True):
        assert np.array_equal(np.asarray(got), np.asarray(want))
    cause = back.__cause__
    assert type(cause) is slabpdc.ConvergenceError
    assert str(cause) == str(error.__cause__)
    assert "rounding floor" in str(cause)
    assert np.array_equal(cause.value, error.__cause__.value)
    assert cause.error == error.__cause__.error
    assert cause.index == error.__cause__.index == 2
