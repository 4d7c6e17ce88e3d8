"""scipy is loaded only by the Green tensor; the exports resolve.

No amplitude route imports scipy: the far field (``preset``, ``scan``, the
default ``rate``) needs no Bessel function, and the numeric route, collinear
or displaced, computes its Bessel rows in numpy, so a ``slabpdc`` process
does not pay for importing scipy. The Green tensor, the acceptance gate's
oracle, imports ``scipy.special`` on first use, and the displaced numeric
route builds its Bessel tables on first use; either first call must give
the same numbers as any later one. Each test runs a fresh interpreter, since
the test process itself has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import slabpdc
from slabpdc import (C_LIGHT, CrystalSlab, amplitude_numeric, load_config,
                     scattering_green_point, vacuum)

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


def deferred_amplitudes():
    """First numeric amplitudes, collinear and displaced (Bessel tables)."""
    return [amplitude_numeric(load_config(text)).matrix
            for text in (_PATH, _DISPLACED_II, _THIN_DISPLACED_II)]


def deferred_green():
    """First call of the Green tensor, the one route that imports scipy."""
    return scattering_green_point((1e-4, 2e-5, 1.0), (0.0, 0.0, 0.0),
                                  50.0 * C_LIGHT,
                                  CrystalSlab(material=vacuum(), length=2e-3))


def test_farfield_cli_loads_no_scipy(tmp_path):
    (tmp_path / "exp.cfg").write_text("n_imag = 1e-6\n")
    code = """\
import json, sys
import slabpdc, slabpdc.cli as cli
assert cli.main(["preset", "fig4", "--out", "fig4.csv"]) == 0
assert cli.main(["rate", "--config", "exp.cfg", "--out", "rate.txt"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    assert _child(code, tmp_path) == []


def test_numeric_amplitudes_load_no_scipy(tmp_path):
    # Collinear and displaced, on a cut (Type II at 0.1 m) and over the
    # full disc (the thin slab, with and without an offset).
    code = """\
import json, sys
import slabpdc.cli as cli
from slabpdc import amplitude_numeric, load_config
from test_imports import _PATH, _THIN, _DISPLACED_II, _THIN_DISPLACED_II
for text in (_PATH, _THIN, _DISPLACED_II, _THIN_DISPLACED_II):
    amplitude_numeric(load_config(text))
assert cli.main(["preset", "fig5", "--method", "numeric",
                 "--out", "fig5.csv"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    assert _child(code, tmp_path) == []


def test_deferred_routes_match_on_first_call(tmp_path):
    code = """\
import json, sys
import numpy as np
from test_imports import deferred_amplitudes, deferred_green
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
before = scipy_modules()
amps = deferred_amplitudes()
after_amps = scipy_modules()
np.savez("values.npz", *amps, deferred_green())
print(json.dumps({"before": before, "amplitudes": after_amps,
                  "special": "scipy.special" in sys.modules,
                  "optimize": "scipy.optimize" in sys.modules}))
"""
    report = _child(code, tmp_path)
    assert report == {"before": [], "amplitudes": [], "special": True,
                      "optimize": False}
    with np.load(tmp_path / "values.npz") as first:
        got = [first[f"arr_{i}"] for i in range(len(first.files))]
    want = deferred_amplitudes() + [deferred_green()]
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # ``from slabpdc import *`` and nothing else.
    missing = [name for name in slabpdc.__all__ if not hasattr(slabpdc, name)]
    assert missing == []
    assert len(set(slabpdc.__all__)) == len(slabpdc.__all__)
    namespace = {}
    exec("from slabpdc import *", namespace)
    assert set(slabpdc.__all__) <= set(namespace)
