"""Workloads of the slabpdc benchmark: inputs, ops and output checks.

Every input is config text built from a parameter dict. Each workload's pass
is a fixed list of strata; a stratum fixes what sets an op's route and cost
(conversion type, degeneracy, loss kind, detector distance, offset band) and
jitters the rest over a narrow range, so that every seed runs the same mix.
``draw_candidates`` draws candidate dicts per stratum with a fixed pool seed;
``make_reference.py`` keeps those that take their stratum's route and have a
converged reference, and stores them in ``reference.json`` with the
reference outputs and the rejected candidates. A run's ``--seed`` shuffles
each stratum's pool and draws the run's ops from it, so the same seed gives
the same ops and every op has a frozen reference. Entries are drawn without
replacement; a stratum that runs out starts over on a fresh shuffle. Each
op also gets its own drive: ``pump_field`` times a drawn factor and
``coupling`` divided by it. The amplitude depends only on their product, so
the outputs and the references stay as they were (to rounding), while no
two ops of a run share their config text.

An op is one ``run_scan`` plus CSV and JSON ``emit`` in the sweep workloads
and one ``amplitude_numeric`` call in the point workloads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

POOL_SEED = 1012_0771
OMEGA = 3.54e15             # degenerate signal/idler frequency [rad/s]
OP_TOL = 1e-6               # tolerance every numeric op asks for
UNREACHABLE_TOL = 1e-8      # hard_radial's request that exhausts its budget
# Reference tolerances, tightest first; the first that converges is used.
REF_LADDER = (1e-8, 3e-8, 1e-7)
FARFIELD_RTOL = 1e-10       # far-field outputs vs the frozen seed output

WORKLOADS = ("sweep_farfield", "points_numeric", "sweep_numeric",
             "hard_radial")

# Far-field presets fig3-fig6 with their scan ranges jittered. Lengths are in
# meters, so the text needs no suffixes.
FARFIELD = {
    "fig3": dict(head="crystal_length = 0.002\nfrequency = 3.54e15\n"
                      "n_imag = 2e-6\nn_imag_pump = 1.2e-5\n"
                      "scan_axis = delta_k\n",
                 start=(0.04, 0.06), stop=(12.0, 13.2), count=400,
                 observables="sinc_profile"),
    "fig4": dict(head="crystal_length = 0.002\nfrequency = 3.54e15\n"
                      "scan_axis = n_imag\n",
                 start=(0.0, 0.0), stop=(0.9e-3, 1.1e-3), count=200,
                 observables="a_factor_gain"),
    "fig5": dict(head="crystal_length = 0.002\nfrequency = 3.54e15\n"
                      "scan_axis = n_imag\n",
                 start=(0.0, 0.0), stop=(0.9e-5, 1.1e-5), count=20,
                 observables="rate_ratio_to_lossless"),
    "fig6": dict(head="crystal_length = 0.002\nfrequency = 3.54e15\n"
                      "n_imag = 1e-6\nscan_axis = crystal_length\n",
                 start=(1.88e-3, 1.92e-3), stop=(2.08e-3, 2.12e-3),
                 count=400,
                 observables="rate_I, rate_II, rate_ratio_to_lossless"),
}

# The CLI processes timed for cli_s; their outputs are checked too.
CLI_RATE_TEXT = "conversion = II\nn_imag = 1e-6\n"
CLI_PRESET = "fig4"

# Collinear strata: conversion, non-degenerate split, loss, z [m]. Together
# they cover Type I and II, degenerate and not, z from 1 cm to 1 m, and
# lossless, uniform and split absorption.
COLLINEAR = (("I", False, "none", 1.0), ("II", False, "uniform", 0.3),
             ("I", True, "split", 0.1), ("II", True, "none", 0.03),
             ("I", False, "split", 0.01), ("II", True, "split", 0.05))
# Displaced strata: conversion, offset [m], at z ~ 0.1 m. The angular average
# needs more samples as the offset grows.
DISPLACED = (("I", 1e-6), ("II", 8e-6), ("I", 2e-5))
# sweep_numeric strata: detector distance [m] of a two-point n_imag sweep.
SCANS = (0.12, 0.5, 0.9)
# hard_radial thin-slab strata: conversion, detector distance [m].
THIN = (("I", 1.2e-4), ("II", 1.5e-4), ("I", 1.8e-4))

# One pass per workload, light strata first. A timed run repeats its
# workload's pass until --seconds are up. BENCHMARK.json lists the first
# two workloads; sweep_numeric and hard_radial run the same way by hand
# (their passes take 8 and 21 s, too long for steady figures in one run).
PASSES = {
    "sweep_farfield": ("fig4", "fig4", "fig5", "fig5", "fig3", "fig3",
                       "fig6"),
    "points_numeric": tuple(f"collinear{k}" for k in range(len(COLLINEAR)))
    + tuple(f"thin{k}" for k in range(len(THIN)))
    + tuple(f"displaced{k}" for k in range(len(DISPLACED))),
    "sweep_numeric": tuple(f"scan{k}" for k in range(len(SCANS))),
    "hard_radial": tuple(f"thin{k}" for k in range(len(THIN)))
    + ("escalation", "unreachable"),
}
# Seconds one pass takes at the seed on two cores. They set the fixed pass
# count of a traced run and the configs a set-up probe resolves, so that
# every commit does the same there.
PASS_S = {"sweep_farfield": 0.45, "points_numeric": 11.5,
          "sweep_numeric": 8.0, "hard_radial": 21.0}
# Defaults of the config keys an op's drive rescales.
DRIVE = {"pump_field": 1e5, "coupling": 1e-12}

# Entries kept per stratum: far-field presets repeat within a pass and across
# passes; a numeric stratum needs two distinct entries for a traced run.
POOL_SIZES = dict({name: 32 for name in FARFIELD},
                  **{name: 3 for names in PASSES.values() for name in names
                     if name not in FARFIELD})


def is_scan(stratum):
    """True for strata whose op is a scan (far-field or numeric)."""
    return stratum in FARFIELD or stratum.startswith("scan")


def route(stratum):
    """(head searches per amplitude, max integrand nodes per amplitude).

    The route a numeric stratum must take at its own tolerance: one head
    search on the seed partition (about 21k nodes), none for the full-range
    thin slabs, two for the escalation; the unreachable request must raise.
    """
    if stratum.startswith("thin"):
        return 0, 200_000
    if stratum in ("escalation", "unreachable"):
        return (2 if stratum == "escalation" else 1), None
    return 1, 60_000


# ---------------------------------------------------------------------------
# Config text
# ---------------------------------------------------------------------------

def config_text(params):
    """key = value lines; floats use repr so the text round-trips exactly."""
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in params.items())


def point_text(entry):
    """Config text of a point op: its config with its drive, if any."""
    return config_text({**entry["config"], **entry.get("drive", {})})


def scan_text(entry):
    spec = FARFIELD.get(entry.get("preset"))
    if spec is not None:
        head, count, obs = spec["head"], spec["count"], spec["observables"]
        head += config_text(entry.get("drive", {}))
    else:
        head, count, obs = point_text(entry), 2, "rate_ratio_to_lossless"
        head += "scan_axis = n_imag\n"
    return (f"{head}scan_start = {entry['start']!r}\n"
            f"scan_stop = {entry['stop']!r}\nscan_count = {count}\n"
            f"observables = {obs}\n")


# ---------------------------------------------------------------------------
# Candidates, drawn once
# ---------------------------------------------------------------------------

def _near(rng, center, rel=0.05):
    return center * rng.uniform(1.0 - rel, 1.0 + rel)


def _amplitude_scale(rng):
    """Drive and coupling: they scale the amplitude and leave the quadrature,
    its route and its cost unchanged."""
    return {"pump_field": rng.uniform(0.5e5, 2e5),
            "coupling": rng.uniform(0.5e-12, 2e-12)}


def _farfield(rng, name):
    spec = FARFIELD[name]
    return {"preset": name, "start": rng.uniform(*spec["start"]),
            "stop": rng.uniform(*spec["stop"])}


def _scan(rng, z):
    z = _near(rng, z)
    return {"config": {"conversion": "I", "z_signal": z, "z_idler": z},
            "start": 0.0, "stop": rng.uniform(0.5e-5, 1.5e-5), "tol": OP_TOL}


def _collinear(rng, spec):
    kind, split, loss, z = spec
    p = {"conversion": kind}
    if split:
        eps = rng.uniform(0.03, 0.06)
        p["signal_frequency"] = OMEGA * (1.0 - eps)
        p["idler_frequency"] = OMEGA * (1.0 + eps)
    # Equal distances: at z ~ 1 cm, z_signal = 9.8 mm with z_idler = 10.3 mm
    # already fails the tail closure (ConvergenceError after 10 s).
    p["z_signal"] = p["z_idler"] = _near(rng, z)
    if loss == "uniform":
        p["n_imag"] = rng.uniform(1e-6, 1e-5)
    elif loss == "split":
        p["n_imag"] = rng.uniform(1e-6, 5e-6)
        p["n_imag_pump"] = rng.uniform(6e-6, 2e-5)
    return p


def _displaced(rng, spec):
    kind, offset = spec
    z = _near(rng, 0.1, 0.01)
    radius = _near(rng, offset)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return {"conversion": kind, "z_signal": z, "z_idler": z,
            "offset_x": radius * math.cos(angle),
            "offset_y": radius * math.sin(angle)}


def _thin(rng, spec):
    """L = 0.1 mm slab, detectors 0.11-0.19 mm out: the full-range route."""
    kind, z = spec
    z = _near(rng, z)
    return {"crystal_length": 1e-4, "conversion": kind, "z_signal": z,
            "z_idler": z, "n_imag": rng.uniform(0.0, 1e-5)}


# The hard requests keep their geometry fixed: near these points the route
# and the cost change with z (one draw of z in 0.095-0.105 m converges at
# 1e-8 in under a second), so only the amplitude scale is drawn.

def _escalation(rng):
    """2 mm slab, detectors 1.2 mm out: 512 -> 2048 -> full range."""
    return {"z_signal": 1.2e-3, "z_idler": 1.2e-3, **_amplitude_scale(rng)}


def _unreachable(rng):
    """tol = 1e-8 at z = 0.1 m: exhausts the panel budget at the seed."""
    return {"z_signal": 0.1, "z_idler": 0.1, **_amplitude_scale(rng)}


def _point(make, spec=None, tol=OP_TOL):
    if spec is None:
        return lambda rng: {"config": make(rng), "tol": tol}
    return lambda rng: {"config": make(rng, spec), "tol": tol}


# Candidate maker per stratum.
MAKERS = {
    **{name: partial(_farfield, name=name) for name in FARFIELD},
    **{f"scan{k}": partial(_scan, z=z) for k, z in enumerate(SCANS)},
    **{f"collinear{k}": _point(_collinear, s)
       for k, s in enumerate(COLLINEAR)},
    **{f"displaced{k}": _point(_displaced, s)
       for k, s in enumerate(DISPLACED)},
    **{f"thin{k}": _point(_thin, s) for k, s in enumerate(THIN)},
    "escalation": _point(_escalation),
    "unreachable": _point(_unreachable, tol=UNREACHABLE_TOL),
}


def draw_candidates(seed=POOL_SEED):
    """Candidate entries per stratum, 1.5x the pool size.

    Each stratum has its own random stream, so changing one leaves the
    others' candidates as they were.
    """
    pools = {}
    for name, size in POOL_SIZES.items():
        rng = random.Random(f"{seed}:{name}")
        pools[name] = [MAKERS[name](rng)
                       for _ in range(size + (size + 1) // 2)]
    return pools


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def with_drive(entry, factor):
    """The entry with pump_field times factor and coupling over factor."""
    base = {key: entry.get("config", {}).get(key, value)
            for key, value in DRIVE.items()}
    return dict(entry, drive={"pump_field": base["pump_field"] * factor,
                              "coupling": base["coupling"] / factor})


def op_stream(workload, seed, pools):
    """Endless passes of the workload: lists of (class, pool entry) ops.

    The same seed gives the same passes. Entries come from each stratum's
    pool without replacement, and each op gets a drive of its own.
    """
    rng = random.Random(f"{workload}:{seed}")
    decks = {}

    def take(cls):
        deck = decks.setdefault(cls, [])
        if not deck:
            deck.extend(rng.sample(pools[cls], len(pools[cls])))
        return with_drive(deck.pop(), rng.uniform(0.5, 2.0))

    while True:
        yield [(cls, take(cls)) for cls in PASSES[workload]]


def draw_ops(workload, seed, pools, passes, halves=1, max_ops=None):
    """The run's op lists: ``halves`` lists of ``passes`` passes each.

    A traced run asks for two halves, one timed without and one with
    tracing, drawn from the same stream.
    """
    stream = op_stream(workload, seed, pools)
    lists = []
    for _ in range(halves):
        ops = [op for _ in range(passes) for op in next(stream)]
        lists.append(ops[:max_ops] if max_ops else ops)
    return lists


def pass_count(workload, seconds):
    """Passes a run of ``seconds`` holds at the seed's speed."""
    return max(1, round(seconds / PASS_S[workload]))


# ---------------------------------------------------------------------------
# Outputs and checks
# ---------------------------------------------------------------------------

def csv_columns(data):
    """(header, columns of floats) from CSV bytes."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = rows[0], rows[1:]
    return header, [[float(r[j]) for r in body] for j in range(len(header))]


def digest(data):
    """Compact fingerprint of a far-field CSV, compared with a tolerance."""
    header, cols = csv_columns(data)
    out = {"header": header, "rows": len(cols[0]), "columns": []}
    for col in cols:
        n = len(col)
        out["columns"].append([math.fsum(col), math.fsum(map(abs, col)),
                               col[0], col[n // 2], col[-1], min(col),
                               max(col)])
    return out


def digest_matches(data, ref, rtol=FARFIELD_RTOL):
    got = digest(data)
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        return False
    for mine, theirs in zip(got["columns"], ref["columns"]):
        scale = max(abs(v) for v in theirs) or 1.0
        if any(abs(a - b) > rtol * scale for a, b in zip(mine, theirs)):
            return False
    return True


def json_matches_csv(doc_bytes, csv_bytes):
    """The JSON rows carry the same names and values as the CSV rows."""
    header, cols = csv_columns(csv_bytes)
    rows = json.loads(doc_bytes)["rows"]
    if len(rows) != len(cols[0]):
        return False
    return all(list(row) == header
               and all(row[h] == cols[j][i] for j, h in enumerate(header))
               for i, row in enumerate(rows))


def matrix_from(pairs):
    return [complex(re, im) for re, im in pairs]


def matrix_pairs(values):
    return [[v.real, v.imag] for v in map(complex, values)]


def relative_deviation(got, ref):
    """Frobenius-norm deviation of two flat complex matrices."""
    diff = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(got, ref)))
    norm = math.sqrt(sum(abs(b) ** 2 for b in ref))
    return diff / norm


def ratio_rows(csv_bytes):
    """{column: values} for the ratio columns of a numeric sweep."""
    header, cols = csv_columns(csv_bytes)
    return {h: c for h, c in zip(header, cols) if h.startswith("rate_ratio")}
