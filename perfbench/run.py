"""The slabpdc benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload points_numeric --seed 1 \
        --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each op starts when the previous one has finished. ``--trace 0`` repeats
the workload's pass until ``--seconds`` are up, with the set-up probes and
the CLI processes spread over the run, and reports the end-to-end metrics,
every duration scaled to a reference host speed (speed.py).
``--trace 1`` runs a fixed op list twice, untraced and then traced, and
reports per-layer counts and self times plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details of the run (environment, per-op latencies, failures, the trace) go
to ``.perfbench_out/``. See NOTES.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child process.
_THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")}
os.environ.update(_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads as wl  # noqa: E402
from speed import (PROCESS_REFERENCE_S, REFERENCE_S, calibrate,  # noqa: E402
                   calibrate_process)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE_ROUNDS = 5          # rounds of a set-up probe and the two commands
MIN_PASSES = 2            # passes a timed run makes however long they take
CLI_TIMEOUT_S = 60


def _child_env():
    env = dict(os.environ, **_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None,
                   help="run one pass cut to its first N ops and one "
                        "probe round (used by selftest.py)")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import slabpdc from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import slabpdc
    import slabpdc.cli  # noqa: F401
    if Path(slabpdc.__file__).resolve().parent != SRC / "slabpdc":
        raise ImportError(f"slabpdc imported from {slabpdc.__file__}")
    return slabpdc


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def prepare(slabpdc, cls, entry):
    """Resolve an op's config text: part of set-up, not of the op."""
    if cls in wl.FARFIELD:
        return slabpdc.scan.scan_request_from_config(wl.scan_text(entry))
    if wl.is_scan(cls):
        return slabpdc.scan.scan_request_from_config(
            wl.scan_text(entry), method="numeric", tol=entry["tol"])
    return slabpdc.scan.load_config(wl.point_text(entry))


def execute(slabpdc, cls, entry, resolved):
    if wl.is_scan(cls):
        result = slabpdc.scan.run_scan(resolved)
        return (slabpdc.scan.emit(result, format="csv"),
                slabpdc.scan.emit(result, format="json"))
    return slabpdc.amplitude.amplitude_numeric(resolved, tol=entry["tol"])


def check(slabpdc, cls, entry, out, error):
    """True when the op's output matches its reference.

    A numeric result may miss the reference by its own tolerance plus the
    reference's (``ref_tol``, at least 10x tighter).
    """
    if error is not None:
        # The unreachable request raises at the seed. The best value it
        # carries is not checked: it lacks the tail and the reference phase.
        return cls == "unreachable" \
            and isinstance(error, slabpdc.ConvergenceError)
    if wl.is_scan(cls):
        csv_bytes, json_bytes = out
        if not wl.json_matches_csv(json_bytes, csv_bytes):
            return False
        if cls in wl.FARFIELD:
            return wl.digest_matches(csv_bytes, entry["digest"])
        got = wl.ratio_rows(csv_bytes)
        allowed = entry["tol"] + entry["ref_tol"]
        return got.keys() == entry["ref"].keys() and all(
            abs(a - b) <= allowed * abs(b)
            for col, ref in entry["ref"].items()
            for a, b in zip(got[col], ref, strict=True))
    return wl.relative_deviation(list(out.matrix.flat),
                                 wl.matrix_from(entry["ref"])) \
        <= entry["tol"] + entry["ref_tol"]


def run_ops(slabpdc, ops, resolved, tracer=None, before=None):
    """Closed loop over ops: (latencies, failure messages).

    ``before`` is called before each op starts, outside its timing.
    """
    latencies, failures = [], []
    for i, ((cls, entry), req) in enumerate(zip(ops, resolved)):
        if tracer is not None:
            tracer.op_id = i
        if before is not None:
            before()
        out = error = None
        t0 = perf_counter()
        try:
            out = execute(slabpdc, cls, entry, req)
        except Exception as exc:  # a failed op is counted, never fatal
            error = exc
        latencies.append(perf_counter() - t0)
        try:
            ok = check(slabpdc, cls, entry, out, error)
        except Exception:  # a malformed output fails its check
            ok = False
            error = traceback.format_exc(limit=2)
        if not ok:
            failures.append(f"op {i} ({cls}): "
                            f"{error if error is not None else 'mismatch'}")
    return latencies, failures


def pass_seconds(workload, latencies):
    size = len(wl.PASSES[workload])
    return [sum(latencies[i:i + size])
            for i in range(0, len(latencies), size)]


# ---------------------------------------------------------------------------
# Fresh processes: setup_s, cli_s, import times
# ---------------------------------------------------------------------------

def probe_setup(args):
    """Child side of setup_s: import, resolve every config, report ready."""
    slabpdc = import_library()
    ops = wl.draw_ops(args.workload, args.seed, wl.load_reference()["pools"],
                      wl.pass_count(args.workload, args.seconds),
                      max_ops=args.max_ops)[0]
    for cls, entry in ops:
        prepare(slabpdc, cls, entry)
    print("ready", flush=True)
    return 0


def setup_seconds(args):
    """Seconds from starting a fresh process to its ready line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.max_ops:
        cmd += ["--max-ops", str(args.max_ops)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CLI_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("setup probe did not report ready")
    return elapsed


def run_cli(argv):
    """(seconds from start to exit, stdout) of one slabpdc process."""
    cmd = [sys.executable, "-m", "slabpdc.cli", *argv]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=_child_env(),
                          cwd=ROOT, timeout=CLI_TIMEOUT_S, check=False)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"slabpdc {' '.join(argv)} exited "
                           f"{proc.returncode}: {proc.stderr.decode()}")
    return elapsed, proc.stdout


def cli_ok(cli_ref, command, output):
    if command == "preset":
        return wl.digest_matches(output, cli_ref["preset_digest"])
    lines = dict(line.split(" = ", 1) for line in
                 output.decode().splitlines())
    rate = float(lines["rate"])
    return abs(rate - cli_ref["rate"]) <= wl.FARFIELD_RTOL * cli_ref["rate"]


def cli_commands():
    """The two checked slabpdc commands: {name: argv}."""
    rate_cfg = OUT / "cli_rate.cfg"
    rate_cfg.write_text(wl.CLI_RATE_TEXT, encoding="utf-8")
    return {"preset": ["preset", wl.CLI_PRESET],
            "rate": ["rate", "--config", str(rate_cfg)]}


def import_seconds():
    """(slabpdc cumulative, scipy self) import seconds, -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import slabpdc"],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=CLI_TIMEOUT_S, check=True)
    total = scipy = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            own = float(parts[0].split(":")[1])
            cumulative = float(parts[1])
        except ValueError:
            continue
        module = parts[2].strip()
        if module == "slabpdc":
            total = cumulative * 1e-6
        if module.split(".")[0] == "scipy":
            scipy += own * 1e-6
    return total, scipy


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def environment(args):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "seed": args.seed, "blas_threads": _THREADS}


class Probes:
    """Rounds of a set-up probe and the two CLI commands, spread evenly
    over a timed run.

    Each child runs alone, between two ops, so that the load never exceeds
    one busy process per core, and is timed between two process
    calibrations (speed.py). ``due`` runs the rounds whose time has come
    and tells whether it ran any. Durations are kept as (seconds, scaled
    seconds).
    """

    def __init__(self, args, cli_ref, failures, rounds):
        self.args, self.cli_ref, self.failures = args, cli_ref, failures
        self.commands = cli_commands()
        self.rounds, self.spacing = rounds, args.seconds / rounds
        self.setup, self.cli = [], []
        self.start = perf_counter()

    def due(self, everything=False):
        ran = False
        while len(self.setup) < self.rounds and (
                everything or perf_counter() - self.start
                >= len(self.setup) * self.spacing):
            self.run_round()
            ran = True
        return ran

    def run_round(self):
        before = calibrate_process()
        for kind in ("setup", *self.commands):
            if kind == "setup":
                elapsed = setup_seconds(self.args)
            else:
                elapsed, output = run_cli(self.commands[kind])
                if not cli_ok(self.cli_ref, kind, output):
                    self.failures.append(f"cli {kind}: output mismatch")
            after = calibrate_process()
            times = (elapsed, elapsed * PROCESS_REFERENCE_S
                     / (0.5 * (before + after)))
            (self.setup if kind == "setup" else self.cli).append(times)
            before = after


def per_slot(classes, values, passes):
    """The ops of one pass, each with the median of its stratum's values."""
    by_class = {}
    for cls, value in zip(classes, values):
        by_class.setdefault(cls, []).append(value)
    return [statistics.median(by_class[cls])
            for cls in classes[:len(classes) // passes]]


def slowest_quarter(values):
    """Mean of the slowest quarter of the values (at least one)."""
    k = -(-len(values) // 4)
    return statistics.fmean(sorted(values)[-k:])


def tail_note(latencies):
    """The highest percentile of all ops with ten ops beyond it.

    Printed only: which stratum it falls in changes with the number of
    passes, so it is not the reported op_s.tail.
    """
    ordered, n = sorted(latencies), len(latencies)
    if n < 20:
        return f"slowest of all {n} ops {ordered[-1]:.4g}"
    return f"p{100.0 * (n - 10) / n:.1f} of all {n} ops {ordered[n - 11]:.4g}"


def timed(slabpdc, args, reference, failures):
    """Passes until --seconds are up, each op timed between two runs of
    the calibration kernel and scaled to the reference speed (speed.py).

    The metrics build one pass from the median scaled latency of each
    stratum's ops, which are spread over the run.
    """
    smoke = bool(args.max_ops)
    probes = Probes(args, reference["cli"], failures,
                    1 if smoke else PROBE_ROUNDS)
    stream = wl.op_stream(args.workload, args.seed, reference["pools"])
    classes, latencies, cal_before, cal_after = [], [], [], []

    def before():
        cal = calibrate()
        if cal_before:
            cal_after.append(cal)
        if probes.due():
            cal = calibrate()
        cal_before.append(cal)

    passes = 0
    while passes < MIN_PASSES \
            or perf_counter() - probes.start < args.seconds:
        ops = next(stream)[:args.max_ops]
        resolved = [prepare(slabpdc, cls, entry) for cls, entry in ops]
        lat, op_failures = run_ops(slabpdc, ops, resolved, before=before)
        failures += op_failures
        classes += [cls for cls, _ in ops]
        latencies += lat
        passes += 1
        if smoke:
            break
    cal_after.append(calibrate())
    probes.due(everything=True)

    scaled = [latency * REFERENCE_S / (0.5 * (c0 + c1))
              for latency, c0, c1 in zip(latencies, cal_before, cal_after)]
    slots = per_slot(classes, scaled, passes)
    wall_slots = per_slot(classes, latencies, passes)
    speed = REFERENCE_S / statistics.median(cal_before + cal_after)
    metrics = {
        "setup_s": (statistics.median(s for _, s in probes.setup), "s"),
        "pass_s": (sum(slots), "s"),
        "op_s.p50": (statistics.median(slots), "s"),
        "op_s.tail": (slowest_quarter(slots), "s"),
        "cli_s": (statistics.median(s for _, s in probes.cli), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    per_stratum = f"{len(slots)} ops of a pass, each its stratum's " \
                  f"median over {passes} passes"
    notes = {"setup_s": f"median of {len(probes.setup)} processes; wall "
                        f"{statistics.median(w for w, _ in probes.setup):.4g}",
             "pass_s": f"sum over {per_stratum}; wall {sum(wall_slots):.4g}"
                       f" at {speed:.3f} of the reference speed",
             "op_s.p50": f"median of {per_stratum}; wall "
                         f"{statistics.median(wall_slots):.4g}",
             "op_s.tail": f"mean of the slowest quarter of {per_stratum}; "
                          f"wall {slowest_quarter(wall_slots):.4g}; "
                          f"{tail_note(scaled)}",
             "cli_s": f"median of {len(probes.cli)} processes; wall "
                      f"{statistics.median(w for w, _ in probes.cli):.4g}"}
    details = {"classes": classes, "latencies": latencies,
               "cal_before": cal_before, "cal_after": cal_after,
               "setup": probes.setup, "cli": probes.cli, "passes": passes,
               "host_speed": speed}
    attempted = len(latencies) + len(probes.cli)
    return metrics, notes, attempted, details


def traced(slabpdc, args, reference, failures):
    from micro import run_all
    from spans import Tracer
    # Two halves, each half the passes --seconds holds at the seed's speed
    # (at least one), so that the counts do not depend on the host's speed.
    passes = max(1, wl.pass_count(args.workload, args.seconds) // 2)
    untraced_ops, traced_ops = wl.draw_ops(
        args.workload, args.seed, reference["pools"], passes, halves=2,
        max_ops=args.max_ops)
    resolved = [prepare(slabpdc, cls, entry) for cls, entry in untraced_ops]
    plain, plain_failures = run_ops(slabpdc, untraced_ops, resolved)

    tracer = Tracer()
    tracer.install(slabpdc)
    try:
        resolved = [prepare(slabpdc, cls, entry)
                    for cls, entry in traced_ops]
        lat, traced_failures = run_ops(slabpdc, traced_ops, resolved, tracer)
        tracer.op_id = len(traced_ops)
        cli_failures = cli_in_process(slabpdc, reference["cli"])
    finally:
        tracer.uninstall()
    failures += plain_failures + traced_failures + cli_failures

    spans = tracer.per_name()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    n_numeric = calls("amplitude.numeric")
    requests = counts["scan.amplitude_requests"]
    overhead = statistics.median(pass_seconds(args.workload, lat)) \
        / statistics.median(pass_seconds(args.workload, plain)) - 1.0
    metrics = {}
    for name in ("materials.kinematics", "materials.fresnel",
                 "amplitude.x_factor", "materials.dispersion_eval",
                 "amplitude.numeric", "amplitude.farfield",
                 "quadrature.integrate_angular", "cli.main"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics.update({
        "materials.kinematics.nodes": (
            counts["materials.kinematics.nodes"], "count"),
        "amplitude.numeric.nodes_per_call": (
            counts["amplitude.numeric.nodes"] / 2 / max(n_numeric, 1),
            "count"),
        "amplitude.numeric.head_attempts": (
            counts["amplitude.numeric.head_attempts"], "count"),
        "amplitude.numeric.head_attempts_max": (
            counts["amplitude.numeric.head_attempts_max"], "count"),
        "amplitude.numeric.convergence_errors": (
            counts["amplitude.numeric.convergence_errors"], "count"),
        "quadrature.integrate_angular.samples": (
            counts["quadrature.integrate_angular.samples"], "count"),
        "scan.run_scan.self_s": (self_s("scan.run_scan"), "s"),
        "scan.emit.s": (spans.get("scan.emit", (0, 0.0))[1], "s"),
        "scan.emit.bytes": (counts["scan.emit.bytes"], "bytes"),
        "scan.load_config.s": (spans.get("scan.load_config", (0, 0.0))[1],
                               "s"),
        "scan.amplitude_requests": (requests, "count"),
        "scan.repeat_share": (
            counts["scan.amplitude_repeats"] / max(requests, 1), "share"),
        "trace.overhead_frac": (overhead, "fraction"),
        "trace.missing": (len(tracer.missing), "count"),
        "trace.spans": (len(tracer.start), "count"),
    })
    imports = [import_seconds() for _ in range(1 if args.max_ops else 3)]
    metrics["setup.import_s"] = (statistics.median(t for t, _ in imports),
                                 "s")
    metrics["setup.import_s.scipy"] = (
        statistics.median(s for _, s in imports), "s")
    metrics.update(run_all(slabpdc))

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    notes = {"trace.missing": ", ".join(tracer.missing) or "none"}
    details = {"latencies_untraced": plain, "latencies_traced": lat,
               "missing": tracer.missing}
    return metrics, notes, len(untraced_ops) + len(traced_ops) + 2, details


def cli_in_process(slabpdc, cli_ref):
    """Traced `slabpdc preset fig4` and `slabpdc rate`, in this process."""
    out = OUT / "cli_out"
    failures = []
    for command, argv in cli_commands().items():
        code = slabpdc.cli.main(argv + ["--out", str(out)])
        if code != 0 or not cli_ok(cli_ref, command, out.read_bytes()):
            failures.append(f"cli {command} (in process): exit {code}")
    return failures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "slabpdc" / "__init__.py").is_file():
        print(f"perfbench: no slabpdc sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)
    # One core for the benchmark and its children, so that the calibration
    # around an op or a child process times the core that ran it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    slabpdc = import_library()
    OUT.mkdir(exist_ok=True)
    reference = wl.load_reference()
    failures = []
    mode = traced if args.trace else timed
    metrics, notes, attempted, details = mode(slabpdc, args, reference,
                                              failures)

    env = environment(args)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in
                                            env.items() if k != "seed"))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:.6g} {unit}{note}")
    print(f"{'failed_frac':40s} {len(failures) / attempted:.6g} fraction"
          f"  ({len(failures)} of {attempted} ops)")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, environment=env, notes=notes, failures=failures,
                  failed_frac=len(failures) / attempted, details=details)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
