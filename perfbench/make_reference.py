"""Build reference.json: the op pools and their frozen reference outputs.

    PYTHONPATH=src python3 perfbench/make_reference.py

For every candidate of ``workloads.draw_candidates``:

* far-field sweeps: a digest of the CSV the current code emits;
* numeric ops: the op is run once at its own tolerance under the tracer and
  must take its stratum's route (``workloads.route``). The reference is the
  amplitude at the tightest tolerance of ``REF_LADDER`` that converges; the
  best value a ConvergenceError carries is not used, because it lacks the
  tail and the reference phase of the head-plus-tail route. The op's own
  result must then lie within ``tol + ref_tol`` of the reference.

A stratum keeps its first ``POOL_SIZES`` accepted candidates; the next
candidates are tried only while it is short. Rejected candidates are stored
with the reason: ``off_route``, ``no_reference`` or ``defect`` (the op's
result misses its reference). Entries whose inputs are unchanged keep the
reference already in reference.json. Building everything takes about ten
minutes with two worker processes.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time

import workloads as wl


def _traced_call(slabpdc, fn):
    """(result or exception, head attempts max, nodes per call)."""
    from spans import Tracer
    tracer = Tracer()
    tracer.install(slabpdc)
    try:
        out = fn()
    except slabpdc.ConvergenceError as exc:
        out = exc
    finally:
        tracer.uninstall()
    calls = max(1, tracer.per_name().get("amplitude.numeric", (1,))[0])
    c = tracer.counts
    return (out, c["amplitude.numeric.head_attempts_max"],
            c["amplitude.numeric.nodes"] / 2 / calls)


def _converged(slabpdc, text, ladder):
    """(flat amplitude, tol) at the first ladder tolerance that converges."""
    cfg = slabpdc.load_config(text)
    for tol in ladder:
        try:
            return list(slabpdc.amplitude_numeric(cfg, tol=tol).matrix.flat), \
                tol
        except slabpdc.ConvergenceError:
            continue
    return None, None


def _rate(flat):
    return sum(abs(v) ** 2 for v in flat)


def _on_route(cls, heads, nodes):
    want_heads, max_nodes = wl.route(cls)
    return heads == want_heads and (max_nodes is None or nodes <= max_nodes)


def reference_farfield(slabpdc, entry):
    result = slabpdc.run_scan(
        slabpdc.scan_request_from_config(wl.scan_text(entry)))
    data = slabpdc.emit(result, format="csv")
    assert wl.json_matches_csv(slabpdc.emit(result, format="json"), data)
    return "ok", {"digest": wl.digest(data)}


def reference_scan(slabpdc, entry):
    """Ratio columns of a two-point n_imag sweep from start = 0 to stop."""
    req = slabpdc.scan_request_from_config(
        wl.scan_text(entry), method="numeric", tol=entry["tol"])
    out, heads, nodes = _traced_call(
        slabpdc, lambda: slabpdc.emit(slabpdc.run_scan(req), format="csv"))
    if isinstance(out, Exception) or not _on_route("scan0", heads, nodes):
        return "off_route", {"head_attempts": heads, "nodes": nodes}
    ref, ref_tol = {}, 0.0
    for kind in ("I", "II"):
        rates = []
        for x in (entry["stop"], 0.0):
            cfg = dict(entry["config"], conversion=kind, n_imag=x)
            flat, tol = _converged(slabpdc, wl.config_text(cfg),
                                   wl.REF_LADDER)
            if flat is None:
                return "no_reference", {}
            rates.append(_rate(flat))
            ref_tol = max(ref_tol, tol)
        ref[f"rate_ratio_to_lossless_{kind}"] = [1.0, rates[0] / rates[1]]
    # A ratio of two rates carries four amplitude errors.
    fields = {"ref": ref, "ref_tol": 4 * ref_tol}
    got = wl.ratio_rows(out)
    dev = max(abs(a - b) / abs(b) for col in ref
              for a, b in zip(got[col], ref[col]))
    if dev > entry["tol"] + fields["ref_tol"]:
        return "defect", dict(fields, deviation=dev)
    return "ok", fields


def reference_point(slabpdc, cls, entry):
    text = wl.config_text(entry["config"])
    cfg = slabpdc.load_config(text)
    out, heads, nodes = _traced_call(
        slabpdc,
        lambda: slabpdc.amplitude.amplitude_numeric(cfg, tol=entry["tol"]))
    unreachable = cls == "unreachable"
    if not _on_route(cls, heads, nodes) or unreachable != isinstance(
            out, slabpdc.ConvergenceError):
        return "off_route", {"head_attempts": heads, "nodes": nodes,
                             "raised": isinstance(out, Exception)}
    ladder = [t for t in wl.REF_LADDER if t > entry["tol"]] if unreachable \
        else wl.REF_LADDER
    flat, ref_tol = _converged(slabpdc, text, ladder)
    if flat is None:
        return "no_reference", {}
    fields = {"ref": wl.matrix_pairs(flat), "ref_tol": ref_tol}
    if not unreachable:
        dev = wl.relative_deviation(list(out.matrix.flat), flat)
        if dev > entry["tol"] + ref_tol:
            return "defect", dict(fields, deviation=dev)
    return "ok", fields


def build(job):
    """Worker: (class, index, status, fields, seconds) for one candidate."""
    cls, i, entry = job
    sys.path.insert(0, "src")
    import slabpdc
    import slabpdc.cli  # noqa: F401  (wrapped by the tracer)
    t0 = time.perf_counter()
    if cls in wl.FARFIELD:
        status, fields = reference_farfield(slabpdc, entry)
    elif wl.is_scan(cls):
        status, fields = reference_scan(slabpdc, entry)
    else:
        status, fields = reference_point(slabpdc, cls, entry)
    return cls, i, status, fields, time.perf_counter() - t0


def _inputs(entry):
    return json.dumps({k: entry[k] for k in
                       ("preset", "config", "start", "stop", "tol")
                       if k in entry}, sort_keys=True)


def main():
    sys.path.insert(0, "src")
    from slabpdc import amplitude_farfield, emit, load_config, preset, \
        run_scan
    amp = amplitude_farfield(load_config(wl.CLI_RATE_TEXT))
    cli = {"rate": float(_rate(amp.matrix.flat)),
           "preset_digest": wl.digest(emit(run_scan(preset(wl.CLI_PRESET)),
                                           format="csv"))}
    candidates = wl.draw_candidates()
    known = {}
    if wl.REFERENCE_PATH.exists():
        old = wl.load_reference()
        for cls, entries in old["pools"].items():
            known.update((_inputs(e), (cls, "ok", e)) for e in entries
                         if "ref_tol" in e or "digest" in e)
        for r in old.get("rejected", []):
            known[_inputs(r["entry"])] = (r["class"], r["status"],
                                          r["entry"])
    results = {}
    for cls, entries in candidates.items():
        for i, entry in enumerate(entries):
            hit = known.get(_inputs(entry))
            if hit is not None and hit[0] == cls:
                results[cls, i] = (hit[1], hit[2])

    def wanted():
        """Untried candidates of every stratum still short of its size."""
        jobs = []
        for cls, entries in candidates.items():
            ok = sum(results.get((cls, i), ("",))[0] == "ok"
                     for i in range(len(entries)))
            untried = [i for i in range(len(entries))
                       if (cls, i) not in results]
            jobs += [(cls, i, entries[i])
                     for i in untried[:wl.POOL_SIZES[cls] - ok]]
        # Slow strata first, so both workers stay busy to the end.
        return sorted(jobs, key=lambda job: job[0] in wl.FARFIELD)

    with multiprocessing.get_context("spawn").Pool(2) as pool:
        jobs = wanted()
        while jobs:
            for cls, i, status, fields, seconds in pool.imap_unordered(
                    build, jobs):
                results[cls, i] = (status, dict(candidates[cls][i],
                                                 **fields))
                print(f"{cls} {i}: {status} {seconds:.1f} s", flush=True)
            jobs = wanted()

    pools, rejected = {}, []
    for cls, entries in candidates.items():
        pools[cls] = []
        for i in range(len(entries)):
            if (cls, i) not in results:
                continue
            status, entry = results[cls, i]
            if status != "ok":
                rejected.append({"class": cls, "status": status,
                                 "entry": entry})
            elif len(pools[cls]) < wl.POOL_SIZES[cls]:
                pools[cls].append(entry)
    doc = {"pool_seed": wl.POOL_SEED, "ref_ladder": wl.REF_LADDER,
           "cli": cli, "pools": pools, "rejected": rejected}
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for cls, entries in pools.items():
        print(f"{cls}: {len(entries)} kept")
    for r in rejected:
        print(f"rejected {r['class']}: {r['status']} "
              f"{r['entry'].get('config')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
