"""Benchmark entry point: one workload, one seed, one timed window.

Usage (from the repository root)::

    python3 perfbench/run.py --workload map_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
window with half of the requests traced, then an engine-direct layer pass,
and prints every per-layer metric.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it are the human-readable report (host fingerprint, drift sentinel,
percentile and count bases, the Fig. 2a/3 table).  Spans and records are
written to ``perfbench/out/``.

``--smoke`` runs the self-test instead (see ``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up rounds per run; setup_s reports the median round.
SETUP_ROUNDS = 3


def fresh_import_s() -> float:
    """Wall time of a fresh interpreter that imports what a run imports."""
    import subprocess

    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--import-only"], check=True, cwd=ROOT
    )
    return time.perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("map_cold", "dock_scan", "serve_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark self-test")
    # Start-up probe for setup_s: import everything a run imports, then exit.
    parser.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.smoke or args.import_only) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> bool:
    """Put the checkout's ``src`` first on the path and import the program."""
    sys.path.insert(0, HERE)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, src)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return False
    return True


def run(args) -> int:
    import layer_trace
    import measure
    import report
    import workloads

    import_s = measure.process_age_s()
    if math.isnan(import_s):
        import_s = time.perf_counter() - T_START
    host = measure.host_fingerprint()
    calib_before = measure.calib_s()
    spec = workloads.WORKLOADS[args.workload]
    wl = workloads.make(args.workload, args.seed, bool(args.trace), args.seconds)

    recorder = layer_trace.SpanRecorder()
    speed = measure.HostSpeed()
    try:
        # This interpreter's own start-up is one sample of the import
        # phase; fresh interpreters give the others.  A host-speed sample
        # follows every phase, so each is scaled by the samples around it.
        t_imported = time.perf_counter()
        speed.sample()
        import_spans = [(t_imported - import_s, t_imported)]
        for _ in range(SETUP_ROUNDS - 1):
            t0 = time.perf_counter()
            fresh_import_s()
            import_spans.append((t0, time.perf_counter()))
            speed.sample()
        round_spans = []
        for k in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            wl.setup_round(final=k == SETUP_ROUNDS - 1)
            round_spans.append((t0, time.perf_counter()))
            speed.sample()
        imports = [b - a for a, b in import_spans]
        rounds = [b - a for a, b in round_spans]
        setup_s = measure.median([(b - a) * speed.scale(a, b) for a, b in import_spans]) + measure.median(
            [(b - a) * speed.scale(a, b) for a, b in round_spans]
        )
        if args.trace:
            layer_trace.install(recorder)
        records = wl.run_window(args.seconds, recorder, speed)
        window_spans, window_counts = recorder.drain()
        finish = wl.finish()
    finally:
        wl.close()
    if args.workload == "serve_mix":
        serving_spans = finish.pop("spans", [])
        serving_counts = finish.pop("counts", {})
        active = sum(1 for r in records if r.get("job"))
    else:
        serving_spans, serving_counts = window_spans, window_counts
        active = sum(1 for r in records if r["traced"])

    leaks = []
    if finish.get("shutdown_hung"):
        leaks.append("the serving process did not shut down in time; its session was killed")
    if finish.get("shm_bytes_in_use", 0) != 0:
        leaks.append(f"shared memory still in use: {finish['shm_bytes_in_use']} bytes")
    if finish.get("live_workers", 0) != 0:
        leaks.append(f"{finish['live_workers']} worker processes left running")
    if measure.live_children():
        leaks.append(f"benchmark child processes left: {measure.live_children()}")

    for r in records:
        r["scale"] = speed.scale(r["sched"], r["end"]) if "sched" in r and "end" in r else float("nan")

    digests = measure.reference_digests(r["spec"] for r in records if r["status"] == "ok")
    report.classify(records, digests)
    counts = report.outcome_counts(records)
    e2e, e2e_notes = report.end_to_end(
        records, setup_s, float(finish.get("peak_rss_mb", "nan")), float(spec["latency_limit_s"]),
        closed=spec["loop"] == "closed",
    )
    e2e_notes["setup_s"] = f"wall {measure.median(imports) + measure.median(rounds):.6f} s"


    layer = layer_notes = None
    dumped = []
    layer_spans = []
    if args.trace:
        recorder.active = True
        from repro.cache.manager import CacheManager
        from repro.mapping import ftmap
        from repro.structure.probes import build_probe

        cache = CacheManager("memory")
        for receptor, cfg in wl.layer_samples():
            for name in cfg.probe_names:
                probe = build_probe(name)
                run_ = ftmap.dock_probe(receptor, probe, cfg, cache=cache)
                stage = ftmap.minimize_poses(receptor, probe, run_.poses, cfg, cache=cache)
                ftmap.cluster_probe(stage.centers, stage.energies, cfg)
        recorder.active = False
        layer_spans, layer_counts = recorder.drain()
    calib_after = measure.calib_s()
    if args.trace:
        client_spans = window_spans if args.workload == "serve_mix" else []
        layer, layer_notes, dumped = report.per_layer(
            records, client_spans, serving_spans, serving_counts, active, layer_spans, layer_counts,
            finish, (calib_before, calib_after), speed.median_s(),
        )

    correct = counts["wrong"] == 0 and not leaks and counts["good"] > 0
    if not all(math.isfinite(x) for x in e2e.values()):
        correct = False

    # -- human-readable report ---------------------------------------------
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("workload: " + json.dumps(spec, sort_keys=True))
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"inputs: {measure.inputs_digest(r['spec'] for r in records)} ({len(records)} requests)")
    print(f"host.calib_s before {calib_before:.6f} s, after {calib_after:.6f} s "
          f"(drift {calib_after / calib_before - 1:+.1%})")
    print(f"host speed: median sentinel {speed.median_s():.6f} s over {len(speed.samples)} samples "
          f"(reference {measure.REFERENCE_SENTINEL_S:g} s); timings below are scaled to the reference")
    print("setup: median of imports " + ", ".join(f"{x:.3f}" for x in imports) + " s + median of rounds "
          + ", ".join(f"{x:.3f}" for x in rounds) + " s")
    for name, value in e2e.items():
        unit = report.END_TO_END[name][0]
        note = e2e_notes.get(name, "")
        print(f"  {name:<26}{value:>14.6f} {unit:<6} {note}")
    for leak in leaks:
        print(f"LEAK: {leak}")
    if counts["wrong"]:
        print(f"WRONG OUTPUT: {counts['wrong']} results differ from the sequential reference")
    if layer is not None:
        for name, (unit, _, moves) in report.PER_LAYER.items():
            note = layer_notes.get(name, "")
            print(f"  {name:<30}{layer[name]:>16.6f} {unit:<6} [{moves}] {note}")
        if args.workload == "serve_mix" and not report.lag_valid(layer):
            print(f"INVALID: the load generator fell behind (max lag {layer['loadgen.lag_max_s']:.3f} s)")
        for row in report.profile_rows(layer):
            print("  " + row)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(
            {
                "host": host,
                "workload": spec,
                "calib_s": [calib_before, calib_after],
                "setup_rounds_s": rounds,
                "import_s": imports,
                "sentinel_samples": [(t - T_START, s) for t, s in speed.samples],
                "end_to_end": e2e,
                "end_to_end_notes": e2e_notes,
                "per_layer": layer,
                "per_layer_notes": layer_notes,
                "requests": [
                    {
                        "status": r["status"],
                        "good": r["good"],
                        "traced": r["traced"],
                        "latency_s": r["end"] - r["sched"] if "end" in r and "sched" in r else None,
                        "sched_s": r["sched"] - T_START if "sched" in r else None,
                        "scale": r["scale"],
                        "wall_time_s": (r["doc"] or {}).get("wall_time_s"),
                        "streaming": (r["doc"] or {}).get("streaming"),
                        "error": r.get("error"),
                    }
                    for r in records
                ],
                "spans": dumped,
                "layer_pass_spans": layer_spans,
            },
            fh,
        )
    print(f"details: {os.path.relpath(out_path, ROOT)}")

    metrics = (
        report.json_metrics(layer, report.units_of(report.PER_LAYER))
        if layer is not None
        else report.json_metrics(
            {k: (v if math.isfinite(v) else 0.0) for k, v in e2e.items()},
            report.units_of(report.END_TO_END),
        )
    )
    # Shared-memory use started multiprocessing's resource tracker in this
    # process; stop it and wait for it, so the run leaves no process behind.
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()

    result = {
        "correct": bool(correct),
        "attempted": counts["attempted"],
        "failed": counts["attempted"] - counts["good"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not import_program():
        return 2
    if args.import_only:
        import report  # noqa: F401
        import workloads  # noqa: F401

        return 0
    if args.smoke:
        import selftest

        return selftest.main(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
