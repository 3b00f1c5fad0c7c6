"""Metric definitions and their derivation from a run's records and spans.

``END_TO_END`` and ``PER_LAYER`` are the names BENCHMARK.json declares; the
self-test checks that the two agree.  Each per-layer entry notes which
end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import layer_trace
import measure

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_s": ("s", "lower", 0.25),
    "latency_tail_s": ("s", "lower", 0.25),
    "probes_per_s": ("1/s", "higher", 0.25),
    "goodput_rps": ("1/s", "higher", 0.25),
    "success_frac": ("ratio", "higher", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: name -> (unit, better, what it should move and where)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "api.request_s": ("s", "lower", "latency_p50_s on every workload"),
    "api.queue_wait_s": ("s", "lower", "serve_mix latency_tail_s"),
    "api.process_mode_frac": ("ratio", "lower", "which scheduling path every workload exercises"),
    "mapping.dock_s": ("s", "lower", "self time per probe; latency_p50_s"),
    "mapping.minimize_s": ("s", "lower", "self time per probe; latency_p50_s"),
    "mapping.cluster_s": ("s", "lower", "self time per probe; latency_p50_s"),
    "mapping.consensus_s": ("s", "lower", "self time per request; latency_p50_s"),
    "mapping.overlap_x": ("x", "higher", "map_cold probes_per_s; 1.0 on dock_scan"),
    "mapping.minimize_frac": ("ratio", "lower", "Fig. 2a split"),
    "docking.run_s": ("s", "lower", "dock_scan probes_per_s and latency_p50_s"),
    "docking.rotations": ("count", "lower", "per docking run"),
    "grids.receptor_grid_s": ("s", "lower", "dock_scan latency_p50_s"),
    "grids.ligand_grid_s": ("s", "lower", "dock_scan latency_p50_s"),
    "docking.correlate_s": ("s", "lower", "dock_scan latency_p50_s"),
    "docking.filter_s": ("s", "lower", "dock_scan latency_p50_s"),
    "minimize.run_s": ("s", "lower", "map_cold latency_p50_s and probes_per_s"),
    "minimize.pose_iterations": ("count", "lower", "per minimization run"),
    "minimize.energy_evals": ("count", "lower", "per minimization run"),
    "minimize.neighbor_list_s": ("s", "lower", "map_cold latency_p50_s"),
    "minimize.neighbor_list_builds": ("count", "lower", "per minimization run"),
    "minimize.ace_self_s": ("s", "lower", "map_cold latency_p50_s"),
    "minimize.gb_pair_s": ("s", "lower", "map_cold latency_p50_s"),
    "minimize.vdw_s": ("s", "lower", "map_cold latency_p50_s"),
    "minimize.bonded_s": ("s", "lower", "map_cold latency_p50_s"),
    "minimize.elec_frac": ("ratio", "lower", "Fig. 3 split"),
    "cache.lookups": ("count", "higher", "per request, parent-side (defect 1 reads 0)"),
    "cache.hit_rate": ("ratio", "higher", "serve_mix latency_p50_s"),
    "cache.get_s": ("s", "lower", "serve_mix latency_p50_s"),
    "cache.put_s": ("s", "lower", "map_cold latency_p50_s and peak_rss_mb"),
    "cache.singleflight_waits": ("count", "lower", "per request"),
    "workers.pool_start_s": ("s", "lower", "map_cold and serve_mix latency_p50_s"),
    "workers.pools_started": ("count", "lower", "per request"),
    "workers.tasks": ("count", "lower", "per request"),
    "workers.round_trip_s": ("s", "lower", "map_cold and serve_mix latency_p50_s"),
    "workers.shm_bytes": ("bytes", "lower", "per request"),
    "workers.restarts": ("count", "lower", "per run"),
    "gateway.submit_s": ("s", "lower", "serve_mix latency_tail_s"),
    "gateway.result_polls": ("count", "lower", "per request; serve_mix latency_tail_s"),
    "gateway.notify_lag_s": ("s", "lower", "serve_mix latency_tail_s"),
    "gateway.shed_frac": ("ratio", "lower", "serve_mix success_frac and goodput_rps"),
    "gateway.failed_frac": ("ratio", "lower", "serve_mix success_frac and goodput_rps"),
    "gateway.queue_depth_max": ("count", "lower", "serve_mix latency_tail_s"),
    "loadgen.lag_p50_s": ("s", "lower", "validity of serve_mix"),
    "loadgen.lag_max_s": ("s", "lower", "validity of serve_mix"),
    "error_frac": ("ratio", "lower", "1 - success_frac"),
    "obs.trace_overhead_frac": ("ratio", "lower", "reported only; kept at <= 0.05"),
    "host.calib_s": ("s", "lower", "host drift sentinel before the run"),
    "host.calib_after_s": ("s", "lower", "host drift sentinel after the run"),
    "host.sentinel_s": ("s", "lower", "median host-speed sample; scales every end-to-end timing"),
}

#: The paper's Fig. 2a and Fig. 3b splits.
PAPER_MINIMIZE_FRAC = 0.93
PAPER_FIG3 = {"electrostatics": 0.944, "vdw": 0.0538, "bonded": 0.002}

#: The generator fell behind when a send was this late.
LAG_INVALID_S = 0.5


def _mean(total: float, n: float) -> float:
    return total / n if n else 0.0


def classify(records: List[dict], digests: Dict[str, str]) -> None:
    """Mark each record ``good`` (ok and output equal to the reference)."""
    for r in records:
        r["wrong"] = False
        if r["status"] == "ok":
            digest = measure.result_digest(r["doc"])
            r["wrong"] = digest != digests.get(measure.spec_key(r["spec"]))
        r["good"] = r["status"] == "ok" and not r["wrong"]


def outcome_counts(records: List[dict]) -> Dict[str, int]:
    return {
        "attempted": len(records),
        "good": sum(r["good"] for r in records),
        "failed": sum(r["status"] == "failed" for r in records),
        "refused": sum(r["status"] == "refused" for r in records),
        "wrong": sum(r["wrong"] for r in records),
    }


def end_to_end(records: List[dict], setup_s: float, peak_rss_mb: float, limit_s: float, closed: bool):
    """End-to-end metrics plus the notes printed beside them.

    Latencies are scaled to the reference host speed (each record's
    ``scale``, see ``measure.HostSpeed``).  A closed loop's rates are per
    second of scaled request time, since its caller is busy for exactly
    that long; an open loop's are per second of its schedule, which the
    arrival rate fixes.
    """
    good = [r for r in records if r["good"]]
    walls = [r["end"] - r["sched"] for r in good]
    latencies = [(r["end"] - r["sched"]) * r["scale"] for r in good]
    # An open loop's window opens at its schedule's origin, not at the
    # first arrival.
    window = max(r["end"] for r in records) - min(r.get("origin", r["sched"]) for r in records)
    if closed:
        window = sum((r["end"] - r["sched"]) * r["scale"] for r in records)
    counts = outcome_counts(records)
    t = measure.tail(latencies)
    values = {
        "setup_s": setup_s,
        "latency_p50_s": measure.median(latencies),
        "latency_tail_s": t["value"],
        "probes_per_s": sum(r["probes"] for r in good) / window,
        "goodput_rps": sum(lat <= limit_s for lat in latencies) / window,
        "success_frac": counts["good"] / counts["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }
    window_kind = "scaled request time" if closed else "window"
    notes = {
        "latency_p50_s": f"wall p50 {measure.median(walls):.6f} s",
        "latency_tail_s": measure.percentile_note(t) + f"; wall {measure.tail(walls)['value']:.6f} s",
        "goodput_rps": f"latency limit {limit_s:g} s, {window_kind} {window:.3f} s",
        "success_frac": (
            f"error_frac {1 - values['success_frac']:.4f} = (failed {counts['failed']} + refused "
            f"{counts['refused']} + wrong {counts['wrong']}) / attempted {counts['attempted']}"
        ),
        "probes_per_s": f"{sum(r['probes'] for r in good)} probes in {window:.3f} s of {window_kind}",
    }
    return values, notes


def _queue_wait(doc: dict) -> float:
    spans = (doc.get("trace") or {}).get("spans") or []
    return sum(s["duration_s"] for s in spans if s["name"] == "queue")


def per_layer(
    records: List[dict],
    client_spans: List[dict],
    serving_spans: List[dict],
    serving_counts: Dict[str, float],
    active_requests: int,
    layer_spans: List[dict],
    layer_counts: Dict[str, float],
    finish: Dict[str, object],
    calib: Tuple[float, float],
    sentinel_s: float,
) -> Tuple[Dict[str, float], Dict[str, str], List[dict]]:
    """Per-layer metrics, notes, and the per-request span trees."""
    good = [r for r in records if r["good"]]
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    counts = outcome_counts(records)
    v: Dict[str, float] = {}
    notes: Dict[str, str] = {}

    docs = [r["doc"] for r in good]
    v["api.request_s"] = measure.finite(measure.median([d["wall_time_s"] for d in docs]))
    v["api.queue_wait_s"] = measure.finite(measure.median([_queue_wait(r["doc"]) for r in traced]))
    v["api.process_mode_frac"] = _mean(sum(d["streaming"] == "process" for d in docs), len(docs))
    notes["api.process_mode_frac"] = f"{sum(d['streaming'] == 'process' for d in docs)} of {len(docs)} requests"

    # Stage spans of traced requests, stitched with the serving process's
    # benchmark spans (cache calls, worker round trips).
    incl: Dict[str, float] = {}
    self_t: Dict[str, float] = {}
    n_probes = 0
    dumped: List[dict] = []
    for r in traced:
        trace = r["doc"].get("trace")
        mine = layer_trace.request_spans(trace, serving_spans)
        nodes = layer_trace.build_tree(trace, mine)
        i, s, _ = layer_trace.totals_by_name(nodes)
        for name in i:
            incl[name] = incl.get(name, 0.0) + i[name]
            self_t[name] = self_t.get(name, 0.0) + s[name]
        n_probes += r["probes"]
        dumped.extend(layer_trace.dump_nodes(nodes, r["doc"]["request_id"]))
    for stage in ("dock", "minimize", "cluster"):
        v[f"mapping.{stage}_s"] = _mean(self_t.get(stage, 0.0), n_probes)
    v["mapping.consensus_s"] = _mean(self_t.get("consensus", 0.0), len(traced))
    staged = sum(incl.get(k, 0.0) for k in ("dock", "minimize", "cluster"))
    v["mapping.overlap_x"] = _mean(staged, incl.get("map", 0.0))
    dock_min = incl.get("dock", 0.0) + incl.get("minimize", 0.0)
    v["mapping.minimize_frac"] = _mean(incl.get("minimize", 0.0), dock_min)
    notes["mapping.dock_s"] = f"{len(traced)} traced requests, {n_probes} probes"

    # Engine-direct layer pass.
    l_incl, _, l_count = layer_trace.totals_by_name(layer_trace.build_tree(None, layer_spans))
    runs_d = l_count.get("docking.run", 0)
    runs_m = l_count.get("minimize.run", 0)
    v["docking.run_s"] = _mean(l_incl.get("docking.run", 0.0), runs_d)
    v["docking.rotations"] = _mean(layer_counts.get("docking.rotations", 0), runs_d)
    for metric, span in (
        ("grids.receptor_grid_s", "grids.receptor_grid"),
        ("grids.ligand_grid_s", "grids.ligand_grid"),
        ("docking.correlate_s", "docking.correlate"),
        ("docking.filter_s", "docking.filter"),
    ):
        v[metric] = _mean(l_incl.get(span, 0.0), runs_d)
    v["minimize.run_s"] = _mean(l_incl.get("minimize.run", 0.0), runs_m)
    v["minimize.pose_iterations"] = _mean(layer_counts.get("minimize.pose_iterations", 0), runs_m)
    v["minimize.energy_evals"] = _mean(layer_counts.get("minimize.energy_evals", 0), runs_m)
    v["minimize.neighbor_list_s"] = _mean(l_incl.get("minimize.neighbor_list", 0.0), runs_m)
    v["minimize.neighbor_list_builds"] = _mean(layer_counts.get("minimize.neighbor_list_builds", 0), runs_m)
    terms = {}
    for metric, span in (
        ("minimize.ace_self_s", "minimize.ace_self"),
        ("minimize.gb_pair_s", "minimize.gb_pair"),
        ("minimize.vdw_s", "minimize.vdw"),
        ("minimize.bonded_s", "minimize.bonded"),
    ):
        terms[span] = l_incl.get(span, 0.0)
        v[metric] = _mean(terms[span], runs_m)
    elec = terms["minimize.ace_self"] + terms["minimize.gb_pair"]
    v["minimize.elec_frac"] = _mean(elec, sum(terms.values()))
    notes["docking.run_s"] = f"layer pass: {runs_d} docking runs, per run"
    notes["minimize.run_s"] = f"layer pass: {runs_m} minimization runs, per run"

    # Cache: lookups as the program reports them per request, call times
    # from the benchmark's wrappers in the serving process and layer pass.
    stats = [d["cache_stats"] for d in docs if d.get("cache_stats")]
    lookups = sum(s["lookups"] for s in stats)
    hits = sum(s["hits"] for s in stats)
    v["cache.lookups"] = _mean(lookups, len(docs))
    v["cache.hit_rate"] = _mean(hits, lookups)
    notes["cache.hit_rate"] = f"{hits} hits / {lookups} lookups over {len(docs)} requests"
    calls = {"cache.get": [], "cache.put": []}
    for s in serving_spans + layer_spans:
        if s["name"] in calls:
            calls[s["name"]].append(s["end"] - s["start"])
    v["cache.get_s"] = measure.finite(measure.median(calls["cache.get"]))
    v["cache.put_s"] = measure.finite(measure.median(calls["cache.put"]))
    notes["cache.get_s"] = f"median of {len(calls['cache.get'])} get and {len(calls['cache.put'])} put calls"
    v["cache.singleflight_waits"] = _mean(float(finish.get("singleflight_waits", 0)), len(records))

    # Process workers in the serving process.
    starts = [s["end"] - s["start"] for s in serving_spans if s["name"] == "workers.pool_start"]
    trips = [
        (s["end"] - s["start"]) - s["attrs"].get("exec_s", 0.0)
        for s in serving_spans
        if s["name"] == "workers.task"
    ]
    v["workers.pool_start_s"] = measure.finite(measure.median(starts))
    v["workers.pools_started"] = _mean(serving_counts.get("workers.pools_started", 0), active_requests)
    v["workers.tasks"] = _mean(serving_counts.get("workers.tasks", 0), active_requests)
    v["workers.round_trip_s"] = measure.finite(measure.median(trips))
    v["workers.shm_bytes"] = _mean(serving_counts.get("workers.shm_bytes", 0), active_requests)
    v["workers.restarts"] = float(finish.get("worker_restarts", 0))
    notes["workers.tasks"] = f"per request over {active_requests} requests; {len(trips)} round trips"

    # Gateway, from the benchmark's spans around GatewayClient calls.
    submits = [c["end"] - c["start"] for c in client_spans if c["name"] == "gateway.submit"]
    polls = sum(c["name"] == "gateway.poll" for c in client_spans)
    submitted = sum(1 for r in records if r.get("job"))
    lags = [
        (r["end"] - r["sent"]) - r["doc"]["wall_time_s"] - _queue_wait(r["doc"])
        for r in traced
        if "job" in r
    ]
    v["gateway.submit_s"] = measure.finite(measure.median(submits))
    v["gateway.result_polls"] = _mean(polls, submitted)
    v["gateway.notify_lag_s"] = measure.finite(measure.median(lags))
    v["gateway.shed_frac"] = _mean(counts["refused"], counts["attempted"])
    v["gateway.failed_frac"] = _mean(counts["failed"] + counts["wrong"], counts["attempted"])
    v["gateway.queue_depth_max"] = float(finish.get("queue_depth_max", 0))
    notes["gateway.result_polls"] = f"{polls} result polls over {submitted} submitted requests"
    send_lags = [r["sent"] - r["sched"] for r in records if "sent" in r]
    v["loadgen.lag_p50_s"] = measure.finite(measure.median(send_lags))
    v["loadgen.lag_max_s"] = max(send_lags) if send_lags else 0.0

    v["error_frac"] = _mean(counts["attempted"] - counts["good"], counts["attempted"])
    notes["error_frac"] = (
        f"failed {counts['failed']}, refused {counts['refused']}, wrong {counts['wrong']} "
        f"of {counts['attempted']} attempted"
    )
    p_traced = measure.median([r["end"] - r["sched"] for r in traced])
    p_plain = measure.median([r["end"] - r["sched"] for r in untraced])
    v["obs.trace_overhead_frac"] = measure.finite(p_traced / p_plain - 1.0) if p_plain else 0.0
    notes["obs.trace_overhead_frac"] = (
        f"traced p50 {p_traced:.4f} s (n={len(traced)}) vs untraced p50 {p_plain:.4f} s (n={len(untraced)})"
    )
    v["host.calib_s"], v["host.calib_after_s"] = calib
    v["host.sentinel_s"] = sentinel_s
    return v, notes, dumped


def profile_rows(values: Dict[str, float]) -> List[str]:
    """Fig. 2a and Fig. 3 rows: paper, model, measured."""
    from repro.perf.profiles import ftmap_profile, minimization_profile

    model_2a = ftmap_profile()["energy_minimization"]
    model_3 = minimization_profile()["energy_evaluation"]
    terms = {
        "electrostatics": values["minimize.ace_self_s"] + values["minimize.gb_pair_s"],
        "vdw": values["minimize.vdw_s"],
        "bonded": values["minimize.bonded_s"],
    }
    total = sum(terms.values())
    rows = [
        f"{'split':<32}{'paper':>10}{'model':>10}{'measured':>10}",
        f"{'Fig.2a minimize share':<32}{PAPER_MINIMIZE_FRAC:>10.3f}{model_2a:>10.3f}"
        f"{values['mapping.minimize_frac']:>10.3f}",
    ]
    for term, paper in PAPER_FIG3.items():
        rows.append(
            f"{'Fig.3b ' + term + ' share':<32}{paper:>10.4f}{model_3[term]:>10.4f}"
            f"{_mean(terms[term], total):>10.4f}"
        )
    return rows


def lag_valid(values: Dict[str, float]) -> bool:
    return values["loadgen.lag_max_s"] <= LAG_INVALID_S


def json_metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def units_of(table) -> Dict[str, str]:
    return {name: spec[0] for name, spec in table.items()}
