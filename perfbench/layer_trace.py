"""Benchmark-side layer spans, recorded by wrapping the program from outside.

Nothing under ``src/`` knows about these spans.  :func:`install` replaces
public callables of the program (module attributes and class methods) with
thin timing wrappers; each wrapper records one span — name, start, end,
parent — into a :class:`SpanRecorder` kept in memory.  A span's parent is
the innermost enclosing benchmark span, else the program's own ambient
trace span (``repro.obs.trace.current_span()``) when the request is traced,
which is what lets :func:`build_tree` stitch both span sets into one tree
per request.

Wrappers are installed only for a traced run (``--trace 1``).  While the
recorder is inactive they call straight through.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import current_span

#: Innermost open benchmark span of this context: (span id, name).
_OPEN: contextvars.ContextVar[Optional[Tuple[int, str]]] = contextvars.ContextVar(
    "perfbench_open_span", default=None
)


class SpanRecorder:
    """In-memory span store plus per-layer counters."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, name: str, n: float = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str, start: Optional[float] = None, **attrs):
        """Record ``name`` around the block; yields the attribute dict.

        ``start`` back-dates the span to a ``perf_counter`` time already taken.
        """
        if not self.active:
            yield {}
            return
        span_id = next(self._ids)
        outer = _OPEN.get()
        ambient = current_span()
        record = {
            "id": span_id,
            "name": name,
            "parent": outer[0] if outer is not None else None,
            "program_parent": ambient.span_id or None,
            "program_parent_start": ambient.start_s if ambient.span_id else None,
            "attrs": attrs,
        }
        token = _OPEN.set((span_id, name))
        record["start"] = start if start is not None else time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            _OPEN.reset(token)
            with self._lock:
                self.spans.append(record)

    def drain(self) -> Tuple[List[dict], Dict[str, float]]:
        """Take (and reset) the recorded spans and counters."""
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, {}
        return spans, counts


def _inside(name: str) -> bool:
    outer = _OPEN.get()
    return outer is not None and outer[1] == name


def _timed(recorder: SpanRecorder, name: str, fn):
    """Wrap ``fn`` so each outermost call records a ``name`` span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active or _inside(name):
            return fn(*args, **kwargs)
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _patch(owner, attr: str, wrapper_factory) -> None:
    """Replace ``owner.attr`` with its wrapper, once."""
    original = getattr(owner, attr)
    if getattr(original, "_perfbench_wrapped", False):
        return
    wrapper = wrapper_factory(original)
    wrapper._perfbench_wrapped = True
    setattr(owner, attr, wrapper)


def install(recorder: SpanRecorder) -> None:
    """Wrap the program's layer entry points so they report to ``recorder``."""
    import repro.docking.piper as piper
    import repro.minimize.energy as serial_energy
    import repro.minimize.ensemble as ensemble
    import repro.workers as workers
    import repro.workers.pool as pool_mod
    import repro.workers.shm as shm
    from repro.cache.manager import CacheManager
    from repro.docking.batched import BatchedFFTCorrelationEngine
    from repro.docking.direct import DirectCorrelationEngine
    from repro.docking.engine import DockingEngine
    from repro.docking.fft import FFTCorrelationEngine
    from repro.gateway.client import GatewayClient
    from repro.minimize.engine import MinimizationEngine
    from repro.minimize.neighborlist import SharedNeighborCore

    def timed(name):
        return lambda fn: _timed(recorder, name, fn)

    # Docking and grids (Fig. 2b).
    _patch(DockingEngine, "run_detailed", timed("docking.run"))
    _patch(piper, "protein_grids_cached", timed("grids.receptor_grid"))
    _patch(piper, "rotate_and_grid_ligand", _counted(recorder, "grids.ligand_grid", "docking.rotations"))
    _patch(piper, "filter_top_poses", timed("docking.filter"))
    for engine in (DirectCorrelationEngine, FFTCorrelationEngine, BatchedFFTCorrelationEngine):
        for method in ("correlate", "correlate_batch"):
            if method in vars(engine):
                _patch(engine, method, timed("docking.correlate"))

    # Minimization (Fig. 3): the ensemble model and the serial P=1 model.
    _patch(MinimizationEngine, "run_detailed", _minimize_run(recorder))
    for module in (ensemble, serial_energy):
        _patch(module, "ace_self_energies", timed("minimize.ace_self"))
        _patch(module, "gb_pairwise_energy", timed("minimize.gb_pair"))
        _patch(module, "vdw_energy", _counted(recorder, "minimize.vdw", "minimize.energy_evals"))
        _patch(module, "build_neighbor_list", _counted(recorder, "minimize.neighbor_list", "minimize.neighbor_list_builds"))
        for term in ("bond_energy", "angle_energy", "dihedral_energy", "improper_energy"):
            _patch(module, term, timed("minimize.bonded"))
    _patch(SharedNeighborCore, "pose_list", _counted(recorder, "minimize.neighbor_list", "minimize.neighbor_list_builds"))

    # Cache.
    _patch(CacheManager, "get", timed("cache.get"))
    _patch(CacheManager, "put", timed("cache.put"))

    # Process workers: the service resolves the pool class at call time.
    timed_pool = _timed_pool_class(recorder, pool_mod.ProcessWorkerPool)
    workers.ProcessWorkerPool = timed_pool
    pool_mod.ProcessWorkerPool = timed_pool
    _patch(shm.ShmArena, "lease", _arena_lease(recorder))

    # Gateway client calls.
    _patch(GatewayClient, "submit", timed("gateway.submit"))
    _patch(GatewayClient, "result", timed("gateway.poll"))
    _patch(GatewayClient, "register_receptor", timed("gateway.register"))


def _counted(recorder: SpanRecorder, name: str, counter: str):
    def factory(fn):
        inner = _timed(recorder, name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.count(counter)
            return inner(*args, **kwargs)

        return wrapper

    return factory


def _minimize_run(recorder: SpanRecorder):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            with recorder.span("minimize.run", backend=self.backend) as attrs:
                run = fn(self, *args, **kwargs)
            recorder.count("minimize.pose_iterations", sum(r.iterations for r in run.results))
            attrs["poses"] = len(run.results)
            return run

        return wrapper

    return factory


def _arena_lease(recorder: SpanRecorder):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(self, bundle, *args, **kwargs):
            recorder.count("workers.shm_bytes", bundle.nbytes)
            return fn(self, bundle, *args, **kwargs)

        return wrapper

    return factory


def _timed_pool_class(recorder: SpanRecorder, base):
    """A :class:`ProcessWorkerPool` subclass timing start-up and task trips."""
    if getattr(base, "_perfbench_wrapped", False):
        return base

    class TimedWorkerPool(base):
        _perfbench_wrapped = True

        def __init__(self, *args, **kwargs):
            with recorder.span("workers.pool_start"):
                super().__init__(*args, **kwargs)
            recorder.count("workers.pools_started")

        def submit(self, fn, *args, label: str = "", **kwargs):
            if not recorder.active:
                return super().submit(fn, *args, label=label, **kwargs)
            t_submit = time.perf_counter()
            future = super().submit(fn, *args, label=label, **kwargs)
            recorder.count("workers.tasks")
            wait = future.result

            def result(timeout=None):
                # The stage thread waits on the result right after
                # submitting, so submit -> result return is the round trip.
                with recorder.span("workers.task", start=t_submit, label=label) as attrs:
                    value = wait(timeout)
                exec_s = 0.0
                if isinstance(value, dict):
                    exec_s = sum(t1 - t0 for _, t0, t1, _ in value.get("spans", ()))
                attrs["exec_s"] = exec_s
                return value

            future.result = result
            return future

    return TimedWorkerPool


# -- analysis ---------------------------------------------------------------------


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def build_tree(program_trace: Optional[dict], bench_spans: List[dict]) -> List[dict]:
    """One span list on the absolute clock: program spans + benchmark spans.

    Program spans are re-based from trace-relative to absolute time using a
    benchmark span that saw a program span as its ambient parent.  A
    program span whose interval lies inside a benchmark span with the same
    parent (a worker's ``dock-exec`` inside the ``workers.task`` round trip)
    is re-parented under it, so self times never count the same interval
    twice.
    """
    nodes: List[dict] = []
    prog = (program_trace or {}).get("spans") or []
    offset = None
    if prog:
        rel = {s["span_id"]: s["start_s"] for s in prog}
        for b in bench_spans:
            pid = b.get("program_parent")
            if pid in rel and b.get("program_parent_start") is not None:
                offset = b["program_parent_start"] - rel[pid]
                break
        base = offset if offset is not None else 0.0
        for s in prog:
            start = base + s["start_s"]
            nodes.append({
                "id": f"p:{s['span_id']}",
                "name": s["name"],
                "start": start,
                "end": start + s["duration_s"],
                "parent": f"p:{s['parent_id']}" if s["parent_id"] else None,
                "attrs": s.get("attributes", {}),
                "source": "program",
            })
    for b in bench_spans:
        if b["parent"] is not None:
            parent = f"b:{b['parent']}"
        elif b.get("program_parent"):
            parent = f"p:{b['program_parent']}"
        else:
            parent = None
        nodes.append({
            "id": f"b:{b['id']}",
            "name": b["name"],
            "start": b["start"],
            "end": b["end"],
            "parent": parent,
            "attrs": b.get("attrs", {}),
            "source": "benchmark",
        })
    if offset is not None:
        bench_by_parent: Dict[str, List[dict]] = {}
        for n in nodes:
            if n["source"] == "benchmark" and n["parent"]:
                bench_by_parent.setdefault(n["parent"], []).append(n)
        for n in nodes:
            if n["source"] != "program" or not n["parent"]:
                continue
            for b in bench_by_parent.get(n["parent"], ()):
                if b["start"] <= n["start"] and n["end"] <= b["end"]:
                    n["parent"] = b["id"]
                    break
    return nodes


def self_times(nodes: List[dict]) -> Dict[str, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for n in nodes:
        if n["parent"]:
            children.setdefault(n["parent"], []).append((n["start"], n["end"]))
    out = {}
    for n in nodes:
        clipped = [
            (max(s, n["start"]), min(e, n["end"]))
            for s, e in children.get(n["id"], ())
            if min(e, n["end"]) > max(s, n["start"])
        ]
        out[n["id"]] = (n["end"] - n["start"]) - _union_length(clipped)
    return out


def totals_by_name(nodes: List[dict]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Per span name: summed inclusive time, summed self time, span count."""
    selfs = self_times(nodes)
    incl: Dict[str, float] = {}
    self_t: Dict[str, float] = {}
    count: Dict[str, int] = {}
    for n in nodes:
        name = n["name"]
        incl[name] = incl.get(name, 0.0) + (n["end"] - n["start"])
        self_t[name] = self_t.get(name, 0.0) + selfs[n["id"]]
        count[name] = count.get(name, 0) + 1
    return incl, self_t, count


def request_spans(program_trace: Optional[dict], pool: List[dict]) -> List[dict]:
    """The benchmark spans of ``pool`` that belong to one program trace.

    Membership follows the tree: a span whose ambient program parent is in
    the trace, or whose benchmark parent already belongs.
    """
    ids = {s["span_id"] for s in (program_trace or {}).get("spans") or []}
    mine: List[dict] = []
    member = set()
    for b in sorted(pool, key=lambda s: s["start"]):
        if b.get("program_parent") in ids or b["parent"] in member:
            member.add(b["id"])
            mine.append(b)
    return mine


def dump_nodes(nodes: List[dict], request_id: str) -> List[dict]:
    """Spans as written out at the end of a run (times relative to the first)."""
    if not nodes:
        return []
    t0 = min(n["start"] for n in nodes)
    return [
        {
            "request_id": request_id,
            "name": n["name"],
            "id": n["id"],
            "parent": n["parent"],
            "start_s": n["start"] - t0,
            "end_s": n["end"] - t0,
            "source": n["source"],
        }
        for n in sorted(nodes, key=lambda n: n["start"])
    ]
