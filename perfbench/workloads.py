"""The three workloads: ``map_cold``, ``dock_scan`` and ``serve_mix``.

Each workload makes its inputs from the run's seed and drives the program
only through its public API.  A workload object has four phases, called in
order by ``run.py``:

``setup_round(final)``  start the service (or gateway) and send warm-up
                        requests; called several times, only the last
                        round's service is kept;
``run_window(...)``     the timed window; returns one record per request,
                        and samples host speed where it would otherwise
                        wait (see ``measure.HostSpeed``);
``finish()``            stop the service and report leak checks and the
                        serving process's peak RSS;
``layer_samples()``     a seeded sample of inputs for the engine-direct
                        layer pass of a traced run.

A record is a dict: ``spec`` (the input, as ``(n_residues, receptor_seed,
config_dict)``), ``sched``/``sent``/``end`` perf_counter times, ``status``
(``ok``/``failed``/``refused``), the result document ``doc`` and whether
the request was ``traced``.
"""

from __future__ import annotations

import json
import os
import queue
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro import FTMAP_PROBE_NAMES, FTMapConfig, FTMapService, synthetic_protein
from repro.api.errors import ApiError, JobTimeoutError, QuotaExceededError
from repro.api.requests import MapRequest
from repro.gateway import GatewayClient

import measure

HERE = os.path.dirname(os.path.abspath(__file__))

#: Receptor size of every workload (~320 atoms).
N_RESIDUES = 40

#: Memory-tier cache budget of every workload.  It holds the artifacts of
#: the receptors in use, and keeps peak RSS a property of the program rather
#: than of how many requests fit in the window.
CACHE_BYTES = 16 * 1024 * 1024

TWO_PROBES = ("ethanol", "acetone")

#: Cold 2-probe map: minimization dominates (~85% of stage time).
MAP_CONFIG = FTMapConfig(
    probe_names=TWO_PROBES,
    num_rotations=6,
    receptor_grid=32,
    grid_spacing=1.25,
    minimize_top=2,
    minimizer_iterations=5,
    engine="auto",
    cache_policy="memory",
    cache_memory_bytes=CACHE_BYTES,
)

#: Docking-heavy single-probe config: bigger grid, more rotations, one
#: pose minimized for a few iterations.
DOCK_CONFIG = FTMapConfig(
    probe_names=(FTMAP_PROBE_NAMES[0],),
    num_rotations=24,
    receptor_grid=48,
    grid_spacing=1.25,
    minimize_top=1,
    minimizer_iterations=4,
    engine="auto",
    cache_policy="memory",
    cache_memory_bytes=CACHE_BYTES,
)

#: serve_mix's two configs: one pose refined per probe, two rotation counts.
SERVE_CONFIGS = (
    replace(MAP_CONFIG, minimize_top=1, minimizer_iterations=4),
    replace(MAP_CONFIG, minimize_top=1, minimizer_iterations=4, num_rotations=4),
)

#: The open loop samples host speed before an arrival only when the arrival
#: is at least this far off and no request is outstanding, so sampling
#: never delays a send nor runs beside a job.
SENTINEL_SLACK_S = 0.05

#: ... and then again every this many seconds while the server stays idle.
SENTINEL_EVERY_S = 0.1

#: Seconds the gateway child gets to answer a command before it is killed.
CHILD_TIMEOUT_S = 30.0

#: Per-workload constants, printed with every run and summarised in
#: BENCHMARK.json.  ``latency_limit_s`` is the limit goodput counts against.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "map_cold": {
        "loop": "closed",
        "callers": 1,
        "latency_limit_s": 2.0,
        "input": "fresh 40-residue receptor per request, 2 probes",
        "shows_defect": "1 (process streaming reports all-zero parent cache stats)",
    },
    "dock_scan": {
        "loop": "closed",
        "callers": 1,
        "latency_limit_s": 2.0,
        "input": "blocks of 16 single-probe requests on one 40-residue receptor",
        "shows_defect": "none (sequential path)",
    },
    "serve_mix": {
        "loop": "open",
        "rate_rps": 1.2,
        # Two overlapping process-streamed jobs can deadlock a forked stage
        # worker (forked while the other job's thread holds a lock).
        "max_concurrent_jobs": 1,
        "latency_limit_s": 2.0,
        "warm_pairs": 4,
        "fresh_frac": 0.25,
        "poll_interval_s": 0.03,
        "input": "2 tenants; 2 receptors x 2 configs warm, 25% fresh receptors; 2 probes",
        "shows_defect": "1 and 2 (process streaming: zero cache stats, no memory-tier reuse)",
    },
}


def _spec(receptor_seed: int, cfg: FTMapConfig) -> Tuple[int, int, dict]:
    return (N_RESIDUES, receptor_seed, cfg.to_dict())


def _receptor_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31 - 1)


def _dealt(items, n: int, rng: random.Random) -> list:
    """``n`` items cycled evenly from ``items``, in a seeded order."""
    out = [items[k % len(items)] for k in range(n)]
    rng.shuffle(out)
    return out


# -- closed loops -----------------------------------------------------------------


class _ClosedLoop:
    """One caller of ``FTMapService.map``: next request after the last ends."""

    name = ""
    config: FTMapConfig

    def __init__(self, seed: int, trace: bool) -> None:
        self.seed = seed
        self.trace = trace
        self.service: Optional[FTMapService] = None
        self._setup_rng = random.Random(f"{self.name}-setup-{seed}")
        self._rng = random.Random(f"{self.name}-{seed}")

    def next_request(self, i: int, rng: random.Random) -> Tuple[tuple, object, FTMapConfig]:
        raise NotImplementedError

    def setup_round(self, final: bool) -> None:
        if self.service is not None:
            self.service.close()
        self.service = FTMapService(config=self.config)
        _, receptor, cfg = self.next_request(0, self._setup_rng)
        self.service.map(receptor, cfg)
        if not final:
            self.service.close()
            self.service = None

    def run_window(self, seconds: float, recorder, speed: measure.HostSpeed) -> List[dict]:
        from repro.workers import worker_stats

        assert self.service is not None
        self.restarts0 = worker_stats()["worker_restarts_total"]
        self.waits0 = self.service.cache.singleflight_waits
        records: List[dict] = []
        t_stop = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < t_stop:
            spec, receptor, cfg = self.next_request(i, self._rng)
            speed.sample()
            traced = self.trace and i % 2 == 1
            if traced:
                cfg = replace(cfg, tracing=True)
            recorder.active = traced
            record = {"spec": spec, "traced": traced, "probes": len(cfg.probe_names)}
            t0 = time.perf_counter()
            try:
                result = self.service.map(receptor, cfg)
            except Exception as exc:  # a failed request is counted, not fatal
                t1 = time.perf_counter()
                record.update(status="failed", error=repr(exc), doc=None)
            else:
                t1 = time.perf_counter()
                record.update(status="ok", doc=result.to_dict())
            recorder.active = False
            record.update(sched=t0, sent=t0, end=t1)
            records.append(record)
            i += 1
        speed.sample()
        self.restarts = worker_stats()["worker_restarts_total"] - self.restarts0
        self.singleflight_waits = self.service.cache.singleflight_waits - self.waits0
        return records

    def finish(self) -> Dict[str, object]:
        from repro.workers import shm_bytes_in_use

        peak = measure.rss_mb()
        self.close()
        return {
            "peak_rss_mb": peak,
            "shm_bytes_in_use": shm_bytes_in_use(),
            "live_workers": len(measure.live_children()),
            "worker_restarts": self.restarts,
            "singleflight_waits": self.singleflight_waits,
            "queue_depth_max": 0,
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class MapCold(_ClosedLoop):
    """Fresh receptor per request: every cache lookup misses, then puts."""

    name = "map_cold"
    config = MAP_CONFIG

    def next_request(self, i, rng):
        seed = _receptor_seed(rng)
        receptor = synthetic_protein(n_residues=N_RESIDUES, seed=seed)
        return _spec(seed, MAP_CONFIG), receptor, MAP_CONFIG

    def layer_samples(self):
        rng = random.Random(f"{self.name}-layers-{self.seed}")
        return [self.next_request(i, rng)[1:] for i in range(2)]


class DockScan(_ClosedLoop):
    """Blocks of 16 single-probe requests sharing one receptor."""

    name = "dock_scan"
    config = DOCK_CONFIG

    def __init__(self, seed: int, trace: bool) -> None:
        super().__init__(seed, trace)
        # Current block per input stream: (receptor seed, receptor, probe offset).
        self._blocks: Dict[random.Random, Tuple[int, object, int]] = {}

    def next_request(self, i, rng):
        n = len(FTMAP_PROBE_NAMES)
        pos = i % n
        if pos == 0:
            seed = _receptor_seed(rng)
            receptor = synthetic_protein(n_residues=N_RESIDUES, seed=seed)
            self._blocks[rng] = (seed, receptor, rng.randrange(n))
        seed, receptor, offset = self._blocks[rng]
        cfg = replace(DOCK_CONFIG, probe_names=(FTMAP_PROBE_NAMES[(offset + pos) % n],))
        return _spec(seed, cfg), receptor, cfg

    def layer_samples(self):
        rng = random.Random(f"{self.name}-layers-{self.seed}")
        return [self.next_request(i, rng)[1:] for i in range(4)]


# -- open loop over the gateway ---------------------------------------------------


class ServeMix:
    """Seeded open-loop arrivals over real TCP to a gateway child process."""

    name = "serve_mix"

    def __init__(self, seed: int, trace: bool, seconds: float) -> None:
        spec = WORKLOADS[self.name]
        self.seed = seed
        self.trace = trace
        self.rate = float(spec["rate_rps"])
        self.poll_s = float(spec["poll_interval_s"])
        rng = random.Random(f"{self.name}-{seed}")
        self.warm_seeds = [_receptor_seed(rng) for _ in range(2)]
        self.warm_pairs = [(s, cfg) for s in self.warm_seeds for cfg in SERVE_CONFIGS]
        # Exactly rate x seconds arrivals spread over the window; each gap is
        # uniform in [0.5, 1.5] x the mean before scaling, so bursts stay
        # bounded and every seed offers the same load.  The mix is exact
        # too: round(fresh_frac x n) fresh arrivals, and the warm pairs and
        # configs dealt out evenly, in a seeded order.
        n = max(1, round(self.rate * seconds))
        gaps = [rng.uniform(0.5, 1.5) for _ in range(n + 1)]
        scale = seconds / sum(gaps)
        n_fresh = round(float(spec["fresh_frac"]) * n)
        fresh = [True] * n_fresh + [False] * (n - n_fresh)
        rng.shuffle(fresh)
        warm_order = _dealt(self.warm_pairs, n - n_fresh, rng)
        fresh_configs = _dealt(SERVE_CONFIGS, n_fresh, rng)
        self.schedule: List[dict] = []
        fresh_seeds: List[int] = []
        t = 0.0
        for gap, is_fresh in zip(gaps[:n], fresh):
            t += gap * scale
            tenant = rng.randrange(2)
            if is_fresh:
                seed_r = _receptor_seed(rng)
                fresh_seeds.append(seed_r)
                pair = (seed_r, fresh_configs.pop())
            else:
                pair = warm_order.pop()
            self.schedule.append({"t": t, "tenant": tenant, "pair": pair})
        self.fresh_seeds = fresh_seeds
        self.proc: Optional[subprocess.Popen] = None
        self.hashes: Dict[int, str] = {}
        self.clients: List[GatewayClient] = []
        self.tenants = [
            {
                "name": f"tenant-{k}",
                "api_key": f"perfbench-key-{k}",
                # Admission must refuse nothing at the fixed rate: the
                # bucket refills at 4x the whole arrival rate with a deep
                # burst, and the in-flight cap is far above the backlog.
                "rate": 4.0 * self.rate,
                "burst": 32,
                "max_in_flight": 32,
            }
            for k in range(2)
        ]

    # -- server child ---------------------------------------------------------

    def _start_child(self) -> None:
        spec = {
            "config": SERVE_CONFIGS[0].to_dict(),
            "tenants": self.tenants,
            "max_queue_depth": 64,
            "max_concurrent": WORKLOADS[self.name]["max_concurrent_jobs"],
            "trace": self.trace,
            "shutdown_timeout_s": CHILD_TIMEOUT_S / 2,
        }
        # A session of its own, so a hung child is killed with its workers.
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "gateway_child.py"), json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        line = self._read_line()
        if not line:
            raise RuntimeError("gateway child exited before reporting its URL")
        url = json.loads(line)["url"]
        self.clients = [GatewayClient(url, api_key=t["api_key"], timeout_s=CHILD_TIMEOUT_S) for t in self.tenants]

    def _read_line(self) -> str:
        """One line from the child, or "" if it says nothing in time."""
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        return self.proc.stdout.readline() if ready else ""

    def _command(self, command: str) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read_line()

    def _stop_child(self) -> Dict[str, object]:
        if self.proc is None:
            return {}
        try:
            line = self._command("stop")
            if line:
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            line = ""
        finally:
            self.close()
        return json.loads(line) if line else {"shutdown_hung": True}

    def setup_round(self, final: bool) -> None:
        if self.proc is not None:
            self._stop_child()
        self._start_child()
        client = self.clients[0]
        self.hashes = {}
        for seed_r in self.warm_seeds + self.fresh_seeds:
            receptor = synthetic_protein(n_residues=N_RESIDUES, seed=seed_r)
            self.hashes[seed_r] = client.register_receptor(receptor)
        for seed_r, cfg in self.warm_pairs:
            client.map_remote(MapRequest(receptor=self.hashes[seed_r], config=cfg), timeout_s=120)
        if not final:
            self._stop_child()

    # -- timed window -----------------------------------------------------------

    def run_window(self, seconds: float, recorder, speed: measure.HostSpeed) -> List[dict]:
        if self.trace and not self._command("trace"):
            raise RuntimeError("gateway child did not acknowledge tracing")
        records = [
            {
                "spec": _spec(a["pair"][0], a["pair"][1]),
                "traced": self.trace and k % 2 == 1,
                "probes": len(a["pair"][1].probe_names),
                "tenant": a["tenant"],
            }
            for k, a in enumerate(self.schedule)
        ]
        submitted: "queue.Queue[Optional[int]]" = queue.Queue()
        speed.sample()
        t0 = time.perf_counter() + 0.05

        def send() -> None:
            for k, arrival in enumerate(self.schedule):
                record = records[k]
                due = t0 + arrival["t"]
                # Sample host speed while the server is idle, so the sample
                # does not share the CPUs with a job.
                while due - time.perf_counter() > SENTINEL_SLACK_S:
                    if all("end" in records[j] for j in range(k)):
                        speed.sample()
                        time.sleep(min(SENTINEL_EVERY_S, max(0.0, due - time.perf_counter() - SENTINEL_SLACK_S)))
                    else:
                        time.sleep(0.01)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                seed_r, cfg = arrival["pair"]
                request = MapRequest(
                    receptor=self.hashes[seed_r],
                    config=cfg,
                    tracing=True if record["traced"] else None,
                )
                record["origin"] = t0
                record["sched"] = due
                record["sent"] = time.perf_counter()
                try:
                    record["job"] = self.clients[arrival["tenant"]].submit(request)
                except QuotaExceededError as exc:
                    record.update(status="refused", error=repr(exc), end=time.perf_counter())
                    continue
                except (ApiError, OSError) as exc:
                    record.update(status="failed", error=repr(exc), end=time.perf_counter())
                    continue
                submitted.put(k)
            submitted.put(None)

        def poll() -> None:
            pending: Dict[int, float] = {}
            sender_done = False
            deadline = None
            while not sender_done or pending:
                while True:
                    try:
                        k = submitted.get_nowait()
                    except queue.Empty:
                        break
                    if k is None:
                        sender_done = True
                        deadline = time.perf_counter() + CHILD_TIMEOUT_S
                    else:
                        pending[k] = 0.0
                now = time.perf_counter()
                for k in sorted(pending):
                    if now - pending[k] < self.poll_s:
                        continue
                    record = records[k]
                    client = self.clients[record["tenant"]]
                    try:
                        doc = client.result(record["job"], timeout_s=0)
                    except JobTimeoutError:
                        pending[k] = time.perf_counter()
                        continue
                    except (ApiError, OSError) as exc:
                        record.update(status="failed", error=repr(exc), end=time.perf_counter())
                    else:
                        record.update(status="ok", doc=doc, end=time.perf_counter())
                    del pending[k]
                if deadline is not None and time.perf_counter() > deadline:
                    for k in pending:
                        records[k].update(status="failed", error=f"no result {CHILD_TIMEOUT_S:g} s after the last arrival", end=time.perf_counter())
                    return
                time.sleep(0.002)

        recorder.active = self.trace
        sender = threading.Thread(target=send, name="serve_mix-send")
        poller = threading.Thread(target=poll, name="serve_mix-poll")
        sender.start()
        poller.start()
        sender.join()
        poller.join()
        recorder.active = False
        speed.sample()
        for record in records:
            record.setdefault("status", "failed")
            record.setdefault("doc", None)
        return records

    def finish(self) -> Dict[str, object]:
        report = self._stop_child()
        report.setdefault("peak_rss_mb", float("nan"))
        return report

    def close(self) -> None:
        """Kill whatever is left of the gateway child's session."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def layer_samples(self):
        seed_w, cfg_w = self.warm_pairs[0]
        rng = random.Random(f"{self.name}-layers-{self.seed}")
        fresh = _receptor_seed(rng)
        warm = synthetic_protein(n_residues=N_RESIDUES, seed=seed_w)
        return [
            (warm, cfg_w),
            (synthetic_protein(n_residues=N_RESIDUES, seed=fresh), SERVE_CONFIGS[1]),
            (warm, cfg_w),
        ]


def make(name: str, seed: int, trace: bool, seconds: float):
    if name == "map_cold":
        return MapCold(seed, trace)
    if name == "dock_scan":
        return DockScan(seed, trace)
    if name == "serve_mix":
        return ServeMix(seed, trace, seconds)
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
