"""Gateway server process for the ``serve_mix`` workload.

Run as ``python3 perfbench/gateway_child.py CONFIG_JSON`` by ``run.py``; it
is not a command for people.  It starts an :class:`FTMapService` behind a
:class:`GatewayServer` on an ephemeral localhost port, prints one JSON line
with the URL, then obeys commands on stdin, one per line:

``trace``  start recording benchmark layer spans (traced runs only);
``stop``   shut down, print one JSON line with peak RSS, leak checks and
           the recorded spans, and exit.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    spec = json.loads(sys.argv[1])
    # Commands are read from a private duplicate of stdin: a thread blocked
    # reading sys.stdin holds its buffer lock, and a worker forked meanwhile
    # would deadlock closing sys.stdin during its bootstrap.
    commands = os.fdopen(os.dup(sys.stdin.fileno()), "r")
    sys.stdin.close()
    sys.stdin = open(os.devnull)

    import layer_trace
    from repro import FTMapConfig, FTMapService
    from repro.gateway import GatewayServer, TenantSpec
    from repro.gateway.admission import AdmissionController
    from repro.workers import shm_bytes_in_use, worker_stats

    recorder = layer_trace.SpanRecorder()
    depth = {"max": 0}
    if spec["trace"]:
        layer_trace.install(recorder)
        submit = AdmissionController.submit

        def submit_and_sample(self, tenant, request):
            job = submit(self, tenant, request)
            if recorder.active:
                depth["max"] = max(depth["max"], int(self.stats()["queue_depth"]))
            return job

        AdmissionController.submit = submit_and_sample

    cfg = FTMapConfig.from_dict(spec["config"])
    tenants = [TenantSpec(**t) for t in spec["tenants"]]
    service = FTMapService(config=cfg, max_workers=spec["max_concurrent"])
    gateway = GatewayServer(
        service,
        tenants,
        max_queue_depth=spec["max_queue_depth"],
        max_concurrent=spec["max_concurrent"],
        owns_service=True,
    ).start()
    print(json.dumps({"url": gateway.url}), flush=True)

    restarts0 = 0
    waits0 = 0
    for line in commands:
        command = line.strip()
        if command == "trace":
            restarts0 = worker_stats()["worker_restarts_total"]
            waits0 = service.cache.singleflight_waits
            recorder.active = True
            print(json.dumps({"tracing": True}), flush=True)
        elif command == "stop":
            break
    recorder.active = False
    # A stuck job would block close() forever; report instead, and leave
    # the parent to kill this session.
    closer = threading.Thread(target=gateway.close, daemon=True)
    closer.start()
    closer.join(spec["shutdown_timeout_s"])
    import multiprocessing as mp

    spans, counts = recorder.drain()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "shutdown_hung": closer.is_alive(),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "shm_bytes_in_use": shm_bytes_in_use(),
        "live_workers": len(mp.active_children()),
        "worker_restarts": worker_stats()["worker_restarts_total"] - restarts0,
        "singleflight_waits": service.cache.singleflight_waits - waits0,
        "queue_depth_max": depth["max"],
        "spans": spans,
        "counts": counts,
    }
    print(json.dumps(report), flush=True)
    if closer.is_alive():
        os._exit(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
