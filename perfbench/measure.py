"""Statistics, output checks, host fingerprint and drift sentinel."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import multiprocessing as mp
import os
import platform
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Thread-count variables that change BLAS/OpenMP behaviour; recorded as
#: found, never set by the benchmark.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile that leaves ``TAIL_BEYOND`` samples beyond it.

    With ``TAIL_BEYOND`` samples or fewer no percentile qualifies; the
    maximum is returned, with ``beyond`` 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": float("nan"), "percentile": 0.0, "beyond": 0, "n": 0}
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "value": float(ordered[k]),
        "percentile": math.floor(100.0 * (k + 1) / n),
        "beyond": n - 1 - k,
        "n": n,
    }


# -- output checks ---------------------------------------------------------------

#: MapResult.to_dict() fields left out of the output digest.  wall_time_s,
#: trace and cache_stats are measurements, not outputs; request_id and
#: streaming name the job and the scheduling mode; config.tracing only
#: switches observability; a probe's minimize_cached says where the result
#: came from, not what it is.
_DROP = ("wall_time_s", "trace", "cache_stats", "request_id", "streaming")


def result_digest(doc: dict) -> str:
    """SHA-256 of a ``MapResult.to_dict()`` document's outputs."""
    body = {k: v for k, v in doc.items() if k not in _DROP}
    body["config"] = {k: v for k, v in body["config"].items() if k != "tracing"}
    result = dict(body["result"])
    result.pop("cache_stats", None)
    result["probes"] = {
        name: {k: v for k, v in probe.items() if k != "minimize_cached"}
        for name, probe in result["probes"].items()
    }
    body["result"] = result
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _reference_worker_init(paths: List[str]) -> None:
    for path in reversed(paths):
        if path not in sys.path:
            sys.path.insert(0, path)


def reference_digest(spec: Tuple[int, int, dict]) -> str:
    """Digest of a ``streaming="sequential"`` run of one input.

    ``spec`` is ``(n_residues, receptor_seed, config_dict)``; the receptor
    is regenerated from its seed, so only plain data crosses processes.
    """
    from repro import FTMapConfig, FTMapService, synthetic_protein

    n_residues, receptor_seed, config = spec
    cfg = FTMapConfig.from_dict(dict(config, tracing=False))
    receptor = synthetic_protein(n_residues=n_residues, seed=receptor_seed)
    with FTMapService(config=cfg) as service:
        result = service.map(receptor, cfg, streaming="sequential")
    return result_digest(result.to_dict())


def reference_digests(specs: Iterable[Tuple[int, int, dict]], workers: int = 2) -> Dict[str, str]:
    """Sequential-run digests of distinct inputs, keyed by ``spec_key``.

    Runs after the timed window, in fresh ``spawn`` interpreters.
    """
    unique: Dict[str, Tuple[int, int, dict]] = {}
    for spec in specs:
        unique.setdefault(spec_key(spec), spec)
    keys = list(unique)
    ctx = mp.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=max(1, min(workers, len(keys))),
        mp_context=ctx,
        initializer=_reference_worker_init,
        initargs=(list(sys.path),),
    ) as pool:
        digests = list(pool.map(reference_digest, [unique[k] for k in keys]))
    return dict(zip(keys, digests))


def inputs_digest(specs: Iterable[Tuple[int, int, dict]]) -> str:
    """Short digest of a run's request inputs, in order."""
    blob = json.dumps([spec_key(s) for s in specs]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def spec_key(spec: Tuple[int, int, dict]) -> str:
    n_residues, receptor_seed, config = spec
    cfg = {k: v for k, v in config.items() if k != "tracing"}
    return json.dumps([n_residues, receptor_seed, cfg], sort_keys=True)


# -- host ------------------------------------------------------------------------


def process_age_s() -> float:
    """Seconds since this interpreter started (Linux ``/proc``), else NaN."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start_ticks = int(fields[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return float("nan")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_fingerprint() -> Dict[str, object]:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    return {
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "mp_start_method": mp.get_start_method(allow_none=True) or mp.get_context().get_start_method(),
        "machine": platform.machine(),
    }


def calib_s(reps: int = 40) -> float:
    """Median time of a fixed numpy kernel: the host drift sentinel."""
    import numpy as np

    a = np.random.default_rng(12345).standard_normal((48, 48, 48))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        spectrum = np.fft.rfftn(a)
        np.fft.irfftn(spectrum * 1.0001, a.shape, axes=(0, 1, 2))
        np.dot(a[0], a[1])
        times.append(time.perf_counter() - t0)
    return median(times)


#: The sentinel's time at the reference host speed (the fast state of a
#: 2-vCPU Xeon VM at 2.0 GHz).  Scaled timings read in seconds at this speed.
REFERENCE_SENTINEL_S = 0.0030

#: A timed interval is scaled by the samples from this long before it to
#: this long after it (and at least the nearest one on each side): single
#: samples are noisy, and the host's state rarely changes within a second.
SCALE_MARGIN_S = 1.0

_SENTINEL_DATA: Dict[str, object] = {}


def sentinel_s() -> float:
    """Time of a fixed kernel mix that does not use the program.

    A Python loop, a 32^3 FFT round trip and an 8 MB copy-and-sum: the
    interpreter, numpy compute and memory work the program is made of.
    Each part's fastest of 3 runs is kept, so a preemption does not
    count; the sum tracks the speed the host gives a core right now.
    """
    import numpy as np

    if not _SENTINEL_DATA:
        rng = np.random.default_rng(12345)
        _SENTINEL_DATA["grid"] = rng.standard_normal((32, 32, 32))
        _SENTINEL_DATA["flat"] = rng.standard_normal(1_000_000)
    grid = _SENTINEL_DATA["grid"]
    flat = _SENTINEL_DATA["flat"]

    def loop() -> None:
        x = 0
        for i in range(10000):
            x += i * i

    def fft() -> None:
        np.fft.irfftn(np.fft.rfftn(grid) * 1.0001, grid.shape, axes=(0, 1, 2))

    def copy() -> None:
        flat.copy().sum()

    total = 0.0
    for part in (loop, fft, copy):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


class HostSpeed:
    """Sentinel samples taken through a run, and the scale they give.

    The host this benchmark was built on switches between a fast state and
    one 1.3-2x slower, for seconds to minutes at a time, which moves every
    wall time with it.  Each timed interval is therefore also reported
    scaled to the reference speed: multiplied by ``REFERENCE_SENTINEL_S``
    over the median sentinel sampled from ``SCALE_MARGIN_S`` before the
    interval to ``SCALE_MARGIN_S`` after it.  Samples are taken only where
    the benchmark would otherwise wait, never inside a request.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        t = time.perf_counter()
        self.samples.append((t, sentinel_s()))

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a wall time over ``[start, end]`` to the reference speed."""
        samples = sorted(self.samples)
        if not samples:
            return float("nan")
        times = [t for t, _ in samples]
        first = max(0, bisect.bisect_right(times, start - SCALE_MARGIN_S) - 1)
        last = min(len(samples) - 1, bisect.bisect_left(times, end + SCALE_MARGIN_S))
        return REFERENCE_SENTINEL_S / median([s for _, s in samples[first : last + 1]])

    def median_s(self) -> float:
        return median([s for _, s in self.samples])


def rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    usage = resource.getrusage
    return (usage(resource.RUSAGE_SELF).ru_maxrss + usage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def live_children() -> List[int]:
    """PIDs of this process's live multiprocessing children."""
    return [p.pid for p in mp.active_children()]


def percentile_note(t: Dict[str, float]) -> str:
    return f"p{t['percentile']:.0f} of n={t['n']} ({t['beyond']} beyond)"


def finite(value: Optional[float], default: float = 0.0) -> float:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return default
    return float(value)
