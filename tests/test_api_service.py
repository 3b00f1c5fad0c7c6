"""FTMapService lifecycle: jobs, streaming modes, cache-aware serving."""

import contextlib
import threading
import warnings

import numpy as np
import pytest

from repro.api import (
    JOB_CANCELLED,
    JOB_DONE,
    FTMapService,
    JobCancelled,
    MapRequest,
)
from repro.cache import CacheManager, reset_cache_registry
from repro.mapping.ftmap import FTMapConfig, run_ftmap
from repro.obs.metrics import registry
from repro.structure import synthetic_protein
from repro.util.parallel import usable_cpus
from repro.workers import shm_bytes_in_use, worker_stats


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_cache_registry()
    yield
    reset_cache_registry()


@pytest.fixture(scope="module")
def protein():
    return synthetic_protein(n_residues=40, seed=3)


def tiny_config(**overrides):
    base = dict(
        probe_names=("ethanol", "acetone"),
        num_rotations=6,
        receptor_grid=32,
        probe_grid=4,
        grid_spacing=1.25,
        minimize_top=2,
        minimizer_iterations=4,
        engine="fft",
    )
    base.update(overrides)
    return FTMapConfig(**base)


def probe_outputs(result):
    """Bitwise-comparable mapping outputs (poses, energies, centers)."""
    out = {}
    for name, pr in result.probe_results.items():
        out[name] = (
            [(p.rotation_index, p.translation, p.score) for p in pr.docked_poses],
            pr.minimized_energies.copy(),
            pr.minimized_centers.copy(),
        )
    return out


def assert_bitwise_equal(result_a, result_b):
    out_a, out_b = probe_outputs(result_a), probe_outputs(result_b)
    assert out_a.keys() == out_b.keys()
    for name in out_a:
        assert out_a[name][0] == out_b[name][0]
        assert np.array_equal(out_a[name][1], out_b[name][1])
        assert np.array_equal(out_a[name][2], out_b[name][2])
    assert len(result_a.sites) == len(result_b.sites)
    for site_a, site_b in zip(result_a.sites, result_b.sites):
        assert np.array_equal(site_a.center, site_b.center)
        assert site_a.probe_names == site_b.probe_names
        assert site_a.member_clusters == site_b.member_clusters
        assert site_a.best_energy == site_b.best_energy


class TestSynchronousMap:
    def test_map_matches_legacy_run_ftmap_bitwise(self, protein):
        cfg = tiny_config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = run_ftmap(protein, cfg)
        with FTMapService() as service:
            mapped = service.map(protein, cfg)
        assert_bitwise_equal(legacy, mapped.result)

    def test_pipelined_matches_sequential_bitwise(self, protein):
        cfg = tiny_config(probe_names=("ethanol", "acetone", "urea"))
        with FTMapService() as service:
            seq = service.map(protein, cfg, streaming="sequential")
            pipe = service.map(protein, cfg, streaming="pipeline")
        assert seq.streaming == "sequential"
        assert pipe.streaming == "pipeline"
        assert_bitwise_equal(seq.result, pipe.result)

    def test_auto_pipelines_multi_probe(self, protein):
        with FTMapService() as service:
            multi = service.map(protein, tiny_config())
            single = service.map(protein, tiny_config(probe_names=("ethanol",)))
        # auto's cost model: process workers need >= 2 CPUs to overlap.
        expected = "process" if usable_cpus() >= 2 else "pipeline"
        assert multi.streaming == expected
        assert single.streaming == "sequential"

    def test_process_matches_sequential_bitwise(self, protein):
        cfg = tiny_config(probe_names=("ethanol", "acetone", "urea"))
        with FTMapService() as service:
            seq = service.map(protein, cfg, streaming="sequential")
            proc = service.map(protein, cfg, streaming="process")
        assert seq.streaming == "sequential"
        assert proc.streaming == "process"
        assert_bitwise_equal(seq.result, proc.result)
        # Every leased shared-memory segment was unlinked again.
        assert shm_bytes_in_use() == 0

    def test_probe_workers_selects_process_streaming(self, protein):
        cfg = tiny_config(probe_workers=2)
        with FTMapService() as service:
            mapped = service.map(protein, cfg)
        assert mapped.streaming == "process"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = run_ftmap(protein, cfg)
        assert_bitwise_equal(legacy, mapped.result)

    def test_explicit_streaming_wins_over_probe_workers(self, protein):
        """Regression: a client's explicit streaming mode must never be
        silently overridden by config-driven selection (probe_workers
        used to force the legacy fork fan-out over it)."""
        cfg = tiny_config(probe_workers=2)
        with FTMapService() as service:
            seq = service.map(protein, cfg, streaming="sequential")
            pipe = service.map(protein, cfg, streaming="pipeline")
        assert seq.streaming == "sequential"
        assert pipe.streaming == "pipeline"
        assert_bitwise_equal(seq.result, pipe.result)

    def test_process_mode_job_emits_stage_events(self, protein):
        """Process streaming keeps the thread path's per-stage progress
        contract: dock/minimize/cluster per probe, consensus last."""
        cfg = tiny_config(probe_workers=2)
        with FTMapService() as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            handle.result(timeout=300)
        stages = [(e.stage, e.probe) for e in handle.events()]
        for probe in cfg.probe_names:
            for stage in ("dock", "minimize", "cluster"):
                assert (stage, probe) in stages
        assert stages[-1] == ("consensus", "")

    def test_process_mode_worker_spans_stitched_into_trace(self, protein):
        cfg = tiny_config(tracing=True)
        with FTMapService(cache=CacheManager(policy="memory")) as service:
            mapped = service.map(protein, cfg, streaming="process")
            warm = service.map(protein, cfg, streaming="process")
        names = [s["name"] for s in mapped.trace["spans"]]
        for exec_span in ("dock-exec", "minimize-exec", "cluster-exec"):
            assert names.count(exec_span) == 2  # one per probe
        by_id = {s["span_id"]: s for s in mapped.trace["spans"]}
        for span in mapped.trace["spans"]:
            if span["name"] == "dock-exec":
                parent = by_id[span["parent_id"]]
                assert parent["name"] == "dock"
        # Stage spans say which probes went to workers, and whether the
        # parent's cache served them.
        for trace, cache, where in (
            (mapped.trace, "miss", "worker"),
            (warm.trace, "hit", "parent"),
        ):
            stages = [
                s for s in trace["spans"] if s["name"] in ("dock", "minimize")
            ]
            assert len(stages) == 4
            for span in stages:
                assert span["attributes"]["cache"] == cache
                assert span["attributes"]["where"] == where
        # A fully warm request never reaches a worker.
        assert not [
            s for s in warm.trace["spans"] if s["name"].endswith("-exec")
        ]

    def test_result_provenance(self, protein):
        cfg = tiny_config()
        with FTMapService() as service:
            fingerprint = service.register_receptor(protein)
            mapped = service.map(protein, cfg)
        assert mapped.receptor_hash == fingerprint
        assert mapped.config == cfg
        assert mapped.wall_time_s > 0
        assert mapped.top_site is mapped.result.top_site


class TestReceptorRegistry:
    def test_register_is_idempotent_and_structural(self, protein):
        with FTMapService() as service:
            fp1 = service.register_receptor(protein)
            fp2 = service.register_receptor(
                synthetic_protein(n_residues=40, seed=3)
            )
            assert fp1 == fp2
            assert service.registered_receptors() == [fp1]

    def test_map_by_fingerprint(self, protein):
        cfg = tiny_config(probe_names=("ethanol",))
        with FTMapService() as service:
            fingerprint = service.register_receptor(protein)
            by_hash = service.map(fingerprint, cfg)
            inline = service.map(protein, cfg)
        assert_bitwise_equal(by_hash.result, inline.result)

    def test_unknown_fingerprint_rejected(self):
        with FTMapService() as service:
            with pytest.raises(KeyError, match="register_receptor"):
                service.map("f" * 64, tiny_config())


class TestJobs:
    def test_submit_many_poll_results(self, protein):
        cfg = tiny_config()
        with FTMapService(max_workers=2) as service:
            fingerprint = service.register_receptor(protein)
            handles = [
                service.submit(MapRequest(receptor=fingerprint, config=cfg))
                for _ in range(3)
            ]
            results = [h.result(timeout=300) for h in handles]
            assert [h.poll() for h in handles] == [JOB_DONE] * 3
            assert all(h.done() for h in handles)
        for other in results[1:]:
            assert_bitwise_equal(results[0].result, other.result)
        # Job ids are unique and resolvable.
        ids = [h.job_id for h in handles]
        assert len(set(ids)) == 3
        assert service.job(ids[0]) is handles[0]

    def test_progress_events_cover_stages(self, protein):
        cfg = tiny_config()
        with FTMapService() as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            handle.result(timeout=300)
        stages = [(e.stage, e.probe) for e in handle.events()]
        for probe in cfg.probe_names:
            for stage in ("dock", "minimize", "cluster"):
                assert (stage, probe) in stages
        assert stages[-1] == ("consensus", "")
        assert all(e.total == len(cfg.probe_names) for e in handle.events())

    def test_queued_job_cancels_immediately(self, protein):
        cfg = tiny_config()
        with FTMapService(max_workers=1) as service:
            fingerprint = service.register_receptor(protein)
            running = service.submit(
                MapRequest(receptor=fingerprint, config=cfg)
            )
            queued = service.submit(
                MapRequest(receptor=fingerprint, config=cfg)
            )
            assert queued.cancel() is True
            assert queued.status() == JOB_CANCELLED
            with pytest.raises(JobCancelled):
                queued.result(timeout=10)
            running.result(timeout=300)           # unaffected
            assert running.status() == JOB_DONE
            assert running.cancel() is False      # terminal: nothing to cancel

    def test_running_job_cancels_at_stage_boundary(self, protein):
        cfg = tiny_config(probe_names=("ethanol", "acetone", "urea"))
        cancelled_from = []

        def cancel_after_first_dock(event):
            if event.stage == "dock" and event.index == 0:
                cancelled_from.append(event.job_id)
                service.job(event.job_id).cancel()

        service = FTMapService(on_event=cancel_after_first_dock)
        with service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            with pytest.raises(JobCancelled):
                handle.result(timeout=300)
            assert handle.status() == JOB_CANCELLED
            assert cancelled_from == [handle.job_id]
            # The job stopped early: no consensus event was emitted.
            assert all(e.stage != "consensus" for e in handle.events())

    def test_process_job_cancels_and_unlinks_shared_memory(self, protein):
        """Cancelling a process-streamed job stops it cooperatively and
        unlinks every leased shared-memory segment deterministically."""
        cfg = tiny_config(
            probe_names=("ethanol", "acetone", "urea"), probe_workers=2
        )
        cancelled_from = []

        def cancel_after_first_dock(event):
            if event.stage == "dock" and event.index == 0:
                cancelled_from.append(event.job_id)
                service.job(event.job_id).cancel()

        service = FTMapService(on_event=cancel_after_first_dock)
        with service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            with pytest.raises(JobCancelled):
                handle.result(timeout=300)
            assert handle.status() == JOB_CANCELLED
            assert cancelled_from == [handle.job_id]
            assert all(e.stage != "consensus" for e in handle.events())
        assert shm_bytes_in_use() == 0

    def test_failing_job_reports_error(self, protein):
        cfg = tiny_config(probe_names=("unobtainium",))
        with FTMapService() as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            with pytest.raises(KeyError, match="unobtainium"):
                handle.result(timeout=300)
            assert handle.status() == "failed"
            assert isinstance(handle.exception(), KeyError)

    def test_result_timeout(self, protein):
        cfg = tiny_config()
        with FTMapService(max_workers=1) as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.001)
            handle.result(timeout=300)

    def test_submit_after_close_rejected(self, protein):
        service = FTMapService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(MapRequest(receptor=protein, config=tiny_config()))

    def test_duplicate_request_id_rejected(self, protein):
        cfg = tiny_config(probe_names=("ethanol",))
        with FTMapService() as service:
            first = service.submit(
                MapRequest(receptor=protein, config=cfg, request_id="req-1")
            )
            with pytest.raises(ValueError, match="duplicate"):
                service.submit(
                    MapRequest(receptor=protein, config=cfg, request_id="req-1")
                )
            first.result(timeout=300)


#: Every probe scheduling branch, run explicitly whatever the CPU count
#: (``auto`` picks ``process`` or ``pipeline`` from it).
STREAMING_MODES = ("sequential", "pipeline", "process")

#: Whole-stage artifact kinds: the parent's cache owns them in every mode.
STAGE_KINDS = ("dock-results", "minimize-results")


def stage_kind_counts():
    """Parent-side lookup and put counts of the whole-stage artifacts."""
    reg = registry()
    lookups = reg.counter(
        "repro_cache_lookups_total", ("kind", "outcome"),
        help="Cache lookups by artifact kind (key namespace) and outcome.",
    )
    puts = reg.counter(
        "repro_cache_puts_total", ("kind",),
        help="Cache stores by artifact kind (key namespace).",
    )
    counts = {}
    for kind in STAGE_KINDS:
        for outcome in ("hit", "miss"):
            counts[kind, outcome] = lookups.value(kind=kind, outcome=outcome)
        counts[kind, "put"] = puts.value(kind=kind)
    return counts


def counts_delta(after, before):
    return {key: after[key] - before[key] for key in after}


class TestCacheAwareServing:
    @pytest.mark.parametrize("streaming", STREAMING_MODES)
    def test_concurrent_requests_share_receptor_artifacts(
        self, protein, streaming
    ):
        """Two in-flight requests against one receptor: the second is
        served from the first one's artifacts (grids, spectra, whole dock
        results) — the mapped-or-cached serving story."""
        cfg = tiny_config()
        manager = CacheManager(policy="memory")
        with FTMapService(
            cache=manager, max_workers=1, streaming=streaming
        ) as service:
            fingerprint = service.register_receptor(protein)
            first = service.submit(
                MapRequest(receptor=fingerprint, config=cfg)
            )
            second = service.submit(
                MapRequest(receptor=fingerprint, config=cfg)
            )
            result_1 = first.result(timeout=300)
            result_2 = second.result(timeout=300)

        assert result_1.cache_stats.misses > 0        # cold: filled the cache
        assert result_2.cache_stats.misses == 0       # warm: pure reuse
        assert result_2.cache_stats.hits == 2 * len(cfg.probe_names)
        assert result_2.cache_stats.hit_rate == 1.0
        assert_bitwise_equal(result_1.result, result_2.result)

    @pytest.mark.parametrize("streaming", STREAMING_MODES)
    def test_overlapping_requests_attribute_stats_independently(
        self, protein, streaming
    ):
        """Request-scoped stats stay disjoint when jobs overlap on the
        shared manager (global snapshot deltas would cross-count)."""
        cfg = tiny_config()
        manager = CacheManager(policy="memory")
        with FTMapService(
            cache=manager, max_workers=2, streaming=streaming
        ) as service:
            fingerprint = service.register_receptor(protein)
            warm = service.map(fingerprint, cfg)      # fill the cache
            handles = [
                service.submit(MapRequest(receptor=fingerprint, config=cfg))
                for _ in range(2)
            ]
            results = [h.result(timeout=300) for h in handles]
        assert warm.streaming == streaming
        assert warm.cache_stats.misses > 0
        for result in results:
            assert result.cache_stats.misses == 0
            assert result.cache_stats.hits == 2 * len(cfg.probe_names)
            assert_bitwise_equal(warm.result, result.result)

    def test_cold_then_warm_stage_stats_match_across_modes(self, protein):
        """Whole-stage artifact traffic does not depend on the scheduling
        mode: every mode looks up, misses and stores the dock results and
        minimized ensembles exactly as the sequential loop does."""
        cfg = tiny_config()
        n = len(cfg.probe_names)
        per_mode = {}
        for streaming in STREAMING_MODES:
            with FTMapService(
                cache=CacheManager(policy="memory"), streaming=streaming
            ) as service:
                before = stage_kind_counts()
                cold = service.map(protein, cfg)
                middle = stage_kind_counts()
                warm = service.map(protein, cfg)
                after = stage_kind_counts()
            assert cold.streaming == warm.streaming == streaming
            assert warm.cache_stats.hits == 2 * n
            assert warm.cache_stats.misses == 0
            assert warm.cache_stats.puts == 0
            per_mode[streaming] = (
                counts_delta(middle, before),
                counts_delta(after, middle),
                cold,
            )
        cold_counts, warm_counts, reference = per_mode["sequential"]
        for kind in STAGE_KINDS:
            assert cold_counts[kind, "miss"] == n
            assert cold_counts[kind, "put"] == n
            assert warm_counts[kind, "hit"] == n
        for streaming in STREAMING_MODES:
            assert per_mode[streaming][0] == cold_counts
            assert per_mode[streaming][1] == warm_counts
            assert_bitwise_equal(reference.result, per_mode[streaming][2].result)

    def test_warm_process_request_starts_no_workers(self, protein, monkeypatch):
        """A probe the parent's cache serves whole never reaches a worker,
        and a request made only of such probes forks nothing."""
        import repro.workers as workers

        cfg = tiny_config()
        started = []

        class CountingPool(workers.ProcessWorkerPool):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(workers, "ProcessWorkerPool", CountingPool)
        with FTMapService(
            cache=CacheManager(policy="memory"), streaming="process"
        ) as service:
            cold = service.map(protein, cfg)
            assert len(started) == 1
            before = worker_stats()
            warm = service.map(protein, cfg)
            after = worker_stats()
        assert len(started) == 1
        assert after["stage_tasks_total"] == before["stage_tasks_total"]
        assert after["pools"] == before["pools"] == 0
        assert shm_bytes_in_use() == 0
        assert warm.streaming == "process"
        assert all(pr.minimize_cached for pr in warm.probe_results.values())
        assert_bitwise_equal(cold.result, warm.result)

    def test_cache_off_reports_no_stats(self, protein):
        cfg = tiny_config(cache_policy="off")
        manager = CacheManager(policy="off")
        with FTMapService(cache=manager) as service:
            mapped = service.map(protein, cfg)
        assert mapped.cache_stats is None
        assert manager.stats.lookups == 0

    def test_request_config_resolves_its_own_cache(self, protein):
        """Without an injected manager, a request whose config names an
        explicit policy does not touch the service's default manager."""
        cfg = tiny_config(
            probe_names=("ethanol",), cache_policy="memory",
            cache_memory_bytes=1 << 22,
        )
        with FTMapService() as service:        # default config: inherit/off
            mapped = service.map(protein, cfg)
        assert service.cache.stats.lookups == 0
        assert mapped.cache_stats is not None
        assert mapped.cache_stats.lookups > 0

    def test_injected_cache_wins_over_request_policy(self, protein):
        """An explicitly injected manager is pinned: every request uses
        it regardless of its config's cache fields — the contract the
        legacy run_ftmap/run_sweep ``cache=`` arguments rely on."""
        pinned = CacheManager(policy="memory")
        cfg = tiny_config(
            probe_names=("ethanol",), cache_policy="memory",
            cache_memory_bytes=1 << 22,
        )
        with FTMapService(cache=pinned) as service:
            mapped = service.map(protein, cfg)
        assert pinned.stats.lookups > 0
        assert mapped.cache_stats is not None
        assert mapped.cache_stats.lookups == pinned.stats.lookups

    def test_legacy_explicit_cache_argument_respected(self, protein):
        """run_ftmap(cache=manager) must use that manager even when the
        config names its own cache policy (pre-service behavior)."""
        manager = CacheManager(policy="memory")
        cfg = tiny_config(probe_names=("ethanol",), cache_policy="memory")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            result = run_ftmap(protein, cfg, cache=manager)
        assert manager.stats.puts > 0
        assert result.cache_stats is not None
        assert result.cache_stats.puts == manager.stats.puts


class TestSharedCacheFleet:
    """Two service instances sharing one cache directory — the N-replica
    deployment, minus the second host."""

    def test_cold_miss_on_a_is_warm_hit_on_b(self, protein, tmp_path):
        cfg = tiny_config()
        service_a = FTMapService(
            cache=CacheManager(policy="disk", directory=tmp_path)
        )
        service_b = FTMapService(
            cache=CacheManager(policy="disk", directory=tmp_path)
        )
        with service_a, service_b:
            cold = service_a.map(protein, cfg)
            warm = service_b.map(protein, cfg)
        assert cold.cache_stats.misses > 0            # A filled the directory
        assert warm.cache_stats.disk_hits > 0         # B read A's artifacts
        assert warm.cache_stats.misses == 0
        assert_bitwise_equal(cold.result, warm.result)

    def test_sixteen_concurrent_misses_compute_one_grid(
        self, protein, tmp_path, monkeypatch
    ):
        """The acceptance shape at the artifact level: 16 threads miss the
        receptor-grid key at once — exactly one grid computation runs,
        the other 15 register as single-flight waits."""
        import time as _time

        from repro.grids import energyfunctions as ef

        manager = CacheManager(policy="disk", directory=tmp_path)
        spec = ef.GridSpec(n=24, spacing=1.25)
        real_protein_grids = ef.protein_grids
        computes = []

        def counting_grids(*args, **kwargs):
            computes.append(1)
            # Hold the flight open until every follower is waiting on it,
            # so the wait count is deterministic (generously bounded).
            deadline = _time.monotonic() + 30.0
            while (
                manager.singleflight_waits < 15
                and _time.monotonic() < deadline
            ):
                _time.sleep(0.002)
            return real_protein_grids(*args, **kwargs)

        monkeypatch.setattr(ef, "protein_grids", counting_grids)
        results = [None] * 16

        def racer(i):
            results[i] = ef.protein_grids_cached(
                protein, spec, cache=manager
            )

        threads = [
            threading.Thread(target=racer, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(computes) == 1                     # one grid computation
        assert manager.singleflight_waits == 15       # the counter, asserted
        first = results[0]
        assert first is not None
        for other in results[1:]:
            assert np.array_equal(other.channels, first.channels)


class TestProcessStreamingForkSafety:
    """Stage workers fork while other request threads run: whatever locks
    those threads hold at that moment must not hang the worker."""

    def test_dock_stage_task_finishes_with_parent_locks_held_at_fork(
        self, protein, monkeypatch
    ):
        from multiprocessing import resource_tracker

        import repro.obs.logging as obs_logging
        import repro.workers.pool as pool_mod
        import repro.workers.shm as shm_mod
        from repro.structure import build_probe
        from repro.workers import ProcessWorkerPool, ShmArena
        from repro.workers import stages

        cfg = tiny_config(cache_policy="memory")
        manager = CacheManager(policy="memory")
        locks = [
            registry()._lock,
            manager._lock,
            obs_logging._logger._lock,
            shm_mod._BYTES_LOCK,
            pool_mod._STATS_LOCK,
            resource_tracker._resource_tracker._lock,
        ]
        holding, forked = threading.Event(), threading.Event()

        def hold():
            with contextlib.ExitStack() as stack:
                for lock in locks:
                    stack.enter_context(lock)
                holding.set()
                forked.wait(30)

        real_start = ProcessWorkerPool._start_worker

        def start_then_release(pool):
            worker = real_start(pool)   # forks with every lock held
            forked.set()
            return worker

        monkeypatch.setattr(
            ProcessWorkerPool, "_start_worker", start_then_release
        )
        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert holding.wait(10)
        pool = ProcessWorkerPool(
            1,
            initializer=stages.init_stage_worker,
            initargs=(protein, cfg, stages.tier_config(manager)),
            name="fork-safety",
        )
        arena = ShmArena(prefix="repro-fork-safety")
        try:
            out = pool.submit(
                stages.dock_stage_task, "ethanol", build_probe("ethanol"),
                arena.reserve("d0"),
            ).result(timeout=30)
            arena.lease(out["poses"])
            assert len(stages.unpack_poses(out["poses"])) == (
                cfg.num_rotations * cfg.poses_per_rotation
            )
            # The worker's own tier served the intermediates.
            assert out["cache"].lookups > 0
        finally:
            forked.set()
            holder.join(10)
            pool.close(cancel=True)
            arena.release_all()
        assert not holder.is_alive()
        assert shm_bytes_in_use() == 0

    def test_overlapping_process_jobs_complete(self, protein):
        """Two process-streamed jobs at a time, each forking its own pool
        while the other runs; every round finishes, bitwise-equal."""
        cfg = tiny_config()
        with FTMapService(streaming="sequential") as service:
            reference = service.map(protein, cfg)
        service = FTMapService(
            cache=CacheManager(policy="off"), max_workers=2,
            streaming="process",
        )
        try:
            fingerprint = service.register_receptor(protein)
            for _ in range(5):
                handles = [
                    service.submit(MapRequest(receptor=fingerprint, config=cfg))
                    for _ in range(2)
                ]
                for handle in handles:
                    result = handle.result(timeout=120)
                    assert result.streaming == "process"
                    assert_bitwise_equal(reference.result, result.result)
        finally:
            service.close(wait=False)
        assert shm_bytes_in_use() == 0


class TestServiceValidation:
    def test_bad_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            FTMapService(max_workers=0)

    def test_bad_streaming(self):
        with pytest.raises(ValueError, match="streaming"):
            FTMapService(streaming="warp")

    def test_run_ftmap_warns_deprecation(self, protein):
        with pytest.warns(DeprecationWarning, match="FTMapService"):
            run_ftmap(protein, tiny_config(probe_names=("ethanol",)))


class TestThreadSafetyOfScopes:
    def test_map_from_two_caller_threads(self, protein):
        """Synchronous map() from concurrent caller threads: each result
        still carries its own request-scoped stats."""
        cfg = tiny_config()
        manager = CacheManager(policy="memory")
        results = {}
        with FTMapService(cache=manager) as service:
            service.map(protein, cfg)                 # warm the cache

            def call(tag):
                results[tag] = service.map(protein, cfg)

            threads = [
                threading.Thread(target=call, args=(t,)) for t in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for mapped in results.values():
            assert mapped.cache_stats.misses == 0
            assert mapped.cache_stats.hits == 2 * len(cfg.probe_names)
