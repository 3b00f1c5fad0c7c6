"""Worker-process bodies of the dock and minimize pipeline stages.

The sequential path runs each stage's three steps in one place —
lookup, compute, store (:func:`repro.mapping.ftmap.dock_probe`,
:func:`~repro.mapping.ftmap.minimize_poses`).  Process streaming splits
them across the process boundary: the request's parent
:class:`~repro.cache.manager.CacheManager` is the only owner of the
whole-stage artifacts (``dock-results``, ``minimize-results``) — it
looks them up before dispatch and stores what workers return — and the
task bodies here run only the *compute* steps
(:func:`~repro.mapping.ftmap.compute_dock`,
:func:`~repro.mapping.ftmap.compute_minimize`,
:func:`~repro.mapping.ftmap.cluster_probe`) at the same fp64 numerics,
which is what makes ``streaming="process"`` bitwise-identical to
``"sequential"``.

Each worker keeps a cache tier of its own for the intermediates those
steps reuse (receptor grids, spectra).  :func:`init_stage_worker` builds
it in the child from the parent's policy, budget and directory — never
from the parent's manager object, whose forked copy carries locks and a
single-flight table that another request thread may have held at fork
time.  A disk policy shares the directory, and its single-flight
lockfiles, with the parent and other workers.  Every task returns its
tier's :class:`~repro.cache.manager.CacheStats` delta, which the parent
folds into the request's scope (:meth:`CacheManager.absorb`).

Transport:

* pose ensembles and minimized conformation stacks ship through named
  shared-memory segments (:mod:`repro.workers.shm`) whose names the
  parent reserved up front,
* everything small (run and stage provenance, cluster summaries,
  per-pose scalars, cache deltas, measured span times) rides the task
  pipe as regular pickles,
* span context crosses the process boundary serialized: the parent
  passes its stage span id, the worker measures ``perf_counter`` start/
  end (``CLOCK_MONOTONIC`` — one clock for every process on the host)
  and the parent stitches the execution span back into the request
  trace post hoc via :meth:`repro.obs.trace.Tracer.add_span`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.manager import CacheManager
from repro.docking.piper import DockedPose
from repro.geometry.transforms import RigidTransform
from repro.mapping import ftmap as _ftmap
from repro.workers.shm import ArrayBundle, map_arrays, pack_arrays

__all__ = [
    "tier_config",
    "init_stage_worker",
    "dock_stage_task",
    "minimize_stage_task",
    "pack_poses",
    "unpack_poses",
    "rebuild_minimize_stage",
]

#: (receptor, config, the worker's own cache tier) — installed once per
#: worker.
_STAGE_CTX = None

_EMPTY_COORDS = np.empty((0, 3))


def tier_config(manager: CacheManager) -> Tuple[str, int, Optional[str]]:
    """What a worker needs to build its own tier like ``manager``."""
    return manager.policy, manager.memory_bytes, manager.directory


def init_stage_worker(
    receptor, config, tier: Tuple[str, int, Optional[str]]
) -> None:
    """Install the per-request context; ``tier`` is :func:`tier_config`."""
    global _STAGE_CTX
    policy, memory_bytes, directory = tier
    _STAGE_CTX = (
        receptor,
        config,
        CacheManager(
            policy=policy, memory_bytes=memory_bytes, directory=directory
        ),
    )


# -- pose ensemble packing ----------------------------------------------------------


def pose_arrays(poses: Sequence[DockedPose]) -> Dict[str, np.ndarray]:
    """Flatten a pose list into the arrays that ship through shm."""
    n = len(poses)
    return {
        "rotation_indices": np.array(
            [p.rotation_index for p in poses], dtype=np.int64
        ),
        "rotations": (
            np.stack([np.asarray(p.rotation, dtype=np.float64) for p in poses])
            if n else np.empty((0, 3, 3))
        ),
        "voxel_offsets": np.array(
            [tuple(p.translation) for p in poses], dtype=np.int64
        ).reshape(n, 3),
        "scores": np.array([p.score for p in poses], dtype=np.float64),
        "world_rotations": (
            np.stack([p.transform.rotation for p in poses])
            if n else np.empty((0, 3, 3))
        ),
        "world_translations": (
            np.stack([p.transform.translation for p in poses])
            if n else np.empty((0, 3))
        ),
    }


def poses_from_arrays(arrays: Dict[str, np.ndarray]) -> List[DockedPose]:
    """Rebuild the pose list (bitwise: all fp64 fields round-trip exact)."""
    out: List[DockedPose] = []
    for k in range(len(arrays["scores"])):
        out.append(
            DockedPose(
                rotation_index=int(arrays["rotation_indices"][k]),
                rotation=np.array(arrays["rotations"][k]),
                translation=tuple(
                    int(v) for v in arrays["voxel_offsets"][k]
                ),
                score=float(arrays["scores"][k]),
                transform=RigidTransform(
                    np.array(arrays["world_rotations"][k]),
                    np.array(arrays["world_translations"][k]),
                ),
            )
        )
    return out


def pack_poses(segment: str, poses: Sequence[DockedPose]) -> ArrayBundle:
    return pack_arrays(segment, pose_arrays(poses))


def unpack_poses(bundle: ArrayBundle) -> List[DockedPose]:
    arrays, seg = map_arrays(bundle)
    try:
        return poses_from_arrays(arrays)
    finally:
        if seg is not None:
            seg.close()


# -- stage tasks --------------------------------------------------------------------


def dock_stage_task(
    name: str, probe, out_segment: str, parent_span_id: str = ""
) -> dict:
    """Dock one probe; poses ship back through ``out_segment``."""
    receptor, cfg, tier = _STAGE_CTX
    with tier.stats_scope() as delta:
        t0 = time.perf_counter()
        run = _ftmap.compute_dock(receptor, probe, cfg, cache=tier)
        t1 = time.perf_counter()
    bundle = pack_poses(out_segment, run.poses)
    return {
        "probe": name,
        "poses": bundle,
        # The run's provenance without its bulk payload.
        "run_meta": replace(run, poses=[]),
        "cache": delta,
        "spans": [("dock-exec", t0, t1, parent_span_id)],
    }


def minimize_stage_task(
    name: str,
    probe,
    poses_bundle: ArrayBundle,
    out_segment: str,
    parent_span_id: str = "",
) -> dict:
    """Minimize + cluster one probe's top docked poses.

    Reads the (non-empty) pose ensemble from ``poses_bundle``, refines
    the top ``minimize_top`` poses, and ships the minimized coordinate
    stack, centers and energies back through ``out_segment``.
    """
    receptor, cfg, tier = _STAGE_CTX
    top = unpack_poses(poses_bundle)[: cfg.minimize_top]
    with tier.stats_scope() as delta:
        t0 = time.perf_counter()
        engine = _ftmap.minimization_engine(receptor, probe, top, cfg)
        stage = _ftmap.compute_minimize(engine, probe.n_atoms)
        t1 = time.perf_counter()
        clusters = _ftmap.cluster_probe(stage.centers, stage.energies, cfg)
        t2 = time.perf_counter()
    bundle = pack_arrays(
        out_segment,
        {
            "coords": np.stack([r.coords for r in stage.results]),
            "centers": stage.centers,
            "energies": stage.energies,
        },
    )
    # The stage travels array-less over the pipe; the parent re-attaches
    # the stacks from shared memory.
    stage_meta = replace(
        stage,
        results=[replace(r, coords=_EMPTY_COORDS) for r in stage.results],
        centers=_EMPTY_COORDS,
        energies=np.empty((0,)),
    )
    return {
        "probe": name,
        "ensemble": bundle,
        "stage_meta": stage_meta,
        "clusters": clusters,
        "cache": delta,
        "spans": [
            ("minimize-exec", t0, t1, parent_span_id),
            ("cluster-exec", t1, t2, parent_span_id),
        ],
    }


def rebuild_minimize_stage(
    stage_meta: "_ftmap.MinimizeStage", arrays: Dict[str, np.ndarray]
) -> "_ftmap.MinimizeStage":
    """Re-attach the shared-memory arrays to a shipped stage."""
    coords = arrays["coords"]
    return replace(
        stage_meta,
        results=[
            replace(lite, coords=np.array(coords[k]))
            for k, lite in enumerate(stage_meta.results)
        ],
        centers=arrays["centers"],
        energies=arrays["energies"],
    )
