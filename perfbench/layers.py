"""The program's layers, as the traced run sees them.

:class:`LayerProbe` wraps the public entry points of every layer (see
:data:`SELF_TIME_METRICS` for where each span's self time lands), counts
work at the same boundaries, and turns spans plus the reports the
program already returns into the per-layer metrics.

Rank agents of a standing pool run in other processes, outside these
wrappers; their numbers come from the job reports instead
(``PoolJobReport.rank_results``, ``wire_totals``, plan hits/misses).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import stats
from perfbench.tracing import Tracer, attribute

#: Per-op self-time metrics.  Together with ``trace.unattributed_s``
#: they add up to ``trace.wall_s``.
SELF_TIME_METRICS = (
    "fft.slab_s",
    "fft.zstage_s",
    "fft.idft_yx_s",
    "fft.plan_build_s",
    "local_conv.self_s",
    "decomposition.extract_s",
    "sampling.pattern_s",
    "accumulate.s",
    "serialize.encode_s",
    "serialize.decode_s",
    "comm.bcast_s",
    "comm.exchange_s",
    "driver.assemble_s",
    "pool.self_s",
    "serve.self_s",
)

FFT_METRICS = ("fft.slab_s", "fft.zstage_s", "fft.idft_yx_s", "fft.plan_build_s")


class LayerProbe:
    """Installs the layer wrappers and collects what they observe."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        #: (pattern key, box lo, box hi) -> reconstruct_box calls
        self.boxes: Counter = Counter()
        self.patterns: Dict[tuple, object] = {}
        self.batch_sizes: List[int] = []
        self.queue_waits: List[float] = []
        self.pool_reports: list = []

    # -- wrappers ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point until :meth:`restore`."""
        from repro.core import (
            accumulate, checkpoint, decomposition, local_conv, pipeline, policy,
        )
        from repro.dist import collectives, launcher, worker
        from repro.fft import pruned_plan
        from repro.pool import pool
        from repro.serve import dist_backend, server

        t = self.tracer
        plan = pruned_plan.PrunedPlan
        t.patch(plan, "forward_slab", "fft.forward_slab", "fft.slab_s")
        t.patch(plan, "zstage", "fft.zstage", "fft.zstage_s")
        t.patch(plan, "idft_z", "fft.idft_z", "fft.zstage_s")
        t.patch(plan, "idft_y", "fft.idft_y", "fft.idft_yx_s")
        t.patch(plan, "idft_x", "fft.idft_x", "fft.idft_yx_s")
        t.patch(pruned_plan.PlanCache, "get", factory=self._plan_get)
        t.patch(local_conv.LocalConvolution, "convolve", "local_conv.convolve",
                "local_conv.self_s", self._count("local_conv.calls"))
        t.patch(decomposition.DomainDecomposition, "extract",
                "decomposition.extract", "decomposition.extract_s",
                self._count("decomposition.extract_calls"))
        t.patch(policy.SamplingPolicy, "pattern_for", "sampling.pattern_for",
                "sampling.pattern_s")
        t.patch(pipeline, "accumulate_global", "accumulate.global", "accumulate.s")
        for module in (accumulate, worker):
            t.patch(module, "reconstruct_box", "accumulate.reconstruct_box",
                    "accumulate.s", self._note_box)
        t.patch(worker, "checkpoint_segments", "serialize.checkpoint_segments",
                "serialize.encode_s")
        t.patch(worker, "join_checkpoint_segments", "serialize.join",
                "serialize.encode_s", self._note_encoded)
        t.patch(checkpoint, "serialize_segments", "serialize.serialize_segments",
                "serialize.encode_s")
        t.patch(worker, "checkpoint_from_bytes", "serialize.checkpoint_from_bytes",
                "serialize.decode_s")
        t.patch(checkpoint, "deserialize_compressed",
                "serialize.deserialize_compressed", "serialize.decode_s")
        comm = collectives.Communicator
        t.patch(comm, "broadcast", "comm.broadcast", "comm.bcast_s")
        t.patch(comm, "sparse_allgather", "comm.sparse_allgather", "comm.exchange_s")
        for module in (launcher, pool):
            t.patch(module, "assemble_blocks", "driver.assemble_blocks",
                    "driver.assemble_s")
        t.patch(pool.RankPool, "submit", "pool.submit", "pool.self_s",
                self._note_pool_report)
        t.patch(server.ConvolutionServer, "submit", "serve.submit", "serve.self_s")
        backend = dist_backend.PoolBackend
        t.patch(backend, "execute", "serve.execute", "serve.self_s",
                self._note_batch)
        t.patch(backend, "route", "serve.route", "serve.self_s")

    def restore(self) -> None:
        self.tracer.restore()

    def _count(self, key: str):
        def hook(_args, _kwargs, _result):
            self.counts[key] += 1
        return hook

    def _plan_get(self, original):
        """``PlanCache.get``: a span only for misses (plan builds); a hit
        is a dict lookup whose time stays with the caller."""
        tracer = self.tracer

        def get(cache, *args, **kwargs):
            misses = cache.misses

            def on_exit(_a, _k, _r):
                miss = cache.misses > misses
                self.counts["fft.plan_misses" if miss else "fft.plan_hits"] += 1
                return miss

            return tracer.call(original, "fft.plan_build", "fft.plan_build_s",
                               on_exit, (cache,) + args, kwargs)

        return get

    def _note_box(self, args, kwargs, _result):
        compressed, corner, shape = args[:3]
        pattern = compressed.pattern
        key = (pattern.n, tuple(pattern.subdomain_corner), pattern.subdomain_size)
        self.patterns.setdefault(key, pattern)
        lo = tuple(int(c) for c in corner)
        hi = tuple(a + int(s) for a, s in zip(lo, shape))
        self.boxes[(key, lo, hi)] += 1

    def _note_encoded(self, _args, _kwargs, result):
        self.counts["serialize.bytes"] += len(result)

    def _note_pool_report(self, _args, _kwargs, report):
        self.pool_reports.append(report)

    def _note_batch(self, args, _kwargs, _result):
        batch = args[1]
        self.batch_sizes.append(len(batch.requests))
        for request in batch.requests:
            self.queue_waits.append(request.run_started_at - request.queued_at)

    # -- derived metrics -----------------------------------------------------
    def useful_cell_frac(self) -> float:
        """Octree cells that intersect the requested box / cells iterated."""
        useful = iterated = 0
        geometry = {}
        for (key, lo, hi), calls in self.boxes.items():
            if key not in geometry:
                cells = self.patterns[key].cells
                corners = np.array([c.corner for c in cells], dtype=np.int64)
                sizes = np.array([c.size for c in cells], dtype=np.int64)
                geometry[key] = (corners, sizes[:, None])
            corners, sizes = geometry[key]
            hit = np.all((corners < np.array(hi)) & (corners + sizes > np.array(lo)),
                         axis=1)
            useful += calls * int(hit.sum())
            iterated += calls * len(corners)
        return useful / iterated if iterated else 0.0


def self_times(probe: LayerProbe, windows: Sequence[Tuple[float, float]]
               ) -> Tuple[Dict[str, float], float, float]:
    """Per-layer self time, unattributed time and wall time, summed over
    the traced ``windows``."""
    totals: Dict[str, float] = {m: 0.0 for m in SELF_TIME_METRICS}
    unattributed = wall = 0.0
    for t0, t1 in windows:
        layer, rest = attribute(probe.tracer.spans_between(t0, t1), t0, t1)
        for name, seconds in layer.items():
            totals[name] += seconds
        unattributed += rest
        wall += t1 - t0
    return totals, unattributed, wall


def rank_times(rank_results: dict) -> List[Tuple[float, float]]:
    """``(compute_s, exchange_s)`` of each rank of one job.

    Kept in place of the ``RankResult`` objects, whose dense output
    blocks (about 2 MiB per ``dist-local`` call) would otherwise make the
    benchmark's resident set grow with the number of calls a run makes.
    """
    return [(r.compute_s, r.exchange_s) for r in rank_results.values()]


def rank_metrics(jobs: Iterable[List[Tuple[float, float]]]) -> Dict[str, float]:
    """Slowest-rank compute/exchange and compute skew, per job (mean),
    from each job's :func:`rank_times`."""
    compute_max, exchange_max, skews = [], [], []
    for ranks in jobs:
        compute = [c for c, _x in ranks]
        compute_max.append(max(compute))
        exchange_max.append(max(x for _c, x in ranks))
        skews.append(max(compute) / min(compute) if min(compute) > 0 else 0.0)
    return {
        "rank.compute_s_max": stats.mean(compute_max),
        "rank.exchange_s_max": stats.mean(exchange_max),
        "rank.skew": stats.mean(skews),
    }


def wire_metrics(wire_totals: Sequence[Dict[str, int]],
                 model_bytes: Sequence[int]) -> Dict[str, float]:
    """Per-op wire volume split by category, and exchange bytes over the
    exact Eq 6 value bytes."""
    bcast = [w.get("sent.bcast.bytes", 0) for w in wire_totals]
    exchange = [w.get("sent.exchange.bytes", 0) for w in wire_totals]
    frames = [
        sum(v for k, v in w.items() if k.startswith("sent.") and k.endswith(".frames"))
        for w in wire_totals
    ]
    total = [
        sum(v for k, v in w.items() if k.startswith("sent.") and k.endswith(".bytes"))
        for w in wire_totals
    ]
    ratios = [e / m for e, m in zip(exchange, model_bytes) if m]
    return {
        "wire.bytes_per_op": stats.mean(total),
        "wire.bcast_bytes_per_op": stats.mean(bcast),
        "wire.exchange_bytes_per_op": stats.mean(exchange),
        "wire.frames_per_op": stats.mean(frames),
        "wire.over_model": stats.mean(ratios),
    }


def layer_metrics(probe: LayerProbe, windows, ops: int, untraced_p50: float,
                  traced_p50: float, extra: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Every per-layer metric, per op; ``extra`` overrides/extends them."""
    totals, unattributed, wall = self_times(probe, windows)
    per_op = max(ops, 1)
    out = {name: seconds / per_op for name, seconds in totals.items()}
    counts = probe.counts
    lookups = counts["fft.plan_hits"] + counts["fft.plan_misses"]
    extracts = counts["decomposition.extract_calls"]
    tracer = probe.tracer
    out.update({
        "fft.plan_hit_frac": counts["fft.plan_hits"] / lookups if lookups else 0.0,
        "local_conv.calls": counts["local_conv.calls"] / per_op,
        "decomposition.active_frac": (counts["local_conv.calls"] / extracts
                                      if extracts else 0.0),
        "accumulate.reconstruct_calls": sum(probe.boxes.values()) / per_op,
        "accumulate.useful_cell_frac": probe.useful_cell_frac(),
        "serialize.bytes_per_op": counts["serialize.bytes"] / per_op,
        "pool.submit_s": stats.median(tracer.durations("pool.submit")),
        "serve.admit_s": stats.mean(tracer.durations("serve.submit")),
        "serve.route_s": stats.mean(tracer.durations("serve.route")),
        "serve.execute_s": stats.mean(tracer.durations("serve.execute")),
        "serve.queue_wait_p50_s": stats.median(probe.queue_waits),
        "serve.batch_size_mean": stats.mean(probe.batch_sizes),
        "trace.wall_s": wall / per_op,
        "trace.unattributed_s": unattributed / per_op,
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0
                                if untraced_p50 else 0.0),
    })
    out.update(extra or {})
    return out
