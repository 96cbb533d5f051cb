"""The dist-run driver: launch ranks, validate bytes, survive failures.

:func:`dist_run` executes the full low-communication pipeline as a real
SPMD job — threads on an in-process fabric for ``local``
(:mod:`repro.dist.runtime`), an ephemeral standing pool of agent
processes for ``tcp`` (:class:`~repro.pool.RankPool`: spawn, connect,
submit, down) — then:

- assembles the global result from the per-rank blocks (bitwise identical
  to ``run_serial`` — asserted by the test suite and the CLI);
- if any rank died, re-runs the job as a *restore run* of the same rank
  program (:func:`restore_point`): the checkpoint blobs the ranks posted
  before the exchange are merged and broadcast, and only the missing
  sub-domains are recomputed — still bitwise identical.  The ``local``
  transport re-runs on a fresh fabric; the pool hands off in-mesh to a
  replacement agent;
- cross-validates the measured exchange traffic against the paper's Eq 6
  cost model: the exchanged *value* bytes are predicted exactly
  (``(P-1) * itemsize * total sample count``), and the full wire volume
  (octree metadata + frame headers included) must stay within a few
  percent of that prediction;
- compares against the :class:`~repro.cluster.comm.SimulatedComm`
  substrate, whose allgather ledger bytes equal the exact value-byte
  prediction (:func:`simulated_crosscheck`).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field as dataclass_field
from dataclasses import replace as dataclass_replace
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.cluster.comm import SimulatedComm
from repro.cluster.cost import sparse_sample_count
from repro.core.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.core.decomposition import DomainDecomposition
from repro.dist.ledger import merge_wire_snapshots
from repro.dist.runtime import run_spmd
from repro.dist.worker import (
    DistConfig,
    RankResult,
    build_pipeline,
    composite_field,
)
from repro.errors import ConfigurationError, RankFailure
from repro.kernels.gaussian import GaussianKernel
from repro.serve.loadgen import parse_policy

_PRECISION_BYTES = {"float64": 8, "float32": 4}


@dataclass
class DistRunReport:
    """Everything one dist-run produced: result, traffic, model check."""

    approx: np.ndarray
    config: DistConfig
    elapsed_s: float
    #: ranks that died (empty on a clean run)
    failed_ranks: List[int] = dataclass_field(default_factory=list)
    #: True when the result came from the checkpoint-recovery path
    recovered: bool = False
    rank_results: Dict[int, RankResult] = dataclass_field(default_factory=dict)
    #: summed per-rank ledger counters (``sent.exchange.bytes``, ...)
    wire_totals: Dict[str, int] = dataclass_field(default_factory=dict)
    #: measured: total bytes-on-wire in the sparse exchange, all ranks
    exchange_wire_bytes: int = 0
    #: exact Eq 6 accounting: ``(P-1) * itemsize * total sample count``
    predicted_value_bytes: int = 0
    #: naive Eq 6 closed form (``flat:R`` policies only, else 0)
    naive_eq6_bytes: int = 0
    max_compute_s: float = 0.0
    max_exchange_s: float = 0.0
    #: slowest rank's streamed-send time hidden behind compute (overlap
    #: mode only; 0.0 in barrier mode)
    max_exchange_hidden_s: float = 0.0

    @property
    def wire_over_model(self) -> float:
        """Measured exchange wire bytes over the exact Eq 6 prediction.

        1.0 = the wire moved exactly the modeled value bytes; the excess
        is octree metadata + frame headers.  0.0 when P == 1 (no wire).
        """
        if not self.predicted_value_bytes:
            return 0.0
        return self.exchange_wire_bytes / self.predicted_value_bytes


def active_subdomain_indices(config: DistConfig, field: np.ndarray) -> List[int]:
    """Indices of sub-domains with any non-zero sample in ``field``.

    These are the sub-domains that compute, checkpoint, and exchange;
    all-zero boxes are skipped everywhere (worker, recovery, and the Eq 6
    accounting all agree on this set).
    """
    decomp = DomainDecomposition(n=config.n, k=config.k)
    field = np.asarray(field)
    return [sub.index for sub in decomp if np.any(field[sub.slices()])]


def expected_exchange_value_bytes(
    config: DistConfig,
    field: np.ndarray,
    exclude_indices: Optional[frozenset] = None,
) -> int:
    """Exact Eq 6 accounting for the sparse exchange's *value* payload.

    Every active (non-zero) sub-domain contributes its sampling pattern's
    ``sample_count`` values; each value crosses the wire once per peer.
    This is exact: the SimulatedComm allgather ledger reports precisely
    this number, and the real transports move it plus small bounded
    framing/metadata overhead.

    ``exclude_indices`` drops sub-domains from the accounting — a pool
    recovery job re-exchanges only the entries absent from the merged
    checkpoint, so its prediction excludes everything already restored.
    """
    itemsize = _PRECISION_BYTES.get(config.precision)
    if itemsize is None:
        raise ConfigurationError(
            f"unknown precision {config.precision!r} "
            f"(expected one of {sorted(_PRECISION_BYTES)})"
        )
    policy = parse_policy(config.policy)
    decomp = DomainDecomposition(n=config.n, k=config.k)
    field = np.asarray(field)
    skip = exclude_indices or frozenset()
    samples = 0
    for sub in decomp:
        if sub.index in skip:
            continue
        if np.any(field[sub.slices()]):
            samples += policy.pattern_for(config.n, config.k, sub.corner).sample_count
    return (config.num_ranks - 1) * itemsize * samples


def naive_eq6_bytes(config: DistConfig) -> int:
    """The paper's closed-form Eq 6 point count, in bytes, as a reference.

    Only defined for ``flat:R`` policies (banded rates vary per cell);
    returns 0 otherwise.  The closed form undercounts the implementation
    (per-axis product sampling + octree cell-face duplication), so it is
    recorded as a reference ratio, not an invariant.
    """
    if not config.policy.startswith("flat:"):
        return 0
    rate = int(config.policy.split(":", 1)[1])
    itemsize = _PRECISION_BYTES.get(config.precision, 8)
    points = config.k**3 + sparse_sample_count(config.n, config.k, rate)
    return int((config.num_ranks - 1) * itemsize * points)


def default_spectrum(config: DistConfig) -> np.ndarray:
    """The job's default kernel spectrum (Gaussian of ``config.sigma``)."""
    return GaussianKernel(n=config.n, sigma=config.sigma).spectrum()


def assemble_blocks(
    config: DistConfig, results: Dict[int, RankResult]
) -> np.ndarray:
    """Place every rank's accumulated blocks into the global grid.

    The reassembly step shared by the cold driver (:func:`dist_run`) and
    the standing pool (:meth:`repro.pool.RankPool.submit`): blocks are
    disjoint by construction (each sub-domain belongs to exactly one
    rank), so placement order cannot matter — the result is bitwise
    whatever order the rank reports arrived in.
    """
    decomp = DomainDecomposition(n=config.n, k=config.k)
    approx = np.zeros((config.n,) * 3, dtype=np.float64)
    for result in results.values():
        for index, block in result.blocks.items():
            approx[decomp.subdomain(index).slices()] = block
    return approx


@dataclass(frozen=True)
class RestorePoint:
    """What a restore run resumes from after a failed attempt."""

    #: merged checkpoint of every blob the failed attempt posted
    checkpoint: bytes
    #: sub-domain indices the checkpoint holds (the retry neither
    #: recomputes nor exchanges them)
    restored: frozenset
    #: the job's config with fault injection cleared, so the retry does
    #: not re-inject the fault that killed the attempt
    config: DistConfig


def restore_point(config: DistConfig, blobs: Iterable[bytes]) -> RestorePoint:
    """Merge a failed attempt's posted checkpoint blobs into a restore point.

    ``blobs`` mixes whole-run blobs (barrier mode) and per-chunk blobs
    (overlap mode) freely — every one restores one or more sub-domains.
    """
    merged = {}
    for blob in blobs:
        merged.update(checkpoint_from_bytes(blob))
    decomp = DomainDecomposition(n=config.n, k=config.k)
    checkpoint = checkpoint_to_bytes(
        [(decomp.subdomain(i), f) for i, f in sorted(merged.items())],
        precision=config.precision,
    )
    return RestorePoint(
        checkpoint=checkpoint,
        restored=frozenset(merged),
        config=dataclass_replace(config, fail_rank=None, fail_stage=None),
    )


def dist_run(
    config: DistConfig,
    field: Optional[np.ndarray] = None,
    spectrum: Optional[np.ndarray] = None,
) -> DistRunReport:
    """Run the pipeline as a real SPMD job; returns the full report.

    ``field`` defaults to the CLI's composite input for ``config.seed``;
    ``spectrum`` defaults to a Gaussian kernel of width ``config.sigma``.
    """
    if field is None:
        field = composite_field(config.n, config.seed)
    field = np.asarray(field, dtype=np.float64)
    if spectrum is None:
        spectrum = default_spectrum(config)

    t0 = time.perf_counter()
    if config.transport == "tcp":
        pooled = _run_on_pool(config, field, spectrum)
        approx, results = pooled.approx, pooled.rank_results
        failed_ranks = pooled.failed_ranks
        predicted = pooled.predicted_value_bytes
    else:
        outcome = run_spmd(config, field, spectrum)
        failed_ranks = sorted(outcome.failures)
        restored: frozenset = frozenset()
        if not outcome.clean:
            point = restore_point(config, outcome.all_checkpoint_blobs())
            outcome = run_spmd(
                point.config, field, spectrum, restore=point.checkpoint
            )
            if not outcome.clean:
                raise RankFailure(
                    f"restore run failed on ranks {sorted(outcome.failures)}: "
                    f"{outcome.failures}"
                )
            restored = point.restored
        results = outcome.results
        approx = assemble_blocks(config, results)
        predicted = expected_exchange_value_bytes(
            config, field, exclude_indices=restored or None
        )
    elapsed = time.perf_counter() - t0

    wire_totals = merge_wire_snapshots([r.wire for r in results.values()])
    return DistRunReport(
        approx=approx,
        config=config,
        elapsed_s=elapsed,
        failed_ranks=failed_ranks,
        recovered=bool(failed_ranks),
        rank_results=results,
        wire_totals=wire_totals,
        exchange_wire_bytes=wire_totals.get("sent.exchange.bytes", 0),
        predicted_value_bytes=predicted,
        naive_eq6_bytes=naive_eq6_bytes(config),
        max_compute_s=max((r.compute_s for r in results.values()), default=0.0),
        max_exchange_s=max((r.exchange_s for r in results.values()), default=0.0),
        max_exchange_hidden_s=max(
            (r.exchange_hidden_s for r in results.values()), default=0.0
        ),
    )


def _run_on_pool(config: DistConfig, field: np.ndarray, spectrum: np.ndarray):
    """One job on an ephemeral pool: spawn, connect, submit, down."""
    from repro.pool.pool import RankPool  # the pool builds on this module

    with tempfile.TemporaryDirectory(prefix="repro-dist-") as rendezvous:
        pool = RankPool(
            f"file://{rendezvous}",
            recv_timeout_s=config.recv_timeout_s,
            heartbeat_s=config.heartbeat_s,
        )
        try:
            pool.spawn(config.num_ranks)
            pool.connect(config.num_ranks)
            return pool.submit(config, field=field, spectrum=spectrum)
        finally:
            pool.down()


def simulated_crosscheck(
    config: DistConfig,
    field: Optional[np.ndarray] = None,
    spectrum: Optional[np.ndarray] = None,
) -> dict:
    """Run the same job on the simulated substrate for cross-validation.

    Returns the simulated result and its ledger numbers: the allgather
    bytes are exactly :func:`expected_exchange_value_bytes`, so simulated
    accounting, real wire accounting, and the Eq 6 model triangulate.
    """
    if field is None:
        field = composite_field(config.n, config.seed)
    field = np.asarray(field, dtype=np.float64)
    if spectrum is None:
        spectrum = default_spectrum(config)
    pipeline = build_pipeline(config, spectrum)
    comm = SimulatedComm(config.num_ranks)
    result = pipeline.run_distributed(field, comm)
    return {
        "approx": result.approx,
        "comm_bytes": result.comm_bytes,
        "comm_rounds": result.comm_rounds,
        "allgather_bytes": comm.ledger.bytes_by_type.get("allgather", 0),
        "allgather_rounds": comm.ledger.rounds_by_type.get("allgather", 0),
    }
