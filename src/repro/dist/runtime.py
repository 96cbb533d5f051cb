"""In-process rank launch: a :class:`DistConfig` as threads on a fabric.

:func:`run_spmd` runs every rank of one job as a thread over a fresh
:class:`~repro.dist.transport.LocalFabric`, each executing the one rank
program, :func:`~repro.dist.worker.rank_main`.  It is the ``local``
transport of :func:`~repro.dist.launcher.dist_run` and the last-resort
recovery substrate of the standing pool.  (The ``tcp`` transport runs
the same program on an ephemeral :class:`~repro.pool.RankPool`.)

The driver ends up with a :class:`SpmdOutcome`: per-rank results,
per-rank checkpoint blobs (posted *before* the exchange — the
fault-tolerance state), and a record of which ranks failed and why.  The
driver never aborts on a rank failure; deciding how to recover is the
launcher's job.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

import numpy as np

from repro.dist.collectives import Communicator
from repro.dist.transport import LocalFabric
from repro.dist.worker import DistConfig, RankResult, rank_main

#: Wall-clock backstop for a whole SPMD run or pool job (broadcast +
#: compute + exchange).
RUN_DEADLINE_S = 120.0


@dataclass
class SpmdOutcome:
    """Everything the driver collected from one SPMD run."""

    results: Dict[int, RankResult] = dataclass_field(default_factory=dict)
    #: whole-run checkpoint blobs posted by ranks before the barrier-mode
    #: exchange
    checkpoints: Dict[int, bytes] = dataclass_field(default_factory=dict)
    #: per-chunk checkpoint blobs posted by overlap-mode ranks as each
    #: chunk completes (push order preserved) — the state that lets the
    #: driver resume from a death mid-exchange
    chunk_checkpoints: Dict[int, List[bytes]] = dataclass_field(
        default_factory=dict
    )
    #: failed ranks -> reason (empty on a clean run)
    failures: Dict[int, str] = dataclass_field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when every rank returned a result."""
        return not self.failures

    def all_checkpoint_blobs(self) -> List[bytes]:
        """Every posted checkpoint blob, whole-run and per-chunk alike."""
        blobs = list(self.checkpoints.values())
        for chunks in self.chunk_checkpoints.values():
            blobs.extend(chunks)
        return blobs


class _InjectedCrash(Exception):
    """Unwinds a thread-rank simulating a crash (never escapes the runtime)."""


def run_spmd(
    config: DistConfig,
    field: np.ndarray,
    spectrum: np.ndarray,
    restore: Optional[bytes] = None,
) -> SpmdOutcome:
    """Run every rank of the job as a thread over a fresh
    :class:`LocalFabric`, whatever ``config.transport`` says.

    ``restore`` makes it a restore run from that merged checkpoint (see
    :func:`~repro.dist.worker.rank_main`).
    """
    fabric = LocalFabric(config.num_ranks)
    outcome = SpmdOutcome()
    lock = threading.Lock()
    # non-root ranks learn it is a restore run; the blob comes by broadcast
    peer_restore = None if restore is None else b""

    def post(kind: str, rank: int, payload: bytes) -> None:
        with lock:
            if kind == "checkpoint":
                outcome.checkpoints[rank] = payload
            elif kind == "chunk":
                outcome.chunk_checkpoints.setdefault(rank, []).append(payload)

    def run_rank(rank: int) -> None:
        comm = Communicator(
            fabric.endpoint(rank),
            recv_timeout_s=config.recv_timeout_s,
            heartbeat_s=config.heartbeat_s,
        )

        def abort() -> None:
            fabric.kill(rank)
            raise _InjectedCrash()

        try:
            result = rank_main(
                comm,
                config,
                field=field if rank == 0 else None,
                spectrum=spectrum if rank == 0 else None,
                post=post,
                abort=abort,
                restore=restore if rank == 0 else peer_restore,
            )
            with lock:
                outcome.results[rank] = result
            comm.close()
        except _InjectedCrash:
            with lock:
                outcome.failures[rank] = "injected crash"
        except Exception as exc:  # noqa: BLE001  # repro-lint: broad-except-ok(driver boundary: failure recorded in outcome, launcher decides recovery)
            with lock:
                outcome.failures[rank] = f"{type(exc).__name__}: {exc}"

    threads = [
        threading.Thread(target=run_rank, args=(rank,), daemon=True)
        for rank in range(config.num_ranks)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + RUN_DEADLINE_S
    for rank, t in enumerate(threads):
        t.join(timeout=max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            with lock:
                outcome.failures.setdefault(rank, "rank thread hung past deadline")
    return outcome
