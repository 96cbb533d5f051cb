"""Rank-level communication API: tagged point-to-point + collectives.

A :class:`Communicator` wraps one :class:`~repro.dist.transport.Transport`
endpoint with the operations the pipeline needs:

- ``send_payload`` / ``recv_payload`` — tagged point-to-point payloads
  (bytes-like or :class:`~repro.dist.wire.Segments` scatter-gather lists);
- ``broadcast`` — root fans a payload to every rank (input distribution);
- ``sparse_allgather`` — every rank ships its payload to every peer and
  receives all of theirs: *the* single sparse accumulation exchange of
  the paper (Fig 1(b));
- ``alltoall`` — per-destination payloads, for baselines and tests;
- ``barrier`` — empty alltoall.

It is the one communicator for one-shot runs and the standing pool
alike.  Frames are matched on (source, tag); a frame that belongs to a
later phase (a fast peer's next collective, or the next job on a
standing mesh) is *parked*, never dropped, and every receive consults
the parked list before touching the wire.  Per-pair FIFO ordering (both
transports guarantee it) plus identical collective sequences on every
rank make (src, tag) matching sufficient.  Sends of the all-to-peers
collectives drain through a :class:`~repro.dist.transport.SendWindow`
while this thread receives, so no payload size can deadlock them.

Heartbeat frames are consumed here and fed to the
:class:`~repro.dist.heartbeat.HeartbeatMonitor`, so prolonged peer
silence surfaces as :class:`~repro.errors.RankFailure` even while a
receive is blocked.  Every deadline runs on an injected
:class:`~repro.serve.clock.Clock`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dist.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.dist.ledger import (
    CATEGORY_BCAST,
    CATEGORY_CONTROL,
    CATEGORY_DATA,
    CATEGORY_EXCHANGE,
)
from repro.dist.transport import Transport
from repro.dist.wire import Frame, FrameKind, FramePayload
from repro.errors import CommunicationError, RankFailure, TransportError
from repro.serve.clock import Clock, MonotonicClock

#: Tags for the pipeline's bulk-synchronous phases.  This block is the
#: *central wire-tag registry* (TAG001): every ``TAG_*`` constant lives
#: here, values are unique, and every tag is paired with a receive-side
#: dispatch somewhere in ``dist/`` or ``pool/``.
TAG_SPECTRUM = 1
TAG_FIELD = 2
TAG_EXCHANGE = 3
TAG_BARRIER = 4
#: End-of-stream marker for the streamed exchange: one empty frame per
#: peer closes that peer's chunk stream.
TAG_EXCHANGE_END = 5
#: Broadcast tag for the merged checkpoint blob a restore run resumes
#: from (see ``repro.dist.worker.rank_main``).
TAG_POOL_CHECKPOINT = 6

#: Slice size for receive waits so the heartbeat monitor is consulted
#: even while blocked on a quiet fabric.
_POLL_SLICE_S = 0.25


class Communicator:
    """Collectives for one rank over a pluggable transport.

    Parameters
    ----------
    transport:
        The rank's transport endpoint.
    recv_timeout_s:
        Default deadline for every receive.
    heartbeat_s:
        Beacon interval; ``None`` disables heartbeating (the EOF-based
        crash detection in the transports still applies).  When enabled,
        peers silent for ``4 *`` this interval are declared failed.
    clock:
        Time source of every receive deadline (injectable for tests).
    """

    def __init__(
        self,
        transport: Transport,
        recv_timeout_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        clock: Optional[Clock] = None,
    ):
        self.transport = transport
        self.recv_timeout_s = float(recv_timeout_s)
        self.clock = clock if clock is not None else MonotonicClock()
        self.monitor: Optional[HeartbeatMonitor] = None
        self._sender: Optional[HeartbeatSender] = None
        peers = [r for r in range(transport.size) if r != transport.rank]
        if heartbeat_s is not None and peers:
            self.monitor = HeartbeatMonitor(peers, timeout_s=4.0 * heartbeat_s)
            self._sender = HeartbeatSender(transport, heartbeat_s)
            self._sender.start()
        #: out-of-phase frames parked until their phase asks for them
        self._parked: List[Frame] = []

    @property
    def rank(self) -> int:
        """This endpoint's rank id."""
        return self.transport.rank

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self.transport.size

    # -- point-to-point -----------------------------------------------------
    def send_payload(
        self,
        dst: int,
        payload: FramePayload,
        tag: int,
        category: str = CATEGORY_DATA,
    ) -> None:
        """Send ``payload`` to ``dst`` under ``tag``.

        ``payload`` is any bytes-like object or a
        :class:`~repro.dist.wire.Segments` list — segments ride the
        transport's scatter-gather path without being concatenated.
        """
        self.transport.send(dst, Frame(FrameKind.DATA, self.rank, tag, payload), category)

    def recv_payload(
        self,
        src: int,
        tag: int,
        timeout: Optional[float] = None,
        category: str = CATEGORY_DATA,
    ) -> bytes:
        """Receive the payload tagged ``tag`` from ``src``.

        Heartbeats are consumed silently; out-of-phase data frames are
        parked for a later matching receive.  Raises
        :class:`TransportError` on deadline, :class:`RankFailure` on peer
        death or heartbeat silence.
        """
        deadline_budget = self.recv_timeout_s if timeout is None else float(timeout)
        for i, parked in enumerate(self._parked):
            if parked.src == src and parked.tag == tag:
                return self._parked.pop(i).payload
        deadline = self.clock.now() + deadline_budget
        while True:
            remaining = deadline - self.clock.now()
            if remaining <= 0:
                raise TransportError(
                    f"rank {self.rank}: receive of tag {tag} from rank {src} "
                    f"timed out after {deadline_budget}s"
                )
            try:
                frame = self.transport.recv(min(remaining, _POLL_SLICE_S), category)
            except TransportError:
                if self.monitor is not None:
                    self.monitor.check()
                continue  # re-check overall deadline
            self._note(frame)
            if frame.kind in (FrameKind.HEARTBEAT, FrameKind.BYE):
                continue
            if frame.src == src and frame.tag == tag:
                return frame.payload
            self._parked.append(frame)

    def _note(self, frame: Frame) -> None:
        if self.monitor is not None:
            self.monitor.record(frame.src)

    def _swap(
        self,
        outgoing: Dict[int, FramePayload],
        tag: int,
        category: str,
    ) -> Dict[int, FramePayload]:
        """Send one payload to each peer in ``outgoing`` and receive one
        ``tag`` frame from each; returns ``{src: payload}``.

        Sends drain through a send window while this thread receives
        (immune to kernel-buffer deadlock); receives match on (src, tag),
        parking every other frame for the phase it belongs to.
        """
        peers = sorted(outgoing)
        pending = set(peers)
        got: Dict[int, FramePayload] = {}
        for parked in list(self._parked):
            if parked.src in pending and parked.tag == tag:
                self._parked.remove(parked)
                got[parked.src] = parked.payload
                pending.discard(parked.src)
        if not peers:
            return got
        window = self.transport.send_window(window=1, name="swap")
        try:
            window.submit(
                [
                    (dst, Frame(FrameKind.DATA, self.rank, tag, outgoing[dst]), category)
                    for dst in peers
                ]
            )
            deadline = self.clock.now() + self.recv_timeout_s
            while pending:
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    raise TransportError(
                        f"rank {self.rank}: collective (tag {tag}) timed out "
                        f"after {self.recv_timeout_s}s with ranks "
                        f"{sorted(pending)} still silent"
                    )
                try:
                    frame = self.transport.recv(
                        min(remaining, _POLL_SLICE_S), category
                    )
                except TransportError:
                    if self.monitor is not None:
                        self.monitor.check()
                    continue  # re-check overall deadline
                self._note(frame)
                if frame.kind == FrameKind.HEARTBEAT:
                    continue
                if frame.kind == FrameKind.BYE:
                    if frame.src in pending:
                        raise RankFailure(
                            f"rank {frame.src} said BYE while rank "
                            f"{self.rank} still expected its collective "
                            f"payload (tag {tag})"
                        )
                    continue
                if frame.src in pending and frame.tag == tag:
                    got[frame.src] = frame.payload
                    pending.discard(frame.src)
                else:
                    self._parked.append(frame)
        except BaseException:
            # receive-side failure is primary; still reap the pump thread
            try:
                window.close(timeout=self.recv_timeout_s)
            except (TransportError, RankFailure, CommunicationError):
                pass
            raise
        window.close(timeout=self.recv_timeout_s)
        return got

    # -- collectives --------------------------------------------------------
    def broadcast(
        self,
        payload: Optional[bytes],
        root: int = 0,
        tag: int = TAG_FIELD,
        category: str = CATEGORY_BCAST,
    ) -> bytes:
        """Fan ``payload`` from ``root`` to every rank; returns the payload.

        Non-root ranks pass ``payload=None`` and receive the root's bytes.
        """
        if not 0 <= root < self.size:
            raise CommunicationError(f"broadcast root {root} out of range")
        if self.rank == root:
            if payload is None:
                raise CommunicationError("broadcast root needs a payload")
            for dst in range(self.size):
                if dst != root:
                    self.send_payload(dst, payload, tag, category)
            return payload
        return self.recv_payload(root, tag, category=category)

    def sparse_allgather(
        self,
        payload: FramePayload,
        tag: int = TAG_EXCHANGE,
        category: str = CATEGORY_EXCHANGE,
    ) -> List[FramePayload]:
        """The single sparse exchange: all ranks swap payloads.

        Returns the per-rank payloads indexed by source rank (this rank's
        own payload included at its slot, exactly as passed — a
        :class:`~repro.dist.wire.Segments` payload goes out scatter-gather
        and comes back on peers as one contiguous buffer).  All traffic is
        counted under the ``exchange`` category — these are exactly the
        bytes Eq 6 models.
        """
        return self.alltoall([payload] * self.size, tag=tag, category=category)

    def sparse_allgather_stream(
        self,
        tag: int = TAG_EXCHANGE,
        end_tag: int = TAG_EXCHANGE_END,
        window: int = 2,
        category: str = CATEGORY_EXCHANGE,
    ) -> "StreamedAllgather":
        """Open a streamed sparse exchange (overlap mode).

        Where :meth:`sparse_allgather` ships one blob per rank after all
        compute has finished, the streamed variant accepts chunk payloads
        *as they are produced* (:meth:`StreamedAllgather.push`) and drains
        them to every peer on a bounded
        :class:`~repro.dist.transport.SendWindow` while the caller keeps
        computing — the send half of the exchange hides behind compute.
        :meth:`StreamedAllgather.finish` closes this rank's stream with an
        ``end_tag`` marker frame per peer and collects every peer's chunk
        list.  Merging all chunks by sub-domain index yields exactly the
        payload set of the barrier-mode exchange, so results stay bitwise
        identical.
        """
        return StreamedAllgather(
            self, tag=tag, end_tag=end_tag, window=window, category=category
        )

    def alltoall(
        self,
        payloads: List[FramePayload],
        tag: int = TAG_EXCHANGE,
        category: str = CATEGORY_DATA,
    ) -> List[FramePayload]:
        """Variable payload per destination; returns per-source payloads."""
        if len(payloads) != self.size:
            raise CommunicationError(
                f"alltoall needs one payload per rank ({self.size}), "
                f"got {len(payloads)}"
            )
        outgoing = {dst: p for dst, p in enumerate(payloads) if dst != self.rank}
        got = self._swap(outgoing, tag, category)
        return [got.get(src, p) for src, p in enumerate(payloads)]

    def barrier(self, tag: int = TAG_BARRIER) -> None:
        """Block until every rank has entered the barrier."""
        if self.size > 1:
            self.alltoall([b""] * self.size, tag=tag, category=CATEGORY_CONTROL)

    def close(self) -> None:
        """Stop heartbeating and close the transport gracefully."""
        if self._sender is not None:
            self._sender.stop()
        self.transport.close()


class StreamedAllgather:
    """One in-progress streamed sparse exchange (see
    :meth:`Communicator.sparse_allgather_stream`).

    Protocol: every pushed chunk goes to every peer as a ``tag`` DATA
    frame the moment the send window drains it; :meth:`finish` sends one
    empty ``end_tag`` frame per peer, then receives until every peer's
    ``end_tag`` has arrived.  Chunks from one peer are delivered in push
    order (both transports preserve per-pair ordering), but no cross-peer
    ordering is assumed anywhere.

    Wire accounting: chunk ``i``'s frames are attributed to ledger window
    ``<name>:<i>`` and the end markers to ``<name>:end``, all under the
    exchange category — summing the per-window counters reproduces the
    category totals that Eq 6 accounting audits.
    """

    def __init__(
        self,
        comm: Communicator,
        tag: int = TAG_EXCHANGE,
        end_tag: int = TAG_EXCHANGE_END,
        window: int = 2,
        category: str = CATEGORY_EXCHANGE,
        name: str = "stream",
    ):
        if tag == end_tag:
            raise CommunicationError(
                f"stream tag and end tag must differ, both are {tag}"
            )
        self.comm = comm
        self.tag = tag
        self.end_tag = end_tag
        self.category = category
        self.name = name
        self._peers = [r for r in range(comm.size) if r != comm.rank]
        self._own: List[FramePayload] = []
        self._seq = 0
        self._finished = False
        self._window = (
            comm.transport.send_window(window=window, name=name)
            if self._peers
            else None
        )

    @property
    def chunks_pushed(self) -> int:
        """Number of chunk payloads pushed so far."""
        return self._seq

    def push(self, payload: FramePayload) -> None:
        """Stream one chunk payload to every peer (bounded, non-blocking).

        ``payload`` is any bytes-like object or a
        :class:`~repro.dist.wire.Segments` list (carried through the send
        window and onto the socket without concatenation).  Returns as
        soon as the chunk is queued on the send window; blocks only when
        ``window`` chunks are already in flight (backpressure).
        """
        if self._finished:
            raise CommunicationError("stream already finished")
        self._own.append(payload)
        if self._window is not None:
            frame = Frame(FrameKind.DATA, self.comm.rank, self.tag, payload)
            self._window.submit(
                [(dst, frame, self.category) for dst in self._peers],
                label=f"{self.name}:{self._seq}",
            )
        self._seq += 1

    def hidden_seconds(self, until: float) -> float:
        """Send time that elapsed before perf-counter instant ``until``.

        With ``until`` = the moment local compute ended, this is the wire
        time the stream hid behind compute.
        """
        if self._window is None:
            return 0.0
        return self._window.sent_seconds_before(until)

    def send_seconds(self) -> float:
        """Total wire send time of the stream (hidden + visible)."""
        if self._window is None:
            return 0.0
        return self._window.sent_seconds_total()

    def finish(self, timeout: Optional[float] = None) -> List[List[FramePayload]]:
        """Close this rank's stream and collect every peer's chunks.

        Returns per-rank chunk lists indexed by source rank (this rank's
        own chunks included at its slot, in push order).  Raises
        :class:`RankFailure` when a peer dies mid-stream,
        :class:`TransportError` on deadline.
        """
        if self._finished:
            raise CommunicationError("stream already finished")
        self._finished = True
        budget = self.comm.recv_timeout_s if timeout is None else float(timeout)
        result: List[List[FramePayload]] = [[] for _ in range(self.comm.size)]
        result[self.comm.rank] = list(self._own)
        if self._window is None:
            return result
        end = Frame(FrameKind.DATA, self.comm.rank, self.end_tag, b"")
        self._window.submit(
            [(dst, end, self.category) for dst in self._peers],
            label=f"{self.name}:end",
        )
        try:
            self._drain(result, budget)
        except BaseException:
            # receive-side failure is primary; still reap the pump thread
            try:
                self._window.close(timeout=budget)
            except (TransportError, RankFailure, CommunicationError):
                pass
            raise
        self._window.close(timeout=budget)
        return result

    def _drain(self, result: List[List[FramePayload]], budget: float) -> None:
        pending = set(self._peers)
        # out-of-phase frames parked earlier may already hold our chunks
        for parked in list(self.comm._parked):
            if parked.tag == self.tag and parked.src in pending:
                self.comm._parked.remove(parked)
                result[parked.src].append(parked.payload)
            elif parked.tag == self.end_tag and parked.src in pending:
                self.comm._parked.remove(parked)
                pending.discard(parked.src)
        deadline = self.comm.clock.now() + budget
        while pending:
            remaining = deadline - self.comm.clock.now()
            if remaining <= 0:
                raise TransportError(
                    f"rank {self.comm.rank}: streamed exchange timed out "
                    f"after {budget}s with ranks {sorted(pending)} still "
                    "streaming"
                )
            try:
                frame = self.comm.transport.recv(
                    min(remaining, _POLL_SLICE_S), self.category
                )
            except TransportError:
                if self.comm.monitor is not None:
                    self.comm.monitor.check()
                continue  # re-check overall deadline
            self.comm._note(frame)
            if frame.kind == FrameKind.HEARTBEAT:
                continue
            if frame.kind == FrameKind.BYE:
                if frame.src in pending:
                    raise RankFailure(
                        f"rank {frame.src} said BYE while rank "
                        f"{self.comm.rank} still expected its chunk stream"
                    )
                continue
            if frame.tag == self.tag and frame.src in pending:
                result[frame.src].append(frame.payload)
            elif frame.tag == self.end_tag and frame.src in pending:
                pending.discard(frame.src)
            else:
                self.comm._parked.append(frame)
