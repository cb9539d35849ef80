"""The serving tier: sessions, OCC commits, and WAL recovery.

:class:`Server` multiplexes N client :class:`Session`\\ s over one
access method.  Transactions follow Kung–Robinson optimistic concurrency
control on top of snapshot isolation:

* **Read phase** — each transaction reads at the version current when it
  began.  Point reads consult the transaction's own write buffer, then
  the :class:`~repro.serve.versions.VersionStore` pre-image overlay,
  then the live method; range scans rewind the method's live answer
  through the overlay.  Writes only buffer.
* **Validate** — at commit, the read set (keys + scanned ranges) is
  checked against the write sets of every transaction that committed
  after this one's snapshot (backward validation).  Any intersection
  aborts with :class:`~repro.serve.txn.TransactionConflict`.
* **Write phase** — the winner's redo records plus a ``commit`` record
  are appended to the :class:`~repro.serve.wal.WriteAheadLog` and the
  transaction *parks* on a :class:`CommitTicket`.  A :class:`SyncPolicy`
  decides when the group syncs: per commit (the default, PR 8's
  behavior), once ``N`` commits are parked, or when the oldest parked
  commit has waited a simulated-time deadline.  One ``wal.sync()`` (the
  modeled fsync) then makes the whole group durable, every parked
  ticket is acked at once, and only then are the group's writes applied
  in version order, capturing pre-images into the overlay — so log
  records always hit the store **before** any write touches the method,
  and durability costs one sync per group instead of one per commit.

Crash = :class:`~repro.check.faults.DeviceFault` escaping a commit: the
process state (write buffers, overlay, tail buffer) is gone, the device
keeps whatever was durably written.  "Restart" is a fresh ``Server``
over the same method + device, whose :meth:`Server.recover` replays
committed-but-unapplied transactions from the log — redo-only and
idempotent, so it is correct whether the crash hit the WAL append, the
gap between commit record and apply, or the middle of the apply.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.check.faults import DeviceFault
from repro.core.interfaces import AccessMethod, Record
from repro.obs.live import LiveRegistry
from repro.obs.spans import span
from repro.obs.tracer import emit_txn_event
from repro.serve.txn import (
    Transaction,
    TransactionConflict,
    TransactionStateError,
    TxnStatus,
)
from repro.serve.versions import (
    ABSENT,
    CURRENT,
    CommitLog,
    VersionStore,
    merge_snapshot_range,
)
from repro.serve.wal import COMMIT, DELETE, PUT, WriteAheadLog

#: Source tag on every trace event the serving tier emits.
TRACE_SOURCE = "serve"

#: Commits between automatic WAL checkpoints (0 disables).
DEFAULT_CHECKPOINT_EVERY = 32


@dataclass(frozen=True)
class SyncPolicy:
    """When the server turns parked commits into one modeled fsync.

    ``group_size == 1`` with no ``deadline`` is per-commit sync (every
    commit pays its own ``wal.sync()`` — PR 8's behavior).
    ``group_size == N`` syncs as soon as N commits are parked.
    ``deadline`` syncs when the oldest parked commit has waited that
    much simulated time; combined with ``group_size > 1`` the first
    trigger to fire wins.  Callers that would otherwise stall (e.g. the
    bench when every live client is parked) force a sync with
    :meth:`Server.poll_group`, which models the group-commit timer
    thread real servers run.
    """

    group_size: int = 1
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0")

    @classmethod
    def every_commit(cls) -> "SyncPolicy":
        return cls()

    @classmethod
    def every_n(cls, group_size: int) -> "SyncPolicy":
        return cls(group_size=group_size)

    @classmethod
    def after_deadline(
        cls, deadline: float, group_size: int = 1
    ) -> "SyncPolicy":
        return cls(group_size=group_size, deadline=deadline)

    @property
    def batches(self) -> bool:
        """Whether commits can park at all (anything but per-commit)."""
        return self.group_size > 1 or self.deadline is not None

    def ready(self, parked: int, waited: float) -> bool:
        """Should a sync fire with ``parked`` commits, oldest waiting
        ``waited`` simulated-time units?"""
        if not self.batches:
            return True
        if self.group_size > 1 and parked >= self.group_size:
            return True
        return self.deadline is not None and waited >= self.deadline

    @property
    def label(self) -> str:
        if not self.batches:
            return "every-commit"
        parts = []
        if self.group_size > 1:
            parts.append(f"group={self.group_size}")
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:g}")
        return ",".join(parts)


@dataclass
class CommitTicket:
    """A validated commit's claim on durability.

    Handed out by :meth:`Server.commit` the moment validation succeeds
    and the redo + commit records are appended (buffered) in the WAL.
    ``acked`` flips when the group's sync makes those records durable —
    under the default per-commit policy that happens before ``commit``
    returns; under group commit the caller holds the ticket and waits.
    A ticket that is never acked belonged to a transaction the crash
    erased (all-or-nothing, but never acknowledged).
    """

    txn_id: int
    version: int
    acked: bool = False
    #: Simulated time when the commit parked (deadline bookkeeping).
    parked_at: float = 0.0
    #: Simulated time when the group sync acked it (latency bookkeeping).
    acked_at: float = 0.0


class ServerCrashed(RuntimeError):
    """The server took a device fault mid-commit and must be restarted.

    The underlying device holds a durable prefix of the crash; build a
    fresh :class:`Server` over the same method and call
    :meth:`Server.recover`.
    """


@dataclass
class RecoveryReport:
    """What :meth:`Server.recover` found and did."""

    #: Log records that survived on the device (valid prefix).
    records_scanned: int = 0
    #: True when replay hit a torn tail and truncated it.
    truncated: bool = False
    #: Checkpoint version the replay started after.
    checkpoint_version: int = 0
    #: Commit versions replayed (idempotently re-applied).
    replayed_versions: List[int] = field(default_factory=list)
    #: Txn ids of the replayed commits, in version order.
    replayed_txns: List[int] = field(default_factory=list)
    #: Version the server resumed at.
    resumed_version: int = 0
    #: Old log blocks freed by the post-recovery checkpoint.
    blocks_freed: int = 0

    @property
    def transactions_replayed(self) -> int:
        return len(self.replayed_versions)


class Session:
    """One client's handle on the server: at most one active txn.

    Sessions are thin — all state of consequence lives in the
    :class:`~repro.serve.txn.Transaction` and the server.  Operations
    outside a transaction raise
    :class:`~repro.serve.txn.TransactionStateError`.
    """

    def __init__(self, server: "Server", client_id: int) -> None:
        self.server = server
        self.client_id = client_id
        self.txn: Optional[Transaction] = None
        #: The unacked group-commit ticket of the last commit, if any.
        self.pending: Optional[CommitTicket] = None
        #: The last commit's ticket, acked or not (latency bookkeeping).
        self.last_ticket: Optional[CommitTicket] = None
        self.begins = 0
        self.commits = 0
        self.aborts = 0

    def _active(self) -> Transaction:
        if self.txn is None or self.txn.status is not TxnStatus.ACTIVE:
            raise TransactionStateError(
                f"client {self.client_id} has no active transaction; "
                f"call begin() first"
            )
        return self.txn

    def begin(self) -> Transaction:
        """Start a transaction; rejects if one is already active."""
        if self.txn is not None and self.txn.status is TxnStatus.ACTIVE:
            raise TransactionStateError(
                f"client {self.client_id} already has an active "
                f"transaction (id {self.txn.txn_id})"
            )
        self.reap()
        self.txn = self.server.begin()
        self.begins += 1
        return self.txn

    def get(self, key: int) -> Optional[int]:
        """Snapshot point read (own buffered writes win)."""
        return self.server.read(self._active(), key)

    def range(self, lo: int, hi: int) -> List[Record]:
        """Snapshot range scan over ``[lo, hi]``, merged with own writes."""
        return self.server.range_read(self._active(), lo, hi)

    def put(self, key: int, value: int) -> None:
        """Buffer an upsert; nothing reaches the method until commit."""
        self._active().buffer_put(key, value)

    def delete(self, key: int) -> None:
        """Buffer a delete; nothing reaches the method until commit."""
        self._active().buffer_delete(key)

    def commit(self) -> int:
        """Validate and commit; returns the commit version.

        Raises :class:`~repro.serve.txn.TransactionConflict` when
        backward validation fails — a conflict is an abort, and counts
        as one in this session's statistics (``commits + aborts ==
        begins`` always holds on a clean run).

        Under a batching :class:`SyncPolicy` the commit may *park*: the
        returned version is assigned and validation is final, but
        durability (and the ``commits`` count) waits for the group's
        sync — the ticket sits in :attr:`pending` until acked, then
        :meth:`reap` folds it in.
        """
        try:
            ticket = self.server.commit(self._active())
        except TransactionConflict:
            self.aborts += 1
            raise
        self.last_ticket = ticket
        if ticket.acked:
            self.commits += 1
            self.pending = None
        else:
            self.pending = ticket
        return ticket.version

    def reap(self) -> bool:
        """Fold an acked pending commit into ``commits``; True when no
        commit is left pending (acked or none outstanding)."""
        if self.pending is not None and self.pending.acked:
            self.commits += 1
            self.pending = None
        return self.pending is None

    def abort(self) -> None:
        """Abandon the active transaction, discarding its buffer."""
        self.server.abort(self._active())
        self.aborts += 1

    @property
    def in_txn(self) -> bool:
        return self.txn is not None and self.txn.status is TxnStatus.ACTIVE

    @property
    def commit_pending(self) -> bool:
        """Whether the last commit is parked awaiting its group's sync."""
        return self.pending is not None and not self.pending.acked


class Server:
    """Transactional front-end over one access method + its device.

    All shared state is guarded by one re-entrant lock: commits are
    short critical sections (validate → log → apply), which is the
    single-writer heart of OCC — concurrency comes from read phases
    overlapping freely, not from interleaved applies.
    """

    def __init__(
        self,
        method: AccessMethod,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        sync_policy: Optional[SyncPolicy] = None,
        live: Optional[LiveRegistry] = None,
    ) -> None:
        self.method = method
        self.device = method.device
        self.wal = WriteAheadLog(self.device)
        self.versions = VersionStore()
        self.commit_log = CommitLog()
        self.checkpoint_every = checkpoint_every
        self.sync_policy = sync_policy if sync_policy is not None else SyncPolicy()
        #: Optional per-window telemetry (:mod:`repro.obs.live`): commit
        #: and abort counters, begin→ack latency histograms, group-commit
        #: occupancy and WAL bytes, all keyed on simulated time.  Every
        #: tap is guarded by ``live is not None`` so the disabled path
        #: costs one check per site, like tracing.
        self.live = live
        #: txn_id -> begin simulated time, for begin→ack latency (only
        #: populated while ``live`` is attached).
        self._live_begin: Dict[int, float] = {}
        #: WAL blocks already charged to a live window.
        self._live_wal_blocks = 0
        self._lock = threading.RLock()
        #: Last *applied* (durable + acked) version: what reads snapshot.
        self._version = 0
        #: Last version assigned to a validated commit (>= _version; the
        #: gap is the parked group awaiting its sync).
        self._assigned_version = 0
        self._next_txn_id = 1
        self._next_client_id = 1
        self._active: Dict[int, Transaction] = {}
        #: Validated + logged commits awaiting the group sync, in
        #: version order.
        self._parked: List[Tuple[Transaction, CommitTicket]] = []
        self._crashed = False
        self.commits = 0
        self.aborts = 0
        self.checkpoints = 0
        self.group_syncs = 0
        self._commits_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Sessions + lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> Session:
        """Open a new client session with a fresh client id."""
        with self._lock:
            client_id = self._next_client_id
            self._next_client_id += 1
        return Session(self, client_id)

    @property
    def version(self) -> int:
        """The latest applied (durable and acknowledged) version."""
        return self._version

    @property
    def parked_commits(self) -> int:
        """Validated commits waiting for their group's sync."""
        return len(self._parked)

    def _clock(self) -> float:
        """The simulated-time clock deadlines are measured against."""
        return self.device.counters.simulated_time

    def _check_alive(self) -> None:
        if self._crashed:
            raise ServerCrashed(
                "this server took a device fault mid-commit; restart with "
                "a fresh Server over the same method and call recover()"
            )

    def begin(self) -> Transaction:
        """Issue a transaction pinned to the current snapshot version."""
        with self._lock:
            self._check_alive()
            txn = Transaction(
                txn_id=self._next_txn_id, snapshot_version=self._version
            )
            self._next_txn_id += 1
            self._active[txn.txn_id] = txn
            emit_txn_event(
                self.device.tracer, TRACE_SOURCE, "txn-begin", txn.txn_id,
                detail=f"snapshot={txn.snapshot_version}",
            )
            if self.live is not None:
                now = self._clock()
                self._live_begin[txn.txn_id] = now
                self.live.count("txn-begin", now=now)
            return txn

    # ------------------------------------------------------------------
    # Read phase
    # ------------------------------------------------------------------
    def read(self, txn: Transaction, key: int) -> Optional[int]:
        """Point read at ``txn``'s snapshot; grows its read set."""
        txn.require_active()
        if key in txn.writes:
            # Own buffered write wins; it observed no committed state,
            # so it does not grow the read set.
            value = txn.writes[key]
            return None if value is ABSENT else value
        txn.note_read(key)
        with self._lock:
            self._check_alive()
            overlay = self.versions.read_at(key, txn.snapshot_version)
            if overlay is not CURRENT:
                return None if overlay is ABSENT else overlay
            return self.method.get(key)

    def range_read(self, txn: Transaction, lo: int, hi: int) -> List[Record]:
        """Range scan at ``txn``'s snapshot; notes the range predicate.

        The live method answer is rewound through the pre-image
        overlay, then the transaction's own buffered writes are merged
        on top.
        """
        txn.require_active()
        if lo > hi:
            raise ValueError(f"empty range: lo {lo} > hi {hi}")
        txn.note_range(lo, hi)
        with self._lock:
            self._check_alive()
            live = self.method.range_query(lo, hi)
            records = merge_snapshot_range(
                live, self.versions, txn.snapshot_version, lo, hi
            )
        if txn.writes:
            merged = dict(records)
            for key, value in txn.writes.items():
                if lo <= key <= hi:
                    if value is ABSENT:
                        merged.pop(key, None)
                    else:
                        merged[key] = value
            records = sorted(merged.items())
        return records

    # ------------------------------------------------------------------
    # Commit: validate -> log -> park -> (group sync) -> apply
    # ------------------------------------------------------------------
    def commit(self, txn: Transaction) -> CommitTicket:
        """Validate → log → park; returns the commit's ticket.

        Read-only transactions commit at their snapshot with no
        validation, logging, or apply, and their ticket is acked
        immediately.  Writers that win validation are assigned the next
        version, their redo + commit records are appended (buffered) to
        the WAL, and they park; if the :class:`SyncPolicy` says the
        group is ready, the sync fires before this returns (so under
        the default per-commit policy the ticket always comes back
        acked).  A :class:`DeviceFault` escaping the sync/apply marks
        the server crashed — restart and :meth:`recover`.
        """
        txn.require_active()
        with self._lock:
            self._check_alive()
            if txn.is_read_only:
                # Nothing to validate, log, or apply: every read came
                # from the snapshot, which is a consistent prefix of
                # history by construction — later commits cannot
                # invalidate it.
                txn.commit_version = txn.snapshot_version
                self._finish(txn, TxnStatus.COMMITTED)
                emit_txn_event(
                    self.device.tracer, TRACE_SOURCE, "txn-commit",
                    txn.txn_id, detail="read-only",
                )
                now = self._clock()
                if self.live is not None:
                    self.live.count("txn-commit", now=now)
                    self.live.observe(
                        "txn-latency",
                        now - self._live_begin.pop(txn.txn_id, now),
                        now=now,
                    )
                return CommitTicket(
                    txn.txn_id, txn.snapshot_version, acked=True,
                    parked_at=now, acked_at=now,
                )
            emit_txn_event(
                self.device.tracer, TRACE_SOURCE, "txn-validate", txn.txn_id,
                detail=f"reads={len(txn.read_keys)} writes={len(txn.writes)}",
            )
            conflict = self.commit_log.conflict(
                txn.snapshot_version, txn.read_keys, txn.read_ranges
            )
            if conflict is not None:
                version, key = conflict
                self._finish(txn, TxnStatus.ABORTED)
                emit_txn_event(
                    self.device.tracer, TRACE_SOURCE, "txn-abort", txn.txn_id,
                    detail=f"conflict key={key} version={version}",
                )
                raise TransactionConflict(txn.txn_id, version, key)
            version = self._assigned_version + 1
            self._log_records(txn, version)
            txn.commit_version = version
            self._assigned_version = version
            # Recorded at validation time, not apply time: later
            # transactions must validate against parked write sets too,
            # or two commits in one group could both win while reading
            # each other's stale values.
            self.commit_log.record(version, txn.writes)
            self._finish(txn, TxnStatus.PARKED)
            ticket = CommitTicket(
                txn.txn_id, version, parked_at=self._clock()
            )
            self._parked.append((txn, ticket))
            emit_txn_event(
                self.device.tracer, TRACE_SOURCE, "txn-park", txn.txn_id,
                detail=f"version={version} parked={len(self._parked)}",
            )
            waited = self._clock() - self._parked[0][1].parked_at
            if self.sync_policy.ready(len(self._parked), waited):
                self._sync_group()
            return ticket

    def _log_records(self, txn: Transaction, version: int) -> None:
        """Append (buffer) the redo + commit records; no device I/O."""
        with span("serve.wal"):
            for key, value in txn.writes.items():
                if value is ABSENT:
                    self.wal.append(txn.txn_id, DELETE, key)
                else:
                    self.wal.append(txn.txn_id, PUT, key, value)
                emit_txn_event(
                    self.device.tracer, TRACE_SOURCE, "wal-append",
                    txn.txn_id, detail=f"lsn={self.wal.next_lsn - 1}",
                )
            self.wal.append(txn.txn_id, COMMIT, version)
            emit_txn_event(
                self.device.tracer, TRACE_SOURCE, "wal-append", txn.txn_id,
                detail=f"lsn={self.wal.next_lsn - 1} commit",
            )

    def poll_group(self, force: bool = False) -> int:
        """Sync the parked group if the policy says so (or ``force``).

        Models the group-commit timer thread: callers with nothing else
        to do (the bench when every live client is parked, a deadline
        tick) poll, and the sync fires when the deadline has elapsed —
        or unconditionally with ``force=True``.  Returns the number of
        commits made durable.
        """
        with self._lock:
            self._check_alive()
            if not self._parked:
                return 0
            waited = self._clock() - self._parked[0][1].parked_at
            if force or self.sync_policy.ready(len(self._parked), waited):
                return self._sync_group()
            return 0

    def _sync_group(self, checkpoint_ok: bool = True) -> int:
        """One modeled fsync for every parked commit, then apply.

        The order is the heart of group commit: **sync → ack → apply**.
        After the single ``wal.sync()`` every parked transaction is
        durable, so all tickets are acked at once; only then are the
        write sets applied to the method in version order (capturing
        pre-images), exactly as recovery would replay them.  A crash
        before the sync erases the whole group (none were acked); a
        crash after it loses nothing (redo replays the applies).
        """
        group = self._parked
        if not group:
            return 0
        self._parked = []
        with span("serve.wal"):
            try:
                # The modeled fsync: one sync makes the whole group's
                # records durable, through every cache level when the
                # log lives behind a hierarchy.
                blocks = self.wal.sync()
            except DeviceFault:
                # The crash: nothing in this group was acked, and the
                # in-memory state is now untrustworthy.
                self._crashed = True
                raise
        self.group_syncs += 1
        emit_txn_event(
            self.device.tracer, TRACE_SOURCE, "wal-sync", 0,
            detail=f"group={len(group)} blocks={blocks}",
        )
        for _, ticket in group:
            ticket.acked = True
        try:
            with span("serve.apply"):
                for txn, ticket in group:
                    for key, value in txn.writes.items():
                        old = self.method.get(key)
                        self.versions.record_preimage(
                            key, ticket.version,
                            ABSENT if old is None else old,
                        )
                        if value is ABSENT:
                            if old is not None:
                                self.method.delete(key)
                        elif old is None:
                            self.method.insert(key, value)
                        else:
                            self.method.update(key, value)
                    txn.status = TxnStatus.COMMITTED
                    self._version = ticket.version
                    self.commits += 1
                    emit_txn_event(
                        self.device.tracer, TRACE_SOURCE, "txn-commit",
                        txn.txn_id, detail=f"version={ticket.version}",
                    )
        except DeviceFault:
            # Durable but not fully applied: recovery's redo finishes
            # the job.  The acks above stand — the commits are durable.
            self._crashed = True
            raise
        acked_at = self._clock()
        for _, ticket in group:
            ticket.acked_at = acked_at
        if self.live is not None:
            self.live.count("wal-sync", now=acked_at)
            self.live.observe("group-occupancy", len(group), now=acked_at)
            self.live.count(
                "wal-bytes", self._live_wal_delta(), now=acked_at
            )
            for txn, ticket in group:
                self.live.count("txn-commit", now=acked_at)
                begin = self._live_begin.pop(txn.txn_id, None)
                if begin is not None:
                    self.live.observe(
                        "txn-latency", acked_at - begin, now=acked_at
                    )
        self._prune()
        self._commits_since_checkpoint += len(group)
        if (
            checkpoint_ok
            and self.checkpoint_every
            and self._commits_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return len(group)

    def abort(self, txn: Transaction) -> None:
        """Abort ``txn`` at the client's request; its buffer is dropped."""
        txn.require_active()
        with self._lock:
            self._finish(txn, TxnStatus.ABORTED)
            emit_txn_event(
                self.device.tracer, TRACE_SOURCE, "txn-abort", txn.txn_id,
                detail="requested",
            )

    def _finish(self, txn: Transaction, status: TxnStatus) -> None:
        txn.status = status
        self._active.pop(txn.txn_id, None)
        if status is TxnStatus.ABORTED:
            # Every abort — requested or conflict — counts here, so the
            # server-wide ledger (commits + aborts vs begun txns) always
            # balances (and the live abort-rate counter matches it).
            self.aborts += 1
            if self.live is not None:
                self._live_begin.pop(txn.txn_id, None)
                self.live.count("txn-abort", now=self._clock())

    def _live_wal_delta(self) -> int:
        """WAL bytes written since the last live charge (tap helper)."""
        blocks = self.wal.blocks_written
        delta = (blocks - self._live_wal_blocks) * self.device.block_bytes
        self._live_wal_blocks = blocks
        return delta

    def _oldest_snapshot(self) -> int:
        if not self._active:
            return self._version
        return min(txn.snapshot_version for txn in self._active.values())

    def _prune(self) -> None:
        oldest = self._oldest_snapshot()
        self.versions.prune(oldest)
        self.commit_log.prune(oldest)

    # ------------------------------------------------------------------
    # Checkpoint + recovery
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Checkpoint the WAL; returns blocks freed.

        Drains any parked group first: the checkpoint record claims
        everything up to ``self._version`` is applied, so parked
        (durable-pending) commits must be synced and applied before the
        claim is written.
        """
        with self._lock:
            self._check_alive()
            self._sync_group(checkpoint_ok=False)
            with span("serve.wal"):
                try:
                    freed = self.wal.checkpoint(
                        self._version, self._next_txn_id - 1
                    )
                except DeviceFault:
                    self._crashed = True
                    raise
            self.checkpoints += 1
            self._commits_since_checkpoint = 0
            emit_txn_event(
                self.device.tracer, TRACE_SOURCE, "checkpoint", 0,
                detail=f"version={self._version} freed={freed}",
            )
            if self.live is not None:
                now = self._clock()
                self.live.count("checkpoint", now=now)
                self.live.count("wal-bytes", self._live_wal_delta(), now=now)
            return freed

    def recover(self) -> RecoveryReport:
        """Replay the WAL after a crash; returns what was redone.

        Must be called on a *fresh* server (no commits yet) over the
        crashed device.  Redo is idempotent — a ``put`` upserts and a
        ``del`` deletes-if-present — so it does not matter how far the
        crashed process got through its apply.
        """
        with self._lock:
            if self._version or self.commits:
                raise TransactionStateError(
                    "recover() must run on a fresh server, before any "
                    "transactions"
                )
            report = RecoveryReport()
            try:
                return self._recover_locked(report)
            except DeviceFault:
                # A crash during recovery: same rule as a crash during
                # commit — restart with another fresh server.
                self._crashed = True
                raise

    def _recover_locked(self, report: RecoveryReport) -> RecoveryReport:
            with span("serve.recover"):
                # A real restart re-opens the structure first: derived
                # in-memory bookkeeping died with the crashed process.
                self.method.reopen()
                records, truncated = self.wal.replay()
                report.records_scanned = len(records)
                report.truncated = truncated
                report.checkpoint_version = WriteAheadLog.last_checkpoint(
                    records
                )
                resumed = report.checkpoint_version
                max_txn_id = 0
                for record in records:
                    if record.txn_id > max_txn_id:
                        max_txn_id = record.txn_id
                for version, txn_id, redo in self.wal.iter_committed(
                    records, after_version=report.checkpoint_version
                ):
                    final: Dict[int, object] = {}
                    for record in redo:
                        final[record.key] = (
                            ABSENT if record.kind == DELETE else record.value
                        )
                    for key, value in final.items():
                        old = self.method.get(key)
                        if value is ABSENT:
                            if old is not None:
                                self.method.delete(key)
                        elif old is None:
                            self.method.insert(key, value)
                        else:
                            self.method.update(key, value)
                    report.replayed_versions.append(version)
                    report.replayed_txns.append(txn_id)
                    resumed = max(resumed, version)
                self._version = resumed
                self._assigned_version = resumed
                self._next_txn_id = max_txn_id + 1
                report.resumed_version = resumed
            emit_txn_event(
                self.device.tracer, TRACE_SOURCE, "recover", 0,
                detail=(
                    f"replayed={report.transactions_replayed} "
                    f"version={resumed} truncated={truncated}"
                ),
            )
            # Bound the next recovery and drop dead log blocks; also
            # repairs a torn tail (the checkpoint sync rewrites it with
            # only its valid prefix plus the new record).
            report.blocks_freed = self.checkpoint()
            return report
