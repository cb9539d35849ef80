"""Deterministic device-level fault injection.

:class:`FaultyDevice` interposes on the read/write path of a backing
:class:`~repro.storage.device.SimulatedDevice` (the same wrapper pattern
as :class:`~repro.storage.hierarchy.HierarchicalDevice`) and raises
:class:`DeviceFault` according to a seeded, immutable :class:`FaultPlan`:

* fail the Nth eligible read or write (1-based, counted per device),
* restrict eligibility to particular block kinds ("lsm-bloom",
  "btree-leaf", ...),
* fail reads/writes probabilistically with a seeded RNG,
* *torn writes*: apply a partial payload to the backing device —
  charging the write — before raising, modelling a power cut mid-write.

A faulted access (torn writes aside) charges **no** I/O and does not
touch the medium: the fault fires before the request reaches the
backing device, so counters and stored state are exactly as they were.
That makes the wrapper usable inside measured workloads — surviving a
fault costs nothing, and whatever recovery I/O a method performs is
charged normally.

Determinism: two devices built from equal plans inject faults at
identical points of identical access streams.  ``arm``/``disarm``
reset the eligible-access counters, so a test can bulk-load cleanly and
then arm the plan for the measured phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.tracer import Tracer, emit_fault_event
from repro.storage.block import BlockId
from repro.storage.device import DeviceCounters, SimulatedDevice

#: Payload written by a torn write when the original payload cannot be
#: meaningfully halved (not a list/tuple/dict): a recognizable scar.
TORN_PAYLOAD: Tuple[str] = ("torn-write",)


class DeviceFault(RuntimeError):
    """An injected device failure.

    Raised by :class:`FaultyDevice` instead of performing (or after
    partially performing, for torn writes) the faulted access.
    """

    def __init__(self, op: str, block_id: BlockId, kind: str, detail: str) -> None:
        super().__init__(f"injected {op} fault on block {block_id} ({kind}): {detail}")
        self.op = op
        self.block_id = block_id
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded description of which accesses fail.

    Parameters
    ----------
    fail_read_at / fail_write_at:
        Fail the Nth *eligible* read/write (1-based) since the plan was
        armed.  ``None`` disables the trigger.
    kinds:
        When non-empty, only accesses to blocks of these kinds are
        eligible (and counted toward the Nth-access triggers).
    read_failure_rate / write_failure_rate:
        Probability in [0, 1] that any eligible read/write fails,
        drawn from a :class:`random.Random` seeded with ``seed``.
    torn_writes:
        When true, a faulted write first applies a *partial* payload to
        the backing device (the first half of a list payload, or
        :data:`TORN_PAYLOAD` otherwise), charging the write, and then
        raises.  Structure audits are expected to catch the damage.
    seed:
        Seed for the probabilistic triggers; equal plans inject equal
        fault sequences for equal access streams.
    max_faults:
        Stop injecting after this many faults (``None`` = unlimited).
        Lets a crash test fault exactly once and then observe recovery.
    """

    fail_read_at: Optional[int] = None
    fail_write_at: Optional[int] = None
    kinds: Tuple[str, ...] = ()
    read_failure_rate: float = 0.0
    write_failure_rate: float = 0.0
    torn_writes: bool = False
    seed: int = 0
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        for label, rate in (
            ("read_failure_rate", self.read_failure_rate),
            ("write_failure_rate", self.write_failure_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        for label, at in (
            ("fail_read_at", self.fail_read_at),
            ("fail_write_at", self.fail_write_at),
        ):
            if at is not None and at < 1:
                raise ValueError(f"{label} is 1-based and must be >= 1, got {at}")


class FaultyDevice(SimulatedDevice):
    """A fault-injecting proxy in front of a backing device.

    All storage state and I/O accounting live on ``backing``; this
    wrapper only decides, per access, whether to forward the request or
    raise :class:`DeviceFault`.  It is constructed *disarmed* (fully
    transparent); :meth:`arm` installs a plan and zeroes the
    eligible-access counters, so callers can bulk-load cleanly first.

    Faults are injected before the backing device is touched — no I/O is
    charged and no state changes — with one exception: a torn write
    applies (and charges) a partial payload before raising.
    """

    __slots__ = (
        "backing",
        "plan",
        "_rng",
        "_eligible_reads",
        "_eligible_writes",
        "_faults_injected",
    )

    def __init__(
        self, backing: SimulatedDevice, plan: Optional[FaultPlan] = None
    ) -> None:
        super().__init__(
            block_bytes=backing.block_bytes,
            cost_model=backing.cost_model,
            name=f"faulty({backing.name})",
        )
        self.backing = backing
        self.plan = None
        self._rng = random.Random(0)
        self._eligible_reads = 0
        self._eligible_writes = 0
        self._faults_injected = 0
        if plan is not None:
            self.arm(plan)

    # ------------------------------------------------------------------
    # Plan control
    # ------------------------------------------------------------------
    def arm(self, plan: FaultPlan) -> None:
        """Install ``plan`` and restart its triggers from access zero."""
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._eligible_reads = 0
        self._eligible_writes = 0
        self._faults_injected = 0

    def disarm(self) -> None:
        """Remove the plan; the device becomes fully transparent."""
        self.plan = None

    @property
    def faults_injected(self) -> int:
        """Faults raised since the plan was last armed."""
        return self._faults_injected

    # ------------------------------------------------------------------
    # Fault decision
    # ------------------------------------------------------------------
    def _eligible(self, plan: FaultPlan, block_id: BlockId) -> bool:
        if not plan.kinds:
            return True
        # An access to an unallocated block will raise KeyError on the
        # backing device; let that genuine error through untouched.
        if not self.backing.is_allocated(block_id):
            return False
        return self.backing.kind_of(block_id) in plan.kinds

    def _fires(self, plan: FaultPlan, seen: int, at: Optional[int], rate: float) -> bool:
        if plan.max_faults is not None and self._faults_injected >= plan.max_faults:
            return False
        if at is not None and seen == at:
            return True
        return rate > 0.0 and self._rng.random() < rate

    def _fault(self, op: str, block_id: BlockId, detail: str) -> None:
        self._faults_injected += 1
        kind = (
            self.backing.kind_of(block_id)
            if self.backing.is_allocated(block_id)
            else "?"
        )
        emit_fault_event(self.tracer, self.name, block_id, kind)
        raise DeviceFault(op, block_id, kind, detail)

    @staticmethod
    def _torn(payload: object, used_bytes: int) -> Tuple[object, int]:
        """The partial payload a torn write leaves behind."""
        if isinstance(payload, list) and len(payload) >= 2:
            half = payload[: len(payload) // 2]
            return half, used_bytes * len(half) // len(payload)
        return TORN_PAYLOAD, 0

    # ------------------------------------------------------------------
    # I/O interposition
    # ------------------------------------------------------------------
    def read(self, block_id: BlockId) -> object:
        plan = self.plan
        if plan is not None and self._eligible(plan, block_id):
            self._eligible_reads += 1
            if self._fires(
                plan, self._eligible_reads, plan.fail_read_at, plan.read_failure_rate
            ):
                self._fault("read", block_id, f"eligible read #{self._eligible_reads}")
        return self.backing.read(block_id)

    def write(self, block_id: BlockId, payload: object, used_bytes: int = 0) -> None:
        plan = self.plan
        if plan is not None and self._eligible(plan, block_id):
            self._eligible_writes += 1
            if self._fires(
                plan, self._eligible_writes, plan.fail_write_at, plan.write_failure_rate
            ):
                if plan.torn_writes and self.backing.is_allocated(block_id):
                    torn_payload, torn_used = self._torn(payload, used_bytes)
                    self.backing.write(block_id, torn_payload, used_bytes=torn_used)
                    self._fault(
                        "write",
                        block_id,
                        f"torn write #{self._eligible_writes} "
                        f"(partial payload applied)",
                    )
                self._fault("write", block_id, f"eligible write #{self._eligible_writes}")
        self.backing.write(block_id, payload, used_bytes=used_bytes)

    # ------------------------------------------------------------------
    # Everything else is a transparent delegate to the backing device.
    # ------------------------------------------------------------------
    def allocate(self, kind: str = "data") -> BlockId:
        return self.backing.allocate(kind)

    def free(self, block_id: BlockId) -> None:
        self.backing.free(block_id)

    def is_allocated(self, block_id: BlockId) -> bool:
        return self.backing.is_allocated(block_id)

    def peek(self, block_id: BlockId) -> object:
        return self.backing.peek(block_id)

    def kind_of(self, block_id: BlockId) -> str:
        return self.backing.kind_of(block_id)

    def used_bytes_of(self, block_id: BlockId) -> int:
        return self.backing.used_bytes_of(block_id)

    @property
    def counters(self) -> DeviceCounters:
        return self.backing.counters

    @property
    def allocated_blocks(self) -> int:
        return self.backing.allocated_blocks

    @property
    def allocated_bytes(self) -> int:
        return self.backing.allocated_bytes

    def used_bytes(self) -> int:
        return self.backing.used_bytes()

    def blocks_by_kind(self):
        return self.backing.blocks_by_kind()

    def iter_block_ids(self):
        return self.backing.iter_block_ids()

    def reset_counters(self) -> None:
        self.backing.reset_counters()

    def set_tracer(self, tracer: Tracer) -> None:
        """One tracer sees injected faults and the physical traffic."""
        super().set_tracer(tracer)
        self.backing.set_tracer(tracer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyDevice(backing={self.backing!r}, plan={self.plan!r}, "
            f"faults={self._faults_injected})"
        )
