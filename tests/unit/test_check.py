"""Unit tests for the fault-injection + audit toolkit (repro.check)."""

from __future__ import annotations

import pytest

from repro.check import (
    AuditError,
    AuditReport,
    DeviceFault,
    FaultPlan,
    FaultyDevice,
    build_audited_method,
    run_audit_session,
)
from repro.check.faults import TORN_PAYLOAD
from repro.storage.device import SimulatedDevice
from repro.workloads.spec import MIXES

from tests.conftest import SMALL_BLOCK


def _device_pair():
    backing = SimulatedDevice(block_bytes=SMALL_BLOCK)
    return backing, FaultyDevice(backing)


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(read_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(write_failure_rate=-0.1)

    def test_nth_triggers_are_one_based(self):
        with pytest.raises(ValueError):
            FaultPlan(fail_read_at=0)
        with pytest.raises(ValueError):
            FaultPlan(fail_write_at=-3)


class TestFaultyDevice:
    def test_disarmed_is_transparent(self):
        backing, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, [1, 2, 3], used_bytes=48)
        assert device.read(block) == [1, 2, 3]
        assert backing.counters.reads == 1
        assert backing.counters.writes == 1
        assert device.counters.reads == 1  # delegated, not double-counted

    def test_nth_read_faults_and_charges_nothing(self):
        _, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, "x", used_bytes=8)
        device.arm(FaultPlan(fail_read_at=2))
        assert device.read(block) == "x"  # read #1 passes
        reads_before = device.counters.reads
        with pytest.raises(DeviceFault) as excinfo:
            device.read(block)
        assert device.counters.reads == reads_before  # fault charged no I/O
        assert excinfo.value.op == "read"
        assert excinfo.value.block_id == block
        assert device.faults_injected == 1
        assert device.read(block) == "x"  # read #3 passes again

    def test_kind_filter_restricts_eligibility(self):
        _, device = _device_pair()
        data = device.allocate(kind="data")
        meta = device.allocate(kind="meta")
        device.write(data, "d", used_bytes=8)
        device.write(meta, "m", used_bytes=8)
        device.arm(FaultPlan(fail_read_at=1, kinds=("meta",)))
        assert device.read(data) == "d"  # ineligible: not counted
        with pytest.raises(DeviceFault):
            device.read(meta)

    def test_unallocated_block_raises_key_error_not_fault(self):
        _, device = _device_pair()
        device.arm(FaultPlan(fail_read_at=1, kinds=("data",)))
        with pytest.raises(KeyError):
            device.read(12345)

    def test_probabilistic_faults_are_deterministic(self):
        def fault_points(seed):
            _, device = _device_pair()
            block = device.allocate(kind="data")
            device.write(block, "x", used_bytes=8)
            device.arm(FaultPlan(read_failure_rate=0.3, seed=seed))
            points = []
            for index in range(50):
                try:
                    device.read(block)
                except DeviceFault:
                    points.append(index)
            return points

        assert fault_points(7) == fault_points(7)
        assert fault_points(7) != fault_points(8)

    def test_max_faults_caps_injection(self):
        _, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, "x", used_bytes=8)
        device.arm(FaultPlan(read_failure_rate=1.0, max_faults=2))
        for _ in range(2):
            with pytest.raises(DeviceFault):
                device.read(block)
        assert device.read(block) == "x"
        assert device.faults_injected == 2

    def test_torn_write_applies_half_the_payload(self):
        backing, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, [1, 2], used_bytes=32)
        device.arm(FaultPlan(fail_write_at=1, torn_writes=True))
        with pytest.raises(DeviceFault):
            device.write(block, [10, 20, 30, 40], used_bytes=64)
        assert backing.peek(block) == [10, 20]  # first half landed
        assert backing.used_bytes_of(block) == 32
        assert backing.counters.writes == 2  # the torn write was charged

    def test_torn_write_scars_non_list_payloads(self):
        backing, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, {"a": 1}, used_bytes=16)
        device.arm(FaultPlan(fail_write_at=1, torn_writes=True))
        with pytest.raises(DeviceFault):
            device.write(block, {"a": 2}, used_bytes=16)
        assert backing.peek(block) == TORN_PAYLOAD
        assert backing.used_bytes_of(block) == 0

    def test_arm_resets_triggers(self):
        _, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, "x", used_bytes=8)
        device.arm(FaultPlan(fail_read_at=3))
        device.read(block)
        device.read(block)
        device.arm(FaultPlan(fail_read_at=3))  # re-arm: counter restarts
        device.read(block)
        device.read(block)
        with pytest.raises(DeviceFault):
            device.read(block)

    def test_disarm_makes_device_transparent_again(self):
        _, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, "x", used_bytes=8)
        device.arm(FaultPlan(read_failure_rate=1.0))
        with pytest.raises(DeviceFault):
            device.read(block)
        device.disarm()
        assert device.read(block) == "x"

    def test_delegation_of_inspection_surface(self):
        backing, device = _device_pair()
        block = device.allocate(kind="meta")
        device.write(block, [1], used_bytes=16)
        assert device.kind_of(block) == "meta"
        assert device.used_bytes_of(block) == 16
        assert device.is_allocated(block)
        assert list(device.iter_block_ids()) == [block]
        assert device.allocated_blocks == backing.allocated_blocks == 1
        assert device.used_bytes() == backing.used_bytes() == 16
        device.free(block)
        assert not backing.is_allocated(block)


class TestPerOpTriggers:
    """The Nth-access triggers count single reads and writes one by one:
    exactly the Nth eligible access faults, and every other one lands."""

    @pytest.mark.parametrize("at", [1, 2, 3, 5, 8])
    def test_only_the_nth_read_faults(self, at):
        backing, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, "x", used_bytes=8)
        device.arm(FaultPlan(fail_read_at=at))
        backing.reset_counters()
        faulted = []
        for index in range(1, 11):
            try:
                assert device.read(block) == "x"
            except DeviceFault as fault:
                assert fault.detail == f"eligible read #{index}"
                faulted.append(index)
        assert faulted == [at]
        assert backing.counters.reads == 9  # the faulted read charged nothing

    @pytest.mark.parametrize("at", [1, 2, 3, 5, 8])
    def test_only_the_nth_write_faults(self, at):
        backing, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, [0], used_bytes=16)
        device.arm(FaultPlan(fail_write_at=at))
        backing.reset_counters()
        faulted = []
        landed = [0]
        for index in range(1, 11):
            try:
                device.write(block, [index], used_bytes=16)
                landed = [index]
            except DeviceFault as fault:
                assert fault.op == "write"
                faulted.append(index)
            assert backing.peek(block) == landed  # a faulted write changes nothing
        assert faulted == [at]
        assert backing.counters.writes == 9

    @pytest.mark.parametrize("at", [1, 2, 3, 5, 8])
    def test_only_the_nth_write_tears(self, at):
        backing, device = _device_pair()
        block = device.allocate(kind="data")
        device.write(block, [0, 0], used_bytes=32)
        device.arm(FaultPlan(fail_write_at=at, torn_writes=True))
        backing.reset_counters()
        for index in range(1, 11):
            payload = [index, index, -index, -index]
            if index == at:
                with pytest.raises(DeviceFault):
                    device.write(block, payload, used_bytes=64)
                assert backing.peek(block) == [index, index]
                assert backing.used_bytes_of(block) == 32
            else:
                device.write(block, payload, used_bytes=64)
                assert backing.peek(block) == payload
        assert device.faults_injected == 1
        assert backing.counters.writes == 10  # the torn write was charged

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_ineligible_accesses_do_not_advance_the_trigger(self, at):
        _, device = _device_pair()
        data = device.allocate(kind="data")
        meta = device.allocate(kind="meta")
        device.write(data, "d", used_bytes=8)
        device.write(meta, "m", used_bytes=8)
        device.arm(FaultPlan(fail_read_at=at, kinds=("meta",)))
        faulted = []
        for index in range(1, 9):
            block = meta if index % 2 == 0 else data
            try:
                device.read(block)
            except DeviceFault as fault:
                assert fault.kind == "meta"
                faulted.append(index)
        assert faulted == [2 * at]  # meta reads are the even-numbered ones


class TestAuditError:
    def test_message_truncates_long_violation_lists(self):
        error = AuditError("btree", [f"violation {i}" for i in range(5)])
        assert "violation 0" in str(error)
        assert "+2 more" in str(error)
        assert error.method_name == "btree"
        assert len(error.violations) == 5


class TestAuditSession:
    def test_clean_session_is_ok(self):
        spec = MIXES["balanced"].scaled(initial_records=300, operations=150)
        method = build_audited_method("btree", SMALL_BLOCK)
        report = run_audit_session(method, spec)
        assert isinstance(report, AuditReport)
        assert report.ok
        assert report.completed == report.operations
        assert report.faults == 0
        assert "ok" in str(report)

    def test_plan_requires_faulty_device(self):
        spec = MIXES["balanced"].scaled(initial_records=50, operations=10)
        method = build_audited_method("btree", SMALL_BLOCK)  # no plan
        with pytest.raises(ValueError):
            run_audit_session(method, spec, plan=FaultPlan(fail_read_at=1))

    def test_faulted_session_counts_faults(self):
        spec = MIXES["balanced"].scaled(initial_records=300, operations=150)
        plan = FaultPlan(read_failure_rate=0.05, seed=11)
        method = build_audited_method("btree", SMALL_BLOCK, plan=plan)
        report = run_audit_session(method, spec, plan=plan)
        assert report.faults > 0
        assert report.completed + report.faults + report.rejected <= report.operations + 1

    def test_bulk_load_happens_before_arming(self):
        # A fail-on-first-write plan would kill the bulk load if armed
        # too early; the session must load cleanly first.
        spec = MIXES["balanced"].scaled(initial_records=200, operations=20)
        plan = FaultPlan(fail_write_at=1, max_faults=1)
        method = build_audited_method("sorted-column", SMALL_BLOCK, plan=plan)
        report = run_audit_session(method, spec, plan=plan)
        assert report.operations == 20

    def test_build_audited_method_wraps_when_planned(self):
        plain = build_audited_method("btree", SMALL_BLOCK)
        assert not isinstance(plain.device, FaultyDevice)
        wrapped = build_audited_method(
            "btree", SMALL_BLOCK, plan=FaultPlan(fail_read_at=1)
        )
        assert isinstance(wrapped.device, FaultyDevice)
        assert wrapped.device.plan is None  # disarmed until the session


class TestAuditHook:
    def test_audit_catches_planted_corruption(self):
        method = build_audited_method("sorted-column", SMALL_BLOCK)
        method.bulk_load([(2 * i, i) for i in range(64)])
        method.flush()
        assert method.audit() == []
        # Swap two keys inside a data block, bypassing the method.
        device = method.device
        block = next(
            b for b in device.iter_block_ids() if device.kind_of(b) == "sorted"
        )
        payload = device.peek(block)
        payload[0], payload[-1] = payload[-1], payload[0]
        violations = method.audit()
        assert violations, "audit missed an out-of-order block"

    def test_audit_catches_counter_drift(self):
        method = build_audited_method("unsorted-column", SMALL_BLOCK)
        method.bulk_load([(i, i) for i in range(40)])
        method.flush()
        method._record_count += 1  # simulate a lost update
        assert any("record count" in v for v in method.audit())
