"""The counter-mutation lint holds over the tree and catches offenders."""

from __future__ import annotations

import os
import sys
import textwrap

LINT_TOOLS_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "tools")
SRC_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _lint_counters():
    sys.path.insert(0, LINT_TOOLS_PATH)
    try:
        import lint_counters
    finally:
        sys.path.remove(LINT_TOOLS_PATH)
    return lint_counters


def test_no_counter_mutations_outside_storage():
    lint_counters = _lint_counters()
    violations = lint_counters.check_tree(SRC_PATH)
    assert violations == [], (
        "DeviceCounters mutated outside repro/storage:\n"
        + "\n".join(f"{path}:{line}: {target}" for path, line, target in violations)
    )


def test_lint_flags_attribute_mutation():
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        def sneaky(device):
            device.counters.reads += 1
            device.counters.simulated_time = 0.0
        """
    )
    violations = lint_counters.violations_in_source(bad, "bad.py")
    assert len(violations) == 2
    assert violations[0][2] == "device.counters.reads"


def test_lint_flags_bare_counters_variable():
    lint_counters = _lint_counters()
    bad = "counters.writes = 5\n"
    assert len(lint_counters.violations_in_source(bad, "bad.py")) == 1


def test_lint_flags_private_device_attribute_access():
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        def sneaky(method, backing):
            table = method.device._blocks          # read access
            method.device._used_total = 0          # write access
            return table, backing._seq_reads
        """
    )
    violations = lint_counters.violations_in_source(bad, "bad.py")
    targets = {target for _, _, target in violations}
    assert "method.device._blocks" in targets
    assert "method.device._used_total" in targets
    assert "backing._seq_reads" in targets


def test_lint_allows_private_attrs_on_non_device_owners():
    lint_counters = _lint_counters()
    fine = textwrap.dedent(
        """
        def fine(self, pool):
            self._blocks = []        # a method's own attribute, not a device's
            return pool._next_id     # not a device-ish owner name
        """
    )
    assert lint_counters.violations_in_source(fine, "fine.py") == []


def test_lint_ignores_reads_and_other_attributes():
    lint_counters = _lint_counters()
    fine = textwrap.dedent(
        """
        def fine(device, pool):
            total = device.counters.reads + device.counters.writes
            pool.stats.hits += 1  # PoolStats is not DeviceCounters
            reads = 4
            return total, reads
        """
    )
    assert lint_counters.violations_in_source(fine, "fine.py") == []


def test_lint_flags_frame_table_access_anywhere():
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        def sneaky(pool, level):
            frame = pool._frames.get(7)            # read access
            level.pool._frames[7] = frame          # write access
            return frame
        """
    )
    violations = lint_counters.violations_in_source(bad, "bad.py")
    targets = {target for _, _, target in violations}
    assert "pool._frames" in targets
    assert "level.pool._frames" in targets


def test_lint_frames_rule_applies_inside_storage_modules():
    lint_counters = _lint_counters()
    bad = "def sneaky(pool):\n    return pool._frames\n"
    violations = lint_counters.violations_in_source(
        bad, "hierarchy.py", frames_only=True
    )
    assert len(violations) == 1
    # frames_only skips the device/counter rules entirely.
    also_device = "def ok(device):\n    device.counters.reads += 1\n"
    assert lint_counters.violations_in_source(
        also_device, "storage_mod.py", frames_only=True
    ) == []


def test_lint_flags_direct_tracer_emit_when_enabled():
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        def sneaky(self, tracer):
            tracer.emit(source="x", op="read", block_id=1)
            self.tracer.emit(source="x", op="write", block_id=2)
            self._tracer.emit(source="x", op="alloc", block_id=3)
        """
    )
    violations = lint_counters.violations_in_source(
        bad, "bad.py", check_emit=True
    )
    targets = {target for _, _, target in violations}
    assert targets == {
        "tracer.emit", "self.tracer.emit", "self._tracer.emit"
    }
    # The same source is clean for modules allowed to emit directly
    # (repro/obs, repro/storage), where check_emit stays off.
    assert lint_counters.violations_in_source(bad, "device.py") == []


def test_lint_emit_rule_ignores_non_tracer_emitters():
    lint_counters = _lint_counters()
    fine = textwrap.dedent(
        """
        def fine(self, sink, event):
            sink.emit(event)                 # sinks receive, tracers emit
            self.sink.emit(event)
            emit_audit_events(self.tracer, "m", ["violation"])  # sanctioned
        """
    )
    assert lint_counters.violations_in_source(
        fine, "fine.py", check_emit=True
    ) == []


def test_lint_tree_skips_pager_itself():
    lint_counters = _lint_counters()
    violations = lint_counters.check_tree(SRC_PATH)
    assert violations == [], (
        "frame table reached outside pager.py:\n"
        + "\n".join(f"{path}:{line}: {target}" for path, line, target in violations)
    )


def test_lint_flags_per_op_bookkeeping_in_batched_loops():
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        def apply_batch(self, operations):
            for operation in operations:
                before = self.device.snapshot()      # per-op snapshot
                self.run(operation)
                self.device.stats_since(before)      # per-op delta
            while operations:
                operations.pop()
                total = self.device.counters          # derived property
            return total
        """
    )
    violations = lint_counters.violations_in_source(bad, "bad.py")
    targets = [target for _path, _line, target in violations]
    assert targets == [
        "batch-loop self.device.snapshot",
        "batch-loop self.device.stats_since",
        "batch-loop self.device.counters",
    ]


def test_lint_batch_rule_ignores_hoisted_and_per_op_functions():
    lint_counters = _lint_counters()
    fine = textwrap.dedent(
        """
        def apply_batch(self, operations):
            before = self.device.snapshot()          # hoisted: per batch
            for operation in operations:
                self.run(operation)
            self.device.stats_since(before)

        def measure(self, operations):
            for operation in operations:             # not a batched entry
                before = self.device.snapshot()
                self.run(operation)
                self.device.stats_since(before)
        """
    )
    assert lint_counters.violations_in_source(fine, "fine.py") == []


def test_lint_flags_direct_device_writes_in_serve_modules():
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        class Server:
            def apply(self, payload):
                block = self.device.allocate("data")
                self.device.write(block, payload, used_bytes=8)
                self.device.free(block)
                device = self.device
                device.write_many([block], [payload], [8])
        """
    )
    violations = lint_counters.violations_in_source(
        bad, "server.py", check_serve_writes=True
    )
    assert len(violations) == 4
    assert all(target.startswith("serve-write ") for _, _, target in violations)


def test_lint_serve_rule_allows_reads_and_method_calls():
    lint_counters = _lint_counters()
    fine = textwrap.dedent(
        """
        class Server:
            def read(self, txn, key):
                self.device.read(7)
                self.device.kind_of(7)
                self.method.insert(key, 1)   # method owns its writes
                self.wal.append(1, "put", key)
                other.write(3, "x")          # not a device owner
        """
    )
    assert lint_counters.violations_in_source(
        fine, "server.py", check_serve_writes=True
    ) == []


def test_lint_serve_rule_off_by_default():
    lint_counters = _lint_counters()
    source = "def f(device):\n    device.write(1, 'x')\n"
    assert lint_counters.violations_in_source(source, "wal.py") == []


def test_lint_tree_applies_serve_rule_outside_wal_only():
    """The tree walk enables the serve rule for repro/serve modules
    except wal.py — pinned by linting the real tree (no violations) and
    by a synthetic layout check on the flag computation."""
    lint_counters = _lint_counters()
    violations = [
        v
        for v in lint_counters.check_tree(SRC_PATH)
        if v[2].startswith("serve-write ")
    ]
    assert violations == []


def test_lint_serve_rule_covers_store_and_hierarchy_owners():
    # The serve tier mounts methods on BlockStore seams (``store``,
    # ``hierarchy`` owners), and mutating those directly bypasses the
    # same bookkeeping as a raw device write.
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        class Server:
            def sneak(self, payload):
                self.store.write(1, payload, used_bytes=8)
                self.hierarchy.write(2, payload, 8)
                block = self.store.allocate("data")
        """
    )
    violations = lint_counters.violations_in_source(
        bad, "server.py", check_serve_writes=True
    )
    assert len(violations) == 3
    assert all(target.startswith("serve-write ") for _, _, target in violations)


def test_lint_wal_rule_forbids_raw_device_writes():
    # wal.py's sanctioned surface is its LogStore seam (``self.store``);
    # going around it to a bare device or the hierarchy's backing would
    # dodge the cache levels the modeled fsync must flow through.
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        class WriteAheadLog:
            def sync(self):
                block = self.device.allocate("wal")
                self.device.write(block, [], used_bytes=0)
                self.backing.write(block, [], used_bytes=0)
        """
    )
    violations = lint_counters.violations_in_source(
        bad, "wal.py", check_serve_wal=True
    )
    assert len(violations) == 3
    assert all(
        target.startswith("wal-raw-write ") for _, _, target in violations
    )


def test_lint_wal_rule_allows_the_store_seam():
    lint_counters = _lint_counters()
    fine = textwrap.dedent(
        """
        class WriteAheadLog:
            def sync(self):
                block = self.store.allocate("wal")
                self.store.write(block, [], used_bytes=0)
                self.store.sync_through((block,))
                self.store.free(block)
        """
    )
    assert lint_counters.violations_in_source(
        fine, "wal.py", check_serve_wal=True
    ) == []


def test_lint_flags_live_registry_mutation_when_enabled():
    lint_counters = _lint_counters()
    bad = textwrap.dedent(
        """
        def sneaky(self, live, registry, io):
            live.count("txn-begin", now=0.0)
            self.live.observe("latency", 3.0, now=0.0)
            registry.gauge("depth", 4, now=0.0)
            self.windowed.observe_op("insert", False, io, 1, 0.0)
        """
    )
    violations = lint_counters.violations_in_source(
        bad, "bad.py", check_live=True
    )
    assert len(violations) == 4
    assert all(
        target.startswith("live-mutate ") for _, _, target in violations
    )


def test_lint_live_rule_allows_reads_and_non_live_owners():
    lint_counters = _lint_counters()
    fine = textwrap.dedent(
        """
        def fine(self, live, metrics):
            frames = live.snapshot()         # reads stay fine anywhere
            totals = live.totals()
            metrics.observe("x", 1)          # not a live-ish owner
            return frames, totals
        """
    )
    assert lint_counters.violations_in_source(
        fine, "fine.py", check_live=True
    ) == []


def test_lint_live_rule_off_by_default():
    # Sanctioned modules (repro/obs, the rum/runner/serve taps) are
    # linted with check_live off, mirroring the tree walk.
    lint_counters = _lint_counters()
    source = "def f(live):\n    live.count('x', now=0.0)\n"
    assert lint_counters.violations_in_source(source, "live.py") == []


def test_lint_tree_applies_live_rule_outside_sanctioned_taps():
    lint_counters = _lint_counters()
    violations = [
        v
        for v in lint_counters.check_tree(SRC_PATH)
        if v[2].startswith("live-mutate ")
    ]
    assert violations == []


def test_lint_tree_applies_wal_rule_to_wal_module():
    lint_counters = _lint_counters()
    violations = [
        v
        for v in lint_counters.check_tree(SRC_PATH)
        if v[2].startswith("wal-raw-write ")
    ]
    assert violations == []
