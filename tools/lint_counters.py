"""Lint: device internals may only be touched inside ``repro/storage``.

The RUM measurements are ratios of device counters, so the set of code
locations that can change them must stay auditable: exactly the storage
substrate.  This checker walks the AST of every module under
``src/repro`` outside ``storage/`` and flags:

* any assignment or augmented assignment whose target is a counter
  field reached through a ``counters`` attribute or variable
  (``device.counters.reads += 1``, ``counters.simulated_time = 0``, ...);
* any access — read *or* write — to a :class:`SimulatedDevice` private
  attribute through a ``device`` or ``backing`` expression
  (``self.device._blocks``, ``backing._used_total``, ...).  Methods and
  audits must go through the public no-I/O surface (``peek``,
  ``kind_of``, ``used_bytes_of``, ``iter_block_ids``, ...) so the block
  table stays encapsulated;
* any access to a :class:`~repro.storage.pager.BufferPool` frame table
  (``._frames``) outside ``repro/storage/pager.py`` itself — this rule
  applies to *every* module, including the rest of ``storage/``.  The
  hierarchy once reached into ``pool._frames`` and hand-incremented the
  pool's stats, duplicating (and drifting from) the pool's own hit/miss
  logic; callers must use the public surface (``contains``, ``peek``,
  ``iter_frames``, ``iter_dirty``, ``fill_clean``, ...);
* any direct ``Tracer.emit`` call outside ``repro/obs`` and
  ``repro/storage`` — the event vocabulary (and the span stamping that
  rides on it) must stay auditable in one place.  Code elsewhere reports
  through a sanctioned helper
  (:func:`repro.obs.tracer.emit_audit_events`,
  :func:`repro.obs.tracer.emit_fault_event`);
* any per-op device bookkeeping (``snapshot``, ``stats_since``, the
  derived ``counters`` property) inside a loop of ``apply_batch``
  outside ``repro/storage`` — the one measurement loop
  (``repro.core.rum``) brackets a whole window with one snapshot pair,
  so the function that executes a window must not take another per
  operation inside it;
* any direct device mutation (``write``, ``write_many``, ``allocate``,
  ``free``) inside ``repro/serve`` outside ``wal.py`` — the serving
  tier's durability story depends on every durable byte flowing through
  the write-ahead log or the access method's own apply path; a server
  module scribbling on the device directly would bypass both the redo
  log and the RUM accounting the method layer owns.  The rule also
  covers the log's ``store`` / ``hierarchy`` seam names, so a serve
  module cannot dodge it by renaming its handle;
* any mutation through a ``device`` / ``backing`` owner inside
  ``wal.py`` itself — the log's one sanctioned mutation surface is the
  :class:`~repro.storage.store.LogStore` seam (``self.store``), which
  is what lets the same WAL run over a bare device or a whole chained
  hierarchy; reaching around the seam to a raw device would write log
  blocks that ``sync_through`` (the modeled fsync) never forces down;
* any mutation of the live observability substrate
  (:class:`~repro.obs.live.LiveRegistry` /
  :class:`~repro.obs.live.WindowedRUM` — ``count``, ``gauge``,
  ``observe``, ``observe_op``, ...) outside ``repro/obs`` and the
  sanctioned taps (the measurement loop in ``core/rum.py``, the
  workload runner, and the serving tier's ``server.py``/``bench.py``).
  The per-window conservation contract only holds if every sample
  flows through those few audited emit sites; a stray
  ``live.count(...)`` elsewhere would silently skew window sums away
  from the whole-run totals.

Run from the repository root::

    python tools/lint_counters.py

Exit status 1 and one line per violation when any are found;
``tests/unit/test_lint_counters.py`` runs the same check in CI.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import List, Tuple

#: The fields of repro.storage.device.DeviceCounters.
COUNTER_FIELDS = {
    "reads",
    "writes",
    "read_bytes",
    "write_bytes",
    "allocations",
    "frees",
    "simulated_time",
}

#: Private attributes of repro.storage.device.SimulatedDevice: the block
#: table, the allocator cursor, and the raw per-category tallies the
#: ``counters`` property is derived from.
DEVICE_PRIVATE_FIELDS = {
    "_blocks",
    "_next_id",
    "_used_total",
    "_seq_read_id",
    "_seq_write_id",
    "_seq_reads",
    "_rand_reads",
    "_seq_writes",
    "_rand_writes",
    "_allocations",
    "_frees",
    "_time_base",
}

#: Variable / attribute names that conventionally hold a device in this
#: codebase (``self.device``, ``device``, and wrapper ``backing``).
DEVICE_OWNER_NAMES = {"device", "backing"}

#: Private attributes of repro.storage.pager.BufferPool: the frame
#: table.  Off-limits everywhere except pager.py itself.
POOL_PRIVATE_FIELDS = {"_frames"}

#: The one module that owns the buffer-pool frame table.
POOL_MODULE = os.path.join("repro", "storage", "pager.py")

#: Subtree whose modules own the counters and may mutate them.
ALLOWED_SUBPACKAGE = os.path.join("repro", "storage")

#: Device bookkeeping that belongs to the measurement loop, once per
#: counter *window*, never to the function executing the window: a
#: ``snapshot``/``stats_since`` pair or a ``counters`` materialization
#: inside the loop of ``apply_batch`` (the loop's one operation
#: dispatch) would pay per operation what the window pays once
#: (``counters`` is a derived property on the device — every touch
#: builds a fresh object).
PER_OP_BOOKKEEPING = {"snapshot", "stats_since", "counters"}

#: Function names treated as batched entry points for the rule above.
BATCH_FUNCTION_NAMES = {"apply_batch"}

#: Subtrees whose modules may call ``Tracer.emit`` directly: the
#: observability layer itself and the storage substrate's emission
#: sites.  Everything else must go through a sanctioned helper
#: (``emit_audit_events``, ``emit_fault_event``) so the set of event
#: vocabularies stays auditable in one module.
EMIT_ALLOWED_SUBPACKAGES = (
    os.path.join("repro", "obs"),
    os.path.join("repro", "storage"),
)

#: Device mutation surface the serving tier may not call directly: all
#: durable serving-tier state flows through the WAL or the method's
#: apply path, never straight onto the device.
SERVE_DEVICE_WRITE_CALLS = {"write", "write_many", "allocate", "free"}

#: Owner names of the log's sanctioned block-store seam.  Outside
#: ``wal.py`` these are just as off-limits for mutation as a raw
#: device; inside ``wal.py``, ``store`` is the one allowed owner.
STORE_OWNER_NAMES = {"store", "hierarchy"}

#: The serving-tier subtree the rule above applies to, and the one
#: module inside it that owns the log blocks and may mutate the device.
SERVE_SUBPACKAGE = os.path.join("repro", "serve")
SERVE_WAL_MODULE = os.path.join("repro", "serve", "wal.py")

#: Mutation surface of the live observability substrate
#: (repro.obs.live.LiveRegistry / WindowedRUM).  Reads — ``snapshot``,
#: ``frames``, ``totals``, ``counter_total`` — are fine anywhere.
LIVE_MUTATION_METHODS = {
    "count",
    "gauge",
    "observe",
    "observe_op",
    "observe_flush",
    "observe_space",
    "consume_event",
    "advance",
}

#: Owner-name markers that make a call receiver live-registry-ish in
#: this codebase: ``live``, ``self.live``, ``registry``, ``windowed``.
LIVE_OWNER_MARKERS = ("live", "registry", "windowed")

#: The live substrate's home, where mutation is always sanctioned.
LIVE_ALLOWED_SUBPACKAGE = os.path.join("repro", "obs")

#: The audited tap sites outside repro/obs: the measurement loop, the
#: workload runner that threads ``live`` through, and the serving
#: tier's emit sites.
LIVE_TAP_MODULES = (
    os.path.join("repro", "core", "rum.py"),
    os.path.join("repro", "workloads", "runner.py"),
    os.path.join("repro", "serve", "server.py"),
    os.path.join("repro", "serve", "bench.py"),
)

Violation = Tuple[str, int, str]


def _is_counter_target(node: ast.expr) -> bool:
    """True for ``<...>.counters.<field>`` or ``counters.<field>`` targets."""
    if not isinstance(node, ast.Attribute) or node.attr not in COUNTER_FIELDS:
        return False
    owner = node.value
    if isinstance(owner, ast.Attribute):
        return owner.attr == "counters"
    if isinstance(owner, ast.Name):
        return owner.id == "counters"
    return False


def _is_private_device_access(node: ast.expr) -> bool:
    """True for ``<...>.device._blocks``-style expressions: a device
    private attribute reached through a ``device``/``backing`` owner."""
    if not isinstance(node, ast.Attribute) or node.attr not in DEVICE_PRIVATE_FIELDS:
        return False
    owner = node.value
    if isinstance(owner, ast.Attribute):
        return owner.attr in DEVICE_OWNER_NAMES
    if isinstance(owner, ast.Name):
        return owner.id in DEVICE_OWNER_NAMES
    return False


def _is_tracer_emit_call(node: ast.expr) -> bool:
    """True for ``<tracer-ish>.emit(...)`` call expressions.

    A tracer-ish owner is any name or attribute whose (lowercased) last
    component mentions ``tracer`` — ``tracer.emit``, ``self.tracer.emit``,
    ``self._tracer.emit``, ``NULL_TRACER.emit``, ...
    """
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "emit":
        return False
    owner = func.value
    if isinstance(owner, ast.Attribute):
        return "tracer" in owner.attr.lower()
    if isinstance(owner, ast.Name):
        return "tracer" in owner.id.lower()
    return False


def _is_device_write_call(node: ast.expr, owner_names=None) -> bool:
    """True for ``<device-ish>.write(...)``-style mutation calls.

    A device-ish owner is a name or attribute in ``owner_names``
    (default: ``device`` / ``backing``) — ``self.device.allocate(...)``,
    ``device.write(...)``, ``self.store.free(...)``.
    """
    if owner_names is None:
        owner_names = DEVICE_OWNER_NAMES
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr not in SERVE_DEVICE_WRITE_CALLS:
        return False
    owner = func.value
    if isinstance(owner, ast.Attribute):
        return owner.attr in owner_names
    if isinstance(owner, ast.Name):
        return owner.id in owner_names
    return False


def _is_live_mutation_call(node: ast.expr) -> bool:
    """True for ``<live-ish>.count(...)``-style mutation calls.

    A live-ish owner is a name or attribute whose (lowercased) last
    component mentions a :data:`LIVE_OWNER_MARKERS` word —
    ``live.observe_op``, ``self.live.count``, ``registry.gauge``, ...
    """
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr not in LIVE_MUTATION_METHODS:
        return False
    owner = func.value
    if isinstance(owner, ast.Attribute):
        name = owner.attr
    elif isinstance(owner, ast.Name):
        name = owner.id
    else:
        return False
    lowered = name.lower()
    return any(marker in lowered for marker in LIVE_OWNER_MARKERS)


def violations_in_source(
    source: str, path: str, *, frames_only: bool = False,
    check_emit: bool = False, check_serve_writes: bool = False,
    check_serve_wal: bool = False, check_live: bool = False,
) -> List[Violation]:
    """All counter-mutation and private-access sites in one module.

    ``frames_only`` restricts the check to the frame-table rule — used
    for modules inside ``repro/storage`` (which own the device counters
    but still may not reach into ``BufferPool._frames``).  ``check_emit``
    additionally flags direct ``Tracer.emit`` calls — enabled for
    modules outside :data:`EMIT_ALLOWED_SUBPACKAGES`.
    ``check_serve_writes`` flags direct device *and* store-seam mutation
    calls — enabled for ``repro/serve`` modules other than ``wal.py``.
    ``check_serve_wal`` flags raw ``device``/``backing`` mutation only —
    enabled for ``wal.py`` itself, whose sanctioned surface is the
    ``store`` seam.  ``check_live`` flags live-registry mutation calls —
    enabled outside ``repro/obs`` and the :data:`LIVE_TAP_MODULES`.
    """
    found: List[Violation] = []
    tree = ast.parse(source, filename=path)
    for node in ast.walk(tree):
        if check_emit and _is_tracer_emit_call(node):
            found.append((path, node.lineno, ast.unparse(node.func)))
        if check_live and _is_live_mutation_call(node):
            found.append(
                (path, node.lineno, f"live-mutate {ast.unparse(node.func)}")
            )
        if check_serve_writes and _is_device_write_call(
            node, DEVICE_OWNER_NAMES | STORE_OWNER_NAMES
        ):
            found.append(
                (path, node.lineno, f"serve-write {ast.unparse(node.func)}")
            )
        if check_serve_wal and _is_device_write_call(node):
            found.append(
                (path, node.lineno, f"wal-raw-write {ast.unparse(node.func)}")
            )
        if not frames_only:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                elements = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    if _is_counter_target(element):
                        found.append(
                            (path, element.lineno, ast.unparse(element))
                        )
            # Private device attributes are off-limits in any expression
            # position, not just assignment targets.
            if isinstance(node, ast.Attribute) and _is_private_device_access(node):
                found.append((path, node.lineno, ast.unparse(node)))
        # The buffer-pool frame table is off-limits everywhere (the pool
        # module itself is excluded by the caller).
        if isinstance(node, ast.Attribute) and node.attr in POOL_PRIVATE_FIELDS:
            found.append((path, node.lineno, ast.unparse(node)))
    if not frames_only:
        found.extend(_batch_loop_bookkeeping(tree, path))
    return found


def _batch_loop_bookkeeping(tree: ast.AST, path: str) -> List[Violation]:
    """Per-op device bookkeeping inside the loops of batched entry points.

    Flags any ``snapshot`` / ``stats_since`` / ``counters`` attribute
    reached inside a ``for``/``while`` loop of a function named
    ``apply_batch``; such bookkeeping is the measurement loop's, once
    around the whole call, never per iteration inside it.
    """
    found: List[Violation] = []
    seen = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name not in BATCH_FUNCTION_NAMES:
            continue
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for sub in ast.walk(loop):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in PER_OP_BOOKKEEPING
                ):
                    key = (sub.lineno, sub.col_offset)
                    if key in seen:
                        continue
                    seen.add(key)
                    found.append(
                        (path, sub.lineno, f"batch-loop {ast.unparse(sub)}")
                    )
    return found


def check_tree(src_root: str) -> List[Violation]:
    """Counter mutations in every repro module outside the storage
    package, plus frame-table reaches anywhere outside pager.py."""
    found: List[Violation] = []
    for dirpath, _dirnames, filenames in sorted(os.walk(src_root)):
        normalized = os.path.normpath(dirpath)
        in_storage = ALLOWED_SUBPACKAGE in normalized
        in_serve = SERVE_SUBPACKAGE in normalized
        emit_allowed = any(
            subpackage in normalized
            for subpackage in EMIT_ALLOWED_SUBPACKAGES
        )
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            normalized_path = os.path.normpath(path)
            if normalized_path.endswith(POOL_MODULE):
                continue
            is_wal = normalized_path.endswith(SERVE_WAL_MODULE)
            live_sanctioned = (
                LIVE_ALLOWED_SUBPACKAGE in normalized
                or any(
                    normalized_path.endswith(tap)
                    for tap in LIVE_TAP_MODULES
                )
            )
            with open(path) as handle:
                found.extend(
                    violations_in_source(
                        handle.read(), path, frames_only=in_storage,
                        check_emit=not emit_allowed,
                        check_serve_writes=in_serve and not is_wal,
                        check_serve_wal=in_serve and is_wal,
                        check_live=not live_sanctioned,
                    )
                )
    return found


def main() -> int:
    """Check the repository's ``src`` tree; print violations."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    violations = check_tree(os.path.join(root, "src"))
    for path, line, target in violations:
        field = target.rpartition(".")[2]
        if target.startswith("batch-loop "):
            message = (
                "per-op device bookkeeping inside a batched loop "
                "(hoist snapshot/stats_since/counters out of the loop)"
            )
        elif target.startswith("serve-write "):
            message = (
                "direct device/store mutation in repro/serve outside "
                "wal.py (durable state flows through the WAL or the "
                "method)"
            )
        elif target.startswith("wal-raw-write "):
            message = (
                "raw device mutation inside wal.py (the log's sanctioned "
                "surface is the LogStore seam, self.store)"
            )
        elif target.startswith("live-mutate "):
            message = (
                "live-registry mutation outside repro/obs and the "
                "sanctioned taps (core/rum.py, workloads/runner.py, "
                "serve/server.py, serve/bench.py) — a stray sample "
                "breaks the per-window conservation contract"
            )
        elif field == "emit":
            message = (
                "direct Tracer.emit outside repro/obs and repro/storage "
                "(use emit_audit_events / emit_fault_event)"
            )
        elif field in POOL_PRIVATE_FIELDS:
            message = "BufferPool frame table accessed outside pager.py"
        elif field in DEVICE_PRIVATE_FIELDS:
            message = "device-private attribute accessed outside storage/"
        else:
            message = "DeviceCounters mutated outside storage/"
        print(f"{path}:{line}: {message}: {target}")
    if violations:
        return 1
    print(
        "ok: device internals only touched inside repro/storage, "
        "frame table only inside pager.py, Tracer.emit only inside "
        "repro/obs and repro/storage, no per-op bookkeeping in "
        "batched loops, serve-tier device/store mutation only inside "
        "wal.py, wal.py only through its LogStore seam, and live "
        "registries mutated only at the sanctioned emit sites"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
