"""Radix trie (Fredkin, CACM 1960) — fixed access cost via key digits.

A byte-digit trie over integer keys: each level consumes 8 bits of the
key, so a point lookup costs a fixed number of node accesses regardless
of N — the "fixed access cost" building block the paper lists alongside
hash tables.  The price is space: sparse interior nodes proliferate,
placing the trie high on the read-optimized / memory-hungry side of
Figure 1.

Each trie node is stored in a *block group*: one primary block plus
spill blocks when the node's entries outgrow a single device block (a
dense 256-way node is larger than most block sizes).  Reading or
writing a node touches its whole group, so I/O and space accounting
reflect real node sizes.  The trie deepens automatically when a key
needs more digits than the current root covers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.obs.spans import spanned
from repro.storage.device import SimulatedDevice
from repro.storage.layout import POINTER_BYTES, RECORD_BYTES


def _fit_digit_bits(block_bytes: int) -> int:
    """Largest digit width whose full node fits one block.

    A leaf entry costs RECORD_BYTES + 1 tag byte; a full node has
    ``2**bits`` entries.  Real tries choose their radix to match the
    access granularity — a 256-ary node over 256-byte blocks would
    spill across ~17 blocks and ruin the trie's fixed read cost.
    """
    bits = 1
    while (1 << (bits + 1)) * (RECORD_BYTES + 1) <= block_bytes and bits < 8:
        bits += 1
    return bits


class RadixTrie(AccessMethod):
    """Fixed-radix trie with block-group nodes.

    Parameters
    ----------
    digit_bits:
        Bits of the key consumed per level.  Defaults to the widest
        radix whose full node fits one device block.
    """

    name = "trie"
    capabilities = Capabilities(ordered=True, updatable=True)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        digit_bits: Optional[int] = None,
    ) -> None:
        super().__init__(device)
        if digit_bits is None:
            digit_bits = _fit_digit_bits(self.device.block_bytes)
        if not 1 <= digit_bits <= 16:
            raise ValueError("digit_bits must be in [1, 16]")
        self.digit_bits = digit_bits
        self.radix = 1 << digit_bits
        self._root: Optional[int] = None
        self._depth = 1  # digits consumed root -> leaf node
        self._spill: Dict[int, List[int]] = {}  # primary block -> spill blocks

    def _digits_needed(self, key: int) -> int:
        """Number of digits needed to address ``key`` (at least 1)."""
        if key < 0:
            raise ValueError("trie keys must be non-negative")
        digits = 1
        while key >= (1 << (self.digit_bits * digits)):
            digits += 1
        return digits

    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        for key, value in self._sorted_unique(items):
            self.insert(key, value)

    def get(self, key: int) -> Optional[int]:
        # Negative keys are simply not storable, hence absent.
        node_id = self._leaf_for(key)
        if node_id is None:
            return None
        leaf = self._read_node(node_id)
        entry = leaf.get(self._digit(key, 0))
        if entry is None or entry[0] != key:
            return None
        return entry[1]

    def range_query(self, lo: int, hi: int) -> List[Record]:
        if self._root is None or hi < 0:
            return []
        lo = max(lo, 0)
        matches: List[Record] = []
        self._collect(self._root, self._depth - 1, 0, lo, hi, matches)
        return matches

    def insert(self, key: int, value: int) -> None:
        self._ensure_depth(key)
        node_id = self._descend_for_insert(key)
        leaf = self._read_node(node_id)
        digit = self._digit(key, 0)
        if digit in leaf:
            raise ValueError(f"duplicate key {key}")
        leaf[digit] = (key, value)
        self._write_node(node_id, leaf, leaf=True)
        self._record_count += 1

    def update(self, key: int, value: int) -> None:
        node_id = self._leaf_for(key)
        if node_id is None:
            raise KeyError(key)
        leaf = self._read_node(node_id)
        digit = self._digit(key, 0)
        if digit not in leaf or leaf[digit][0] != key:
            raise KeyError(key)
        leaf[digit] = (key, value)
        self._write_node(node_id, leaf, leaf=True)

    def delete(self, key: int) -> None:
        # Walk down remembering the path so empty nodes can be pruned.
        if key < 0 or self._root is None or self._digits_needed(key) > self._depth:
            raise KeyError(key)
        node_id, path = self._descend_with_path(key)
        leaf = self._read_node(node_id)
        digit = self._digit(key, 0)
        if digit not in leaf or leaf[digit][0] != key:
            raise KeyError(key)
        del leaf[digit]
        self._write_node(node_id, leaf, leaf=True)
        self._record_count -= 1
        # Prune now-empty nodes bottom-up.
        child_empty = not leaf
        child_id = node_id
        for parent_id, parent_digit, parent_children in reversed(path):
            if not child_empty:
                break
            self._free_node(child_id)
            del parent_children[parent_digit]
            self._write_node(parent_id, parent_children, leaf=False)
            child_empty = not parent_children
            child_id = parent_id
        if child_empty and child_id == self._root:
            self._free_node(self._root)
            self._root = None
            self._depth = 1

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Digits consumed on a root-to-leaf walk."""
        return self._depth

    # ------------------------------------------------------------------
    # Block-group node storage
    # ------------------------------------------------------------------
    def _node_bytes(self, payload: Dict, leaf: bool) -> int:
        entry_bytes = (RECORD_BYTES if leaf else POINTER_BYTES) + 1
        return len(payload) * entry_bytes

    def _new_node(self) -> int:
        with self._fresh_block("trie-node") as block_id:
            self.device.write(block_id, {}, used_bytes=0)
        return block_id

    def _read_node(self, node_id: int) -> Dict:
        """Read a node's whole block group; returns the payload dict."""
        payload = self.device.read(node_id)
        for spill_id in self._spill.get(node_id, ()):
            self.device.read(spill_id)
        return payload

    def _write_node(self, node_id: int, payload: Dict, leaf: bool) -> None:
        """Write a node, growing/shrinking its spill group as needed."""
        total = self._node_bytes(payload, leaf)
        block = self.device.block_bytes
        spill_needed = max(0, -(-total // block) - 1)
        spills = self._spill.setdefault(node_id, [])
        while len(spills) < spill_needed:
            spills.append(self.device.allocate(kind="trie-spill"))
        while len(spills) > spill_needed:
            self.device.free(spills.pop())
        if not spills:
            del self._spill[node_id]
        self.device.write(node_id, payload, used_bytes=min(total, block))
        remaining = total - block
        for spill_id in spills:
            self.device.write(
                spill_id, ("trie-spill", node_id), used_bytes=min(remaining, block)
            )
            remaining -= block

    def _free_node(self, node_id: int) -> None:
        for spill_id in self._spill.pop(node_id, ()):
            self.device.free(spill_id)
        self.device.free(node_id)

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------
    def _audit_structure(self) -> List[str]:
        """Path consistency: every digit sits inside the radix, every
        leaf entry's key reconstructs from its root-to-leaf digit path,
        empty nodes are pruned, and spill groups match node sizes."""
        violations: List[str] = []
        device = self.device
        on_device_nodes = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id) == "trie-node"
        }
        on_device_spills = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id) == "trie-spill"
        }
        if self._root is None:
            if self._record_count:
                violations.append(
                    f"no root but record count says {self._record_count}"
                )
            if on_device_nodes or on_device_spills:
                violations.append(
                    f"no root but {len(on_device_nodes)} node and "
                    f"{len(on_device_spills)} spill blocks remain"
                )
            if self._spill:
                violations.append("no root but spill directory is non-empty")
            return violations

        reachable: set = set()
        block = device.block_bytes
        total = 0

        def walk(node_id: int, level: int, prefix: int) -> None:
            nonlocal total
            if node_id in reachable:
                violations.append(f"node {node_id} reachable twice (cycle)")
                return
            reachable.add(node_id)
            if node_id not in on_device_nodes:
                violations.append(f"node {node_id} missing from device")
                return
            payload = device.peek(node_id)
            if not isinstance(payload, dict):
                violations.append(
                    f"node {node_id} payload is not a digit map"
                )
                return
            if not payload:
                violations.append(f"empty node {node_id} was not pruned")
            leaf = level == 0
            node_total = self._node_bytes(payload, leaf)
            spill_needed = max(0, -(-node_total // block) - 1)
            spills = self._spill.get(node_id, [])
            if len(spills) != spill_needed:
                violations.append(
                    f"node {node_id} has {len(spills)} spill blocks, "
                    f"size {node_total}B needs {spill_needed}"
                )
            declared = device.used_bytes_of(node_id)
            if declared != min(node_total, block):
                violations.append(
                    f"node {node_id} declares {declared}B, payload "
                    f"says {min(node_total, block)}B"
                )
            for position, spill_id in enumerate(spills):
                if not device.is_allocated(spill_id):
                    violations.append(
                        f"node {node_id}: spill block {spill_id} not allocated"
                    )
                    continue
                expected = min(node_total - block * (position + 1), block)
                spill_declared = device.used_bytes_of(spill_id)
                if spill_declared != expected:
                    violations.append(
                        f"node {node_id}: spill block {spill_id} declares "
                        f"{spill_declared}B, expected {expected}B"
                    )
            span = 1 << (self.digit_bits * level)
            for digit in sorted(payload, key=repr):
                if not isinstance(digit, int) or not 0 <= digit < self.radix:
                    violations.append(
                        f"node {node_id}: digit {digit!r} outside radix "
                        f"{self.radix}"
                    )
                    continue
                entry = payload[digit]
                if leaf:
                    expected_key = prefix + digit
                    if (
                        not isinstance(entry, tuple)
                        or len(entry) != 2
                        or entry[0] != expected_key
                    ):
                        violations.append(
                            f"leaf {node_id}: digit {digit} holds "
                            f"{entry!r}, path says key {expected_key}"
                        )
                    total += 1
                else:
                    if not isinstance(entry, int):
                        violations.append(
                            f"node {node_id}: digit {digit} child "
                            f"{entry!r} is not a block id"
                        )
                        continue
                    walk(entry, level - 1, prefix + digit * span)

        try:
            walk(self._root, self._depth - 1, 0)
        except Exception as error:
            violations.append(f"trie walk failed: {error!r}")
            return violations

        orphans = on_device_nodes - reachable
        if orphans:
            violations.append(
                f"{len(orphans)} unreachable trie-node blocks: "
                f"{sorted(orphans)[:5]}"
            )
        tracked_spills = [
            spill_id for spills in self._spill.values() for spill_id in spills
        ]
        if len(set(tracked_spills)) != len(tracked_spills):
            violations.append("spill block id referenced twice")
        if set(tracked_spills) != on_device_spills:
            violations.append(
                f"spill mismatch: tracked-only "
                f"{sorted(set(tracked_spills) - on_device_spills)}, "
                f"device-only {sorted(on_device_spills - set(tracked_spills))}"
            )
        stale_owners = set(self._spill) - reachable
        if stale_owners:
            violations.append(
                f"spill directory lists unreachable nodes: "
                f"{sorted(stale_owners)[:5]}"
            )
        if total != self._record_count:
            violations.append(
                f"leaves hold {total} records, record count says "
                f"{self._record_count}"
            )
        return violations

    # ------------------------------------------------------------------
    def _digit(self, key: int, level: int) -> int:
        return (key >> (self.digit_bits * level)) & (self.radix - 1)

    @spanned("trie.walk")
    def _leaf_for(self, key: int) -> Optional[int]:
        if key < 0 or self._root is None or self._digits_needed(key) > self._depth:
            return None
        node_id = self._root
        for level in range(self._depth - 1, 0, -1):
            children = self._read_node(node_id)
            child = children.get(self._digit(key, level))
            if child is None:
                return None
            node_id = child
        return node_id

    @spanned("trie.walk")
    def _descend_for_insert(self, key: int) -> int:
        """Walk toward ``key``'s leaf, materialising missing interior
        nodes along the way; returns the leaf node's block id."""
        if self._root is None:
            self._root = self._new_node()
        node_id = self._root
        for level in range(self._depth - 1, 0, -1):
            children = self._read_node(node_id)
            digit = self._digit(key, level)
            child = children.get(digit)
            if child is None:
                child = self._new_node()
                children[digit] = child
                self._write_node(node_id, children, leaf=False)
            node_id = child
        return node_id

    @spanned("trie.walk")
    def _descend_with_path(self, key: int):
        """Walk toward ``key``'s leaf remembering (node, digit, payload)
        per interior level so delete can prune bottom-up."""
        path: List[tuple] = []
        node_id = self._root
        for level in range(self._depth - 1, 0, -1):
            children = self._read_node(node_id)
            digit = self._digit(key, level)
            child = children.get(digit)
            if child is None:
                raise KeyError(key)
            path.append((node_id, digit, children))
            node_id = child
        return node_id, path

    def _ensure_depth(self, key: int) -> None:
        """Deepen the trie so ``key`` fits, re-rooting existing data."""
        needed = self._digits_needed(key)
        while self._depth < needed:
            if self._root is not None:
                # The old root holds all keys with high digit 0 at the new
                # level, so it becomes child 0 of a fresh root.
                new_root = self._new_node()
                self._write_node(new_root, {0: self._root}, leaf=False)
                self._root = new_root
            self._depth += 1

    def _collect(
        self,
        node_id: int,
        level: int,
        prefix: int,
        lo: int,
        hi: int,
        matches: List[Record],
    ) -> None:
        """In-order DFS over the subtrie, pruned by the [lo, hi] bounds."""
        payload = self._read_node(node_id)
        if level == 0:
            for digit in sorted(payload):
                key, value = payload[digit]
                if lo <= key <= hi:
                    matches.append((key, value))
            return
        span = 1 << (self.digit_bits * level)
        for digit in sorted(payload):
            child_lo = prefix + digit * span
            child_hi = child_lo + span - 1
            if child_hi < lo or child_lo > hi:
                continue
            self._collect(payload[digit], level - 1, child_lo, lo, hi, matches)
