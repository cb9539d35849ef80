"""B+-Tree — the read-optimized corner of Figure 1 and Table 1's first row.

A disk-style B+-Tree: every node occupies one block, leaves are chained
for range scans, and bulk loading builds the tree bottom-up from sorted
input (after a charged external sort, the O(N/B log_{MEM/B} N/B) bulk
cost of Table 1).  Point queries read root-to-leaf, O(log_B N) blocks;
range queries add m/B sequential leaf reads; inserts and deletes pay the
same logarithmic path plus occasional splits/merges.

Tunable knobs (Section 5's "B+-Trees that have dynamically tuned
parameters, including tree height, node size, and split condition"):

* ``leaf_capacity`` / ``fanout`` — node sizes, defaulting to what fits a
  block; smaller values trade space (more, emptier nodes: MO up) for
  cheaper individual writes.
* ``split_fill`` — fraction of entries kept left on a split: 0.5 is the
  classic even split; higher values pack right-growing (sequential)
  inserts densely.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Tuple

from repro.core.interfaces import AccessMethod, Capabilities, Record
from repro.obs.spans import spanned
from repro.storage.device import SimulatedDevice
from repro.storage.layout import (
    KEY_BYTES,
    POINTER_BYTES,
    RECORD_BYTES,
    fanout_for_block,
    records_per_block,
)


class _Leaf:
    """Leaf node payload: sorted keys, parallel values, right-sibling link."""

    __slots__ = ("keys", "values", "next_leaf")

    def __init__(self, keys: List[int], values: List[int], next_leaf: Optional[int]):
        self.keys = keys
        self.values = values
        self.next_leaf = next_leaf

    def used_bytes(self) -> int:
        return len(self.keys) * RECORD_BYTES + POINTER_BYTES


class _Internal:
    """Internal node payload: separator keys and child block ids.

    ``children[i]`` covers keys < ``keys[i]``; ``children[-1]`` covers the
    rest (len(children) == len(keys) + 1).
    """

    __slots__ = ("keys", "children")

    def __init__(self, keys: List[int], children: List[int]):
        self.keys = keys
        self.children = children

    def used_bytes(self) -> int:
        return len(self.keys) * KEY_BYTES + len(self.children) * POINTER_BYTES

    def child_for(self, key: int) -> Tuple[int, int]:
        index = bisect.bisect_right(self.keys, key)
        return index, self.children[index]


class BPlusTree(AccessMethod):
    """A block-resident B+-Tree with tunable node sizes and split policy."""

    name = "btree"
    capabilities = Capabilities(ordered=True, updatable=True)

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        leaf_capacity: Optional[int] = None,
        fanout: Optional[int] = None,
        split_fill: float = 0.5,
        sort_memory_blocks: int = 64,
    ) -> None:
        super().__init__(device)
        block = self.device.block_bytes
        # A leaf stores its records plus the next-leaf pointer, so the
        # default capacity reserves pointer space inside the block.
        default_leaf = max(2, (block - POINTER_BYTES) // RECORD_BYTES)
        self.leaf_capacity = leaf_capacity or default_leaf
        self.fanout = fanout or fanout_for_block(block)
        if self.leaf_capacity < 2:
            raise ValueError("leaf_capacity must be at least 2")
        if self.fanout < 3:
            raise ValueError("fanout must be at least 3")
        # Nodes must fit their block: catch impossible knob/block-size
        # combinations at construction rather than mid-write.
        leaf_bytes = self.leaf_capacity * RECORD_BYTES + POINTER_BYTES
        if leaf_bytes > block:
            raise ValueError(
                f"leaf_capacity {self.leaf_capacity} needs {leaf_bytes} bytes, "
                f"exceeding the {block}-byte block"
            )
        internal_bytes = (self.fanout - 1) * KEY_BYTES + self.fanout * POINTER_BYTES
        if internal_bytes > block:
            raise ValueError(
                f"fanout {self.fanout} needs {internal_bytes} bytes, "
                f"exceeding the {block}-byte block"
            )
        if not 0.1 <= split_fill <= 0.9:
            raise ValueError("split_fill must be in [0.1, 0.9]")
        self.split_fill = split_fill
        self.sort_memory_blocks = sort_memory_blocks
        self._root: Optional[int] = None
        self._height = 0  # number of levels; 1 == root is a leaf

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------
    def bulk_load(self, items: Iterable[Record]) -> None:
        self._require_empty()
        records = self._external_sort(list(items))
        if not records:
            return
        # Build leaves at ~90% occupancy, chained left to right.
        per_leaf = max(2, int(self.leaf_capacity * 0.9))
        leaf_ids: List[int] = []
        leaf_first_keys: List[int] = []
        chunks = [
            records[start : start + per_leaf]
            for start in range(0, len(records), per_leaf)
        ]
        for chunk in chunks:
            leaf_ids.append(self.device.allocate(kind="btree-leaf"))
        for index, chunk in enumerate(chunks):
            next_leaf = leaf_ids[index + 1] if index + 1 < len(leaf_ids) else None
            node = _Leaf(
                [key for key, _ in chunk], [value for _, value in chunk], next_leaf
            )
            self._write_node(leaf_ids[index], node)
            leaf_first_keys.append(chunk[0][0])
        # Build internal levels bottom-up.
        level_ids, level_keys = leaf_ids, leaf_first_keys
        height = 1
        per_internal = max(2, int((self.fanout - 1) * 0.9))
        while len(level_ids) > 1:
            parent_ids: List[int] = []
            parent_keys: List[int] = []
            for start in range(0, len(level_ids), per_internal + 1):
                group_children = level_ids[start : start + per_internal + 1]
                group_keys = level_keys[start + 1 : start + len(group_children)]
                block_id = self.device.allocate(kind="btree-internal")
                self._write_node(block_id, _Internal(group_keys, group_children))
                parent_ids.append(block_id)
                parent_keys.append(level_keys[start])
            level_ids, level_keys = parent_ids, parent_keys
            height += 1
        self._root = level_ids[0]
        self._height = height
        self._record_count = len(records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[int]:
        if self._root is None:
            return None
        node = self._descend(key)
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            return node.values[index]
        return None

    def range_query(self, lo: int, hi: int) -> List[Record]:
        if self._root is None:
            return []
        node = self._descend(lo)
        matches: List[Record] = []
        read = self.device.read
        while True:
            keys = node.keys
            start = bisect.bisect_left(keys, lo)
            stop = bisect.bisect_right(keys, hi, start)
            matches.extend(zip(keys[start:stop], node.values[start:stop]))
            # The next leaf can hold keys <= hi only if none here exceeds hi.
            if stop < len(keys) or node.next_leaf is None:
                return matches
            node = read(node.next_leaf)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        if self._root is None:
            with self._fresh_block("btree-leaf") as root_id:
                self._write_node(root_id, _Leaf([key], [value], None))
            self._root = root_id
            self._height = 1
            self._record_count = 1
            return
        split = self._insert_descent(key, value)
        if split is not None:
            separator, right_id = split
            with self._fresh_block("btree-internal") as new_root:
                self._write_node(
                    new_root, _Internal([separator], [self._root, right_id])
                )
            self._root = new_root
            self._height += 1
        self._record_count += 1

    def update(self, key: int, value: int) -> None:
        if self._root is None:
            raise KeyError(key)
        path = self._path_to_leaf(key)
        leaf_id = path[-1][0]
        leaf = self._read_node(leaf_id)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            raise KeyError(key)
        leaf.values[index] = value
        self._write_node(leaf_id, leaf)

    def delete(self, key: int) -> None:
        if self._root is None:
            raise KeyError(key)
        removed = self._delete_descent(key)
        if not removed:
            raise KeyError(key)
        # Collapse a root that shrank to a single child.
        root_node = self._read_node(self._root)
        if isinstance(root_node, _Internal) and len(root_node.children) == 1:
            old_root = self._root
            self._root = root_node.children[0]
            self.device.free(old_root)
            self._height -= 1
        elif isinstance(root_node, _Leaf) and not root_node.keys:
            self.device.free(self._root)
            self._root = None
            self._height = 0
        self._record_count -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of levels (1 == the root is a leaf)."""
        return self._height

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _read_node(self, block_id: int):
        return self.device.read(block_id)

    def _write_node(self, block_id: int, node) -> None:
        self.device.write(block_id, node, used_bytes=node.used_bytes())

    @spanned("btree.descent")
    def _descend(self, key: int):
        """Root-to-leaf walk: the logarithmic path every operation pays."""
        read = self.device.read
        node = read(self._root)
        while isinstance(node, _Internal):
            node = read(node.children[bisect.bisect_right(node.keys, key)])
        return node

    @spanned("btree.descent")
    def _insert_descent(self, key: int, value: int) -> Optional[Tuple[int, int]]:
        """Span entry point for insertion: the recursive walk runs inside
        one ``btree.descent`` span, with splits nested under it."""
        return self._insert_into(self._root, key, value)

    @spanned("btree.descent")
    def _delete_descent(self, key: int) -> bool:
        """Span entry point for deletion: one ``btree.descent`` span with
        any borrow/merge rebalancing nested under ``btree.merge``."""
        return self._delete_from(self._root, key, parents=[])

    @spanned("btree.descent")
    def _path_to_leaf(self, key: int) -> List[Tuple[int, int]]:
        """(block id, child index chosen) pairs from root to leaf."""
        path: List[Tuple[int, int]] = []
        block_id = self._root
        node = self._read_node(block_id)
        while isinstance(node, _Internal):
            child_index, child = node.child_for(key)
            path.append((block_id, child_index))
            block_id = child
            node = self._read_node(block_id)
        path.append((block_id, -1))
        return path

    def _insert_into(
        self, block_id: int, key: int, value: int
    ) -> Optional[Tuple[int, int]]:
        """Insert below ``block_id``; return (separator, new right id) on split."""
        node = self._read_node(block_id)
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                raise ValueError(f"duplicate key {key}")
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if len(node.keys) <= self.leaf_capacity:
                self._write_node(block_id, node)
                return None
            return self._split_leaf(block_id, node)
        child_index, child = node.child_for(key)
        split = self._insert_into(child, key, value)
        if split is None:
            return None
        separator, right_id = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right_id)
        if len(node.children) <= self.fanout:
            self._write_node(block_id, node)
            return None
        return self._split_internal(block_id, node)

    @spanned("btree.split")
    def _split_leaf(self, block_id: int, node: _Leaf) -> Tuple[int, int]:
        cut = max(1, min(len(node.keys) - 1, int(len(node.keys) * self.split_fill)))
        right = _Leaf(node.keys[cut:], node.values[cut:], node.next_leaf)
        with self._fresh_block("btree-leaf") as right_id:
            self._write_node(right_id, right)
        node.keys = node.keys[:cut]
        node.values = node.values[:cut]
        node.next_leaf = right_id
        self._write_node(block_id, node)
        return right.keys[0], right_id

    @spanned("btree.split")
    def _split_internal(self, block_id: int, node: _Internal) -> Tuple[int, int]:
        cut = max(1, min(len(node.keys) - 1, int(len(node.keys) * self.split_fill)))
        separator = node.keys[cut]
        right = _Internal(node.keys[cut + 1 :], node.children[cut + 1 :])
        with self._fresh_block("btree-internal") as right_id:
            self._write_node(right_id, right)
        node.keys = node.keys[:cut]
        node.children = node.children[: cut + 1]
        self._write_node(block_id, node)
        return separator, right_id

    # -- deletion with borrow/merge rebalancing -------------------------
    def _min_leaf_keys(self) -> int:
        return max(1, self.leaf_capacity // 2)

    def _min_children(self) -> int:
        return max(2, self.fanout // 2)

    def _delete_from(self, block_id: int, key: int, parents: List[Tuple]) -> bool:
        node = self._read_node(block_id)
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            node.keys.pop(index)
            node.values.pop(index)
            self._write_node(block_id, node)
            return True
        child_index, child = node.child_for(key)
        removed = self._delete_from(child, key, parents + [(block_id, child_index)])
        if not removed:
            return False
        self._rebalance_child(block_id, node, child_index)
        return True

    @spanned("btree.merge")
    def _rebalance_child(self, parent_id: int, parent: _Internal, child_index: int) -> None:
        child_id = parent.children[child_index]
        child = self._read_node(child_id)
        if isinstance(child, _Leaf):
            if len(child.keys) >= self._min_leaf_keys():
                return
        elif len(child.children) >= self._min_children():
            return
        # Try borrowing from the left sibling, then the right, else merge.
        if child_index > 0 and self._borrow(
            parent, parent_id, child_index, from_left=True
        ):
            return
        if child_index + 1 < len(parent.children) and self._borrow(
            parent, parent_id, child_index, from_left=False
        ):
            return
        if child_index > 0:
            self._merge_children(parent, parent_id, child_index - 1)
        elif child_index + 1 < len(parent.children):
            self._merge_children(parent, parent_id, child_index)

    def _borrow(
        self, parent: _Internal, parent_id: int, child_index: int, from_left: bool
    ) -> bool:
        sibling_index = child_index - 1 if from_left else child_index + 1
        sibling_id = parent.children[sibling_index]
        child_id = parent.children[child_index]
        sibling = self._read_node(sibling_id)
        child = self._read_node(child_id)
        if isinstance(sibling, _Leaf):
            if len(sibling.keys) <= self._min_leaf_keys():
                return False
            if from_left:
                child.keys.insert(0, sibling.keys.pop())
                child.values.insert(0, sibling.values.pop())
                parent.keys[child_index - 1] = child.keys[0]
            else:
                child.keys.append(sibling.keys.pop(0))
                child.values.append(sibling.values.pop(0))
                parent.keys[child_index] = sibling.keys[0]
        else:
            if len(sibling.children) <= self._min_children():
                return False
            if from_left:
                separator = parent.keys[child_index - 1]
                child.keys.insert(0, separator)
                child.children.insert(0, sibling.children.pop())
                parent.keys[child_index - 1] = sibling.keys.pop()
            else:
                separator = parent.keys[child_index]
                child.keys.append(separator)
                child.children.append(sibling.children.pop(0))
                parent.keys[child_index] = sibling.keys.pop(0)
        self._write_node(sibling_id, sibling)
        self._write_node(child_id, child)
        self._write_node(parent_id, parent)
        return True

    def _merge_children(self, parent: _Internal, parent_id: int, left_index: int) -> None:
        """Merge children at left_index and left_index + 1 into the left."""
        left_id = parent.children[left_index]
        right_id = parent.children[left_index + 1]
        left = self._read_node(left_id)
        right = self._read_node(right_id)
        if isinstance(left, _Leaf):
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)
        self._write_node(left_id, left)
        self._write_node(parent_id, parent)
        self.device.free(right_id)

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------
    def _audit_structure(self) -> List[str]:
        """Key order and separator bounds, node capacities, uniform leaf
        depth, left-to-right leaf chaining, and no orphaned tree blocks."""
        violations: List[str] = []
        device = self.device
        on_device = {
            block_id
            for block_id in device.iter_block_ids()
            if device.kind_of(block_id).startswith("btree-")
        }
        if self._root is None:
            if self._record_count:
                violations.append(f"no root but record count {self._record_count}")
            if self._height:
                violations.append(f"no root but height {self._height}")
            if on_device:
                violations.append(
                    f"no root but device holds tree blocks {sorted(on_device)}"
                )
            return violations
        reachable: set = set()
        leaves: List[Tuple[int, _Leaf]] = []
        leaf_depths: set = set()
        total = 0

        def walk(block_id: int, lo: Optional[int], hi: Optional[int], depth: int):
            nonlocal total
            if block_id in reachable:
                violations.append(f"node {block_id} reachable via two paths")
                return
            reachable.add(block_id)
            if block_id not in on_device:
                violations.append(f"node {block_id} missing from device")
                return
            node = device.peek(block_id)
            declared = device.used_bytes_of(block_id)
            kind = device.kind_of(block_id)
            if isinstance(node, _Leaf):
                leaf_depths.add(depth)
                if kind != "btree-leaf":
                    violations.append(f"leaf {block_id} stored in {kind!r} block")
                if len(node.keys) != len(node.values):
                    violations.append(
                        f"leaf {block_id}: {len(node.keys)} keys vs "
                        f"{len(node.values)} values"
                    )
                if len(node.keys) > self.leaf_capacity:
                    violations.append(
                        f"leaf {block_id}: {len(node.keys)} keys exceed "
                        f"capacity {self.leaf_capacity}"
                    )
                if node.keys != sorted(set(node.keys)):
                    violations.append(f"leaf {block_id}: keys not strictly sorted")
                for key in node.keys:
                    if (lo is not None and key < lo) or (hi is not None and key >= hi):
                        violations.append(
                            f"leaf {block_id}: key {key} outside separator "
                            f"bounds [{lo}, {hi})"
                        )
                if declared != node.used_bytes():
                    violations.append(
                        f"leaf {block_id}: declared {declared}B != "
                        f"{node.used_bytes()}B of contents"
                    )
                total += len(node.keys)
                leaves.append((block_id, node))
            elif isinstance(node, _Internal):
                if kind != "btree-internal":
                    violations.append(f"internal {block_id} stored in {kind!r} block")
                if len(node.children) != len(node.keys) + 1:
                    violations.append(
                        f"internal {block_id}: {len(node.children)} children "
                        f"vs {len(node.keys)} separators"
                    )
                    return
                if len(node.children) > self.fanout:
                    violations.append(
                        f"internal {block_id}: {len(node.children)} children "
                        f"exceed fanout {self.fanout}"
                    )
                if node.keys != sorted(set(node.keys)):
                    violations.append(
                        f"internal {block_id}: separators not strictly sorted"
                    )
                for key in node.keys:
                    if (lo is not None and key < lo) or (hi is not None and key >= hi):
                        violations.append(
                            f"internal {block_id}: separator {key} outside "
                            f"[{lo}, {hi})"
                        )
                if declared != node.used_bytes():
                    violations.append(
                        f"internal {block_id}: declared {declared}B != "
                        f"{node.used_bytes()}B of contents"
                    )
                bounds = [lo] + list(node.keys) + [hi]
                for index, child in enumerate(node.children):
                    walk(child, bounds[index], bounds[index + 1], depth + 1)
            else:
                violations.append(
                    f"node {block_id}: unrecognized payload "
                    f"{type(node).__name__}"
                )

        try:
            walk(self._root, None, None, 1)
        except Exception as error:  # corrupt payloads must not crash the audit
            violations.append(f"tree walk failed: {error!r}")
            return violations
        for index, (block_id, node) in enumerate(leaves):
            expected = leaves[index + 1][0] if index + 1 < len(leaves) else None
            if node.next_leaf != expected:
                violations.append(
                    f"leaf {block_id}: next_leaf {node.next_leaf}, "
                    f"chain expects {expected}"
                )
        if leaf_depths and leaf_depths != {self._height}:
            violations.append(
                f"leaf depths {sorted(leaf_depths)} != height {self._height}"
            )
        if total != self._record_count:
            violations.append(
                f"leaves hold {total} records, record count says "
                f"{self._record_count}"
            )
        orphans = on_device - reachable
        if orphans:
            violations.append(f"orphaned tree blocks on device: {sorted(orphans)}")
        return violations

    # -- charged external sort (shared shape with SortedColumn) ---------
    def _external_sort(self, records: List[Record]) -> List[Record]:
        if not records:
            return []
        per_block = records_per_block(self.device.block_bytes)
        run_records = self.sort_memory_blocks * per_block
        runs: List[List[int]] = []
        for start in range(0, len(records), run_records):
            chunk = sorted(records[start : start + run_records], key=lambda r: r[0])
            runs.append(self._write_temp_run(chunk, per_block))
        fan_in = max(2, self.sort_memory_blocks - 1)
        while len(runs) > 1:
            merged: List[List[int]] = []
            for start in range(0, len(runs), fan_in):
                merged.append(self._merge_temp_runs(runs[start : start + fan_in], per_block))
            runs = merged
        final = self._drain_run(runs[0])
        return self._sorted_unique(final)

    def _write_temp_run(self, records: List[Record], per_block: int) -> List[int]:
        ids: List[int] = []
        for start in range(0, len(records), per_block):
            block_id = self.device.allocate(kind="sort-run")
            chunk = records[start : start + per_block]
            self.device.write(block_id, chunk, used_bytes=len(chunk) * RECORD_BYTES)
            ids.append(block_id)
        return ids

    def _merge_temp_runs(self, runs: List[List[int]], per_block: int) -> List[int]:
        import heapq

        streams = [self._drain_run(run) for run in runs]
        merged = list(heapq.merge(*streams, key=lambda r: r[0]))
        return self._write_temp_run(merged, per_block)

    def _drain_run(self, run: List[int]) -> List[Record]:
        records: List[Record] = []
        for block_id in run:
            records.extend(self.device.read(block_id))
            self.device.free(block_id)
        return records
