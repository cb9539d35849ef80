"""Record layout shared by every access method.

The paper's base-data model (Section 2) is "an array of integers ...
consisting of N fixed-sized elements" organized in blocks.  We generalize
slightly to fixed-size key/value records so that update operations have a
well-defined logical size, but keep the layout deliberately simple: every
record occupies :data:`RECORD_BYTES` bytes regardless of the Python-level
representation, and every pointer (block id or in-block slot reference)
occupies :data:`POINTER_BYTES` bytes.

Access methods use these constants to declare how many *logical* bytes a
block payload occupies, which is what the device's space accounting (and
hence the memory overhead, MO) is based on.
"""

from __future__ import annotations

#: Size of a key in bytes (a 64-bit integer).
KEY_BYTES = 8

#: Size of a value payload in bytes (a 64-bit integer).
VALUE_BYTES = 8

#: Size of one full record (key + value).
RECORD_BYTES = KEY_BYTES + VALUE_BYTES

#: Size of a block pointer / child reference in bytes.
POINTER_BYTES = 8

#: Default block size used across the library (bytes).
DEFAULT_BLOCK_BYTES = 4096


def records_per_block(block_bytes: int) -> int:
    """Number of full records that fit in one block of ``block_bytes``.

    >>> records_per_block(4096)
    256
    """
    if block_bytes < RECORD_BYTES:
        raise ValueError(
            f"block of {block_bytes} bytes cannot hold a {RECORD_BYTES}-byte record"
        )
    return block_bytes // RECORD_BYTES


def fanout_for_block(block_bytes: int) -> int:
    """Maximum fanout of an internal tree node stored in one block.

    An internal node with fanout ``f`` stores ``f - 1`` separator keys and
    ``f`` child pointers, so ``f`` is the largest integer with
    ``(f - 1) * KEY_BYTES + f * POINTER_BYTES <= block_bytes``.
    """
    fanout = (block_bytes + KEY_BYTES) // (KEY_BYTES + POINTER_BYTES)
    return max(2, fanout)
