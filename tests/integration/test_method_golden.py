"""Per-method golden: every registered method's integer RUM accounting.

Each registered access method runs the read-only, balanced and
write-heavy mixes at 1,500 records, 600 operations and seed 3 on its own
default device.  The integer numerators and denominators behind the
profile (:class:`~repro.core.rum.RUMAccumulator`'s integer fields), the
peak and final ``space_bytes`` and the ``repr`` of the accumulated
simulated time must equal ``method_golden.json`` exactly.

The ledger workloads of ``BENCHMARK.json`` only run a few methods; this
pin covers the rest (MaSM, PDT, SILT, the tunable method, the indexed
log, the approximate index, ...), so a change to a shared kernel such as
:func:`repro.core.runs.find_in_block` cannot move any method's accounting
unnoticed.  Regenerate the pin only for a change meant to move these
numbers::

    PYTHONPATH=src python -m tests.integration.test_method_golden \\
        > tests/integration/method_golden.json
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import Dict

import pytest

from repro.core.registry import available_methods, create_method
from repro.core.rum import RUMAccumulator
from repro.workloads.runner import run_workload
from repro.workloads.spec import MIXES

PIN_PATH = os.path.join(os.path.dirname(__file__), "method_golden.json")

MIX_NAMES = ("read-only", "balanced", "write-heavy")
RECORDS = 1_500
OPERATIONS = 600
SEED = 3

#: The integer fields of :class:`RUMAccumulator`.
INT_FIELDS = (
    "read_bytes",
    "retrieved_bytes",
    "write_bytes",
    "flush_read_bytes",
    "updated_bytes",
    "read_ops",
    "update_ops",
)


class _PeakSpaceAccumulator(RUMAccumulator):
    """Also tracks the largest ``space_bytes`` seen at a space sample."""

    peak_space_bytes = 0

    def sample_space(self, method) -> None:
        super().sample_space(method)
        self.peak_space_bytes = max(self.peak_space_bytes, method.space_bytes())


def measure(method_name: str, mix: str) -> Dict[str, object]:
    """The pinned fields of one method x mix run."""
    spec = dataclasses.replace(
        MIXES[mix], initial_records=RECORDS, operations=OPERATIONS, seed=SEED
    )
    accumulator = _PeakSpaceAccumulator()
    result = run_workload(create_method(method_name), spec, accumulator=accumulator)
    row: Dict[str, object] = {
        field: getattr(accumulator, field) for field in INT_FIELDS
    }
    row["peak_space_bytes"] = accumulator.peak_space_bytes
    row["final_space_bytes"] = result.final_space_bytes
    row["sim_time"] = repr(accumulator.simulated_time)
    return row


def capture() -> Dict[str, Dict[str, Dict[str, object]]]:
    return {
        name: {mix: measure(name, mix) for mix in MIX_NAMES}
        for name in available_methods()
    }


def _load_pin() -> Dict[str, Dict[str, Dict[str, object]]]:
    # Tolerates a missing or truncated file so that regenerating the pin
    # with a shell redirect can import this module; the coverage test
    # below then fails until the pin is whole again.
    try:
        with open(PIN_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


PIN = _load_pin()


def test_pin_covers_every_registered_method():
    assert sorted(PIN) == available_methods()


@pytest.mark.parametrize("method_name", sorted(PIN))
def test_method_accounting_matches_pin(method_name):
    mismatches = []
    for mix in MIX_NAMES:
        pinned = PIN[method_name][mix]
        got = measure(method_name, mix)
        for field in sorted(pinned):
            if got[field] != pinned[field]:
                mismatches.append(
                    f"{method_name} {mix} {field}: pinned {pinned[field]!r}, "
                    f"got {got[field]!r}"
                )
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
