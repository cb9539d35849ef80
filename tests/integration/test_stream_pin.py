"""The generated operation streams are pinned by digest.

Every simulated number the repository reports is a function of the
stream :class:`~repro.workloads.generator.WorkloadGenerator` draws, so a
faster generator is only acceptable if it draws the same stream.  Each
case below hashes the ``(kind, key, value, high_key)`` sequence of one
spec and compares it with ``stream_pin.json``, which was captured from
the generator before its hot path was rewritten:

* every ``lib-*`` workload of ``BENCHMARK.json``, at smoke and at full
  size, on seeds 7 and 41 (the specs come from the benchmark's own
  ``spec_for``, so the pin follows what the benchmark runs);
* every named mix × every key distribution at a small scale, where the
  write mixes change the population size on most operations.

``tests/property/test_stream_reference.py`` checks the same contract
for arbitrary specs against a copy of the old generator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict

import pytest

from repro.workloads.distributions import distribution_names
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import MIXES, WorkloadSpec

from benchmarks.perf.lib_bench import WORKLOADS as LIB_WORKLOADS, spec_for

_PIN_PATH = os.path.join(os.path.dirname(__file__), "stream_pin.json")

#: Size of the mix × distribution cases.
MIX_RECORDS = 2_000
MIX_OPERATIONS = 2_000


def _cases() -> Dict[str, WorkloadSpec]:
    cases: Dict[str, WorkloadSpec] = {}
    for name, workload in LIB_WORKLOADS.items():
        for size in ("smoke", "full"):
            for seed in (7, 41):
                cases[f"{name}/{size}/seed{seed}"] = spec_for(
                    workload, seed, size == "smoke"
                )
    for mix, spec in MIXES.items():
        for distribution in distribution_names():
            cases[f"mix/{mix}/{distribution}"] = dataclasses.replace(
                spec,
                initial_records=MIX_RECORDS,
                operations=MIX_OPERATIONS,
                distribution=distribution,
                seed=7,
            )
    return cases


CASES = _cases()


def stream_digest(spec: WorkloadSpec) -> str:
    """sha256 of the spec's operation stream, one line per operation."""
    generator = WorkloadGenerator(spec)
    generator.initial_data()
    digest = hashlib.sha256()
    count = 0
    for operation in generator.operations():
        digest.update(
            f"{operation.kind.value} {operation.key} {operation.value} "
            f"{operation.high_key}\n".encode()
        )
        count += 1
    assert count == spec.operations
    return digest.hexdigest()


def _load_pin() -> Dict[str, str]:
    with open(_PIN_PATH) as handle:
        return json.load(handle)


def test_pin_covers_exactly_the_cases():
    assert sorted(_load_pin()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_matches_pin(case):
    assert stream_digest(CASES[case]) == _load_pin()[case], case


if __name__ == "__main__":  # pragma: no cover - regenerates the pin
    print(json.dumps(
        {case: stream_digest(spec) for case, spec in sorted(CASES.items())},
        indent=1, sort_keys=True,
    ))
