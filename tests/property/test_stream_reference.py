"""Property: the generator draws exactly the reference stream.

``tests/reference_generator.py`` is a copy of the generator as it was
before its hot path was rewritten.  For any spec, key distribution and
batch size, :meth:`WorkloadGenerator.operations` and
:meth:`WorkloadGenerator.operation_batches` must produce the reference's
operations in the reference's order, and the same initial data.  The
live-key chunk size is shrunk for some examples so that streams of a
few hundred operations cross, drain and refill chunks (the attribute
is set even where the generator has none, so the property also runs
against generators that keep one flat list).
"""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import generator as generator_module
from repro.workloads.distributions import distribution_names
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import WorkloadSpec

from tests.reference_generator import ReferenceGenerator


@st.composite
def specs(draw) -> WorkloadSpec:
    weights = draw(st.lists(st.integers(0, 10), min_size=5, max_size=5).filter(any))
    total = sum(weights)
    fractions = [weight / total for weight in weights]
    # Absorb the rounding of the division into the last non-zero share,
    # so the mix sums to 1 as WorkloadSpec requires.
    last = max(index for index, weight in enumerate(weights) if weight)
    fractions[last] = 1.0 - sum(fractions[:last]) - sum(fractions[last + 1:])
    return WorkloadSpec(
        point_queries=fractions[0],
        range_queries=fractions[1],
        inserts=fractions[2],
        updates=fractions[3],
        deletes=fractions[4],
        operations=draw(st.integers(0, 400)),
        initial_records=draw(st.integers(0, 300)),
        range_fraction=draw(st.sampled_from([0.0, 0.001, 0.01, 0.3, 1.0])),
        distribution=draw(st.sampled_from(distribution_names())),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None)
@given(
    spec=specs(),
    batch_size=st.sampled_from([1, 2, 7, 64, 1024]),
    chunk=st.sampled_from([1, 3, 16, 2048]),
)
def test_stream_equals_reference(spec, batch_size, chunk):
    reference = ReferenceGenerator(spec)
    expected_data = reference.initial_data()
    expected = list(reference.operations())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator_module, "_CHUNK", chunk, raising=False)
        flat = WorkloadGenerator(spec)
        assert flat.initial_data() == expected_data
        assert list(flat.operations()) == expected

        batched = WorkloadGenerator(spec)
        batched.initial_data()
        batches = list(batched.operation_batches(batch_size))
    assert all(len(batch) == batch_size for batch in batches[:-1])
    assert list(chain.from_iterable(batches)) == expected
