"""Property tests: batched generator emission equals sequential draws.

The serving fast path consumes requests in batches (``next_requests``,
and ``ZipfianGenerator.next_n`` under it); these properties pin the
batch APIs to their sequential references draw for draw, over every
workload, seed and client split hypothesis cares to try.  Skipped
wholesale when hypothesis is not installed — ``test_generators.py``
still pins the example-based behavior.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.workloads.generators import (
    RequestStream, WORKLOADS, ZipfianGenerator, get_workload,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
item_counts = st.integers(min_value=1, max_value=512)
batch_sizes = st.lists(st.integers(min_value=0, max_value=64),
                       min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(items=item_counts, seed=seeds, batches=batch_sizes)
def test_next_n_equals_sequential_next(items, seed, batches):
    batched = ZipfianGenerator(items, seed=seed)
    sequential = ZipfianGenerator(items, seed=seed)
    for count in batches:
        assert batched.next_n(count) == \
            [sequential.next() for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(workload=st.sampled_from(sorted(WORKLOADS)),
       records=st.integers(min_value=1, max_value=256), seed=seeds,
       client=st.integers(min_value=0, max_value=7),
       batches=batch_sizes)
def test_next_requests_equals_sequential_next_request(
        workload, records, seed, client, batches):
    spec = get_workload(workload)
    batched = RequestStream(spec, records, seed=seed, client=client)
    sequential = RequestStream(spec, records, seed=seed, client=client)
    for count in batches:
        assert batched.next_requests(count) == \
            [sequential.next_request() for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(workload=st.sampled_from(sorted(WORKLOADS)),
       records=st.integers(min_value=1, max_value=256), seed=seeds,
       clients=st.integers(min_value=1, max_value=4),
       count=st.integers(min_value=1, max_value=32))
def test_client_split_streams_are_independent(
        workload, records, seed, clients, count):
    # A client's stream does not depend on whether (or how) the other
    # clients' streams were drawn — the partition the batched prefetch
    # relies on.
    spec = get_workload(workload)
    alone = [RequestStream(spec, records, seed=seed, client=c)
             .next_requests(count) for c in range(clients)]
    interleaved = [RequestStream(spec, records, seed=seed, client=c)
                   for c in range(clients)]
    drawn = [[] for _ in range(clients)]
    for _ in range(count):
        for c in range(clients):
            drawn[c].append(interleaved[c].next_request())
    assert drawn == alone
