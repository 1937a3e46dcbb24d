"""Shared drivers for the serve-path suites.

Every test here feeds a server through the *wire format* — tokenless
:class:`Delivery`-wrapped envelopes from :class:`SyntheticTraffic` — so
the serving layer is always exercised over state produced by the real
intake and maintenance paths, never hand-poked dictionaries.
"""

import pytest

from repro.core.protocol import Envelope
from repro.ingest import SyntheticTraffic, WorkloadConfig
from repro.privacy.anonymity import Delivery
from repro.service.server import RSPServer
from repro.telemetry import Telemetry

#: Modest but impure traffic: enough opinions and duplicates to make the
#: summaries non-trivial without slowing the suite down.
TRAFFIC = WorkloadConfig(
    n_users=120,
    n_entities=48,
    opinion_fraction=0.35,
    duplicate_fraction=0.02,
    stale_fraction=0.05,
    seed=7,
)


def make_server(n_shards=0, catalog=None):
    """A tokenless server with real telemetry attached (0 = one shard)."""
    if catalog is None:
        catalog = SyntheticTraffic(TRAFFIC).catalog
    server = RSPServer(catalog, n_shards=n_shards or 1, require_tokens=False)
    server.attach_telemetry(Telemetry())
    return server


def feed(server, traffic, batches=3, batch_size=400, maintain=True):
    """Drive ``batches`` traffic batches in, with a maintenance cycle each."""
    for tick in range(batches):
        now = 100.0 + 600.0 * tick
        server.receive_all(traffic.batch(batch_size, now), now=now)
        if maintain:
            server.run_maintenance(now=now + 60.0)
    return server


def deliver_records(server, records, now=100.0, start_nonce=0):
    """Wrap bare records in tokenless envelopes and receive them."""
    for offset, record in enumerate(records):
        nonce = (start_nonce + offset).to_bytes(16, "big")
        delivery = Delivery(
            payload=Envelope(record=record, token=None, nonce=nonce),
            arrival_time=now,
            channel_tag="test",
        )
        assert server.receive(delivery, now=now)


@pytest.fixture(scope="module")
def warm_monolith():
    """One fed monolith shared by read-only tests in a module."""
    traffic = SyntheticTraffic(TRAFFIC)
    return feed(make_server(catalog=traffic.catalog), traffic)
