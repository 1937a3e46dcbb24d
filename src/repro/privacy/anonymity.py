"""The anonymity network between clients and the RSP's upload endpoint.

Section 4.2 *assumes* "the underlying anonymity network ensures that any
two anonymous channels are unlinkable"; this module implements that
assumption so it can be exercised and attacked.  Two delivery models:

* :func:`immediate_network` — a strawman direct connection: messages
  arrive in submission order after a small network latency, and each
  message carries whatever channel tag the client attached.  Timing and
  channel metadata leak everything (the A3 benchmark shows this).
* :func:`batching_network` — a batching mix: messages are buffered,
  released only at batch boundaries, shuffled within each batch, and
  delivered with an identical arrival timestamp.  Within a batch the
  server learns nothing from timing or order.

The network is metadata-honest: it never inspects payloads, and the
``Delivery`` objects it hands the server are exactly what a real RSP would
observe (payload + arrival time + client-chosen tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.telemetry import NULL, Telemetry
from repro.telemetry.catalog import MIX_BATCH_BUCKETS
from repro.util.rng import make_rng

P = TypeVar("P")


@dataclass(frozen=True, slots=True)
class Delivery(Generic[P]):
    """What the server observes for one delivered message."""

    payload: P
    arrival_time: float
    channel_tag: str


@dataclass
class _Pending(Generic[P]):
    payload: P
    submit_time: float
    channel_tag: str


class AnonymityNetwork(Generic[P]):
    """A message pipe with configurable batching.

    ``batch_interval`` of 0 models a direct connection (immediate mode);
    positive values buffer submissions and flush them—shuffled—at batch
    boundaries.
    """

    def __init__(
        self,
        batch_interval: float = 0.0,
        latency: float = 2.0,
        seed: int = 0,
        drop_rate: float = 0.0,
        fault_hook=None,
    ) -> None:
        """``drop_rate`` injects message loss at submission time.

        Anonymity cuts both ways: an unlinkable, fire-and-forget channel
        cannot carry acknowledgements back to the sender (an ack would
        link the upload to the device), so a dropped record is simply
        gone.  The design degrades gracefully — each loss removes one
        interaction record or one opinion, never corrupts state — and the
        failure-injection tests pin that down.

        ``fault_hook`` is an optional harness-installed object whose
        ``network_fates(submit_time)`` returns the effective submit times
        for one submission (empty = lost, >1 = duplicated).  The network
        never imports the fault harness; it only calls what it is handed.
        """
        if batch_interval < 0 or latency < 0:
            raise ValueError("intervals must be non-negative")
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop_rate must lie in [0, 1]")
        self.batch_interval = batch_interval
        self.latency = latency
        self.drop_rate = drop_rate
        self.fault_hook = fault_hook
        self.n_dropped = 0
        self.n_duplicated = 0
        #: Aggregate-only observability sink.  The mix reports batch
        #: sizes and queue depth — never channel tags or payload shapes.
        self.telemetry: Telemetry = NULL
        self._rng = make_rng(seed, "anonymity-network")
        self._pending: list[_Pending[P]] = []
        self._last_flush = 0.0

    @property
    def is_batching(self) -> bool:
        return self.batch_interval > 0

    def submit(self, payload: P, submit_time: float, channel_tag: str) -> None:
        """A client hands the network one message (possibly lost in transit)."""
        self.telemetry.inc("mix.submissions")
        if self.drop_rate > 0 and self._rng.random() < self.drop_rate:
            self.n_dropped += 1
            self.telemetry.inc("mix.dropped")
            return
        if self.fault_hook is not None:
            fates = self.fault_hook.network_fates(submit_time)
            if not fates:
                self.n_dropped += 1
                self.telemetry.inc("mix.dropped")
                return
            self.n_duplicated += len(fates) - 1
            if len(fates) > 1:
                self.telemetry.inc("mix.duplicated", len(fates) - 1)
            for effective_time in fates:
                self._pending.append(
                    _Pending(
                        payload=payload,
                        submit_time=effective_time,
                        channel_tag=channel_tag,
                    )
                )
            return
        self._pending.append(
            _Pending(payload=payload, submit_time=submit_time, channel_tag=channel_tag)
        )

    def deliveries_until(self, now: float) -> list[Delivery[P]]:
        """Flush and return everything the server receives by ``now``."""
        out: list[Delivery[P]] = []
        if not self.is_batching:
            ready = [p for p in self._pending if p.submit_time + self.latency <= now]
            self._pending = [p for p in self._pending if p.submit_time + self.latency > now]
            ready.sort(key=lambda p: p.submit_time)
            out = [
                Delivery(
                    payload=p.payload,
                    arrival_time=p.submit_time + self.latency,
                    channel_tag=p.channel_tag,
                )
                for p in ready
            ]
        else:
            boundary = self._last_flush + self.batch_interval
            while boundary <= now:
                batch = [p for p in self._pending if p.submit_time < boundary]
                self._pending = [p for p in self._pending if p.submit_time >= boundary]
                if batch:
                    self.telemetry.observe(
                        "mix.batch_size", len(batch), buckets=MIX_BATCH_BUCKETS
                    )
                    order = self._rng.permutation(len(batch))
                    for index in order:
                        p = batch[int(index)]
                        out.append(
                            Delivery(
                                payload=p.payload,
                                arrival_time=boundary,
                                channel_tag=p.channel_tag,
                            )
                        )
                self._last_flush = boundary
                boundary += self.batch_interval
        self.telemetry.set_gauge("mix.queue_depth", len(self._pending))
        return out

    @property
    def n_pending(self) -> int:
        return len(self._pending)


def immediate_network(seed: int = 0) -> AnonymityNetwork:
    """The strawman: direct submission, order-preserving, low latency."""
    return AnonymityNetwork(batch_interval=0.0, latency=2.0, seed=seed)


def batching_network(batch_interval: float = 6 * 3600.0, seed: int = 0) -> AnonymityNetwork:
    """A batching mix flushing every ``batch_interval`` seconds."""
    return AnonymityNetwork(batch_interval=batch_interval, latency=0.0, seed=seed)
