"""Admission control in front of intake: a bounded queue that sheds.

The paper's repository must absorb opinion streams from millions of
users, and offered load is burstier than any single server's drain rate —
so the intake path needs an explicit buffer with an explicit policy for
the moment it fills.  :class:`BoundedIntakeQueue` is that buffer:

* **Bounded.**  ``capacity`` envelopes, FIFO.  Depth never exceeds the
  bound, so memory under overload is a constant, not a function of the
  attack.
* **Deterministic load-shedding.**  An envelope offered to a full queue
  is shed immediately — newest-arrival-drop, decided purely by the queue
  depth at offer time, never by randomness or timing.  Two runs offered
  the same sequence with the same drain pacing shed exactly the same
  envelopes.
* **Shed-before-journal.**  A shed envelope never reaches the server, so
  it can never be journaled, acked, or counted as accepted — the
  exactly-one-of {acked-and-journaled, shed-with-counter} invariant holds
  by construction (``tests/ingest/test_backpressure.py`` proves it end to
  end).  The fire-and-forget anonymous channel means the sender learns
  nothing either way, and a shed record is lost: ``run_epochs`` offers
  each epoch's release as one burst and drains it at once, so a
  retransmitted copy lands in the same burst as its original and is shed
  with it (``tests/orchestration/test_queue_depth.py`` pins this).

Counters (``rsp.ingest.*``, all label values inside the closed vocabulary
of :mod:`repro.telemetry.labels`):

* ``rsp.ingest.admitted`` — envelopes accepted into the queue;
* ``rsp.ingest.shed`` ``{reason=capacity}`` — envelopes dropped at the
  full queue;
* ``rsp.ingest.drain`` — histogram of envelopes handed to the server per
  drain call (AGGREGATE: a pure function of offered load and drain
  pacing);
* ``rsp.ingest.queue_depth`` — gauge of the depth after each
  offer/drain (DEPLOYMENT scope: an operational quantity of one concrete
  deployment, excluded from the invariant digest).
"""

from __future__ import annotations

from collections import deque

from repro.telemetry import NULL, Telemetry
from repro.telemetry.catalog import INGEST_DRAIN_BUCKETS
from repro.telemetry.registry import DEPLOYMENT


class BoundedIntakeQueue:
    """FIFO intake buffer with capacity-triggered deterministic shedding.

    ``run_epochs(queue_depth=)`` (and ``repro epochs --queue-depth``)
    puts one in front of the server; that is its deployment caller.
    """

    def __init__(self, capacity: int, telemetry: Telemetry = NULL) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = int(capacity)
        self.telemetry = telemetry
        self._entries: deque = deque()
        #: Envelopes accepted into the queue since construction.
        self.admitted = 0
        #: Envelopes shed at the full queue since construction.
        self.shed = 0
        #: Deepest the queue has ever been.
        self.high_watermark = 0

    @property
    def depth(self) -> int:
        return len(self._entries)

    def offer(self, delivery) -> bool:
        """Admit one envelope, or shed it if the queue is full."""
        return self.offer_all([delivery]) == 1

    def offer_all(self, deliveries) -> int:
        """Admit a burst in order; shed whatever the bound refuses.

        Returns the number admitted.  Admission is prefix-greedy: the
        first ``capacity - depth`` envelopes get in, the rest are shed —
        the deterministic newest-arrival-drop policy.
        """
        entries = self._entries
        room = self.capacity - len(entries)
        admitted = 0
        shed = 0
        for delivery in deliveries:
            if admitted < room:
                entries.append(delivery)
                admitted += 1
            else:
                shed += 1
        self.admitted += admitted
        self.shed += shed
        depth = len(entries)
        if depth > self.high_watermark:
            self.high_watermark = depth
        telemetry = self.telemetry
        if admitted:
            telemetry.inc("rsp.ingest.admitted", admitted)
        if shed:
            telemetry.inc("rsp.ingest.shed", shed, reason="capacity")
        telemetry.set_gauge("rsp.ingest.queue_depth", depth, scope=DEPLOYMENT)
        return admitted

    def drain(self, max_batch: int | None = None) -> list:
        """Pop up to ``max_batch`` envelopes (all, when ``None``) in FIFO order."""
        entries = self._entries
        take = len(entries) if max_batch is None else min(max_batch, len(entries))
        batch = [entries.popleft() for _ in range(take)]
        telemetry = self.telemetry
        if batch:
            telemetry.observe(
                "rsp.ingest.drain", len(batch), buckets=INGEST_DRAIN_BUCKETS
            )
            # An empty drain leaves the depth exactly where the last write
            # put it; re-setting the gauge would only churn DEPLOYMENT
            # gauge versions in idle drain loops.
            telemetry.set_gauge(
                "rsp.ingest.queue_depth", len(entries), scope=DEPLOYMENT
            )
        return batch
