"""The fault-plan interpreter: deterministic decisions at harness hook points.

Production components expose a passive ``fault_hook`` attribute and call a
narrow, duck-typed method on it when one is installed:

* :class:`repro.privacy.anonymity.AnonymityNetwork` calls
  :meth:`FaultInjector.network_fates` per submission — the hook answers
  with the list of effective submit times (empty = the message is lost,
  one = normal or delayed, two = the network re-delivered a copy);
* :class:`repro.privacy.tokens.TokenIssuer` calls
  :meth:`FaultInjector.issuer_down` before signing;
* :class:`repro.service.server.RSPServer` calls
  :meth:`FaultInjector.server_down` before processing a delivery.

All randomness flows through :func:`repro.util.rng.make_rng` with the
plan's seed, so the same plan replayed against the same workload makes the
same decisions in the same order.
"""

from __future__ import annotations

from repro.faults.plan import ClientCrash, FaultPlan, FaultReport, PrimaryCrash
from repro.telemetry import NULL, Telemetry
from repro.util.rng import make_rng


class FaultInjector:
    """Interprets one :class:`FaultPlan`; keeps counters of what it did.

    The plain-int event counters duplicate the ``faults.injected{kind=}``
    telemetry on purpose: ``tests/telemetry/test_counter_consistency.py``
    uses them as the independent oracle the telemetry is checked against.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = make_rng(plan.seed, "faults/injector")
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.messages_duplicated = 0
        self.envelopes_lost_to_outage = 0
        self.issuance_refusals = 0
        self.crashes_triggered = 0
        self.shipments_deferred = 0
        self.primary_crashes_triggered = 0
        #: Aggregate-only sink; counts injected events by kind.
        self.telemetry: Telemetry = NULL

    # ------------------------------------------------------------- network

    def network_fates(self, submit_time: float) -> list[float]:
        """Effective submit times for one network submission.

        ``[]`` means the message is lost; one entry is normal (possibly
        delayed) delivery; additional entries are network-level duplicates.
        """
        for drop in self.plan.drops:
            if drop.window.contains(submit_time):
                if float(self._rng.random()) < drop.rate:
                    self.messages_dropped += 1
                    self.telemetry.inc("faults.injected", kind="drop")
                    return []
        extra = 0.0
        for delay in self.plan.delays:
            if delay.window.contains(submit_time) and delay.max_extra > 0:
                extra += float(self._rng.uniform(0.0, delay.max_extra))
        if extra > 0:
            self.messages_delayed += 1
            self.telemetry.inc("faults.injected", kind="delay")
        fates = [submit_time + extra]
        for dup in self.plan.duplicates:
            if dup.window.contains(submit_time):
                if float(self._rng.random()) < dup.rate:
                    offset = (
                        float(self._rng.uniform(0.0, dup.max_offset))
                        if dup.max_offset > 0
                        else 0.0
                    )
                    fates.append(submit_time + extra + offset)
                    self.messages_duplicated += 1
                    self.telemetry.inc("faults.injected", kind="duplicate")
        return fates

    # ------------------------------------------------------------- outages

    def server_down(self, now: float) -> bool:
        """Is the upload endpoint down at ``now``?  (Counts each loss.)"""
        for outage in self.plan.server_outages:
            if outage.window.contains(now):
                self.envelopes_lost_to_outage += 1
                self.telemetry.inc("faults.injected", kind="server-outage")
                return True
        return False

    def server_down_at(self, now: float) -> bool:
        """Side-effect-free outage probe (for schedulers, not per-envelope)."""
        return any(o.window.contains(now) for o in self.plan.server_outages)

    def issuer_down(self, now: float) -> bool:
        """Is the token issuer refusing issuance at ``now``?"""
        for outage in self.plan.issuer_outages:
            if outage.window.contains(now):
                self.issuance_refusals += 1
                self.telemetry.inc("faults.injected", kind="issuer-outage")
                return True
        return False

    def replica_down(self, now: float) -> bool:
        """Is the log-shipping channel down at ``now``?  Counts deferrals."""
        for outage in self.plan.replica_outages:
            if outage.window.contains(now):
                self.shipments_deferred += 1
                self.telemetry.inc("faults.injected", kind="replica-outage")
                return True
        return False

    # ----------------------------------------------------- crashes & clocks

    def crashes_in(self, start: float, end: float) -> list[ClientCrash]:
        """Crash points scheduled in the half-open interval ``[start, end)``."""
        return [c for c in self.plan.crashes if start <= c.time < end]

    def note_crash(self) -> None:
        self.crashes_triggered += 1
        self.telemetry.inc("faults.injected", kind="crash")

    def primary_crashes_in(self, start: float, end: float) -> list[PrimaryCrash]:
        """Primary-crash points scheduled in ``[start, end)``."""
        return [c for c in self.plan.primary_crashes if start <= c.time < end]

    def note_primary_crash(self) -> None:
        self.primary_crashes_triggered += 1
        self.telemetry.inc("faults.injected", kind="primary-crash")

    def skew_for(self, device_id: str) -> float:
        """Total clock offset applying to one device."""
        return sum(s.offset for s in self.plan.skews if s.applies_to(device_id))

    # -------------------------------------------------------------- report

    def report(self) -> FaultReport:
        return FaultReport(
            messages_dropped=self.messages_dropped,
            messages_delayed=self.messages_delayed,
            messages_duplicated=self.messages_duplicated,
            envelopes_lost_to_outage=self.envelopes_lost_to_outage,
            issuance_refusals=self.issuance_refusals,
            crashes_triggered=self.crashes_triggered,
            shipments_deferred=self.shipments_deferred,
            primary_crashes_triggered=self.primary_crashes_triggered,
        )
