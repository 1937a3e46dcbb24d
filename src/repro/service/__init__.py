"""The RSP server: the service half of Figure 2.

Only server-side code lives here.  The end-to-end experiment drivers that
wire the world, the clients, and this server together moved to
:mod:`repro.orchestration` — the service layer itself never imports client
or sensing code (``repro analyze`` rule ``layer-service-client``).
"""

from repro.core.protocol import AnonymousRecord, Envelope
from repro.service.server import ExplicitReview, MaintenanceReport, RSPServer

__all__ = [
    "AnonymousRecord",
    "Envelope",
    "ExplicitReview",
    "MaintenanceReport",
    "RSPServer",
]
