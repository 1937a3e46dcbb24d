"""Fixture: identities bound into an instrument's labels (priv-telemetry-label)."""


class LeakyReader:
    def __init__(self, telemetry, record):
        self.telemetry = telemetry
        self.hits = telemetry.counter("rsp.serve.cache_hits", user=record.user_id)

    def bind_latency(self, record):
        return self.telemetry.histogram("rsp.serve.latency", buckets=(1.0,), device=record.device_id)
