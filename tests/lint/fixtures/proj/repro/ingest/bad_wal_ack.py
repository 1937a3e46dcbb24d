"""Broken: the intake loop burns the nonce before journaling the record."""


def classify(server, deliveries):
    journal = server.journal
    seen_nonces = server._seen_nonces
    for delivery in deliveries:
        envelope = delivery.payload
        nonce = envelope.nonce
        if nonce in seen_nonces:
            continue
        seen_nonces.add(nonce)
        if journal is not None:
            journal.log_interaction(envelope.record, 0.0, nonce, None, 0)
