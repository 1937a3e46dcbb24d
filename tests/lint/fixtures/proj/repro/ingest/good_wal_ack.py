"""Clean: the intake loop journals the record before burning its nonce."""


def classify(server, deliveries):
    journal = server.journal
    seen_nonces = server._seen_nonces
    for delivery in deliveries:
        envelope = delivery.payload
        nonce = envelope.nonce
        if nonce in seen_nonces:
            continue
        if journal is not None:
            journal.log_interaction(envelope.record, 0.0, nonce, None, 0)
        seen_nonces.add(nonce)
