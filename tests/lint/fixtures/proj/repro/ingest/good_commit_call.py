"""Clean: the intake loop journals the record before committing it."""


def classify(server, deliveries):
    journal = server.journal
    commit_acceptance = server.commit_acceptance
    for delivery in deliveries:
        envelope = delivery.payload
        if journal is not None:
            journal.log_interaction(envelope.record, 0.0, envelope.nonce, None, 0)
        commit_acceptance(envelope.nonce, envelope.token.token_id)
