"""Broken: the intake loop commits the acceptance before journaling it."""


def classify(server, deliveries):
    journal = server.journal
    commit_acceptance = server.commit_acceptance
    for delivery in deliveries:
        envelope = delivery.payload
        commit_acceptance(envelope.nonce, envelope.token.token_id)
        if journal is not None:
            journal.log_interaction(envelope.record, 0.0, envelope.nonce, None, 0)
