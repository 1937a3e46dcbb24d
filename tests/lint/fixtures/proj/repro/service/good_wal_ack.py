"""Clean: the mutation reaches the WAL before the acceptance commit."""


class Server:
    def receive_one(self, record, nonce):
        if self.journal is not None:
            self.journal.log_interaction(record, 0.0, nonce, None)
        self.accepted_envelopes += 1
        self._seen_nonces.add(nonce)

    def copy_nonces(self, seen_nonces):
        # A plain assignment that *mentions* a commit spelling is not a
        # commit — the rule must not flag it.
        seen_nonces = set(seen_nonces)
        return seen_nonces
