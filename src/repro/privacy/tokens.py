"""Rate-limited upload tokens built on blind signatures.

The issuance side sees devices (it must, to rate-limit per device); the
redemption side sees only anonymous uploads.  Blindness guarantees the two
sides cannot be joined: a redeemed token is cryptographically unlinkable to
the issuance request that produced it.

Flow:

* A device calls :meth:`TokenIssuer.issue` with blinded token identifiers;
  the issuer enforces a per-device daily quota and signs blindly.
* The device unblinds and holds :class:`UploadToken` objects.
* Every anonymous upload presents one token; :class:`TokenRedeemer`
  verifies the signature and rejects double-spends.

The quota bounds history-corruption attempts: even a malicious device can
inject at most ``quota_per_day`` bogus records per day (Section 4.2), and
each of those still needs a 2^-256 record-identifier collision to corrupt
anyone else's history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.privacy.blindsig import (
    BlindingResult,
    RSAKeyPair,
    blind,
    generate_keypair,
    unblind,
)
from repro.telemetry import NULL, Telemetry
from repro.util.clock import DAY
from repro.util.rng import make_rng


@dataclass(frozen=True)
class UploadToken:
    """A spendable upload token: an identifier and its RSA signature."""

    token_id: bytes
    signature: int


class QuotaExceeded(Exception):
    """The device asked for more tokens than its rate limit allows."""


class IssuerUnavailable(Exception):
    """The token-issuing endpoint is down; retry later with backoff.

    Unlike the anonymous upload path, issuance is an attributed
    request/response exchange, so the client *can* observe this failure
    and retry — see :meth:`repro.client.app.RSPClient.acquire_tokens`.
    """


class TokenIssuer:
    """The RSP's token-issuing endpoint (sees device identities)."""

    def __init__(self, quota_per_day: int = 48, key_seed: int = 0, key_bits: int = 512) -> None:
        if quota_per_day < 1:
            raise ValueError("quota must be >= 1")
        self.quota_per_day = quota_per_day
        #: Optional harness hook with ``issuer_down(now) -> bool``; the
        #: issuer never imports the fault harness itself.
        self.fault_hook = None
        #: Optional durability hook (duck-typed like ``fault_hook``);
        #: successful issuances journal their quota-window tick so a
        #: restarted issuer cannot be double-drained by replayed requests.
        self.journal = None
        self.refused_while_down = 0
        #: Aggregate-only observability sink — issuance volumes and
        #: refusal reasons, never device identities.
        self.telemetry: Telemetry = NULL
        self._keypair: RSAKeyPair = generate_keypair(bits=key_bits, seed=key_seed)
        self._issued_today: dict[str, int] = {}
        self._window_start: dict[str, float] = {}

    @property
    def public_key(self):
        return self._keypair.public

    def issue(self, device_id: str, blinded_values: list[int], now: float) -> list[int]:
        """Blind-sign the given values, enforcing the per-device quota.

        Raises :class:`QuotaExceeded` if the device would exceed its daily
        allowance; no partial issuance happens in that case.  Raises
        :class:`IssuerUnavailable` during an injected outage window —
        before any quota accounting, so a refused attempt costs no quota.
        """
        if self.fault_hook is not None and self.fault_hook.issuer_down(now):
            self.refused_while_down += 1
            self.telemetry.inc("issuer.refusals", reason="outage")
            raise IssuerUnavailable(f"token issuer down at t={now:.0f}")
        self.charge(device_id, len(blinded_values), now)
        if self.journal is not None:
            self.journal.log_issue(device_id, len(blinded_values), now)
        self.telemetry.inc("issuer.tokens.issued", len(blinded_values))
        return [self._keypair.sign_raw(value) for value in blinded_values]

    def charge(self, device_id: str, count: int, now: float) -> int:
        """Charge ``count`` tokens to a device's daily window; returns the rest.

        The window rolls over a day after it opened.  A refused charge (it
        raises :class:`QuotaExceeded`; refusals are never journaled) and a
        zero charge write nothing, not even a rolled window.
        """
        window = self._window_start.get(device_id)
        rolled = window is None or now - window >= DAY
        used = 0 if rolled else self._issued_today[device_id]
        if used + count > self.quota_per_day:
            self.telemetry.inc("issuer.refusals", reason="quota")
            raise QuotaExceeded(
                f"device {device_id} requested {count} tokens "
                f"with {self.quota_per_day - used} remaining today"
            )
        if count:
            if rolled:
                self._window_start[device_id] = now
            self._issued_today[device_id] = used + count
        return self.quota_per_day - used - count

    def remaining_quota(self, device_id: str, now: float) -> int:
        return self.charge(device_id, 0, now)


class TokenRedeemer:
    """The RSP's anonymous-upload endpoint (sees only tokens)."""

    def __init__(self, public_key) -> None:
        self._public = public_key
        self._spent: set[bytes] = set()

    def verify(self, token: UploadToken) -> bool:
        """Whether ``token`` is unspent and validly signed; spends nothing."""
        token_id = token.token_id
        return token_id not in self._spent and self._public.verify(token_id, token.signature)

    def redeem(self, token: UploadToken) -> bool:
        """Accept a token exactly once; forged and replayed tokens fail."""
        if not self.verify(token):
            return False
        self._spent.add(token.token_id)
        return True

    @property
    def n_redeemed(self) -> int:
        return len(self._spent)


@dataclass
class TokenWallet:
    """Client-side token management: mint, get signed, spend."""

    device_id: str
    seed: int = 0
    _pending: list[BlindingResult] = field(default_factory=list)
    _tokens: list[UploadToken] = field(default_factory=list)
    _minted: int = 0
    #: Aggregate-only sink; counts blinding operations, never token ids.
    telemetry: Telemetry = field(default=NULL, repr=False, compare=False)

    def mint(self, public_key, count: int) -> list[int]:
        """Create ``count`` fresh blinded token identifiers to send for signing."""
        if count < 1:
            raise ValueError("count must be >= 1")
        # One stream per mint, keyed by the counter at its start: a stream
        # keyed by the device alone would repeat the same random bytes and
        # blinding seeds on every mint, linking the device's tokens.
        rng = make_rng(self.seed, f"wallet/{self.device_id}/{self._minted}")
        blinded: list[int] = []
        for _ in range(count):
            token_id = bytes(rng.bytes(32)) + self._minted.to_bytes(8, "big")
            self._minted += 1
            result = blind(
                public_key,
                token_id,
                seed=int(rng.integers(0, 2**62)),
                telemetry=self.telemetry,
            )
            self._pending.append(result)
            blinded.append(result.blinded)
        self.telemetry.inc("client.tokens.blinded", count)
        return blinded

    def accept_signatures(self, public_key, blind_signatures: list[int]) -> None:
        """Unblind the issuer's responses into spendable tokens."""
        if len(blind_signatures) > len(self._pending):
            raise ValueError("more signatures than pending blindings")
        for signature in blind_signatures:
            blinding = self._pending.pop(0)
            token = UploadToken(
                token_id=blinding.message,
                signature=unblind(
                    public_key, blinding, signature, telemetry=self.telemetry
                ),
            )
            if not public_key.verify(token.token_id, token.signature):
                raise ValueError("issuer returned an invalid signature")
            self._tokens.append(token)

    def discard_pending(self, blinded_values: list[int]) -> int:
        """Roll back blindings whose issuance failed; returns how many.

        :meth:`accept_signatures` matches signatures to pending blindings
        strictly FIFO, so a failed issuance (quota refusal, issuer outage)
        MUST remove its blinded candidates — otherwise the next successful
        issuance unblinds new signatures with the orphaned factors and
        every token it yields fails verification.
        """
        doomed = set(blinded_values)
        before = len(self._pending)
        self._pending = [b for b in self._pending if b.blinded not in doomed]
        return before - len(self._pending)

    def spend(self) -> UploadToken:
        """Take one token from the wallet."""
        if not self._tokens:
            raise ValueError("wallet is empty")
        return self._tokens.pop(0)

    @property
    def n_pending_blindings(self) -> int:
        return len(self._pending)

    @property
    def balance(self) -> int:
        return len(self._tokens)
