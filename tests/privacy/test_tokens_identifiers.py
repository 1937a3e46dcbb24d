"""Tests for token issuance/redemption and record identifiers."""

import pytest

from repro.privacy.identifiers import DeviceIdentity, generate_user_secret
from repro.privacy.tokens import (
    QuotaExceeded,
    TokenIssuer,
    TokenRedeemer,
    TokenWallet,
    UploadToken,
)
from repro.util.clock import DAY, HOUR


@pytest.fixture(scope="module")
def issuer():
    return TokenIssuer(quota_per_day=10, key_seed=1, key_bits=256)


def acquire_tokens(issuer, wallet, count, now=0.0):
    blinded = wallet.mint(issuer.public_key, count)
    signatures = issuer.issue(wallet.device_id, blinded, now=now)
    wallet.accept_signatures(issuer.public_key, signatures)


class TestIssuanceAndRedemption:
    def test_full_cycle(self, issuer):
        wallet = TokenWallet(device_id="dev-1", seed=1)
        acquire_tokens(issuer, wallet, 3)
        redeemer = TokenRedeemer(issuer.public_key)
        for _ in range(3):
            assert redeemer.redeem(wallet.spend())
        assert redeemer.n_redeemed == 3

    def test_double_spend_rejected(self, issuer):
        wallet = TokenWallet(device_id="dev-2", seed=2)
        acquire_tokens(issuer, wallet, 1)
        token = wallet.spend()
        redeemer = TokenRedeemer(issuer.public_key)
        assert redeemer.redeem(token)
        assert not redeemer.redeem(token)

    def test_forged_token_rejected(self, issuer):
        redeemer = TokenRedeemer(issuer.public_key)
        fake = UploadToken(token_id=b"forged", signature=12345)
        assert not redeemer.redeem(fake)

    def test_token_ids_unique(self, issuer):
        wallet = TokenWallet(device_id="dev-3", seed=3)
        acquire_tokens(issuer, wallet, 5)
        ids = {wallet.spend().token_id for _ in range(5)}
        assert len(ids) == 5

    def test_empty_wallet_raises(self):
        wallet = TokenWallet(device_id="dev-4", seed=4)
        with pytest.raises(ValueError):
            wallet.spend()


class TestQuota:
    def test_quota_enforced(self):
        issuer = TokenIssuer(quota_per_day=4, key_seed=2, key_bits=256)
        wallet = TokenWallet(device_id="dev-q", seed=5)
        acquire_tokens(issuer, wallet, 4, now=0.0)
        with pytest.raises(QuotaExceeded):
            blinded = wallet.mint(issuer.public_key, 1)
            issuer.issue("dev-q", blinded, now=1 * HOUR)

    def test_quota_resets_after_a_day(self):
        issuer = TokenIssuer(quota_per_day=4, key_seed=3, key_bits=256)
        wallet = TokenWallet(device_id="dev-r", seed=6)
        acquire_tokens(issuer, wallet, 4, now=0.0)
        acquire_tokens(issuer, wallet, 4, now=1.1 * DAY)
        assert wallet.balance == 8

    def test_quota_is_per_device(self):
        issuer = TokenIssuer(quota_per_day=4, key_seed=4, key_bits=256)
        a = TokenWallet(device_id="dev-a", seed=7)
        b = TokenWallet(device_id="dev-b", seed=8)
        acquire_tokens(issuer, a, 4)
        acquire_tokens(issuer, b, 4)  # unaffected by a's usage
        assert a.balance == b.balance == 4

    def test_remaining_quota(self):
        issuer = TokenIssuer(quota_per_day=10, key_seed=5, key_bits=256)
        wallet = TokenWallet(device_id="dev-c", seed=9)
        assert issuer.remaining_quota("dev-c", now=0.0) == 10
        acquire_tokens(issuer, wallet, 3)
        assert issuer.remaining_quota("dev-c", now=1.0) == 7


class TestBlindnessAtIssuance:
    def test_issuer_cannot_match_token_to_request(self, issuer):
        """The unlinkability property rate-limiting relies on: the blinded
        values the issuer saw share nothing with the redeemed token ids."""
        wallet = TokenWallet(device_id="dev-u", seed=10)
        blinded = wallet.mint(issuer.public_key, 2)
        signatures = issuer.issue("dev-u", blinded, now=0.0)
        wallet.accept_signatures(issuer.public_key, signatures)
        token = wallet.spend()
        token_hash = issuer.public_key.hash_to_group(token.token_id)
        assert token_hash not in blinded

    def test_mints_share_no_random_part_or_blinding_factor(self):
        """Each mint draws fresh randomness: a token id's random part or a
        blinding factor repeated across mints would let the redeemer group
        one device's uploads and the issuer match an issuance to its
        redemptions."""
        issuer = TokenIssuer(quota_per_day=10, key_seed=6, key_bits=256)
        wallet = TokenWallet(device_id="dev-m", seed=7)
        unblinders = []
        for _ in range(3):
            blinded = wallet.mint(issuer.public_key, 2)
            unblinders += [pending.unblinder for pending in wallet._pending]
            wallet.accept_signatures(
                issuer.public_key, issuer.issue("dev-m", blinded, now=0.0)
            )
        random_parts = [wallet.spend().token_id[:32] for _ in range(6)]
        assert len(set(random_parts)) == 6
        assert len(set(unblinders)) == 6

    def test_wallet_rejects_bad_issuer_signature(self, issuer):
        wallet = TokenWallet(device_id="dev-v", seed=11)
        wallet.mint(issuer.public_key, 1)
        with pytest.raises(ValueError):
            wallet.accept_signatures(issuer.public_key, [42])

    def test_wallet_rejects_surplus_signatures(self, issuer):
        wallet = TokenWallet(device_id="dev-w", seed=12)
        with pytest.raises(ValueError):
            wallet.accept_signatures(issuer.public_key, [1, 2, 3])


class TestDeviceIdentity:
    def test_secret_is_256_bits_of_entropy(self):
        secret = generate_user_secret(0)
        assert 0 <= secret < 2**256

    def test_secrets_differ_across_seeds(self):
        assert generate_user_secret(1) != generate_user_secret(2)

    def test_history_id_stable(self):
        identity = DeviceIdentity.create("dev-1", seed=3)
        assert identity.history_id("e1") == identity.history_id("e1")

    def test_history_ids_unlinkable_across_entities(self):
        identity = DeviceIdentity.create("dev-1", seed=3)
        a = identity.history_id("dentist-1")
        b = identity.history_id("dentist-2")
        assert a != b

    def test_history_ids_differ_across_devices(self):
        a = DeviceIdentity.create("dev-1", seed=1).history_id("e")
        b = DeviceIdentity.create("dev-2", seed=2).history_id("e")
        assert a != b

    def test_same_entity_same_secret_collides_correctly(self):
        """Two devices with the same secret address the same history —
        this is what lets a user migrate devices by copying Ru."""
        a = DeviceIdentity(device_id="old-phone", secret=777)
        b = DeviceIdentity(device_id="new-phone", secret=777)
        assert a.history_id("e") == b.history_id("e")
