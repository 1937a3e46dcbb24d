"""Tests for the from-scratch RSA blind-signature implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.blindsig import (
    blind,
    generate_keypair,
    generate_prime,
    is_probable_prime,
    unblind,
)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=256, seed=0)


class TestMillerRabin:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert is_probable_prime(p), p

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 15, 91, 561, 1105, 7917):  # includes Carmichael 561, 1105
            assert not is_probable_prime(c), c

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2**127 - 1)

    def test_large_known_composite(self):
        assert not is_probable_prime((2**127 - 1) * (2**89 - 1))

    @given(st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_trial_division(self, n):
        by_trial = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_trial


class TestPrimeGeneration:
    def test_bit_length_exact(self):
        for bits in (64, 128, 256):
            p = generate_prime(bits, rng_seed=1)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_deterministic(self):
        assert generate_prime(128, rng_seed=5) == generate_prime(128, rng_seed=5)

    def test_seed_varies(self):
        assert generate_prime(128, rng_seed=1) != generate_prime(128, rng_seed=2)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4, rng_seed=0)


class TestKeypair:
    def test_modulus_is_product_of_two_primes(self, keypair):
        # e*d == 1 mod phi is implied by a successful sign/verify round trip;
        # here check modulus size.
        assert keypair.public.n.bit_length() >= 511

    def test_sign_raw_range_check(self, keypair):
        with pytest.raises(ValueError):
            keypair.sign_raw(-1)
        with pytest.raises(ValueError):
            keypair.sign_raw(keypair.public.n)

    def test_crt_form_matches_the_key(self, keypair):
        p, q, n = keypair.p, keypair.q, keypair.public.n
        assert p * q == n and p != q
        assert keypair.dp == keypair.d % (p - 1)
        assert keypair.dq == keypair.d % (q - 1)
        assert (keypair.qinv * q) % p == 1

    def test_crt_signing_equals_plain_exponentiation_at_edges(self, keypair):
        p, q, n = keypair.p, keypair.q, keypair.public.n
        edges = [0, 1, 2, n - 1, n - 2, p, q, 2 * p, 3 * q, (q - 1) * p, (p - 1) * q]
        for value in edges:
            assert keypair.sign_raw(value) == pow(value, keypair.d, n), value

    @given(st.integers(min_value=0), st.integers(min_value=0, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_crt_signing_equals_plain_exponentiation(self, keypair, raw, factor):
        # ``factor`` 1 and 2 steer the value onto multiples of p and q.
        p, q, n = keypair.p, keypair.q, keypair.public.n
        value = raw % n
        if factor:
            value = (value * (p, q, p * q)[factor - 1]) % n
        assert keypair.sign_raw(value) == pow(value, keypair.d, n)

    def test_direct_signature_roundtrip(self, keypair):
        message = b"hello"
        h = keypair.public.hash_to_group(message)
        signature = keypair.sign_raw(h)
        assert keypair.public.verify(message, signature)

    def test_verify_rejects_wrong_message(self, keypair):
        h = keypair.public.hash_to_group(b"a")
        signature = keypair.sign_raw(h)
        assert not keypair.public.verify(b"b", signature)

    def test_verify_rejects_out_of_range_signature(self, keypair):
        assert not keypair.public.verify(b"a", 0)
        assert not keypair.public.verify(b"a", keypair.public.n + 1)


class TestBlindSignatures:
    def test_roundtrip(self, keypair):
        message = b"token-42"
        blinding = blind(keypair.public, message, seed=7)
        blind_sig = keypair.sign_raw(blinding.blinded)
        signature = unblind(keypair.public, blinding, blind_sig)
        assert keypair.public.verify(message, signature)

    def test_signer_never_sees_message_hash(self, keypair):
        """Blindness: the value the signer exponentiates differs from H(m)."""
        message = b"token-43"
        blinding = blind(keypair.public, message, seed=8)
        assert blinding.blinded != keypair.public.hash_to_group(message)

    def test_different_blinding_seeds_give_different_blinds(self, keypair):
        """The same message blinds to unrelated values — issuance requests
        for identical tokens are unlinkable to each other too."""
        message = b"token-44"
        a = blind(keypair.public, message, seed=1)
        b = blind(keypair.public, message, seed=2)
        assert a.blinded != b.blinded

    def test_unblinded_signature_equals_direct_signature(self, keypair):
        """Correctness of the algebra: unblind(sign(blind(m))) == sign(m)."""
        message = b"token-45"
        blinding = blind(keypair.public, message, seed=3)
        via_blind = unblind(keypair.public, blinding, keypair.sign_raw(blinding.blinded))
        direct = keypair.sign_raw(keypair.public.hash_to_group(message))
        assert via_blind == direct

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, message, seed):
        keypair = generate_keypair(bits=128, seed=9)
        blinding = blind(keypair.public, message, seed=seed)
        signature = unblind(keypair.public, blinding, keypair.sign_raw(blinding.blinded))
        assert keypair.public.verify(message, signature)

    def test_hash_to_group_in_range(self, keypair):
        for message in (b"", b"x", b"y" * 1000):
            h = keypair.public.hash_to_group(message)
            assert 0 <= h < keypair.public.n
