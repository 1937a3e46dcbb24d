"""Chaum RSA blind signatures, implemented from first principles.

Section 4.2's defense against history corruption: the RSP "hands out
blindly signed tokens at a limited rate to every device and requires that
every device present a valid token when anonymously uploading".  Blindness
is essential — if the RSP could recognize a token at redemption time it
could link the anonymous upload back to the device it issued the token to.

This is the textbook protocol from Chaum (CRYPTO '83), the paper's [16]:

1. The signer publishes an RSA key ``(n, e)`` and keeps ``d``.
2. The client picks a random token identifier ``m`` and a blinding factor
   ``r`` coprime to ``n``, and submits ``blinded = H(m) * r^e mod n``.
3. The signer returns ``blinded^d mod n = H(m)^d * r mod n`` — it signs
   without seeing ``H(m)``.
4. The client divides by ``r`` to obtain ``s = H(m)^d``, a standard RSA
   signature over the token that the signer has never seen.
5. At redemption anyone can check ``s^e == H(m) mod n``.

Implementation notes: Miller–Rabin primality with deterministic bases valid
below 3.3 * 10^24 plus random rounds above, full-domain-style hashing into
``Z_n`` via SHA-256, and modest default key sizes (512-bit primes) because
this is a simulation substrate, not transport security.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.telemetry import NULL, Telemetry
from repro.util.rng import make_rng

#: Deterministic Miller–Rabin bases: exact for all n < 3,317,044,064,679,887,385,961,981.
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def is_probable_prime(n: int, rng_seed: int = 0) -> bool:
    """Miller–Rabin primality test.

    Deterministic (exact) for n below ~3.3e24 via the fixed base set;
    for larger n the fixed bases are augmented with 16 random rounds,
    giving an error probability below 4^-16.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witnesses() -> list[int]:
        bases = [b for b in _DETERMINISTIC_BASES if b < n - 1]
        if n >= 3_317_044_064_679_887_385_961_981:
            gen = make_rng(rng_seed, f"miller-rabin/{n % (2**61)}")
            bases += [int(gen.integers(2, 2**62)) % (n - 3) + 2 for _ in range(16)]
        return bases

    for a in witnesses():
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng_seed: int) -> int:
    """Generate a random prime of exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("bits must be >= 8")
    gen = make_rng(rng_seed, f"prime/{bits}")
    while True:
        candidate = int.from_bytes(gen.bytes(bits // 8 + 1), "big")
        candidate |= 1  # odd
        candidate |= 1 << (bits - 1)  # full bit length
        candidate &= (1 << bits) - 1
        if is_probable_prime(candidate, rng_seed):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    n: int
    e: int

    def hash_to_group(self, message: bytes) -> int:
        """Full-domain-ish hash of a message into Z_n (SHA-256 chained)."""
        target_bytes = (self.n.bit_length() + 7) // 8
        material = b""
        counter = 0
        while len(material) < target_bytes:
            material += hashlib.sha256(counter.to_bytes(4, "big") + message).digest()
            counter += 1
        return int.from_bytes(material[:target_bytes], "big") % self.n

    def verify(self, message: bytes, signature: int) -> bool:
        """Check that ``signature`` is a valid RSA signature over ``message``."""
        if not 0 < signature < self.n:
            return False
        return pow(signature, self.e, self.n) == self.hash_to_group(message)


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key with its Chinese-remainder form.

    ``p`` and ``q`` are the primes; ``dp = d mod (p-1)``,
    ``dq = d mod (q-1)`` and ``qinv = q^-1 mod p`` let :meth:`sign_raw`
    work modulo each prime separately (see :meth:`from_primes`).
    """

    public: RSAPublicKey
    d: int
    p: int
    q: int
    dp: int
    dq: int
    qinv: int

    @classmethod
    def from_primes(cls, p: int, q: int, e: int) -> "RSAKeyPair":
        """The keypair for distinct primes ``p``, ``q`` with ``gcd(e, phi) = 1``."""
        d = pow(e, -1, (p - 1) * (q - 1))
        return cls(
            public=RSAPublicKey(n=p * q, e=e),
            d=d,
            p=p,
            q=q,
            dp=d % (p - 1),
            dq=d % (q - 1),
            qinv=pow(q, -1, p),
        )

    def sign_raw(self, value: int) -> int:
        """Raw RSA exponentiation — used by the signer on *blinded* values.

        The signer never learns what it is signing; that is the point.
        Computed as two half-size exponentiations recombined with
        Garner's formula, which equals ``pow(value, d, n)`` for every
        ``value`` in ``[0, n)``.
        """
        if not 0 <= value < self.public.n:
            raise ValueError("value out of range")
        p, q = self.p, self.q
        sp = pow(value % p, self.dp, p)
        sq = pow(value % q, self.dq, q)
        return sq + q * ((self.qinv * (sp - sq)) % p)


def generate_keypair(bits: int = 512, seed: int = 0, e: int = 65537) -> RSAKeyPair:
    """Generate an RSA keypair with ``bits``-bit primes (2*bits-bit modulus)."""
    p = generate_prime(bits, seed)
    q = generate_prime(bits, seed + 1)
    while q == p:
        q = generate_prime(bits, seed + 2)
    if math.gcd(e, (p - 1) * (q - 1)) != 1:
        # Rare with e = 65537; fall back to a nearby seed.
        return generate_keypair(bits, seed + 7, e)
    return RSAKeyPair.from_primes(p, q, e)


@dataclass(frozen=True)
class BlindingResult:
    """Client-side state of one blinding operation."""

    message: bytes
    blinded: int
    unblinder: int  # r^{-1} mod n


def blind(
    public: RSAPublicKey,
    message: bytes,
    seed: int,
    telemetry: Telemetry = NULL,
) -> BlindingResult:
    """Blind a message for signing: ``H(m) * r^e mod n``.

    ``telemetry`` counts the operation (aggregate volume only — the
    message, factor, and blinded value never reach a label).
    """
    gen = make_rng(seed, "blinding")
    n = public.n
    while True:
        r = int.from_bytes(gen.bytes((n.bit_length() + 7) // 8), "big") % n
        if r > 1 and math.gcd(r, n) == 1:
            break
    h = public.hash_to_group(message)
    blinded = (h * pow(r, public.e, n)) % n
    telemetry.inc("blindsig.blind_ops")
    return BlindingResult(message=message, blinded=blinded, unblinder=pow(r, -1, n))


def unblind(
    public: RSAPublicKey,
    blinding: BlindingResult,
    blind_signature: int,
    telemetry: Telemetry = NULL,
) -> int:
    """Recover the real signature: ``blind_signature * r^{-1} mod n``."""
    telemetry.inc("blindsig.unblind_ops")
    return (blind_signature * blinding.unblinder) % public.n
