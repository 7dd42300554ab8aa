"""Hybrid encryption, authenticated symmetric encryption, and signatures.

This module alone knows the byte layout of a ciphertext; every other
module carries one as opaque `bytes`. An ECIES ciphertext is the 64-byte
ephemeral point x||y, then AES-GCM's output: ECDH on the recipient key's
curve, then HKDF-SHA256 (RFC 5869) and AES-256-GCM with a zero nonce
(every derived key is single-use). A symmetric ciphertext is the random
12-byte nonce, then AES-GCM's output under a 32-byte key. AES-GCM's
output ends in its 16-byte tag, and a decrypt refuses an input too short
to hold its parts with `MalformedEncoding`.
Signatures are ECDSA over SHA-256 with deterministic RFC 6979 nonces, so
repeated signing is reproducible. No function here takes a curve: each
runs on the curve its keys are tagged with. OpenSSL, through
`cryptography`, does the ECDH, the ephemeral key's k*G, HKDF, AES-GCM and
signing. ECDH and signing use the private `Scalar`'s cached OpenSSL key
(`Scalar.openssl_key`), which fixes their curve and refuses the toy
curve, so an authority key is derived once however many requests it
serves, and an ephemeral ECIES key once for its k*G and its ECDH; the
OpenSSL key is dropped with its `Scalar`. Verification is a predicate
that never raises: a key off its tagged curve, or a signature tagged
with another curve, verifies nothing. It checks the curve tags, the key
(finite, with coordinates in [0, p) on its curve: OpenSSL would reduce
a coordinate >= p) and the range of r and s in Python. On a curve with
`CurveParams.openssl_verify` (brainpoolP256r1) OpenSSL then makes the
whole check with the public key loaded per call, which builds no table.
On secp256r1 it computes u1*G + u2*Q, whose scalars are public, with
`curve.mul_add`, the only way into the variable-time Python comb of
`curve` on a named curve: u1*G in OpenSSL and u2*Q in the comb. A
signer point's first walk uses a table built for it and dropped, and
its second builds the table kept on that `Point` object, so the CA, RA
and identity-root keys build theirs once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .curve import (
    Point,
    Scalar,
    curve_of,
    generate_keypair,
    is_on_curve,
    mul_add,
)
from .errors import (
    AnoncertError,
    AuthenticationFailure,
    CurveMismatch,
    InvalidEphemeralKey,
    InvalidKey,
    InvalidRecipientKey,
    MalformedEncoding,
    UnknownCurve,
)
from .rng import RandomSource

HKDF_INFO = b"anoncert-ecies-v1"
TAG_LEN = 16
NONCE_LEN = 12
KEY_LEN = 32
_ZERO_NONCE = b"\x00" * NONCE_LEN


@dataclass(frozen=True)
class Signature:
    r: Scalar
    s: Scalar

    def to_bytes(self) -> bytes:
        return self.r.to_bytes() + self.s.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes, curve_id: str) -> "Signature":
        if len(data) != 64:
            raise ValueError("signature must be 64 bytes")
        return cls(Scalar.from_bytes(data[:32], curve_id),
                   Scalar.from_bytes(data[32:], curve_id))


def digest(message: bytes) -> bytes:
    return hashlib.sha256(message).digest()


def _ecdh_key(private: Scalar, peer: Point,
              invalid_peer: type[AnoncertError]) -> bytes:
    """HKDF of the x coordinate of private*peer, computed by OpenSSL with
    the scalar's cached key on that key's curve. A peer point OpenSSL
    refuses raises `invalid_peer`."""
    if private.value % curve_of(private).n == 0 or peer.is_infinity:
        raise InvalidEphemeralKey("ECDH produced the identity")
    key = private.openssl_key
    try:
        peer_key = ec.EllipticCurvePublicNumbers(peer.x, peer.y,
                                                 key.curve).public_key()
    except ValueError:
        raise invalid_peer(
            f"peer key is not a point of {private.curve_id}") from None
    shared_x = key.exchange(ec.ECDH(), peer_key)
    hkdf = HKDF(hashes.SHA256(), KEY_LEN, salt=None, info=HKDF_INFO)
    return hkdf.derive(shared_x)


def ecies_encrypt(recipient_public: Point, plaintext: bytes,
                  rng: RandomSource) -> bytes:
    """Encrypt to `recipient_public` under an ephemeral key on its curve:
    the ephemeral point, then AES-GCM's output."""
    if recipient_public.is_infinity or not is_on_curve(recipient_public):
        raise InvalidRecipientKey("recipient key off-curve or identity")
    eph = generate_keypair(curve_of(recipient_public), rng)
    key = _ecdh_key(eph.private, recipient_public, InvalidRecipientKey)
    return (eph.public.to_bytes()
            + AESGCM(key).encrypt(_ZERO_NONCE, plaintext, None))


def ecies_decrypt(recipient_private: Scalar, ct: bytes) -> bytes:
    """Open `ct`, reading its ephemeral point on the recipient key's
    curve; an identity, off-curve or unreduced point is refused."""
    if len(ct) < 64 + TAG_LEN:
        raise MalformedEncoding("ECIES ciphertext too short")
    eph = Point.from_bytes(ct[:64], recipient_private.curve_id)
    if eph.is_infinity or not is_on_curve(eph):
        raise InvalidEphemeralKey("ephemeral key off-curve or identity")
    key = _ecdh_key(recipient_private, eph, InvalidEphemeralKey)
    try:
        return AESGCM(key).decrypt(_ZERO_NONCE, ct[64:], None)
    except InvalidTag:
        raise AuthenticationFailure("ECIES tag check failed") from None


def sym_encrypt(key: bytes, plaintext: bytes, aad: bytes,
                rng: RandomSource) -> bytes:
    """Encrypt under the 32-byte `key`: a fresh nonce, then AES-GCM's
    output."""
    nonce = rng.read(NONCE_LEN)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, aad)


def sym_decrypt(key: bytes, ct: bytes, aad: bytes) -> bytes:
    if len(ct) < NONCE_LEN + TAG_LEN:
        raise MalformedEncoding("symmetric ciphertext too short")
    try:
        return AESGCM(key).decrypt(ct[:NONCE_LEN], ct[NONCE_LEN:], aad)
    except InvalidTag:
        raise AuthenticationFailure("AEAD tag check failed") from None


def sign(signer_private: Scalar, message: bytes) -> Signature:
    """ECDSA signature with the scalar's cached OpenSSL key, whose value
    must be in [1, n-1] on its named curve."""
    if not 1 <= signer_private.value <= curve_of(signer_private).n - 1:
        raise InvalidKey("signing key outside [1, n-1]")
    der = signer_private.openssl_key.sign(
        message, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))
    r, s = decode_dss_signature(der)
    curve_id = signer_private.curve_id
    return Signature(Scalar(curve_id, r), Scalar(curve_id, s))


def verify(signer_public: Point, message: bytes, sig: Signature) -> bool:
    """Whether `sig` is a signature of `message` under `signer_public` on
    its curve. False, never an error, for a key that is not a point of
    its tagged curve or a signature tagged with another curve."""
    try:
        params = curve_of(signer_public, sig.r, sig.s)
    except (CurveMismatch, UnknownCurve):
        return False
    n = params.n
    if signer_public.is_infinity or not is_on_curve(signer_public):
        return False
    if not (1 <= sig.r.value <= n - 1 and 1 <= sig.s.value <= n - 1):
        return False
    if params.openssl_verify:
        try:
            key = ec.EllipticCurvePublicNumbers(
                signer_public.x, signer_public.y,
                params.openssl_curve).public_key()
        except ValueError:
            return False
        try:
            key.verify(encode_dss_signature(sig.r.value, sig.s.value),
                       message, ec.ECDSA(hashes.SHA256()))
        except InvalidSignature:
            return False
        return True
    # both named curves have a 256-bit n, so ECDSA's truncation of the
    # SHA-256 digest to the bit length of n keeps every bit
    e = int.from_bytes(digest(message), "big") % n
    w = pow(sig.s.value, -1, n)
    u1 = Scalar(params.curve_id, e * w % n)
    u2 = Scalar(params.curve_id, sig.r.value * w % n)
    R = mul_add(u1, u2, signer_public)
    if R.is_infinity:
        return False
    return R.x % n == sig.r.value
