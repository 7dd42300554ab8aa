"""Hybrid encryption, authenticated symmetric encryption, and signatures.

ECIES here is ECDH on the protocol curve's pure-Python ladder, then
HKDF-SHA256 (RFC 5869, from `cryptography`) and AES-256-GCM with a zero
nonce (every derived key is single-use). Symmetric envelopes are
AES-256-GCM with a random 12-byte nonce. Signatures are ECDSA over
SHA-256 with deterministic RFC 6979 nonces, so repeated signing is
reproducible; `cryptography` signs on the named curves, and verification
runs on the ladder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import decode_dss_signature
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .curve import (
    OPENSSL_CURVES,
    CurveParams,
    Point,
    Scalar,
    generate_keypair,
    is_on_curve,
    point_add,
    scalar_mul,
)
from .errors import (
    AuthenticationFailure,
    InvalidEphemeralKey,
    InvalidRecipientKey,
    UnknownCurve,
)
from .rng import RandomSource

ECIES_CONTEXT = b"anoncert-ecies-v1"
TAG_LEN = 16
NONCE_LEN = 12
KEY_LEN = 32
_ZERO_NONCE = b"\x00" * NONCE_LEN


@dataclass(frozen=True)
class EciesCiphertext:
    ephemeral_public: Point
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.ephemeral_public.to_bytes() + self.body + self.tag

    @classmethod
    def from_bytes(cls, data: bytes, curve_id: str) -> "EciesCiphertext":
        if len(data) < 64 + TAG_LEN:
            raise ValueError("ECIES ciphertext too short")
        return cls(Point.from_bytes(data[:64], curve_id),
                   data[64:-TAG_LEN], data[-TAG_LEN:])


@dataclass(frozen=True)
class SymmetricKey:
    key: bytes

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError("symmetric key must be 32 bytes")


@dataclass(frozen=True)
class SymmetricCiphertext:
    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.body + self.tag

    @classmethod
    def from_bytes(cls, data: bytes) -> "SymmetricCiphertext":
        if len(data) < NONCE_LEN + TAG_LEN:
            raise ValueError("symmetric ciphertext too short")
        return cls(data[:NONCE_LEN], data[NONCE_LEN:-TAG_LEN], data[-TAG_LEN:])


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


def _ecdh_key(private: Scalar, public: Point, params: CurveParams) -> bytes:
    shared = scalar_mul(private, public, params)
    if shared.is_infinity:
        raise InvalidEphemeralKey("ECDH produced the identity")
    hkdf = HKDF(hashes.SHA256(), KEY_LEN, salt=None, info=ECIES_CONTEXT)
    return hkdf.derive(shared.x.to_bytes(32, "big"))


def ecies_encrypt(recipient_public: Point, plaintext: bytes,
                  params: CurveParams, rng: RandomSource) -> EciesCiphertext:
    if recipient_public.is_infinity or not is_on_curve(recipient_public, params):
        raise InvalidRecipientKey("recipient key off-curve or identity")
    eph = generate_keypair(params, rng)
    key = _ecdh_key(eph.private, recipient_public, params)
    sealed = AESGCM(key).encrypt(_ZERO_NONCE, plaintext, None)
    return EciesCiphertext(eph.public, sealed[:-TAG_LEN], sealed[-TAG_LEN:])


def ecies_decrypt(recipient_private: Scalar, ct: EciesCiphertext,
                  params: CurveParams) -> bytes:
    if ct.ephemeral_public.is_infinity or not is_on_curve(ct.ephemeral_public, params):
        raise InvalidEphemeralKey("ephemeral key off-curve or identity")
    key = _ecdh_key(recipient_private, ct.ephemeral_public, params)
    try:
        return AESGCM(key).decrypt(_ZERO_NONCE, ct.body + ct.tag, None)
    except InvalidTag:
        raise AuthenticationFailure("ECIES tag check failed") from None


def sym_encrypt(key: SymmetricKey, plaintext: bytes, aad: bytes,
                rng: RandomSource) -> SymmetricCiphertext:
    nonce = rng.read(NONCE_LEN)
    sealed = AESGCM(key.key).encrypt(nonce, plaintext, aad)
    return SymmetricCiphertext(nonce, sealed[:-TAG_LEN], sealed[-TAG_LEN:])


def sym_decrypt(key: SymmetricKey, ct: SymmetricCiphertext, aad: bytes) -> bytes:
    try:
        return AESGCM(key.key).decrypt(ct.nonce, ct.body + ct.tag, aad)
    except InvalidTag:
        raise AuthenticationFailure("AEAD tag check failed") from None


def sign(signer_private: Scalar, message: bytes, params: CurveParams) -> Signature:
    curve = OPENSSL_CURVES.get(params.curve_id)
    if curve is None:
        raise UnknownCurve(f"no signing backend for curve {params.curve_id!r}")
    key = ec.derive_private_key(signer_private.value, curve)
    der = key.sign(message, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))
    r, s = decode_dss_signature(der)
    return Signature(Scalar(params.curve_id, r), Scalar(params.curve_id, s))


def verify(signer_public: Point, message: bytes, sig: Signature,
           params: CurveParams) -> bool:
    n = params.n
    if signer_public.is_infinity or not is_on_curve(signer_public, params):
        return False
    if not (1 <= sig.r.value <= n - 1 and 1 <= sig.s.value <= n - 1):
        return False
    # both named curves have a 256-bit n, so ECDSA's truncation of the
    # SHA-256 digest to the bit length of n keeps every bit
    e = int.from_bytes(digest(message), "big") % n
    w = pow(sig.s.value, -1, n)
    u1 = Scalar(params.curve_id, e * w % n)
    u2 = Scalar(params.curve_id, sig.r.value * w % n)
    R = point_add(scalar_mul(u1, params.g, params),
                  scalar_mul(u2, signer_public, params), params)
    if R.is_infinity:
        return False
    return R.x % n == sig.r.value
