"""Certificate records, protocol messages, and their canonical byte encoding.

Full ASN.1/DER X.509 is deliberately not modeled; certificates are a
minimal canonical binary record with the semantic fields the protocol
needs. Layout: 2-byte type tag, fields in fixed order, variable-length
fields carry 4-byte big-endian length prefixes, string maps are sorted
lexicographically by key. Hashing and signing always operate on these
canonical bytes; the JSON dump is diagnostic only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping

from .curve import CurveParams, Point, Scalar, is_on_curve
from .envelope import EciesCiphertext, Signature, SymmetricCiphertext, sign, verify
from .errors import InvalidKey, InvalidValidity, MalformedEncoding
from .rng import RandomSource

KIND_PREEXISTING = "preexisting"
KIND_ANONYMOUS = "anonymous"

TAG_CERTIFICATE = 0x0001
TAG_REQUEST = 0x0002
TAG_FORWARDED = 0x0003
TAG_RESPONSE = 0x0004
TAG_BALLOT = 0x0005

DEFAULT_DETAIL_ALLOWLIST = frozenset({"purpose", "election_id", "curve_id"})


@dataclass(frozen=True)
class Certificate:
    serial: bytes
    subject: str
    issuer: str
    curve_id: str
    public_key: Point
    not_before: int
    not_after: int
    kind: str
    issuer_signature: Signature


@dataclass(frozen=True)
class CertificateRequest:
    preexisting_cert: Certificate
    r_ra_ct: EciesCiphertext
    s_ct: EciesCiphertext
    details: Mapping[str, str]
    signature: Signature


@dataclass(frozen=True)
class ForwardedRequest:
    curve_id: str
    temporary_public_key: Point
    s_ct: EciesCiphertext
    details: Mapping[str, str]
    signature: Signature


@dataclass(frozen=True)
class CertificateResponse:
    curve_id: str
    z_ct: SymmetricCiphertext
    request_hash: bytes
    signature: Signature


@dataclass(frozen=True)
class Ballot:
    payload: bytes
    anon_cert: Certificate
    signature: Signature


class _Writer:
    def __init__(self):
        self.parts = []

    def fixed(self, data: bytes):
        self.parts.append(data)

    def u16(self, value: int):
        self.parts.append(value.to_bytes(2, "big"))

    def u64(self, value: int):
        self.parts.append(value.to_bytes(8, "big"))

    def var(self, data: bytes):
        self.parts.append(len(data).to_bytes(4, "big"))
        self.parts.append(data)

    def string(self, text: str):
        self.var(text.encode("utf-8"))

    def str_map(self, mapping: Mapping[str, str]):
        items = sorted(mapping.items())
        self.u64(len(items))
        for key, value in items:
            self.string(key)
            self.string(value)

    def bytes(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def fixed(self, size: int, field: str) -> bytes:
        if self.pos + size > len(self.data):
            raise MalformedEncoding(f"truncated while reading {field}")
        out = self.data[self.pos:self.pos + size]
        self.pos += size
        return out

    def u16(self, field: str) -> int:
        return int.from_bytes(self.fixed(2, field), "big")

    def u64(self, field: str) -> int:
        return int.from_bytes(self.fixed(8, field), "big")

    def var(self, field: str) -> bytes:
        size = int.from_bytes(self.fixed(4, field), "big")
        return self.fixed(size, field)

    def string(self, field: str) -> str:
        try:
            return self.var(field).decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedEncoding(f"invalid utf-8 in {field}") from None

    def str_map(self, field: str) -> dict:
        count = self.u64(field)
        out = {}
        for _ in range(count):
            key = self.string(f"{field}.key")
            out[key] = self.string(f"{field}.value")
        return out

    def done(self):
        if self.pos != len(self.data):
            raise MalformedEncoding(
                f"{len(self.data) - self.pos} trailing bytes after message"
            )


def _kind_code(kind: str) -> int:
    if kind == KIND_PREEXISTING:
        return 0
    if kind == KIND_ANONYMOUS:
        return 1
    raise MalformedEncoding(f"unknown certificate kind {kind!r}")


def _write_cert_tbs(w: _Writer, cert: Certificate):
    w.fixed(cert.serial)
    w.string(cert.subject)
    w.string(cert.issuer)
    w.string(cert.curve_id)
    w.fixed(cert.public_key.to_bytes())
    w.u64(cert.not_before)
    w.u64(cert.not_after)
    w.fixed(bytes([_kind_code(cert.kind)]))


def cert_tbs_bytes(cert: Certificate) -> bytes:
    w = _Writer()
    w.u16(TAG_CERTIFICATE)
    _write_cert_tbs(w, cert)
    return w.bytes()


def _read_cert(r: _Reader) -> Certificate:
    serial = r.fixed(16, "serial")
    subject = r.string("subject")
    issuer = r.string("issuer")
    curve_id = r.string("curve_id")
    public_key = Point.from_bytes(r.fixed(64, "public_key"), curve_id)
    not_before = r.u64("not_before")
    not_after = r.u64("not_after")
    kind_code = r.fixed(1, "kind")[0]
    if kind_code > 1:
        raise MalformedEncoding(f"unknown kind code {kind_code}")
    kind = KIND_ANONYMOUS if kind_code else KIND_PREEXISTING
    sig = Signature.from_bytes(r.fixed(64, "issuer_signature"), curve_id)
    return Certificate(serial, subject, issuer, curve_id, public_key,
                       not_before, not_after, kind, sig)


def request_tbs_bytes(req: CertificateRequest) -> bytes:
    w = _Writer()
    w.u16(TAG_REQUEST)
    w.var(encode(req.preexisting_cert))
    w.var(req.r_ra_ct.to_bytes())
    w.var(req.s_ct.to_bytes())
    w.str_map(req.details)
    return w.bytes()


def forwarded_tbs_bytes(fwd: ForwardedRequest) -> bytes:
    w = _Writer()
    w.u16(TAG_FORWARDED)
    w.string(fwd.curve_id)
    w.fixed(fwd.temporary_public_key.to_bytes())
    w.var(fwd.s_ct.to_bytes())
    w.str_map(fwd.details)
    return w.bytes()


def response_tbs_bytes(resp: CertificateResponse) -> bytes:
    w = _Writer()
    w.u16(TAG_RESPONSE)
    w.string(resp.curve_id)
    w.var(resp.z_ct.to_bytes())
    w.fixed(resp.request_hash)
    return w.bytes()


def ballot_tbs_bytes(ballot: Ballot) -> bytes:
    w = _Writer()
    w.u16(TAG_BALLOT)
    w.var(ballot.payload)
    w.var(encode(ballot.anon_cert))
    return w.bytes()


def tbs_bytes(msg) -> bytes:
    """The bytes a message's signature covers: its encoding without the
    trailing signature."""
    if isinstance(msg, Certificate):
        return cert_tbs_bytes(msg)
    if isinstance(msg, CertificateRequest):
        return request_tbs_bytes(msg)
    if isinstance(msg, ForwardedRequest):
        return forwarded_tbs_bytes(msg)
    if isinstance(msg, CertificateResponse):
        return response_tbs_bytes(msg)
    if isinstance(msg, Ballot):
        return ballot_tbs_bytes(msg)
    raise TypeError(f"cannot encode {type(msg).__name__}")


def _signature_field(cls) -> str:
    return "issuer_signature" if cls is Certificate else "signature"


def encode(msg) -> bytes:
    tbs = tbs_bytes(msg)
    return tbs + getattr(msg, _signature_field(type(msg))).to_bytes()


def signed(cls, signer_private: Scalar, params: CurveParams, **fields):
    """Build a `cls` message from `fields` and sign its tbs_bytes with
    `signer_private`; the signature field is the one `fields` leaves out."""
    name = _signature_field(cls)
    unsigned = cls(**fields, **{name: None})
    return replace(unsigned, **{name: sign(signer_private, tbs_bytes(unsigned),
                                           params)})


def decode(data: bytes):
    r = _Reader(data)
    tag = r.u16("type_tag")
    if tag == TAG_CERTIFICATE:
        msg = _read_cert(r)
    elif tag == TAG_REQUEST:
        cert_bytes = r.var("preexisting_cert")
        cert = decode(cert_bytes)
        if not isinstance(cert, Certificate):
            raise MalformedEncoding("preexisting_cert is not a certificate")
        curve_id = cert.curve_id
        r_ra_ct = EciesCiphertext.from_bytes(r.var("r_ra_ct"), curve_id)
        s_ct = EciesCiphertext.from_bytes(r.var("s_ct"), curve_id)
        details = r.str_map("details")
        sig = Signature.from_bytes(r.fixed(64, "signature"), curve_id)
        msg = CertificateRequest(cert, r_ra_ct, s_ct, details, sig)
    elif tag == TAG_FORWARDED:
        curve_id = r.string("curve_id")
        temp_pk = Point.from_bytes(r.fixed(64, "temporary_public_key"), curve_id)
        s_ct = EciesCiphertext.from_bytes(r.var("s_ct"), curve_id)
        details = r.str_map("details")
        sig = Signature.from_bytes(r.fixed(64, "signature"), curve_id)
        msg = ForwardedRequest(curve_id, temp_pk, s_ct, details, sig)
    elif tag == TAG_RESPONSE:
        curve_id = r.string("curve_id")
        z_ct = SymmetricCiphertext.from_bytes(r.var("z_ct"))
        request_hash = r.fixed(32, "request_hash")
        sig = Signature.from_bytes(r.fixed(64, "signature"), curve_id)
        msg = CertificateResponse(curve_id, z_ct, request_hash, sig)
    elif tag == TAG_BALLOT:
        payload = r.var("payload")
        cert = decode(r.var("anon_cert"))
        if not isinstance(cert, Certificate):
            raise MalformedEncoding("anon_cert is not a certificate")
        sig = Signature.from_bytes(r.fixed(64, "signature"), cert.curve_id)
        msg = Ballot(payload, cert, sig)
    else:
        raise MalformedEncoding(f"unknown type tag 0x{tag:04X}")
    r.done()
    return msg


def issue_certificate(issuer_private: Scalar, issuer_name: str, subject: str,
                      public_key: Point, validity: tuple[int, int], kind: str,
                      params: CurveParams, rng: RandomSource) -> Certificate:
    not_before, not_after = validity
    if not_after < not_before:
        raise InvalidValidity("not_after precedes not_before")
    if public_key.is_infinity or not is_on_curve(public_key, params):
        raise InvalidKey("subject public key off-curve or identity")
    if kind == KIND_ANONYMOUS and subject:
        raise InvalidKey("anonymous certificates must have an empty subject")
    return signed(
        Certificate, issuer_private, params,
        serial=rng.read(16),
        subject=subject,
        issuer=issuer_name,
        curve_id=params.curve_id,
        public_key=public_key,
        not_before=not_before,
        not_after=not_after,
        kind=kind,
    )


def verify_certificate(cert: Certificate, issuer_public: Point, now: int,
                       params: CurveParams) -> bool:
    if cert.curve_id != params.curve_id:
        return False
    if not (cert.not_before <= now <= cert.not_after):
        return False
    return verify(issuer_public, cert_tbs_bytes(cert),
                  cert.issuer_signature, params)


def sanitize_details(details: Mapping[str, str]) -> dict:
    """Keep only the keys on DEFAULT_DETAIL_ALLOWLIST; everything else,
    identifying fields included, is dropped."""
    return {k: v for k, v in details.items() if k in DEFAULT_DETAIL_ALLOWLIST}


def to_json(msg) -> str:
    """Diagnostic dump, uppercase hex for byte fields. Never hashed or signed."""

    def conv(value):
        if isinstance(value, bytes):
            return value.hex().upper()
        if isinstance(value, Point):
            return value.to_hex()
        if isinstance(value, Scalar):
            return value.to_hex()
        if hasattr(value, "__dataclass_fields__"):
            return {f: conv(getattr(value, f)) for f in value.__dataclass_fields__}
        if isinstance(value, Mapping):
            return {k: conv(v) for k, v in sorted(value.items())}
        return value

    return json.dumps(conv(msg), indent=2, sort_keys=True)
