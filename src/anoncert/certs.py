"""Certificate records, protocol messages, and their canonical byte encoding.

Full ASN.1/DER X.509 is deliberately not modeled; certificates are a
minimal canonical binary record with the semantic fields the protocol
needs. `LAYOUT` is the wire specification. Each message is declared
once: its 2-byte type tag, its fields in wire order with their kinds,
and its trailing signature field; each `LAYOUT` declaration also
generates the message's record class, a frozen dataclass that takes the
fields in wire order. Variable-length fields carry 4-byte big-endian
length prefixes and string maps are sorted by key. One writer and one
reader are driven by the table, and decoding is canonical: `decode`
refuses every input `b` for which `encode(decode(b)) != b`, and
`decode(b, cls)` any message not of class `cls`, with `MalformedEncoding`.
Hashes and signatures cover these canonical bytes, and only `signed` and
`verify_signed` pair a message with its signature field.

The ciphertexts a message carries (a request's `r_ra_ct` and `s_ct`, a
response's `z_ct`) are opaque `BLOB` fields: their layout is `envelope`'s
alone, so decoding never looks inside one, and the actor that opens a
ciphertext refuses one too short to hold its parts.

A certificate's curve is its issuer key's: `issue_certificate` refuses a
subject key tagged with another curve. `verify_certificate` refuses a
certificate whose kind is not the one its caller names, and its signature
one whose `curve_id` is not its issuer key's curve.
"""

from __future__ import annotations

from dataclasses import make_dataclass, replace
from typing import Callable, Mapping, NamedTuple

from .curve import Point, Scalar, is_on_curve
from .envelope import Signature, sign, verify
from .errors import InvalidKey, InvalidValidity, MalformedEncoding
from .rng import RandomSource

KIND_PREEXISTING = "preexisting"
KIND_ANONYMOUS = "anonymous"
_CERT_KINDS = (KIND_PREEXISTING, KIND_ANONYMOUS)  # wire codes 0 and 1

DEFAULT_DETAIL_ALLOWLIST = frozenset({"purpose", "election_id", "curve_id"})


class _Reader:
    """Reads fields from `data`. `curve_id` is the curve of the message
    being read, set by its curve_id field or by its nested certificate;
    the points and signatures after it are tagged with it."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.curve_id = None

    def take(self, size: int, field: str) -> bytes:
        start, self.pos = self.pos, self.pos + size
        if self.pos > len(self.data):
            raise MalformedEncoding(f"truncated while reading {field}")
        return self.data[start:self.pos]

    def u64(self, field: str) -> int:
        return int.from_bytes(self.take(8, field), "big")

    def var(self, field: str) -> bytes:
        return self.take(int.from_bytes(self.take(4, field), "big"), field)

    def text(self, field: str) -> str:
        try:
            return self.var(field).decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedEncoding(f"invalid utf-8 in {field}") from None

    def curve(self, field: str) -> str:
        self.curve_id = self.text(field)
        return self.curve_id

    def cert_kind(self, field: str) -> str:
        code = self.take(1, field)[0]
        if code >= len(_CERT_KINDS):
            raise MalformedEncoding(f"unknown kind code {code}")
        return _CERT_KINDS[code]

    def str_map(self, field: str) -> dict:
        out, last = {}, None
        for _ in range(self.u64(field)):
            key = self.text(f"{field}.key")
            if last is not None and key <= last:
                raise MalformedEncoding(f"{field} keys not sorted and unique")
            out[key] = self.text(f"{field}.value")
            last = key
        return out

    def certificate(self, field: str) -> Certificate:
        """A nested record: it must be a certificate, which nests nothing."""
        sub = _Reader(self.var(field))
        cert = sub.message(field, Certificate)
        sub.done()
        self.curve_id = cert.curve_id
        return cert

    def message(self, field: str, only: type = None):
        """A tagged message; with `only`, a message of that class alone."""
        tag = int.from_bytes(self.take(2, f"{field} type tag"), "big")
        cls = _BY_TAG.get(tag)
        if cls is None or only not in (None, cls):
            raise MalformedEncoding(f"{field} has unexpected type tag 0x{tag:04X}")
        layout = LAYOUT[cls]
        return cls(*[kind.read(self, name) for name, kind in
                     layout.fields + ((layout.signature, SIGNATURE),)])

    def done(self):
        if self.pos != len(self.data):
            raise MalformedEncoding(f"{len(self.data) - self.pos} trailing bytes")


def _var(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _text(text: str) -> bytes:
    return _var(text.encode("utf-8"))


def _write_cert_kind(kind: str) -> bytes:
    if kind not in _CERT_KINDS:
        raise MalformedEncoding(f"unknown certificate kind {kind!r}")
    return bytes([_CERT_KINDS.index(kind)])


def _write_str_map(mapping: Mapping[str, str]) -> bytes:
    items = sorted(mapping.items())
    return len(items).to_bytes(8, "big") + b"".join(
        _text(key) + _text(value) for key, value in items)


class FieldKind(NamedTuple):
    write: Callable  # value -> bytes
    read: Callable   # (_Reader, field name) -> value


# Each kind's comment names the Python type of a field of that kind.
SERIAL = FieldKind(bytes, lambda r, f: r.take(16, f))  # 16 bytes, as bytes
TEXT = FieldKind(_text, _Reader.text)  # str
CURVE_ID = FieldKind(_text, _Reader.curve)  # str; sets the message's curve
U64 = FieldKind(lambda v: v.to_bytes(8, "big"), _Reader.u64)  # int
POINT = FieldKind(Point.to_bytes,  # Point
                  lambda r, f: Point.from_bytes(r.take(64, f), r.curve_id))
CERT_KIND = FieldKind(_write_cert_kind, _Reader.cert_kind)  # str, a kind
BLOB = FieldKind(_var, _Reader.var)  # bytes
NESTED_CERT = FieldKind(lambda cert: _var(encode(cert)),  # Certificate
                        _Reader.certificate)
STR_MAP = FieldKind(_write_str_map, _Reader.str_map)  # Mapping[str, str]
HASH = FieldKind(bytes, lambda r, f: r.take(32, f))  # 32 bytes, as bytes
SIGNATURE = FieldKind(Signature.to_bytes,  # Signature
                      lambda r, f: Signature.from_bytes(r.take(64, f), r.curve_id))


class Layout(NamedTuple):
    tag: int
    signature: str  # the trailing 64-byte signature field, not covered by it
    fields: tuple   # (name, FieldKind) in wire order


LAYOUT = {}


def _message(name: str, tag: int, signature: str, *fields) -> type:
    """Declare a message: a frozen record class `name` whose fields are
    `fields` then `signature`, in wire order, registered in LAYOUT."""
    cls = make_dataclass(name, [field for field, _ in fields] + [signature],
                         frozen=True)
    cls.__module__ = __name__  # make_dataclass takes no module= before 3.12
    LAYOUT[cls] = Layout(tag, signature, fields)
    return cls


Certificate = _message(
    "Certificate", 0x0001, "issuer_signature",
    ("serial", SERIAL), ("subject", TEXT), ("issuer", TEXT),
    ("curve_id", CURVE_ID), ("public_key", POINT),
    ("not_before", U64), ("not_after", U64), ("kind", CERT_KIND))
CertificateRequest = _message(
    "CertificateRequest", 0x0002, "signature",
    ("preexisting_cert", NESTED_CERT), ("r_ra_ct", BLOB), ("s_ct", BLOB),
    ("details", STR_MAP))
ForwardedRequest = _message(
    "ForwardedRequest", 0x0003, "signature",
    ("curve_id", CURVE_ID), ("temporary_public_key", POINT), ("s_ct", BLOB),
    ("details", STR_MAP))
CertificateResponse = _message(
    "CertificateResponse", 0x0004, "signature",
    ("curve_id", CURVE_ID), ("z_ct", BLOB), ("request_hash", HASH))
Ballot = _message(
    "Ballot", 0x0005, "signature",
    ("payload", BLOB), ("anon_cert", NESTED_CERT))

# The plaintext of a response's z_ct: the anonymous certificate and the
# CA's 32-byte blinding scalar r_CA.
Z_PAYLOAD = (("anon_cert", NESTED_CERT), ("r_ca", HASH))

_BY_TAG = {layout.tag: cls for cls, layout in LAYOUT.items()}


def pack(fields, values) -> bytes:
    """Encode `values` as the (name, FieldKind) `fields`, in order."""
    return b"".join([kind.write(value)
                     for (_, kind), value in zip(fields, values)])


def unpack(fields, data: bytes) -> list:
    """Decode `data` as exactly the (name, FieldKind) `fields`."""
    r = _Reader(data)
    values = [kind.read(r, name) for name, kind in fields]
    r.done()
    return values


def tbs_bytes(msg) -> bytes:
    """The bytes a message's signature covers: its encoding without the
    trailing signature."""
    layout = LAYOUT.get(type(msg))
    if layout is None:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    return layout.tag.to_bytes(2, "big") + pack(
        layout.fields, [getattr(msg, name) for name, _ in layout.fields])


# Per-type names for the same bytes, for callers that name the message type.
cert_tbs_bytes = request_tbs_bytes = forwarded_tbs_bytes = tbs_bytes
response_tbs_bytes = ballot_tbs_bytes = tbs_bytes


def encode(msg) -> bytes:
    return tbs_bytes(msg) + SIGNATURE.write(getattr(msg, LAYOUT[type(msg)].signature))


def decode(data: bytes, cls: type = None):
    """The message `data` encodes; with `cls`, a `cls` message alone."""
    r = _Reader(data)
    msg = r.message("message", cls)
    r.done()
    return msg


def signed(cls, signer_private: Scalar, **fields):
    """Build a `cls` message from `fields` and sign its tbs_bytes with
    `signer_private`; the signature field is the one `fields` leaves out."""
    name = LAYOUT[cls].signature
    unsigned = cls(**fields, **{name: None})
    return replace(unsigned,
                   **{name: sign(signer_private, tbs_bytes(unsigned))})


def verify_signed(msg, signer_public: Point) -> bool:
    """Whether `msg`'s signature field signs its tbs_bytes under
    `signer_public`; like `verify`, it answers False, never an error."""
    return verify(signer_public, tbs_bytes(msg),
                  getattr(msg, LAYOUT[type(msg)].signature))


def issue_certificate(issuer_private: Scalar, issuer_name: str, subject: str,
                      public_key: Point, validity: tuple[int, int], kind: str,
                      rng: RandomSource) -> Certificate:
    not_before, not_after = validity
    if not_after < not_before:
        raise InvalidValidity("not_after precedes not_before")
    if (public_key.curve_id != issuer_private.curve_id
            or public_key.is_infinity or not is_on_curve(public_key)):
        raise InvalidKey("subject key off the issuer's curve or identity")
    if kind == KIND_ANONYMOUS and subject:
        raise InvalidKey("anonymous certificates must have an empty subject")
    return signed(
        Certificate, issuer_private,
        serial=rng.read(16),
        subject=subject,
        issuer=issuer_name,
        curve_id=issuer_private.curve_id,
        public_key=public_key,
        not_before=not_before,
        not_after=not_after,
        kind=kind,
    )


def verify_certificate(cert: Certificate, issuer_public: Point, now: int,
                       kind: str) -> bool:
    """Whether `cert` is a current `kind` certificate of `issuer_public`.
    The signature decides the curve: it covers `curve_id`, and `verify`
    refuses a signature tagged with another curve than the issuer key's."""
    return (cert.kind == kind and cert.not_before <= now <= cert.not_after
            and verify_signed(cert, issuer_public))


def sanitize_details(details: Mapping[str, str]) -> dict:
    """Keep only the keys on DEFAULT_DETAIL_ALLOWLIST; everything else,
    identifying fields included, is dropped."""
    return {k: v for k, v in details.items() if k in DEFAULT_DETAIL_ALLOWLIST}

