"""EE, RA, and CA state machines for the four-step issuance flow.

Each step is a pure transition (state, message) -> (state', outputs); no
actor mutates another's state, so a harness may run them on separate
threads with message passing. Within one actor, steps are serialized.

State hygiene rules enforced here: the RA holds r_RA only while the
matching response is pending, then erases it; the CA never stores the
original public key, r_RA, or any private expansion scalar; the EE wipes
its blinding secrets once the anonymous certificate is finalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .curve import (
    KeyPair,
    Point,
    Scalar,
    expand_private,
    expand_public,
    get_curve,
    random_blinding,
    scalar_mul,
)
from .certs import (
    Ballot,
    Certificate,
    CertificateRequest,
    CertificateResponse,
    ForwardedRequest,
    KIND_ANONYMOUS,
    ballot_tbs_bytes,
    decode,
    encode,
    forwarded_tbs_bytes,
    issue_certificate,
    request_tbs_bytes,
    response_tbs_bytes,
    sanitize_details,
    verify_certificate,
)
from .envelope import (
    AuthenticationFailure,
    SymmetricKey,
    digest,
    ecies_decrypt,
    ecies_encrypt,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify,
)
from .errors import (
    AnoncertError,
    BadCertificate,
    BadSignature,
    DegenerateResult,
    DuplicateRequest,
    EnvelopeFailure,
    Ineligible,
    KeyMismatch,
    NotFinalized,
    ProtocolStateError,
    UnknownCurve,
    UnknownRequestHash,
)
from .rng import RandomSource

REQUEST_HASH_KEY = "request_hash"
MAX_BLINDING_RETRIES = 8


@dataclass(frozen=True)
class EeSecrets:
    r_ra: Scalar
    aes_key: SymmetricKey


@dataclass(frozen=True)
class EeResult:
    anon_cert: Certificate
    temporary_private: Scalar  # j
    formal_private: Scalar     # k


@dataclass(frozen=True)
class EeState:
    curve_id: str
    original: KeyPair
    preexisting_cert: Certificate
    secrets: Optional[EeSecrets] = None
    result: Optional[EeResult] = None


@dataclass(frozen=True)
class PendingEntry:
    ee_id: str
    r_ra: Scalar


@dataclass(frozen=True)
class RaState:
    keypair: KeyPair
    ca_public: Point
    eligibility: frozenset  # allowed preexisting-cert serials
    pending: Mapping[bytes, PendingEntry] = field(default_factory=dict)


@dataclass(frozen=True)
class CaState:
    keypair: KeyPair
    trusted_ra_public: Point
    issuer_name: str = "CA"
    issued_serials: frozenset = frozenset()


@dataclass(frozen=True)
class TranscriptEntry:
    actor: str
    direction: str  # "sent" | "received"
    message: bytes
    annotation: str = ""


class Transcript:
    """Append-only log of the bytes each actor saw during a run."""

    def __init__(self):
        self.entries: list[TranscriptEntry] = []

    def record(self, actor: str, direction: str, message: bytes,
               annotation: str = ""):
        self.entries.append(TranscriptEntry(actor, direction, message, annotation))

    def bytes_for(self, actor: str) -> bytes:
        return b"".join(e.message for e in self.entries if e.actor == actor)


def ee_create_request(state: EeState, ra_public: Point, ca_public: Point,
                      details: Mapping[str, str],
                      rng: RandomSource) -> tuple[CertificateRequest, EeState]:
    if state.secrets is not None:
        raise ProtocolStateError("a request is already pending for this EE")
    params = get_curve(state.curve_id)
    r_ra = random_blinding(params, rng)
    aes_key = SymmetricKey(rng.read(32))
    r_ra_ct = ecies_encrypt(ra_public, r_ra.to_bytes(), params, rng)
    s_ct = ecies_encrypt(ca_public, aes_key.key, params, rng)
    unsigned = CertificateRequest(
        preexisting_cert=state.preexisting_cert,
        r_ra_ct=r_ra_ct,
        s_ct=s_ct,
        details=dict(details),
        signature=None,  # type: ignore[arg-type]
    )
    sig = sign(state.original.private, request_tbs_bytes(unsigned), params)
    req = replace(unsigned, signature=sig)
    new_state = replace(state, secrets=EeSecrets(r_ra, aes_key))
    return req, new_state


def ra_process_request(state: RaState, req: CertificateRequest,
                       ee_id: str) -> tuple[ForwardedRequest, RaState]:
    params = get_curve(req.preexisting_cert.curve_id)
    if not verify(req.preexisting_cert.public_key, request_tbs_bytes(req),
                  req.signature, params):
        raise BadSignature("request signature does not verify under the "
                           "embedded certificate key")
    if req.preexisting_cert.serial not in state.eligibility:
        raise Ineligible("certificate serial not on the eligibility list")
    req_hash = digest(encode(req))
    if req_hash in state.pending:
        raise DuplicateRequest("identical request already pending")
    try:
        plaintext = ecies_decrypt(state.keypair.private, req.r_ra_ct, params)
    except AnoncertError as exc:
        raise EnvelopeFailure(f"could not open r_RA envelope: {exc}") from exc
    if len(plaintext) != 32:
        raise EnvelopeFailure("r_RA plaintext is not a 32-byte scalar")
    r_ra = Scalar.from_bytes(plaintext, params.curve_id)
    if not (1 <= r_ra.value <= params.n - 1):
        raise EnvelopeFailure("decrypted r_RA outside [1, n-1]")
    # DegenerateResult propagates: r_RA is EE-chosen, so the RA cannot
    # resample; the EE must retry with a fresh blinding value.
    temp_public = expand_public(req.preexisting_cert.public_key, r_ra, params)
    details = sanitize_details(req.details)
    details[REQUEST_HASH_KEY] = req_hash.hex().upper()
    unsigned = ForwardedRequest(
        curve_id=params.curve_id,
        temporary_public_key=temp_public,
        s_ct=req.s_ct,
        details=details,
        signature=None,  # type: ignore[arg-type]
    )
    sig = sign(state.keypair.private, forwarded_tbs_bytes(unsigned), params)
    fwd = replace(unsigned, signature=sig)
    pending = dict(state.pending)
    pending[req_hash] = PendingEntry(ee_id, r_ra)
    return fwd, replace(state, pending=pending)


def ca_process_request(state: CaState, fwd: ForwardedRequest,
                       validity: tuple[int, int],
                       rng: RandomSource) -> tuple[CertificateResponse, CaState]:
    params = get_curve(fwd.curve_id)
    if not verify(state.trusted_ra_public, forwarded_tbs_bytes(fwd),
                  fwd.signature, params):
        raise BadSignature("forwarded request not signed by the trusted RA")
    hash_hex = fwd.details.get(REQUEST_HASH_KEY)
    if hash_hex is None:
        raise ProtocolStateError("forwarded request lacks the RA request hash")
    request_hash = bytes.fromhex(hash_hex)
    for attempt in range(MAX_BLINDING_RETRIES):
        r_ca = random_blinding(params, rng)
        try:
            formal_public = expand_public(fwd.temporary_public_key, r_ca, params)
            break
        except DegenerateResult:
            continue
    else:
        raise DegenerateResult("blinding kept degenerating; giving up")
    anon_cert = issue_certificate(
        state.keypair.private, state.issuer_name, "", formal_public,
        validity, KIND_ANONYMOUS, params, rng,
    )
    try:
        key_bytes = ecies_decrypt(state.keypair.private, fwd.s_ct, params)
    except AnoncertError as exc:
        raise EnvelopeFailure(f"could not open AES-key envelope: {exc}") from exc
    if len(key_bytes) != 32:
        raise EnvelopeFailure("AES key plaintext is not 32 bytes")
    aes_key = SymmetricKey(key_bytes)
    cert_bytes = encode(anon_cert)
    payload = len(cert_bytes).to_bytes(4, "big") + cert_bytes + r_ca.to_bytes()
    # AAD binds the response envelope to its request hash so z cannot be
    # spliced onto another request.
    z_ct = sym_encrypt(aes_key, payload, request_hash, rng)
    unsigned = CertificateResponse(
        curve_id=params.curve_id,
        z_ct=z_ct,
        request_hash=request_hash,
        signature=None,  # type: ignore[arg-type]
    )
    sig = sign(state.keypair.private, response_tbs_bytes(unsigned), params)
    resp = replace(unsigned, signature=sig)
    new_state = replace(
        state, issued_serials=state.issued_serials | {anon_cert.serial})
    return resp, new_state


def ra_route_response(state: RaState, resp: CertificateResponse
                      ) -> tuple[str, CertificateResponse, RaState]:
    entry = state.pending.get(resp.request_hash)
    if entry is None:
        raise UnknownRequestHash("no pending request matches this response")
    pending = dict(state.pending)
    del pending[resp.request_hash]
    return entry.ee_id, resp, replace(state, pending=pending)


def ee_process_response(state: EeState, resp: CertificateResponse,
                        ca_public: Point, now: int) -> EeState:
    if state.secrets is None:
        raise ProtocolStateError("no request pending for this EE")
    params = get_curve(state.curve_id)
    if not verify(ca_public, response_tbs_bytes(resp), resp.signature, params):
        raise BadSignature("response not signed by the CA")
    try:
        payload = sym_decrypt(state.secrets.aes_key, resp.z_ct,
                              resp.request_hash)
    except AuthenticationFailure as exc:
        raise EnvelopeFailure(f"could not open z envelope: {exc}") from exc
    if len(payload) < 4 + 32:
        raise EnvelopeFailure("z payload too short")
    cert_len = int.from_bytes(payload[:4], "big")
    if len(payload) != 4 + cert_len + 32:
        raise EnvelopeFailure("z payload length inconsistent")
    try:
        anon_cert = decode(payload[4:4 + cert_len])
    except AnoncertError as exc:
        raise EnvelopeFailure(f"bad certificate in z: {exc}") from exc
    if not isinstance(anon_cert, Certificate):
        raise EnvelopeFailure("z payload is not a certificate")
    r_ca = Scalar.from_bytes(payload[4 + cert_len:], params.curve_id)
    temp_private = expand_private(state.original.private, state.secrets.r_ra,
                                  params)
    formal_private = expand_private(temp_private, r_ca, params)
    if scalar_mul(formal_private, params.g, params) != anon_cert.public_key:
        raise KeyMismatch("formal private key does not match certificate key")
    if not verify_certificate(anon_cert, ca_public, now, params):
        raise BadCertificate("anonymous certificate does not verify")
    result = EeResult(anon_cert, temp_private, formal_private)
    return replace(state, secrets=None, result=result)


def sign_ballot(state: EeState, payload: bytes) -> Ballot:
    if state.result is None:
        raise NotFinalized("EE has no anonymous certificate yet")
    params = get_curve(state.curve_id)
    unsigned = Ballot(payload, state.result.anon_cert, None)  # type: ignore[arg-type]
    sig = sign(state.result.formal_private, ballot_tbs_bytes(unsigned), params)
    return replace(unsigned, signature=sig)


def verify_ballot(ballot: Ballot, ca_public: Point, now: int) -> bool:
    try:
        params = get_curve(ballot.anon_cert.curve_id)
    except UnknownCurve:
        return False
    if ballot.anon_cert.kind != KIND_ANONYMOUS:
        return False
    if not verify_certificate(ballot.anon_cert, ca_public, now, params):
        return False
    return verify(ballot.anon_cert.public_key, ballot_tbs_bytes(ballot),
                  ballot.signature, params)
