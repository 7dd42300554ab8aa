"""EE, RA, and CA state machines for the four-step issuance flow.

Each step is a pure transition (state, message) -> (state', outputs); no
actor mutates another's state, so a harness may run them on separate
threads with message passing. Within one actor, steps are serialized.
A step takes its state, what arrived (the message; for the RA also the
id of the EE that sent it) and the clock or the randomness it draws.
Actors keep no record of the bytes they exchange: the caller carries each
message over the wire (`certs.encode`, then `certs.decode` with the class
the receiving step accepts) and keeps any transcript.
Each state holds the one private key its actor uses and the public keys
it trusts (the EE's: one RA key, one CA key), and the CA's the validity
window it issues; the EE's own public key I is the one on its
preexisting certificate. `_open` opens every envelope and reads its
plaintext as its `certs` layout; either failure is `EnvelopeFailure`.

State hygiene rules enforced here: the RA never stores r_RA; it uses it
only to compute J = I + r_RA*G, and keeps per pending request just the
EE id to route the response to. The CA never stores the original public
key, r_RA, or any private expansion scalar. The EE drops r_RA and s once
the anonymous certificate is finalized, but its `EeResult` keeps
j = i + r_RA beside k, so r_RA stays derivable from the EE's own final
state (the harness checks j against the r_RA the EE drew).

One identity gets one credential: the RA forwards only requests whose
preexisting certificate verifies under the identity root, at most one per
certificate serial, and it routes (dropping the pending EE id) only
responses the CA signed; the CA answers each request hash once. Every
certificate check is one `verify_certificate` call that names the kind it
accepts; every other signature check is one `verify_signed` call.

Each trust decision is made by one check. The EE does not check the
response's signature: what it accepts is decided by `z_ct` opening under
s with the request hash as AAD, by the certificate inside verifying under
the CA key, and by `check_key_pair` binding k to K. The RA leaves r_RA's
range to `expand_public` (`BlindingOutOfRange`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .curve import (
    Point,
    Scalar,
    check_key_pair,
    expand_private,
    expand_public,
    get_curve,
    random_blinding,
)
from .certs import (
    Ballot,
    Certificate,
    CertificateRequest,
    CertificateResponse,
    ForwardedRequest,
    KIND_ANONYMOUS,
    KIND_PREEXISTING,
    R_RA_PAYLOAD,
    S_PAYLOAD,
    Z_PAYLOAD,
    encode,
    issue_certificate,
    pack,
    sanitize_details,
    signed,
    unpack,
    verify_certificate,
    verify_signed,
)
from .envelope import (
    digest,
    ecies_decrypt,
    ecies_encrypt,
    sym_decrypt,
    sym_encrypt,
)
from .errors import (
    AlreadyServed,
    AnoncertError,
    BadCertificate,
    BadSignature,
    DegenerateResult,
    DuplicateRequest,
    EnvelopeFailure,
    Ineligible,
    KeyMismatch,
    MalformedEncoding,
    NotFinalized,
    ProtocolStateError,
    UnknownRequestHash,
)
from .rng import RandomSource

REQUEST_HASH_KEY = "request_hash"
CA_ISSUER_NAME = "CA"
MAX_BLINDING_RETRIES = 8


@dataclass(frozen=True)
class EeSecrets:
    r_ra: Scalar
    aes_key: bytes  # s, 32 bytes


@dataclass(frozen=True)
class EeResult:
    anon_cert: Certificate
    temporary_private: Scalar  # j
    formal_private: Scalar     # k


@dataclass(frozen=True)
class EeState:
    private: Scalar  # i; its curve is the EE's curve
    preexisting_cert: Certificate
    ra_public: Point  # r_RA is sealed to this key
    ca_public: Point  # s is sealed to it, and it issues the certificate
    secrets: Optional[EeSecrets] = None
    result: Optional[EeResult] = None


@dataclass(frozen=True)
class RaState:
    private: Scalar
    ca_public: Point
    identity_root: Point  # issuer key of the preexisting certificates
    eligibility: frozenset  # allowed preexisting-cert serials
    pending: Mapping[bytes, str] = field(default_factory=dict)  # hash -> EE id
    claimed_serials: frozenset = frozenset()  # forwarded: pending or served


@dataclass(frozen=True)
class CaState:
    private: Scalar
    trusted_ra_public: Point
    validity: tuple[int, int]  # (not_before, not_after) of every certificate
    request_hashes: frozenset = frozenset()  # every request answered


def _open(decrypt, key, ct: bytes, layout, name: str, *aad) -> list:
    """The `layout` fields of what `decrypt` opens `ct` under `key` to."""
    try:
        return unpack(layout, decrypt(key, ct, *aad))
    except AnoncertError as exc:
        raise EnvelopeFailure(f"could not open {name} envelope: {exc}") from exc


def ee_create_request(state: EeState, details: Mapping[str, str],
                      rng: RandomSource) -> tuple[CertificateRequest, EeState]:
    if state.secrets is not None:
        raise ProtocolStateError("a request is already pending for this EE")
    params = get_curve(state.private.curve_id)
    r_ra = random_blinding(params, rng)
    aes_key = rng.read(32)
    r_ra_ct = ecies_encrypt(state.ra_public,
                            pack(R_RA_PAYLOAD, (r_ra.to_bytes(),)), rng)
    s_ct = ecies_encrypt(state.ca_public, pack(S_PAYLOAD, (aes_key,)), rng)
    req = signed(CertificateRequest, state.private,
                 preexisting_cert=state.preexisting_cert, r_ra_ct=r_ra_ct,
                 s_ct=s_ct, details=dict(details))
    new_state = replace(state, secrets=EeSecrets(r_ra, aes_key))
    return req, new_state


def ra_process_request(state: RaState, req: CertificateRequest, ee_id: str,
                       now: int) -> tuple[ForwardedRequest, RaState]:
    cert = req.preexisting_cert
    params = get_curve(cert.curve_id)
    if not verify_signed(req, cert.public_key):
        raise BadSignature("request signature does not verify under the "
                           "embedded certificate key")
    if not verify_certificate(cert, state.identity_root, now,
                              KIND_PREEXISTING):
        raise BadCertificate("preexisting certificate is not a current "
                             "certificate of the identity root")
    if cert.serial not in state.eligibility:
        raise Ineligible("certificate serial not on the eligibility list")
    req_hash = digest(encode(req))
    if req_hash in state.pending:
        raise DuplicateRequest("identical request already pending")
    if cert.serial in state.claimed_serials:
        raise AlreadyServed("this certificate serial already has a request "
                            "pending or served")
    (r_ra_bytes,) = _open(ecies_decrypt, state.private, req.r_ra_ct,
                          R_RA_PAYLOAD, "r_RA")
    r_ra = Scalar.from_bytes(r_ra_bytes, params.curve_id)
    # BlindingOutOfRange (r_RA not in [1, n-1]) and DegenerateResult
    # propagate: r_RA is EE-chosen, so the RA cannot resample; the EE must
    # retry with a fresh blinding value.
    temp_public = expand_public(cert.public_key, r_ra)
    details = sanitize_details(req.details)
    details[REQUEST_HASH_KEY] = req_hash.hex().upper()
    fwd = signed(ForwardedRequest, state.private,
                 curve_id=params.curve_id, temporary_public_key=temp_public,
                 s_ct=req.s_ct, details=details)
    return fwd, replace(state, pending={**state.pending, req_hash: ee_id},
                        claimed_serials=state.claimed_serials | {cert.serial})


def ca_process_request(state: CaState, fwd: ForwardedRequest,
                       rng: RandomSource) -> tuple[CertificateResponse, CaState]:
    params = get_curve(fwd.curve_id)
    if not verify_signed(fwd, state.trusted_ra_public):
        raise BadSignature("forwarded request not signed by the trusted RA")
    hash_hex = fwd.details.get(REQUEST_HASH_KEY)
    if hash_hex is None:
        raise ProtocolStateError("forwarded request lacks the RA request hash")
    try:
        request_hash = bytes.fromhex(hash_hex)
    except ValueError:
        raise MalformedEncoding("RA request hash is not hex") from None
    if len(request_hash) != 32:
        raise MalformedEncoding("RA request hash is not 32 bytes")
    if request_hash in state.request_hashes:
        raise DuplicateRequest("a response for this request hash was issued")
    # open s before drawing r_CA: sign no certificate the CA cannot send
    (aes_key,) = _open(ecies_decrypt, state.private, fwd.s_ct, S_PAYLOAD,
                       "AES-key")
    for attempt in range(MAX_BLINDING_RETRIES):
        r_ca = random_blinding(params, rng)
        try:
            formal_public = expand_public(fwd.temporary_public_key, r_ca)
            break
        except DegenerateResult:
            continue
    else:
        raise DegenerateResult("blinding kept degenerating; giving up")
    anon_cert = issue_certificate(state.private, CA_ISSUER_NAME, "",
                                  formal_public, state.validity,
                                  KIND_ANONYMOUS, rng)
    payload = pack(Z_PAYLOAD, (anon_cert, r_ca.to_bytes()))
    # AAD binds the response envelope to its request hash so z cannot be
    # spliced onto another request.
    z_ct = sym_encrypt(aes_key, payload, request_hash, rng)
    resp = signed(CertificateResponse, state.private,
                  curve_id=params.curve_id, z_ct=z_ct,
                  request_hash=request_hash)
    return resp, replace(state,
                         request_hashes=state.request_hashes | {request_hash})


def ra_route_response(state: RaState, resp: CertificateResponse
                      ) -> tuple[str, RaState]:
    if not verify_signed(resp, state.ca_public):
        raise BadSignature("response not signed by the CA")
    ee_id = state.pending.get(resp.request_hash)
    if ee_id is None:
        raise UnknownRequestHash("no pending request matches this response")
    pending = dict(state.pending)
    del pending[resp.request_hash]
    return ee_id, replace(state, pending=pending)


def ee_process_response(state: EeState, resp: CertificateResponse,
                        now: int) -> EeState:
    if state.secrets is None:
        raise ProtocolStateError("no request pending for this EE")
    anon_cert, r_ca_bytes = _open(sym_decrypt, state.secrets.aes_key,
                                  resp.z_ct, Z_PAYLOAD, "z",
                                  resp.request_hash)
    r_ca = Scalar.from_bytes(r_ca_bytes, state.private.curve_id)
    temp_private = expand_private(state.private, state.secrets.r_ra)
    formal_private = expand_private(temp_private, r_ca)
    try:
        check_key_pair(formal_private, anon_cert.public_key)
    except ValueError:
        raise KeyMismatch(
            "formal private key does not match certificate key") from None
    if not verify_certificate(anon_cert, state.ca_public, now,
                              KIND_ANONYMOUS):
        raise BadCertificate("anonymous certificate does not verify")
    result = EeResult(anon_cert, temp_private, formal_private)
    return replace(state, secrets=None, result=result)


def sign_ballot(state: EeState, payload: bytes) -> Ballot:
    if state.result is None:
        raise NotFinalized("EE has no anonymous certificate yet")
    return signed(Ballot, state.result.formal_private,
                  payload=payload, anon_cert=state.result.anon_cert)


def verify_ballot(ballot: Ballot, ca_public: Point, now: int) -> bool:
    cert = ballot.anon_cert
    return (verify_certificate(cert, ca_public, now, KIND_ANONYMOUS)
            and verify_signed(ballot, cert.public_key))
