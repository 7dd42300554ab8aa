import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncert import actors, curve
from anoncert.actors import (
    CaState,
    EeState,
    MAX_BLINDING_RETRIES,
    RaState,
    REQUEST_HASH_KEY,
    ca_process_request,
    ee_create_request,
    ee_process_response,
    ra_process_request,
    ra_route_response,
    sign_ballot,
    verify_ballot,
)
from anoncert.certs import (
    KIND_ANONYMOUS,
    KIND_PREEXISTING,
    Z_PAYLOAD,
    Ballot,
    CertificateRequest,
    CertificateResponse,
    ForwardedRequest,
    decode,
    encode,
    issue_certificate,
    pack,
    signed,
    tbs_bytes,
)
from anoncert.curve import (
    BRAINPOOL_P256R1,
    SECP256R1,
    Point,
    Scalar,
    generate_keypair,
    get_curve,
    point_add,
    scalar_mul,
)
from anoncert.envelope import ecies_encrypt, sign, sym_encrypt
from anoncert.errors import (
    AlreadyServed,
    AnoncertError,
    BadCertificate,
    BadSignature,
    BlindingOutOfRange,
    DegenerateResult,
    DuplicateRequest,
    EnvelopeFailure,
    Ineligible,
    KeyMismatch,
    MalformedEncoding,
    NotFinalized,
    ProtocolStateError,
    UnknownCurve,
    UnknownRequestHash,
)
from anoncert.harness import _deliver
from anoncert.rng import DeterministicRng
from anoncert.vectors import PUBLISHED_VECTORS
from conftest import mutated, resigned, spy

NOW = 1_750_000_000
VALIDITY = (NOW - 10, NOW + 3600)

class Setup:
    def __init__(self, curve_id=BRAINPOOL_P256R1, seed=1, ee_keys_rng=None):
        self.params = get_curve(curve_id)
        rng = DeterministicRng(seed)
        self.ca_keys = generate_keypair(self.params, rng)
        self.ra_keys = generate_keypair(self.params, rng)
        self.identity = generate_keypair(self.params, rng)
        ee_keys = generate_keypair(self.params, ee_keys_rng or rng)
        cert = issue_certificate(self.identity.private, "IdentityRoot",
                                 "voter-0", ee_keys.public, VALIDITY,
                                 KIND_PREEXISTING, rng)
        self.ee = EeState(ee_keys.private, cert, self.ra_keys.public,
                          self.ca_keys.public)
        self.ra = RaState(self.ra_keys.private, self.ca_keys.public,
                          self.identity.public, frozenset({cert.serial}))
        self.ca = CaState(self.ca_keys.private, self.ra_keys.public, VALIDITY)
        self.rng = rng

    def run_flow(self, ee_rng=None, ca_rng=None, details=None):
        ee_rng = ee_rng or self.rng
        ca_rng = ca_rng or self.rng
        details = details or {"purpose": "vote", "election_id": "E1",
                              "name": "Jane Roe"}
        req, self.ee = ee_create_request(self.ee, details, ee_rng)
        fwd, self.ra = ra_process_request(self.ra, req, "voter-0", NOW)
        resp, self.ca = ca_process_request(self.ca, fwd, ca_rng)
        ee_id, self.ra = ra_route_response(self.ra, resp)
        self.ee = ee_process_response(self.ee, resp, NOW)
        return req, fwd, resp, ee_id


@pytest.mark.parametrize("curve_id", [BRAINPOOL_P256R1, SECP256R1])
def test_published_chain_end_to_end(curve_id, scripted_rng):
    chain = PUBLISHED_VECTORS[curve_id]
    params = get_curve(curve_id)
    setup = Setup(curve_id, ee_keys_rng=scripted_rng(
        [bytes.fromhex(chain.i)]))
    # blinding draws are the first 32-byte reads on each side; the published
    # brainpool r_RA exceeds n and is injected reduced, which leaves the
    # whole chain unchanged
    r_ra = int(chain.r_ra, 16) % params.n
    r_ca = int(chain.r_ca, 16) % params.n
    req, fwd, resp, _ = setup.run_flow(
        ee_rng=scripted_rng([r_ra.to_bytes(32, "big")]),
        ca_rng=scripted_rng([r_ca.to_bytes(32, "big")]),
    )
    result = setup.ee.result
    assert result.temporary_private.to_hex() == chain.j
    assert result.formal_private.to_hex() == chain.k
    assert fwd.temporary_public_key.to_hex() == "".join(chain.J)
    assert result.anon_cert.public_key.to_hex() == "".join(chain.K)
    assert scalar_mul(result.formal_private) == \
        result.anon_cert.public_key


class TestEeRequest:
    def test_request_verifies_under_original_key(self, drng):
        from anoncert.envelope import verify
        setup = Setup()
        req, ee = ee_create_request(setup.ee, {}, drng)
        assert verify(setup.ee.preexisting_cert.public_key, tbs_bytes(req),
                      req.signature)
        assert ee.secrets is not None

    def test_single_pending_request(self, drng):
        setup = Setup()
        _, ee = ee_create_request(setup.ee, {}, drng)
        with pytest.raises(ProtocolStateError):
            ee_create_request(ee, {}, drng)


class TestRaProcessing:
    def test_tampered_signature(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        bad = dataclasses.replace(
            req, signature=dataclasses.replace(
                req.signature,
                r=Scalar(setup.params.curve_id,
                         req.signature.r.value ^ 1)))
        with pytest.raises(BadSignature):
            ra_process_request(setup.ra, bad, "voter-0", NOW)

    def test_ineligible_serial(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        ra = dataclasses.replace(setup.ra, eligibility=frozenset())
        with pytest.raises(Ineligible):
            ra_process_request(ra, req, "voter-0", NOW)

    @pytest.mark.parametrize("forgery", ["foreign_root", "expired", "anonymous"])
    def test_preexisting_certificate_checked(self, drng, forgery):
        # a certificate for the attacker's key that copies an eligible
        # serial must not take that voter's credential
        setup = Setup()
        attacker = generate_keypair(setup.params, drng)
        root = (generate_keypair(setup.params, drng)
                if forgery == "foreign_root" else setup.identity)
        validity = (0, 1) if forgery == "expired" else VALIDITY
        kind = KIND_ANONYMOUS if forgery == "anonymous" else KIND_PREEXISTING
        cert = resigned(setup.ee.preexisting_cert, root.private,
                        public_key=attacker.public, not_before=validity[0],
                        not_after=validity[1], kind=kind)
        forged = dataclasses.replace(setup.ee, private=attacker.private,
                                     preexisting_cert=cert)
        req, _ = ee_create_request(forged, {}, drng)
        with pytest.raises(BadCertificate):
            ra_process_request(setup.ra, req, "mallory", NOW)
        setup.run_flow()
        assert setup.ee.result is not None

    def test_details_sanitized(self, drng):
        setup = Setup()
        req, _ = ee_create_request(
            setup.ee, {"name": "Jane Roe", "election_id": "E1", "phone": "555"},
            drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        assert set(fwd.details) == {"election_id", REQUEST_HASH_KEY}

    def test_forward_excludes_original_key_material(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {"name": "x"}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        blob = encode(fwd)
        assert setup.ee.preexisting_cert.public_key.to_bytes() not in blob
        assert setup.ee.preexisting_cert.serial not in blob

    def test_duplicate_request_rejected(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        _, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
        with pytest.raises(DuplicateRequest):
            ra_process_request(ra, req, "voter-0", NOW)

    def test_degenerate_blinding_rejected_to_ee(self, scripted_rng):
        setup = Setup()
        # r_RA = n - i makes J the identity, which the RA cannot fix
        r_ra = (setup.params.n - setup.ee.private.value)
        req, _ = ee_create_request(setup.ee, {},
                                   scripted_rng([r_ra.to_bytes(32, "big")]))
        with pytest.raises(DegenerateResult):
            ra_process_request(setup.ra, req, "voter-0", NOW)

    @pytest.mark.parametrize("recipient, plaintext, error, message", [
        ("ca", lambda n: (1).to_bytes(32, "big"), EnvelopeFailure,
         "could not open"),
        ("ra", lambda n: b"\x01" * 31, EnvelopeFailure,
         "r_RA envelope: truncated while reading r_ra"),
        ("ra", lambda n: bytes(32), BlindingOutOfRange, "outside"),
        ("ra", lambda n: n.to_bytes(32, "big"), BlindingOutOfRange,
         "outside"),
    ], ids=["sealed-to-ca", "31-bytes", "zero", "n"])
    def test_unusable_r_ra_envelope(self, drng, recipient, plaintext, error,
                                    message):
        # an EE-signed request whose r_RA envelope gives the RA no usable
        # r_RA; `expand_public` refuses one outside [1, n-1]
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        public = {"ca": setup.ca_keys.public,
                  "ra": setup.ra_keys.public}[recipient]
        r_ra_ct = ecies_encrypt(public, plaintext(setup.params.n), drng)
        forged = resigned(req, setup.ee.private, r_ra_ct=r_ra_ct)
        with pytest.raises(error, match=message):
            ra_process_request(setup.ra, forged, "voter-0", NOW)

    @pytest.mark.parametrize("r_ra", ["1", "n-1"])
    def test_blinding_at_its_bounds_accepted(self, scripted_rng, r_ra):
        # r_RA = 1 and r_RA = n - 1 are the ends of [1, n-1]: J = I + G and
        # J = I - G
        setup = Setup()
        params, I = setup.params, setup.ee.preexisting_cert.public_key
        minus_g = Point(params.curve_id, params.gx, params.p - params.gy)
        value, offset = {"1": (1, params.g),
                         "n-1": (params.n - 1, minus_g)}[r_ra]
        req, _ = ee_create_request(setup.ee, {},
                                   scripted_rng([value.to_bytes(32, "big")]))
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        assert fwd.temporary_public_key == point_add(I, offset)

    def test_unknown_curve_is_typed(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        cert = dataclasses.replace(req.preexisting_cert, curve_id="nope")
        wire = decode(encode(dataclasses.replace(req, preexisting_cert=cert)))
        with pytest.raises(UnknownCurve):
            ra_process_request(setup.ra, wire, "voter-0", NOW)

    def test_serial_pending_refused(self, drng):
        setup = Setup()
        first, _ = ee_create_request(setup.ee, {}, drng)
        second, _ = ee_create_request(setup.ee, {}, drng)
        assert encode(first) != encode(second)
        _, ra = ra_process_request(setup.ra, first, "voter-0", NOW)
        with pytest.raises(AlreadyServed):
            ra_process_request(ra, second, "voter-0", NOW)

    def test_serial_served_refused(self, drng):
        # one eligible identity, one anonymous credential
        setup = Setup()
        setup.run_flow()
        assert not setup.ra.pending
        req, _ = ee_create_request(setup.ee, {}, drng)
        with pytest.raises(AlreadyServed):
            ra_process_request(setup.ra, req, "voter-0", NOW)

    def test_pending_entry_stored(self, drng):
        from anoncert.envelope import digest
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        _, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
        assert digest(encode(req)) in ra.pending


class TestCaProcessing:
    def test_invalid_ra_signature(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        forged = dataclasses.replace(fwd, details={**fwd.details,
                                                   "extra": "field"})
        with pytest.raises(BadSignature):
            ca_process_request(setup.ca, forged, drng)

    @pytest.mark.parametrize("hash_hex", ["zz", "AB" * 31, "AB" * 33],
                             ids=["not-hex", "31-bytes", "33-bytes"])
    def test_malformed_request_hash(self, drng, hash_hex):
        # a request hash the RA signed but that is no 32-byte hex value
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        forged = resigned(fwd, setup.ra_keys.private,
                          details={**fwd.details, REQUEST_HASH_KEY: hash_hex})
        with pytest.raises(MalformedEncoding):
            ca_process_request(setup.ca, forged, drng)

    def test_missing_request_hash(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        details = dict(fwd.details)
        del details[REQUEST_HASH_KEY]
        forged = resigned(fwd, setup.ra_keys.private, details=details)
        with pytest.raises(ProtocolStateError):
            ca_process_request(setup.ca, forged, drng)

    @pytest.mark.parametrize("recipient, key_len, message", [
        ("ra", 32, "could not open"),
        ("ca", 16, "AES-key envelope: truncated while reading s"),
    ], ids=["sealed-to-ra", "16-byte-key"])
    def test_unusable_aes_key_envelope(self, drng, monkeypatch, recipient,
                                       key_len, message):
        # the CA refuses before it signs a certificate it could not send
        issued = spy(monkeypatch, actors, "issue_certificate")
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        public = {"ca": setup.ca_keys.public,
                  "ra": setup.ra_keys.public}[recipient]
        s_ct = ecies_encrypt(public, drng.read(key_len), drng)
        forged = resigned(fwd, setup.ra_keys.private, s_ct=s_ct)
        with pytest.raises(EnvelopeFailure, match=message):
            ca_process_request(setup.ca, forged, drng)
        assert issued == []

    def test_degenerate_blinding_redrawn(self, drng, monkeypatch):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        draws, expand = [], actors.expand_public

        def degenerate_once(P, r):
            draws.append(r)
            if len(draws) == 1:
                raise DegenerateResult("forced")
            return expand(P, r)

        monkeypatch.setattr(actors, "expand_public", degenerate_once)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        ee = ee_process_response(ee, resp, NOW)
        assert len(draws) == 2 and draws[0] != draws[1]
        assert ee.result.anon_cert.public_key == \
            expand(fwd.temporary_public_key, draws[1])

    def test_degenerate_blinding_gives_up(self, drng, monkeypatch):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        draws = []

        def degenerate(P, r):
            draws.append(r)
            raise DegenerateResult("forced")

        monkeypatch.setattr(actors, "expand_public", degenerate)
        with pytest.raises(DegenerateResult, match="giving up"):
            ca_process_request(setup.ca, fwd, drng)
        assert len(draws) == MAX_BLINDING_RETRIES

    def test_replayed_request_refused(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        _, ca = ca_process_request(setup.ca, fwd, drng)
        with pytest.raises(DuplicateRequest):
            ca_process_request(ca, fwd, drng)

    def test_z_only_opens_under_s(self, drng):
        from anoncert.envelope import sym_decrypt
        from anoncert.errors import AuthenticationFailure
        setup = Setup()
        req, ee = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        opened = sym_decrypt(ee.secrets.aes_key, resp.z_ct, resp.request_hash)
        assert len(opened) > 36
        with pytest.raises(AuthenticationFailure):
            sym_decrypt(drng.read(32), resp.z_ct,
                        resp.request_hash)


class TestRouting:
    def test_route_and_clear(self, drng):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, {}, drng)
        fwd, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        ee_id, ra = ra_route_response(ra, resp)
        assert ee_id == "voter-0"
        assert not ra.pending
        with pytest.raises(UnknownRequestHash):
            ra_route_response(ra, resp)

    def test_unknown_hash(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        with pytest.raises(UnknownRequestHash):
            ra_route_response(dataclasses.replace(setup.ra), resp)

    def test_stranger_signed_response_keeps_pending(self, drng):
        # a response naming the pending hash but not signed by the CA must
        # not drop the pending EE id, or the CA's genuine response finds
        # no entry
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        stranger = generate_keypair(setup.params, drng)
        forged = resigned(resp, stranger.private)
        with pytest.raises(BadSignature):
            ra_route_response(ra, forged)
        assert ra.pending.keys() == {resp.request_hash}
        ee_id, ra = ra_route_response(ra, resp)
        assert ee_id == "voter-0"
        assert not ra.pending


class TestEeFinalization:
    def test_requires_pending_secrets(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        with pytest.raises(ProtocolStateError):
            ee_process_response(setup.ee, resp, NOW)

    def test_stranger_signed_response_keeps_secrets(self, drng):
        # the EE does not check the response's signature: a stranger's
        # signature over the CA's own z_ct finalizes with the CA's
        # certificate, and a stranger's z_ct, which does not open under s,
        # is refused and leaves the EE able to finalize with the CA's own
        setup = Setup()
        req, ee = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        stranger = generate_keypair(setup.params, drng)
        done = ee_process_response(ee, resigned(resp, stranger.private), NOW)
        assert done == ee_process_response(ee, resp, NOW)
        # the stranger's own certificate on the EE's J, sealed under a key
        # of its own with the right request hash as AAD
        stranger_cert = issue_certificate(
            stranger.private, "CA", "", fwd.temporary_public_key, VALIDITY,
            KIND_ANONYMOUS, drng)
        payload = pack(Z_PAYLOAD, (stranger_cert, bytes(31) + b"\x01"))
        z_ct = sym_encrypt(drng.read(32), payload, resp.request_hash, drng)
        forged = dataclasses.replace(resp, z_ct=z_ct, signature=None)
        with pytest.raises(EnvelopeFailure):
            ee_process_response(ee, forged, NOW)
        done = ee_process_response(ee, resp, NOW)
        assert done.result is not None

    def test_wrong_private_expansion_is_key_mismatch(self, monkeypatch):
        n = get_curve(BRAINPOOL_P256R1).n

        def skewed(x, r):
            return Scalar(x.curve_id, (x.value + r.value + 1) % n)

        monkeypatch.setattr(actors, "expand_private", skewed)
        setup = Setup()
        with pytest.raises(KeyMismatch):
            setup.run_flow()

    @pytest.mark.parametrize("curve_id", [BRAINPOOL_P256R1, SECP256R1])
    @pytest.mark.parametrize("case", ["other", "off_curve", "x+p", "identity",
                                      "other_curve"])
    def test_certificate_key_not_k_g_is_key_mismatch(self, monkeypatch,
                                                     curve_id, case):
        # the EE builds k's key from (k, K): OpenSSL's pair check refuses
        # a K that is not k*G, and `Point.openssl_key` one that is no
        # public key, such as (x + p, y), which OpenSSL alone would take
        # for (x, y) on brainpoolP256r1
        # (r_RA and s are read through `unpack` too, and left alone)
        params = get_curve(curve_id)
        other = ({BRAINPOOL_P256R1, SECP256R1} - {curve_id}).pop()

        def swap_key(values, fields, data):
            if fields is not Z_PAYLOAD:
                return None
            cert, r_ca = values
            K = cert.public_key
            K = {"other": params.g,
                 "off_curve": Point(curve_id, K.x, (K.y + 1) % params.p),
                 "x+p": Point(curve_id, K.x + params.p, K.y),
                 "identity": Point.infinity(curve_id),
                 "other_curve": Point(other, K.x, K.y)}[case]
            return dataclasses.replace(cert, public_key=K), r_ca

        spy(monkeypatch, actors, "unpack", swap_key)
        setup = Setup(curve_id)
        with pytest.raises(KeyMismatch):
            setup.run_flow()

    def test_wrong_aes_key_is_envelope_failure(self, drng):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        other_key = dataclasses.replace(
            ee, secrets=dataclasses.replace(
                ee.secrets, aes_key=drng.read(32)))
        with pytest.raises(EnvelopeFailure):
            ee_process_response(other_key, resp, NOW)

    @pytest.mark.parametrize("mangle, message", [
        ("truncated", "truncated while reading r_ca"),
        ("trailing", "1 trailing bytes"),
        ("ballot", "anon_cert has unexpected type tag 0x0005"),
    ], ids=["truncated", "trailing", "ballot"])
    def test_malformed_z_payload_is_envelope_failure(self, drng, mangle,
                                                     message):
        # a CA-signed response whose z opens under the EE's key but does
        # not hold exactly a certificate and a 32-byte r_CA
        setup = Setup()
        req, ee = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        cert = ee.preexisting_cert
        payload = pack(Z_PAYLOAD, (cert, drng.read(32)))
        if mangle == "truncated":
            payload = payload[:-1]
        elif mangle == "trailing":
            payload += b"\x00"
        else:
            ballot = encode(Ballot(b"alice", cert, cert.issuer_signature))
            payload = (len(ballot).to_bytes(4, "big") + ballot
                       + payload[-32:])
        z_ct = sym_encrypt(ee.secrets.aes_key, payload, resp.request_hash,
                           drng)
        forged = resigned(resp, setup.ca_keys.private, z_ct=z_ct)
        with pytest.raises(EnvelopeFailure, match=f"z envelope: {message}"):
            ee_process_response(ee, forged, NOW)

    def test_preexisting_kind_certificate_refused(self, monkeypatch):
        # a CA that certifies K as `preexisting` gives a credential that
        # verify_ballot refuses, so finalizing must refuse it too
        issue = actors.issue_certificate

        def spy(*args):
            *head, kind, rng = args
            assert kind == KIND_ANONYMOUS
            return issue(*head, KIND_PREEXISTING, rng)

        monkeypatch.setattr(actors, "issue_certificate", spy)
        setup = Setup()
        with pytest.raises(BadCertificate):
            setup.run_flow()

    def test_secrets_cleared_after_success(self):
        setup = Setup()
        setup.run_flow()
        assert setup.ee.secrets is None
        assert setup.ee.result is not None

    def test_expansion_consistency(self):
        setup = Setup()
        setup.run_flow()
        result = setup.ee.result
        params = setup.params
        assert scalar_mul(result.formal_private) == \
            result.anon_cert.public_key


class TestShortCiphertexts:
    # a ciphertext too short to hold its parts decodes, as an opaque
    # field, and the actor that opens it refuses it, naming the envelope
    def test_short_r_ra_ct_refused_by_ra(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        short = resigned(req, setup.ee.private, r_ra_ct=b"\x00" * 10)
        with pytest.raises(EnvelopeFailure, match="r_RA envelope") as info:
            ra_process_request(setup.ra, decode(encode(short)), "voter-0",
                               NOW)
        assert isinstance(info.value.__cause__, MalformedEncoding)

    def test_short_s_ct_refused_by_ca(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        short = resigned(fwd, setup.ra_keys.private, s_ct=fwd.s_ct[:64 + 15])
        with pytest.raises(EnvelopeFailure, match="AES-key envelope") as info:
            ca_process_request(setup.ca, decode(encode(short)), drng)
        assert isinstance(info.value.__cause__, MalformedEncoding)

    def test_short_z_ct_refused_by_ee(self, drng):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, drng)
        short = resigned(resp, setup.ca_keys.private, z_ct=b"\x00" * 5)
        with pytest.raises(EnvelopeFailure, match="z envelope") as info:
            ee_process_response(ee, decode(encode(short)), NOW)
        assert isinstance(info.value.__cause__, MalformedEncoding)


@functools.lru_cache(maxsize=None)
def _hops():
    """The four encoded hops of a seeded one-voter secp256r1 flow, each
    with the class its receiver accepts, its sender's signing key and a
    call that hands a message to its receiver in the state the receiver
    was in when that hop arrived."""
    setup = Setup(SECP256R1)
    ee_key, ra_key = setup.ee.private, setup.ra_keys.private
    ca_key = setup.ca_keys.private
    req, ee = ee_create_request(setup.ee, {"election_id": "E1"}, setup.rng)
    fwd, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
    resp, _ = ca_process_request(setup.ca, fwd, setup.rng)
    return (
        (encode(req), CertificateRequest, ee_key, lambda m: ra_process_request(
            setup.ra, m, "voter-0", NOW)),
        (encode(fwd), ForwardedRequest, ra_key, lambda m: ca_process_request(
            setup.ca, m, DeterministicRng(b"ca"))),
        (encode(resp), CertificateResponse, ca_key,
         lambda m: ra_route_response(ra, m)),
        (encode(resp), CertificateResponse, ca_key,
         lambda m: ee_process_response(ee, m, NOW)),
    )


@given(hop=st.integers(0, 3), resign=st.booleans(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_hop_fails_typed(hop, resign, data):
    # a truncated, flipped or extended hop that still decodes as the class
    # its receiver accepts reaches that receiver, which returns or raises
    # an AnoncertError, nothing else; signed again by its sender, a
    # mutation gets past the signature check to the envelopes and the
    # fields behind it
    blob, cls, sender_key, receive = _hops()[hop]
    try:
        msg = decode(data.draw(mutated(blob)), cls)
    except MalformedEncoding:
        return
    if resign:
        msg = resigned(msg, sender_key)
    try:
        receive(msg)
    except AnoncertError:
        pass


class TestMessageOfAnotherClass:
    # well-formed bytes of another message type are refused where they are
    # read, with MalformedEncoding, so no step is handed them: a step that
    # read another class's fields would raise AttributeError
    @pytest.fixture(scope="class")
    def flow(self):
        setup = Setup(SECP256R1)
        req, *_ = setup.run_flow()
        return req, sign_ballot(setup.ee, b"alice")

    def test_ballot_refused_at_the_ra_hop(self, flow):
        _, ballot = flow
        with pytest.raises(MalformedEncoding, match="type tag 0x0005"):
            _deliver([], "EE", "RA", ballot, CertificateRequest)

    def test_request_refused_at_the_ca_hop(self, flow):
        req, _ = flow
        with pytest.raises(MalformedEncoding, match="type tag 0x0002"):
            _deliver([], "RA", "CA", req, ForwardedRequest)

    def test_request_refused_as_a_ballot(self, flow):
        req, _ = flow
        with pytest.raises(MalformedEncoding, match="type tag 0x0002"):
            decode(encode(req), Ballot)


class TestBallots:
    def test_sign_and_verify(self):
        setup = Setup()
        setup.run_flow()
        ballot = sign_ballot(setup.ee, b"alice")
        assert verify_ballot(ballot, setup.ca_keys.public, NOW)

    def test_not_finalized(self):
        setup = Setup()
        with pytest.raises(NotFinalized):
            sign_ballot(setup.ee, b"alice")

    def test_tampered_payload(self):
        setup = Setup()
        setup.run_flow()
        ballot = sign_ballot(setup.ee, b"alice")
        forged = dataclasses.replace(ballot, payload=b"blice")
        assert not verify_ballot(forged, setup.ca_keys.public, NOW)

    def test_original_key_cannot_sign(self):
        setup = Setup()
        setup.run_flow()
        unsigned = Ballot(b"alice", setup.ee.result.anon_cert, None)
        sig = sign(setup.ee.private, tbs_bytes(unsigned))
        forged = dataclasses.replace(unsigned, signature=sig)
        assert not verify_ballot(forged, setup.ca_keys.public, NOW)

    def test_preexisting_cert_cannot_carry_ballot(self):
        setup = Setup()
        setup.run_flow()
        unsigned = Ballot(b"alice", setup.ee.preexisting_cert, None)
        sig = sign(setup.ee.private, tbs_bytes(unsigned))
        forged = dataclasses.replace(unsigned, signature=sig)
        assert not verify_ballot(forged, setup.ca_keys.public, NOW)

    def test_box_keeps_only_the_ca_comb_table(self, monkeypatch):
        # a tally meets each ballot's K once, so K's `_mul` walks a
        # throwaway table; only the CA key, reused by every ballot,
        # builds a kept one
        params = get_curve(SECP256R1)
        rng = DeterministicRng(3)
        ca = generate_keypair(params, rng)
        box = []
        for i in range(200):
            voter = generate_keypair(params, rng)
            cert = issue_certificate(ca.private, "CA", "", voter.public,
                                     VALIDITY, KIND_ANONYMOUS, rng)
            box.append(encode(signed(Ballot, voter.private,
                                     payload=b"ballot %d" % i,
                                     anon_cert=cert)))
        builds = spy(monkeypatch, curve, "_build_comb")
        verdicts = [verify_ballot(decode(b, Ballot), ca.public, NOW)
                    for b in box]
        assert all(verdicts)
        kept = [P for P, teeth in builds if teeth == curve.COMB_TEETH]
        assert len(kept) == 1 and kept[0] is ca.public

    def test_expired_cert_fails(self):
        setup = Setup()
        setup.run_flow()
        ballot = sign_ballot(setup.ee, b"alice")
        assert not verify_ballot(ballot, setup.ca_keys.public,
                                 VALIDITY[1] + 10)
