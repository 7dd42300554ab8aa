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
    Certificate,
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
from anoncert.curve import BRAINPOOL_P256R1, SECP256R1, Scalar, get_curve, generate_keypair, scalar_mul
from anoncert.envelope import ecies_encrypt, sign, sym_encrypt
from anoncert.errors import (
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
    UnknownCurve,
    UnknownRequestHash,
)
from anoncert.harness import _deliver
from anoncert.rng import DeterministicRng
from conftest import mutated

NOW = 1_750_000_000
VALIDITY = (NOW - 10, NOW + 3600)

CHAINS = {
    BRAINPOOL_P256R1: {
        "i": "5D98BD1F7985FC560A8963D6709AAC8B01017D02FB14B12CEF168C9662056874",
        "r_ra": "F407A78C2CFC8586AC1BA3199F7CBEF34F138894586B5992B61BB8B5A99C5EE7",
        "r_ca": "474B007D2533DF88376824D4F784129F7BD7B01F1B3C7E69826912D4121A12DF",
        "j": "A7A50CD00493D820783EFC5F7293DE0CC3DB8AF39E1E63C8151436C9745970B4",
        "k": "44F4B57187D90DEC714116A3CC94633AB379C06F03F93B3A075F3B1AEF2B2CEC",
        "J": ("6814044C70048578E6B120480CBA0B81186054403CAE4C67F688F4074AEDF39B",
              "4969EBCD7400997FBEAF31481DBA738253052A2FF119FE178CF596EFA7AAE156"),
        "K": ("80C6DE97A41127BAAFBC4F36E4E514514086A3E4B0F86F9729C52A8767616BF3",
              "5E333A1B7AC00E2C126C48C343A1A314D2853D4FBD559B9453C434C8C1CDE396"),
    },
    SECP256R1: {
        "i": "5D98BD1F7985FC560A8963D6709AAC8B01017D02FB14B12CEF168C9662056874",
        "r_ra": "F649BE0670CD1C8325BF4EE06963C680E25140702DBCBAAA3D59B30D6CF3C727",
        "r_ca": "A1754E3C913F9C98B1147DD142E66A3CBE59DD5B53B721C39B0A73BCE4EB1B32",
        "j": "53E27B26EA5318D83048B2B6D9FE730C266BC2C581B9CD5238B674E0D2960A4A",
        "k": "F557C9637B92B570E15D30881CE4DD48E4C5A020D570EF15D3C0E89DB781257C",
        "J": ("78BF0F472CD984F8EA7A756A514118652B88224DD344D5D593E03F2AFBCC6FC6",
              "A4C43CFFC945A1576B290EC63DB8FB31C74EF44F02963C67EB884E025B1A442E"),
        "K": ("6FDFDCE25F876BD4B23FBFBFC9E49872944F01926989B5A72A1FD84125FEB428",
              "8A108A7CBA97CF26FB9768A7599473F5F9AA27CD462280F41FCAC13FF1BA42E3"),
    },
}


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
        self.ee = EeState(ee_keys.private, cert)
        self.ra = RaState(self.ra_keys.private, self.ca_keys.public,
                          self.identity.public, frozenset({cert.serial}))
        self.ca = CaState(self.ca_keys.private, self.ra_keys.public)
        self.rng = rng

    def run_flow(self, ee_rng=None, ca_rng=None, details=None):
        ee_rng = ee_rng or self.rng
        ca_rng = ca_rng or self.rng
        details = details or {"purpose": "vote", "election_id": "E1",
                              "name": "Jane Roe"}
        req, self.ee = ee_create_request(self.ee, self.ra_keys.public,
                                         self.ca_keys.public, details, ee_rng)
        fwd, self.ra = ra_process_request(self.ra, req, "voter-0", NOW)
        resp, self.ca = ca_process_request(self.ca, fwd, VALIDITY, ca_rng)
        ee_id, self.ra = ra_route_response(self.ra, resp)
        self.ee = ee_process_response(self.ee, resp, self.ca_keys.public, NOW)
        return req, fwd, resp, ee_id


def ra_signed(setup, fwd, **changes):
    """`fwd` with `changes`, signed again by the trusted RA."""
    fields = dict(curve_id=fwd.curve_id,
                  temporary_public_key=fwd.temporary_public_key,
                  s_ct=fwd.s_ct, details=fwd.details)
    return signed(ForwardedRequest, setup.ra_keys.private,
                  **{**fields, **changes})


@pytest.mark.parametrize("curve_id", [BRAINPOOL_P256R1, SECP256R1])
def test_published_chain_end_to_end(curve_id, scripted_rng):
    chain = CHAINS[curve_id]
    params = get_curve(curve_id)
    setup = Setup(curve_id, ee_keys_rng=scripted_rng(
        [bytes.fromhex(chain["i"])]))
    # blinding draws are the first 32-byte reads on each side; the published
    # brainpool r_RA exceeds n and is injected reduced, which leaves the
    # whole chain unchanged
    r_ra = int(chain["r_ra"], 16) % params.n
    r_ca = int(chain["r_ca"], 16) % params.n
    req, fwd, resp, _ = setup.run_flow(
        ee_rng=scripted_rng([r_ra.to_bytes(32, "big")]),
        ca_rng=scripted_rng([r_ca.to_bytes(32, "big")]),
    )
    result = setup.ee.result
    assert result.temporary_private.to_hex() == chain["j"]
    assert result.formal_private.to_hex() == chain["k"]
    assert fwd.temporary_public_key.to_hex() == "".join(chain["J"])
    assert result.anon_cert.public_key.to_hex() == "".join(chain["K"])
    assert scalar_mul(result.formal_private) == \
        result.anon_cert.public_key


class TestEeRequest:
    def test_request_verifies_under_original_key(self, drng):
        from anoncert.certs import request_tbs_bytes
        from anoncert.envelope import verify
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        assert verify(setup.ee.preexisting_cert.public_key, request_tbs_bytes(req),
                      req.signature)
        assert ee.secrets is not None

    def test_single_pending_request(self, drng):
        setup = Setup()
        _, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                  setup.ca_keys.public, {}, drng)
        with pytest.raises(ProtocolStateError):
            ee_create_request(ee, setup.ra_keys.public, setup.ca_keys.public,
                              {}, drng)


class TestRaProcessing:
    def test_tampered_signature(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        bad = dataclasses.replace(
            req, signature=dataclasses.replace(
                req.signature,
                r=Scalar(setup.params.curve_id,
                         req.signature.r.value ^ 1)))
        with pytest.raises(BadSignature):
            ra_process_request(setup.ra, bad, "voter-0", NOW)

    def test_ineligible_serial(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
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
        cert = signed(Certificate, root.private,
                      serial=setup.ee.preexisting_cert.serial, subject="",
                      issuer="IdentityRoot", curve_id=setup.params.curve_id,
                      public_key=attacker.public, not_before=validity[0],
                      not_after=validity[1], kind=kind)
        forged = EeState(attacker.private, cert)
        req, _ = ee_create_request(forged, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        with pytest.raises(BadCertificate):
            ra_process_request(setup.ra, req, "mallory", NOW)
        setup.run_flow()
        assert setup.ee.result is not None

    def test_details_sanitized(self, drng):
        setup = Setup()
        req, _ = ee_create_request(
            setup.ee, setup.ra_keys.public, setup.ca_keys.public,
            {"name": "Jane Roe", "election_id": "E1", "phone": "555"}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        assert set(fwd.details) == {"election_id", REQUEST_HASH_KEY}

    def test_forward_excludes_original_key_material(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {"name": "x"}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        blob = encode(fwd)
        assert setup.ee.preexisting_cert.public_key.to_bytes() not in blob
        assert setup.ee.preexisting_cert.serial not in blob

    def test_duplicate_request_rejected(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        _, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
        with pytest.raises(DuplicateRequest):
            ra_process_request(ra, req, "voter-0", NOW)

    def test_degenerate_blinding_rejected_to_ee(self, scripted_rng):
        setup = Setup()
        # r_RA = n - i makes J the identity, which the RA cannot fix
        r_ra = (setup.params.n - setup.ee.private.value)
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {},
                                   scripted_rng([r_ra.to_bytes(32, "big")]))
        with pytest.raises(DegenerateResult):
            ra_process_request(setup.ra, req, "voter-0", NOW)

    @pytest.mark.parametrize("recipient, plaintext, message", [
        ("ca", lambda n: (1).to_bytes(32, "big"), "could not open"),
        ("ra", lambda n: b"\x01" * 31, "32-byte"),
        ("ra", lambda n: bytes(32), "outside"),
        ("ra", lambda n: n.to_bytes(32, "big"), "outside"),
    ], ids=["sealed-to-ca", "31-bytes", "zero", "n"])
    def test_unusable_r_ra_envelope(self, drng, recipient, plaintext,
                                    message):
        # an EE-signed request whose r_RA envelope gives the RA no r_RA
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        public = {"ca": setup.ca_keys.public,
                  "ra": setup.ra_keys.public}[recipient]
        r_ra_ct = ecies_encrypt(public, plaintext(setup.params.n), drng)
        forged = signed(CertificateRequest, setup.ee.private,
                        preexisting_cert=req.preexisting_cert,
                        r_ra_ct=r_ra_ct, s_ct=req.s_ct, details=req.details)
        with pytest.raises(EnvelopeFailure, match=message):
            ra_process_request(setup.ra, forged, "voter-0", NOW)

    def test_unknown_curve_is_typed(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        cert = dataclasses.replace(req.preexisting_cert, curve_id="nope")
        wire = decode(encode(dataclasses.replace(req, preexisting_cert=cert)))
        with pytest.raises(UnknownCurve):
            ra_process_request(setup.ra, wire, "voter-0", NOW)

    def test_serial_pending_refused(self, drng):
        setup = Setup()
        first, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                     setup.ca_keys.public, {}, drng)
        second, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                      setup.ca_keys.public, {}, drng)
        assert encode(first) != encode(second)
        _, ra = ra_process_request(setup.ra, first, "voter-0", NOW)
        with pytest.raises(AlreadyServed):
            ra_process_request(ra, second, "voter-0", NOW)

    def test_serial_served_refused(self, drng):
        # one eligible identity, one anonymous credential
        setup = Setup()
        setup.run_flow()
        assert not setup.ra.pending
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        with pytest.raises(AlreadyServed):
            ra_process_request(setup.ra, req, "voter-0", NOW)

    def test_pending_entry_stored(self, drng):
        from anoncert.envelope import digest
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        _, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
        assert digest(encode(req)) in ra.pending


class TestCaProcessing:
    def test_invalid_ra_signature(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        forged = dataclasses.replace(fwd, details={**fwd.details,
                                                   "extra": "field"})
        with pytest.raises(BadSignature):
            ca_process_request(setup.ca, forged, VALIDITY, drng)

    @pytest.mark.parametrize("hash_hex", ["zz", "AB" * 31, "AB" * 33],
                             ids=["not-hex", "31-bytes", "33-bytes"])
    def test_malformed_request_hash(self, drng, hash_hex):
        # a request hash the RA signed but that is no 32-byte hex value
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        forged = ra_signed(setup, fwd,
                           details={**fwd.details, REQUEST_HASH_KEY: hash_hex})
        with pytest.raises(MalformedEncoding):
            ca_process_request(setup.ca, forged, VALIDITY, drng)

    def test_missing_request_hash(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        details = dict(fwd.details)
        del details[REQUEST_HASH_KEY]
        with pytest.raises(ProtocolStateError):
            ca_process_request(setup.ca, ra_signed(setup, fwd, details=details),
                               VALIDITY, drng)

    @pytest.mark.parametrize("recipient, key_len, message", [
        ("ra", 32, "could not open"),
        ("ca", 16, "not 32 bytes"),
    ], ids=["sealed-to-ra", "16-byte-key"])
    def test_unusable_aes_key_envelope(self, drng, monkeypatch, recipient,
                                       key_len, message):
        # the CA refuses before it signs a certificate it could not send
        issued, issue = [], actors.issue_certificate

        def spy(*args):
            issued.append(args)
            return issue(*args)

        monkeypatch.setattr(actors, "issue_certificate", spy)
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        public = {"ca": setup.ca_keys.public,
                  "ra": setup.ra_keys.public}[recipient]
        s_ct = ecies_encrypt(public, drng.read(key_len), drng)
        with pytest.raises(EnvelopeFailure, match=message):
            ca_process_request(setup.ca, ra_signed(setup, fwd, s_ct=s_ct),
                               VALIDITY, drng)
        assert issued == []

    def test_degenerate_blinding_redrawn(self, drng, monkeypatch):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        draws, expand = [], actors.expand_public

        def degenerate_once(P, r):
            draws.append(r)
            if len(draws) == 1:
                raise DegenerateResult("forced")
            return expand(P, r)

        monkeypatch.setattr(actors, "expand_public", degenerate_once)
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        ee = ee_process_response(ee, resp, setup.ca_keys.public, NOW)
        assert len(draws) == 2 and draws[0] != draws[1]
        assert ee.result.anon_cert.public_key == \
            expand(fwd.temporary_public_key, draws[1])

    def test_degenerate_blinding_gives_up(self, drng, monkeypatch):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        draws = []

        def degenerate(P, r):
            draws.append(r)
            raise DegenerateResult("forced")

        monkeypatch.setattr(actors, "expand_public", degenerate)
        with pytest.raises(DegenerateResult, match="giving up"):
            ca_process_request(setup.ca, fwd, VALIDITY, drng)
        assert len(draws) == MAX_BLINDING_RETRIES

    def test_replayed_request_refused(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        _, ca = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        with pytest.raises(DuplicateRequest):
            ca_process_request(ca, fwd, VALIDITY, drng)

    def test_z_only_opens_under_s(self, drng):
        from anoncert.envelope import sym_decrypt
        from anoncert.errors import AuthenticationFailure
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        opened = sym_decrypt(ee.secrets.aes_key, resp.z_ct, resp.request_hash)
        assert len(opened) > 36
        with pytest.raises(AuthenticationFailure):
            sym_decrypt(drng.read(32), resp.z_ct,
                        resp.request_hash)


class TestRouting:
    def test_route_and_clear(self, drng):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        fwd, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        ee_id, ra = ra_route_response(ra, resp)
        assert ee_id == "voter-0"
        assert not ra.pending
        with pytest.raises(UnknownRequestHash):
            ra_route_response(ra, resp)

    def test_unknown_hash(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        with pytest.raises(UnknownRequestHash):
            ra_route_response(dataclasses.replace(setup.ra), resp)

    def test_stranger_signed_response_keeps_pending(self, drng):
        # a response naming the pending hash but not signed by the CA must
        # not drop the pending EE id, or the CA's genuine response finds
        # no entry
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        stranger = generate_keypair(setup.params, drng)
        forged = signed(CertificateResponse, stranger.private,
                        curve_id=resp.curve_id, z_ct=resp.z_ct,
                        request_hash=resp.request_hash)
        with pytest.raises(BadSignature):
            ra_route_response(ra, forged)
        assert ra.pending.keys() == {resp.request_hash}
        ee_id, ra = ra_route_response(ra, resp)
        assert ee_id == "voter-0"
        assert not ra.pending


class TestEeFinalization:
    def test_requires_pending_secrets(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        with pytest.raises(ProtocolStateError):
            ee_process_response(setup.ee, resp, setup.ca_keys.public, NOW)

    def test_stranger_signed_response_keeps_secrets(self, drng):
        # the EE refuses a response the CA did not sign and can still
        # finalize with the CA's own
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        stranger = generate_keypair(setup.params, drng)
        forged = signed(CertificateResponse, stranger.private,
                        curve_id=resp.curve_id, z_ct=resp.z_ct,
                        request_hash=resp.request_hash)
        with pytest.raises(BadSignature):
            ee_process_response(ee, forged, setup.ca_keys.public, NOW)
        done = ee_process_response(ee, resp, setup.ca_keys.public, NOW)
        assert done.result is not None

    def test_wrong_private_expansion_is_key_mismatch(self, monkeypatch):
        n = get_curve(BRAINPOOL_P256R1).n

        def skewed(x, r):
            return Scalar(x.curve_id, (x.value + r.value + 1) % n)

        monkeypatch.setattr(actors, "expand_private", skewed)
        setup = Setup()
        with pytest.raises(KeyMismatch):
            setup.run_flow()

    def test_wrong_aes_key_is_envelope_failure(self, drng):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        other_key = dataclasses.replace(
            ee, secrets=dataclasses.replace(
                ee.secrets, aes_key=drng.read(32)))
        with pytest.raises(EnvelopeFailure):
            ee_process_response(other_key, resp, setup.ca_keys.public, NOW)

    @pytest.mark.parametrize("mangle", ["truncated", "trailing", "ballot"])
    def test_malformed_z_payload_is_envelope_failure(self, drng, mangle):
        # a CA-signed response whose z opens under the EE's key but does
        # not hold exactly a certificate and a 32-byte r_CA
        setup = Setup()
        _, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                  setup.ca_keys.public, {}, drng)
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
        request_hash = drng.read(32)
        z_ct = sym_encrypt(ee.secrets.aes_key, payload, request_hash, drng)
        resp = signed(CertificateResponse, setup.ca_keys.private,
                      curve_id=setup.params.curve_id, z_ct=z_ct,
                      request_hash=request_hash)
        with pytest.raises(EnvelopeFailure, match="z payload"):
            ee_process_response(ee, resp, setup.ca_keys.public, NOW)

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
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        short = signed(CertificateRequest, setup.ee.private,
                       preexisting_cert=req.preexisting_cert,
                       r_ra_ct=b"\x00" * 10, s_ct=req.s_ct,
                       details=req.details)
        with pytest.raises(EnvelopeFailure, match="r_RA envelope") as info:
            ra_process_request(setup.ra, decode(encode(short)), "voter-0",
                               NOW)
        assert isinstance(info.value.__cause__, MalformedEncoding)

    def test_short_s_ct_refused_by_ca(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0", NOW)
        short = ra_signed(setup, fwd, s_ct=fwd.s_ct[:64 + 15])
        with pytest.raises(EnvelopeFailure, match="AES-key envelope") as info:
            ca_process_request(setup.ca, decode(encode(short)), VALIDITY,
                               drng)
        assert isinstance(info.value.__cause__, MalformedEncoding)

    def test_short_z_ct_refused_by_ee(self, drng):
        setup = Setup()
        _, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                  setup.ca_keys.public, {}, drng)
        short = signed(CertificateResponse, setup.ca_keys.private,
                       curve_id=setup.params.curve_id, z_ct=b"\x00" * 5,
                       request_hash=drng.read(32))
        with pytest.raises(EnvelopeFailure, match="z envelope") as info:
            ee_process_response(ee, decode(encode(short)),
                                setup.ca_keys.public, NOW)
        assert isinstance(info.value.__cause__, MalformedEncoding)


@functools.lru_cache(maxsize=None)
def _hops():
    """The four encoded hops of a seeded one-voter secp256r1 flow, each
    with the class its receiver accepts, its sender's signing key and a
    call that hands a message to its receiver in the state the receiver
    was in when that hop arrived."""
    setup = Setup(SECP256R1)
    ee_key, ra_key = setup.ee.private, setup.ra_keys.private
    ca_key, ca_public = setup.ca_keys.private, setup.ca_keys.public
    req, ee = ee_create_request(setup.ee, setup.ra_keys.public, ca_public,
                                {"election_id": "E1"}, setup.rng)
    fwd, ra = ra_process_request(setup.ra, req, "voter-0", NOW)
    resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, setup.rng)
    return (
        (encode(req), CertificateRequest, ee_key, lambda m: ra_process_request(
            setup.ra, m, "voter-0", NOW)),
        (encode(fwd), ForwardedRequest, ra_key, lambda m: ca_process_request(
            setup.ca, m, VALIDITY, DeterministicRng(b"ca"))),
        (encode(resp), CertificateResponse, ca_key,
         lambda m: ra_route_response(ra, m)),
        (encode(resp), CertificateResponse, ca_key,
         lambda m: ee_process_response(ee, m, ca_public, NOW)),
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
        msg = dataclasses.replace(msg,
                                  signature=sign(sender_key, tbs_bytes(msg)))
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
        from anoncert.certs import ballot_tbs_bytes, Ballot
        from anoncert.envelope import sign as ecdsa_sign
        setup = Setup()
        setup.run_flow()
        unsigned = Ballot(b"alice", setup.ee.result.anon_cert, None)
        sig = ecdsa_sign(setup.ee.private,
                         ballot_tbs_bytes(unsigned))
        forged = dataclasses.replace(unsigned, signature=sig)
        assert not verify_ballot(forged, setup.ca_keys.public, NOW)

    def test_preexisting_cert_cannot_carry_ballot(self):
        from anoncert.certs import ballot_tbs_bytes, Ballot
        from anoncert.envelope import sign as ecdsa_sign
        setup = Setup()
        setup.run_flow()
        unsigned = Ballot(b"alice", setup.ee.preexisting_cert, None)
        sig = ecdsa_sign(setup.ee.private,
                         ballot_tbs_bytes(unsigned))
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
        kept = []
        build = curve._build_comb

        def spy(P, teeth):
            if teeth == curve.COMB_TEETH:
                kept.append(P)
            return build(P, teeth)

        monkeypatch.setattr(curve, "_build_comb", spy)
        verdicts = [verify_ballot(decode(b, Ballot), ca.public, NOW)
                    for b in box]
        assert all(verdicts)
        assert len(kept) == 1 and kept[0] is ca.public

    def test_expired_cert_fails(self):
        setup = Setup()
        setup.run_flow()
        ballot = sign_ballot(setup.ee, b"alice")
        assert not verify_ballot(ballot, setup.ca_keys.public,
                                 VALIDITY[1] + 10)
