import dataclasses

import pytest

from anoncert.actors import (
    CaState,
    EeState,
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
    KIND_PREEXISTING,
    decode,
    encode,
    forwarded_tbs_bytes,
    issue_certificate,
)
from anoncert.curve import BRAINPOOL_P256R1, SECP256R1, Scalar, get_curve, generate_keypair, scalar_mul
from anoncert.envelope import SymmetricKey, sym_encrypt
from anoncert.errors import (
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
from anoncert.rng import DeterministicRng, FixedRng

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
    def __init__(self, curve_id=BRAINPOOL_P256R1, seed=1, ee_private=None):
        self.params = get_curve(curve_id)
        rng = DeterministicRng(seed)
        self.ca_keys = generate_keypair(self.params, rng)
        self.ra_keys = generate_keypair(self.params, rng)
        self.identity = generate_keypair(self.params, rng)
        if ee_private is not None:
            ee_keys_rng = FixedRng(ee_private.to_bytes(32, "big"))
        else:
            ee_keys_rng = rng
        ee_keys = generate_keypair(self.params, ee_keys_rng)
        cert = issue_certificate(self.identity.private, "IdentityRoot",
                                 "voter-0", ee_keys.public, VALIDITY,
                                 KIND_PREEXISTING, self.params, rng)
        self.ee = EeState(curve_id, ee_keys, cert)
        self.ra = RaState(self.ra_keys, self.ca_keys.public,
                          frozenset({cert.serial}))
        self.ca = CaState(self.ca_keys, self.ra_keys.public)
        self.rng = rng

    def run_flow(self, ee_rng=None, ca_rng=None, details=None):
        ee_rng = ee_rng or self.rng
        ca_rng = ca_rng or self.rng
        details = details or {"purpose": "vote", "election_id": "E1",
                              "name": "Jane Roe"}
        req, self.ee = ee_create_request(self.ee, self.ra_keys.public,
                                         self.ca_keys.public, details, ee_rng)
        fwd, self.ra = ra_process_request(self.ra, req, "voter-0")
        resp, self.ca = ca_process_request(self.ca, fwd, VALIDITY, ca_rng)
        ee_id, resp, self.ra = ra_route_response(self.ra, resp)
        self.ee = ee_process_response(self.ee, resp, self.ca_keys.public, NOW)
        return req, fwd, resp, ee_id


@pytest.mark.parametrize("curve_id", [BRAINPOOL_P256R1, SECP256R1])
def test_published_chain_end_to_end(curve_id, scripted_rng):
    chain = CHAINS[curve_id]
    params = get_curve(curve_id)
    setup = Setup(curve_id, ee_private=int(chain["i"], 16))
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
    assert scalar_mul(result.formal_private, params.g, params) == \
        result.anon_cert.public_key


class TestEeRequest:
    def test_request_verifies_under_original_key(self, drng):
        from anoncert.certs import request_tbs_bytes
        from anoncert.envelope import verify
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        assert verify(setup.ee.original.public, request_tbs_bytes(req),
                      req.signature, setup.params)
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
            ra_process_request(setup.ra, bad, "voter-0")

    def test_ineligible_serial(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        ra = dataclasses.replace(setup.ra, eligibility=frozenset())
        with pytest.raises(Ineligible):
            ra_process_request(ra, req, "voter-0")

    def test_details_sanitized(self, drng):
        setup = Setup()
        req, _ = ee_create_request(
            setup.ee, setup.ra_keys.public, setup.ca_keys.public,
            {"name": "Jane Roe", "election_id": "E1", "phone": "555"}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0")
        assert set(fwd.details) == {"election_id", REQUEST_HASH_KEY}

    def test_forward_excludes_original_key_material(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {"name": "x"}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0")
        blob = encode(fwd)
        assert setup.ee.original.public.to_bytes() not in blob
        assert setup.ee.preexisting_cert.serial not in blob

    def test_duplicate_request_rejected(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        _, ra = ra_process_request(setup.ra, req, "voter-0")
        with pytest.raises(DuplicateRequest):
            ra_process_request(ra, req, "voter-0")

    def test_degenerate_blinding_rejected_to_ee(self, scripted_rng):
        setup = Setup()
        # r_RA = n - i makes J the identity, which the RA cannot fix
        r_ra = (setup.params.n - setup.ee.original.private.value)
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {},
                                   scripted_rng([r_ra.to_bytes(32, "big")]))
        with pytest.raises(DegenerateResult):
            ra_process_request(setup.ra, req, "voter-0")

    def test_unknown_curve_is_typed(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        cert = dataclasses.replace(req.preexisting_cert, curve_id="nope")
        wire = decode(encode(dataclasses.replace(req, preexisting_cert=cert)))
        with pytest.raises(UnknownCurve):
            ra_process_request(setup.ra, wire, "voter-0")

    def test_pending_entry_stored(self, drng):
        from anoncert.envelope import digest
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        _, ra = ra_process_request(setup.ra, req, "voter-0")
        assert digest(encode(req)) in ra.pending


class TestCaProcessing:
    def test_invalid_ra_signature(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0")
        forged = dataclasses.replace(fwd, details={**fwd.details,
                                                   "extra": "field"})
        with pytest.raises(BadSignature):
            ca_process_request(setup.ca, forged, VALIDITY, drng)

    def test_z_only_opens_under_s(self, drng):
        from anoncert.envelope import sym_decrypt
        from anoncert.errors import AuthenticationFailure
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0")
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        opened = sym_decrypt(ee.secrets.aes_key, resp.z_ct, resp.request_hash)
        assert len(opened) > 36
        with pytest.raises(AuthenticationFailure):
            sym_decrypt(SymmetricKey(drng.read(32)), resp.z_ct,
                        resp.request_hash)

    def test_issued_serial_recorded(self, drng):
        setup = Setup()
        setup.run_flow()
        assert len(setup.ca.issued_serials) == 1
        assert setup.ee.result.anon_cert.serial in setup.ca.issued_serials


class TestRouting:
    def test_route_and_clear(self, drng):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        fwd, ra = ra_process_request(setup.ra, req, "voter-0")
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        ee_id, routed, ra = ra_route_response(ra, resp)
        assert ee_id == "voter-0"
        assert routed == resp
        assert not ra.pending
        with pytest.raises(UnknownRequestHash):
            ra_route_response(ra, resp)

    def test_unknown_hash(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0")
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        with pytest.raises(UnknownRequestHash):
            ra_route_response(dataclasses.replace(setup.ra), resp)


class TestEeFinalization:
    def test_requires_pending_secrets(self, drng):
        setup = Setup()
        req, _ = ee_create_request(setup.ee, setup.ra_keys.public,
                                   setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0")
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        with pytest.raises(ProtocolStateError):
            ee_process_response(setup.ee, resp, setup.ca_keys.public, NOW)

    def test_wrong_aes_key_is_envelope_failure(self, drng):
        setup = Setup()
        req, ee = ee_create_request(setup.ee, setup.ra_keys.public,
                                    setup.ca_keys.public, {}, drng)
        fwd, _ = ra_process_request(setup.ra, req, "voter-0")
        resp, _ = ca_process_request(setup.ca, fwd, VALIDITY, drng)
        other_key = dataclasses.replace(
            ee, secrets=dataclasses.replace(
                ee.secrets, aes_key=SymmetricKey(drng.read(32))))
        with pytest.raises(EnvelopeFailure):
            ee_process_response(other_key, resp, setup.ca_keys.public, NOW)

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
        assert scalar_mul(result.formal_private, params.g, params) == \
            result.anon_cert.public_key


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
        sig = ecdsa_sign(setup.ee.original.private,
                         ballot_tbs_bytes(unsigned), setup.params)
        forged = dataclasses.replace(unsigned, signature=sig)
        assert not verify_ballot(forged, setup.ca_keys.public, NOW)

    def test_preexisting_cert_cannot_carry_ballot(self):
        from anoncert.certs import ballot_tbs_bytes, Ballot
        from anoncert.envelope import sign as ecdsa_sign
        setup = Setup()
        setup.run_flow()
        unsigned = Ballot(b"alice", setup.ee.preexisting_cert, None)
        sig = ecdsa_sign(setup.ee.original.private,
                         ballot_tbs_bytes(unsigned), setup.params)
        forged = dataclasses.replace(unsigned, signature=sig)
        assert not verify_ballot(forged, setup.ca_keys.public, NOW)

    def test_expired_cert_fails(self):
        setup = Setup()
        setup.run_flow()
        ballot = sign_ballot(setup.ee, b"alice")
        assert not verify_ballot(ballot, setup.ca_keys.public,
                                 VALIDITY[1] + 10)
