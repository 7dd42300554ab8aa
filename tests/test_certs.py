import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncert.certs import (
    Ballot,
    CertificateRequest,
    CertificateResponse,
    ForwardedRequest,
    KIND_ANONYMOUS,
    KIND_PREEXISTING,
    LAYOUT,
    Z_PAYLOAD,
    decode,
    encode,
    issue_certificate,
    pack,
    sanitize_details,
    signed,
    tbs_bytes,
    unpack,
    verify_certificate,
    verify_signed,
)
from anoncert.curve import (
    BRAINPOOL_P256R1,
    SECP256R1,
    Point,
    Scalar,
    generate_keypair,
    get_curve,
)
from anoncert.envelope import (
    Signature,
    digest,
    ecies_encrypt,
    sign,
    sym_encrypt,
)
from anoncert.errors import InvalidKey, InvalidValidity, MalformedEncoding
from anoncert.rng import DeterministicRng
from conftest import mutated

NOW = 1_750_000_000
VALIDITY = (NOW - 10, NOW + 1000)


@pytest.fixture
def issuer(brainpool):
    return generate_keypair(brainpool, DeterministicRng(b"issuer"))


def make_cert(params, issuer, rng, subject="subject", kind=KIND_PREEXISTING):
    holder = generate_keypair(params, rng)
    cert = issue_certificate(issuer.private, "TestIssuer", subject,
                             holder.public, VALIDITY, kind, rng)
    return holder, cert


def make_request(params, issuer, rng, details=None):
    holder, cert = make_cert(params, issuer, rng)
    ra = generate_keypair(params, rng)
    ca = generate_keypair(params, rng)
    r_ra_ct = ecies_encrypt(ra.public, rng.read(32), rng)
    s_ct = ecies_encrypt(ca.public, rng.read(32), rng)
    return signed(CertificateRequest, holder.private, preexisting_cert=cert,
                  r_ra_ct=r_ra_ct, s_ct=s_ct,
                  details=details or {"purpose": "vote", "name": "x"})


class TestIssuance:
    def test_issue_and_verify(self, brainpool, issuer, drng):
        _, cert = make_cert(brainpool, issuer, drng)
        assert verify_certificate(cert, issuer.public, NOW, KIND_PREEXISTING)
        assert not verify_certificate(cert, issuer.public, NOW, KIND_ANONYMOUS)

    def test_anonymous_cert_for_expanded_key(self, brainpool, issuer, drng):
        holder = generate_keypair(brainpool, drng)
        cert = issue_certificate(issuer.private, "CA", "", holder.public,
                                 VALIDITY, KIND_ANONYMOUS, drng)
        assert cert.subject == ""
        assert verify_certificate(cert, issuer.public, NOW, KIND_ANONYMOUS)
        assert not verify_certificate(cert, issuer.public, NOW,
                                      KIND_PREEXISTING)

    def test_anonymous_with_subject_rejected(self, brainpool, issuer, drng):
        holder = generate_keypair(brainpool, drng)
        with pytest.raises(InvalidKey):
            issue_certificate(issuer.private, "CA", "not-empty", holder.public,
                              VALIDITY, KIND_ANONYMOUS, drng)

    def test_bad_validity(self, brainpool, issuer, drng):
        holder = generate_keypair(brainpool, drng)
        with pytest.raises(InvalidValidity):
            issue_certificate(issuer.private, "CA", "s", holder.public,
                              (NOW, NOW - 1), KIND_PREEXISTING, drng)

    def test_identity_key_rejected(self, brainpool, issuer, drng):
        with pytest.raises(InvalidKey):
            issue_certificate(issuer.private, "CA", "s",
                              Point.infinity(brainpool.curve_id), VALIDITY,
                              KIND_PREEXISTING, drng)

    def test_tampered_public_key_fails(self, brainpool, issuer, drng):
        _, cert = make_cert(brainpool, issuer, drng)
        other = generate_keypair(brainpool, drng)
        forged = dataclasses.replace(cert, public_key=other.public)
        assert not verify_certificate(forged, issuer.public, NOW,
                                      KIND_PREEXISTING)

    def test_expiry(self, brainpool, issuer, drng):
        # the window [not_before, not_after] holds both its ends
        _, cert = make_cert(brainpool, issuer, drng)
        not_before, not_after = VALIDITY
        for now in (not_before, not_after):
            assert verify_certificate(cert, issuer.public, now,
                                      KIND_PREEXISTING)
        for now in (not_before - 1, not_after + 1):
            assert not verify_certificate(cert, issuer.public, now,
                                          KIND_PREEXISTING)

    def test_one_second_validity(self, brainpool, issuer, drng):
        holder = generate_keypair(brainpool, drng)
        cert = issue_certificate(issuer.private, "CA", "s", holder.public,
                                 (NOW, NOW), KIND_PREEXISTING, drng)
        assert verify_certificate(cert, issuer.public, NOW, KIND_PREEXISTING)

    def test_wrong_issuer(self, brainpool, issuer, drng):
        _, cert = make_cert(brainpool, issuer, drng)
        other = generate_keypair(brainpool, drng)
        assert not verify_certificate(cert, other.public, NOW, KIND_PREEXISTING)

    def test_subject_key_of_another_curve_rejected(self, brainpool, secp,
                                                   drng):
        # the certificate's curve is the issuer key's; a subject key tagged
        # with another curve is refused like an off-curve one, also when
        # its coordinates lie on the issuer's curve
        secp_issuer = generate_keypair(secp, drng)
        secp_key = generate_keypair(secp, drng).public
        for subject_key in (Point(BRAINPOOL_P256R1, secp_key.x, secp_key.y),
                            generate_keypair(brainpool, drng).public):
            with pytest.raises(InvalidKey):
                issue_certificate(secp_issuer.private, "CA", "s", subject_key,
                                  VALIDITY, KIND_PREEXISTING, drng)

    def test_issuer_key_of_another_curve_is_false(self, brainpool, secp,
                                                  issuer, drng):
        # the signature decides: its tags name another curve than the
        # issuer key's, or it does not cover the relabeled curve_id
        _, cert = make_cert(brainpool, issuer, drng)
        secp_issuer = generate_keypair(secp, drng)
        assert not verify_certificate(cert, secp_issuer.public, NOW,
                                      KIND_PREEXISTING)
        relabeled = dataclasses.replace(cert, curve_id=SECP256R1)
        assert not verify_certificate(relabeled, issuer.public, NOW,
                                      KIND_PREEXISTING)

    def test_serials_unique(self, brainpool, issuer, drng):
        serials = {make_cert(brainpool, issuer, drng)[1].serial
                   for _ in range(20)}
        assert len(serials) == 20


class TestEncoding:
    def test_certificate_round_trip(self, named_curve, drng):
        issuer = generate_keypair(named_curve, drng)
        for _ in range(20):
            _, cert = make_cert(named_curve, issuer, drng)
            assert decode(encode(cert)) == cert

    def test_request_round_trip(self, brainpool, issuer, drng):
        for _ in range(10):
            req = make_request(brainpool, issuer, drng)
            blob = encode(req)
            assert decode(blob) == req
            assert encode(decode(blob)) == blob

    def test_forwarded_round_trip(self, brainpool, issuer, drng):
        ra = generate_keypair(brainpool, drng)
        ca = generate_keypair(brainpool, drng)
        s_ct = ecies_encrypt(ca.public, drng.read(32), drng)
        fwd = ForwardedRequest(brainpool.curve_id, ra.public, s_ct,
                               {"election_id": "E1"},
                               sign(ra.private, b"placeholder"))
        assert decode(encode(fwd)) == fwd

    def test_response_round_trip(self, brainpool, drng):
        ca = generate_keypair(brainpool, drng)
        z = sym_encrypt(drng.read(32), b"cert||r_ca", b"", drng)
        resp = CertificateResponse(brainpool.curve_id, z, digest(b"req"),
                                   sign(ca.private, b"placeholder"))
        assert decode(encode(resp)) == resp

    def test_ballot_round_trip(self, brainpool, issuer, drng):
        holder, _ = make_cert(brainpool, issuer, drng)
        cert = issue_certificate(issuer.private, "CA", "", holder.public,
                                 VALIDITY, KIND_ANONYMOUS, drng)
        ballot = Ballot(b"alice", cert, sign(holder.private, b"x"))
        assert decode(encode(ballot)) == ballot

    def test_canonical_map_order(self, brainpool, issuer, drng):
        req = make_request(brainpool, issuer, drng,
                           details={"b": "2", "a": "1", "c": "3"})
        shuffled = dataclasses.replace(req,
                                       details={"c": "3", "a": "1", "b": "2"})
        assert encode(req) == encode(shuffled)

    def test_digest_stable_across_round_trip(self, brainpool, issuer, drng):
        req = make_request(brainpool, issuer, drng)
        assert digest(encode(req)) == digest(encode(decode(encode(req))))

    def test_truncated_rejected(self, brainpool, issuer, drng):
        blob = encode(make_request(brainpool, issuer, drng))
        for cut in (1, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(MalformedEncoding):
                decode(blob[:cut])

    def test_unknown_tag_rejected(self):
        with pytest.raises(MalformedEncoding):
            decode(b"\xff\xff" + b"\x00" * 32)

    def test_only_known_kinds_and_messages_encode(self, brainpool, issuer,
                                                  drng):
        _, cert = make_cert(brainpool, issuer, drng)
        with pytest.raises(MalformedEncoding, match="unknown certificate kind"):
            encode(dataclasses.replace(cert, kind="bogus"))
        with pytest.raises(TypeError):
            tbs_bytes(cert.serial)

    def test_trailing_bytes_rejected(self, brainpool, issuer, drng):
        _, cert = make_cert(brainpool, issuer, drng)
        with pytest.raises(MalformedEncoding):
            decode(encode(cert) + b"\x00")

    def test_signature_covers_tbs_exactly(self, brainpool, issuer, drng):
        from anoncert.envelope import verify
        _, cert = make_cert(brainpool, issuer, drng)
        assert verify(issuer.public, tbs_bytes(cert),
                      cert.issuer_signature)


MESSAGE_CLASSES = tuple(LAYOUT)


def _class_name(cls):
    return cls.__name__


@functools.lru_cache(maxsize=None)
def _signed_samples(curve_id=SECP256R1):
    """One message of each class, every one signed by the same key:
    (that key pair, {class: message})."""
    params, rng = get_curve(curve_id), DeterministicRng(b"signed samples")
    signer, holder = generate_keypair(params, rng), generate_keypair(params, rng)
    key, ct = signer.private, ecies_encrypt(signer.public, rng.read(32), rng)
    cert = issue_certificate(key, "CA", "", holder.public, VALIDITY,
                             KIND_ANONYMOUS, rng)
    messages = (
        cert,
        signed(CertificateRequest, key, preexisting_cert=cert, r_ra_ct=ct,
               s_ct=ct, details={"purpose": "vote"}),
        signed(ForwardedRequest, key, curve_id=curve_id,
               temporary_public_key=holder.public, s_ct=ct,
               details={"election_id": "E1"}),
        signed(CertificateResponse, key, curve_id=curve_id, z_ct=ct,
               request_hash=digest(b"request")),
        signed(Ballot, key, payload=b"alice", anon_cert=cert),
    )
    return signer, {type(msg): msg for msg in messages}


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=_class_name)
def test_each_record_is_a_frozen_certs_class(cls):
    assert (cls.__module__, cls.__qualname__) == ("anoncert.certs",
                                                  cls.__name__)
    msg = _signed_samples()[1][cls]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(msg, LAYOUT[cls].signature, None)


@pytest.mark.parametrize("accepted", MESSAGE_CLASSES, ids=_class_name)
@pytest.mark.parametrize("sent", MESSAGE_CLASSES, ids=_class_name)
def test_decode_returns_only_the_class_it_is_given(sent, accepted):
    msg = _signed_samples()[1][sent]
    if sent is accepted:
        assert decode(encode(msg), accepted) == msg
    else:
        tag = f"0x{LAYOUT[sent].tag:04X}"
        with pytest.raises(MalformedEncoding, match=f"type tag {tag}"):
            decode(encode(msg), accepted)


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=_class_name)
def test_verify_signed_checks_the_signature_field_over_the_tbs(cls):
    signer, messages = _signed_samples()
    msg, field = messages[cls], LAYOUT[cls].signature
    assert verify_signed(msg, signer.public)

    # one flipped byte in the first bytes field the signature covers
    name = next(name for name, _ in LAYOUT[cls].fields
                if isinstance(getattr(msg, name), bytes))
    value = getattr(msg, name)
    flipped = dataclasses.replace(
        msg, **{name: bytes([value[0] ^ 0x01]) + value[1:]})
    tbs, flipped_tbs = tbs_bytes(msg), tbs_bytes(flipped)
    assert len(tbs) == len(flipped_tbs)
    assert sum(a != b for a, b in zip(tbs, flipped_tbs)) == 1
    assert not verify_signed(flipped, signer.public)

    # the signature of another message by the same signer
    for other in messages.values():
        if other is not msg:
            lifted = getattr(other, LAYOUT[type(other)].signature)
            assert not verify_signed(
                dataclasses.replace(msg, **{field: lifted}), signer.public)

    # the same signature values, tagged with another curve
    sig = getattr(msg, field)
    retagged = Signature(Scalar(BRAINPOOL_P256R1, sig.r.value),
                         Scalar(BRAINPOOL_P256R1, sig.s.value))
    assert not verify_signed(dataclasses.replace(msg, **{field: retagged}),
                             signer.public)


def _var(data):
    return len(data).to_bytes(4, "big") + data


def _tag(cls):
    return LAYOUT[cls].tag.to_bytes(2, "big")


def _text_map(pairs):
    return len(pairs).to_bytes(8, "big") + b"".join(
        _var(k.encode()) + _var(v.encode()) for k, v in pairs)


class TestDecodingDefects:
    @pytest.mark.parametrize("outer", [Ballot, CertificateRequest])
    def test_deeply_nested_ballots_are_malformed(self, brainpool, issuer,
                                                 drng, outer):
        # a nested field holds a certificate only: ballots wrapped 1,000
        # deep must be refused without recursing into them
        req = make_request(brainpool, issuer, drng)
        sig = req.signature.to_bytes()
        inner = encode(req.preexisting_cert)
        for _ in range(1000):
            inner = _tag(Ballot) + _var(b"alice") + _var(inner) + sig
        if outer is CertificateRequest:
            inner = (_tag(CertificateRequest) + _var(inner)
                     + _var(req.r_ra_ct) + _var(req.s_ct)
                     + _text_map([]) + sig)
        assert len(inner) > 70_000
        with pytest.raises(MalformedEncoding, match="type tag 0x0005"):
            decode(inner)

    @pytest.mark.parametrize("code", [2, 255])
    def test_unknown_kind_code_is_malformed(self, brainpool, issuer, drng,
                                            code):
        # the kind byte is the last before the 64-byte issuer signature;
        # codes 0 and 1 are the two kinds, and 2 is the first past them
        _, cert = make_cert(brainpool, issuer, drng)
        blob = bytearray(encode(cert))
        blob[-65] = code
        with pytest.raises(MalformedEncoding,
                           match=f"unknown kind code {code}$"):
            decode(bytes(blob))

    @pytest.mark.parametrize("pairs", [
        [("purpose", "vote"), ("election_id", "E1")],
        [("election_id", "E1"), ("election_id", "E2")],
    ], ids=["unsorted", "duplicate"])
    def test_non_canonical_map_is_malformed(self, brainpool, drng, pairs):
        ra = generate_keypair(brainpool, drng)
        s_ct = ecies_encrypt(ra.public, drng.read(32), drng)
        blob = (_tag(ForwardedRequest) + _var(brainpool.curve_id.encode())
                + ra.public.to_bytes() + _var(s_ct)
                + _text_map(pairs) + sign(ra.private, b"x").to_bytes())
        with pytest.raises(MalformedEncoding, match="details"):
            decode(blob)


@functools.lru_cache(maxsize=None)
def _wire_samples(curve_id):
    """One encoding of every message type, and of a z payload, on a curve."""
    params, rng = get_curve(curve_id), DeterministicRng(curve_id.encode())
    issuer = generate_keypair(params, rng)
    holder, cert = make_cert(params, issuer, rng)
    req = make_request(params, issuer, rng,
                       details={"purpose": "vote", "election_id": "E1"})
    fwd = ForwardedRequest(curve_id, holder.public, req.s_ct,
                           {"election_id": "E1"}, req.signature)
    z = sym_encrypt(rng.read(32), b"cert||r_ca", b"", rng)
    resp = CertificateResponse(curve_id, z, digest(b"req"), req.signature)
    ballot = Ballot(b"alice", cert, req.signature)
    samples = {type(m).__name__: encode(m)
               for m in (cert, req, fwd, resp, ballot)}
    samples["z_payload"] = pack(Z_PAYLOAD, (cert, rng.read(32)))
    return samples


@st.composite
def _mutated_wire(draw):
    curve_id = draw(st.sampled_from([BRAINPOOL_P256R1, SECP256R1]))
    samples = _wire_samples(curve_id)
    name = draw(st.sampled_from(sorted(samples)))
    return name, draw(mutated(samples[name]))


@given(_mutated_wire())
@settings(max_examples=400, deadline=None)
def test_decoding_is_canonical(case):
    # every input either fails as MalformedEncoding or is the exact
    # encoding of what it decodes to
    name, blob = case
    try:
        if name == "z_payload":
            again = pack(Z_PAYLOAD, unpack(Z_PAYLOAD, blob))
        else:
            again = encode(decode(blob))
    except MalformedEncoding:
        return
    assert again == blob


class TestSanitize:
    def test_mixed_details(self):
        out = sanitize_details({"name": "Jane Roe", "election_id": "E1"})
        assert out == {"election_id": "E1"}

    def test_empty(self):
        assert sanitize_details({}) == {}

    def test_all_allowlisted_unchanged(self):
        details = {"purpose": "vote", "election_id": "E1", "curve_id": "toy"}
        assert sanitize_details(details) == details

    @given(st.dictionaries(st.text(max_size=12), st.text(max_size=12),
                           max_size=8))
    @settings(max_examples=50)
    def test_output_always_allowlisted(self, details):
        from anoncert.certs import DEFAULT_DETAIL_ALLOWLIST
        out = sanitize_details(details)
        assert set(out) <= DEFAULT_DETAIL_ALLOWLIST
        for key in out:
            assert out[key] == details[key]
