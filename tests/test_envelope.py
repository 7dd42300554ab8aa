import functools

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncert import envelope
from anoncert.curve import (
    BRAINPOOL_P256R1,
    SECP256R1,
    Point,
    Scalar,
    _mul,
    generate_keypair,
    get_curve,
    mul_add,
    scalar_mul,
)
from anoncert.envelope import (
    HKDF_INFO,
    Signature,
    digest,
    ecies_decrypt,
    ecies_encrypt,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify,
    _ecdh_key,
)
from anoncert.errors import (
    AnoncertError,
    AuthenticationFailure,
    InvalidEphemeralKey,
    InvalidKey,
    InvalidRecipientKey,
    MalformedEncoding,
    UnknownCurve,
)
from anoncert.rng import DeterministicRng

R_RA_HEX = "F407A78C2CFC8586AC1BA3199F7CBEF34F138894586B5992B61BB8B5A99C5EE7"


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestEcies:
    def test_round_trip(self, named_curve, drng):
        pair = generate_keypair(named_curve, drng)
        for idx in range(100):
            msg = drng.read(1 + idx % 64)
            ct = ecies_encrypt(pair.public, msg, drng)
            assert ecies_decrypt(pair.private, ct) == msg

    def test_wrong_private_key(self, named_curve, drng):
        alice = generate_keypair(named_curve, drng)
        bob = generate_keypair(named_curve, drng)
        ct = ecies_encrypt(alice.public, b"secret", drng)
        with pytest.raises(AuthenticationFailure):
            ecies_decrypt(bob.private, ct)

    def test_seeded_blinding_scalar_round_trip(self, brainpool):
        # fixed-seed envelope carrying the published 32-byte blinding value
        rng = DeterministicRng(2024)
        pair = generate_keypair(brainpool, rng)
        plaintext = bytes.fromhex(R_RA_HEX)
        ct = ecies_encrypt(pair.public, plaintext, rng)
        recovered = ecies_decrypt(pair.private, ct)
        assert recovered == plaintext and len(recovered) == 32

    def test_key_separation(self, named_curve, drng):
        alice = generate_keypair(named_curve, drng)
        bob = generate_keypair(named_curve, drng)
        ct_alice = ecies_encrypt(alice.public, b"same message", drng)
        ct_bob = ecies_encrypt(bob.public, b"same message", drng)
        with pytest.raises(AuthenticationFailure):
            ecies_decrypt(bob.private, ct_alice)
        with pytest.raises(AuthenticationFailure):
            ecies_decrypt(alice.private, ct_bob)

    def test_identity_recipient_rejected(self, brainpool, drng):
        from anoncert.curve import Point
        with pytest.raises(InvalidRecipientKey):
            ecies_encrypt(Point.infinity(brainpool.curve_id), b"x", drng)

    def test_wire_round_trip(self, brainpool, drng):
        # the layout: the ephemeral point x||y, then AES-GCM's output under
        # HKDF of the ECDH x coordinate, which this test derives itself
        pair = generate_keypair(brainpool, drng)
        ct = ecies_encrypt(pair.public, b"wire", drng)
        eph = Point.from_bytes(ct[:64], brainpool.curve_id)
        peer = ec.EllipticCurvePublicNumbers(
            eph.x, eph.y, brainpool.openssl_curve).public_key()
        shared_x = ec.derive_private_key(
            pair.private.value, brainpool.openssl_curve).exchange(
                ec.ECDH(), peer)
        key = HKDF(hashes.SHA256(), 32, salt=None,
                   info=b"anoncert-ecies-v1").derive(shared_x)
        assert AESGCM(key).decrypt(b"\x00" * 12, ct[64:], None) == b"wire"

    def test_short_ciphertext_is_malformed(self, named_curve, drng):
        pair = generate_keypair(named_curve, drng)
        ct = ecies_encrypt(pair.public, b"", drng)
        assert len(ct) == 64 + 16
        assert ecies_decrypt(pair.private, ct) == b""
        for short in (ct[:-1], ct[:64], b""):
            with pytest.raises(MalformedEncoding):
                ecies_decrypt(pair.private, short)

    def test_ephemeral_key_of_another_curve(self, brainpool, secp, drng):
        # a ciphertext made for a secp256r1 recipient, opened with a
        # brainpoolP256r1 key: its point is read on brainpoolP256r1
        ct = ecies_encrypt(generate_keypair(secp, drng).public, b"x", drng)
        with pytest.raises(InvalidEphemeralKey):
            ecies_decrypt(generate_keypair(brainpool, drng).private, ct)

    def test_perturbations_rejected(self, brainpool, drng):
        pair = generate_keypair(brainpool, drng)
        ct = ecies_encrypt(pair.public, b"perturb me", drng)
        for _ in range(60):
            bit = int.from_bytes(drng.read(4), "big") % (len(ct) * 8)
            with pytest.raises(AnoncertError):
                ecies_decrypt(pair.private, _flip_bit(ct, bit))


class TestEcdh:
    def test_matches_mul(self, named_curve, drng, edge_scalars):
        # OpenSSL's shared x must equal the x of `_mul`'s k*Q, so the
        # derived keys, and the wire bytes, do not depend on the backend
        params = named_curve
        peer = generate_keypair(params, drng).public
        for k in edge_scalars(params.n, count=30):
            scalar = Scalar(params.curve_id, k)
            if k % params.n == 0:
                with pytest.raises(InvalidEphemeralKey):
                    _ecdh_key(scalar, peer, InvalidRecipientKey)
                continue
            shared = _mul(k % params.n, peer)
            hkdf = HKDF(hashes.SHA256(), 32, salt=None, info=HKDF_INFO)
            want = hkdf.derive(shared.x.to_bytes(32, "big"))
            assert _ecdh_key(scalar, peer, InvalidRecipientKey) == want

    @pytest.mark.parametrize("error", [InvalidRecipientKey, InvalidEphemeralKey])
    def test_off_curve_peer_is_typed(self, named_curve, error):
        # bypasses the callers' own on-curve check: OpenSSL's ValueError
        # for the peer point must come out as the caller's typed error
        off_curve = Point(named_curve.curve_id, 1, 2)
        with pytest.raises(error) as info:
            _ecdh_key(Scalar(named_curve.curve_id, 5), off_curve,
                      error)
        assert not isinstance(info.value, ValueError)

    def test_unreduced_ephemeral_rejected(self, brainpool, drng):
        # OpenSSL reduces coordinates mod p; the wire form must be canonical
        pair = generate_keypair(brainpool, drng)
        ct = ecies_encrypt(pair.public, b"x", drng)
        eph = Point.from_bytes(ct[:64], brainpool.curve_id)
        while eph.x + brainpool.p >= 2 ** 256:
            ct = ecies_encrypt(pair.public, b"x", drng)
            eph = Point.from_bytes(ct[:64], brainpool.curve_id)
        unreduced = Point(brainpool.curve_id, eph.x + brainpool.p, eph.y)
        with pytest.raises(InvalidEphemeralKey):
            ecies_decrypt(pair.private, unreduced.to_bytes() + ct[64:])


class TestSymmetric:
    def test_round_trip(self, drng):
        key = drng.read(32)
        msg = b"anonymous certificate || blinding value"
        ct = sym_encrypt(key, msg, b"aad", drng)
        assert sym_decrypt(key, ct, b"aad") == msg

    def test_bit_flip_rejected(self, drng):
        key = drng.read(32)
        ct = sym_encrypt(key, b"payload bytes", b"ctx", drng)
        for bit in range(0, len(ct) * 8, 7):
            with pytest.raises(AuthenticationFailure):
                sym_decrypt(key, _flip_bit(ct, bit), b"ctx")

    def test_aad_mismatch(self, drng):
        key = drng.read(32)
        ct = sym_encrypt(key, b"payload", b"right", drng)
        with pytest.raises(AuthenticationFailure):
            sym_decrypt(key, ct, b"wrong")

    def test_wrong_key(self, drng):
        ct = sym_encrypt(drng.read(32), b"payload", b"", drng)
        with pytest.raises(AuthenticationFailure):
            sym_decrypt(drng.read(32), ct, b"")

    def test_short_ciphertext_is_malformed(self, drng):
        key = drng.read(32)
        ct = sym_encrypt(key, b"", b"", drng)
        assert len(ct) == 12 + 16
        assert sym_decrypt(key, ct, b"") == b""
        for short in (ct[:-1], ct[:12], b""):
            with pytest.raises(MalformedEncoding):
                sym_decrypt(key, short, b"")


class TestSignatures:
    def test_sign_verify(self, named_curve, drng):
        for _ in range(5):
            pair = generate_keypair(named_curve, drng)
            msg = drng.read(40)
            sig = sign(pair.private, msg)
            assert verify(pair.public, msg, sig)

    def test_flipped_message_bit(self, named_curve, drng):
        pair = generate_keypair(named_curve, drng)
        msg = b"the ballot payload"
        sig = sign(pair.private, msg)
        assert not verify(pair.public, _flip_bit(msg, 3), sig)

    def test_deterministic(self, named_curve, drng):
        pair = generate_keypair(named_curve, drng)
        msg = b"same message twice"
        assert (sign(pair.private, msg).to_bytes()
                == sign(pair.private, msg).to_bytes())

    def test_wrong_key_fails(self, named_curve, drng):
        pair = generate_keypair(named_curve, drng)
        other = generate_keypair(named_curve, drng)
        sig = sign(pair.private, b"msg")
        assert not verify(other.public, b"msg", sig)

    def test_malformed_signature_is_false(self, brainpool, drng):
        pair = generate_keypair(brainpool, drng)
        zero = Signature(Scalar(brainpool.curve_id, 0),
                         Scalar(brainpool.curve_id, 0))
        assert not verify(pair.public, b"msg", zero)
        huge = Signature(Scalar(brainpool.curve_id, brainpool.n),
                         Scalar(brainpool.curve_id, 1))
        assert not verify(pair.public, b"msg", huge)

    def test_signature_wire_round_trip(self, brainpool, drng):
        pair = generate_keypair(brainpool, drng)
        sig = sign(pair.private, b"wire")
        assert Signature.from_bytes(sig.to_bytes(), brainpool.curve_id) == sig
        for wire in (sig.to_bytes()[:-1], sig.to_bytes() + b"\x00"):
            with pytest.raises(ValueError):
                Signature.from_bytes(wire, brainpool.curve_id)

    def test_identity_sum_is_false(self, named_curve):
        # under the key q = -e/r mod n, u1*G + u2*Q = (e + r*q)/s * G is
        # the identity, which has no x coordinate to compare with r
        curve_id, n = named_curve.curve_id, named_curve.n
        e = int.from_bytes(digest(b"m"), "big") % n
        r, s = 5, 7
        q = Scalar(curve_id, -e * pow(r, -1, n) % n)
        sig = Signature(Scalar(curve_id, r), Scalar(curve_id, s))
        assert verify(scalar_mul(q), b"m", sig) is False

    def test_rfc6979_p256_sha256_sample(self, secp):
        # RFC 6979, appendix A.2.5: P-256, SHA-256, message "sample"
        x = Scalar.from_hex(
            "C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721",
            SECP256R1)
        sig = sign(x, b"sample")
        assert sig.r.to_hex() == (
            "EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716")
        assert sig.s.to_hex() == (
            "F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8")
        assert verify(scalar_mul(x), b"sample", sig)

    def test_toy_curve_cannot_sign(self, toy):
        with pytest.raises(UnknownCurve):
            sign(Scalar(toy.curve_id, 3), b"msg")

    def test_key_off_its_curve_is_false(self, secp):
        # verify is a predicate: a key whose coordinates are off the curve
        # it is tagged with, a signature tagged with another curve, or an
        # unknown curve verify nothing and raise nothing
        sig = sign(Scalar(SECP256R1, 1), b"m")  # key 1: public key G
        assert verify(secp.g, b"m", sig)
        mislabeled = Point(BRAINPOOL_P256R1, secp.gx, secp.gy)
        retagged = Signature(Scalar(BRAINPOOL_P256R1, sig.r.value),
                             Scalar(BRAINPOOL_P256R1, sig.s.value))
        unknown = Signature(Scalar("nope", 1), Scalar("nope", 1))
        for key, signature in [(mislabeled, sig), (mislabeled, retagged),
                               (secp.g, retagged),
                               (Point("nope", 1, 2), unknown)]:
            assert verify(key, b"m", signature) is False

    def test_out_of_range_key_is_typed(self, named_curve):
        for value in (0, named_curve.n, 2 ** 256 - 1):
            with pytest.raises(InvalidKey):
                sign(Scalar(named_curve.curve_id, value), b"m")


@functools.lru_cache(maxsize=None)
def _signer(curve_id: str, seed: int):
    return generate_keypair(get_curve(curve_id), DeterministicRng(seed))


def _openssl_verdict(key: Point, message: bytes, sig: Signature) -> bool:
    """OpenSSL's ECDSA verdict alone; a key it cannot load verifies nothing."""
    try:
        ec.EllipticCurvePublicNumbers(
            key.x, key.y, get_curve(key.curve_id).openssl_curve,
        ).public_key().verify(encode_dss_signature(sig.r.value, sig.s.value),
                              message, ec.ECDSA(hashes.SHA256()))
    except (ValueError, InvalidSignature):
        return False
    return True


def _prechecks_pass(key: Point, sig: Signature) -> bool:
    """The checks OpenSSL does not make: one curve tag, a finite key with
    canonical coordinates on its curve, 1 <= r, s <= n - 1."""
    if not key.curve_id == sig.r.curve_id == sig.s.curve_id:
        return False
    params = get_curve(key.curve_id)
    p, n = params.p, params.n
    if key.is_infinity or not (0 <= key.x < p and 0 <= key.y < p):
        return False
    if (key.y ** 2 - key.x ** 3 - params.a * key.x - params.b) % p:
        return False
    return 1 <= sig.r.value <= n - 1 and 1 <= sig.s.value <= n - 1


def _expected_verdict(key: Point, message: bytes, sig: Signature) -> bool:
    """The prechecks, then OpenSSL."""
    return _prechecks_pass(key, sig) and _openssl_verdict(key, message, sig)


def _python_verdict(key: Point, message: bytes, sig: Signature) -> bool:
    """The prechecks, then the ECDSA equation in Python: R = u1*G + u2*Q
    by `mul_add`, accepted when R is finite and R.x mod n == r."""
    if not _prechecks_pass(key, sig):
        return False
    n = get_curve(key.curve_id).n
    e = int.from_bytes(digest(message), "big") % n
    w = pow(sig.s.value, -1, n)
    R = mul_add(Scalar(key.curve_id, e * w % n),
                Scalar(key.curve_id, sig.r.value * w % n), key)
    return not R.is_infinity and R.x % n == sig.r.value


VERIFY_CASES = ("valid", "flip", "r", "s", "high_s", "off_curve", "identity",
                "other_curve", "x+p", "y+p")


def _verify_case(curve_id, seed, message, case, edge, bit):
    """A (key, message, signature) triple: a valid signature by the
    seed's signer, or that triple with one part broken as `case` names."""
    params = get_curve(curve_id)
    p, n = params.p, params.n
    pair = _signer(curve_id, seed)
    key, sig = pair.public, sign(pair.private, message)
    r, s = sig.r.value, sig.s.value
    value = (0, 1, n - 1, n, n + 1, 2 ** 256 - 1)[edge]
    if case == "flip":
        message = _flip_bit(message, bit % (8 * len(message)))
    elif case in ("r", "s", "high_s"):
        r, s = {"r": (value, s), "s": (r, value), "high_s": (r, n - s)}[case]
        sig = Signature(Scalar(curve_id, r), Scalar(curve_id, s))
    elif case == "other_curve":
        other = ({BRAINPOOL_P256R1, SECP256R1} - {curve_id}).pop()
        sig = Signature(Scalar(other, r), Scalar(other, s))
    elif case != "valid":
        # an unreduced coordinate that reaches 2**256 has no wire
        # encoding; the range check refuses it all the same
        key = {"off_curve": Point(curve_id, key.x, (key.y + 1) % p),
               "identity": Point.infinity(curve_id),
               "x+p": Point(curve_id, key.x + p, key.y),
               "y+p": Point(curve_id, key.x, key.y + p)}[case]
    return key, message, sig


CASE_ARGS = dict(seed=st.integers(0, 7),
                 message=st.binary(min_size=1, max_size=32),
                 case=st.sampled_from(VERIFY_CASES), edge=st.integers(0, 5),
                 bit=st.integers(0, 255))


class TestVerifyOracle:
    # verify against the verdict of OpenSSL behind the Python prechecks,
    # and on brainpoolP256r1, where verify is that same pair, also
    # against the ECDSA equation computed in Python by `mul_add`
    @given(curve_id=st.sampled_from([BRAINPOOL_P256R1, SECP256R1]),
           **CASE_ARGS)
    @settings(max_examples=300, deadline=None)
    def test_matches_prechecks_then_openssl(self, curve_id, seed, message,
                                            case, edge, bit):
        key, message, sig = _verify_case(curve_id, seed, message, case,
                                         edge, bit)
        assert verify(key, message, sig) is _expected_verdict(key, message, sig)

    @given(**CASE_ARGS)
    @settings(max_examples=300, deadline=None)
    def test_brainpool_matches_python_mul_add(self, seed, message, case,
                                              edge, bit):
        key, message, sig = _verify_case(BRAINPOOL_P256R1, seed, message,
                                         case, edge, bit)
        assert verify(key, message, sig) is _python_verdict(key, message, sig)

    def test_key_openssl_refuses_is_false(self, monkeypatch, brainpool):
        # with the on-curve precheck bypassed, an off-curve key reaches
        # OpenSSL's key load, whose ValueError verify turns into False
        monkeypatch.setattr(envelope, "is_on_curve", lambda P: True)
        pair = _signer(BRAINPOOL_P256R1, 0)
        sig = sign(pair.private, b"m")
        off = Point(BRAINPOOL_P256R1, pair.public.x, pair.public.y + 1)
        with pytest.raises(ValueError):
            ec.EllipticCurvePublicNumbers(off.x, off.y,
                                          brainpool.openssl_curve).public_key()
        assert verify(off, b"m", sig) is False

    def test_openssl_alone_accepts_an_unreduced_key(self, brainpool):
        # OpenSSL reduces a coordinate >= p without a word, so it verifies
        # under (x + p, y) whatever verifies under (x, y); verify refuses
        # that second encoding of the key
        pair = _signer(BRAINPOOL_P256R1, 0)
        assert pair.public.x + brainpool.p < 2 ** 256
        sig = sign(pair.private, b"m")
        unreduced = Point(BRAINPOOL_P256R1, pair.public.x + brainpool.p,
                          pair.public.y)
        assert _openssl_verdict(pair.public, b"m", sig)
        assert _openssl_verdict(unreduced, b"m", sig)
        assert verify(unreduced, b"m", sig) is False


class TestDigest:
    def test_empty_string(self):
        assert digest(b"").hex().upper() == (
            "E3B0C44298FC1C149AFBF4C8996FB92427AE41E4649B934CA495991B7852B855")

    def test_abc(self):
        assert digest(b"abc").hex().upper() == (
            "BA7816BF8F01CFEA414140DE5DAE2223B00361A396177A9CB410FF61F20015AD")
