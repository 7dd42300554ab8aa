import pytest

from anoncert.curve import SECP256R1, Scalar, generate_keypair, scalar_mul
from anoncert.envelope import (
    EciesCiphertext,
    Signature,
    SymmetricCiphertext,
    SymmetricKey,
    digest,
    ecies_decrypt,
    ecies_encrypt,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify,
)
from anoncert.errors import AuthenticationFailure, InvalidRecipientKey, UnknownCurve
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
            ct = ecies_encrypt(pair.public, msg, named_curve, drng)
            assert ecies_decrypt(pair.private, ct, named_curve) == msg

    def test_wrong_private_key(self, named_curve, drng):
        alice = generate_keypair(named_curve, drng)
        bob = generate_keypair(named_curve, drng)
        ct = ecies_encrypt(alice.public, b"secret", named_curve, drng)
        with pytest.raises(AuthenticationFailure):
            ecies_decrypt(bob.private, ct, named_curve)

    def test_seeded_blinding_scalar_round_trip(self, brainpool):
        # fixed-seed envelope carrying the published 32-byte blinding value
        rng = DeterministicRng(2024)
        pair = generate_keypair(brainpool, rng)
        plaintext = bytes.fromhex(R_RA_HEX)
        ct = ecies_encrypt(pair.public, plaintext, brainpool, rng)
        recovered = ecies_decrypt(pair.private, ct, brainpool)
        assert recovered == plaintext and len(recovered) == 32

    def test_key_separation(self, named_curve, drng):
        alice = generate_keypair(named_curve, drng)
        bob = generate_keypair(named_curve, drng)
        ct_alice = ecies_encrypt(alice.public, b"same message", named_curve, drng)
        ct_bob = ecies_encrypt(bob.public, b"same message", named_curve, drng)
        with pytest.raises(AuthenticationFailure):
            ecies_decrypt(bob.private, ct_alice, named_curve)
        with pytest.raises(AuthenticationFailure):
            ecies_decrypt(alice.private, ct_bob, named_curve)

    def test_identity_recipient_rejected(self, brainpool, drng):
        from anoncert.curve import Point
        with pytest.raises(InvalidRecipientKey):
            ecies_encrypt(Point.infinity(brainpool.curve_id), b"x",
                          brainpool, drng)

    def test_wire_round_trip(self, brainpool, drng):
        pair = generate_keypair(brainpool, drng)
        ct = ecies_encrypt(pair.public, b"wire", brainpool, drng)
        parsed = EciesCiphertext.from_bytes(ct.to_bytes(), brainpool.curve_id)
        assert parsed == ct

    def test_perturbations_rejected(self, brainpool, drng):
        pair = generate_keypair(brainpool, drng)
        ct = ecies_encrypt(pair.public, b"perturb me", brainpool, drng)
        raw = ct.to_bytes()
        from anoncert.errors import AnoncertError
        for _ in range(60):
            bit = int.from_bytes(drng.read(4), "big") % (len(raw) * 8)
            mangled = EciesCiphertext.from_bytes(_flip_bit(raw, bit),
                                                 brainpool.curve_id)
            with pytest.raises(AnoncertError):
                ecies_decrypt(pair.private, mangled, brainpool)


class TestSymmetric:
    def test_round_trip(self, drng):
        key = SymmetricKey(drng.read(32))
        msg = b"anonymous certificate || blinding value"
        ct = sym_encrypt(key, msg, b"aad", drng)
        assert sym_decrypt(key, ct, b"aad") == msg

    def test_bit_flip_rejected(self, drng):
        key = SymmetricKey(drng.read(32))
        ct = sym_encrypt(key, b"payload bytes", b"ctx", drng)
        raw = ct.to_bytes()
        for bit in range(0, len(raw) * 8, 7):
            mangled = SymmetricCiphertext.from_bytes(_flip_bit(raw, bit))
            with pytest.raises(AuthenticationFailure):
                sym_decrypt(key, mangled, b"ctx")

    def test_aad_mismatch(self, drng):
        key = SymmetricKey(drng.read(32))
        ct = sym_encrypt(key, b"payload", b"right", drng)
        with pytest.raises(AuthenticationFailure):
            sym_decrypt(key, ct, b"wrong")

    def test_wrong_key(self, drng):
        ct = sym_encrypt(SymmetricKey(drng.read(32)), b"payload", b"", drng)
        with pytest.raises(AuthenticationFailure):
            sym_decrypt(SymmetricKey(drng.read(32)), ct, b"")

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"short")


class TestSignatures:
    def test_sign_verify(self, named_curve, drng):
        for _ in range(5):
            pair = generate_keypair(named_curve, drng)
            msg = drng.read(40)
            sig = sign(pair.private, msg, named_curve)
            assert verify(pair.public, msg, sig, named_curve)

    def test_flipped_message_bit(self, named_curve, drng):
        pair = generate_keypair(named_curve, drng)
        msg = b"the ballot payload"
        sig = sign(pair.private, msg, named_curve)
        assert not verify(pair.public, _flip_bit(msg, 3), sig, named_curve)

    def test_deterministic(self, named_curve, drng):
        pair = generate_keypair(named_curve, drng)
        msg = b"same message twice"
        assert (sign(pair.private, msg, named_curve).to_bytes()
                == sign(pair.private, msg, named_curve).to_bytes())

    def test_wrong_key_fails(self, named_curve, drng):
        pair = generate_keypair(named_curve, drng)
        other = generate_keypair(named_curve, drng)
        sig = sign(pair.private, b"msg", named_curve)
        assert not verify(other.public, b"msg", sig, named_curve)

    def test_malformed_signature_is_false(self, brainpool, drng):
        pair = generate_keypair(brainpool, drng)
        zero = Signature(Scalar(brainpool.curve_id, 0),
                         Scalar(brainpool.curve_id, 0))
        assert not verify(pair.public, b"msg", zero, brainpool)
        huge = Signature(Scalar(brainpool.curve_id, brainpool.n),
                         Scalar(brainpool.curve_id, 1))
        assert not verify(pair.public, b"msg", huge, brainpool)

    def test_signature_wire_round_trip(self, brainpool, drng):
        pair = generate_keypair(brainpool, drng)
        sig = sign(pair.private, b"wire", brainpool)
        assert Signature.from_bytes(sig.to_bytes(), brainpool.curve_id) == sig

    def test_rfc6979_p256_sha256_sample(self, secp):
        # RFC 6979, appendix A.2.5: P-256, SHA-256, message "sample"
        x = Scalar.from_hex(
            "C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721",
            SECP256R1)
        sig = sign(x, b"sample", secp)
        assert sig.r.to_hex() == (
            "EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716")
        assert sig.s.to_hex() == (
            "F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8")
        assert verify(scalar_mul(x, secp.g, secp), b"sample", sig, secp)

    def test_toy_curve_cannot_sign(self, toy):
        with pytest.raises(UnknownCurve):
            sign(Scalar(toy.curve_id, 3), b"msg", toy)


class TestDigest:
    def test_empty_string(self):
        assert digest(b"").hex().upper() == (
            "E3B0C44298FC1C149AFBF4C8996FB92427AE41E4649B934CA495991B7852B855")

    def test_abc(self):
        assert digest(b"abc").hex().upper() == (
            "BA7816BF8F01CFEA414140DE5DAE2223B00361A396177A9CB410FF61F20015AD")
