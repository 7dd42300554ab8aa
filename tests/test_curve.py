import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncert import curve
from anoncert.curve import (
    BRAINPOOL_P256R1,
    CURVES,
    Point,
    SECP256R1,
    Scalar,
    TOY,
    expand_private,
    expand_public,
    generate_keypair,
    get_curve,
    is_on_curve,
    mul_add,
    point_add,
    scalar_mul,
    _mul,
)
from anoncert.envelope import sign, verify
from anoncert.errors import (
    BlindingOutOfRange,
    CurveMismatch,
    DegenerateResult,
    InvalidKey,
    NotOnCurve,
    RngFailure,
    UnknownCurve,
)
from anoncert.oracle import (INF, _to_point, enumerate_group, oracle_add,
                             oracle_mul)
from anoncert.rng import DeterministicRng

# Chain constants shared with the published-vector fixtures; reproduced
# here so the unit tests do not depend on the verifier module.
I_PRIV = int("5D98BD1F7985FC560A8963D6709AAC8B01017D02FB14B12CEF168C9662056874", 16)
I_PUB = (int("719CE2A5F8D8174418C3B3AA2E9C4F0EE8AF17F3A9E02A0656E03C32EC05383A", 16),
         int("2E98CA241C58A4933AEE7D4A22394D27EFC1C64618686A00519CC5CB4DE1A93D", 16))
R_RA = int("F407A78C2CFC8586AC1BA3199F7CBEF34F138894586B5992B61BB8B5A99C5EE7", 16)
J_SCALAR = int("A7A50CD00493D820783EFC5F7293DE0CC3DB8AF39E1E63C8151436C9745970B4", 16)
J_PUB = (int("6814044C70048578E6B120480CBA0B81186054403CAE4C67F688F4074AEDF39B", 16),
         int("4969EBCD7400997FBEAF31481DBA738253052A2FF119FE178CF596EFA7AAE156", 16))
R_CA = int("474B007D2533DF88376824D4F784129F7BD7B01F1B3C7E69826912D4121A12DF", 16)
K_SCALAR = int("44F4B57187D90DEC714116A3CC94633AB379C06F03F93B3A075F3B1AEF2B2CEC", 16)
K_PUB = (int("80C6DE97A41127BAAFBC4F36E4E514514086A3E4B0F86F9729C52A8767616BF3", 16),
         int("5E333A1B7AC00E2C126C48C343A1A314D2853D4FBD559B9453C434C8C1CDE396", 16))


class TestPointAdd:
    def test_identity(self, brainpool):
        g = brainpool.g
        inf = Point.infinity(brainpool.curve_id)
        assert point_add(g, inf) == g
        assert point_add(inf, g) == g

    def test_inverse_pair(self, brainpool):
        g = brainpool.g
        minus_g = scalar_mul(Scalar(brainpool.curve_id, brainpool.n - 1))
        assert (minus_g.x, minus_g.y) == (g.x, brainpool.p - g.y)
        assert point_add(g, minus_g).is_infinity

    def test_toy_doubling(self, toy):
        # oracle: on y^2 = x^3 + 2x + 2 mod 17, G + G = (6, 3)
        assert point_add(toy.g, toy.g) == Point(TOY, 6, 3)

    def test_curve_mismatch(self, brainpool, secp):
        # the curve comes from the operands' tags: they must agree, name
        # a curve, and each point must lie on the curve it is tagged with
        mislabeled = Point(BRAINPOOL_P256R1, secp.gx, secp.gy)
        unknown = Point("nope", 1, 2)
        for P, Q, error in [(brainpool.g, secp.g, CurveMismatch),
                            (secp.g, brainpool.g, CurveMismatch),
                            (mislabeled, brainpool.g, NotOnCurve),
                            (brainpool.g, mislabeled, NotOnCurve),
                            (unknown, unknown, UnknownCurve)]:
            with pytest.raises(error):
                point_add(P, Q)

    def test_off_curve_rejected(self, brainpool):
        bogus = Point(brainpool.curve_id, 1, 2)
        with pytest.raises(NotOnCurve):
            point_add(bogus, brainpool.g)


class TestScalarMul:
    def test_published_keypair(self, brainpool):
        pub = scalar_mul(Scalar(brainpool.curve_id, I_PRIV))
        assert (pub.x, pub.y) == I_PUB

    def test_identity_scalar(self, named_curve):
        one = Scalar(named_curve.curve_id, 1)
        assert scalar_mul(one) == named_curve.g

    def test_zero_scalar(self, named_curve):
        zero = Scalar(named_curve.curve_id, 0)
        assert scalar_mul(zero).is_infinity

    def test_order_annihilates(self):
        for params in CURVES.values():
            result = scalar_mul(Scalar(params.curve_id, params.n))
            assert result.is_infinity

    def test_toy_matches_repeated_addition(self, toy):
        acc = Point.infinity(TOY)
        for k in range(toy.n):
            got = scalar_mul(Scalar(TOY, k))
            assert got == acc
            acc = point_add(acc, toy.g)

    def test_outputs_on_curve(self, named_curve, drng):
        for _ in range(20):
            k = Scalar(named_curve.curve_id,
                       int.from_bytes(drng.read(32), "big") % named_curve.n)
            assert is_on_curve(scalar_mul(k))


class TestNativeFixedBase:
    def test_matches_mul(self, named_curve, edge_scalars):
        # on a named curve k*G runs in OpenSSL; `_mul` is the reference
        params = named_curve
        for k in edge_scalars(params.n):
            native = scalar_mul(Scalar(params.curve_id, k))
            assert native == _mul(k % params.n, params.g), hex(k)

    def test_operand_checks_come_first(self):
        with pytest.raises(UnknownCurve):
            scalar_mul(Scalar("nope", 3))

    def test_openssl_key_needs_named_curve_and_nonzero_value(self, brainpool):
        with pytest.raises(UnknownCurve):
            Scalar(TOY, 3).openssl_key
        for value in (0, brainpool.n):
            with pytest.raises(InvalidKey):
                Scalar(BRAINPOOL_P256R1, value).openssl_key
        wrapped = Scalar(BRAINPOOL_P256R1, brainpool.n + 5).openssl_key
        assert wrapped.private_numbers().private_value == 5


class TestVariableBase:
    def test_full_point_matches_native(self, named_curve, edge_scalars):
        # k*(j*G) == (k*j mod n)*G, the right side computed in OpenSSL;
        # ECDH compares only x, so this is the full-point check of `_mul`.
        # Each k runs on a fresh P, whose first `_mul` walks a throwaway
        # FIRST_USE_TEETH table, and on one shared P, which walks its kept
        # COMB_TEETH table. On a 256-bit n the tables' columns are d = 43
        # and d = 64 bits high, so 2^43 and 2^64 are their second teeth;
        # 2^(bits(n) - 1) - 1 is the largest all-ones value below n.
        params = named_curve
        n = params.n
        rand = random.Random(8)
        shared_j = Scalar(params.curve_id, rand.randrange(1, n))
        shared = scalar_mul(shared_j)
        assert _mul(1, shared) == shared
        assert "comb_table" not in vars(shared)
        comb_edges = [2, 15, 16, 2 ** 43 - 1, 2 ** 43 + 1, 2 ** 64 - 1,
                      2 ** 64 + 1, n - 2, 2 ** (n.bit_length() - 1) - 1]
        for k in comb_edges + edge_scalars(n, count=30):
            fresh_j = Scalar(params.curve_id, rand.randrange(1, n))
            fresh = scalar_mul(fresh_j)
            for j, P in ((fresh_j, fresh), (shared_j, shared)):
                want = scalar_mul(Scalar(params.curve_id, k * j.value % n))
                assert _mul(k, P) == want, hex(k)
            assert "multiplied_once" in vars(fresh)
            assert "comb_table" not in vars(fresh)
            assert "comb_table" in vars(shared)

    def test_toy_exhaustive_matches_oracle(self, toy):
        # every point and every k in [0, 2n), through both walks: on a
        # fresh Point (the first-use table) and on one shared Point per P
        # (its kept table, warmed by one checked call). Some kept entries
        # of the order-19 group are the identity (entry 0b010011 sums
        # 1 + 2 + 16 = n times P), which no named curve reaches.
        for P in enumerate_group(toy.p, toy.a, toy.b):
            shared = _to_point(P)
            assert _mul(1, shared) == shared
            for k in range(2 * toy.n):
                want = _to_point(oracle_mul(k, P, toy.p, toy.a))
                assert _mul(k, _to_point(P)) == want, (P, k)
                assert _mul(k, shared) == want, (P, k)
            assert "comb_table" in vars(shared)

    def test_mul_add_matches_native(self, named_curve):
        # u1*G + u2*(q*G) == ((u1 + u2*q) mod n)*G, the right side computed
        # in OpenSSL, on a fresh Q (first-use table) and on one shared Q
        # (kept table); the edges are the columns' tooth boundaries
        params = named_curve
        n = params.n
        rand = random.Random(9)
        shared_q = Scalar(params.curve_id, rand.randrange(1, n))
        shared = scalar_mul(shared_q)
        edges = [0, 1, n - 1, 2 ** 43 - 1, 2 ** 43 + 1, 2 ** 64 - 1, 2 ** 64 + 1]
        for u1 in edges:
            for u2 in edges:
                fresh_q = Scalar(params.curve_id, rand.randrange(1, n))
                fresh = scalar_mul(fresh_q)
                for q, Q in ((fresh_q, fresh), (shared_q, shared)):
                    want = scalar_mul(
                        Scalar(params.curve_id, (u1 + u2 * q.value) % n))
                    got = mul_add(Scalar(params.curve_id, u1),
                                  Scalar(params.curve_id, u2), Q)
                    assert got == want, (hex(u1), hex(u2))
        assert "comb_table" in vars(shared)

    def test_toy_mul_add_exhaustive_matches_oracle(self, toy):
        # every (u1, u2, Q) of the order-19 group, u2*Q once on a fresh
        # Point per case (first-use table) and once on one shared Point
        # per Q (its kept table)
        G = (toy.gx, toy.gy)
        for Q in enumerate_group(toy.p, toy.a, toy.b):
            shared = _to_point(Q)
            for u1 in range(toy.n):
                for u2 in range(toy.n):
                    want = _to_point(oracle_add(oracle_mul(u1, G),
                                                oracle_mul(u2, Q)))
                    args = Scalar(TOY, u1), Scalar(TOY, u2)
                    assert mul_add(*args, _to_point(Q)) == want, (Q, u1, u2)
                    assert mul_add(*args, shared) == want, (Q, u1, u2)
            assert "comb_table" in vars(shared)

    def test_mixed_add_of_equal_and_opposite_points(self, named_curve):
        # a walk over a reduced scalar never adds an entry equal or
        # opposite to the running sum, so this calls the mixed addition
        # directly: P + P doubles and P + (-P) is the identity, whatever
        # the Jacobian Z of the first operand. point_add is this same
        # formula, so OpenSSL's 10*G is the reference for 5*G + 5*G.
        params = named_curve
        p = params.p
        P = scalar_mul(Scalar(params.curve_id, 5))
        Z = 7
        jac = (P.x * Z * Z % p, P.y * Z ** 3 % p, Z)
        doubled = curve._jac_add_affine(jac, (P.x, P.y), p, params.a)
        assert (curve._jac_to_affine(doubled, p, params.curve_id)
                == scalar_mul(Scalar(params.curve_id, 10)))
        assert curve._jac_add_affine(jac, (P.x, p - P.y), p, params.a)[2] == 0

    @pytest.mark.parametrize("curve_id", [SECP256R1])
    def test_comb_table_cached_per_object(self, monkeypatch, curve_id):
        # a Point's first `_mul` builds a throwaway table; its second
        # builds the table it keeps, and later ones build none. Only
        # secp256r1 verifies through the comb; its u1*G runs in OpenSSL.
        builds = []
        build = curve._build_comb

        def spy(P, teeth):
            builds.append((P, teeth))
            return build(P, teeth)

        def kept():
            return [P for P, teeth in builds if teeth == curve.COMB_TEETH]

        monkeypatch.setattr(curve, "_build_comb", spy)
        signer = generate_keypair(get_curve(curve_id), DeterministicRng(5))
        for i in range(10):
            msg = b"message %d" % i
            assert verify(signer.public, msg, sign(signer.private, msg))
            assert len(kept()) == (0 if i == 0 else 1), i
        assert [(P is signer.public, teeth) for P, teeth in builds] == [
            (True, curve.FIRST_USE_TEETH), (True, curve.COMB_TEETH)]
        twin = Point(curve_id, signer.public.x, signer.public.y)
        signature = sign(signer.private, b"message 0")
        assert verify(twin, b"message 0", signature)
        assert len(kept()) == 1
        assert verify(twin, b"message 0", signature)
        assert len(kept()) == 2 and kept()[1] is twin

    def test_cached_state_is_not_a_field(self, brainpool):
        # the first-use mark, the comb table and the OpenSSL key stay out
        # of eq, hash, replace and asdict
        k = Scalar(BRAINPOOL_P256R1, 7)
        P = scalar_mul(k)
        once_P = Point(BRAINPOOL_P256R1, P.x, P.y)
        _mul(3, once_P)
        _mul(3, P)
        _mul(3, P)
        fresh_k = Scalar(BRAINPOOL_P256R1, 7)
        fresh_P = Point(BRAINPOOL_P256R1, P.x, P.y)
        assert "openssl_key" in vars(k)
        assert {"multiplied_once", "comb_table"} <= set(vars(P))
        assert "multiplied_once" in vars(once_P)
        assert "comb_table" not in vars(once_P)
        assert (k, hash(k)) == (fresh_k, hash(fresh_k))
        for Q in (P, once_P):
            assert (Q, hash(Q)) == (fresh_P, hash(fresh_P))
            assert set(dataclasses.asdict(Q)) == {"curve_id", "x", "y"}
            assert set(vars(dataclasses.replace(Q))) == {"curve_id", "x", "y"}
        assert dataclasses.asdict(k) == {"curve_id": BRAINPOOL_P256R1,
                                         "value": 7}
        assert "openssl_key" not in vars(dataclasses.replace(k, value=8))


class TestGenerateKeypair:
    def test_seeded_reproduces_published_pair(self, brainpool, scripted_rng):
        rng = scripted_rng([I_PRIV.to_bytes(32, "big")])
        pair = generate_keypair(brainpool, rng)
        assert pair.private.value == I_PRIV
        assert (pair.public.x, pair.public.y) == I_PUB

    def test_range_postcondition(self, named_curve, drng):
        for _ in range(10):
            pair = generate_keypair(named_curve, drng)
            assert 1 <= pair.private.value <= named_curve.n - 1
            assert is_on_curve(pair.public)

    def test_toy_exhaustive_publics_match_oracle(self, toy):
        seen = set()
        rng = DeterministicRng(7)
        for _ in range(300):
            pair = generate_keypair(toy, rng)
            assert 1 <= pair.private.value <= 18
            want = oracle_mul(pair.private.value, (toy.gx, toy.gy))
            assert (pair.public.x, pair.public.y) == want
            seen.add(pair.private.value)
        assert seen == set(range(1, 19))

    def test_rng_stuck_above_n_fails_typed(self, named_curve):
        # every draw of 0xFF bytes is >= n, so rejection sampling gives up
        class Stuck:
            def read(self, n):
                return b"\xff" * n

        with pytest.raises(RngFailure):
            generate_keypair(named_curve, Stuck())


class TestExpansion:
    def test_published_temporary_key(self, brainpool):
        I = Point(brainpool.curve_id, *I_PUB)
        r = Scalar(brainpool.curve_id, R_RA % brainpool.n)
        J = expand_public(I, r)
        assert (J.x, J.y) == J_PUB

    def test_published_formal_key(self, brainpool):
        J = Point(brainpool.curve_id, *J_PUB)
        r = Scalar(brainpool.curve_id, R_CA)
        K = expand_public(J, r)
        assert (K.x, K.y) == K_PUB

    def test_published_temporary_private(self, brainpool):
        i = Scalar(brainpool.curve_id, I_PRIV)
        r = Scalar(brainpool.curve_id, R_RA % brainpool.n)
        assert expand_private(i, r).value == J_SCALAR

    def test_published_formal_private(self, brainpool):
        j = Scalar(brainpool.curve_id, J_SCALAR)
        r = Scalar(brainpool.curve_id, R_CA)
        assert expand_private(j, r).value == K_SCALAR

    def test_published_secp_chain(self, secp):
        j = Scalar(secp.curve_id, int(
            "53E27B26EA5318D83048B2B6D9FE730C266BC2C581B9CD5238B674E0D2960A4A", 16))
        r_ca = Scalar(secp.curve_id, int(
            "A1754E3C913F9C98B1147DD142E66A3CBE59DD5B53B721C39B0A73BCE4EB1B32", 16))
        assert expand_private(j, r_ca).to_hex() == (
            "F557C9637B92B570E15D30881CE4DD48E4C5A020D570EF15D3C0E89DB781257C")

    def test_blinding_range_enforced(self, brainpool):
        I = Point(brainpool.curve_id, *I_PUB)
        i = Scalar(brainpool.curve_id, I_PRIV)
        for value in (0, brainpool.n):
            r = Scalar(brainpool.curve_id, value)
            with pytest.raises(BlindingOutOfRange):
                expand_public(I, r)
            with pytest.raises(BlindingOutOfRange):
                expand_private(i, r)
            with pytest.raises(BlindingOutOfRange):
                expand_private(r, i)

    def test_identity_cannot_be_expanded(self, brainpool):
        with pytest.raises(NotOnCurve):
            expand_public(Point.infinity(brainpool.curve_id),
                          Scalar(brainpool.curve_id, R_CA))

    def test_operand_disagreement(self, brainpool):
        I = Point(brainpool.curve_id, *I_PUB)
        x = Scalar(brainpool.curve_id, I_PRIV)
        r = Scalar(SECP256R1, R_CA)
        with pytest.raises(CurveMismatch):
            expand_public(I, r)
        with pytest.raises(CurveMismatch):
            expand_private(x, r)
        with pytest.raises(CurveMismatch):
            expand_private(r, x)

    def test_zero_private_rejected(self, named_curve):
        x = Scalar(named_curve.curve_id, 5)
        r = Scalar(named_curve.curve_id, named_curve.n - 5)
        with pytest.raises(DegenerateResult):
            expand_private(x, r)

    def test_degenerate_public(self, toy):
        # x*G expanded by r = n - x lands on the identity
        P = scalar_mul(Scalar(TOY, 4))
        with pytest.raises(DegenerateResult):
            expand_public(P, Scalar(TOY, toy.n - 4))

    def test_homomorphism_random(self, named_curve, drng):
        params = named_curve
        for _ in range(100):
            x = Scalar(params.curve_id,
                       1 + int.from_bytes(drng.read(32), "big") % (params.n - 1))
            r = Scalar(params.curve_id,
                       1 + int.from_bytes(drng.read(32), "big") % (params.n - 1))
            if (x.value + r.value) % params.n == 0:
                continue
            left = scalar_mul(expand_private(x, r))
            right = expand_public(scalar_mul(x), r)
            assert left == right

    def test_homomorphism_exhaustive_toy(self, toy):
        for x in range(1, toy.n):
            X = scalar_mul(Scalar(TOY, x))
            for r in range(1, toy.n):
                if (x + r) % toy.n == 0:
                    continue
                left = scalar_mul(
                    expand_private(Scalar(TOY, x), Scalar(TOY, r)))
                assert left == expand_public(X, Scalar(TOY, r))


class TestEncoding:
    def test_point_hex(self, brainpool):
        assert Point.infinity(brainpool.curve_id).to_hex() == "INF"
        assert brainpool.g.to_hex() == f"{brainpool.gx:064X}{brainpool.gy:064X}"

    def test_point_bytes_round_trip(self, named_curve):
        g = named_curve.g
        assert Point.from_bytes(g.to_bytes(), named_curve.curve_id) == g
        inf = Point.infinity(named_curve.curve_id)
        assert Point.from_bytes(inf.to_bytes(), named_curve.curve_id) == inf
        for wire in (g.to_bytes()[:-1], g.to_bytes() + b"\x00"):
            with pytest.raises(ValueError):
                Point.from_bytes(wire, named_curve.curve_id)

    @given(st.integers(min_value=0, max_value=2 ** 256 - 1))
    @settings(max_examples=50)
    def test_scalar_bytes_round_trip(self, value):
        s = Scalar(BRAINPOOL_P256R1, value)
        assert Scalar.from_bytes(s.to_bytes(), BRAINPOOL_P256R1) == s
        assert Scalar.from_hex(s.to_hex(), BRAINPOOL_P256R1) == s


class TestCurveParams:
    def test_generators_on_curve(self):
        for params in CURVES.values():
            assert is_on_curve(params.g)

    def test_cofactor_one(self):
        # G has prime order n, so n divides the group order N, and Hasse's
        # bound N <= p + 1 + 2*sqrt(p) < 2n leaves N = n: every point on
        # the curve is in the group of G
        for params in CURVES.values():
            n, p, g = params.n, params.p, params.g
            assert _is_probable_prime(n)
            minus_g = scalar_mul(Scalar(params.curve_id, n - 1))
            assert point_add(minus_g, g).is_infinity
            assert 2 * n > p + 1 + 2 * (math.isqrt(p) + 1)

    def test_toy_group_order(self, toy):
        assert len(enumerate_group(toy.p, toy.a, toy.b)) == toy.n
        assert enumerate_group()[0] == INF

    def test_openssl_curve_of_each_named_curve(self):
        # the curve table is the one record of which curves OpenSSL runs:
        # the CLI offers exactly those, and the toy curve is not one
        from anoncert.cli import NAMED_CURVES
        assert NAMED_CURVES == [BRAINPOOL_P256R1, SECP256R1]
        for curve_id in NAMED_CURVES:
            assert get_curve(curve_id).openssl_curve.name == curve_id
        assert get_curve(TOY).openssl_curve is None


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases."""
    d, twos = n - 1, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if a % n == 0 or x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
