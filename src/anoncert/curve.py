"""Short-Weierstrass curve arithmetic and the additive key-expansion primitives.

Supports two production curves (brainpoolP256r1, secp256r1) plus a tiny
order-19 curve (y^2 = x^3 + 2x + 2 mod 17, G = (5,1)) small enough to
check the whole group exhaustively against a brute-force oracle.

Values are immutable and every function is pure. A key's curve is its
tag: every `Point` and `Scalar` carries its `curve_id`, and a primitive
takes its curve from its operands (`curve_of`), which must all carry the
same tag. Only `generate_keypair` and `random_blinding`, which have no
operand, take a `CurveParams`. What a key costs to set up is computed
once and cached on the key object, never in a module-level table, so it
lives and dies with that object.

`scalar_mul(k)` computes k*G and nothing else: key generation, key
expansion and the u1*G of `mul_add`. On the named curves, those with a
`CurveParams.openssl_curve`, it runs in OpenSSL through `cryptography`,
as do ECDH, signing and, where `CurveParams.openssl_verify` is set
(brainpoolP256r1), the whole ECDSA verification in `envelope`. Each
`Scalar` keeps the OpenSSL private key it derives (`Scalar.openssl_key`)
and each `Point` the public key it loads (`Point.openssl_key`) for as
long as the object lives, so a long-lived authority key is set up once.
`Point.openssl_key` is the one way a point enters OpenSSL, and it
refuses the identity and any point `is_on_curve` refuses: OpenSSL alone
would reduce a coordinate >= p. `check_key_pair(k, K)`, the end entity's
K == k*G check, builds k's key from the pair with one k*G and keeps it
on k.

Every other multiply is `_mul`, a Lim-Lee comb: `scalar_mul` on the toy
curve and, on a named curve, only `mul_add`, the one way into the comb
there. `mul_add` computes u1*G + u2*Q for public scalars as
`point_add(scalar_mul(u1), _mul(u2, Q))`: verification's u2*Q on
secp256r1, and the Python reference the tests hold OpenSSL's brainpool
verification to. A `Point`'s first `_mul` walks a small table dropped
after the call, so a key checked once (each ballot's K) keeps nothing;
later ones walk a larger table kept on the `Point` (`Point.comb_table`),
built once per object for a reused key such as the CA's. The comb's
running time depends on the scalar, and no private key, blinding scalar
or ECDH secret on a named curve reaches it or the Python point addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from cryptography.hazmat.primitives.asymmetric import ec

from .errors import (
    BlindingOutOfRange,
    CurveMismatch,
    DegenerateResult,
    InvalidKey,
    NotOnCurve,
    UnknownCurve,
)
from .rng import RandomSource, random_int_in_range

BRAINPOOL_P256R1 = "brainpoolP256r1"
SECP256R1 = "secp256r1"
TOY = "toy"

SCALAR_BYTES = 32
COMB_TEETH = 6  # a kept comb table holds the 2**6 - 1 nonzero tooth sums
FIRST_USE_TEETH = 4  # the throwaway table of a Point's first `_mul`


@dataclass(frozen=True)
class Point:
    """Affine point, or the identity when x and y are None."""

    curve_id: str
    x: Optional[int]
    y: Optional[int]

    @classmethod
    def infinity(cls, curve_id: str) -> "Point":
        return cls(curve_id, None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def to_hex(self) -> str:
        if self.is_infinity:
            return "INF"
        return f"{self.x:064X}{self.y:064X}"

    def to_bytes(self) -> bytes:
        """64-byte x||y big-endian; identity is 64 zero bytes."""
        if self.is_infinity:
            return b"\x00" * 64
        return self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes, curve_id: str) -> "Point":
        if len(data) != 64:
            raise ValueError("point encoding must be 64 bytes")
        if data == b"\x00" * 64:
            return cls.infinity(curve_id)
        return cls(curve_id, int.from_bytes(data[:32], "big"),
                   int.from_bytes(data[32:], "big"))

    @cached_property
    def comb_table(self) -> tuple:
        """This point's COMB_TEETH comb table (`_build_comb`), built by its
        second `_mul` and kept for the object's lifetime; equal points
        built separately have separate tables."""
        return _build_comb(self, COMB_TEETH)

    @cached_property
    def openssl_key(self) -> ec.EllipticCurvePublicKey:
        """OpenSSL public key of this point on its named curve, loaded on
        first use and kept for the object's lifetime. Raises `UnknownCurve`
        on the toy curve and `ValueError`, keeping nothing, for the identity
        or a point `is_on_curve` refuses: OpenSSL would reduce x + p to x."""
        params = get_curve(self.curve_id)
        if params.openssl_curve is None:
            raise UnknownCurve(f"no OpenSSL backend for curve {self.curve_id!r}")
        if self.is_infinity or not is_on_curve(self):
            raise ValueError(f"not a public key of {self.curve_id}")
        return ec.EllipticCurvePublicNumbers(
            self.x, self.y, params.openssl_curve).public_key()


@dataclass(frozen=True)
class Scalar:
    """Integer mod the group order, tagged with its curve."""

    curve_id: str
    value: int

    def to_hex(self) -> str:
        return f"{self.value:064X}"

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(SCALAR_BYTES, "big")

    @classmethod
    def from_bytes(cls, data: bytes, curve_id: str) -> "Scalar":
        return cls(curve_id, int.from_bytes(data, "big"))

    @classmethod
    def from_hex(cls, text: str, curve_id: str) -> "Scalar":
        return cls(curve_id, int(text, 16))

    @cached_property
    def openssl_key(self) -> ec.EllipticCurvePrivateKey:
        """OpenSSL private key of value mod n on this scalar's named curve,
        derived on first use and kept for the object's lifetime. Raises
        `UnknownCurve` on the toy curve and `InvalidKey` when value mod n
        is 0."""
        params = get_curve(self.curve_id)
        if params.openssl_curve is None:
            raise UnknownCurve(f"no OpenSSL backend for curve {self.curve_id!r}")
        k = self.value % params.n
        if k == 0:
            raise InvalidKey("a zero scalar has no private key")
        return ec.derive_private_key(k, params.openssl_curve)


@dataclass(frozen=True)
class CurveParams:
    curve_id: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int
    # computes k*G, ECDH and signatures on a named curve; None on the toy
    # curve. One instance per curve: these objects compare by identity.
    openssl_curve: Optional[ec.EllipticCurve]
    # whether `envelope.verify` hands the ECDSA check to OpenSSL on this
    # curve after its own prechecks; otherwise u2*Q runs in `mul_add`.
    # secp256r1 joins once perfbench bounds its per-op memory (ROADMAP
    # item 1): there a native verify would raise the tally's throughput,
    # and with it perfbench's own per-op lists, past `peak_rss_mb`'s bound.
    openssl_verify: bool

    @property
    def g(self) -> Point:
        return Point(self.curve_id, self.gx, self.gy)


@dataclass(frozen=True)
class KeyPair:
    private: Scalar
    public: Point


def _hex(s: str) -> int:
    return int(s, 16)


# RFC 5639 parameters, matching the hex constants in the brainpool listing.
_BRAINPOOL = CurveParams(
    curve_id=BRAINPOOL_P256R1,
    p=_hex("A9FB57DBA1EEA9BC3E660A909D838D726E3BF623D52620282013481D1F6E5377"),
    a=_hex("7D5A0975FC2C3057EEF67530417AFFE7FB8055C126DC5C6CE94A4B44F330B5D9"),
    b=_hex("26DC5C6CE94A4B44F330B5D9BBD77CBF958416295CF7E1CE6BCCDC18FF8C07B6"),
    gx=_hex("8BD2AEB9CB7E57CB2C4B482FFC81B7AFB9DE27E1E3BD23C23A4453BD9ACE3262"),
    gy=_hex("547EF835C3DAC4FD97F8461A14611DC9C27745132DED8E545C1D54C72F046997"),
    n=_hex("A9FB57DBA1EEA9BC3E660A909D838D718C397AA3B561A6F7901E0E82974856A7"),
    openssl_curve=ec.BrainpoolP256R1(),
    openssl_verify=True,
)

# RFC 5480 / SEC 2 parameters (NIST P-256).
_SECP256R1 = CurveParams(
    curve_id=SECP256R1,
    p=_hex("FFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF"),
    a=_hex("FFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC"),
    b=_hex("5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B"),
    gx=_hex("6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296"),
    gy=_hex("4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5"),
    n=_hex("FFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551"),
    openssl_curve=ec.SECP256R1(),
    openssl_verify=False,
)

_TOY = CurveParams(curve_id=TOY, p=17, a=2, b=2, gx=5, gy=1, n=19,
                   openssl_curve=None, openssl_verify=False)

CURVES = {c.curve_id: c for c in (_BRAINPOOL, _SECP256R1, _TOY)}

def get_curve(curve_id: str) -> CurveParams:
    try:
        return CURVES[curve_id]
    except KeyError:
        raise UnknownCurve(f"unknown curve {curve_id!r}") from None


def curve_of(*operands) -> CurveParams:
    """The curve of the operands (`Point`s and `Scalar`s), read from
    their tags. Raises `CurveMismatch` when two tags differ and
    `UnknownCurve` when no curve has the tag."""
    curve_id = operands[0].curve_id
    for x in operands[1:]:
        if x.curve_id != curve_id:
            raise CurveMismatch(f"{x.curve_id} vs {curve_id}")
    return get_curve(curve_id)


def is_on_curve(P: Point) -> bool:
    """Whether P lies on the curve it is tagged with, with coordinates in
    [0, p). Every curve in `CURVES` has exactly n points (cofactor 1,
    `test_curve.py::TestCurveParams::test_cofactor_one`), so a point
    that passes lies in the group of G and needs no subgroup check."""
    if P.is_infinity:
        return True
    params = get_curve(P.curve_id)
    if not (0 <= P.x < params.p and 0 <= P.y < params.p):
        return False
    return (P.y * P.y - (P.x ** 3 + params.a * P.x + params.b)) % params.p == 0


def _require_on_curve(P: Point) -> None:
    if not is_on_curve(P):
        raise NotOnCurve(f"point off {P.curve_id}")


def point_add(P: Point, Q: Point) -> Point:
    params = curve_of(P, Q)
    _require_on_curve(P)
    _require_on_curve(Q)
    q = None if Q.is_infinity else (Q.x, Q.y)
    return _jac_to_affine(_jac_add_affine(_to_jac(P), q, params.p, params.a),
                          params.p, params.curve_id)


# Jacobian-coordinate helpers behind point_add and `_mul`; (X, Y, Z)
# with x = X/Z^2, y = Y/Z^3, identity encoded as Z = 0. Points convert back
# to affine losslessly before leaving this module.

_JAC_INF = (1, 1, 0)


def _to_jac(P: Point):
    return _JAC_INF if P.is_infinity else (P.x, P.y, 1)


def _jac_double(P, p: int, a: int):
    X, Y, Z = P
    if Z == 0:
        return _JAC_INF
    YY = Y * Y % p
    ZZ = Z * Z % p
    S = 4 * X * YY % p
    if a + 3 == p:  # 3X^2 + aZ^4 = 3(X - Z^2)(X + Z^2), as on secp256r1
        M = 3 * (X - ZZ) * (X + ZZ) % p
    else:
        M = (3 * X * X + a * ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * YY * YY) % p
    Z3 = 2 * Y * Z % p
    return (X3, Y3, Z3)


def _jac_add_affine(P, Q, p: int, a: int):
    """P + Q for a Jacobian P and an affine Q = (x, y), or None for the
    identity: the one point addition, behind point_add and the comb."""
    if Q is None:
        return P
    X1, Y1, Z1 = P
    if Z1 == 0:
        return (Q[0], Q[1], 1)
    Z1Z1 = Z1 * Z1 % p
    H = (Q[0] * Z1Z1 - X1) % p
    R = (Q[1] * Z1 * Z1Z1 - Y1) % p
    if H == 0:
        return _jac_double(P, p, a) if R == 0 else _JAC_INF
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    Y3 = (R * (V - X3) - Y1 * HHH) % p
    return (X3, Y3, Z1 * H % p)


def _jac_to_affine(P, p: int, curve_id: str) -> Point:
    xy = _affine([P], p)[0]
    return Point.infinity(curve_id) if xy is None else Point(curve_id, *xy)


def scalar_mul(k: Scalar) -> Point:
    """k*G on k's curve. On a named curve, OpenSSL computes it with the
    scalar's cached key; on the toy curve, `_mul` does."""
    params = get_curve(k.curve_id)
    if params.openssl_curve is None:
        return _mul(k.value, params.g)
    if k.value % params.n == 0:  # OpenSSL refuses a zero private key
        return Point.infinity(params.curve_id)
    public = k.openssl_key.public_key().public_numbers()
    return Point(params.curve_id, public.x, public.y)


def check_key_pair(k: Scalar, K: Point) -> ec.EllipticCurvePrivateKey:
    """k's OpenSSL private key, built from k and its public key K and kept
    on k as its `openssl_key`. OpenSSL checks K == k*G with one k*G, where
    deriving the key and comparing `scalar_mul(k)` with K takes two.
    Raises `ValueError` when K is not k*G on k's curve or is a point that
    `Point.openssl_key` refuses."""
    if K.curve_id != k.curve_id:
        raise ValueError(f"{K.curve_id} key for a {k.curve_id} scalar")
    key = ec.EllipticCurvePrivateNumbers(
        k.value, K.openssl_key.public_numbers()).private_key()
    vars(k)["openssl_key"] = key
    return key


def _affine(jac: list, p: int) -> list:
    """The affine (x, y) of each Jacobian point of `jac`, or None for the
    identity, all made affine by one inversion (Montgomery's trick)."""
    prefix, acc = [], 1  # prefix[i]: product of the nonzero Zs before i
    for _, _, Z in jac:
        prefix.append(acc)
        acc = acc * Z % p if Z else acc
    inv = pow(acc, -1, p)
    out = [None] * len(jac)
    for i in reversed(range(len(jac))):
        X, Y, Z = jac[i]
        if Z:
            z_inv = inv * prefix[i] % p
            inv = inv * Z % p
            z_inv2 = z_inv * z_inv % p
            out[i] = (X * z_inv2 % p, Y * z_inv2 * z_inv % p)
    return out


def _build_comb(P: Point, teeth: int) -> tuple:
    """Lim-Lee comb table of P (Lim and Lee, CRYPTO '94): with the
    scalar's bits cut into `teeth` rows of d = ceil(bits(n) / teeth),
    entry i is the sum of 2**(j*d) * P over the set bits j of i, as an
    affine (x, y) (`_affine`); the identity, which the toy curve's small
    order makes reachable, is None. The teeth 2**(j*d) * P are doubled
    in Jacobian coordinates and made affine together, so each entry is
    summed with the mixed addition. Returns (d, entries).
    """
    params = get_curve(P.curve_id)
    p, a = params.p, params.a
    d = -(-params.n.bit_length() // teeth)
    tooth = _to_jac(P)
    jac_teeth = [tooth]
    for _ in range(teeth - 1):
        for _ in range(d):
            tooth = _jac_double(tooth, p, a)
        jac_teeth.append(tooth)
    jac = [_JAC_INF]
    for tooth in _affine(jac_teeth, p):
        jac += [_jac_add_affine(e, tooth, p, a) for e in jac]
    return d, tuple(_affine(jac, p))


def _mul(k_val: int, P: Point) -> Point:
    """k_val*P for k_val >= 0 and an on-curve P: one double and one mixed
    add per comb column, top column first. P's first call marks P and
    walks a FIRST_USE_TEETH table it drops; later calls walk P's kept
    table (two threads racing on one P at worst build a table twice)."""
    params = get_curve(P.curve_id)
    p, a, n = params.p, params.a, params.n
    state = vars(P)
    if "multiplied_once" in state:
        teeth, (d, entries) = COMB_TEETH, P.comb_table
    else:
        state["multiplied_once"] = True
        teeth = FIRST_USE_TEETH
        d, entries = _build_comb(P, teeth)
    # column col of the comb reads bits col, col + d, ... of the
    # teeth * d-bit big-endian string, top tooth first
    bits = format(k_val % n, f"0{teeth * d}b")
    acc = _JAC_INF
    for col in range(d):
        acc = _jac_add_affine(_jac_double(acc, p, a),
                              entries[int(bits[col::d], 2)], p, a)
    return _jac_to_affine(acc, p, params.curve_id)


def mul_add(u1: Scalar, u2: Scalar, Q: Point) -> Point:
    """u1*G + u2*Q for public scalars, such as ECDSA verification's: u1*G
    in `scalar_mul`, u2*Q in the comb, whose time depends on u2, so u2
    must never be secret. The only way into the comb on a named curve."""
    curve_of(u1, u2, Q)
    _require_on_curve(Q)
    return point_add(scalar_mul(u1), _mul(u2.value, Q))


def generate_keypair(params: CurveParams, rng: RandomSource) -> KeyPair:
    private = Scalar(params.curve_id, random_int_in_range(rng, params.n))
    public = scalar_mul(private)
    return KeyPair(private, public)


def expand_public(P: Point, r: Scalar) -> Point:
    """Additive public-key blinding: P -> P + r*G. `point_add` refuses a
    P off its curve."""
    params = curve_of(P, r)
    if P.is_infinity:
        raise NotOnCurve("cannot expand the identity")
    if not (1 <= r.value <= params.n - 1):
        raise BlindingOutOfRange(f"blinding scalar {r.value} outside [1, n-1]")
    result = point_add(P, scalar_mul(r))
    if result.is_infinity:
        raise DegenerateResult("expansion landed on the identity; resample r")
    return result


def expand_private(x: Scalar, r: Scalar) -> Scalar:
    """Additive private-key blinding: x -> (x + r) mod n, rejecting zero."""
    params = curve_of(x, r)
    if not (1 <= x.value <= params.n - 1):
        raise BlindingOutOfRange(f"private scalar {x.value} outside [1, n-1]")
    if not (1 <= r.value <= params.n - 1):
        raise BlindingOutOfRange(f"blinding scalar {r.value} outside [1, n-1]")
    out = (x.value + r.value) % params.n
    if out == 0:
        raise DegenerateResult("expanded private key is zero; resample r")
    return Scalar(params.curve_id, out)


def random_blinding(params: CurveParams, rng: RandomSource) -> Scalar:
    return Scalar(params.curve_id, random_int_in_range(rng, params.n))
