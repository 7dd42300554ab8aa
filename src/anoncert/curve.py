"""Short-Weierstrass curve arithmetic and the additive key-expansion primitives.

Supports two production curves (brainpoolP256r1, secp256r1) plus a tiny
order-19 curve (y^2 = x^3 + 2x + 2 mod 17, G = (5,1)) small enough to
check the whole group exhaustively against a brute-force oracle.

Values are immutable; every function is pure. Scalar multiplication uses
a fixed-schedule Montgomery ladder over bitlen(n) iterations; this is a
best-effort constant-time shape, not a verified side-channel guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from cryptography.hazmat.primitives.asymmetric import ec

from .errors import (
    BlindingOutOfRange,
    CurveMismatch,
    DegenerateResult,
    NotOnCurve,
    UnknownCurve,
)
from .rng import RandomSource, random_int_in_range

BRAINPOOL_P256R1 = "brainpoolP256r1"
SECP256R1 = "secp256r1"
TOY = "toy"

SCALAR_BYTES = 32


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


@dataclass(frozen=True)
class CurveParams:
    curve_id: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int
    h: int

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
    h=1,
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
    h=1,
)

_TOY = CurveParams(curve_id=TOY, p=17, a=2, b=2, gx=5, gy=1, n=19, h=1)

CURVES = {
    BRAINPOOL_P256R1: _BRAINPOOL,
    SECP256R1: _SECP256R1,
    TOY: _TOY,
}

# The named curves, which the protocol runs on, and their `cryptography`
# counterparts used for signing. The toy curve has none: it only checks the
# group arithmetic against the oracle.
OPENSSL_CURVES = {
    BRAINPOOL_P256R1: ec.BrainpoolP256R1(),
    SECP256R1: ec.SECP256R1(),
}


def get_curve(curve_id: str) -> CurveParams:
    try:
        return CURVES[curve_id]
    except KeyError:
        raise UnknownCurve(f"unknown curve {curve_id!r}") from None


def is_on_curve(P: Point, params: CurveParams) -> bool:
    if P.is_infinity:
        return True
    if not (0 <= P.x < params.p and 0 <= P.y < params.p):
        return False
    return (P.y * P.y - (P.x ** 3 + params.a * P.x + params.b)) % params.p == 0


def _require_operand(P: Point, params: CurveParams) -> None:
    if P.curve_id != params.curve_id:
        raise CurveMismatch(f"{P.curve_id} vs {params.curve_id}")
    if not is_on_curve(P, params):
        raise NotOnCurve(f"point off {params.curve_id}")


def point_add(P: Point, Q: Point, params: CurveParams) -> Point:
    _require_operand(P, params)
    _require_operand(Q, params)
    return _jac_to_affine(_jac_add(_to_jac(P), _to_jac(Q), params.p, params.a),
                          params.p, params.curve_id)


def point_neg(P: Point, params: CurveParams) -> Point:
    if P.is_infinity:
        return P
    return Point(P.curve_id, P.x, (-P.y) % params.p)


# Jacobian-coordinate helpers behind point_add and scalar_mul; (X, Y, Z)
# with x = X/Z^2, y = Y/Z^3, identity encoded as Z = 0. Points convert back
# to affine losslessly before leaving this module.

_JAC_INF = (1, 1, 0)


def _to_jac(P: Point):
    return _JAC_INF if P.is_infinity else (P.x, P.y, 1)


def _jac_double(P, p: int, a: int):
    X, Y, Z = P
    if Z == 0 or Y == 0:
        return _JAC_INF
    S = 4 * X * Y * Y % p
    M = (3 * X * X + a * Z ** 4) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * Y ** 4) % p
    Z3 = 2 * Y * Z % p
    return (X3, Y3, Z3)


def _jac_add(P, Q, p: int, a: int):
    if P[2] == 0:
        return Q
    if Q[2] == 0:
        return P
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    U2 = X2 * Z1Z1 % p
    S1 = Y1 * Z2 * Z2Z2 % p
    S2 = Y2 * Z1 * Z1Z1 % p
    if U1 == U2:
        if S1 != S2:
            return _JAC_INF
        return _jac_double(P, p, a)
    H = (U2 - U1) % p
    R = (S2 - S1) % p
    HH = H * H % p
    HHH = H * HH % p
    V = U1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    Y3 = (R * (V - X3) - S1 * HHH) % p
    Z3 = Z1 * Z2 * H % p
    return (X3, Y3, Z3)


def _jac_to_affine(P, p: int, curve_id: str) -> Point:
    X, Y, Z = P
    if Z == 0:
        return Point.infinity(curve_id)
    z_inv = pow(Z, -1, p)
    z_inv2 = z_inv * z_inv % p
    return Point(curve_id, X * z_inv2 % p, Y * z_inv2 * z_inv % p)


def scalar_mul(k: Scalar, P: Point, params: CurveParams) -> Point:
    """k*P via a Montgomery ladder with a fixed iteration count."""
    if k.curve_id != params.curve_id:
        raise CurveMismatch(f"{k.curve_id} vs {params.curve_id}")
    _require_operand(P, params)
    k_val = k.value % params.n
    p, a = params.p, params.a
    r0 = _JAC_INF
    r1 = _to_jac(P)
    for bit_index in reversed(range(params.n.bit_length())):
        if (k_val >> bit_index) & 1:
            r0 = _jac_add(r0, r1, p, a)
            r1 = _jac_double(r1, p, a)
        else:
            r1 = _jac_add(r0, r1, p, a)
            r0 = _jac_double(r0, p, a)
    return _jac_to_affine(r0, p, params.curve_id)


def scalar_add_mod_n(x: Scalar, r: Scalar, params: CurveParams) -> Scalar:
    if x.curve_id != params.curve_id or r.curve_id != params.curve_id:
        raise CurveMismatch("scalar curve tags differ")
    return Scalar(params.curve_id, (x.value + r.value) % params.n)


def generate_keypair(params: CurveParams, rng: RandomSource) -> KeyPair:
    private = Scalar(params.curve_id, random_int_in_range(rng, params.n))
    public = scalar_mul(private, params.g, params)
    return KeyPair(private, public)


def expand_public(P: Point, r: Scalar, params: CurveParams) -> Point:
    """Additive public-key blinding: P -> P + r*G."""
    _require_operand(P, params)
    if P.is_infinity:
        raise NotOnCurve("cannot expand the identity")
    if not (1 <= r.value <= params.n - 1):
        raise BlindingOutOfRange(f"blinding scalar {r.value} outside [1, n-1]")
    result = point_add(P, scalar_mul(r, params.g, params), params)
    if result.is_infinity:
        raise DegenerateResult("expansion landed on the identity; resample r")
    return result


def expand_private(x: Scalar, r: Scalar, params: CurveParams) -> Scalar:
    """Additive private-key blinding: x -> (x + r) mod n, rejecting zero."""
    if not (1 <= x.value <= params.n - 1):
        raise BlindingOutOfRange(f"private scalar {x.value} outside [1, n-1]")
    if not (1 <= r.value <= params.n - 1):
        raise BlindingOutOfRange(f"blinding scalar {r.value} outside [1, n-1]")
    out = scalar_add_mod_n(x, r, params)
    if out.value == 0:
        raise DegenerateResult("expanded private key is zero; resample r")
    return out


def random_blinding(params: CurveParams, rng: RandomSource) -> Scalar:
    return Scalar(params.curve_id, random_int_in_range(rng, params.n))
